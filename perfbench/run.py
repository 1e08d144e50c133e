"""netacorr benchmark: closed-loop workloads over the package's public API.

    python3 perfbench/run.py --workload mc-perm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

One client runs one op after another. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The line before it holds the detail: provenance, sample counts,
reference drift and every per-layer figure. Both lines are also written
under .perfbench/results/. See perfbench/NOTES.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, setup_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups per run; setup_s is their median
REFS = HERE / "refs.json"
REF_OPS = 3  # ops per workload whose outputs refs.json stores


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help=f"store the outputs of the first {REF_OPS} ops in {REFS.name}")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "netacorr").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} lacks src/netacorr or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    from workloads import WORKLOADS  # imports netacorr from ROOT/src

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (ROOT / ".perfbench" / "results").mkdir(parents=True, exist_ok=True)
    try:
        detail, result = Bench(WORKLOADS[args.workload], args, work).run(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = ROOT / ".perfbench" / "results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, wl, args, work):
        self.wl, self.args, self.work = wl, args, work
        self.attempted = self.failed = 0
        self.problems = []
        self.tracer = None
        self.state = None
        self.warm_out = None

    def seed_of(self, i):
        """Seed of op i."""
        return self.args.seed * 100_000 + i

    def run(self, spec):
        args = self.args
        setup_times, setup_layers = self.set_up()
        warm = self.op(self.seed_of(0))
        self.warm_out = warm[2]  # op 0 of the timed loop repeats it and must match
        setup_s = statistics.median(setup_times) + warm[0]
        detail = {"workload": self.wl.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "provenance": provenance(args.seed),
                  "setup_runs_s": setup_times, "warmup_s": warm[0]}
        if args.trace:
            metrics = self.traced(spec, detail, setup_layers)
            names = spec["per_layer"]
        else:
            metrics = self.untraced(detail, setup_s)
            names = spec["end_to_end"]
        detail.update(attempted=self.attempted, failed=self.failed,
                      failed_frac=self.failed / self.attempted, problems=self.problems[:5],
                      metrics=metrics)
        result = {"correct": self.failed == 0, "attempted": self.attempted,
                  "failed": self.failed,
                  "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                              for m in names}}
        return detail, result

    def set_up(self):
        """Make the inputs SETUPS times, each in a fresh interpreter, and load them.

        A separate process keeps input generation out of this process's
        peak RSS. Returns the wall time of each set-up and, when tracing,
        the generator metrics of the first.
        """
        times = []
        for k in range(SETUPS):
            d = self.work / f"setup{k}"
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(HERE / "workloads.py"), self.wl.name,
                            str(self.args.seed), str(d), str(self.args.trace)],
                           check=True, timeout=150, stdout=subprocess.DEVNULL, cwd=ROOT)
            self.state = self.wl.load(self.args.seed, str(d))
            times.append(time.perf_counter() - t0)
        if not self.args.trace:
            return times, {}
        return times, setup_metrics(self.work / "setup0" / "setup_spans.json")

    def op(self, seed, threads=1):
        """Run and check one op; returns (wall s, CPU s, output or None if it failed)."""
        self.attempted += 1
        bad_p = len(self.tracer.bad_p) if self.tracer else 0
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw = self.wl.run_op(self.state, seed, threads)
        except Exception:  # an op that raises is a failed op; the loop goes on
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            return wall, cpu, self.fail(seed, traceback.format_exc().strip().splitlines()[-1])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        try:
            out = json.loads(json.dumps(self.wl.output(self.state, raw)))
        except (OSError, ValueError, KeyError) as exc:
            return wall, cpu, self.fail(seed, f"unreadable output: {exc!r}")
        problems = self.wl.check(self.state, out)
        if self.tracer and len(self.tracer.bad_p) > bad_p:
            bad = self.tracer.bad_p[bad_p:]
            problems.append(f"{len(bad)} permutation p-values outside [1/(m+1), 1], "
                            f"first {bad[0]!r}")
        if problems:
            return wall, cpu, self.fail(seed, "; ".join(problems))
        return wall, cpu, out

    def fail(self, seed, why):
        self.failed += 1
        self.problems.append(f"op seed {seed}: {why}")
        return None

    def phase(self, seconds):
        """Closed loop from op 0 until `seconds` have passed; returns walls, CPUs, outputs."""
        walls, cpus, outs = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, cpu, out = self.op(self.seed_of(len(walls)))
            if not walls and None not in (out, self.warm_out) and out != self.warm_out:
                out = self.fail(self.seed_of(0),
                                "repeating the op with the same seed changed its output")
            walls.append(wall)
            cpus.append(cpu)
            outs.append(out if len(outs) < REF_OPS else None)
        return walls, cpus, outs

    def untraced(self, detail, setup_s):
        walls, cpus, outs = self.phase(self.args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail["reference"] = self.compare_refs(outs)
        n = len(walls)
        tail = max(n - 11, n // 2)  # highest order statistic with 10 samples beyond it
        detail.update(samples=n, tail_percentile=100.0 * (tail + 1) / n,
                      tail_samples_beyond=n - 1 - tail, op_walls_s=walls)
        return {
            "setup_s": setup_s,
            "ops_per_s": n / sum(walls),
            "op_p50_s": statistics.median(walls),
            "op_tail_s": sorted(walls)[tail],
            "cpu_per_op_s": statistics.median(cpus),
            "peak_rss_mb": rss_mb,
        }

    def compare_refs(self, outs):
        refs = json.loads(REFS.read_text()) if REFS.is_file() else {"seed": 0, "outputs": {}}
        if self.args.record_refs:
            if self.args.seed != refs["seed"] or None in outs[:REF_OPS] or len(outs) < REF_OPS:
                raise SystemExit(f"refusing to record refs: need seed {refs['seed']} and "
                                 f"{REF_OPS} good ops")
            refs["outputs"][self.wl.name] = outs[:REF_OPS]
            REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        if self.args.seed != refs["seed"]:
            return {"seed": refs["seed"], "compared": 0, "drifted": 0}
        pairs = [(o, r) for o, r in zip(outs, refs["outputs"].get(self.wl.name, []))
                 if o is not None]
        return {"seed": refs["seed"], "compared": len(pairs),
                "drifted": sum(o != r for o, r in pairs)}

    def traced(self, spec, detail, setup_layers):
        """Per-layer metrics from ops run in pairs, one traced and one not."""
        tracer = Tracer()

        def run(label, seed):
            if label == "untraced":
                return self.op(seed)
            tracer.install()
            self.tracer = tracer
            try:
                return self.op(seed)
            finally:
                tracer.uninstall()
                self.tracer = None

        runs = self.paired(self.args.seconds, "untraced", "traced", run)
        walls_t = [wall for wall, _cpu in runs["traced"]]
        metrics = tracer.summary(len(walls_t), sum(walls_t))
        metrics.update(setup_layers)
        metrics["trace.overhead_frac"] = _ratio(runs, "traced", "untraced", 0) - 1
        tracer.dump(ROOT / ".perfbench" / "results" / f"{self.wl.name}-seed{self.args.seed}-spans.json")

        nproc = os.cpu_count() or 1
        runs = self.paired(self.args.seconds / 4, "threads=1", f"threads={nproc}",
                           lambda label, seed: self.op(seed, int(label.split("=")[1])))
        metrics["threads.wall_ratio"] = _ratio(runs, f"threads={nproc}", "threads=1", 0)
        metrics["threads.cpu_ratio"] = _ratio(runs, f"threads={nproc}", "threads=1", 1)
        detail.update(samples_traced=len(walls_t), threads_probed=nproc)
        for m in spec["per_layer"]:  # functions no longer in the package
            if m["name"].endswith((".s", ".calls", ".share")):
                metrics.setdefault(m["name"], 0.0)
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
        if missing:
            raise SystemExit(f"per-layer metrics not measured: {missing}")
        return metrics

    def paired(self, seconds, a, b, run):
        """Run op k under `a` and under `b`, alternating which goes first, for at
        least two pairs and `seconds`; the two outputs of a pair must match.
        Returns {label: [(wall s, CPU s), ...]}."""
        runs = {a: [], b: []}
        start = time.perf_counter()
        k = 0
        while k < 2 or time.perf_counter() - start < seconds:
            seed = self.seed_of(k)
            got = {}
            for label in ((a, b) if k % 2 == 0 else (b, a)):
                wall, cpu, got[label] = run(label, seed)
                runs[label].append((wall, cpu))
            if None not in got.values() and got[a] != got[b]:
                self.fail(seed, f"output differs between {a} and {b}")
            k += 1
        return runs


def _ratio(runs, num, den, col):
    return (statistics.median(r[col] for r in runs[num])
            / statistics.median(r[col] for r in runs[den]))


def run_all(args, spec):
    """Run every workload in its own process and print one table of metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{wl['name']}: exit code {proc.returncode}", file=sys.stderr)
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        print(f"{wl['name']}: {res['attempted']} ops, failed_frac "
              f"{res['failed'] / res['attempted']:.4g}")
        for name, m in res["metrics"].items():
            print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{wl['name']}.{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def provenance(seed):
    import numpy as np
    import scipy

    import netacorr

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "runner_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "netacorr": netacorr.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        "seed": seed,
    }


def _openblas_threads():
    """Thread count of the OpenBLAS loaded into this process, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the repository rooted exactly at ROOT, or None outside one."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


if __name__ == "__main__":
    sys.exit(main())
