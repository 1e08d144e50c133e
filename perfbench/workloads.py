"""The benchmark's workloads: inputs, one op, and the checks on its output.

Each workload is a closed loop over netacorr's public API. `make_inputs`
runs in a fresh interpreter during set-up and writes the inputs to a
directory; `load` reads them back in the measuring process and builds the
oracles the checks use; `run_op` is the timed part; `output` turns what the
op produced into plain JSON numbers; `check` lists what is wrong with them.

Run as a script to make one set of inputs:

    python3 perfbench/workloads.py <workload> <seed> <directory> <trace 0|1>
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy import sparse  # noqa: E402
from scipy.sparse import csgraph  # noqa: E402

from netacorr import cli, experiments, graph, simulate  # noqa: E402

# The 200-node Erdos-Renyi benchmark graph of the paper's Monte Carlo studies.
ER_N, ER_SEED = 200, 5


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _edge_arrays(path):
    """Edge list CSV -> (labels in first-appearance order, src index, dst index)."""
    _header, rows = _read_csv(path)
    index = {}
    for row in rows:
        for lab in row:
            index.setdefault(lab, len(index))
    src = np.array([index[a] for a, _b in rows])
    dst = np.array([index[b] for _a, b in rows])
    return list(index), src, dst


def _moran(y, w, s0):
    d = y - y.mean()
    return len(y) * float(d @ (w @ d)) / (s0 * float(d @ d))


def _close(a, b, rtol=1e-9):
    return a is not None and math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def _check_test_result(res, n, m):
    """Problems with a `netacorr test --method both` result of n nodes and m permutations."""
    out = []
    if res["n"] != n or res["m"] != m:
        out.append(f"result has n={res['n']}, m={res['m']}; expected n={n}, m={m}")
    if not (res["p_perm"] is not None and 1.0 / (m + 1) <= res["p_perm"] <= 1.0):
        out.append(f"p_perm {res['p_perm']!r} outside [1/(m+1), 1]")
    if not (res["p_normal"] is not None and 0.0 <= res["p_normal"] <= 1.0):
        out.append(f"p_normal {res['p_normal']!r} outside [0, 1]")
    return out


def _check_rows(out, cells, reps, rates):
    """Problems with a study report: one row per cell, rates that are counts over reps."""
    rows = out["rows"]
    problems = []
    if len(rows) != len(cells) or out["replicates"] != len(cells) * reps:
        problems.append(f"{len(rows)} rows and {out['replicates']} replicates; "
                        f"expected {len(cells)} and {len(cells) * reps}")
    for row, cell in zip(rows, cells):
        got = tuple(row[k] for k in cell)
        if got != tuple(cell.values()) or row["reps"] != reps:
            problems.append(f"row {got} does not match cell {tuple(cell.values())}")
        for key, val in row.items():
            if isinstance(val, float) and not math.isfinite(val):
                problems.append(f"row {got}: {key} is {val}")
        for key in rates:
            count = row[key] * reps
            if not (0.0 <= row[key] <= 1.0 and abs(count - round(count)) < 1e-9):
                problems.append(f"row {got}: {key}={row[key]} is not a rate over {reps} reps")
        if not row["mean_se"] > 0.0:
            problems.append(f"row {got}: mean_se={row['mean_se']}")
    return problems


class _McStudy:
    """Shared inputs of the Monte Carlo workloads: the fixed ER graph."""

    def make_inputs(self, seed, d):
        net = graph.generate_random_network(ER_N, "erdos-renyi", seed=ER_SEED)
        with open(os.path.join(d, "network.json"), "w") as fh:
            json.dump({"n": net.n, "edges": net.edges}, fh)

    def load(self, seed, d):
        with open(os.path.join(d, "network.json")) as fh:
            doc = json.load(fh)
        return graph.Network(n=doc["n"], edges=tuple(tuple(e) for e in doc["edges"]))

    def output(self, net, report):
        return {"rows": report.rows, "replicates": len(report.replicates)}


class McPerm(_McStudy):
    """The paper's spurious-regression study with its permuted baseline."""

    name = "mc-perm"
    KAPPAS = (0, 1, 2, 3)
    REPS = 8
    M = 500

    def run_op(self, net, seed, threads):
        return experiments.run_spurious_regression_experiment(
            net, kappa_list=self.KAPPAS, reps=self.REPS, seed=seed, m=self.M,
            include_permuted_baseline=True, threads=threads)

    def check(self, net, out):
        cells = [{"kappa": k} for k in self.KAPPAS + ("permuted",)]
        return _check_rows(out, cells, self.REPS,
                           ("coverage", "reject_slope", "reject_x", "reject_y", "reject_resid"))


class McLmm(_McStudy):
    """The GLS-correction study with the mixed model on transmission kinship."""

    name = "mc-lmm"
    KAPPAS = (1, 2, 3)
    LAMBDAS = (0.0, 0.1, 0.25, 0.5)
    REPS = 6

    def run_op(self, net, seed, threads):
        return experiments.run_gls_correction_experiment(
            net, kappa_list=self.KAPPAS, lambdas=self.LAMBDAS, reps=self.REPS,
            seed=seed, estimator="lmm", kinship="transmission", threads=threads)

    def check(self, net, out):
        cells = [{"kappa": k, "lambda": lam} for k in self.KAPPAS for lam in self.LAMBDAS]
        return _check_rows(out, cells, self.REPS, ("coverage",))


class _CliState:
    def __init__(self, d):
        self.edges = os.path.join(d, "edges.csv")
        self.values = os.path.join(d, "values.csv")
        self.out = os.path.join(d, "result.json")

    def read_result(self):
        with open(self.out) as fh:
            doc = json.load(fh)
        os.remove(self.out)
        return doc["result"]


class CliSparseLarge:
    """`netacorr test` on a user-sized sparse graph with adjacency weights."""

    name = "cli-sparse-large"
    N = 8000
    PERMS = 2000

    def make_inputs(self, seed, d):
        net = graph.generate_random_network(self.N, "small-world", k=4,
                                           rewire_prob=0.05, seed=seed)
        y = simulate.direct_transmission(
            net, simulate.TransmissionConfig(a=0.5, sigma=0.5, kappa=3, seed=seed))
        st = _CliState(d)
        _write_csv(st.edges, ("src", "dst"), net.edges)
        _write_csv(st.values, ("node", "value"), ((i, repr(float(v))) for i, v in enumerate(y)))

    def load(self, seed, d):
        st = _CliState(d)
        labels, src, dst = _edge_arrays(st.edges)
        _header, rows = _read_csv(st.values)
        value = {lab: float(v) for lab, v in rows}
        y = np.array([value[lab] for lab in labels])
        n = len(labels)
        w = sparse.coo_matrix((np.ones(2 * len(src)), (np.r_[src, dst], np.r_[dst, src])),
                              shape=(n, n)).tocsr()
        st.s0 = float(w.sum())
        st.i_ref = _moran(y, w, st.s0)
        return st

    def run_op(self, st, seed, threads):
        return cli.main(["test", "--edges", st.edges, "--values", st.values,
                         "--method", "both", "--permutations", str(self.PERMS),
                         "--seed", str(seed), "--threads", str(threads), "--out", st.out])

    def output(self, st, rc):
        return {"rc": rc, "result": st.read_result() if rc == 0 else None}

    def check(self, st, out):
        res = out["result"]
        if out["rc"] != 0 or res is None:
            return [f"exit code {out['rc']}"]
        problems = _check_test_result(res, self.N, self.PERMS)
        if not _close(res["statistic"], st.i_ref):
            problems.append(f"Moran's I {res['statistic']!r} != sparse recomputation {st.i_ref!r}")
        if not _close(res["s0"], st.s0):
            problems.append(f"s0 {res['s0']!r} != {st.s0!r}")
        return problems


class CliGeodesic:
    """`netacorr simulate --model latent`, then `test` with inverse-geodesic weights."""

    name = "cli-geodesic"
    N = 300
    PERMS = 500

    def make_inputs(self, seed, d):
        net = graph.generate_random_network(self.N, "small-world", k=4,
                                           rewire_prob=0.05, seed=seed)
        _write_csv(_CliState(d).edges, ("src", "dst"), net.edges)

    def load(self, seed, d):
        st = _CliState(d)
        labels, src, dst = _edge_arrays(st.edges)
        n = len(labels)
        adj = sparse.coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n)).tocsr()
        dist = csgraph.shortest_path(adj, directed=False, unweighted=True)
        with np.errstate(divide="ignore"):
            w = np.where(np.isfinite(dist) & (dist > 0), 1.0 / dist, 0.0)
        st.labels, st.w, st.s0 = labels, w, float(w.sum())
        return st

    def run_op(self, st, seed, threads):
        rc_sim = cli.main(["simulate", "--model", "latent", "--edges", st.edges,
                           "--seed", str(seed), "--out", st.values])
        if rc_sim != 0:
            return rc_sim, None
        rc_test = cli.main(["test", "--edges", st.edges, "--values", st.values,
                            "--weights", "inverse-geodesic", "--method", "both",
                            "--permutations", str(self.PERMS), "--seed", str(seed),
                            "--threads", str(threads), "--out", st.out])
        return rc_sim, rc_test

    def output(self, st, rcs):
        _header, rows = _read_csv(st.values)
        os.remove(st.values)
        value = {lab: float(v) for lab, v in rows}
        return {"rc": list(rcs), "result": st.read_result() if rcs[1] == 0 else None,
                "values": [value.get(lab) for lab in st.labels]}

    def check(self, st, out):
        res = out["result"]
        if out["rc"] != [0, 0] or res is None:
            return [f"exit codes {out['rc']}"]
        if None in out["values"]:
            return ["simulated values miss nodes of the edge list"]
        problems = _check_test_result(res, self.N, self.PERMS)
        i_ref = _moran(np.array(out["values"]), st.w, st.s0)
        if not _close(res["statistic"], i_ref):
            problems.append(f"Moran's I {res['statistic']!r} != csgraph geodesic "
                            f"recomputation {i_ref!r}")
        if not _close(res["s0"], st.s0):
            problems.append(f"s0 {res['s0']!r} != csgraph geodesic weight total {st.s0!r}")
        return problems


WORKLOADS = {w.name: w for w in (McPerm(), McLmm(), CliSparseLarge(), CliGeodesic())}


def main(argv):
    name, seed, d, trace = argv
    wl = WORKLOADS[name]
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        wl.make_inputs(int(seed), d)
        tracer.uninstall()
        tracer.dump(os.path.join(d, "setup_spans.json"))
    else:
        wl.make_inputs(int(seed), d)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
