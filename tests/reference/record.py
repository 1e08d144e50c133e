"""Fixed-seed reference outputs of the netacorr command line.

Each case runs one `netacorr` command in process and reduces its output
file to the numeric payload: the rows and replicates of a study report,
the `result` (and `fit`) of a test document, the values of a simulated
CSV or the edges of a generated network. The document envelope and the
options echo are left out, so a change to either never shows here; a
change to any reported number does. `tests/test_reference.py` compares
every case with its stored file.

Re-record only when a change moves numbers on purpose, and say why:

    PYTHONPATH=src python tests/reference/record.py

The command rewrites every ``<case>.json`` next to this script.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile

from netacorr.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

# Small graphs and few replicates keep the whole set to a few seconds; the
# m = 600 tests span two 512-row permutation chunks.
_SW = ("--model", "small-world", "--n", "50", "--k", "4", "--rewire-prob", "0.2",
       "--seed", "4")
_ER = ("--model", "erdos-renyi", "--n", "45", "--p", "0.12", "--seed", "3")
_STUDY = ("--edges", "{sw}", "--seed", "5")
_PERMS = ("--permutations", "99")  # only the studies that run permutation tests take it


def _run(*argv):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"netacorr {' '.join(argv)} exited {code}")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def make_inputs(d):
    """Write the shared input files under directory d; returns their paths."""
    paths = {name: os.path.join(d, f"{name}.csv")
             for name in ("sw", "er", "y", "iid", "design")}
    _run("generate-network", *_SW, "--out", paths["sw"])
    _run("generate-network", *_ER, "--out", paths["er"])
    _run("simulate", "--model", "transmission", "--edges", paths["sw"], "--a", "0.6",
         "--sigma", "0.4", "--kappa", "2", "--seed", "8", "--out", paths["y"])
    # kappa 0 is iid noise: its permutation p-values sit inside (0, 1), so
    # they move with every permutation drawn
    _run("simulate", "--model", "transmission", "--edges", paths["sw"], "--kappa", "0",
         "--seed", "10", "--out", paths["iid"])
    # node,value is also a one-column design: a covariate that tracks degree
    _run("simulate", "--model", "degree-confound", "--edges", paths["sw"], "--seed", "9",
         "--out", paths["design"])
    return paths


def _edges(paths, name):
    header, *rows = _read_csv(paths[name])
    return {"header": header, "edges": [[int(a), int(b)] for a, b in rows]}


def _simulated(model, *extra):
    def case(paths, d):
        out = os.path.join(d, f"sim-{model}.csv")
        _run("simulate", "--model", model, *(a.format(**paths) for a in extra), "--seed", "6",
             "--out", out)
        header, *rows = _read_csv(out)
        return {"header": header, "labels": [row[0] for row in rows],
                "values": [[float(v) for v in row[1:]] for row in rows]}
    return case


def _document(command, values, *argv):
    def case(paths, d):
        out = os.path.join(d, "doc.json")
        extra = ("--design", paths["design"]) if command == "residual-test" else ()
        _run(command, "--edges", paths["sw"], "--values", paths[values], *extra, *argv,
             "--out", out)
        with open(out) as fh:
            doc = json.load(fh)
        return {key: doc[key] for key in ("fit", "result") if key in doc}
    return case


def _study(name, *argv):
    def case(paths, d):
        out = os.path.join(d, f"study-{len(os.listdir(d))}")
        _run("experiment", name, *(a.format(**paths) for a in _STUDY), *argv,
             "--format", "json", "--out", out)
        with open(os.path.join(out, f"{name}_report.json")) as fh:
            doc = json.load(fh)
        return {"rows": doc["rows"], "replicates": doc["replicates"]}
    return case


CASES = {
    "generate-small-world": lambda paths, d: _edges(paths, "sw"),
    "generate-erdos-renyi": lambda paths, d: _edges(paths, "er"),
    "simulate-transmission": _simulated("transmission", "--edges", "{sw}"),
    "simulate-latent": _simulated("latent", "--edges", "{sw}"),
    "simulate-degree-confound": _simulated("degree-confound", "--edges", "{sw}"),
    "simulate-monotone-pair": _simulated("monotone-pair", "--n", "50"),
    "test-adjacency-perm": _document("test", "y", "--permutations", "99", "--seed", "1"),
    "test-adjacency-normal": _document("test", "y", "--method", "normal"),
    "test-adjacency-both-two-sided-geary": _document(
        "test", "iid", "--method", "both", "--alternative", "two-sided", "--permutations", "600",
        "--seed", "2", "--geary"),
    "test-geodesic-both": _document(
        "test", "y", "--weights", "inverse-geodesic", "--method", "both", "--permutations", "99",
        "--seed", "3"),
    "test-geodesic-gamma-perm-two-sided-geary": _document(
        "test", "iid", "--weights", "inverse-geodesic:2.0", "--alternative", "two-sided",
        "--permutations", "600", "--seed", "4", "--geary"),
    "residual-test-adjacency-both": _document(
        "residual-test", "y", "--method", "both", "--permutations", "99", "--seed", "5"),
    "residual-test-geodesic-perm-two-sided": _document(
        "residual-test", "iid", "--weights", "inverse-geodesic", "--alternative", "two-sided",
        "--permutations", "600", "--seed", "6"),
    "residual-test-geodesic-normal": _document(
        "residual-test", "y", "--weights", "inverse-geodesic", "--method", "normal"),
    "study-correlation-distribution": _study(
        "correlation-distribution", "--reps", "4", "--sigmas", "0.2"),
    "study-coverage": _study("coverage", *_PERMS, "--reps", "5", "--kappas", "0,2"),
    "study-spurious-regression": _study("spurious-regression", *_PERMS, "--reps", "4",
                                        "--kappas", "0,3"),
    "study-degree-confounding": _study("degree-confounding", *_PERMS, "--reps", "5",
                                       "--effect-sizes", "0,1.5"),
    "study-degree-confounding-controlled": _study(
        "degree-confounding", *_PERMS, "--reps", "5", "--effect-sizes", "0,1.5",
        "--control-degree"),
    "study-gls-correction-lmm-transmission": _study(
        "gls-correction", "--reps", "3", "--kappas", "1,3", "--lambdas", "0,0.5"),
    "study-gls-correction-lmm-adjacency": _study(
        "gls-correction", "--reps", "3", "--kappas", "2", "--lambdas", "0,0.5",
        "--kinship", "adjacency"),
    "study-gls-correction-gls-transmission": _study(
        "gls-correction", "--reps", "3", "--kappas", "1,3", "--lambdas", "0,0.5",
        "--estimator", "gls"),
    "study-gls-correction-gls-adjacency": _study(
        "gls-correction", "--reps", "3", "--kappas", "2", "--lambdas", "0.25,0.5",
        "--estimator", "gls", "--kinship", "adjacency"),
}


def payload(name, paths, d):
    """The numeric payload of case name, run with the inputs at paths under d."""
    return CASES[name](paths, d)


def path_of(name):
    return os.path.join(HERE, f"{name}.json")


def record():
    with tempfile.TemporaryDirectory() as d:
        paths = make_inputs(d)
        for name in CASES:
            with open(path_of(name), "w") as fh:
                json.dump(payload(name, paths, d), fh, indent=1)
                fh.write("\n")
            print(path_of(name))


if __name__ == "__main__":
    sys.exit(record())
