"""End-to-end command-line checks, run in-process."""

import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import netacorr
from netacorr import (
    Network,
    TransmissionConfig,
    adjacency_weights,
    direct_transmission,
    gearys_c,
    load_edge_list,
    morans_i,
)


def _write_edges(path, net, labels=None):
    with open(path, "w") as fh:
        fh.write("src,dst\n")
        for i, j in net.edges:
            a = labels[i] if labels else str(i)
            b = labels[j] if labels else str(j)
            fh.write(f"{a},{b}\n")


def _write_values(path, labels, values):
    with open(path, "w") as fh:
        fh.write("node,value\n")
        for lab, val in zip(labels, values):
            fh.write(f"{lab},{float(val)!r}\n")


def _write_design(path, labels, columns):
    with open(path, "w") as fh:
        fh.write("node," + ",".join(columns) + "\n")
        for i, lab in enumerate(labels):
            fh.write(lab + "," + ",".join(repr(float(col[i])) for col in columns.values()) + "\n")


@pytest.fixture
def small_case(tmp_path):
    """A 40-node network plus matching transmitted values, both on disk."""
    from netacorr import generate_random_network

    net = generate_random_network(40, model="erdos-renyi", p=0.12, seed=6)
    labels = [f"v{i}" for i in range(40)]
    y = direct_transmission(net, TransmissionConfig(a=0.6, sigma=0.3, kappa=2, seed=11))
    edges = tmp_path / "edges.csv"
    values = tmp_path / "values.csv"
    _write_edges(edges, net, labels)
    _write_values(values, labels, y)
    return net, labels, y, str(edges), str(values)


def test_cli_test_json_document(small_case, run_cli):
    net, labels, y, edges, values = small_case
    code, out, err = run_cli("test", "--edges", edges, "--values", values,
                             "--seed", "3", "--permutations", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["tool"] == "netacorr"
    assert doc["command"] == "test"
    assert doc["options"]["method"] == "perm"
    assert doc["options"]["permutations"] == 200
    assert "threads" not in doc["options"]
    res = doc["result"]
    w = adjacency_weights(net)
    assert res["statistic"] == pytest.approx(morans_i(y, w), abs=1e-12)
    assert res["n"] == 40
    assert res["m"] == 200
    assert 0.0 < res["p_perm"] <= 1.0
    assert "weigh the statistic" in err


def test_cli_test_is_deterministic(small_case, run_cli):
    _, _, _, edges, values = small_case
    args = ("test", "--edges", edges, "--values", values, "--seed", "9")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_test_csv_format(small_case, run_cli):
    _, _, _, edges, values = small_case
    code, out, _ = run_cli("test", "--edges", edges, "--values", values,
                           "--format", "csv")
    assert code == 0
    cols, data = csv.reader(io.StringIO(out))
    assert "result.statistic" in cols
    assert "result.p_perm" in cols
    assert "options.seed" in cols
    assert len(data) == len(cols)
    assert out.endswith("\r\n")  # the csv module's default dialect, as every netacorr CSV


def test_cli_test_normal_method(small_case, run_cli):
    _, _, _, edges, values = small_case
    code, out, _ = run_cli("test", "--edges", edges, "--values", values,
                           "--method", "normal")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["p_perm"] is None
    assert doc["result"]["m"] == 0
    assert doc["result"]["p_normal"] is not None
    assert doc["options"]["permutations"] is None


def test_cli_test_both_methods_and_geary(small_case, run_cli):
    net, _, y, edges, values = small_case
    code, out, _ = run_cli("test", "--edges", edges, "--values", values,
                           "--method", "both", "--geary")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["p_perm"] is not None
    assert doc["result"]["p_normal"] is not None
    expect_c = gearys_c(y, adjacency_weights(net))
    assert doc["result"]["gearys_c"] == pytest.approx(expect_c, abs=1e-12)


def test_cli_weights_spec(small_case, run_cli):
    _, _, _, edges, values = small_case
    code_a, out_a, _ = run_cli("test", "--edges", edges, "--values", values)
    code_g, out_g, _ = run_cli("test", "--edges", edges, "--values", values,
                               "--weights", "inverse-geodesic:2.0")
    assert code_a == code_g == 0
    sa = json.loads(out_a)["result"]["statistic"]
    sg = json.loads(out_g)["result"]["statistic"]
    assert sa != sg

    code, _, err = run_cli("test", "--edges", edges, "--values", values,
                           "--weights", "nearest")
    assert code == 2
    assert "weights spec" in err
    code, _, _ = run_cli("test", "--edges", edges, "--values", values,
                         "--weights", "inverse-geodesic:zero")
    assert code == 2


@pytest.mark.filterwarnings("error")
def test_cli_inverse_geodesic_at_gamma_2000_equals_adjacency_without_a_warning(run_cli,
                                                                              tmp_path):
    # d**2000 overflows beyond one hop; the weights take the limit 1/inf = 0
    edges, values = str(tmp_path / "edges.csv"), str(tmp_path / "y.csv")
    assert run_cli("generate-network", "--n", "40", "--p", "0.12", "--seed", "6",
                   "--out", edges)[0] == 0
    assert run_cli("simulate", "--model", "latent", "--edges", edges, "--seed", "1",
                   "--out", values)[0] == 0
    code, out, err = run_cli("test", "--edges", edges, "--values", values,
                             "--weights", "inverse-geodesic:2000")
    assert code == 0
    assert "Warning" not in err
    result = json.loads(out)["result"]
    assert (result["statistic"], result["s0"]) == (-0.08203718485179172, 186.0)


@pytest.mark.filterwarnings("ignore:normal approximation:UserWarning")
@pytest.mark.parametrize("weights", ["adjacency", "inverse-geodesic"])
@pytest.mark.parametrize("edges, values, p_perm", [
    (((0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)), (0, 1, 0, 0, 1), 0.588),
    (tuple(itertools.combinations(range(5), 2)), (1, 1, 0, 0, 0), 1.0),
], ids=["five-node", "complete"])
def test_cli_relabellings_that_tie_count_as_extreme(run_cli, tmp_path, weights, edges,
                                                    values, p_perm):
    # 0/1 values on five nodes: the exact tie-inclusive p is 0.6 on the first
    # graph and 1 on K5, where every relabelling ties
    labels = [str(i) for i in range(5)]
    _write_edges(tmp_path / "edges.csv", Network(5, edges))
    _write_values(tmp_path / "values.csv", labels, values)
    code, out, _ = run_cli("test", "--edges", tmp_path / "edges.csv",
                           "--values", tmp_path / "values.csv", "--weights", weights,
                           "--permutations", "999", "--seed", "0")
    assert code == 0
    assert json.loads(out)["result"]["p_perm"] == p_perm


def test_cli_adjacency_weights_match_the_dense_matrix(small_case, run_cli, tmp_path,
                                                     monkeypatch):
    # `--weights adjacency` hands deptest the cached sparse adjacency; the
    # documents must match a run on the dense matrix. Only Geary's c sums in
    # another order (over stored entries instead of all n^2 cells).
    import netacorr.cli

    _, labels, _, edges, values = small_case
    rng = np.random.default_rng(5)
    design = tmp_path / "design.csv"
    _write_design(design, labels, {"x1": rng.standard_normal(40)})
    runs = [("test", "--edges", edges, "--values", values, "--method", "both", "--geary",
             "--permutations", "999", "--seed", "4"),
            ("test", "--edges", edges, "--values", values, "--alternative", "two-sided",
             "--threads", "3", "--permutations", "1100"),
            ("residual-test", "--edges", edges, "--values", values, "--design", str(design),
             "--method", "both", "--seed", "2")]
    sparse_docs = [run_cli(*args) for args in runs]
    monkeypatch.setattr(netacorr.cli, "_edge_weights", adjacency_weights)
    dense_docs = [run_cli(*args) for args in runs]
    for (code_s, out_s, err_s), (code_d, out_d, err_d) in zip(sparse_docs, dense_docs):
        assert code_s == code_d == 0
        assert err_s == err_d
        doc_s, doc_d = json.loads(out_s), json.loads(out_d)
        c_s = doc_s["result"].pop("gearys_c", None)
        c_d = doc_d["result"].pop("gearys_c", None)
        assert c_s == pytest.approx(c_d, rel=1e-12, abs=0)
        assert doc_s == doc_d


def test_cli_adjacency_test_stays_sparse_in_memory(run_cli, tmp_path):
    # On a 6000-node ring the dense weight matrix alone would take 288 MB.
    import tracemalloc

    from netacorr import generate_random_network

    n = 6000
    net = generate_random_network(n, model="small-world", k=4, rewire_prob=0.0)
    labels = [str(i) for i in range(n)]
    edges, values = tmp_path / "edges.csv", tmp_path / "values.csv"
    _write_edges(edges, net)
    _write_values(values, labels, np.sin(np.arange(n) / 50.0))
    tracemalloc.start()
    try:
        for extra in ((), ("--geary",)):
            tracemalloc.reset_peak()
            code, out, _ = run_cli("test", "--edges", edges, "--values", values,
                                   "--method", "both", "--permutations", "100", *extra)
            peak = tracemalloc.get_traced_memory()[1]
            assert code == 0
            assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.0f} MB with {extra}"
    finally:
        tracemalloc.stop()
    doc = json.loads(out)
    assert doc["result"]["p_perm"] == 1.0 / 101.0
    assert doc["result"]["gearys_c"] < 0.01


def test_cli_output_file(small_case, run_cli, tmp_path):
    _, _, _, edges, values = small_case
    out_path = tmp_path / "report.json"
    code, out, err = run_cli("test", "--edges", edges, "--values", values,
                             "--out", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["command"] == "test"
    assert "I=" in err  # human summary still goes to stderr


def test_cli_values_file_errors(small_case, run_cli, tmp_path):
    _, labels, y, edges, _ = small_case

    short = tmp_path / "short.csv"
    _write_values(short, labels[:-1], y[:-1])
    code, _, err = run_cli("test", "--edges", edges, "--values", str(short))
    assert code == 2
    assert "missing nodes" in err and "v39" in err

    renamed = tmp_path / "renamed.csv"
    _write_values(renamed, ["zz"] + labels[1:], y)
    code, _, err = run_cli("test", "--edges", edges, "--values", str(renamed))
    assert code == 2
    assert "unknown nodes" in err and "zz" in err

    dup = tmp_path / "dup.csv"
    _write_values(dup, labels[:-1] + [labels[0]], y)
    code, _, err = run_cli("test", "--edges", edges, "--values", str(dup))
    assert code == 2
    assert "duplicate node" in err

    text = tmp_path / "text.csv"
    text.write_text("node,value\nv0,apple\n")
    code, _, err = run_cli("test", "--edges", edges, "--values", str(text))
    assert code == 2
    assert "non-numeric" in err

    inf = tmp_path / "inf.csv"
    inf.write_text("node,value\nv0,inf\n")
    code, _, err = run_cli("test", "--edges", edges, "--values", str(inf))
    assert code == 2
    assert "non-finite" in err

    header = tmp_path / "hdr.csv"
    header.write_text("name,value\nv0,1.0\n")
    code, _, err = run_cli("test", "--edges", edges, "--values", str(header))
    assert code == 2
    assert "expected header" in err

    code, _, err = run_cli("test", "--edges", edges, "--values",
                           str(tmp_path / "nope.csv"))
    assert code == 2
    assert "cannot open" in err


@pytest.mark.parametrize("text, message", [
    ("src,dst\na,b\na,b,c\n", "malformed edge row 2"),
    ("from,to\na,b\n", "expected header 'src,dst'"),
    ("src,dst\n", "no data rows"),
    ("", "empty file"),
], ids=["malformed-row", "bad-header", "header-only", "empty"])
def test_cli_edge_list_errors_name_the_file(small_case, run_cli, tmp_path, text, message):
    _, _, _, _, values = small_case
    edges = tmp_path / "bad_edges.csv"
    edges.write_text(text)
    code, out, err = run_cli("test", "--edges", str(edges), "--values", values)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {edges}: {message}")


@pytest.mark.parametrize("rows", [0, 3000], ids=["first-read", "past-first-read"])
def test_cli_latin1_edge_list_names_the_file(run_cli, tmp_path, rows):
    # 0xe9 is latin-1 "é"; 3000 rows put it past the first buffer the reader
    # decodes, so the error comes while rows are read, not at the header
    edges = tmp_path / "latin.csv"
    edges.write_bytes(b"src,dst\n" + b"".join(b"v%d,v%d\n" % (i, i + 1) for i in range(rows))
                      + b"caf\xe9,v0\n")
    code, out, err = run_cli("simulate", "--model", "transmission", "--edges", str(edges),
                             "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {edges}: not utf-8 text: invalid continuation byte")


def test_cli_byte_order_mark_is_read_past(small_case, run_cli, tmp_path):
    _, _, _, edges, values = small_case
    marked = {}
    for name, path in (("edges", edges), ("values", values)):
        marked[name] = tmp_path / f"bom_{name}.csv"
        with open(path, "rb") as fh:
            marked[name].write_bytes(b"\xef\xbb\xbf" + fh.read())
    plain = run_cli("simulate", "--model", "transmission", "--edges", edges, "--seed", "1")
    bom = run_cli("simulate", "--model", "transmission", "--edges", str(marked["edges"]),
                  "--seed", "1")
    assert plain[0] == 0 and bom == plain
    code_a, out_a, _ = run_cli("test", "--edges", edges, "--values", values)
    code_b, out_b, _ = run_cli("test", "--edges", str(marked["edges"]),
                               "--values", str(marked["values"]))
    assert code_a == code_b == 0
    assert json.loads(out_a)["result"] == json.loads(out_b)["result"]


def test_cli_reads_the_utf8_it_writes(run_cli, tmp_path):
    edges, values = tmp_path / "edges.csv", tmp_path / "values.csv"
    edges.write_bytes("src,dst\ncafé,naïve\nnaïve,Zoë\nZoë,café\nZoë,Ōta\n".encode())
    code, _, _ = run_cli("simulate", "--model", "transmission", "--edges", str(edges),
                         "--seed", "1", "--out", str(values))
    assert code == 0
    assert "café" in values.read_bytes().decode("utf-8")
    with pytest.warns(UserWarning, match="n=4"):
        code, out, err = run_cli("test", "--edges", str(edges), "--values", str(values),
                                 "--permutations", "9")
    assert code == 0, err
    assert json.loads(out)["result"]["n"] == 4


def test_cli_values_order_is_free(small_case, run_cli, tmp_path):
    net, labels, y, edges, values = small_case
    shuffled = tmp_path / "shuffled.csv"
    order = np.random.default_rng(0).permutation(len(labels))
    _write_values(shuffled, [labels[i] for i in order], [y[i] for i in order])
    code_a, out_a, _ = run_cli("test", "--edges", edges, "--values", values)
    code_b, out_b, _ = run_cli("test", "--edges", edges, "--values", str(shuffled))
    assert code_a == code_b == 0
    assert json.loads(out_a)["result"] == json.loads(out_b)["result"]


def test_cli_constant_values_exit_code(small_case, run_cli, tmp_path):
    _, labels, _, edges, _ = small_case
    flat = tmp_path / "flat.csv"
    _write_values(flat, labels, [1.0] * len(labels))
    code, _, err = run_cli("test", "--edges", edges, "--values", str(flat))
    assert code == 3
    assert "zero-variance" in err


def test_cli_numeric_error_exit_code(small_case, run_cli, monkeypatch):
    import netacorr.cli
    from netacorr import NumericError

    def fail(args):
        raise NumericError("weighted normal equations singular")

    monkeypatch.setattr(netacorr.cli, "cmd_test", fail)
    _, _, _, edges, values = small_case
    code, out, err = run_cli("test", "--edges", edges, "--values", values)
    assert code == 4
    assert out == ""
    assert err == "error: weighted normal equations singular\n"


def test_cli_lmm_perfect_fit_exit_code(run_cli, tmp_path):
    # on a 4-cycle with a=1 and sigma=0, x and y each take one value per side
    # of the bipartition, so [1, x] fits y up to rounding: exit 4, not a
    # report with SE ~ 1e-12
    edges = tmp_path / "cycle.csv"
    edges.write_text("src,dst\n0,1\n1,2\n2,3\n3,0\n")
    results = tmp_path / "results"
    code, out, err = run_cli("experiment", "gls-correction", "--edges", str(edges),
                             "--a", "1", "--sigma", "0", "--kappas", "1",
                             "--lambdas", "0,0.5", "--reps", "20", "--out", str(results))
    assert code == 4 and out == ""
    assert "perfect fit" in err
    assert not results.exists()


def test_cli_experiment_bad_permutations_exit_code(run_cli, tmp_path):
    results = tmp_path / "results"
    for bad in ("0", "1.5"):
        code, out, err = run_cli("experiment", "coverage", "--reps", "2",
                                 "--permutations", bad, "--out", str(results))
        assert code == 2 and out == ""
        assert "--permutations" in err
    assert not results.exists()


def test_cli_residual_test(small_case, run_cli, tmp_path):
    net, labels, y, edges, values = small_case
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(40)
    x2 = rng.standard_normal(40)
    design = tmp_path / "design.csv"
    _write_design(design, labels, {"x1": x1, "x2": x2})
    code, out, _ = run_cli("residual-test", "--edges", edges, "--values", values,
                           "--design", str(design), "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "residual-test"
    assert doc["fit"]["names"] == ["intercept", "x1", "x2"]
    assert len(doc["fit"]["beta"]) == 3
    assert doc["fit"]["sigma2"] > 0
    assert 0.0 < doc["result"]["p_perm"] <= 1.0

    from netacorr import ols

    fit = ols(y, np.column_stack([np.ones(40), x1, x2]))
    np.testing.assert_allclose(doc["fit"]["beta"], fit.beta, atol=1e-12)
    resid_i = morans_i(fit.residuals, adjacency_weights(net))
    assert doc["result"]["statistic"] == pytest.approx(resid_i, abs=1e-12)


def test_cli_residual_test_csv_document_parses(small_case, run_cli, tmp_path):
    # the intervals are JSON lists, so they hold commas: each must be one cell
    _, labels, y, edges, values = small_case
    design = tmp_path / "design.csv"
    _write_design(design, labels, {"x1": np.cos(np.arange(40.0)), "x2": y ** 2})
    argv = ("residual-test", "--edges", edges, "--values", values, "--design", str(design))
    code, out, _ = run_cli(*argv, "--format", "csv")
    assert code == 0
    header, data = csv.reader(io.StringIO(out))
    assert len(data) == len(header)
    row = dict(zip(header, data))
    doc = json.loads(run_cli(*argv)[1])
    for k in range(3):
        assert json.loads(row[f"fit.ci.{k}"]) == doc["fit"]["ci"][k]
    assert float(row["result.statistic"]) == doc["result"]["statistic"]
    assert float(row["result.p_perm"]) == doc["result"]["p_perm"]


def _strict_json(text):
    """text parsed as JSON, refusing the bare NaN and Infinity of json.dumps."""

    def refuse(name):
        raise ValueError(f"document holds a bare {name}")

    return json.loads(text, parse_constant=refuse)


def test_cli_test_with_one_value_at_1e200_writes_finite_strict_json(small_case, run_cli,
                                                                     tmp_path):
    net, labels, y, edges, _ = small_case
    big = y.copy()
    big[0] = 1e200
    values = tmp_path / "big.csv"
    _write_values(values, labels, big)
    code, out, err = run_cli("test", "--edges", edges, "--values", str(values),
                             "--method", "both")
    assert code == 0
    assert "Warning" not in err
    res = _strict_json(out)["result"]
    want = morans_i(big / 2.0**700, adjacency_weights(net))
    assert res["statistic"] == pytest.approx(want, abs=1e-12)
    assert 0.0 < res["var_null"] < 1.0 and 0.0 < res["p_perm"] <= 1.0


def test_cli_residual_test_of_values_times_1e100_gives_the_unscaled_statistic(
        small_case, run_cli, tmp_path):
    # the residuals' sum of squares is near 1e201, so its square overflowed
    _, labels, y, edges, values = small_case
    design = tmp_path / "design.csv"
    _write_design(design, labels, {"x1": np.cos(np.arange(40.0))})
    scaled = tmp_path / "scaled.csv"
    _write_values(scaled, labels, y * 1e100)
    runs = [run_cli("residual-test", "--edges", edges, "--values", v, "--design", str(design),
                    "--method", "both") for v in (values, str(scaled))]
    assert [code for code, _, _ in runs] == [0, 0]
    plain, big = (_strict_json(out)["result"] for _, out, _ in runs)
    for key in ("statistic", "var_null", "p_normal"):
        assert big[key] == pytest.approx(plain[key], abs=1e-12), key
    assert big["p_perm"] == plain["p_perm"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_residual_test_with_residual_variance_beyond_the_float_range_exit_code(
        small_case, run_cli, tmp_path):
    # values near 1e160 give squared residuals near 1e320: sigma2 itself overflows
    _, labels, y, edges, _ = small_case
    design = tmp_path / "design.csv"
    _write_design(design, labels, {"x1": np.cos(np.arange(40.0))})
    scaled = tmp_path / "scaled.csv"
    _write_values(scaled, labels, y * 1e160)
    code, out, err = run_cli("residual-test", "--edges", edges, "--values", str(scaled),
                             "--design", str(design))
    assert code == 4
    assert out == ""
    assert "residual variance is beyond the float range" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("study, flags", [
    ("coverage", ("--permutations", "9", "--sigma", "1e200")),
    ("correlation-distribution", ("--sigmas", "1e200")),
])
def test_cli_experiment_at_sigma_1e200_writes_finite_strict_json(run_cli, tmp_path, study,
                                                                 flags):
    # the sd of the coverage study and the correlation's sums of squares are
    # computed on values scaled by powers of two, so they do not overflow
    code, out, _ = run_cli("experiment", study, "--n", "40", "--reps", "2", *flags,
                           "--format", "json", "--out", tmp_path)
    assert code == 0
    with open(tmp_path / f"{study}_report.json") as fh:
        doc = _strict_json(fh.read())
    numbers = [v for row in doc["rows"] + doc["replicates"] for v in row.values()
               if isinstance(v, float)]
    assert numbers and all(math.isfinite(v) for v in numbers)


def test_cli_residual_test_design_errors(small_case, run_cli, tmp_path):
    _, labels, _, edges, values = small_case
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n1,2\n")
    code, _, err = run_cli("residual-test", "--edges", edges, "--values", values,
                           "--design", str(bad))
    assert code == 2
    assert "design header" in err


def test_cli_residual_test_missing_design(small_case, run_cli, tmp_path):
    _, _, _, edges, values = small_case
    missing = tmp_path / "nope.csv"
    code, _, err = run_cli("residual-test", "--edges", edges, "--values", values,
                           "--design", str(missing))
    assert code == 2
    assert "cannot open" in err and str(missing) in err


def test_cli_residual_test_collinear_design_exit_code(small_case, run_cli, tmp_path):
    # SingularDesignError is an InputError, so it exits 2 like other bad input
    _, labels, _, edges, values = small_case
    x1 = np.random.default_rng(1).standard_normal(len(labels))
    design = tmp_path / "collinear.csv"
    _write_design(design, labels, {"x1": x1, "x2": 2.0 * x1})
    code, _, err = run_cli("residual-test", "--edges", edges, "--values", values,
                           "--design", str(design))
    assert code == 2
    assert "rank deficient" in err and "drop collinear columns" in err


def test_cli_experiment_scale_driven_rank_failure_exit_code(run_cli, tmp_path):
    # sigma = 1e154 makes the covariate about 1e154 times the intercept; the
    # columns are not collinear, but the relative rank tolerance drops the
    # intercept, so the error names the scale gap and suggests rescaling
    results = tmp_path / "results"
    code, out, err = run_cli("experiment", "gls-correction", "--kinship", "adjacency",
                             "--sigma", "1e154", "--n", "30", "--reps", "2",
                             "--out", str(results))
    assert code == 2 and out == ""
    assert "rank deficient" in err and "collinear" not in err
    assert re.search(r"is \d\.\d+e\+15\d times its smallest, beyond 1/eps", err)
    assert "rescale the columns" in err
    assert not results.exists()


def test_cli_experiment_sigma_overflowing_the_covariance_exit_code(run_cli, tmp_path):
    # sigma**2 overflows a float at sigma = 1e200; the transmission covariance
    # names sigma instead of ending in an OverflowError traceback
    results = tmp_path / "results"
    code, out, err = run_cli("experiment", "gls-correction", "--sigma", "1e200",
                             "--n", "30", "--reps", "2", "--out", str(results))
    assert code == 2 and out == ""
    assert err.startswith("error: sigma is too large") and "sigma=1e+200" in err
    assert not results.exists()


def test_cli_experiment_gls_adjacency_kinship_exit_code(run_cli, tmp_path):
    # the clipped adjacency kinship is singular at lambda = 0, which gls
    # cannot factor: exit 2 with the lambda and the way out named
    edges = tmp_path / "edges.csv"
    run_cli("generate-network", "--n", "40", "--p", "0.12", "--seed", "6",
            "--out", str(edges))
    argv = ["experiment", "gls-correction", "--edges", str(edges), "--reps", "3",
            "--kappas", "1", "--estimator", "gls", "--kinship", "adjacency",
            "--out", str(tmp_path / "results")]
    code, out, err = run_cli(*argv, "--lambdas", "0,0.5")
    assert code == 2 and out == ""
    assert "kinship='adjacency'" in err and "lambda=0.0" in err
    assert "> 0" in err and "--estimator lmm" in err
    code, out, _ = run_cli(*argv, "--lambdas", "0.1,0.5")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


@pytest.mark.parametrize("command", [
    "test", "residual-test", "simulate", "generate-network", "experiment",
])
def test_cli_unwritable_out(command, small_case, run_cli, tmp_path):
    _, labels, y, edges, values = small_case
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    out = blocker / "result"
    design = tmp_path / "design.csv"
    _write_design(design, labels, {"x1": y ** 2})
    argv = {
        "test": ["test", "--edges", edges, "--values", values],
        "residual-test": ["residual-test", "--edges", edges, "--values", values,
                          "--design", str(design)],
        "simulate": ["simulate", "--model", "transmission", "--edges", edges],
        "generate-network": ["generate-network", "--n", "30", "--p", "0.15"],
        "experiment": ["experiment", "coverage", "--edges", edges, "--reps", "2",
                       "--kappas", "0", "--permutations", "9"],
    }[command]
    code, stdout, err = run_cli(*argv, "--out", str(out))
    assert code == 2
    assert "cannot write" in err and str(out) in err
    assert stdout == ""


def test_cli_simulate_transmission_round_trip(small_case, run_cli):
    net, labels, _, edges, _ = small_case
    code, out, _ = run_cli("simulate", "--model", "transmission", "--edges", edges,
                           "--a", "0.6", "--sigma", "0.3", "--kappa", "2",
                           "--seed", "11")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["node", "value"]
    # the command simulates on the network as loaded, so node order and the
    # per-index noise draws follow the edge file's first-appearance order
    loaded, loaded_labels = load_edge_list(edges)
    assert [r[0] for r in rows[1:]] == loaded_labels
    assert sorted(loaded_labels) == sorted(labels)
    got = np.array([float(r[1]) for r in rows[1:]])
    expect = direct_transmission(loaded, TransmissionConfig(a=0.6, sigma=0.3,
                                                            kappa=2, seed=11))
    assert np.array_equal(got, expect)  # repr() round-trips exactly


def test_cli_simulate_other_models(small_case, run_cli, tmp_path):
    _, _, _, edges, _ = small_case
    code, out, _ = run_cli("simulate", "--model", "latent", "--edges", edges,
                           "--length-scale", "1.0", "--seed", "4")
    assert code == 0
    assert out.startswith("node,value")

    out_path = tmp_path / "sim.csv"
    code, _, _ = run_cli("simulate", "--model", "degree-confound", "--edges", edges,
                         "--b", "2.0", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("node,value")

    code, out, _ = run_cli("simulate", "--model", "monotone-pair", "--n", "12",
                           "--seed", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["node", "x", "y"]
    assert len(rows) == 13
    x = np.array([float(r[1]) for r in rows[1:]])
    yy = np.array([float(r[2]) for r in rows[1:]])
    assert abs(abs(np.corrcoef(x, yy)[0, 1]) - 1.0) < 1e-12


def test_cli_simulate_argument_requirements(run_cli):
    code, _, err = run_cli("simulate", "--model", "monotone-pair")
    assert code == 2
    assert "--n" in err
    code, _, err = run_cli("simulate", "--model", "transmission")
    assert code == 2
    assert "--edges" in err


def test_cli_simulate_regular_graph_exit_code(run_cli, tmp_path):
    ring = tmp_path / "ring.csv"
    ring.write_text("src,dst\na,b\nb,c\nc,d\nd,a\n")
    code, _, err = run_cli("simulate", "--model", "degree-confound",
                           "--edges", str(ring))
    assert code == 3
    assert "equal degree" in err


def test_cli_generate_network_round_trip(run_cli):
    code, out, err = run_cli("generate-network", "--n", "30", "--p", "0.15",
                             "--seed", "2")
    assert code == 0
    net, _labels = load_edge_list(io.StringIO(out))
    assert net.n == 30
    assert "n=30" in err

    code, out, _ = run_cli("generate-network", "--model", "small-world",
                           "--n", "20", "--k", "4", "--seed", "0")
    assert code == 0
    net, _labels = load_edge_list(io.StringIO(out))
    assert len(net.edges) == 20 * 4 // 2


def test_cli_generate_network_failure_exit_code(run_cli):
    code, _, err = run_cli("generate-network", "--n", "40", "--p", "0.001",
                           "--seed", "0")
    assert code == 2
    assert "attempts" in err


@pytest.mark.parametrize("flags, name", [
    (("--model", "latent", "--noise", "nan"), "noise"),
    (("--model", "degree-confound", "--b", "inf"), "b"),
], ids=["latent-noise-nan", "degree-confound-b-inf"])
def test_cli_simulate_rejects_non_finite_settings(run_cli, tmp_path, flags, name):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\na,b\nb,c\nc,d\nb,d\n")
    code, out, err = run_cli("simulate", "--edges", str(edges), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be a finite number")


def test_cli_simulate_degree_confound_overflowing_b_exit_code(small_case, run_cli):
    _, _, _, edges, _ = small_case
    code, out, err = run_cli("simulate", "--model", "degree-confound", "--edges", edges,
                             "--b", "1e308", "--seed", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: b and noise are too large: b=1e+308 and noise=1.0 ")


_SIGMA_MESSAGE = "error: sigma is too large: sigma=1e+308 overflows the transmission process"
_NOISE_MESSAGE = "error: noise is too large: noise=1e+308 overflows the latent outcome"


@pytest.mark.parametrize("args, message", [
    (("simulate", "--model", "transmission", "--sigma", "1e308"), _SIGMA_MESSAGE),
    *[(("simulate", "--model", "latent", "--noise", "1e308", "--seed", seed), _NOISE_MESSAGE)
      for seed in ("1", "2", "3")],
    (("experiment", "coverage", "--n", "40", "--reps", "2", "--permutations", "9",
      "--sigma", "1e308"), _SIGMA_MESSAGE),
], ids=["transmission", "latent-seed1", "latent-seed2", "latent-seed3", "coverage"])
def test_cli_simulated_values_that_overflow_name_the_setting(run_cli, tmp_path, args, message):
    # on this graph sigma = 1e308 made 60 NaN rows and noise = 1e308 inf rows;
    # the coverage study named y, where the values came from sigma
    edges = tmp_path / "edges.csv"
    run_cli("generate-network", "--n", "60", "--p", "0.1", "--seed", "3", "--out", edges)
    where = ("--edges", edges) if args[0] == "simulate" else ("--out", tmp_path / "results")
    code, out, err = run_cli(*args, *where)
    assert code == 2
    assert out == ""
    assert err.startswith(message)
    assert "Warning" not in err


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about half the start-up of a process; the normal tail
    # and quantile come from the standard library
    src = os.path.dirname(os.path.dirname(netacorr.__file__))
    code = "import sys, netacorr, netacorr.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "False\n"


def test_cli_simulate_latent_subnormal_length_scale_is_the_identity_kernel(small_case, run_cli):
    # d / l overflows for every d >= 1 at l = 1e-320; at l = 1e-300 it does
    # not, but exp(-d / l) is 0 all the same: both kernels are the identity
    _, _, _, edges, _ = small_case
    runs = [run_cli("simulate", "--model", "latent", "--edges", edges, "--length-scale", ls,
                    "--seed", "4") for ls in ("1e-320", "1e-300")]
    assert [code for code, _, _ in runs] == [0, 0]
    assert "Warning" not in runs[0][2]
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("command", [("generate-network",), ("experiment", "coverage")])
def test_cli_hopeless_erdos_renyi_network_fails_fast(run_cli, command):
    # at n=2000 the default mean degree 5 leaves isolated nodes in almost
    # every draw; the retry loop used to spend about 40 s before exit 2
    code, out, err = run_cli(*command, "--n", "2000")
    assert code == 2
    assert out == ""
    assert "n=2000" in err and "attempts" in err
    assert "--p" in err and "--no-require-connected" in err


def test_cli_experiment_coverage(run_cli, tmp_path):
    edges = tmp_path / "edges.csv"
    code, _, _ = run_cli("generate-network", "--n", "40", "--p", "0.12",
                         "--seed", "6", "--out", str(edges))
    assert code == 0
    out_dir = tmp_path / "results"
    code, out, err = run_cli("experiment", "coverage", "--edges", str(edges),
                             "--reps", "100", "--kappas", "0,2",
                             "--permutations", "99", "--seed", "1",
                             "--out", str(out_dir))
    assert code == 0
    paths = out.strip().split("\n")
    assert len(paths) == 2
    with open(paths[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["kappa"] for r in rows] == ["0", "2"]
    assert 0.0 <= float(rows[0]["coverage"]) <= 1.0
    assert "weigh the statistic" in err

    # rerunning with the same seed reproduces the files byte for byte
    before = open(paths[0]).read()
    code, _, _ = run_cli("experiment", "coverage", "--edges", str(edges),
                         "--reps", "100", "--kappas", "0,2",
                         "--permutations", "99", "--seed", "1",
                         "--out", str(out_dir))
    assert code == 0
    assert open(paths[0]).read() == before


def test_cli_experiment_json(run_cli, tmp_path):
    edges = tmp_path / "edges.csv"
    run_cli("generate-network", "--n", "30", "--p", "0.15", "--seed", "2",
            "--out", str(edges))
    code, out, _ = run_cli("experiment", "correlation-distribution",
                           "--edges", str(edges), "--reps", "100",
                           "--seed", "0", "--format", "json",
                           "--out", str(tmp_path))
    assert code == 0
    path = out.strip()
    doc = json.loads(open(path).read())
    assert doc["name"] == "correlation-distribution"
    assert len(doc["rows"]) == 4


def test_cli_threads_env(small_case, run_cli, monkeypatch, tmp_path):
    """NETACORR_THREADS sets the replicate threads of `experiment` only."""
    _, _, _, edges, values = small_case

    def experiment(*extra):
        code, out, err = run_cli("experiment", "correlation-distribution", "--edges", edges,
                                 "--reps", "2", "--format", "json", "--out", str(tmp_path),
                                 *extra)
        if code != 0:
            return code, None, err
        with open(out.strip()) as fh:
            return code, json.load(fh)["config"]["threads"], err

    monkeypatch.setenv("NETACORR_THREADS", "3")
    assert experiment()[:2] == (0, 3)

    monkeypatch.setenv("NETACORR_THREADS", "zero")
    code, _, err = experiment()
    assert code == 2
    assert "NETACORR_THREADS" in err

    monkeypatch.setenv("NETACORR_THREADS", "0")
    code, _, err = experiment()
    assert code == 2
    assert "NETACORR_THREADS must be an integer >= 1, got 0" in err

    # an explicit flag wins over the environment
    monkeypatch.setenv("NETACORR_THREADS", "3")
    assert experiment("--threads", "2")[:2] == (0, 2)

    # test runs serially and never reads the variable
    monkeypatch.setenv("NETACORR_THREADS", "zero")
    code, out, _ = run_cli("test", "--edges", edges, "--values", values)
    assert code == 0
    assert "threads" not in json.loads(out)["options"]


def test_cli_version_and_bad_flags(run_cli):
    code, out, _ = run_cli("--version")
    assert code == 0
    assert "netacorr" in out
    code, _, _ = run_cli("test", "--bogus")
    assert code == 2
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_readme_experiment_table_matches_the_cli():
    from pathlib import Path

    from netacorr.experiments import _STUDIES

    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in readme.read_text().splitlines() if line.startswith("| `")]
    rows = [row for row in rows if row[0].strip("`") in _STUDIES]
    assert [row[0].strip("`") for row in rows] == list(_STUDIES)
    for (_, listed_runner, listed), (runner, options) in zip(rows, _STUDIES.values()):
        assert listed_runner == f"`{runner.__name__}`"
        flags = [part.split()[0].strip("`") for part in listed.split(", ")]
        assert flags == ["--" + opt.replace("_", "-") for opt in options]


@pytest.mark.parametrize("flags, message", [
    (("coverage", "--lambdas", "0.5"), "--lambdas does not apply to study 'coverage'"),
    (("coverage", "--estimator", "gls"), "--estimator does not apply to study 'coverage'"),
    (("gls-correction", "--edges", "EDGES", "--n", "30"),
     "--n does not apply to study 'gls-correction' with --edges"),
    (("gls-correction", "--edges", "EDGES", "--net-seed", "3"),
     "--net-seed does not apply to study 'gls-correction' with --edges"),
], ids=["other-study-list", "other-study-choice", "n-with-edges", "net-seed-with-edges"])
def test_cli_experiment_refuses_options_its_study_does_not_take(run_cli, tmp_path, flags,
                                                                message):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\n0,1\n1,2\n2,3\n3,0\n")
    flags = [str(edges) if f == "EDGES" else f for f in flags]
    code, out, err = run_cli("experiment", *flags, "--reps", "2", "--out", tmp_path / "out")
    assert code == 2
    assert out == ""
    assert message in err
    assert not (tmp_path / "out").exists()


def test_cli_experiment_empty_kappa_list_exits_2(run_cli, tmp_path):
    # "--kappas ," parses to no kappas: no cells, so no report is written
    code, out, err = run_cli("experiment", "coverage", "--n", "30", "--reps", "2",
                             "--kappas", ",", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "kappa_list must not be empty" in err
    assert list(tmp_path.iterdir()) == []
