"""Monte Carlo experiment runners: determinism, schema, and detectable signal.

The calibration bands at full replicate count live in test_acceptance; these
tests run small and fast and pin structure, reproducibility, and direction.
"""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from netacorr import (
    BadCovarianceError,
    InputError,
    PermutationConfig,
    TransmissionConfig,
    direct_transmission,
    generate_random_network,
    gls,
    lmm_fit,
    permutation_test,
    transmission_covariance,
)
from netacorr import deptest, experiments, graph, inference
from netacorr.experiments import (
    DEFAULT_CORR_SETTINGS,
    run_correlation_distribution,
    run_coverage_experiment,
    run_degree_confounding_experiment,
    run_gls_correction_experiment,
    run_spurious_regression_experiment,
    write_report,
)

NET = generate_random_network(60, model="erdos-renyi", p=0.08, seed=3)


def test_coverage_experiment_schema_and_determinism():
    a = run_coverage_experiment(NET, kappa_list=(0, 3), reps=40, seed=1, m=99)
    b = run_coverage_experiment(NET, kappa_list=(0, 3), reps=40, seed=1, m=99)
    assert a.rows == b.rows
    assert a.replicates == b.replicates
    assert a.name == "coverage"
    assert [row["kappa"] for row in a.rows] == [0, 3]
    assert all(0.0 <= row["coverage"] <= 1.0 for row in a.rows)
    assert all(row["reps"] == 40 for row in a.rows)
    assert len(a.replicates) == 2 * 40
    assert a.config["m"] == 99 and a.config["a"] == 0.5


# One small run of each study: (runner, keyword arguments).
SMALL_STUDIES = {
    "correlation-distribution": (run_correlation_distribution, {}),
    "coverage": (run_coverage_experiment, {"kappa_list": (0, 2), "m": 99}),
    "spurious-regression": (run_spurious_regression_experiment,
                            {"kappa_list": (0, 2), "m": 49}),
    "degree-confounding": (run_degree_confounding_experiment, {"m": 49}),
    "gls-correction": (run_gls_correction_experiment,
                       {"kappa_list": (1, 2), "lambdas": (0.0, 0.5)}),
}


@pytest.mark.parametrize("name", SMALL_STUDIES)
def test_experiment_threads_do_not_change_results(name):
    runner, kwargs = SMALL_STUDIES[name]
    a = runner(NET, reps=30, seed=4, threads=1, **kwargs)
    b = runner(NET, reps=30, seed=4, threads=3, **kwargs)
    assert a.name == name
    assert a.rows == b.rows
    assert a.replicates == b.replicates


# The report columns, in order: these are the CSV headers of each study.
STUDY_KEYS = {
    "correlation-distribution": (
        ["label", "a", "sigma", "kappa", "corr_mean", "corr_sd", "frac_abs_gt_half", "reps"],
        ["label", "rep", "corr"],
    ),
    "coverage": (
        ["kappa", "coverage", "bias", "mean_abs_error", "mean_se", "sd_estimates",
         "reject_y", "reps"],
        ["kappa", "rep", "estimate", "se", "covered", "reject_y"],
    ),
    "spurious-regression": (
        ["kappa", "coverage", "bias", "mean_abs_error", "mean_se", "sd_estimates",
         "reject_slope", "reject_x", "reject_y", "reject_resid", "reps"],
        ["kappa", "rep", "slope", "se", "covered", "reject_x", "reject_y", "reject_resid"],
    ),
    "degree-confounding": (
        ["b", "controlled", "coverage", "bias", "mean_abs_error", "mean_estimate",
         "sd_estimates", "mc_se_mean_estimate", "mean_se", "reject_y", "reject_x",
         "reject_resid", "reps"],
        ["b", "rep", "slope", "se", "covered", "reject_x", "reject_resid"],
    ),
    "gls-correction": (
        ["kappa", "lambda", "estimator", "coverage", "bias", "mean_abs_error", "mean_se",
         "sd_estimates", "reps"],
        ["kappa", "lambda", "rep", "slope", "se", "covered"],
    ),
}


@pytest.mark.parametrize("name", SMALL_STUDIES)
def test_experiment_report_keys(name):
    runner, kwargs = SMALL_STUDIES[name]
    rep = runner(NET, reps=3, seed=0, **kwargs)
    row_keys, rep_keys = STUDY_KEYS[name]
    assert all(list(row) == row_keys for row in rep.rows)
    assert all(list(record) == rep_keys for record in rep.replicates)
    assert len(rep.replicates) == 3 * len(rep.rows)
    assert all(isinstance(record[k], int) for record in rep.replicates
               for k in rep_keys if k in ("rep", "covered") or k.startswith("reject_"))


def test_coverage_rows_do_not_depend_on_which_kappas_ride_along():
    # each horizon regenerates its trajectory from the same per-replicate
    # stream, so a kappa row is identical whether or not others were requested
    both = run_coverage_experiment(NET, kappa_list=(0, 2), reps=25, seed=7, m=99)
    solo = run_coverage_experiment(NET, kappa_list=(2,), reps=25, seed=7, m=99)
    assert both.rows[1] == solo.rows[0]


def test_coverage_signal_direction():
    rep = run_coverage_experiment(NET, kappa_list=(0, 3), reps=60, seed=2, m=99)
    k0, k3 = rep.rows
    assert k3["coverage"] < k0["coverage"]
    assert k3["mean_se"] < k0["mean_se"]
    assert k3["sd_estimates"] > k0["sd_estimates"]
    assert k3["reject_y"] > k0["reject_y"]


def test_spurious_experiment_baseline_and_inflation():
    rep = run_spurious_regression_experiment(NET, kappa_list=(0, 3), reps=60,
                                             seed=0, m=99)
    rows = {row["kappa"]: row for row in rep.rows}
    assert set(rows) == {0, 3, "permuted"}
    assert rows[3]["sd_estimates"] > 1.2 * rows["permuted"]["sd_estimates"]
    assert rows["permuted"]["reject_x"] > 0.8  # X itself stays transmitted
    assert rows["permuted"]["reject_resid"] < 0.3
    assert rows[3]["reject_slope"] == 1.0 - rows[3]["coverage"]


def test_spurious_without_baseline():
    rep = run_spurious_regression_experiment(NET, kappa_list=(1,), reps=10, seed=0,
                                             m=49, include_permuted_baseline=False)
    assert [row["kappa"] for row in rep.rows] == [1]
    with pytest.raises(InputError):
        run_spurious_regression_experiment(NET, kappa_list=(), reps=10, seed=0)


def test_degree_experiment_confounding_direction():
    unc = run_degree_confounding_experiment(NET, effect_sizes=(0.0, 1.0), reps=60,
                                            seed=1, m=99, control_degree=False)
    con = run_degree_confounding_experiment(NET, effect_sizes=(0.0, 1.0), reps=60,
                                            seed=1, m=99, control_degree=True)
    u0, u1 = unc.rows
    c1 = con.rows[1]
    assert u1["bias"] > 0.1  # displaced upward by the shared degree cause
    assert abs(c1["bias"]) < abs(u1["bias"]) / 3.0
    assert u0["coverage"] >= 0.85  # b=0 is a null configuration
    assert u1["controlled"] == 0 and c1["controlled"] == 1
    assert u1["mc_se_mean_estimate"] == pytest.approx(
        u1["sd_estimates"] / np.sqrt(60), abs=1e-12
    )
    # Y is drawn once per run, so its dependence flag is constant per row
    assert u0["reject_y"] in (0.0, 1.0)


def test_gls_experiment_grid_and_determinism():
    a = run_gls_correction_experiment(NET, kappa_list=(1, 3), lambdas=(0.0, 0.5),
                                      reps=40, seed=2)
    b = run_gls_correction_experiment(NET, kappa_list=(1, 3), lambdas=(0.0, 0.5),
                                      reps=40, seed=2)
    assert a.rows == b.rows
    assert [(row["kappa"], row["lambda"]) for row in a.rows] == [
        (1, 0.0), (1, 0.5), (3, 0.0), (3, 0.5)
    ]
    assert all(row["estimator"] == "lmm" for row in a.rows)


def test_gls_experiment_estimator_gls_runs():
    rep = run_gls_correction_experiment(NET, kappa_list=(2,), lambdas=(0.0,),
                                        reps=30, seed=3, estimator="gls")
    assert rep.rows[0]["coverage"] >= 0.8  # true covariance: near-nominal


def test_gls_experiment_validation():
    with pytest.raises(InputError):
        run_gls_correction_experiment(NET, estimator="ridge", reps=10, seed=0)
    with pytest.raises(InputError):
        run_gls_correction_experiment(NET, kinship="identity", reps=10, seed=0)
    with pytest.raises(InputError):
        run_gls_correction_experiment(NET, lambdas=(1.5,), reps=10, seed=0)
    for estimator in ("lmm", "gls"):
        with pytest.raises(InputError, match=r"^level must be a number in \(0, 1\)"):
            run_gls_correction_experiment(NET, estimator=estimator, level=1.5,
                                          reps=10, seed=0)


def test_gls_experiment_adjacency_kinship_runs():
    rep = run_gls_correction_experiment(NET, kappa_list=(1,), lambdas=(0.0,),
                                        reps=20, seed=4, kinship="adjacency")
    assert 0.0 <= rep.rows[0]["coverage"] <= 1.0


def test_gls_experiment_gls_on_adjacency_kinship_needs_positive_lambdas():
    # the PSD-clipped adjacency kinship is singular, so its Cholesky fails at
    # lambda = 0; the run stops before any replicate with a named way out
    with pytest.raises(BadCovarianceError) as info:
        run_gls_correction_experiment(NET, kappa_list=(1,), lambdas=(0.5, 0.0),
                                      reps=10, seed=0, estimator="gls",
                                      kinship="adjacency")
    msg = str(info.value)
    assert "kinship='adjacency'" in msg and "lambda=0.0" in msg
    assert "> 0" in msg and "--estimator lmm" in msg
    rep = run_gls_correction_experiment(NET, kappa_list=(1,), lambdas=(0.1, 0.5),
                                        reps=10, seed=0, estimator="gls",
                                        kinship="adjacency")
    assert all(0.0 <= row["coverage"] <= 1.0 for row in rep.rows)


# (estimator, kinship, lambdas): gls needs lambda > 0 on the adjacency kinship
GLS_CONFIGS = [
    ("lmm", "transmission", (0.0, 0.5)),
    ("gls", "transmission", (0.0, 0.5)),
    ("lmm", "adjacency", (0.0, 0.5)),
    ("gls", "adjacency", (0.1, 0.5)),
]


@pytest.mark.parametrize("estimator,kinship,lambdas", GLS_CONFIGS)
def test_gls_experiment_factor_reuse_matches_public_fits(estimator, kinship, lambdas):
    # every replicate fits on its cell's shared factor; refitting each one
    # from scratch with the public lmm_fit and gls gives the same bits
    kappas, reps, seed, a, sigma = (1, 3), 4, 5, 0.7, 0.05
    rep = run_gls_correction_experiment(NET, kappa_list=kappas, lambdas=lambdas,
                                        reps=reps, seed=seed, a=a, sigma=sigma,
                                        estimator=estimator, kinship=kinship)
    z = float(stats.norm.ppf(0.975))
    by_cell = {(rec["kappa"], rec["lambda"], rec["rep"]): rec for rec in rep.replicates}
    for kappa in kappas:
        cfg = TransmissionConfig(a=a, sigma=sigma, kappa=kappa)
        base = (experiments._clipped_adjacency_kinship(NET) if kinship == "adjacency"
                else transmission_covariance(NET, a, sigma, kappa))
        for r in range(reps):
            x = direct_transmission(NET, cfg, rng=experiments._rng(experiments._GLSEXP, seed, r, 0))
            y = direct_transmission(NET, cfg, rng=experiments._rng(experiments._GLSEXP, seed, r, 1))
            design = np.column_stack([np.ones(NET.n), x])
            for lam in lambdas:
                k = (1.0 - lam) * base + lam * np.diag(np.diag(base))
                if estimator == "gls":
                    fit = gls(y, design, k)
                    lo, hi = float(fit.ci[1, 0]), float(fit.ci[1, 1])
                else:
                    fit = lmm_fit(y, design, k)
                    slope, se = float(fit.beta[1]), float(fit.se[1])
                    lo, hi = slope - z * se, slope + z * se
                got = by_cell[kappa, lam, r]
                assert (got["slope"], got["se"], got["covered"]) == (
                    float(fit.beta[1]), float(fit.se[1]), int(lo <= 0.0 <= hi))


def test_lmm_experiment_runs_one_search_per_replicate(monkeypatch):
    sizes = []
    cores = experiments._lmm_cores
    monkeypatch.setattr(experiments, "_lmm_cores",
                        lambda problems: sizes.append(len(problems)) or cores(problems))
    kappas, lambdas, reps = (1, 2, 3), (0.0, 0.1, 0.5), 4
    run_gls_correction_experiment(NET, kappa_list=kappas, lambdas=lambdas, reps=reps,
                                  seed=0, estimator="lmm", threads=2)
    assert sizes == [len(kappas) * len(lambdas)] * reps


@pytest.mark.parametrize("reps", [2, 7])
@pytest.mark.parametrize("estimator,kinship,lambdas", GLS_CONFIGS)
def test_gls_experiment_factors_each_cell_once(monkeypatch, estimator, kinship,
                                               lambdas, reps):
    calls = []
    eigh, cho_factor = np.linalg.eigh, inference.cho_factor
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *args, **kw: calls.append("eigh") or eigh(*args, **kw))
    monkeypatch.setattr(inference, "cho_factor",
                        lambda *args, **kw: calls.append("cho") or cho_factor(*args, **kw))
    kappas = (1, 2, 3)
    run_gls_correction_experiment(NET, kappa_list=kappas, lambdas=lambdas, reps=reps,
                                  seed=0, estimator=estimator, kinship=kinship,
                                  threads=2)
    # the adjacency kinship is one K for every kappa
    factored = len(lambdas) * (1 if kinship == "adjacency" else len(kappas))
    clip = int(kinship == "adjacency")  # the one eigh that clips the adjacency
    assert calls.count("eigh") == (factored if estimator == "lmm" else 0) + clip
    assert calls.count("cho") == (factored if estimator == "gls" else 0)


@pytest.mark.parametrize("estimator,kinship,lambdas", GLS_CONFIGS)
def test_gls_experiment_factors_each_distinct_kinship_once(monkeypatch, estimator,
                                                           kinship, lambdas):
    name = "_lmm_factor" if estimator == "lmm" else "_gls_factor"
    factor, factored = getattr(experiments, name), []
    monkeypatch.setattr(experiments, name,
                        lambda k, n: factored.append(k) or factor(k, n))
    kappas = (1, 2, 3, 2)  # a repeated kappa, and a repeated lambda below
    run = run_gls_correction_experiment(NET, kappa_list=kappas, lambdas=lambdas + lambdas[:1],
                                        reps=2, seed=0, estimator=estimator, kinship=kinship)
    distinct_kappas = 1 if kinship == "adjacency" else len(set(kappas))
    assert len(factored) == distinct_kappas * len(lambdas)
    assert len(run.rows) == len(kappas) * (len(lambdas) + 1)


def test_correlation_distribution_default_settings():
    rep = run_correlation_distribution(NET, reps=100, seed=0)
    labels = [row["label"] for row in rep.rows]
    assert labels == [lab for lab, _ in DEFAULT_CORR_SETTINGS]
    iid = rep.rows[0]
    assert iid["a"] is None and iid["sigma"] is None and iid["kappa"] is None
    assert abs(iid["corr_mean"]) < 0.05
    small = rep.rows[-1]
    assert small["frac_abs_gt_half"] > 0.5
    assert len(rep.replicates) == 4 * 100


def test_correlation_distribution_sigma_list_and_tuples():
    rep = run_correlation_distribution(
        NET,
        settings=[0.1, ("slow", TransmissionConfig(a=0.5, sigma=0.2, kappa=2))],
        reps=20, seed=0,
    )
    labels = [row["label"] for row in rep.rows]
    assert labels == ["iid", "sigma=0.1", "slow"]
    with pytest.raises(InputError):
        run_correlation_distribution(NET, settings=["fast"], reps=20, seed=0)
    with pytest.raises(InputError):
        run_correlation_distribution(NET, settings=[-0.5], reps=20, seed=0)


def test_experiment_rep_and_seed_validation():
    with pytest.raises(InputError):
        run_coverage_experiment(NET, reps=1, seed=0)
    with pytest.raises(InputError):
        run_coverage_experiment(NET, reps=10, seed=-3)


# The studies that run permutation tests, with one small setting each.
TESTING_STUDIES = {name: SMALL_STUDIES[name]
                   for name in ("coverage", "spurious-regression", "degree-confounding")}


@pytest.mark.parametrize("bad", [
    {"m": 0}, {"m": 1.5}, {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": 2.0},
    {"alpha": math.nan}, {"seed": -1},
], ids=["m=0", "m=1.5", "alpha=0", "alpha=1", "alpha=2", "alpha=nan", "seed=-1"])
@pytest.mark.parametrize("name", TESTING_STUDIES)
def test_study_test_settings_fail_before_any_simulation(name, bad, monkeypatch):
    def simulated(*args, **kwargs):
        raise AssertionError("the study simulated before checking its arguments")

    monkeypatch.setattr(experiments, "_rng", simulated)
    monkeypatch.setattr(experiments, "_edge_weights", simulated)
    runner, kwargs = TESTING_STUDIES[name]
    args = {**kwargs, "reps": 4, "seed": 0, **bad}
    with pytest.raises(InputError, match=f"^{next(iter(bad))} "):
        runner(NET, **args)


@pytest.mark.parametrize("name", TESTING_STUDIES)
def test_testing_studies_score_on_the_sparse_adjacency(name, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("the study built the dense n x n weights")

    monkeypatch.setattr(experiments, "adjacency_weights", dense)
    monkeypatch.setattr(graph, "adjacency_weights", dense)
    checked = []
    check_w = experiments._check_w
    monkeypatch.setattr(experiments, "_check_w",
                        lambda w, n: checked.append(w is NET.adjacency) or check_w(w, n))
    runner, kwargs = TESTING_STUDIES[name]
    runner(NET, **{**kwargs, "reps": 2, "seed": 0})
    assert checked == [True]


def _full_rejects(ys, w, s0, m, seed, alpha):
    return [float(permutation_test(y, w, PermutationConfig(m=m, seed=seed)).p_perm <= alpha)
            for y in ys]


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("name", TESTING_STUDIES)
def test_early_stop_reports_equal_full_permutation_tests(name, cores, monkeypatch):
    # m = 520 spans two 512-row chunks, scored by one worker or, on two
    # cores, by two that each stop on their own counts; alpha 0.2 makes both
    # bits common
    monkeypatch.setattr(deptest, "_cores", lambda: cores)
    runner, kwargs = TESTING_STUDIES[name]
    args = {**kwargs, "reps": 12, "seed": 5, "m": 520, "alpha": 0.2}
    fast = runner(NET, **args)
    monkeypatch.setattr(experiments, "_rejects", _full_rejects)
    full = runner(NET, **args)
    assert fast.rows == full.rows
    assert fast.replicates == full.replicates
    bits = {v for rec in fast.replicates for k, v in rec.items() if k.startswith("reject_")}
    assert bits == {0, 1}  # the comparison sees rejections and acceptances


def test_reject_stops_drawing_only_once_the_bit_is_fixed(monkeypatch):
    drawn = []
    relabellings = deptest._relabellings

    def counted(*args):
        for perms in relabellings(*args):
            drawn.append(len(perms))
            yield perms

    monkeypatch.setattr(deptest, "_relabellings", counted)
    w, m = experiments.adjacency_weights(NET), 500
    s0 = float(w.sum())
    iid = np.random.default_rng(3).standard_normal(NET.n)
    assert deptest._rejects([iid], w, s0, m, 11, 0.05) == [0.0]
    assert 0 < sum(drawn) < m
    drawn.clear()
    dependent = direct_transmission(NET, TransmissionConfig(a=0.7, sigma=0.2, kappa=3, seed=1))
    assert deptest._rejects([dependent], w, s0, m, 11, 0.05) == [1.0]
    assert sum(drawn) == m
    drawn.clear()
    # below 1 / (m + 1) no count rejects, so nothing is drawn
    assert deptest._rejects([dependent], w, s0, m, 11, 0.5 / (m + 1)) == [0.0]
    assert drawn == []


def test_each_replicate_runs_its_tests_on_one_relabelling_stream(monkeypatch):
    streams = []
    relabellings = deptest._relabellings
    monkeypatch.setattr(deptest, "_relabellings",
                        lambda *args: streams.append(args) or relabellings(*args))
    reps = 8
    spur = run_spurious_regression_experiment(NET, kappa_list=(0, 2), reps=reps, seed=1, m=99)
    assert len(streams) == reps  # x, y and residual tests of every cell and the baseline
    # the baseline regresses a relabelled y on the largest kappa's x: one
    # array on one stream, so one bit
    reject_x = {(rec["kappa"], rec["rep"]): rec["reject_x"] for rec in spur.replicates}
    assert all(reject_x["permuted", r] == reject_x[2, r] for r in range(reps))
    streams.clear()
    run_degree_confounding_experiment(NET, effect_sizes=(0.0, 1.0), reps=reps, seed=1, m=99)
    assert len(streams) == reps + 1  # one per replicate, and the run's one y test


def test_studies_do_not_warn_about_the_normal_approximation():
    # the studies read only the permutation decision, so the n < 30 warning
    # of the normal approximation has nothing to warn about
    small = generate_random_network(20, model="erdos-renyi", p=0.25, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for runner, kwargs in TESTING_STUDIES.values():
            runner(small, reps=3, seed=0, **kwargs)


def test_write_report_csv_round_trip(tmp_path):
    rep = run_coverage_experiment(NET, kappa_list=(0,), reps=10, seed=0, m=49)
    paths = write_report(rep, tmp_path, fmt="csv")
    assert [p.split("/")[-1] for p in paths] == [
        "coverage_report.csv", "coverage_replicates.csv"
    ]
    with open(paths[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["kappa"] == "0"
    assert float(rows[0]["coverage"]) == rep.rows[0]["coverage"]
    with open(paths[1]) as fh:
        reps_rows = list(csv.DictReader(fh))
    assert len(reps_rows) == 10


def test_write_report_json_round_trip(tmp_path):
    rep = run_correlation_distribution(NET, reps=20, seed=0)
    paths = write_report(rep, tmp_path, fmt="json")
    assert len(paths) == 1
    with open(paths[0]) as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1
    assert doc["tool"] == "netacorr"
    assert doc["name"] == "correlation-distribution"
    assert doc["rows"] == rep.rows
    assert doc["config"]["n"] == NET.n
    # None fields must survive the trip as JSON null
    assert doc["rows"][0]["a"] is None
    with pytest.raises(InputError):
        write_report(rep, tmp_path, fmt="yaml")
