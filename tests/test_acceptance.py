"""Acceptance gate: ten end-to-end criteria with one printed line each.

Each test prints ``ACCEPTANCE <k> PASS|FAIL <detail>`` through
``capsys.disabled`` so the verdicts are visible in a plain pytest run, then
asserts. Master seeds are fixed; every quantity here is bit-reproducible.
"""

import math
import time
import warnings

import numpy as np
import pytest

from netacorr import (
    adjacency_weights,
    gearys_c,
    monotone_pair,
    morans_i,
    normal_test,
    null_moments,
)
from netacorr import deptest
from netacorr.experiments import (
    run_correlation_distribution,
    run_coverage_experiment,
    run_degree_confounding_experiment,
    run_gls_correction_experiment,
    run_spurious_regression_experiment,
)

from conftest import random_network
from oracles import enumerate_null

pytestmark = pytest.mark.acceptance

THREADS = 4


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _adj(n, edges):
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0
    return w


def test_criterion_01_exact_small_graph_oracles(capsys):
    t0 = time.perf_counter()
    errs = []

    w4 = _adj(4, [(0, 1), (1, 2), (2, 3)])
    errs.append(abs(morans_i([1.0, 2.0, 3.0, 4.0], w4) - 1.0 / 3.0))

    w3 = _adj(3, [(0, 1), (1, 2)])
    errs.append(abs(gearys_c([1.0, 2.0, 3.0], w3) - 0.5))

    rng = np.random.default_rng(1)
    for n in (3, 5, 8):
        wc = np.ones((n, n)) - np.eye(n)
        for _ in range(20):
            y = rng.standard_normal(n)
            errs.append(abs(morans_i(y, wc) - (-1.0 / (n - 1))))
            errs.append(abs(gearys_c(y, wc) - 1.0))

    elapsed = time.perf_counter() - t0
    worst = max(errs)
    ok = worst < 1e-12 and elapsed < 1.0
    _verdict(capsys, 1, ok,
             f"small-graph oracles: worst error {worst:.2e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_02_moments_match_enumeration(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    cases = 0
    for n in (4, 5, 6, 7):
        for _ in range(14):
            net = random_network(rng, n, p=0.5)
            w = adjacency_weights(net)
            y = rng.standard_normal(n)
            mom = null_moments(y, w)
            mean, var, _ = enumerate_null(y, w)
            worst = max(worst, abs(mom.mean_i - mean), abs(mom.var_i - var))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and cases >= 50 and elapsed < 30.0
    _verdict(capsys, 2, ok,
             f"null moments vs enumeration: {cases} cases, worst gap {worst:.2e} "
             f"(tol 1e-10), {elapsed:.1f}s")


def test_criterion_03_type_i_calibration(capsys, er_net):
    t0 = time.perf_counter()
    rep = run_coverage_experiment(er_net, kappa_list=(0,), reps=2000, seed=2,
                                  m=500, threads=THREADS)
    elapsed = time.perf_counter() - t0
    rate = rep.rows[0]["reject_y"]
    ok = 0.035 <= rate <= 0.065 and elapsed < 300.0
    _verdict(capsys, 3, ok,
             f"iid rejection rate {rate:.4f} in [0.035, 0.065], "
             f"2000 reps M=500, {elapsed:.0f}s")


def test_criterion_04_power_monotonicity(capsys, sw_net):
    rep = run_coverage_experiment(sw_net, kappa_list=(0, 1, 2, 3), reps=500,
                                  seed=5, a=0.5, sigma=0.5, m=500,
                                  threads=THREADS)
    rates = [row["reject_y"] for row in rep.rows]
    ok = all(b >= a for a, b in zip(rates, rates[1:])) and rates[3] >= 0.8
    _verdict(capsys, 4, ok,
             "power over kappa " + " -> ".join(f"{r:.3f}" for r in rates)
             + " (non-decreasing, kappa3 >= 0.8)")


def test_criterion_05_coverage_collapse(capsys, er_net):
    rep = run_coverage_experiment(er_net, kappa_list=(0, 1, 2, 3), reps=500,
                                  seed=2, a=0.5, sigma=0.5, m=500,
                                  threads=THREADS)
    cov = [row["coverage"] for row in rep.rows]
    se = [row["mean_se"] for row in rep.rows]
    sd = [row["sd_estimates"] for row in rep.rows]
    ok = (
        0.93 <= cov[0] <= 0.97
        and all(b <= a for a, b in zip(cov, cov[1:]))
        and all(b <= a for a, b in zip(se, se[1:]))
        and all(b >= a for a, b in zip(sd, sd[1:]))
    )
    _verdict(capsys, 5, ok,
             "coverage " + " -> ".join(f"{c:.3f}" for c in cov)
             + f"; mean SE {se[0]:.4f}->{se[3]:.4f} down, SD {sd[0]:.4f}->{sd[3]:.4f} up")


def test_criterion_06_spurious_regression(capsys, er_net):
    rep = run_spurious_regression_experiment(er_net, kappa_list=(0, 1, 2, 3),
                                             reps=500, seed=0, m=500,
                                             threads=THREADS)
    rows = {row["kappa"]: row for row in rep.rows}
    base = rows["permuted"]
    ses = [rows[k]["mean_se"] for k in (0, 1, 2, 3)]
    se_spread = (max(ses) - min(ses)) / min(ses)
    sd_ratio = rows[3]["sd_estimates"] / base["sd_estimates"]
    worst_bias = max(
        abs(row["bias"]) / (row["sd_estimates"] / math.sqrt(row["reps"]))
        for row in rep.rows
    )
    ok = (
        0.02 <= base["reject_resid"] <= 0.07
        and se_spread < 0.10
        and sd_ratio >= 1.5
        and worst_bias < 4.0
    )
    _verdict(capsys, 6, ok,
             f"permuted resid rejection {base['reject_resid']:.3f} in [0.02, 0.07]; "
             f"SE spread {se_spread:.1%} < 10%; SD ratio {sd_ratio:.2f} >= 1.5; "
             f"max |bias|/MCSE {worst_bias:.2f} < 4")


def test_criterion_07_gls_correction(capsys, er_net):
    rep_a = run_gls_correction_experiment(er_net, kappa_list=(1, 2), lambdas=(0.0,),
                                          reps=500, seed=1, threads=THREADS)
    rep_b = run_gls_correction_experiment(er_net, kappa_list=(3,),
                                          lambdas=(0.0, 0.1, 0.25, 0.5),
                                          reps=500, seed=1, threads=THREADS)
    cov_true = [row["coverage"] for row in rep_a.rows] + [rep_b.rows[0]["coverage"]]
    sweep = [row["coverage"] for row in rep_b.rows]
    ok = (
        all(c >= 0.92 for c in cov_true)
        and all(b <= a for a, b in zip(sweep, sweep[1:]))
    )
    _verdict(capsys, 7, ok,
             "true-covariance coverage " + ", ".join(f"{c:.3f}" for c in cov_true)
             + " (all >= 0.92); kappa3 sweep "
             + " -> ".join(f"{c:.3f}" for c in sweep) + " non-increasing")


def test_criterion_08_degree_confounding(capsys, er_net):
    unc = run_degree_confounding_experiment(er_net, effect_sizes=(0.0, 1.0),
                                            reps=500, seed=1, m=500,
                                            control_degree=False, threads=THREADS)
    con = run_degree_confounding_experiment(er_net, effect_sizes=(0.0, 1.0),
                                            reps=500, seed=1, m=500,
                                            control_degree=True, threads=THREADS)
    u1 = unc.rows[1]
    c1 = con.rows[1]
    displacement = abs(u1["mean_estimate"]) / u1["mc_se_mean_estimate"]
    centering = abs(c1["mean_estimate"]) / c1["mc_se_mean_estimate"]
    ok = u1["coverage"] < 0.90 and displacement > 4.0 and centering <= 4.0
    _verdict(capsys, 8, ok,
             f"uncontrolled coverage {u1['coverage']:.3f} < 0.90, center displaced "
             f"{displacement:.0f} MCSE; controlled center within {centering:.2f} MCSE")


def test_criterion_09_toy_and_correlation_distribution(capsys, er_net):
    positive = 0
    worst = 0.0
    for seed in range(500):
        x, y = monotone_pair(50, seed=seed)
        r = np.corrcoef(x, y)[0, 1]
        worst = max(worst, abs(abs(r) - 1.0))
        positive += r > 0
    frac = positive / 500.0

    rep = run_correlation_distribution(er_net, reps=500, seed=0, threads=THREADS)
    rows = {row["label"]: row for row in rep.rows}
    small = rows["small-error"]["frac_abs_gt_half"]
    iid = rows["iid"]["frac_abs_gt_half"]
    ok = (
        worst < 1e-12
        and 0.4424 <= frac <= 0.5576  # 99% binomial band around 0.5, 500 draws
        and small >= 0.60
        and iid < 0.05
    )
    _verdict(capsys, 9, ok,
             f"|corr| = 1 exactly (max gap {worst:.1e}); sign fraction {frac:.3f}; "
             f"small-error frac {small:.3f} >= 0.60 vs iid {iid:.3f} < 0.05")


def test_criterion_10_invariance_suites(capsys, er_net, monkeypatch):
    rng = np.random.default_rng(10)
    cases = 120
    ok_affine = ok_scale = ok_sym = True

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)

        for c in range(cases):
            n = int(rng.integers(10, 40))
            net = random_network(rng, n, p=0.18)
            w = adjacency_weights(net)
            y = rng.standard_normal(n)

            # affine: y -> a*y + b changes neither statistic
            a = float(rng.uniform(0.2, 5.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
            b = float(rng.normal(0.0, 10.0))
            if abs(morans_i(y, w) - morans_i(a * y + b, w)) >= 1e-12:
                ok_affine = False
            if abs(gearys_c(y, w) - gearys_c(a * y + b, w)) >= 1e-12:
                ok_affine = False

            # weight scale: w -> c*w
            scale = float(rng.uniform(0.01, 50.0))
            if abs(morans_i(y, w) - morans_i(y, scale * w)) >= 1e-12:
                ok_scale = False
            m1, m2 = null_moments(y, w), null_moments(y, scale * w)
            if abs(m1.var_i - m2.var_i) >= 1e-12:
                ok_scale = False

            # symmetrization: any nonneg zero-diagonal w vs (w + w')/2
            wa = rng.uniform(0.0, 1.0, size=(n, n))
            np.fill_diagonal(wa, 0.0)
            ws = (wa + wa.T) / 2.0
            if abs(morans_i(y, wa) - morans_i(y, ws)) >= 1e-12:
                ok_sym = False
            if abs(null_moments(y, wa).var_i - null_moments(y, ws).var_i) >= 1e-10:
                ok_sym = False

    # determinism under parallelism: at m = 1100 each sparse test has two
    # full 512-row chunks and a third, scored by one worker on one core or by
    # two on two cores, so each worker's counts carry a full chunk
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(deptest, "_cores", lambda: cores)
        runs.append(run_spurious_regression_experiment(er_net, reps=8, seed=0, m=1100))
    ok_par = runs[0].rows == runs[1].rows and runs[0].replicates == runs[1].replicates

    ok = ok_affine and ok_scale and ok_sym and ok_par
    _verdict(capsys, 10, ok,
             f"{cases} cases each: affine {'ok' if ok_affine else 'FAIL'}, "
             f"weight-scale {'ok' if ok_scale else 'FAIL'}, "
             f"symmetrization {'ok' if ok_sym else 'FAIL'}, "
             f"parallel determinism {'ok' if ok_par else 'FAIL'}")
