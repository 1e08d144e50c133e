"""Estimators: naive mean CI, OLS, known-covariance GLS, and the mixed model."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from netacorr import inference
from netacorr import (
    BadCovarianceError,
    InputError,
    NumericError,
    SingularDesignError,
    generate_random_network,
    gls,
    lmm_fit,
    mean_ci_naive,
    ols,
    transmission_covariance,
)

Z95 = float(stats.norm.ppf(0.975))


def _design(rng, n, p):
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    return x


# ---------------------------------------------------------------------------
# mean_ci_naive
# ---------------------------------------------------------------------------

def test_mean_ci_naive_oracle():
    est = mean_ci_naive([1.0, 2.0, 3.0, 4.0])
    se = math.sqrt(5.0 / 3.0) / 2.0
    assert est.mean == 2.5
    assert abs(est.se - se) < 1e-15
    assert abs(est.ci[0] - (2.5 - Z95 * se)) < 1e-12
    assert abs(est.ci[1] - (2.5 + Z95 * se)) < 1e-12
    assert est.n == 4
    assert est.level == 0.95


def test_mean_ci_naive_validation():
    with pytest.raises(InputError):
        mean_ci_naive([1.0])
    with pytest.raises(InputError):
        mean_ci_naive([1.0, 2.0], level=1.0)
    with pytest.raises(InputError):
        mean_ci_naive([1.0, np.nan])


@settings(deadline=None, max_examples=300)
@given(level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(level=5e-324)
@example(level=1.0 - 2.0**-53)
def test_z_quantile_matches_scipy(level):
    # the quantile comes from statistics.NormalDist; scipy.stats is the oracle
    p = 0.5 + level / 2.0
    if p == 1.0:
        with pytest.raises(InputError, match="level is too close to 1"):
            inference._z_quantile(level)
        return
    want = float(stats.norm.ppf(p))
    assert abs(inference._z_quantile(level) - want) <= 1e-14 * want


def test_z_quantile_is_not_cached():
    assert not hasattr(inference._z_quantile, "cache_info")


def test_mean_ci_naive_of_values_near_the_float_max():
    # the mean of values near 1.8e308 overflows unless they are scaled first
    y = np.linspace(1.0, 1.7, 30) * 1e308
    est = mean_ci_naive(y)
    assert est.mean == math.ldexp(float(np.ldexp(y, -1024).mean()), 1024)
    assert 1.0e308 < est.ci[0] < est.mean < est.ci[1] < 1.7e308


def test_mean_ci_naive_interval_beyond_the_float_range_raises_numeric_error():
    # mean 1.35e308 and se 3.5e307: the upper endpoint overflows
    with pytest.raises(NumericError, match=r"interval mean \+- z \* se is beyond"):
        mean_ci_naive([1.0e308, 1.7e308])


# ---------------------------------------------------------------------------
# ols
# ---------------------------------------------------------------------------

def test_ols_matches_normal_equations():
    rng = np.random.default_rng(10)
    for _ in range(5):
        n, p = 60, 3
        x = _design(rng, n, p)
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(n)
        fit = ols(y, x)
        beta_ref = np.linalg.inv(x.T @ x) @ x.T @ y
        np.testing.assert_allclose(fit.beta, beta_ref, atol=1e-10)
        r = y - x @ beta_ref
        s2 = (r @ r) / (n - p)
        assert abs(fit.sigma2 - s2) < 1e-10
        se_ref = np.sqrt(s2 * np.diagonal(np.linalg.inv(x.T @ x)))
        np.testing.assert_allclose(fit.se, se_ref, atol=1e-10)
        np.testing.assert_allclose(fit.ci[:, 0], fit.beta - Z95 * fit.se, atol=1e-12)
        np.testing.assert_allclose(fit.residuals, r, atol=1e-10)


def test_ols_design_errors():
    rng = np.random.default_rng(11)
    x = _design(rng, 20, 2)
    y = rng.standard_normal(20)
    with pytest.raises(SingularDesignError):
        ols(y, np.column_stack([x, x[:, 1]]))
    with pytest.raises(InputError):
        ols(rng.standard_normal(3), rng.standard_normal((3, 3)))
    with pytest.raises(InputError):
        ols(y, x[:10])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-600, -1, 1, 500])
def test_power_of_two_scale_moves_no_sd_or_residual_variance(k):
    # the sd and sigma2 are computed on values scaled by a power of two, so
    # a scale of y by 2^k scales them by exactly 2^k and 4^k
    rng = np.random.default_rng(12)
    x = _design(rng, 30, 2)
    y = x @ np.array([1.0, 0.5]) + rng.standard_normal(30)
    scaled = np.ldexp(y, k)
    assert mean_ci_naive(scaled).se == math.ldexp(mean_ci_naive(y).se, k)
    assert ols(scaled, x).sigma2 == math.ldexp(ols(y, x).sigma2, 2 * k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ols_residual_variance_beyond_the_float_range_raises_numeric_error():
    rng = np.random.default_rng(13)
    x = _design(rng, 30, 2)
    y = 1e160 * rng.standard_normal(30)
    with pytest.raises(NumericError, match="residual variance is beyond the float range"):
        ols(y, x)
    assert math.isfinite(mean_ci_naive(y * 1e140).se)


def _under_one_and_two_blas_threads(code):
    """The stdout of code run in two fresh processes, under 1 and 2 OpenBLAS threads."""
    src = os.path.dirname(os.path.dirname(inference.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": t})
            for t in ("1", "2")]
    out = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    return out


def test_ols_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads, which moved the
    # last bit of the residual sum of squares between one thread and two
    code = ("import numpy as np; from netacorr import ols\n"
            "for seed in range(6):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    x = np.column_stack([np.ones(100000), rng.standard_normal((100000, 2))])\n"
            "    fit = ols(rng.standard_normal(100000), x)\n"
            "    print(repr(fit.sigma2), repr(fit.se.tolist()))")
    out = _under_one_and_two_blas_threads(code)
    assert out[0].count("\n") == 6 and out[0] == out[1]


def test_gls_study_does_not_depend_on_the_blas_thread_count():
    # a blocked LAPACK factorisation of K can follow the BLAS thread count;
    # at 200 nodes eigh does not (from about n = 400 it does, see the README)
    code = ("from netacorr import generate_random_network, run_gls_correction_experiment\n"
            "net = generate_random_network(200)\n"
            "for kinship, lambdas in (('transmission', (0.0, 0.5)), ('adjacency', (0.1, 0.5))):\n"
            "    rep = run_gls_correction_experiment(net, lambdas=lambdas, reps=2,\n"
            "                                        estimator='gls', kinship=kinship)\n"
            "    print(repr([(rec['slope'], rec['se']) for rec in rep.replicates]))")
    out = _under_one_and_two_blas_threads(code)
    assert out[0].count("\n") == 2 and out[0] == out[1]


# ---------------------------------------------------------------------------
# gls with a known covariance
# ---------------------------------------------------------------------------

def test_gls_identity_agrees_with_ols_point_estimates():
    rng = np.random.default_rng(12)
    n = 50
    x = _design(rng, n, 3)
    y = rng.standard_normal(n)
    f_ols = ols(y, x)
    f_gls = gls(y, x, np.eye(n))
    np.testing.assert_allclose(f_gls.beta, f_ols.beta, atol=1e-10)
    np.testing.assert_allclose(f_gls.residuals, f_ols.residuals, atol=1e-10)
    # the SEs differ exactly by the residual scale ols estimates:
    np.testing.assert_allclose(f_ols.se, f_gls.se * math.sqrt(f_ols.sigma2), atol=1e-10)
    assert f_gls.sigma2 is None


def test_gls_scaling_the_covariance_scales_the_se():
    # sigma is a covariance, not a shape: 4I doubles every SE, beta unmoved
    rng = np.random.default_rng(13)
    n = 40
    x = _design(rng, n, 2)
    y = rng.standard_normal(n)
    f1 = gls(y, x, np.eye(n))
    f4 = gls(y, x, 4.0 * np.eye(n))
    np.testing.assert_allclose(f4.beta, f1.beta, atol=1e-12)
    np.testing.assert_allclose(f4.se, 2.0 * f1.se, atol=1e-12)


def test_gls_general_covariance_oracle():
    rng = np.random.default_rng(14)
    n = 30
    a = rng.standard_normal((n, n))
    sigma = a @ a.T + n * np.eye(n)
    x = _design(rng, n, 3)
    y = rng.standard_normal(n)
    fit = gls(y, x, sigma)
    si = np.linalg.inv(sigma)
    cov_beta = np.linalg.inv(x.T @ si @ x)
    beta_ref = cov_beta @ x.T @ si @ y
    np.testing.assert_allclose(fit.beta, beta_ref, atol=1e-8)
    np.testing.assert_allclose(fit.se, np.sqrt(np.diagonal(cov_beta)), atol=1e-8)


def test_gls_covariance_errors():
    rng = np.random.default_rng(15)
    n = 10
    x = _design(rng, n, 2)
    y = rng.standard_normal(n)
    bad = np.eye(n)
    bad[0, 0] = -1.0
    with pytest.raises(BadCovarianceError, match="^sigma has a substantially negative"):
        gls(y, x, bad)
    asym = np.eye(n)
    asym[0, 1] = 0.5
    with pytest.raises(BadCovarianceError):
        gls(y, x, asym)
    with pytest.raises(InputError):
        gls(y, x, np.eye(n + 1))
    a = rng.standard_normal((n, n - 2))  # PSD of rank n - 2
    with pytest.raises(BadCovarianceError, match="^sigma is not positive definite"):
        gls(y, x, a @ a.T)
    # the definiteness check is relative to the largest eigenvalue, so no scale is refused
    tiny = gls(y, x, 1e-300 * np.eye(n))
    np.testing.assert_allclose(tiny.beta, gls(y, x, np.eye(n)).beta, rtol=1e-12)


# ---------------------------------------------------------------------------
# linear mixed model
# ---------------------------------------------------------------------------

def _psd_k(rng, n):
    a = rng.standard_normal((n, n // 2))
    k = a @ a.T
    return k / np.mean(np.diag(k))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lmm_brute_force_profile_oracle(p):
    # independent re-implementation: dense grid over delta, same profile math
    rng = np.random.default_rng(16)
    n = 40
    k = _psd_k(rng, n)
    x = _design(rng, n, p)
    g = np.linalg.cholesky(k + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y = x @ np.linspace(0.5, -1.0, p) + g + 0.7 * rng.standard_normal(n)
    fit = lmm_fit(y, x, k)

    lam, u = np.linalg.eigh(k)
    lam = np.clip(lam, 0.0, None)
    yt, xt = u.T @ y, u.T @ x

    def core(delta):
        v = delta * lam + 1.0
        xw = xt / v[:, None]
        beta = np.linalg.solve(xt.T @ xw, xw.T @ yt)
        r = yt - xt @ beta
        s2 = np.mean(r * r / v)
        return n * math.log(s2) + np.log(v).sum(), beta, s2

    deltas = np.concatenate([[0.0], np.exp(np.linspace(-10, 10, 4001))])
    cores = [core(d)[0] for d in deltas]
    best = int(np.argmin(cores))
    ll_ref = -0.5 * (n * math.log(2 * math.pi) + n + cores[best])
    assert fit.loglik >= ll_ref - 1e-6
    _, beta_ref, _ = core(deltas[best])
    np.testing.assert_allclose(fit.beta, beta_ref, atol=1e-4)


def test_lmm_zero_k_reduces_to_ols():
    rng = np.random.default_rng(17)
    n = 35
    x = _design(rng, n, 2)
    y = x @ np.array([1.0, 2.0]) + rng.standard_normal(n)
    fit = lmm_fit(y, x, np.zeros((n, n)))
    # every delta ties with delta = 0 when K = 0, and the tie reports no variance
    assert fit.sigma_g2 == 0.0
    ref = ols(y, x)
    np.testing.assert_allclose(fit.beta, ref.beta, atol=1e-10)
    rss = float(ref.residuals @ ref.residuals)
    assert abs(fit.sigma_e2 - rss / n) < 1e-9  # ML scale, not n-p
    ll_ols = -0.5 * n * (math.log(2 * math.pi) + 1.0 + math.log(rss / n))
    assert abs(fit.loglik - ll_ols) < 1e-9


def test_lmm_loglik_never_below_no_effect_fit():
    rng = np.random.default_rng(18)
    for _ in range(5):
        n = 30
        k = _psd_k(rng, n)
        x = _design(rng, n, 2)
        y = rng.standard_normal(n)
        fit = lmm_fit(y, x, k)
        ref = ols(y, x)
        rss = float(ref.residuals @ ref.residuals)
        ll0 = -0.5 * n * (math.log(2 * math.pi) + 1.0 + math.log(rss / n))
        assert fit.loglik >= ll0 - 1e-9


def test_lmm_k_scale_is_absorbed_by_sigma_g2():
    rng = np.random.default_rng(19)
    n = 30
    k = _psd_k(rng, n)
    x = _design(rng, n, 2)
    g = np.linalg.cholesky(k + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y = x @ np.array([0.3, 1.2]) + g + 0.5 * rng.standard_normal(n)
    f1 = lmm_fit(y, x, k)
    f10 = lmm_fit(y, x, 10.0 * k)
    np.testing.assert_allclose(f10.beta, f1.beta, atol=1e-6)
    np.testing.assert_allclose(f10.se, f1.se, atol=1e-6)
    assert abs(f10.loglik - f1.loglik) < 1e-6
    assert abs(f10.sigma_g2 * 10.0 - f1.sigma_g2) < 1e-3 * max(1.0, f1.sigma_g2)


def test_lmm_recovers_variance_components():
    # sigma_g2 = sigma_e2 = 1 on the benchmark kinship; medians over 200 fits
    net = generate_random_network(200, model="erdos-renyi", seed=5)
    base = transmission_covariance(net, 0.9, 0.2, 3)
    k = base / np.mean(np.diag(base))
    lk = np.linalg.cholesky(k + 1e-10 * np.eye(200))
    gen = np.random.default_rng(np.random.SeedSequence((99, 0)))
    ones = np.ones((200, 1))
    g2, e2 = [], []
    for _ in range(200):
        y = lk @ gen.standard_normal(200) + gen.standard_normal(200)
        fit = lmm_fit(y, ones, k)
        g2.append(fit.sigma_g2)
        e2.append(fit.sigma_e2)
    assert abs(np.median(g2) - 1.0) < 0.2
    assert abs(np.median(e2) - 1.0) < 0.2


def test_lmm_covariance_errors():
    rng = np.random.default_rng(20)
    n = 12
    x = _design(rng, n, 2)
    y = rng.standard_normal(n)
    indefinite = np.eye(n)
    indefinite[-1, -1] = -0.5
    with pytest.raises(BadCovarianceError):
        lmm_fit(y, x, indefinite)
    # negative definite: no eigenvalue is positive, and K = 0 would hide it
    with pytest.raises(BadCovarianceError, match="^k has a substantially negative"):
        lmm_fit(y, x, -np.eye(n))
    asym = np.eye(n)
    asym[0, 1] = 0.3
    with pytest.raises(BadCovarianceError):
        lmm_fit(y, x, asym)


def test_lmm_tiny_negative_eigenvalues_are_clipped():
    rng = np.random.default_rng(22)
    n = 15
    k = _psd_k(rng, n)
    jitter = k - 1e-13 * np.eye(n)  # numerically indefinite, harmlessly so
    x = _design(rng, n, 2)
    y = rng.standard_normal(n)
    fit = lmm_fit(y, x, jitter)
    assert np.isfinite(fit.loglik)


def test_lmm_perfect_fit_raises_numeric_error():
    rng = np.random.default_rng(23)
    n = 10
    x = _design(rng, n, 2)
    y = x @ np.array([2.0, -1.0])  # zero residual everywhere
    with pytest.raises(NumericError):
        lmm_fit(y, x, np.eye(n))


def test_lmm_fit_at_rounding_level_raises_numeric_error():
    # residuals of a few ulps of y are rounding noise, not a variance: the
    # guard is relative to y, so the fit fails instead of reporting SE ~ 0
    rng = np.random.default_rng(24)
    n = 12
    x = _design(rng, n, 2)
    y = x @ np.array([3.0, 1.5])
    with pytest.raises(NumericError, match="rounding level"):
        lmm_fit(y * (1.0 + 1e-15 * rng.standard_normal(n)), x, np.eye(n))
    # the same design with genuine, if tiny, noise still fits
    fit = lmm_fit(y + 1e-6 * rng.standard_normal(n), x, np.eye(n))
    assert 0.0 < fit.se[1] < 1e-5


# lmm_fit searches and fits on weighted sums (inference._outer_rows and
# _profile); the tests below hold it to a refit of the residuals.

def _residual_fit(xt, yt, lam, delta):
    """(profile core, beta, s2, a) at delta by solving the weighted normal
    equations a beta = X'V^-1 y and refitting the residuals."""
    v = delta * lam + 1.0
    xw = xt / v[:, None]
    a = xt.T @ xw
    try:
        beta = np.linalg.solve(a, xw.T @ yt)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"weighted normal equations singular: {exc}") from exc
    r = yt - xt @ beta
    s2 = float(np.mean(r * r / v))
    inference._check_s2([s2])
    return len(yt) * math.log(s2) + float(np.log(v).sum()), beta, s2, a


def _residual_slope(xt, yt, lam, delta):
    """The refit's sum(lam/v) - n * sum(lam r^2/v^2) / sum(r^2/v), which has
    the sign of the profile core's derivative in log(delta)."""
    v = delta * lam + 1.0
    r = yt - xt @ _residual_fit(xt, yt, lam, delta)[1]
    return float(np.sum(lam / v) - len(yt) * np.sum(lam * r * r / (v * v)) / np.sum(r * r / v))


def _residual_route_lmm(y, x, k):
    """(beta, se) of lmm_fit with every search step fitted by _residual_fit:
    the grid, then a bisection on the sign of _residual_slope."""
    lam, u = inference._eigen_factor(k, len(y), "k")
    n = len(y)
    yt, xt = u.T @ y, u.T @ x
    core0, _, s2_0, _ = _residual_fit(xt, yt, lam, 0.0)
    if not s2_0 > np.finfo(float).eps * float(yt @ yt) / n:
        raise NumericError("residual variance at the rounding level of y")
    grid = np.linspace(inference._LOGD_LO, inference._LOGD_HI, 9).tolist()
    best = int(np.argmin([_residual_fit(xt, yt, lam, math.exp(t))[0] for t in grid]))
    if _residual_slope(xt, yt, lam, math.exp(grid[best])) < 0:
        lo, hi = grid[best], grid[min(best + 1, 8)]
    else:
        lo, hi = grid[max(best - 1, 0)], grid[best]
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2.0
        if _residual_slope(xt, yt, lam, math.exp(mid)) < 0:
            lo = mid
        else:
            hi = mid
    delta = math.exp((lo + hi) / 2.0)
    if not _residual_fit(xt, yt, lam, delta)[0] < core0:
        delta = 0.0
    _, beta, s2, a = _residual_fit(xt, yt, lam, delta)
    return beta, np.sqrt(np.diagonal(s2 * np.linalg.inv(a)))


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4), rank=st.integers(0, 24),
       logd=st.floats(-10.0, 10.0), noise=st.sampled_from([1.0, 1e-2, 1e-4]))
def test_lmm_sums_route_core_matches_residual_route(seed, p, rank, logd, noise):
    # K of rank <= 24 on 24 nodes keeps from 0 to 24 zero eigenvalues; a small
    # noise gives a design that explains all but 1e-8 of the variance of y
    rng = np.random.default_rng(seed)
    n = 24
    a = rng.standard_normal((n, rank))
    lam, u = inference._eigen_factor(a @ a.T, n, "k")
    x = _design(rng, n, p)
    y = x @ rng.uniform(-3.0, 3.0, p) + noise * rng.standard_normal(n)
    yt, xt = u.T @ y, u.T @ x
    beta0 = _residual_fit(xt, yt, lam, 0.0)[1]
    rows = inference._outer_rows(xt[None], (yt - xt @ beta0)[None])
    (got,), (slope,) = inference._profile(rows, lam[None], np.array([[math.exp(logd)]]))
    want = _residual_fit(xt, yt, lam, math.exp(logd))[0]
    # a relative error e in the residual sum of squares moves the core by n * e
    assert abs(got - want) <= 1e-9 * max(abs(want), n)
    # the slope's sign is that of the refit core's central difference in
    # log(delta), wherever that difference stands clear of its own error
    h = 1e-4
    diff = (_residual_fit(xt, yt, lam, math.exp(logd + h))[0]
            - _residual_fit(xt, yt, lam, math.exp(logd - h))[0]) / (2.0 * h)
    if abs(diff) > 1e-4 * n:
        assert (slope > 0) == (diff > 0), (slope, diff)


def _rotated_sums(rng, n, x, nan=False):
    """(_outer_rows, eigenvalues) of a problem with design x on a random PSD K.
    With nan, one rotated design entry is NaN after the delta = 0 fit."""
    lam, u = inference._eigen_factor(_psd_k(rng, n), n, "k")
    xt, yt = u.T @ x, u.T @ rng.standard_normal(n)
    r0 = yt - xt @ np.linalg.lstsq(xt, yt, rcond=None)[0]
    if nan:
        xt[5, 1] = np.nan
    return inference._outer_rows(xt[None], r0[None])[0], lam


@pytest.mark.parametrize("fault", ["zero column", "nan"])
def test_profile_cores_refuse_bad_sums_alone_and_in_a_stack(fault):
    # A zero design column makes a singular, so its Cholesky factor fails. A
    # NaN fails the factor or, where LAPACK lets it through, the rss check.
    rng = np.random.default_rng(26)
    n = 16
    good = [_rotated_sums(rng, n, _design(rng, n, 3)) for _ in range(2)]
    x = _design(rng, n, 3)
    if fault == "zero column":
        x[:, 2] = 0.0
    bad = _rotated_sums(rng, n, x, nan=fault == "nan")
    e = np.array([[0.0, 1.0], [0.5, 2.0], [1e-3, 30.0]])
    with pytest.raises(NumericError) as alone:
        inference._profile(bad[0][None], bad[1][None], e[1:2])
    stack = [good[0], bad, good[1]]
    with pytest.raises(NumericError) as stacked:
        inference._profile(np.stack([g for g, _ in stack]),
                           np.stack([lam for _, lam in stack]), e)
    assert str(stacked.value) == str(alone.value)
    if fault == "zero column":
        assert str(alone.value).startswith("weighted normal equations singular: ")
    cores, slopes = inference._profile(np.stack([g for g, _ in good]),
                                       np.stack([lam for _, lam in good]), e[[0, 2]])
    assert all(math.isfinite(c) for c in cores) and np.all(np.isfinite(slopes))


def _batch_problem(rng, n, p, kind):
    """(y, x, k) of one kind: "random" draws K's rank and the effect size;
    "edge" has delta near 1e6, so the grid minimum sits at its upper end and
    the bracket is 2.5 wide; "tie" has K = 0, so every delta ties with
    delta = 0; "null" has K's column space orthogonal to X and to the noise,
    so the profile rises from delta = 0 and delta = 0 wins outright."""
    rank = {"random": int(rng.integers(0, n + 1)), "edge": n // 2, "tie": 0,
            "null": n // 2}[kind]
    a = rng.standard_normal((n, rank))
    x = _design(rng, n, p)
    eps = rng.standard_normal(n)
    if kind == "null":
        a -= x @ np.linalg.lstsq(x, a, rcond=None)[0]
        eps -= a @ np.linalg.lstsq(a, eps, rcond=None)[0]
    scale = {"random": rng.uniform(0.0, 3.0), "edge": 1e3}.get(kind, 0.0)
    y = x @ rng.uniform(-2.0, 2.0, p) + scale * (a @ rng.standard_normal(rank)) + eps
    return y, x, a @ a.T


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4), n_extra=st.integers(0, 30),
       kinds=st.lists(st.sampled_from(["random", "edge", "tie", "null"]), min_size=1,
                      max_size=6))
def test_lmm_batch_fits_each_problem_as_alone(seed, p, n_extra, kinds):
    rng = np.random.default_rng(seed)
    n = 10 + n_extra
    drawn = [_batch_problem(rng, n, p, kind) for kind in kinds]
    batch = inference._lmm_cores([(y, x, inference._eigen_factor(k, n, "k")) for y, x, k in drawn])
    for kind, (y, x, k), got in zip(kinds, drawn, batch):
        alone = lmm_fit(y, x, k)
        assert np.array_equal(got.beta, alone.beta) and np.array_equal(got.se, alone.se)
        assert (got.sigma_g2, got.sigma_e2, got.loglik) == (
            alone.sigma_g2, alone.sigma_e2, alone.loglik)
        if kind == "edge":  # the search ends at the top of its range
            assert abs(math.log(got.sigma_g2 / got.sigma_e2) - inference._LOGD_HI) <= 1e-12
        if kind in ("tie", "null"):
            assert got.sigma_g2 == 0.0


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4), n_extra=st.integers(0, 30),
       kind=st.sampled_from(["random", "edge", "tie", "null"]))
def test_lmm_sums_fit_matches_the_residual_refit_at_its_delta(seed, p, n_extra, kind):
    # The reported beta and se come from the weighted sums; a refit of the
    # residuals at the reported delta must agree to rounding. On these kinds
    # the refit's own beta is off from an extended-precision refit by up to
    # 1.1e-10 se (delta at the top of its range makes X'V^-1 X condition
    # numbers near 1e5), so the routes cannot agree to 1e-12 se everywhere;
    # over 6000 draws they differed by at most 5.4e-11 se.
    rng = np.random.default_rng(seed)
    n = 10 + n_extra
    y, x, k = _batch_problem(rng, n, p, kind)
    fit = lmm_fit(y, x, k)
    lam, u = inference._eigen_factor(k, n, "k")
    _, beta, s2, a = _residual_fit(u.T @ x, u.T @ y, lam, fit.sigma_g2 / fit.sigma_e2)
    se = np.sqrt(np.diagonal(s2 * np.linalg.inv(a)))
    assert np.all(np.abs(fit.beta - beta) <= 1e-9 * se)
    assert np.all(np.abs(fit.se - se) <= 1e-9 * se)
    # loglik is the Gaussian log-likelihood of y at the reported fit, here
    # from the dense covariance (over 400 draws they agreed to 6.3e-12)
    cov = fit.sigma_g2 * k + fit.sigma_e2 * np.eye(n)
    r = y - x @ fit.beta
    ll = -0.5 * (n * math.log(2.0 * math.pi) + np.linalg.slogdet(cov)[1]
                 + r @ np.linalg.solve(cov, r))
    assert abs(fit.loglik - ll) <= 1e-9 * max(1.0, abs(ll))


def test_lmm_batch_raises_the_error_of_its_failing_problem():
    rng = np.random.default_rng(25)
    n = 12
    x = _design(rng, n, 2)
    rounding = x @ np.array([3.0, 1.5]) * (1.0 + 1e-15 * rng.standard_normal(n))
    factor = inference._eigen_factor(np.eye(n), n, "k")
    with pytest.raises(NumericError) as alone:
        lmm_fit(rounding, x, np.eye(n))
    good = [(y, x, factor) for y in rng.standard_normal((2, n))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as batch:
            inference._lmm_cores([good[0], (rounding, x, factor), good[1]])
    assert str(batch.value) == str(alone.value)


def test_lmm_noise_scan_fails_where_the_residual_route_fails():
    # y = X beta + s * eps down to s = 3e-9, past the rounding-level guard:
    # the sums route must neither fail where the refit route fits nor fit
    # where it fails. Near the guard the profile is flat to rounding, so the
    # search stops anywhere in a small interval: nudging y by one ulp moves
    # the refit route's own beta and se by up to 8.5e-5 of the se here.
    outcomes = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = 40
        k = _psd_k(rng, n)
        x = _design(rng, n, 2)
        eps = rng.standard_normal(n)
        for s in np.geomspace(1e-4, 3e-9, 12):
            y = x @ np.array([3.0, 1.5]) + s * eps
            try:
                want = _residual_route_lmm(y, x, k)
            except NumericError:
                want = None
            try:
                got = lmm_fit(y, x, k)
            except NumericError:
                got = None
            assert (got is None) == (want is None), (seed, s)
            if got is not None:
                assert np.all(np.abs(got.beta - want[0]) <= 1e-4 * want[1]), (seed, s)
                assert np.all(np.abs(got.se - want[1]) <= 1e-4 * want[1]), (seed, s)
            outcomes.append(got is None)
    assert 0 < sum(outcomes) < len(outcomes)  # the scan crosses the guard
