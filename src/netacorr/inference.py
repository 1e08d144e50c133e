"""Estimators: naive mean CI, OLS, known-covariance GLS, and a one-component LMM.

Interval conventions: normal quantiles throughout (no t corrections), and
GLS standard errors come from (X' Sigma^-1 X)^-1 alone, i.e. Sigma is taken
as the full known error covariance rather than a shape to be rescaled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats
from scipy.linalg import cho_factor, cho_solve

from .errors import (BadCovarianceError, InputError, NumericError, SingularDesignError,
                     _check_y, _float_array, _real)

__all__ = [
    "MeanEstimate",
    "RegressionFit",
    "LmmFit",
    "mean_ci_naive",
    "ols",
    "gls",
    "lmm_fit",
]


@dataclass(frozen=True)
class MeanEstimate:
    mean: float
    se: float
    ci: tuple
    level: float
    n: int


@dataclass(frozen=True)
class RegressionFit:
    beta: np.ndarray
    se: np.ndarray
    ci: np.ndarray  # shape (p, 2)
    residuals: np.ndarray
    sigma2: Optional[float]  # OLS error variance estimate; None for known-cov GLS
    level: float


@dataclass(frozen=True)
class LmmFit:
    beta: np.ndarray
    se: np.ndarray
    sigma_g2: float
    sigma_e2: float
    loglik: float


def mean_ci_naive(y, level=0.95):
    """Sample mean with the iid-assumption interval mean +- z * sd/sqrt(n).

    The point of the name: the interval ignores any dependence between
    observations, which is exactly the failure mode the Monte Carlo
    harnesses measure.
    """
    y = _check_y(y)
    _real("level", level, 0, 1, strict=True)
    n = len(y)
    m = float(y.mean())
    se = _sd(y) / math.sqrt(n)
    z = _z_quantile(level)
    return MeanEstimate(mean=m, se=se, ci=(m - z * se, m + z * se), level=level, n=n)


def ols(y, x, level=0.95):
    """Ordinary least squares with classical iid-error standard errors.

    x is the full design matrix including any intercept column. Raises
    SingularDesignError when x is rank deficient, InputError when there are
    no residual degrees of freedom (n <= p), and NumericError when the
    residual variance is beyond the float range. The residuals are scaled
    by a power of two before they are squared, which is exact.
    """
    y, x, n, p = _check_design(y, x)
    _real("level", level, 0, 1, strict=True)
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    e = _exponent(resid)
    r = np.ldexp(resid, -e)
    try:
        sigma2 = math.ldexp(float(r @ r) / (n - p), 2 * e)
    except OverflowError:
        raise NumericError("OLS residual variance is beyond the float range; "
                           "rescale y") from None
    xtx_inv = np.linalg.inv(x.T @ x)
    se = np.sqrt(sigma2 * np.diagonal(xtx_inv))
    z = _z_quantile(level)
    ci = np.column_stack([beta - z * se, beta + z * se])
    return RegressionFit(beta=beta, se=se, ci=ci, residuals=resid,
                         sigma2=sigma2, level=level)


def gls(y, x, sigma, level=0.95):
    """Generalized least squares with a known error covariance sigma.

    beta = (X' Sigma^-1 X)^-1 X' Sigma^-1 y and SE from (X' Sigma^-1 X)^-1
    directly: sigma is the actual covariance, not a shape up to scale, so
    scaling sigma by c scales every SE by sqrt(c). With sigma = I the
    coefficients and residuals match ols exactly; the SEs differ by the
    estimated residual scale that ols applies and gls does not.
    """
    y, x, n, p = _check_design(y, x)
    _real("level", level, 0, 1, strict=True)
    beta, se, resid = _gls_core(y, x, _gls_factor(sigma, n))
    z = _z_quantile(level)
    ci = np.column_stack([beta - z * se, beta + z * se])
    return RegressionFit(beta=beta, se=se, ci=ci, residuals=resid,
                         sigma2=None, level=level)


def _gls_factor(sigma, n):
    """Validated lower Cholesky factor of an n x n covariance, for _gls_core."""
    sigma = _check_covariance(sigma, n, "sigma")
    try:
        return cho_factor(sigma, lower=True)
    except np.linalg.LinAlgError as exc:
        raise BadCovarianceError(f"sigma is not positive definite: {exc}") from exc


def _gls_core(y, x, cf):
    """(beta, se, residuals) of the GLS fit of checked y, x on a _gls_factor."""
    xw = cho_solve(cf, x)
    a = x.T @ xw
    beta = np.linalg.solve(a, xw.T @ y)
    cov_beta = np.linalg.inv(a)
    se = np.sqrt(np.diagonal(cov_beta))
    return beta, se, y - x @ beta


_LOGD_LO, _LOGD_HI = -10.0, 10.0
_GOLDEN_TOL = 1e-6


def lmm_fit(y, x, k):
    """Maximum-likelihood fit of y = X beta + g + e, g ~ N(0, sigma_g2 K).

    K is a symmetric PSD similarity matrix (n x n); e is iid noise. The fit
    eigendecomposes K once, rotates y and X into the eigenbasis, and
    profiles beta and sigma_e2 out of the Gaussian likelihood, leaving a
    1-D problem in the variance ratio delta = sigma_g2 / sigma_e2. That
    profile is minimized by a coarse grid plus golden-section refinement on
    log(delta) in [-10, 10] to a bracket 1e-6 wide, with the boundary fit
    delta = 0 (plain ML regression) kept as a candidate; whichever candidate
    has the higher likelihood wins, and an exact tie goes to delta = 0, so
    the reported loglik never falls below the no-random-effect fit.

    Scaling K by c rescales sigma_g2 by 1/c and leaves beta, se and loglik
    unchanged up to optimizer tolerance, the 1e-6 bracket on log(delta):
    only the product sigma_g2 * K is identified.
    """
    y, x, n, p = _check_design(y, x)
    return _lmm_cores([(y, x, _lmm_factor(k, n))])[0]


def _lmm_factor(k, n):
    """(eigenvalues clipped at 0, eigenvectors) of a validated n x n PSD k."""
    k = _check_covariance(k, n, "k")
    lam, u = np.linalg.eigh(k)
    if lam[-1] > 0 and lam[0] < -1e-8 * max(1.0, lam[-1]):
        raise BadCovarianceError(
            f"k has a substantially negative eigenvalue ({lam[0]:.3g}); not PSD"
        )
    return np.clip(lam, 0.0, None), u


def _lmm_cores(problems):
    """The lmm_fit of each (y, x, factor) in problems, in order.

    y and x are checked, with one n and one p across the problems, and
    factor is an _lmm_factor of k. After each problem's rotation, one stack
    carries them all: a stacked delta = 0 fit, its weighted sums
    (_outer_rows), the search over log(delta), one _profile_cores call that
    scores delta = 0 against the delta found (an exact tie goes to 0), and
    beta = beta0 + a^-1 b from the sums at the winner. s2 is the weighted
    mean square of the residuals there: the Schur complement would cancel
    digits at large delta. Every problem gets bit for bit its lone fit.
    """
    yt = np.stack([u.T @ y for y, _, (_, u) in problems])
    xt = np.stack([u.T @ x for _, x, (_, u) in problems])
    lams = np.stack([lam for _, _, (lam, _) in problems])
    size, n = lams.shape
    xtt = np.swapaxes(xt, 1, 2)
    try:
        beta0 = np.linalg.solve(xtt @ xt, xtt @ yt[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"weighted normal equations singular: {exc}") from exc
    r0 = yt - (xt @ beta0[..., None])[..., 0]
    # At delta = 0, s2 is the mean squared residual of the ML regression. One
    # at the rounding level of y is noise: X fits y exactly.
    if not np.all(np.mean(r0 * r0, axis=1) > np.finfo(float).eps * np.sum(yt * yt, axis=1) / n):
        raise NumericError(
            "residual variance at the rounding level of y; likelihood undefined "
            "(is the model a perfect fit?)"
        )
    g = _outer_rows(xt, r0)

    grid = np.linspace(_LOGD_LO, _LOGD_HI, 9)
    cores = _profile_cores(g, lams, np.broadcast_to(np.exp(grid), (size, len(grid))))
    best = np.reshape(cores, (size, len(grid))).argmin(axis=1)
    lo = grid[np.maximum(best - 1, 0)].tolist()
    hi = grid[np.minimum(best + 1, len(grid) - 1)].tolist()
    # math.exp, not np.exp: numpy's SIMD exp can differ from libm in the last bit
    logds = _golden_mins(
        lambda ts: _profile_cores(g, lams, np.array([math.exp(t) for t in ts])[:, None]),
        lo, hi, _GOLDEN_TOL)

    found = np.array([math.exp(t) for t in logds])
    cores = np.reshape(_profile_cores(g, lams, np.column_stack([np.zeros(size), found])),
                       (size, 2))
    delta = np.where(cores[:, 1] < cores[:, 0], found, 0.0)
    m = xt.shape[2] + 1
    v = delta[:, None] * lams + 1.0
    sums = np.matmul((1.0 / v)[:, None, :], g).reshape(-1, m, m)
    # _profile_cores has factored these sums, so a is positive definite
    a, b = sums[:, :-1, :-1], sums[:, :-1, -1:]
    step = np.linalg.solve(a, b)
    r = r0 - (xt @ step)[..., 0]
    s2 = np.mean(r * r / v, axis=1)
    _check_s2(s2.tolist())
    se = np.sqrt(s2[:, None] * np.diagonal(np.linalg.inv(a), axis1=1, axis2=2))
    loglik = -0.5 * (n * math.log(2.0 * math.pi) + n + cores.min(axis=1))
    return [LmmFit(beta=beta, se=se_i, sigma_g2=float(d * s), sigma_e2=float(s),
                   loglik=float(ll))
            for beta, se_i, d, s, ll in zip(beta0 + step[..., 0], se, delta, s2, loglik)]


def _outer_rows(xt, r0):
    """Row i of problem j holds the outer product of z_i = [xt_i, r0_i] with
    itself, flattened: (B, n, m*m) for B stacked problems, m = p + 1.

    With w = 1/v, w @ rows is the m x m matrix [[a, b], [b', c]] of
    weighted sums: a = X'WX, b = X'W r0 and c = r0'W r0. As y - X beta =
    r0 - X (beta - beta0), the weighted residual sum of squares of y is the
    Schur complement c - b'a^-1 b. Building on the delta = 0 residuals r0
    rather than y keeps b small next to c, so the subtraction cancels no
    digits even when X explains nearly all of y.
    """
    z = np.concatenate([xt, r0[..., None]], axis=2)
    return (z[..., :, None] * z[..., None, :]).reshape(*z.shape[:2], -1)


def _profile_cores(g, lams, e):
    """n log(rss / n) + sum(log v) at v = e[b, j] * lams[b] + 1, as a flat
    list in the row order of e.

    g stacks the _outer_rows of B problems, (B, n, m*m); lams stacks their
    eigenvalues, (B, n); e holds q values of delta per problem, (B, q).
    Each product of weights and sums is a per-problem np.matmul, the same
    BLAS call as for that problem alone. One np.linalg.cholesky call then
    factors all B*q sums [[a, b], [b', c]], one matrix at a time: the rss
    c - b'a^-1 b is the square of a factor's last diagonal entry. Sums that
    are not positive definite raise NumericError.
    """
    v = e[:, :, None] * lams[:, None, :] + 1.0
    m = math.isqrt(g.shape[2])
    try:
        chol = np.linalg.cholesky(np.matmul(1.0 / v, g).reshape(-1, m, m))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"weighted normal equations singular: {exc}") from exc
    n = lams.shape[1]
    rss = (chol[:, -1, -1] ** 2).tolist()
    _check_s2(rss)
    lvs = np.log(v).sum(axis=-1).ravel().tolist()
    return [n * math.log(r / n) + lv for r, lv in zip(rss, lvs)]


def _check_s2(s2):
    """Raise NumericError unless every residual variance in the list s2 is > 0 and finite."""
    if not all(0.0 < s < math.inf for s in s2):
        raise NumericError(
            "zero or non-finite residual variance; likelihood undefined "
            "(is the model a perfect fit?)"
        )


def _golden_mins(f, lo, hi, tol):
    """Golden-section minima of B functions at once, problem i on [lo[i], hi[i]].

    f maps a list of B points to the list of the B function values. Each
    problem stops on its own once its bracket is no wider than tol; until
    every one has stopped, a stopped problem is evaluated again at a point
    it has already seen, and that value is dropped. Returns the midpoints
    of the final brackets.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = list(lo), list(hi)
    c = [h - gr * (h - l) for l, h in zip(lo, hi)]
    d = [l + gr * (h - l) for l, h in zip(lo, hi)]
    fc, fd = f(c), f(d)
    active = range(len(lo))
    while True:
        active = [i for i in active if hi[i] - lo[i] > tol]
        if not active:
            return [(l + h) / 2.0 for l, h in zip(lo, hi)]
        x = list(c)
        left = []
        for i in active:
            left.append(fc[i] < fd[i])
            if left[-1]:
                hi[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = x[i] = hi[i] - gr * (hi[i] - lo[i])
            else:
                lo[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = x[i] = lo[i] + gr * (hi[i] - lo[i])
        fx = f(x)
        for i, to_c in zip(active, left):
            if to_c:
                fc[i] = fx[i]
            else:
                fd[i] = fx[i]


def _exponent(v):
    """The binary exponent of max |v|: v * 2^-e lies in (-1, 1)."""
    return math.frexp(float(np.abs(v).max()))[1]


def _sd(v):
    """v.std(ddof=1), computed on v scaled by a power of two so that no
    square overflows; the scale is exact, as the sd is of degree 1 in v."""
    e = _exponent(v)
    try:
        return math.ldexp(float(np.ldexp(v, -e).std(ddof=1)), e)
    except OverflowError:
        raise NumericError("a standard deviation is beyond the float range") from None


@functools.lru_cache
def _z_quantile(level):
    """Standard normal quantile of a two-sided interval at this level.

    Cached: stats.norm.ppf costs more than the rest of an ols call at n=200.
    """
    return float(stats.norm.ppf(0.5 + level / 2.0))


def _check_design(y, x):
    y = _check_y(y)
    x = _float_array("x", x)
    if x.ndim != 2:
        raise InputError(f"design matrix must be 2-D, got shape {x.shape}")
    n, p = x.shape
    if n != len(y):
        raise InputError(f"design has {n} rows but y has {len(y)} values")
    if not np.all(np.isfinite(x)):
        raise InputError("design matrix has non-finite entries")
    if n <= p:
        raise InputError(f"need more observations than parameters, got n={n}, p={p}")
    if np.linalg.matrix_rank(x) < p:
        raise SingularDesignError(_rank_message(x, p))
    return y, x, n, p


def _rank_message(x, p):
    """Why x failed the rank test: collinear columns, or column scales so far
    apart that the relative rank tolerance drops the smallest column."""
    norms = np.abs(x).max(axis=0)  # max-norms: a 2-norm near 1e154 overflows
    spread = norms.max() / norms.min() if norms.min() > 0 else 0.0
    if spread > 1.0 / np.finfo(float).eps:
        return (f"design matrix is rank deficient (rank < {p}): its largest column "
                f"(max |entry|) is {spread:.3g} times its smallest, beyond 1/eps, so "
                f"the rank test cannot see the smaller columns; rescale the columns")
    return f"design matrix is rank deficient (rank < {p}); drop collinear columns"


def _check_covariance(m, n, name):
    m = _float_array(name, m)
    if m.shape != (n, n):
        raise InputError(f"{name} must be {n}x{n}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} has non-finite entries")
    scale = float(np.abs(m).max())
    if not np.allclose(m, m.T, atol=1e-8 * max(1.0, scale)):
        raise BadCovarianceError(f"{name} is not symmetric")
    return (m + m.T) / 2.0
