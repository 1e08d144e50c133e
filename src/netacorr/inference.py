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
    se = float(y.std(ddof=1) / math.sqrt(n))
    z = _z_quantile(level)
    return MeanEstimate(mean=m, se=se, ci=(m - z * se, m + z * se), level=level, n=n)


def ols(y, x, level=0.95):
    """Ordinary least squares with classical iid-error standard errors.

    x is the full design matrix including any intercept column. Raises
    SingularDesignError when x is rank deficient, InputError when there are
    no residual degrees of freedom (n <= p).
    """
    y, x, n, p = _check_design(y, x)
    _real("level", level, 0, 1, strict=True)
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    sigma2 = float(resid @ resid) / (n - p)
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
_GOLDEN_TOL = 1e-8


def lmm_fit(y, x, k):
    """Maximum-likelihood fit of y = X beta + g + e, g ~ N(0, sigma_g2 K).

    K is a symmetric PSD similarity matrix (n x n); e is iid noise. The fit
    eigendecomposes K once, rotates y and X into the eigenbasis, and
    profiles beta and sigma_e2 out of the Gaussian likelihood, leaving a
    1-D problem in the variance ratio delta = sigma_g2 / sigma_e2. That
    profile is minimized by a coarse grid plus golden-section refinement on
    log(delta) in [-10, 10], with the boundary fit delta = 0 (plain ML
    regression) kept as a candidate; whichever candidate has the higher
    likelihood wins, and an exact tie goes to delta = 0, so the reported
    loglik never falls below the no-random-effect fit.

    Scaling K by c rescales sigma_g2 by 1/c and leaves beta, se and loglik
    unchanged (up to optimizer tolerance): only the product sigma_g2 * K
    is identified.
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
    factor is an _lmm_factor of k. Each problem is rotated and fitted at
    delta = 0 in turn. Then one search over log(delta) runs for all of them
    at once, on weighted sums built once per problem (see _outer_rows). The
    fit at the delta a problem picks is made on the residual route
    (_residual_fit), which reports the result. Batching shares numpy calls
    only: every problem gets bit for bit the fit it gets alone.
    """
    rotated, fits0, outer = [], [], []
    for y, x, (lam, u) in problems:
        n = len(y)
        yt = u.T @ y
        xt = u.T @ x
        # At delta = 0, s2 is the mean squared residual of the ML regression. One
        # at the rounding level of y is noise: X fits y exactly.
        fit0 = _residual_fit(xt, yt, lam, 0.0)
        if not fit0[2] > np.finfo(float).eps * float(yt @ yt) / n:
            raise NumericError(
                "residual variance at the rounding level of y; likelihood undefined "
                "(is the model a perfect fit?)"
            )
        rotated.append((xt, yt, lam))
        fits0.append(fit0)
        outer.append(_outer_rows(xt, yt - xt @ fit0[1]))
    g = np.stack(outer)
    lams = np.stack([lam for _, _, lam in rotated])

    grid = np.linspace(_LOGD_LO, _LOGD_HI, 9)
    cores = _profile_cores(g, lams, np.broadcast_to(np.exp(grid), (len(g), len(grid))))
    best = np.reshape(cores, (len(g), len(grid))).argmin(axis=1)
    lo = grid[np.maximum(best - 1, 0)].tolist()
    hi = grid[np.minimum(best + 1, len(grid) - 1)].tolist()
    # math.exp, not np.exp: numpy's SIMD exp can differ from libm in the last bit
    logds = _golden_mins(
        lambda ts: _profile_cores(g, lams, np.array([math.exp(t) for t in ts])[:, None]),
        lo, hi, _GOLDEN_TOL)

    fits = []
    for (xt, yt, lam), fit0, logd in zip(rotated, fits0, logds):
        delta = math.exp(logd)
        fit = _residual_fit(xt, yt, lam, delta)
        if fit0[0] <= fit[0]:
            delta, fit = 0.0, fit0
        core_best, beta, s2, a = fit
        n = len(yt)
        se = np.sqrt(np.diagonal(s2 * np.linalg.inv(a)))
        loglik = -0.5 * (n * math.log(2.0 * math.pi) + n + core_best)
        fits.append(LmmFit(beta=beta, se=se, sigma_g2=float(delta * s2),
                           sigma_e2=float(s2), loglik=float(loglik)))
    return fits


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
    _check_s2(s2)
    return len(yt) * math.log(s2) + float(np.log(v).sum()), beta, s2, a


def _outer_rows(xt, r0):
    """Row i holds the outer product of z_i = [xt_i, r0_i] with itself, flattened.

    With w = 1/v, w @ rows is the (p+1) x (p+1) matrix [[a, b], [b', c]] of
    weighted sums: a = X'WX, b = X'W r0 and c = r0'W r0. As y - X beta =
    r0 - X (beta - beta0), the weighted residual sum of squares of y is the
    Schur complement c - b'a^-1 b. Building on the delta = 0 residuals r0
    rather than y keeps b small next to c, so the subtraction cancels no
    digits even when X explains nearly all of y.
    """
    z = np.column_stack([xt, r0])
    return (z[:, :, None] * z[:, None, :]).reshape(len(z), -1)


def _profile_cores(g, lams, e):
    """n log(rss / n) + sum(log v) at v = e[b, j] * lams[b] + 1, as a flat
    list in the row order of e.

    g stacks the _outer_rows of B problems, (B, n, m*m); lams stacks their
    eigenvalues, (B, n); e holds q values of delta per problem, (B, q).
    Each product of weights and sums is a per-problem np.matmul, the same
    BLAS call as for that problem alone. rss is the last pivot of Gaussian
    elimination without pivoting, which is safe because a is symmetric
    positive definite; only the upper triangle is read and updated, and
    every pivot is checked before it divides.
    """
    v = e[:, :, None] * lams[:, None, :] + 1.0
    m = math.isqrt(g.shape[2])
    # entry (i, j) of every problem's sums, as one array over the stack
    sums = list(np.matmul(1.0 / v, g).reshape(-1, m * m).T)
    rows = [sums[i * m:(i + 1) * m] for i in range(m)]
    for k in range(m - 1):
        rk = rows[k]
        piv = rk[k]
        for q in piv.tolist():
            if not 0.0 < q < math.inf:
                raise NumericError(
                    f"weighted normal equations singular: pivot {k} is {q!r}")
        for i in range(k + 1, m):
            f = rk[i] / piv
            ri = rows[i]
            for j in range(i, m):
                ri[j] = ri[j] - f * rk[j]
    n = lams.shape[1]
    cores = []
    for rss, lv in zip(rows[-1][-1].tolist(), np.log(v).sum(axis=-1).ravel().tolist()):
        _check_s2(rss)
        cores.append(n * math.log(rss / n) + lv)
    return cores


def _check_s2(s2):
    if not (s2 > 0 and math.isfinite(s2)):
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
