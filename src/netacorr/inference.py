"""Estimators: naive mean CI, OLS, known-covariance GLS, and a one-component LMM.

Interval conventions: normal quantiles throughout (no t corrections), and
GLS standard errors come from (X' Sigma^-1 X)^-1 alone, i.e. Sigma is taken
as the full known error covariance rather than a shape to be rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats
from scipy.linalg import cho_factor, cho_solve

from .errors import (BadCovarianceError, InputError, NumericError, SingularDesignError,
                     _check_y, _real)

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
    likelihood wins, so the reported loglik never falls below the
    no-random-effect fit.

    Scaling K by c rescales sigma_g2 by 1/c and leaves beta, se and loglik
    unchanged (up to optimizer tolerance): only the product sigma_g2 * K
    is identified.
    """
    y, x, n, p = _check_design(y, x)
    return _lmm_core(y, x, _lmm_factor(k, n))


def _lmm_factor(k, n):
    """(eigenvalues clipped at 0, eigenvectors) of a validated n x n PSD k."""
    k = _check_covariance(k, n, "k")
    lam, u = np.linalg.eigh(k)
    if lam[-1] > 0 and lam[0] < -1e-8 * max(1.0, lam[-1]):
        raise BadCovarianceError(
            f"k has a substantially negative eigenvalue ({lam[0]:.3g}); not PSD"
        )
    return np.clip(lam, 0.0, None), u


def _lmm_core(y, x, factor):
    """The lmm_fit of checked y, x on an _lmm_factor of k: rotate, then profile."""
    lam, u = factor
    n = len(y)
    yt = u.T @ y
    xt = u.T @ x

    def profile(delta):
        # Returns (negative profiled -2/n-free loglik core, beta, s2, v).
        v = delta * lam + 1.0
        xw = xt / v[:, None]
        a = xt.T @ xw
        try:
            beta = np.linalg.solve(a, xw.T @ yt)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"weighted normal equations singular: {exc}") from exc
        r = yt - xt @ beta
        s2 = float(np.mean(r * r / v))
        if not (s2 > 0 and np.isfinite(s2)):
            raise NumericError(
                "zero or non-finite residual variance; likelihood undefined "
                "(is the model a perfect fit?)"
            )
        core = n * math.log(s2) + float(np.log(v).sum())
        return core, beta, s2, v

    def negll(logd):
        return profile(math.exp(logd))[0]

    # At delta = 0, s2 is the mean squared residual of the ML regression. One
    # at the rounding level of y is noise: X fits y exactly.
    core0, _, s2_0, _ = profile(0.0)
    if not s2_0 > np.finfo(float).eps * float(yt @ yt) / n:
        raise NumericError(
            "residual variance at the rounding level of y; likelihood undefined "
            "(is the model a perfect fit?)"
        )
    grid = np.linspace(_LOGD_LO, _LOGD_HI, 9)
    cores = [negll(g) for g in grid]
    g_best = int(np.argmin(cores))
    lo = grid[max(0, g_best - 1)]
    hi = grid[min(len(grid) - 1, g_best + 1)]
    logd_opt = _golden_min(negll, float(lo), float(hi), _GOLDEN_TOL)

    candidates = [(negll(logd_opt), math.exp(logd_opt)), (core0, 0.0)]
    core_best, delta = min(candidates, key=lambda c: c[0])
    _, beta, s2, v = profile(delta)

    a = xt.T @ (xt / v[:, None])
    cov_beta = s2 * np.linalg.inv(a)
    se = np.sqrt(np.diagonal(cov_beta))
    loglik = -0.5 * (n * math.log(2.0 * math.pi) + n + core_best)
    return LmmFit(beta=beta, se=se, sigma_g2=float(delta * s2),
                  sigma_e2=float(s2), loglik=float(loglik))


def _golden_min(f, lo, hi, tol):
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


def _z_quantile(level):
    """Standard normal quantile of a two-sided interval at this level."""
    return float(stats.norm.ppf(0.5 + level / 2.0))


def _check_design(y, x):
    y = _check_y(y)
    x = np.asarray(x, dtype=float)
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
    m = np.asarray(m, dtype=float)
    if m.shape != (n, n):
        raise InputError(f"{name} must be {n}x{n}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} has non-finite entries")
    scale = float(np.abs(m).max())
    if not np.allclose(m, m.T, atol=1e-8 * max(1.0, scale)):
        raise BadCovarianceError(f"{name} is not symmetric")
    return (m + m.T) / 2.0
