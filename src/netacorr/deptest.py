"""Moran/Geary network dependence statistics and randomization tests.

All statistics take a 1-D value array ``y`` and a non-negative weight
matrix ``w`` with zero diagonal. ``w`` may be asymmetric; the weight total
S0 = sum_ij (w_ij + w_ji) / 2 and the moment sums below handle that case.
``w`` may be an array-like or a scipy sparse matrix or array; a sparse ``w``
is converted once to CSR and stays sparse, so no n x n dense matrix is built.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

import numpy as np
from scipy import sparse, stats

from .errors import DegenerateStatisticError, InputError
from .graph import _check_seed

__all__ = [
    "NullMoments",
    "MoranResult",
    "PermutationConfig",
    "morans_i",
    "gearys_c",
    "null_moments",
    "enumerate_null",
    "permutation_test",
    "normal_test",
]

_SMALL_N_NORMAL = 30
_ENUM_CAP = 8
_CHUNK = 512


@dataclass(frozen=True)
class NullMoments:
    """Moments of Moran's I under random relabelling, plus the weight sums."""

    mean_i: float
    var_i: float
    s0: float
    s1: float
    s2: float
    b2: float


@dataclass(frozen=True)
class MoranResult:
    """Outcome of a dependence test.

    moments, i_std and p_normal are None when the normal approximation was
    not computed (n < 4, or a null with zero variance such as a complete
    graph). p_perm is None for a pure normal-approximation test; m_used is
    0 in that case.
    """

    i_stat: float
    n: int
    s0: float
    moments: Optional[NullMoments]
    i_std: Optional[float]
    p_normal: Optional[float]
    p_perm: Optional[float]
    m_used: int
    alternative: str


@dataclass(frozen=True)
class PermutationConfig:
    """Settings for permutation_test.

    m : number of random relabellings (default 500).
    seed : non-negative master seed for the permutation streams.
    alternative : "greater" (upper tail, the default) or "two-sided"
        (double the smaller one-sided add-one p, capped at 1).
    threads : worker threads for the permutation sweep; None or 1 is serial.
        The p-value does not depend on this (fixed chunking, one child
        stream per chunk, integer tail counts summed across chunks).
    """

    m: int = 500
    seed: int = 0
    alternative: str = "greater"
    threads: Optional[int] = None


def morans_i(y, w):
    """Moran's I statistic.

    I = (n / S0) * [sum_ij w_ij (y_i - ybar)(y_j - ybar)] / [sum_i (y_i - ybar)^2]

    Parameters
    ----------
    y : array-like, shape (n,)
        Node values, n >= 2, finite, not all equal.
    w : array-like or scipy sparse matrix, shape (n, n)
        Non-negative weights, zero diagonal, at least one positive entry.
        Explicitly stored zeros of a sparse w count as zero weights.

    Returns
    -------
    float

    Notes
    -----
    Positive values indicate that linked nodes carry similar values; the
    expectation under random relabelling is -1/(n-1), not 0.
    """
    y, w, d, ss, s0 = _validate(y, w)
    return _moran(d, w, s0, ss)


def gearys_c(y, w):
    """Geary's c statistic.

    c = (n - 1) * [sum_ij w_ij (y_i - y_j)^2] / (2 * S0 * sum_i (y_i - ybar)^2)

    Values below 1 indicate positive dependence. Same input contract as
    :func:`morans_i`.
    """
    y, w, d, ss, s0 = _validate(y, w)
    if sparse.issparse(w):
        c = w.tocoo()
        num = float((c.data * (d[c.row] - d[c.col]) ** 2).sum())
    else:
        diff2 = (d[:, None] - d[None, :]) ** 2
        num = float((w * diff2).sum())
    return float((len(y) - 1) * num / (2.0 * s0 * ss))


def null_moments(y, w):
    """Exact mean and variance of I under random relabelling of y.

    Uses the randomization moments:

        E[I]   = -1/(n-1)
        Var[I] = [n((n^2-3n+3)S1 - nS2 + 3 S0^2)
                  - b2((n^2-n)S1 - 2n S2 + 6 S0^2)]
                 / [(n-1)(n-2)(n-3) S0^2]  -  E[I]^2

    with S0 = sum_ij (w_ij + w_ji)/2, S1 = (1/2) sum_ij (w_ij + w_ji)^2,
    S2 = sum_i (row_i + col_i)^2 and b2 = n * sum d^4 / (sum d^2)^2 the
    sample kurtosis of y (population normalization). Requires n >= 4.
    """
    y, w, d, ss, s0 = _validate(y, w)
    n = len(y)
    if n < 4:
        raise InputError(f"null moments need n >= 4, got n={n}")
    return _moments(d, w, ss, s0)


def _moments(d, w, ss, s0):
    """Randomization moments of I for validated centred values d (n >= 4).

    The expressions serve dense and sparse w alike: for a scipy sparse array
    ``** 2`` is element-wise and the axis sums are 1-D arrays.
    """
    n = len(d)
    s1 = float(0.5 * ((w + w.T) ** 2).sum())
    rows = w.sum(axis=1)
    cols = w.sum(axis=0)
    s2 = float(((rows + cols) ** 2).sum())
    b2 = float(n * (d**4).sum() / ss**2)
    mean_i = -1.0 / (n - 1)
    num = n * ((n * n - 3 * n + 3) * s1 - n * s2 + 3 * s0 * s0) - b2 * (
        (n * n - n) * s1 - 2 * n * s2 + 6 * s0 * s0
    )
    den = (n - 1) * (n - 2) * (n - 3) * s0 * s0
    var_i = num / den - mean_i * mean_i
    return NullMoments(mean_i=mean_i, var_i=float(var_i), s0=s0, s1=s1, s2=s2, b2=b2)


def enumerate_null(y, w):
    """Brute-force null distribution of I over all n! relabellings.

    Only for cross-checks on tiny graphs (n <= 8). Returns
    (mean, variance, values) where variance is the population variance
    over the n! values and values is the full array in itertools
    permutation order.
    """
    y, w, d, ss, s0 = _validate(y, w)
    n = len(y)
    if n > _ENUM_CAP:
        raise InputError(f"enumeration is factorial; capped at n <= {_ENUM_CAP}, got {n}")
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    dp = d[perms]
    vals = n * ((dp @ w) * dp).sum(axis=1) / (s0 * ss)
    return float(vals.mean()), float(vals.var()), vals


def permutation_test(y, w, cfg=None):
    """Monte Carlo permutation test for positive network dependence.

    Draws cfg.m random relabellings of y, recomputes I for each, and
    reports the add-one tail probability

        p_perm = (1 + #{I* >= I_obs}) / (m + 1)

    with exact floating-point >= so ties count as extreme (on a complete
    graph every relabelling ties and p_perm is exactly 1). The normal
    approximation fields are filled whenever n >= 4; for n < 30 a
    UserWarning recommends the permutation p-value instead.

    Returns a :class:`MoranResult`. Reproducible for a fixed cfg.seed and
    independent of cfg.threads and of chunk execution order.
    """
    if cfg is None:
        cfg = PermutationConfig()
    _check_cfg(cfg)
    y, w, d, ss, s0 = _validate(y, w)
    n = len(y)
    i_obs = _moran(d, w, s0, ss)

    mom = i_std = p_normal = None
    if n >= 4:
        mom = _moments(d, w, ss, s0)
        i_std, p_normal = _normal_tail(i_obs, mom, cfg.alternative, n)

    sizes = [_CHUNK] * (cfg.m // _CHUNK)
    if cfg.m % _CHUNK:
        sizes.append(cfg.m % _CHUNK)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(sizes))

    # The permuted statistic repeats the _moran expression term for term, so
    # inputs where the arithmetic is exact (small integer-valued y) tie bitwise.
    def chunk_counts(args):
        size, ss_child = args
        rng = np.random.default_rng(ss_child)
        perms = rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
        dp = d[perms]
        vals = n * ((dp @ w) * dp).sum(axis=1) / (s0 * ss)
        return int((vals >= i_obs).sum()), int((vals <= i_obs).sum())

    jobs = list(zip(sizes, streams))
    nthreads = cfg.threads or 1
    if nthreads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            counts = list(pool.map(chunk_counts, jobs))
    else:
        counts = [chunk_counts(j) for j in jobs]
    hi = sum(c[0] for c in counts)
    lo = sum(c[1] for c in counts)

    p_upper = (1.0 + hi) / (cfg.m + 1.0)
    if cfg.alternative == "greater":
        p_perm = p_upper
    else:
        p_lower = (1.0 + lo) / (cfg.m + 1.0)
        p_perm = min(1.0, 2.0 * min(p_upper, p_lower))

    return MoranResult(
        i_stat=i_obs, n=n, s0=s0, moments=mom, i_std=i_std,
        p_normal=p_normal, p_perm=float(p_perm), m_used=cfg.m,
        alternative=cfg.alternative,
    )


def normal_test(y, w, alternative="greater"):
    """Dependence test from the randomization moments alone (no Monte Carlo).

    Standardizes I by the exact null moments and reads the tail off the
    normal distribution. Requires n >= 4; warns for n < 30 where the
    approximation is poor.
    """
    if alternative not in ("greater", "two-sided"):
        raise InputError(f"alternative must be 'greater' or 'two-sided', got {alternative!r}")
    y, w, d, ss, s0 = _validate(y, w)
    n = len(y)
    if n < 4:
        raise InputError(f"normal test needs n >= 4, got n={n}")
    i_obs = _moran(d, w, s0, ss)
    mom = _moments(d, w, ss, s0)
    i_std, p_normal = _normal_tail(i_obs, mom, alternative, n)
    return MoranResult(
        i_stat=i_obs, n=n, s0=s0, moments=mom, i_std=i_std,
        p_normal=p_normal, p_perm=None, m_used=0, alternative=alternative,
    )


def _moran(d, w, s0, ss):
    """Moran's I of centred values d with weight total s0 and sum of squares ss.

    ``d @ w`` takes the same route as the permutation kernel's ``dp @ w`` for
    dense and sparse w alike, so exact inputs tie bitwise with permuted ones.
    """
    return float(len(d) * (d @ w @ d) / (s0 * ss))


def _normal_tail(i_obs, mom, alternative, n):
    if mom.var_i <= 0 or not math.isfinite(mom.var_i):
        return None, None
    if n < _SMALL_N_NORMAL:
        warnings.warn(
            f"normal approximation for Moran's I is unreliable at n={n} < "
            f"{_SMALL_N_NORMAL}; prefer the permutation p-value",
            UserWarning,
            stacklevel=3,
        )
    i_std = (i_obs - mom.mean_i) / math.sqrt(mom.var_i)
    if alternative == "greater":
        p = float(stats.norm.sf(i_std))
    else:
        p = float(2.0 * stats.norm.sf(abs(i_std)))
    return float(i_std), p


def _check_cfg(cfg):
    if not isinstance(cfg.m, int) or cfg.m < 1:
        raise InputError(f"m must be a positive integer, got {cfg.m!r}")
    _check_seed(cfg.seed)
    if cfg.alternative not in ("greater", "two-sided"):
        raise InputError(
            f"alternative must be 'greater' or 'two-sided', got {cfg.alternative!r}"
        )
    if cfg.threads is not None and (not isinstance(cfg.threads, int) or cfg.threads < 1):
        raise InputError(f"threads must be None or a positive integer, got {cfg.threads!r}")


def _validate(y, w):
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InputError(f"y must be 1-D, got shape {y.shape}")
    n = y.shape[0]
    if n < 2:
        raise InputError(f"need at least 2 nodes, got n={n}")
    if not np.all(np.isfinite(y)):
        bad = np.flatnonzero(~np.isfinite(y))
        raise InputError(f"y has non-finite values at positions {bad.tolist()}")
    is_sparse = sparse.issparse(w)
    w = sparse.csr_array(w, dtype=float) if is_sparse else np.asarray(w, dtype=float)
    if w.shape != (n, n):
        raise InputError(f"w must be {n}x{n} to match y, got shape {w.shape}")
    if is_sparse:
        # Duplicate stored entries add up, as in the dense matrix they stand for.
        if not w.has_canonical_format:
            w = w.copy()
            w.sum_duplicates()
        entries, diag = w.data, w.diagonal()
    else:
        entries, diag = w, np.diagonal(w)
    if not np.all(np.isfinite(entries)):
        raise InputError("w has non-finite entries")
    if (entries < 0).any():
        raise InputError("w has negative entries")
    if diag.any():
        raise InputError("w must have a zero diagonal")
    if not (entries > 0).any():
        raise DegenerateStatisticError("all weights are zero (no ties between nodes)")
    d = y - y.mean()
    ss = float(d @ d)
    if ss == 0.0:
        raise DegenerateStatisticError("zero-variance values: statistic undefined")
    return y, w, d, ss, float(w.sum())
