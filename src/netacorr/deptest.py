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
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Optional

import numpy as np
from scipy import sparse, stats

from .errors import (DegenerateStatisticError, InputError, _check_y, _choice, _count,
                     _float_array)

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
_BLOCK = 64
_ALTERNATIVES = ("greater", "two-sided")


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
    """

    m: int = 500
    seed: int = 0
    alternative: str = "greater"


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
    return float(_moran_rows(d[None], w, s0, ss)[0])


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
    vals = _moran_rows(dp, w, s0, ss)
    return float(vals.mean()), float(vals.var()), vals


def permutation_test(y, w, cfg=None):
    """Monte Carlo permutation test for positive network dependence.

    Draws cfg.m random relabellings of y, recomputes I for each, and
    reports the add-one tail probability

        p_perm = (1 + #{I* >= I_obs}) / (m + 1)

    where a relabelling that ties I_obs counts as extreme, whatever the
    rounding (see :func:`_exceedances`): on a complete graph every
    relabelling ties and p_perm is exactly 1 for any y. The normal
    approximation fields are filled whenever n >= 4; for n < 30 a
    UserWarning recommends the permutation p-value instead.

    Returns a :class:`MoranResult`. Reproducible for a fixed cfg.seed: the
    relabellings come in fixed 512-row chunks, one child stream each, and
    are scored 64 rows at a time.
    """
    if cfg is None:
        cfg = PermutationConfig()
    m, seed = _count("m", cfg.m, 1), _count("seed", cfg.seed, 0)
    alternative = _choice("alternative", cfg.alternative, _ALTERNATIVES)
    res, w, d, ss = _observed(y, w, alternative)
    two_sided = alternative == "two-sided"
    [hi], [lo] = _exceedances([(d, ss, res.i_stat)], w, res.s0, m, seed, m, two_sided)
    p_perm = (1.0 + hi) / (m + 1.0)
    if two_sided:
        p_perm = min(1.0, 2.0 * min(p_perm, (1.0 + lo) / (m + 1.0)))
    return replace(res, p_perm=float(p_perm), m_used=m)


def _rejects(ys, w, s0, m, seed, alpha):
    """Per y in ys, 1.0 where the upper-tail permutation_test with this m
    and seed has p_perm <= alpha, else 0.0; w and s0 come from _check_w.

    A test rejects when its exceedance count stays at or below cap, the
    largest h with (1 + h) / (m + 1) <= alpha in float arithmetic. Its
    draws stop once the count passes cap (the stop rule of Besag and
    Clifford, 1991, used only where the bit is fixed).
    """
    vectors = [_centre(_check_y(y)) for y in ys]
    # int(alpha * (m + 1)) is never below cap: rounding moves it by far less
    # than the 1 / (m + 1) between neighbouring p-values.
    cap = int(alpha * (m + 1.0))
    while cap >= 0 and not (1.0 + cap) / (m + 1.0) <= alpha:
        cap -= 1
    if cap < 0:
        return [0.0] * len(ys)
    hi, _ = _exceedances([(d, ss, _moran_rows(d[None], w, s0, ss)[0]) for d, ss in vectors],
                         w, s0, m, seed, cap)
    return [float(h <= cap) for h in hi]


def _exceedances(vectors, w, s0, m, seed, cap, lower=False):
    """(hi, lo): per (d, ss, i_obs) in vectors, the number of the m
    relabellings of seed with I* >= i_obs - tie and, if lower, with
    I* <= i_obs + tie, so ties count as extreme whatever the rounding.

    tie = 4 n^2 eps / ss bounds the gap between two computed I that are
    equal in exact arithmetic: _centre keeps |d_i| < 1 and _check_w w >= 0,
    so q = x'wx of any relabelling x is off by at most gamma_(2n+1) s0 in
    any summation order (u = eps / 2, gamma_k = k u / (1 - k u)), and
    I = n q / (s0 ss) adds two roundings of size u over a shared
    denominator; two equal I differ by at most about n (2n + 3) eps / ss.

    The vectors share the stream: each block is drawn once and scored for
    every vector whose hi is still at most cap, as alone, and the draws
    stop when none is.
    """
    n = len(vectors[0][0])
    hi, lo = [0] * len(vectors), [0] * len(vectors)
    live = range(len(vectors))
    for perms in _relabellings(n, m, seed):
        for j in live:
            d, ss, i_obs = vectors[j]
            tie = 4.0 * n * n * np.finfo(float).eps / ss
            vals = _moran_rows(d[perms], w, s0, ss)
            hi[j] += int((vals >= i_obs - tie).sum())
            if lower:
                lo[j] += int((vals <= i_obs + tie).sum())
        live = [j for j in live if hi[j] <= cap]
        if not live:
            break
    return hi, lo


def _relabellings(n, m, seed):
    """The m seeded relabellings of range(n), as index arrays of _BLOCK rows.

    The relabellings come in fixed 512-row chunks, one SeedSequence child
    stream per chunk. ``rng.permuted`` shuffles one row after another, so a
    chunk drawn in 64-row blocks holds the same rows as a chunk drawn at
    once; the block size sets only the working set of a step, which stays
    in cache where a whole chunk at n=8000 (32 MB) does not.
    """
    sizes = [_CHUNK] * (m // _CHUNK) + [m % _CHUNK] * bool(m % _CHUNK)
    for size, stream in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.default_rng(stream)
        for start in range(0, size, _BLOCK):
            # A fresh identity block each time: one tile kept for the whole
            # stream took 63k instead of 2.7k minor page faults per sparse
            # test at n=8000 (m=2000), and 30% longer, as the allocator
            # gave the freed 4 MB blocks back and faulted them in again.
            yield rng.permuted(np.tile(np.arange(n), (min(_BLOCK, size - start), 1)), axis=1)


def normal_test(y, w, alternative="greater"):
    """Dependence test from the randomization moments alone (no Monte Carlo).

    Standardizes I by the exact null moments and reads the tail off the
    normal distribution. Requires n >= 4; warns for n < 30 where the
    approximation is poor.
    """
    res, *_ = _observed(y, w, _choice("alternative", alternative, _ALTERNATIVES))
    if res.n < 4:
        raise InputError(f"normal test needs n >= 4, got n={res.n}")
    return res


def _observed(y, w, alternative):
    """(result, w, d, ss): the MoranResult of the observed I without p_perm,
    then the checked w and the centred values and their sum of squares.

    The moments are filled when n >= 4, and i_std and p_normal when the null
    variance is also positive and finite; for n < 30 a UserWarning then
    points at the caller of the public test.
    """
    y, w, d, ss, s0 = _validate(y, w)
    n = len(y)
    i_obs = float(_moran_rows(d[None], w, s0, ss)[0])
    mom = _moments(d, w, ss, s0) if n >= 4 else None
    i_std = p_normal = None
    if mom is not None and 0 < mom.var_i < math.inf:
        if n < _SMALL_N_NORMAL:
            warnings.warn(f"normal approximation for Moran's I is unreliable at n={n} < "
                          f"{_SMALL_N_NORMAL}; prefer the permutation p-value",
                          UserWarning, stacklevel=3)
        i_std = (i_obs - mom.mean_i) / math.sqrt(mom.var_i)
        tail = stats.norm.sf(i_std if alternative == "greater" else abs(i_std))
        p_normal = float(tail if alternative == "greater" else 2.0 * tail)
    return MoranResult(
        i_stat=i_obs, n=n, s0=s0, moments=mom, i_std=i_std, p_normal=p_normal,
        p_perm=None, m_used=0, alternative=alternative,
    ), w, d, ss


def _moran_rows(dp, w, s0, ss):
    """Moran's I of each row of dp, a stack of centred values: the observed
    d as one row, or a block of its relabellings.

    The one kernel for dense and sparse w: it scores a C-ordered (n, rows)
    copy x of dp as ``x' (w x)``, with no transposed product or ``w.T`` per
    call (for symmetric w, bit for bit ``x' w' x``).
    """
    n = dp.shape[1]
    x = np.ascontiguousarray(dp.T)
    # Free the row-major block before the product: holding it measured 40%
    # slower per sparse permutation_test call at n=8000.
    del dp
    return n * ((w @ x) * x).sum(axis=0) / (s0 * ss)


def _validate(y, w):
    """Checked inputs of a statistic: (y, w, d, ss, s0).

    The checks run in a fixed order, y's shape and values, then w, then the
    spread of y, so an input with several faults always names the same one.
    """
    y = _check_y(y)
    w, s0 = _check_w(w, len(y))
    d, ss = _centre(y)
    return y, w, d, ss, s0


def _check_w(w, n):
    """w as a float array or canonical CSR array, and its total S0."""
    is_sparse = sparse.issparse(w)
    if is_sparse and w.dtype.kind not in "biuf":
        raise InputError(f"w must be an array of real numbers, got dtype {w.dtype}")
    w = sparse.csr_array(w, dtype=float) if is_sparse else _float_array("w", w)
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
    return w, float(w.sum())


def _centre(y):
    """Centred values d of a checked y and their sum of squares ss.

    y is scaled by a power of two before centring, so its mean cannot
    overflow, and d again after, so max |d| lies in [1/2, 1): then ss, d'wd
    and the sum of d^4 can neither overflow nor go subnormal for any finite
    y. A power-of-two scale is exact, and every statistic and moment is of
    degree 0 in d, so the scale moves no result.
    """
    y = np.ldexp(y, -math.frexp(float(np.abs(y).max()))[1])
    d = y - y.mean()
    d = np.ldexp(d, -math.frexp(float(np.abs(d).max()))[1])
    ss = float(d @ d)
    if ss == 0.0:
        raise DegenerateStatisticError("zero-variance values: statistic undefined")
    return d, ss
