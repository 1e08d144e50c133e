"""Moran/Geary network dependence statistics and randomization tests.

All statistics take a 1-D value array ``y`` and a non-negative weight
matrix ``w`` with zero diagonal. ``w`` may be asymmetric; the weight total
S0 = sum_ij (w_ij + w_ji) / 2 and the moment sums below handle that case.
``w`` may be an array-like or a scipy sparse matrix or array; a sparse ``w``
is converted once to CSR and stays sparse, so no n x n dense matrix is built.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import (DegenerateStatisticError, InputError, _check_y, _choice, _count,
                     _float_array, _scaled, _unscaled)

__all__ = [
    "NullMoments",
    "MoranResult",
    "PermutationConfig",
    "morans_i",
    "gearys_c",
    "null_moments",
    "permutation_test",
    "normal_test",
]

_SMALL_N_NORMAL = 30
_CHUNK = 512
_BLOCK = 64
_ALTERNATIVES = ("greater", "two-sided")


@dataclass(frozen=True)
class NullMoments:
    """Moments of Moran's I under random relabelling, plus the weight sums.

    The moments are read from w scaled by a power of two (_check_w). The
    sums are the nearest floats to the exact ones: inf above the float range,
    0 or subnormal below it, which s1 and s2, of degree 2 in w, reach long
    before w does.
    """

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
    0 in that case. s0 is the nearest float to the exact weight total.
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
    w, d, ss, s0, _ = _validate(y, w)
    return float(_moran_rows(d[None], w, s0, ss)[0])


def gearys_c(y, w):
    """Geary's c statistic.

    c = (n - 1) * [sum_ij w_ij (y_i - y_j)^2] / (2 * S0 * sum_i (y_i - ybar)^2)

    Values below 1 indicate positive dependence. Same input contract as
    :func:`morans_i`.
    """
    w, d, ss, s0, _ = _validate(y, w)
    if sparse.issparse(w):
        c = w.tocoo()
        num = float((c.data * (d[c.row] - d[c.col]) ** 2).sum())
    else:
        # squared and weighted in place: one n x n temporary beside w
        diff2 = np.subtract.outer(d, d)
        diff2 *= diff2
        diff2 *= w
        num = float(diff2.sum())
    return float((len(d) - 1) * num / (2.0 * s0 * ss))


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
    w, d, ss, s0, e = _validate(y, w)
    if len(d) < 4:
        raise InputError(f"null moments need n >= 4, got n={len(d)}")
    return _moments(d, w, ss, s0, e)


def _moments(d, w, ss, s0, e):
    """Randomization moments of I for validated centred values d (n >= 4).

    w, s0 and e come from _check_w, whose scale keeps the sums read from
    t = w + w' in the float range for any finite w. var_i is of degree 0 in
    S0, S1 and S2, so the scale moves no moment; the sums are reported scaled
    back. The expressions serve dense and sparse w alike: for a scipy sparse
    array ``*`` is element-wise and the axis sum is a 1-D array.
    """
    n = len(d)
    t = w + w.T
    # the scaled S0, S2 and, squaring t in place (one n x n temporary), S1
    t0 = float(t.sum()) / 2.0
    t2 = float((t.sum(axis=1) ** 2).sum())
    t *= t
    t1 = float(t.sum()) / 2.0
    b2 = float(n * (d**4).sum() / ss**2)
    mean_i = -1.0 / (n - 1)
    num = n * ((n * n - 3 * n + 3) * t1 - n * t2 + 3 * t0 * t0) - b2 * (
        (n * n - n) * t1 - 2 * n * t2 + 6 * t0 * t0
    )
    den = (n - 1) * (n - 2) * (n - 3) * t0 * t0
    var_i = num / den - mean_i * mean_i
    return NullMoments(mean_i=mean_i, var_i=float(var_i), s0=_unscaled(s0, e),
                       s1=_unscaled(t1, 2 * e), s2=_unscaled(t2, 2 * e), b2=b2)


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
    relabellings come in fixed 512-row chunks, one child stream each. For a
    sparse w the chunks are scored on up to four of the process's cores at
    once, 64 rows in flight across them; a dense w, whose product already
    runs on the BLAS threads, is scored one chunk after another, 64 rows at
    a time. The counts are integer sums over chunks, so p_perm does not
    depend on the number of cores.
    """
    if cfg is None:
        cfg = PermutationConfig()
    m, seed = _count("m", cfg.m, 1), _count("seed", cfg.seed, 0)
    alternative = _choice("alternative", cfg.alternative, _ALTERNATIVES)
    res, w, d, ss, s0 = _observed(y, w, alternative)
    two_sided = alternative == "two-sided"
    [hi], [lo] = _exceedances([(d, ss, res.i_stat)], w, s0, m, seed, m, two_sided)
    p_perm = (1.0 + hi) / (m + 1.0)
    if two_sided:
        p_perm = min(1.0, 2.0 * min(p_perm, (1.0 + lo) / (m + 1.0)))
    return replace(res, p_perm=float(p_perm), m_used=m)


def _rejects(ys, w, s0, m, seed, alpha):
    """Per y in ys, 1.0 where the upper-tail permutation_test with this m
    and seed has p_perm <= alpha, else 0.0; w and s0 come from _check_w.
    An array given more than once is scored once.

    A test rejects when its exceedance count stays at or below cap, the
    largest h with (1 + h) / (m + 1) <= alpha in float arithmetic. Its
    draws stop once the count passes cap (the stop rule of Besag and
    Clifford, 1991, used only where the bit is fixed).
    """
    unique = list({id(y): y for y in ys}.values())
    vectors = [_centre(_check_y(y)) for y in unique]
    # int(alpha * (m + 1)) is never below cap: rounding moves it by far less
    # than the 1 / (m + 1) between neighbouring p-values.
    cap = int(alpha * (m + 1.0))
    while cap >= 0 and not (1.0 + cap) / (m + 1.0) <= alpha:
        cap -= 1
    if cap < 0:
        return [0.0] * len(ys)
    hi, _ = _exceedances([(d, ss, _moran_rows(d[None], w, s0, ss)[0]) for d, ss in vectors],
                         w, s0, m, seed, cap)
    bits = {id(y): float(h <= cap) for y, h in zip(unique, hi)}
    return [bits[id(y)] for y in ys]


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
    _check_w's scale, max w in [1/2, 1), keeps every sum finite and s0 >=
    1/2, so underflow adds at most about n^2 2^-1074 to q, far inside that.
    The bound holds for any block width, so it also absorbs the summation
    order of a narrower block.

    The vectors share the stream: each block is drawn once and scored for
    every vector whose hi is still at most cap, as alone. Worker k of the
    W = _workers scores chunks k, k + W, k + 2W, ... in blocks of
    _BLOCK // W rows, so _BLOCK rows are in flight at any width, and keeps
    its own counts; it stops scoring a vector once its own hi passes cap,
    and stops drawing when none is left. The counts are summed when every
    worker is done. A worker's hi is a lower bound of the total, so a
    vector that a worker closes has a total above cap, and one that no
    worker closes is counted in full. So whether hi <= cap, and with
    cap = m, which closes nothing, every count, does not depend on W: the
    stop rule of Besag and Clifford (1991) needs no other worker's count.
    """
    n = len(vectors[0][0])
    ties = [4.0 * n * n * np.finfo(float).eps / ss for _, ss, _ in vectors]
    chunks = _chunks(m, seed)
    workers = _workers(w, len(chunks))
    rows = _BLOCK // workers

    def score(k):
        # One identity tile and one gather buffer per worker, kept for the
        # whole test: fresh 4 MB blocks per step took 64k instead of 2k minor
        # page faults per test at n=8000 (m=2000), and 20-30% longer, as the
        # allocator gave them back and faulted them in again.
        tile, gathered = np.empty((rows, n), dtype=np.intp), np.empty(n * rows)
        hi, lo = [0] * len(vectors), [0] * len(vectors)
        open_ = list(range(len(vectors)))
        for chunk in chunks[k::workers]:
            for perms in _relabellings(n, *chunk, tile):
                # C-ordered (n, rows): _moran_rows scores its transpose uncopied
                x = gathered[:perms.size].reshape(n, len(perms))
                for j in open_:
                    d, ss, i_obs = vectors[j]
                    vals = _moran_rows(np.take(d, perms.T, out=x, mode="clip").T, w, s0, ss)
                    hi[j] += int((vals >= i_obs - ties[j]).sum())
                    if lower:
                        lo[j] += int((vals <= i_obs + ties[j]).sum())
                open_ = [j for j in open_ if hi[j] <= cap]
                if not open_:
                    return hi, lo
        return hi, lo

    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        hi, lo = zip(*(pool.map if pool else map)(score, range(workers)))
    return [sum(c) for c in zip(*hi)], [sum(c) for c in zip(*lo)]


def _workers(w, chunks):
    """Threads that score the chunks of a test: one for a dense w, whose
    product already runs on the BLAS threads (on 2 cores two workers made a
    dense test with m = 2000 slower: 17 -> 20-35 ms at n = 300, 98-109 ->
    118-138 ms at n = 1000), else one per usable core, at most one per chunk
    and at most four, so a worker's block keeps at least 16 rows. Both hot
    calls, ``rng.permuted`` and the CSR product, release the GIL."""
    if not sparse.issparse(w):
        return 1
    return min(_cores(), chunks, _BLOCK // 16)


def _cores():
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(m, seed):
    """(size, stream) of each chunk of the m relabellings of seed: fixed
    _CHUNK-row chunks, the last one shorter, one SeedSequence child each."""
    sizes = [_CHUNK] * (m // _CHUNK) + [m % _CHUNK] * bool(m % _CHUNK)
    return list(zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))))


def _relabellings(n, size, stream, tile):
    """The size relabellings of range(n) of one chunk, drawn from its
    stream into tile, an (rows, n) index buffer, as blocks of up to rows
    rows; each block is a view of tile, valid until the next one is drawn.

    ``rng.permuted`` shuffles one row after another, so a chunk drawn in
    blocks holds the same rows as a chunk drawn at once, for any block
    size; the block size sets only the working set of a step, which stays
    in cache where a whole chunk at n=8000 (32 MB) does not.
    """
    rng, identity = np.random.default_rng(stream), np.arange(n)
    for start in range(0, size, len(tile)):
        block = tile[:size - start]
        block[:] = identity
        yield rng.permuted(block, axis=1, out=block)


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
    """(result, w, d, ss, s0): the MoranResult of the observed I without
    p_perm, then w and s0 of _check_w around the centred values and ss.

    The moments are filled when n >= 4, and i_std and p_normal when the null
    variance is also positive and finite; for n < 30 a UserWarning then
    points at the caller of the public test.
    """
    w, d, ss, s0, e = _validate(y, w)
    n = len(d)
    i_obs = float(_moran_rows(d[None], w, s0, ss)[0])
    mom = _moments(d, w, ss, s0, e) if n >= 4 else None
    i_std = p_normal = None
    if mom is not None and 0 < mom.var_i < math.inf:
        if n < _SMALL_N_NORMAL:
            warnings.warn(f"normal approximation for Moran's I is unreliable at n={n} < "
                          f"{_SMALL_N_NORMAL}; prefer the permutation p-value",
                          UserWarning, stacklevel=3)
        i_std = (i_obs - mom.mean_i) / math.sqrt(mom.var_i)
        z = i_std if alternative == "greater" else abs(i_std)
        tail = 0.5 * math.erfc(z / math.sqrt(2.0))
        p_normal = float(tail if alternative == "greater" else 2.0 * tail)
    return MoranResult(
        i_stat=i_obs, n=n, s0=_unscaled(s0, e), moments=mom, i_std=i_std,
        p_normal=p_normal, p_perm=None, m_used=0, alternative=alternative,
    ), w, d, ss, s0


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
    wx = w @ x
    wx *= x
    return n * wx.sum(axis=0) / (s0 * ss)


def _validate(y, w):
    """Checked inputs of a statistic: (w, d, ss, s0, e) of _check_w and _centre.

    The checks run in a fixed order, y's shape and values, then w, then the
    spread of y, so an input with several faults always names the same one.
    """
    y = _check_y(y)
    w, s0, e = _check_w(w, len(y))
    d, ss = _centre(y)
    return w, d, ss, s0, e


def _check_w(w, n):
    """(w * 2^-e, its total S0, e), w a float array or canonical CSR array:
    the one copy of w, scaled by _scaled, that the statistic, Geary's c and
    the moments read. For a sparse w only the nnz-sized data is copied."""
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
    entries, e = _scaled(entries)
    w = sparse.csr_array((entries, w.indices, w.indptr), shape=w.shape) if is_sparse else entries
    return w, float(w.sum()), e


def _centre(y):
    """Centred values d of a checked y and their sum of squares ss.

    y is scaled by a power of two before centring, so its mean cannot
    overflow, and d again after, so max |d| lies in [1/2, 1): then ss, d'wd
    and the sum of d^4 can neither overflow nor go subnormal for any finite
    y. A power-of-two scale is exact, and every statistic and moment is of
    degree 0 in d, so the scale moves no result.
    """
    y, _ = _scaled(y)
    d, _ = _scaled(y - y.mean())
    # numpy's sum, not the BLAS dot d @ d, whose order of summation and so
    # last bit depend on the BLAS thread count
    ss = float(np.sum(d * d))
    if ss == 0.0:
        raise DegenerateStatisticError("zero-variance values: statistic undefined")
    return d, ss
