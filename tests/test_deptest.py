"""Statistic oracles, randomization moments, and the permutation engine."""

import dataclasses
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse, stats

from netacorr import (
    DegenerateStatisticError,
    InputError,
    Network,
    PermutationConfig,
    adjacency_weights,
    gearys_c,
    generate_random_network,
    geodesic_distances,
    inverse_geodesic_weights,
    morans_i,
    normal_test,
    null_moments,
    permutation_test,
)
from netacorr import deptest

from conftest import random_network
from oracles import enumerate_null


def _adj(n, edges):
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0
    return w


def _complete(n):
    w = np.ones((n, n)) - np.eye(n)
    return w


# ---------------------------------------------------------------------------
# hand-computed oracles
# ---------------------------------------------------------------------------

def test_morans_i_path4_oracle():
    # d = (-1.5, -0.5, 0.5, 1.5); cross sum 2*(0.75 - 0.25 + 0.75) = 2.5
    # I = 4 * 2.5 / (6 * 5) = 1/3
    w = _adj(4, [(0, 1), (1, 2), (2, 3)])
    assert abs(morans_i([1, 2, 3, 4], w) - 1.0 / 3.0) < 1e-15


def test_gearys_c_path3_oracle():
    # contrasts (1-2)^2 and (2-3)^2 each counted twice: num = 4
    # c = 2 * 4 / (2 * 4 * 2) = 1/2
    w = _adj(3, [(0, 1), (1, 2)])
    assert abs(gearys_c([1, 2, 3], w) - 0.5) < 1e-15


def test_morans_i_path3_zero():
    w = _adj(3, [(0, 1), (1, 2)])
    assert abs(morans_i([1, 2, 3], w)) < 1e-15


def test_complete_graph_collapses_to_constants():
    rng = np.random.default_rng(0)
    for n in (3, 5, 8):
        w = _complete(n)
        for _ in range(5):
            y = rng.standard_normal(n)
            assert abs(morans_i(y, w) - (-1.0 / (n - 1))) < 1e-12
            assert abs(gearys_c(y, w) - 1.0) < 1e-12


def test_statistics_reject_bad_input():
    w = _adj(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        morans_i([1.0, 2.0], w)  # length mismatch
    with pytest.raises(InputError):
        morans_i([1.0, np.nan, 2.0], w)
    with pytest.raises(InputError):
        morans_i([1.0, 2.0, 3.0], np.ones((2, 3)))
    with pytest.raises(InputError):
        morans_i([1, 2, 3], w - 0.5)  # negative weights
    with pytest.raises(InputError):
        morans_i([1, 2, 3], w + np.eye(3))  # nonzero diagonal
    with pytest.raises(DegenerateStatisticError):
        morans_i([2.0, 2.0, 2.0], w)  # constant values
    with pytest.raises(DegenerateStatisticError):
        morans_i([1, 2, 3], np.zeros((3, 3)))  # no ties at all


# ---------------------------------------------------------------------------
# randomization moments vs brute-force enumeration
# ---------------------------------------------------------------------------

def test_moments_match_enumeration_on_path4():
    w = _adj(4, [(0, 1), (1, 2), (2, 3)])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    mom = null_moments(y, w)
    mean, var, vals = enumerate_null(y, w)
    assert len(vals) == math.factorial(4)
    assert abs(mom.mean_i - (-1.0 / 3.0)) < 1e-15
    assert abs(mom.mean_i - mean) < 1e-12
    assert abs(mom.var_i - var) < 1e-12


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8), is_sparse=st.booleans())
def test_moments_match_enumeration_random_cases(seed, n, is_sparse):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, p=0.5)
    w = net.adjacency if is_sparse else adjacency_weights(net)
    y = rng.standard_normal(n)
    mom = null_moments(y, w)
    mean, var, _ = enumerate_null(y, w)
    assert abs(mom.mean_i - mean) < 1e-10
    assert abs(mom.var_i - var) < 1e-10


def test_enumeration_is_independent_of_library_order():
    # recompute the full null in test code, one permutation at a time
    w = _adj(4, [(0, 1), (1, 2), (0, 3)])
    y = np.array([0.3, -1.1, 0.7, 2.0])
    vals = [morans_i(y[list(p)], w) for p in itertools.permutations(range(4))]
    mean, var, lib_vals = enumerate_null(y, w)
    assert abs(mean - np.mean(vals)) < 1e-12
    assert abs(var - np.var(vals)) < 1e-12
    np.testing.assert_allclose(np.sort(lib_vals), np.sort(vals), atol=1e-12)


def test_moments_require_n_at_least_4():
    w = _adj(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        null_moments([1.0, 2.0, 3.0], w)


def test_moments_weight_sums_on_path4():
    w = _adj(4, [(0, 1), (1, 2), (2, 3)])
    mom = null_moments([1.0, 2.0, 3.0, 4.0], w)
    assert mom.s0 == 6.0
    assert mom.s1 == 12.0  # six ordered ties, each (w+w')^2 = 4
    assert mom.s2 == np.array([4.0, 16.0, 16.0, 4.0]).sum()


# ---------------------------------------------------------------------------
# permutation engine
# ---------------------------------------------------------------------------

def test_permutation_stream_is_replicable_single_chunk():
    rng = np.random.default_rng(5)
    net = random_network(rng, 25, p=0.2)
    w = adjacency_weights(net)
    y = rng.standard_normal(25)
    cfg = PermutationConfig(m=137, seed=9)
    with pytest.warns(UserWarning):
        res = permutation_test(y, w, cfg)

    d = y - y.mean()
    ss = float(d @ d)
    s0 = float(w.sum())
    i_obs = 25 * (d @ w @ d) / (s0 * ss)
    child = np.random.SeedSequence(9).spawn(1)[0]
    gen = np.random.default_rng(child)
    perms = gen.permuted(np.tile(np.arange(25), (137, 1)), axis=1)
    dp = d[perms]
    vals = 25 * ((dp @ w) * dp).sum(axis=1) / (s0 * ss)
    hi = int((vals >= i_obs).sum())
    assert res.p_perm == (1 + hi) / (137 + 1)
    assert res.i_stat == i_obs
    assert res.m_used == 137


def test_permutation_stream_is_replicable_across_chunks():
    # m = 1030 splits into chunks of 512, 512, 6 with one spawned child each
    rng = np.random.default_rng(17)
    net = random_network(rng, 40, p=0.12)
    w = adjacency_weights(net)
    y = rng.standard_normal(40)
    res = permutation_test(y, w, PermutationConfig(m=1030, seed=4))

    d = y - y.mean()
    ss = float(d @ d)
    s0 = float(w.sum())
    i_obs = 40 * (d @ w @ d) / (s0 * ss)
    hi = 0
    children = np.random.SeedSequence(4).spawn(3)
    for size, child in zip((512, 512, 6), children):
        gen = np.random.default_rng(child)
        perms = gen.permuted(np.tile(np.arange(40), (size, 1)), axis=1)
        dp = d[perms]
        vals = 40 * ((dp @ w) * dp).sum(axis=1) / (s0 * ss)
        hi += int((vals >= i_obs).sum())
    assert res.p_perm == (1 + hi) / (1030 + 1)


def _draws(n, m, seed):
    """The relabelling blocks of a seeded test, as one worker draws them;
    each block is valid until the next one is drawn."""
    tile = np.empty((deptest._BLOCK, n), dtype=np.intp)
    for chunk in deptest._chunks(m, seed):
        yield from deptest._relabellings(n, *chunk, tile)


def _null_stats(d, w, s0, ss, m, seed):
    """Moran's I of every relabelling of a seeded test, as the library draws them."""
    return np.concatenate([deptest._moran_rows(d[perms], w, s0, ss)
                           for perms in _draws(len(d), m, seed)])


def _whole_chunks(d, m, seed):
    """The relabelled d of a seeded permutation test, one whole chunk at a time.

    Chunks of 512 rows (the last one shorter), one SeedSequence child each.
    """
    n = len(d)
    sizes = [512] * (m // 512) + [m % 512] * bool(m % 512)
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        gen = np.random.default_rng(child)
        yield d[gen.permuted(np.tile(np.arange(n), (size, 1)), axis=1)]


def test_sparse_permutation_stream_is_replicable_across_chunks():
    # the sparse kernel scores C-ordered column blocks; the statistics it
    # yields are those of the dense expression on whole 512-row chunks
    rng = np.random.default_rng(17)
    net = random_network(rng, 40, p=0.12)
    w = adjacency_weights(net)
    y = rng.standard_normal(40)
    res = permutation_test(y, net.adjacency, PermutationConfig(m=1030, seed=4))

    d = y - y.mean()
    ss = float(d @ d)
    s0 = float(w.sum())
    i_obs = 40 * (d @ w @ d) / (s0 * ss)
    dense = np.concatenate([40 * ((dp @ w) * dp).sum(axis=1) / (s0 * ss)
                            for dp in _whole_chunks(d, 1030, 4)])
    assert len(dense) == 1030
    assert res.p_perm == (1 + int((dense >= i_obs).sum())) / (1030 + 1)
    wv, d, ss, s0, _ = deptest._validate(y, net.adjacency)
    assert sparse.issparse(wv)
    drawn = _null_stats(d, wv, s0, ss, 1030, 4)
    np.testing.assert_allclose(drawn, dense, rtol=1e-12, atol=0)


def test_sparse_permutation_test_memory_stays_block_sized():
    # 64-row blocks bound the working set: on a 20000-node ring, 512-row
    # chunks peaked at 313 MB, 64-row blocks at 29 MB
    net = generate_random_network(20000, model="small-world", k=4, rewire_prob=0.0)
    y = np.random.default_rng(1).standard_normal(net.n)
    tracemalloc.start()
    try:
        res = permutation_test(y, net.adjacency, PermutationConfig(m=600, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.m_used == 600
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_permutation_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(8)
    net = random_network(rng, 35, p=0.15)
    w = adjacency_weights(net)
    y = rng.standard_normal(35)
    a = permutation_test(y, w, PermutationConfig(m=300, seed=11))
    b = permutation_test(y, w, PermutationConfig(m=300, seed=11))
    c = permutation_test(y, w, PermutationConfig(m=300, seed=12))
    assert a == b
    assert a.p_perm != c.p_perm or a.i_stat == c.i_stat  # stat never moves
    assert a.i_stat == c.i_stat


def test_complete_graph_p_value_is_exactly_one():
    # every relabelling gives I = -1/(n-1): all ties, p = (1+m)/(m+1)
    w = _complete(6)
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    res = permutation_test(y, w, PermutationConfig(m=250, seed=0))
    assert res.p_perm == 1.0
    assert res.i_std is None
    assert res.p_normal is None
    assert res.moments is not None and res.moments.var_i <= 1e-15


def test_two_sided_doubles_the_smaller_tail():
    rng = np.random.default_rng(31)
    net = random_network(rng, 30, p=0.15)
    w = adjacency_weights(net)
    y = rng.standard_normal(30)
    up = permutation_test(y, w, PermutationConfig(m=499, seed=6, alternative="greater"))
    two = permutation_test(y, w, PermutationConfig(m=499, seed=6, alternative="two-sided"))

    d = y - y.mean()
    ss = float(d @ d)
    s0 = float(w.sum())
    i_obs = 30 * (d @ w @ d) / (s0 * ss)
    gen = np.random.default_rng(np.random.SeedSequence(6).spawn(1)[0])
    perms = gen.permuted(np.tile(np.arange(30), (499, 1)), axis=1)
    dp = d[perms]
    vals = 30 * ((dp @ w) * dp).sum(axis=1) / (s0 * ss)
    p_up = (1 + (vals >= i_obs).sum()) / 500
    p_lo = (1 + (vals <= i_obs).sum()) / 500
    assert up.p_perm == p_up
    assert two.p_perm == min(1.0, 2.0 * min(p_up, p_lo))


def _exact_p(y, entries, m, seed, alternative):
    """p_perm of a test on integer y, counted from exact rational quadratic
    forms n^2 d'wd over the test's own relabellings; entries are the
    (i, j, w_ij) of w with w_ij a Fraction."""
    n = len(y)

    total = int(y.sum())

    def form(v):
        e = [n * int(a) - total for a in v]  # n d, in integers
        return sum(wij * e[i] * e[j] for i, j, wij in entries)

    obs = form(y)
    forms = [form(y[p]) for perms in _draws(n, m, seed) for p in perms]
    p_up = (1.0 + sum(f >= obs for f in forms)) / (m + 1.0)
    if alternative == "greater":
        return p_up
    return min(1.0, 2.0 * min(p_up, (1.0 + sum(f <= obs for f in forms)) / (m + 1.0)))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       kind=st.sampled_from(["random", "star", "complete"]),
       weights=st.sampled_from(["adjacency", "inverse-geodesic"]), is_sparse=st.booleans(),
       alternative=st.sampled_from(["greater", "two-sided"]), m=st.integers(1, 300))
@example(seed=0, n=5, kind="complete", weights="adjacency", is_sparse=False,
         alternative="greater", m=999)
@example(seed=190, n=7, kind="random", weights="inverse-geodesic", is_sparse=False,
         alternative="greater", m=84)
def test_ties_count_as_extreme_whatever_the_rounding(seed, n, kind, weights, is_sparse,
                                                     alternative, m):
    # Small integer y with a non-integer mean: the float sums are inexact, and
    # relabellings that tie the observed I in exact arithmetic must count.
    # The exact forms take the weights as the rationals 1 or 1/d they stand
    # for, of which the float weights are a rounding.
    rng = np.random.default_rng(seed)
    net = _network(kind, n, rng)
    y = rng.integers(0, 3, n)
    y[0] += y.sum() % n == 0
    if weights == "adjacency":
        w = adjacency_weights(net)
        entries = [(i, j, Fraction(1)) for i, j in zip(*np.nonzero(w))]
    else:
        w = inverse_geodesic_weights(net)
        dist = geodesic_distances(net)
        entries = [(i, j, Fraction(1, int(dist[i, j]))) for i, j in zip(*np.nonzero(w))]
    cfg = PermutationConfig(m=m, seed=seed, alternative=alternative)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = permutation_test(y, sparse.csr_array(w) if is_sparse else w, cfg)
    assert res.p_perm == _exact_p(y, entries, m, seed, alternative)


def test_small_n_permutation_has_no_normal_fields():
    w = _adj(3, [(0, 1), (1, 2)])
    res = permutation_test([0.4, -1.0, 0.9], w, PermutationConfig(m=50, seed=1))
    assert res.moments is None
    assert res.i_std is None
    assert res.p_normal is None
    assert 0.0 < res.p_perm <= 1.0


def test_config_validation():
    w = _adj(4, [(0, 1), (1, 2), (2, 3)])
    y = [0.1, 0.9, -0.3, 0.5]
    for cfg in (
        PermutationConfig(m=0),
        PermutationConfig(seed=-1),
        PermutationConfig(alternative="less"),
    ):
        with pytest.raises(InputError):
            permutation_test(y, w, cfg)


def test_detects_transmission_dependence(er_net):
    from netacorr import TransmissionConfig, direct_transmission

    w = adjacency_weights(er_net)
    y = direct_transmission(er_net, TransmissionConfig(a=0.5, sigma=0.5, kappa=3, seed=21))
    res = permutation_test(y, w, PermutationConfig(m=500, seed=0))
    assert res.p_perm == 1.0 / 501.0  # no permutation reaches the observed I
    assert res.i_std > 3.0


def _values(rng, w, kind):
    """Node values for the early-stop properties, of one of three kinds."""
    n = w.shape[0]
    if kind == "integer":  # exact sums: relabellings that tie I tie it bitwise
        y = rng.integers(-3, 4, n).astype(float)
        y[-1] += -y.sum() % n
        y[0] += n * (np.ptp(y) == 0)
        return y
    y = rng.standard_normal(n)
    if kind == "smoothed":  # dependent values, so the test rejects often
        y = y + 2.0 * (w @ y)
    return y


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
       m=st.one_of(st.integers(1, 120), st.sampled_from([511, 512, 513, 1030, 1100])),
       level=st.sampled_from(["whole", "below-one-draw", "any"]),
       kinds=st.lists(st.sampled_from(["normal", "smoothed", "integer"]), min_size=1,
                      max_size=4),
       is_sparse=st.booleans(), data=st.data())
def test_early_stop_reject_bit_equals_full_test(seed, n, m, level, kinds, is_sparse, data):
    # 1-4 vectors tested on one shared stream: each bit is that of a full
    # permutation test of the vector alone
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, p=float(rng.uniform(0.1, 0.6)))
    w = net.adjacency if is_sparse else adjacency_weights(net)
    ys = [_values(rng, w, kind) for kind in kinds]
    if level == "whole":  # alpha * (m + 1) is a whole number
        alpha = data.draw(st.integers(0, m)) / (m + 1.0)
    elif level == "below-one-draw":  # cap < 0: p_perm >= 1/(m+1) > alpha
        alpha = data.draw(st.floats(0.0, 0.999)) / (m + 1.0)
    else:
        alpha = data.draw(st.floats(0.0, 1.0))
    pseed = data.draw(st.integers(0, 2**63 - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        full = [permutation_test(y, w, PermutationConfig(m=m, seed=pseed)).p_perm <= alpha
                for y in ys]
    wv, d, ss, s0, _ = deptest._validate(ys[0], w)
    assert deptest._rejects(ys, wv, s0, m, pseed, alpha) == full
    # rng.permuted draws a chunk row by row: 64-row blocks hold the same rows
    # as whole 512-row chunks scored at once
    chunks = np.concatenate([deptest._moran_rows(dp, wv, s0, ss)
                             for dp in _whole_chunks(d, m, pseed)])
    np.testing.assert_allclose(_null_stats(d, wv, s0, ss, m, pseed), chunks, rtol=1e-12)


def test_shared_stream_draws_once_and_scores_each_vector_as_alone(er_net, monkeypatch):
    # blocks drawn for k vectors = the largest single-vector count; rows
    # scored = the sum of the single-vector counts. One worker, so the
    # chunks run one after another in 64-row blocks.
    monkeypatch.setattr(deptest, "_cores", lambda: 1)
    counts = {"blocks": 0, "rows": 0}
    relabellings, moran_rows = deptest._relabellings, deptest._moran_rows

    def counted_relabellings(*args):
        for perms in relabellings(*args):
            counts["blocks"] += 1
            yield perms

    def counted_rows(dp, *args):
        counts["rows"] += len(dp)
        return moran_rows(dp, *args)

    monkeypatch.setattr(deptest, "_relabellings", counted_relabellings)
    monkeypatch.setattr(deptest, "_moran_rows", counted_rows)
    w = adjacency_weights(er_net)
    rng = np.random.default_rng(8)
    ys = [rng.standard_normal(er_net.n) for _ in range(3)]
    ys += [y + s * (w @ y) for y, s in zip(ys, (0.2, 2.0))]  # one weakly, one strongly dependent
    s0 = float(w.sum())
    m, seed, alpha = 1100, 3, 0.05

    def run(vs):
        counts.update(blocks=0, rows=0)
        bits = deptest._rejects(vs, w, s0, m, seed, alpha)
        return bits, counts["blocks"], counts["rows"]

    alone = [run([y]) for y in ys]
    assert len({blocks for _, blocks, _ in alone}) > 1  # some vectors close early
    assert {bits[0] for bits, _, _ in alone} == {0, 1}
    for k in range(1, len(ys) + 1):
        for picked in itertools.combinations(range(len(ys)), k):
            bits, blocks, rows = run([ys[j] for j in picked])
            assert bits == [alone[j][0][0] for j in picked]
            assert blocks == max(alone[j][1] for j in picked)
            assert rows == sum(alone[j][2] for j in picked)
    # an array given twice is scored once, and its bit copied
    bits, blocks, rows = run([ys[0], ys[4], ys[0]])
    assert bits == [alone[0][0][0], alone[4][0][0], alone[0][0][0]]
    assert rows == alone[0][2] + alone[4][2]


def test_p_perm_and_reject_bits_do_not_depend_on_the_worker_count(er_net, monkeypatch):
    # m = 1300 is three chunks, the last one 276 rows; on a sparse w they
    # are scored by W = 1, 2 or 3 workers in blocks of 64 // W rows
    drawn = []
    relabellings = deptest._relabellings

    def recorded(n, size, stream, tile):
        drawn.append((len(tile), threading.current_thread() is threading.main_thread()))
        yield from relabellings(n, size, stream, tile)

    monkeypatch.setattr(deptest, "_relabellings", recorded)
    w = er_net.adjacency
    rng = np.random.default_rng(21)
    ys = [rng.standard_normal(er_net.n) for _ in range(3)]
    ys += [y + s * (w @ y) for y, s in zip(ys, (0.15, 2.0))]
    wv, _, _, s0, _ = deptest._validate(ys[0], w)
    m, seed = 1300, 9
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(deptest, "_cores", lambda: workers)
            drawn.clear()
            p_perm = [permutation_test(y, w, PermutationConfig(m=m, seed=seed, alternative=alt)
                                       ).p_perm for y in ys for alt in ("greater", "two-sided")]
            bits = [deptest._rejects(ys, wv, s0, m, seed, alpha) for alpha in (0.01, 0.05, 0.3)]
            assert set(drawn) == {(64 // workers, workers == 1)}
            runs[workers] = p_perm, bits
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[2] == runs[3]
    assert {b for bits in runs[1][1] for b in bits} == {0.0, 1.0}
    # a dense w is scored by one worker in 64-row blocks, with three cores
    # still on offer
    drawn.clear()
    permutation_test(ys[0], adjacency_weights(er_net), PermutationConfig(m=m, seed=seed))
    assert set(drawn) == {(64, True)} and len(drawn) == 3


def test_each_worker_stops_on_its_own_count_and_the_counts_are_summed(er_net, monkeypatch):
    # m = 1300 on two workers: worker 0 scores chunks 0 and 2 (512 + 276
    # rows), worker 1 chunk 1 (512 rows)
    m, seed, shares = 1300, 9, {0: 788, 1: 512}
    w = er_net.adjacency
    y = np.random.default_rng(30).standard_normal(er_net.n)
    wv, d, ss, s0, _ = deptest._validate(y, w)
    i_obs = deptest._moran_rows(d[None], wv, s0, ss)[0]
    tie = 4.0 * er_net.n ** 2 * np.finfo(float).eps / ss
    exceeds = _null_stats(d, wv, s0, ss, m, seed) >= i_obs - tie
    own = [int(exceeds[:512].sum() + exceeds[1024:].sum()), int(exceeds[512:1024].sum())]
    assert min(own) > 0  # so max(own) < sum(own)
    monkeypatch.setattr(deptest, "_cores", lambda: 2)
    drawn = dict.fromkeys(shares, 0)
    relabellings = deptest._relabellings

    def recorded(n, size, stream, tile):
        for perms in relabellings(n, size, stream, tile):
            drawn[stream.spawn_key[-1] % 2] += len(perms)
            yield perms

    monkeypatch.setattr(deptest, "_relabellings", recorded)

    def rows_drawn(cap):
        # the full test does not reject at this cap's alpha, nor may _rejects
        alpha = (1.0 + cap) / (m + 1.0)
        assert permutation_test(y, w, PermutationConfig(m=m, seed=seed)).p_perm > alpha
        drawn.update(dict.fromkeys(shares, 0))
        assert deptest._rejects([y], wv, s0, m, seed, alpha) == [0.0]
        return dict(drawn)

    # neither worker's count passes max(own), only their sum does
    assert rows_drawn(max(own)) == shares
    # each worker's count passes 64 early in its share
    assert all(rows < shares[k] for k, rows in rows_drawn(64).items())


def test_early_stop_cap_is_the_float_boundary(monkeypatch):
    # every exceedance count h for every m <= 120, with alpha at the add-one
    # p-value (1 + h) / (m + 1) and one ulp below it; a closed form for cap
    # such as int(alpha * (m + 1)) - 1 gets some of these wrong
    case = {}
    monkeypatch.setattr(deptest, "_exceedances", lambda *args: ([case["h"]], [0]))
    y, w = np.array([-1.0, 0.0, 1.0]), _adj(3, [(0, 1), (1, 2)])
    for m in range(1, 121):
        for h in range(m + 1):
            case.update(m=m, h=h)
            p = (1.0 + h) / (m + 1.0)
            for alpha in (p, np.nextafter(p, 0.0)):
                assert deptest._rejects([y], w, 4.0, m, 0, alpha) == [p <= alpha], (m, h)


# ---------------------------------------------------------------------------
# normal approximation
# ---------------------------------------------------------------------------

def test_normal_test_matches_enumeration_standardization():
    rng = np.random.default_rng(44)
    net = random_network(rng, 7, p=0.45)
    w = adjacency_weights(net)
    y = rng.standard_normal(7)
    with pytest.warns(UserWarning, match="n=7"):
        res = normal_test(y, w)
    mean, var, _ = enumerate_null(y, w)
    expected = (res.i_stat - mean) / math.sqrt(var)
    assert abs(res.i_std - expected) < 1e-10
    assert abs(res.p_normal - stats.norm.sf(res.i_std)) < 1e-15
    assert res.p_perm is None
    assert res.m_used == 0


def test_normal_test_two_sided_tail():
    rng = np.random.default_rng(45)
    net = random_network(rng, 32, p=0.12)
    w = adjacency_weights(net)
    y = rng.standard_normal(32)
    one = normal_test(y, w, alternative="greater")
    two = normal_test(y, w, alternative="two-sided")
    assert abs(two.p_normal - 2.0 * stats.norm.sf(abs(one.i_std))) < 1e-15
    assert two.p_normal <= 1.0


_TAIL_NET = generate_random_network(40, model="erdos-renyi", p=0.12, seed=2)


@settings(deadline=None, max_examples=200)
@given(z=st.floats(-37.0, 37.0), alternative=st.sampled_from(["greater", "two-sided"]))
@example(z=-37.0, alternative="greater")
@example(z=37.0, alternative="two-sided")
def test_normal_tail_matches_scipy(z, alternative):
    # the tail comes from math.erfc; scipy.stats is the oracle. The null mean
    # is moved so that the observed I standardizes to about z.
    w = adjacency_weights(_TAIL_NET)
    y = np.random.default_rng(3).standard_normal(_TAIL_NET.n)
    moments = deptest._moments

    def shifted(*args):
        mom = moments(*args)
        return dataclasses.replace(mom, mean_i=morans_i(y, w) - z * math.sqrt(mom.var_i))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deptest, "_moments", shifted)
        res = normal_test(y, w, alternative=alternative)
    tail = stats.norm.sf(res.i_std if alternative == "greater" else abs(res.i_std))
    want = tail if alternative == "greater" else 2.0 * tail
    assert abs(res.i_std - z) <= 1e-9 * max(1.0, abs(z))
    assert abs(res.p_normal - want) <= 1e-12 * want


_W_SCALE_NET = generate_random_network(30, model="erdos-renyi", p=0.15, seed=4)


@settings(deadline=None, max_examples=60)
@given(k=st.integers(-1074, 1023), seed=st.integers(0, 2**32 - 1), sparse_w=st.booleans())
@example(k=-1074, seed=0, sparse_w=False)
@example(k=-1074, seed=0, sparse_w=True)
@example(k=1023, seed=0, sparse_w=False)
@example(k=1023, seed=0, sparse_w=True)
def test_power_of_two_scale_of_w_moves_no_moment(k, seed, sparse_w):
    # _check_w scales w by a power of two once, and the statistic, Geary's c
    # and the moments all read that copy, so w * 2^k gives the unscaled
    # results bit for bit over the whole float range: no s0 of inf at
    # k = 1023 and no subnormal products w x at k = -1074
    w = adjacency_weights(_W_SCALE_NET)
    y = np.random.default_rng(seed).standard_normal(_W_SCALE_NET.n)
    form = sparse.csr_array if sparse_w else np.asarray
    scaled, w = form(np.ldexp(w, k)), form(w)
    cfg = PermutationConfig(m=19, seed=seed)
    got, want = permutation_test(y, scaled, cfg), permutation_test(y, w, cfg)
    assert (got.i_stat, got.p_perm) == (want.i_stat, want.p_perm)
    assert (got.i_std, got.p_normal) == (want.i_std, want.p_normal)
    assert got.moments.var_i == want.moments.var_i
    assert gearys_c(y, scaled) == gearys_c(y, w)


@pytest.mark.parametrize("sparse_w", [False, True])
@pytest.mark.parametrize("c", [1e150, 1e154, 1e160, 1e-300, 1e306, 1e308, 1e-320])
def test_weights_far_from_one_give_the_unscaled_test(c, sparse_w):
    # until w was read scaled by a power of two, S1 and S2 of w * c overflowed
    # at 1e154 and underflowed at 1e-300, s0 * ss overflowed at 1e306 and s0
    # at 1e308, and the products w x went subnormal at 1e-320; c is no power
    # of two, so the results may move in their last bits
    w = adjacency_weights(_W_SCALE_NET)
    y = np.sin(np.arange(_W_SCALE_NET.n))
    cfg = PermutationConfig(m=99, seed=2)
    want, want_c = permutation_test(y, w, cfg), gearys_c(y, w)
    scaled = sparse.csr_array(c * w) if sparse_w else c * w
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, got_c = permutation_test(y, scaled, cfg), gearys_c(y, scaled)
    assert abs(got.i_stat - want.i_stat) <= 1e-14 * abs(want.i_stat)
    assert abs(got_c - want_c) <= 1e-14 * want_c
    assert abs(got.i_std - want.i_std) <= 1e-14 * abs(want.i_std)
    assert got.p_perm == want.p_perm
    assert abs(got.moments.var_i - want.moments.var_i) <= 1e-14 * want.moments.var_i
    assert abs(got.p_normal - want.p_normal) <= 1e-13 * want.p_normal
    assert got.s0 == (math.inf if c == 1e308 else float(scaled.sum()))


def test_weight_sums_beyond_the_float_range_are_reported_rounded():
    w = adjacency_weights(_W_SCALE_NET)
    y = np.sin(np.arange(_W_SCALE_NET.n))
    base = null_moments(y, w)
    for k, s0, s1, s2 in [
            (10, math.ldexp(base.s0, 10), math.ldexp(base.s1, 20), math.ldexp(base.s2, 20)),
            (600, math.ldexp(base.s0, 600), math.inf, math.inf),
            (-600, math.ldexp(base.s0, -600), 0.0, 0.0),
            (1023, math.inf, math.inf, math.inf),
            (-1074, math.ldexp(base.s0, -1074), 0.0, 0.0)]:
        mom = null_moments(y, np.ldexp(w, k))
        assert (mom.s0, mom.s1, mom.s2) == (s0, s1, s2)
        assert mom.var_i == base.var_i
        assert normal_test(y, np.ldexp(w, k)).s0 == s0


@pytest.mark.parametrize("statistic", [
    null_moments,
    lambda y, w: permutation_test(y, w, PermutationConfig(m=200)),
    gearys_c,
], ids=["null_moments", "permutation_test", "gearys_c"])
def test_dense_statistics_hold_two_weight_sized_temporaries(statistic):
    # the scaled copy of w is one of the two: the moments square w + w' in
    # place, and Geary's c its table of differences
    n = 400
    w = adjacency_weights(generate_random_network(n, model="erdos-renyi", seed=5))
    y = np.random.default_rng(6).standard_normal(n)
    tracemalloc.start()
    try:
        statistic(y, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * w.nbytes, f"peak {peak / w.nbytes:.2f} n x n arrays"


def test_normal_test_size_requirements():
    w = _adj(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        normal_test([1.0, 2.0, 3.0], w)

    rng = np.random.default_rng(46)
    net = random_network(rng, 30, p=0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normal_test(rng.standard_normal(30), adjacency_weights(net))  # no warning


@pytest.mark.parametrize("alternative", ["greater", "two-sided"])
@pytest.mark.parametrize("is_sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("n", [4, 9, 40])
def test_permutation_and_normal_test_agree_on_the_observed_fields(n, is_sparse, alternative):
    # both build the observed I and its normal approximation the same way
    rng = np.random.default_rng(n)
    net = random_network(rng, n, p=0.5)
    w = net.adjacency if is_sparse else adjacency_weights(net)
    y = rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        perm = permutation_test(y, w, PermutationConfig(m=19, alternative=alternative))
        norm = normal_test(y, w, alternative)
    assert norm.i_std is not None
    fields = ("i_stat", "moments", "i_std", "p_normal")
    assert [getattr(perm, f) for f in fields] == [getattr(norm, f) for f in fields]


def test_small_n_warning_names_the_callers_line():
    w, y = _adj(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), [1.0, 3.0, 2.0, 5.0, 4.0]
    with pytest.warns(UserWarning, match="n=5") as perm:
        permutation_test(y, w, PermutationConfig(m=9))
    perm_line = inspect.currentframe().f_lineno - 1
    with pytest.warns(UserWarning, match="n=5") as norm:
        normal_test(y, w)
    norm_line = inspect.currentframe().f_lineno - 1
    assert [(r.filename, r.lineno) for r in perm] == [(__file__, perm_line)]
    assert [(r.filename, r.lineno) for r in norm] == [(__file__, norm_line)]


def test_normal_test_calibrated_on_iid_data(er_net):
    w = adjacency_weights(er_net)
    gen = np.random.default_rng(np.random.SeedSequence((97, 0)))
    pvals = []
    for _ in range(500):
        res = normal_test(gen.standard_normal(200), w)
        pvals.append(res.p_normal)
    rej = np.mean(np.array(pvals) < 0.05)
    assert 0.03 <= rej <= 0.07
    assert stats.kstest(pvals, "uniform").pvalue > 0.01


def test_permutation_p_uniform_under_null():
    net = generate_random_network(60, model="erdos-renyi", p=0.08, seed=3)
    w = adjacency_weights(net)
    gen = np.random.default_rng(np.random.SeedSequence((98, 0)))
    pvals = []
    for i in range(500):
        res = permutation_test(gen.standard_normal(60), w,
                               PermutationConfig(m=199, seed=i))
        pvals.append(res.p_perm)
    assert stats.kstest(pvals, "uniform").pvalue > 0.01


# ---------------------------------------------------------------------------
# invariances (the acceptance suite runs these at scale; a sample here)
# ---------------------------------------------------------------------------

def test_affine_invariance_sample():
    rng = np.random.default_rng(71)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(10):
            n = int(rng.integers(12, 28))
            net = random_network(rng, n, p=0.2)
            w = adjacency_weights(net)
            y = rng.standard_normal(n)
            scale = float(rng.uniform(0.2, 5.0)) * (-1 if rng.random() < 0.5 else 1)
            shift = float(rng.normal(0, 10))
            assert abs(morans_i(y, w) - morans_i(scale * y + shift, w)) < 1e-12
            assert abs(gearys_c(y, w) - gearys_c(scale * y + shift, w)) < 1e-12


_SCALE_NET = generate_random_network(30, model="erdos-renyi", p=0.15, seed=1)


@settings(deadline=None, max_examples=60)
@given(k=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1), sparse_w=st.booleans())
@example(k=-1000, seed=0, sparse_w=False)
@example(k=1000, seed=0, sparse_w=True)
def test_power_of_two_scale_of_y_moves_no_result(k, seed, sparse_w):
    # _centre rescales y and d by powers of two, so y * 2^k gives the unscaled
    # statistics over the whole float range: no overflow at k = 1000 (d'd
    # near 1e602 before) and no subnormal sums at k = -1000
    w = adjacency_weights(_SCALE_NET)
    w = sparse.csr_array(w) if sparse_w else w
    y = np.random.default_rng(seed).standard_normal(_SCALE_NET.n)
    scaled = np.ldexp(y, k)
    cfg = PermutationConfig(m=99, seed=seed % 1000, alternative="two-sided")
    assert abs(morans_i(scaled, w) - morans_i(y, w)) < 1e-12
    assert abs(gearys_c(scaled, w) - gearys_c(y, w)) < 1e-12
    got, want = null_moments(scaled, w), null_moments(y, w)
    assert abs(got.var_i - want.var_i) < 1e-12 and abs(got.b2 - want.b2) < 1e-12
    assert permutation_test(scaled, w, cfg).p_perm == permutation_test(y, w, cfg).p_perm


def test_values_near_the_float_max_give_finite_statistics():
    # the mean of two values near 1.8e308 overflows unless y is scaled first
    w = adjacency_weights(_SCALE_NET)
    y = np.random.default_rng(8).standard_normal(_SCALE_NET.n)
    y[:2] = np.finfo(float).max, -np.finfo(float).max
    res = permutation_test(y, w, PermutationConfig(m=99))
    assert all(math.isfinite(v) for v in (res.i_stat, res.moments.var_i, res.p_normal))
    assert res.i_stat == morans_i(y / 2.0**1000, w)


def test_statistic_and_moments_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads, which moves the
    # last bit of d @ d on 100000 values between one thread and two
    code = ("import numpy as np; from scipy import sparse; from netacorr import deptest; "
            "n = 100000; y = np.random.default_rng(1).standard_normal(n); "
            "path = sparse.diags([np.ones(n - 1)] * 2, [-1, 1]); "
            "print(repr(deptest._centre(y)[1]), deptest.morans_i(y, path), "
            "deptest.null_moments(y, path))")
    src = os.path.dirname(os.path.dirname(deptest.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": t})
            for t in ("1", "2")]
    out = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert out[0] == out[1]


def test_weight_scale_invariance_sample():
    rng = np.random.default_rng(72)
    for _ in range(10):
        n = int(rng.integers(10, 25))
        net = random_network(rng, n, p=0.25)
        w = adjacency_weights(net)
        y = rng.standard_normal(n)
        c = float(rng.uniform(0.01, 40.0))
        assert abs(morans_i(y, w) - morans_i(y, c * w)) < 1e-12
        ma, mb = null_moments(y, w), null_moments(y, c * w)
        assert ma.mean_i == mb.mean_i
        assert abs(ma.var_i - mb.var_i) < 1e-12


def test_symmetrization_invariance_sample():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(8, 20))
        w = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(w, 0.0)
        y = rng.standard_normal(n)
        ws = (w + w.T) / 2.0
        assert abs(morans_i(y, w) - morans_i(y, ws)) < 1e-12
        ma, mb = null_moments(y, w), null_moments(y, ws)
        assert abs(ma.var_i - mb.var_i) < 1e-12
        assert abs(ma.s1 - mb.s1) < 1e-9
        assert abs(ma.s2 - mb.s2) < 1e-9


# ---------------------------------------------------------------------------
# sparse weights: same results and same errors as the dense matrix
# ---------------------------------------------------------------------------

def _sparse_forms(w):
    """Sparse twins of dense w: CSR; COO storing every entry as two halves
    (explicit zeros on the diagonal, duplicates); unsummed CSR storing every
    entry x as 2x and -x (negative stored entries that the duplicates cancel)."""
    n = w.shape[0]
    rows, cols = np.divmod(np.arange(2 * n * n) % (n * n), n)
    halves = np.tile(w.ravel() / 2.0, 2)
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    pairs = np.concatenate([2.0 * w.ravel(), -w.ravel()])
    unsummed = sparse.csr_array((pairs[order], cols[order], indptr), shape=(n, n))
    assert not unsummed.has_canonical_format
    return [sparse.csr_array(w), sparse.coo_matrix((halves, (rows, cols)), shape=(n, n)),
            unsummed]


def _sparse_agrees(y, w, same, exact):
    """Run every statistic on dense w and on each sparse twin; same(a, b)
    compares two floats.

    exact: the arithmetic is exact, so the whole result must match and the
    oracle's I of the identity relabelling must tie the observed I bitwise.
    p_perm is compared at every n: a relabelling that ties I counts in
    either layout.
    """
    n, m = len(y), 600
    dense = {
        "i": morans_i(y, w),
        "c": gearys_c(y, w),
        "mom": null_moments(y, w),
        "norm": normal_test(y, w),
        "perm": permutation_test(y, w, PermutationConfig(m=m, seed=3)),
        "enum": enumerate_null(y, w)[2][0] if n <= 7 else None,  # I of the identity
    }
    perm_fields = ["i_stat", "s0", "i_std", "p_normal", "p_perm"]
    for ws in _sparse_forms(w):
        before = ws.copy()
        assert same(morans_i(y, ws), dense["i"])
        assert same(gearys_c(y, ws), dense["c"])
        mom = null_moments(y, ws)
        for field in ("mean_i", "var_i", "s0", "s1", "s2", "b2"):
            assert same(getattr(mom, field), getattr(dense["mom"], field)), field
        norm = normal_test(y, ws)
        for field in ("i_stat", "i_std", "p_normal"):
            a, b = getattr(norm, field), getattr(dense["norm"], field)
            assert (a is None and b is None) or same(a, b), field
        run = permutation_test(y, ws, PermutationConfig(m=m, seed=3))
        for field in perm_fields:
            a, b = getattr(run, field), getattr(dense["perm"], field)
            assert (a is None and b is None) or same(a, b), field
        if dense["enum"] is not None:
            assert same(dense["enum"], run.i_stat)
        assert (ws != before).nnz == 0  # the caller's matrix is left alone
        if exact:
            assert run == dense["perm"]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30))
def test_sparse_weights_match_dense_asymmetric(seed, n):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 5.0, (n, n)) * (rng.random((n, n)) < 0.3)
    np.fill_diagonal(w, 0.0)
    w[0, 1] = 1.0
    y = rng.standard_normal(n)

    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _sparse_agrees(y, w, close, exact=False)


def _exact_y(rng, n):
    """Small integers with an integer mean and a spread: with 0/1 weights
    every sum of the statistics is exact."""
    y = rng.integers(-3, 4, n).astype(float)
    y[-1] += -y.sum() % n
    if np.ptp(y) == 0:
        y[0] += n
    return y


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30))
def test_sparse_weights_tie_dense_bitwise_when_exact(seed, n):
    # 0/1 weights and integer y with an integer mean keep every sum exact.
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, p=float(rng.uniform(0.1, 0.6)))
    y = _exact_y(rng, n)
    w = adjacency_weights(net)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _sparse_agrees(y, w, lambda a, b: a == b, exact=True)


def _network(kind, n, rng):
    if kind == "star":
        return Network(n, tuple((0, j) for j in range(1, n)))
    if kind == "complete":
        return Network(n, tuple(itertools.combinations(range(n), 2)))
    return random_network(rng, n, p=float(rng.uniform(0.05, 0.5)))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
       kind=st.sampled_from(["random", "star", "complete"]), m=st.integers(1, 600))
@example(seed=0, n=40, kind="star", m=600)
@example(seed=1, n=4, kind="complete", m=1)
def test_sparse_adjacency_scores_like_the_dense_one(seed, n, kind, m):
    # The studies test on net.adjacency. Exact sums keep the ties of a star
    # (n values of I) and of a complete graph (one value) ties under both
    # layouts, so the results match.
    rng = np.random.default_rng(seed)
    net = _network(kind, n, rng)
    y = _exact_y(rng, n)
    w = adjacency_weights(net)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for alternative in ("greater", "two-sided"):
            cfg = PermutationConfig(m=m, seed=seed, alternative=alternative)
            res = permutation_test(y, net.adjacency, cfg)
            assert res == permutation_test(y, w, cfg)
            assert 1.0 / (m + 1) <= res.p_perm <= 1.0
    # On real-valued y the kernels agree to 1e-12 of the sum of absolute
    # terms, for the adjacency and for an asymmetric w with random weights.
    asym = rng.uniform(0.1, 5.0, (n, n)) * (rng.random((n, n)) < 0.3)
    np.fill_diagonal(asym, 0.0)
    asym[0, 1] = 1.0
    d = rng.standard_normal(n)
    d -= d.mean()
    ss = float(d @ d)
    dp = d[rng.permuted(np.tile(np.arange(n), (64, 1)), axis=1)]
    for dense in (w, asym):
        s0 = float(dense.sum())
        sp, _, e = deptest._check_w(sparse.csr_array(dense), n)
        terms = n * ((np.abs(dp) @ dense) * np.abs(dp)).sum(axis=1) / (s0 * ss)
        scored = deptest._moran_rows(dp, sp, math.ldexp(s0, -e), ss)  # sp is scaled by 2^-e
        gap = np.abs(scored - deptest._moran_rows(dp, dense, s0, ss))
        assert np.all(gap <= 1e-12 * terms)


@pytest.mark.parametrize("bad, y, error", [
    (_adj(4, [(0, 1), (1, 2), (2, 3)]) - 0.5 * np.eye(4)[::-1], [1, 2, 3, 4], InputError),
    (np.where(np.eye(4)[::-1] > 0, np.nan, _adj(4, [(0, 1), (1, 2), (2, 3)])), [1, 2, 3, 4],
     InputError),
    (_adj(4, [(0, 1), (1, 2), (2, 3)]) + np.diag([0, 0, 2.0, 0]), [1, 2, 3, 4], InputError),
    (np.ones((2, 3)), [1, 2, 3, 4], InputError),
    (np.zeros((4, 4)), [1, 2, 3, 4], DegenerateStatisticError),
    # a fault of w is named before the zero spread of y
    (_adj(4, [(0, 1), (1, 2), (2, 3)]) - 0.5 * np.eye(4)[::-1], [2, 2, 2, 2], InputError),
], ids=["negative", "nan", "diagonal", "shape", "all-zero", "negative-flat-y"])
def test_sparse_weights_fail_like_dense(bad, y, error):
    r, c = np.indices(bad.shape).reshape(2, -1)  # COO twin stores zeros explicitly
    twins = [sparse.csr_array(bad), sparse.coo_matrix((bad[r, c], (r, c)), shape=bad.shape)]
    calls = [morans_i, gearys_c, null_moments, normal_test,
             lambda y, w: permutation_test(y, w, PermutationConfig(m=10))]
    for call in calls:
        with pytest.raises(error) as dense_exc:
            call(y, bad)
        for twin in twins:
            with pytest.raises(error, match=f"^{re.escape(str(dense_exc.value))}$"):
                call(y, twin)
