"""Reference implementations the tests compare the package against.

Each is written from its definition, on dense arrays or plain Python
loops, and shares no code with the package path it checks.
"""

import itertools

import numpy as np
from scipy import sparse

from netacorr import InputError, adjacency_weights


def transmission_matrix(net, a):
    """The one-step transmission matrix T = (1 - a) I + a P as a dense n x n
    array: row i holds a / deg_i on each neighbour of i and 1 - a on the
    diagonal; a node with no neighbours keeps its value (1 on the diagonal)."""
    adj = adjacency_weights(net)
    deg = adj.sum(axis=1)
    t = adj * (a / np.maximum(deg, 1.0))[:, None]
    np.fill_diagonal(t, np.where(deg > 0, 1.0 - a, 1.0))
    return t


def enumerate_null(y, w):
    """Moran's I over all n! relabellings of y, for n <= 8.

    Each relabelling x of the centred values d = y - mean(y) scores the
    textbook I = (n / S0) x'Wx / d'd on a dense W, with S0 the sum of W.
    Returns (mean, population variance, values), the values in
    itertools.permutations order, so the first one is y's own I.
    """
    w = w.toarray() if sparse.issparse(w) else np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    assert n <= 8, f"enumeration is factorial; n={n} is above 8"
    d = y - y.mean()
    x = d[np.array(list(itertools.permutations(range(n))))]
    vals = n * ((x @ w) * x).sum(axis=1) / (w.sum() * (d @ d))
    return float(vals.mean()), float(vals.var()), vals


def network_edges(n, edges):
    """The sorted edges Network(n, edges) holds, or the InputError it raises.

    This is the per-edge loop the constructor ran before it checked in bulk,
    widened to the forms it now reads: an item must be a tuple, list or array
    row of two integers (int or numpy integer) within the intp range, and an
    item that is not is refused as it is read. Then the first self-loop,
    endpoint out of range, pair not in (min, max) order or repeat is named.
    """
    seen = set()
    for i, j in _read(n, edges):
        _check(n, i, j, seen)
    return tuple(sorted(seen))


def from_edges_edges(n, edges):
    """The sorted edges Network.from_edges(n, edges) holds, or the InputError
    it raises: each item read as for Network, canonicalised into a set, and
    the sorted set checked as a Network's edges."""
    return network_edges(n, sorted({(min(p), max(p)) for p in _read(n, edges)}))


def _read(n, edges):
    pairs = []
    for e in edges:
        if not (isinstance(e, (tuple, list, np.ndarray)) and len(e) == 2):
            raise InputError(f"edge {e!r} is not a pair")
        if not all(isinstance(v, (int, np.integer)) for v in e):
            raise InputError(f"edge {e!r} has non-integer endpoints")
        i, j = (int(v) for v in e)
        if max(abs(i), abs(j)) > np.iinfo(np.intp).max:
            _check(n, i, j, set())
        pairs.append((i, j))
    return pairs


def _check(n, i, j, seen):
    if i == j:
        raise InputError(f"self-loop at node {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise InputError(f"edge {(i, j)!r} out of range for n={n}")
    if i > j:
        raise InputError(f"edge {(i, j)!r} not in (min, max) order")
    if (i, j) in seen:
        raise InputError(f"duplicate edge {(i, j)!r}")
    seen.add((i, j))
