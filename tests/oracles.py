"""Reference implementations the tests compare the package against.

Each is written from its formula on dense arrays and shares no code with
the package path it checks.
"""

import itertools

import numpy as np
from scipy import sparse

from netacorr import adjacency_weights


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
