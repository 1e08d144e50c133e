"""Undirected graphs: edge-list IO, weights, geodesics, random generators.

Nodes are integer indices 0..n-1 internally. File IO maps string labels
to indices in first-appearance order and hands the label list back to the
caller, so round-trips preserve identity by label rather than by index.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ._io import expect_header, read_csv
from .errors import DegenerateStatisticError, InputError, _choice, _count, _flag, _real

__all__ = [
    "Network",
    "load_edge_list",
    "adjacency_weights",
    "inverse_geodesic_weights",
    "geodesic_distances",
    "degrees",
    "is_connected",
    "generate_random_network",
]


@dataclass(frozen=True)
class Network:
    """Simple undirected graph: node count plus a sorted tuple of (i, j) pairs, i < j."""

    n: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _count("n", self.n, 1))
        object.__setattr__(self, "edges", tuple(_iterable_edges(self.edges)))
        seen = set()
        for e in self.edges:
            if not isinstance(e, tuple) or len(e) != 2:
                raise InputError(f"edge {e!r} is not a pair")
            i, j = e
            if not (isinstance(i, int) and isinstance(j, int)):
                raise InputError(f"edge {e!r} has non-integer endpoints")
            if i == j:
                raise InputError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InputError(f"edge {e!r} out of range for n={self.n}")
            if i > j:
                raise InputError(f"edge {e!r} not in (min, max) order")
            if e in seen:
                raise InputError(f"duplicate edge {e!r}")
            seen.add(e)

    @classmethod
    def from_edges(cls, n, edges):
        """Build a Network from any iterable of unordered integer pairs, deduplicating."""
        canon = set()
        for e in _iterable_edges(edges):
            try:
                i, j = map(operator.index, e)
            except (TypeError, ValueError):
                raise InputError(f"edge {e!r} is not a pair or has non-integer endpoints") from None
            canon.add((min(i, j), max(i, j)))
        return cls(n=n, edges=tuple(sorted(canon)))

    @functools.cached_property
    def adjacency(self):
        """Symmetric 0/1 float CSR adjacency matrix, built on first use and cached.

        Every weight, distance and degree function reads the graph from here;
        the matrix is shared by all callers, so treat it as read-only.
        """
        e = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(self.n, self.n))


def _iterable_edges(edges):
    """An iterator over edges, if it is an iterable (of edges, checked by the caller)."""
    try:
        return iter(edges)
    except TypeError:
        raise InputError(f"edges must be an iterable of (i, j) pairs, got {edges!r}") from None


def load_edge_list(source):
    """Read an undirected edge list from CSV with header ``src,dst``.

    Parameters
    ----------
    source : str, os.PathLike, or file-like
        Path to a CSV file, or an open text stream.

    Returns
    -------
    net : Network
        Nodes indexed by first appearance across the src/dst columns.
    labels : list of str
        labels[i] is the original string label of node i.

    Raises
    ------
    InputError
        On a missing/wrong header, malformed row, self-loop, or a file
        with no data rows. Messages start with the file name and carry
        the 1-based data row number.

    Duplicate edges (in either orientation) are collapsed silently.
    """
    rows = read_csv(source, expect_header("src", "dst"))
    name, _header = next(rows)
    index = {}  # label -> node, in first-appearance order
    edges = set()
    for rownum, row in rows:
        if len(row) != 2 or not row[0].strip() or not row[1].strip():
            raise InputError(f"{name}: malformed edge row {rownum}: {row!r}")
        a, b = (index.setdefault(lab.strip(), len(index)) for lab in row)
        if a == b:
            raise InputError(f"{name}: self-loop at row {rownum}: node {row[0].strip()!r}")
        edges.add((min(a, b), max(a, b)))
    return Network(n=len(index), edges=tuple(sorted(edges))), list(index)


def adjacency_weights(net):
    """Symmetric 0/1 adjacency matrix of ``net`` as float ndarray.

    Raises DegenerateStatisticError if the graph has no edges at all
    (every downstream statistic would divide by a zero weight total).
    """
    return _edge_weights(net).toarray()


def _edge_weights(net):
    """The cached sparse adjacency of ``net``, refusing a graph with no edges."""
    if len(net.edges) == 0:
        raise DegenerateStatisticError("graph has no edges; all weights are zero")
    return net.adjacency


_SWEEP_LEVELS = 64


def geodesic_distances(net):
    """All-pairs shortest-path lengths (hop counts); unreachable pairs are np.inf.

    One breadth-first sweep runs from every node at once: row i of ``seen``
    holds one bit per node within the current hop count of i. Each hop level
    costs a pass over n×n one-byte counts, so a graph still open after 64 levels
    (a hop diameter of 64 or more: long paths, unrewired ring lattices) goes
    to csgraph's search instead, which is fast on exactly those graphs.
    """
    a, n = net.adjacency, net.n
    seen = front = np.packbits(np.eye(n, -(-n // 64) * 64, dtype=bool),
                               axis=1, bitorder="little").view("<u8")
    hops = np.zeros((n, n), dtype=np.uint8)  # levels at which j is out of reach of i
    rows = np.flatnonzero(np.diff(a.indptr))
    for level in range(_SWEEP_LEVELS):
        unseen = ~seen
        hops += np.unpackbits(unseen.view(np.uint8), axis=1, count=n, bitorder="little")
        ring = np.zeros_like(seen)
        ring[rows] = np.bitwise_or.reduceat(front[a.indices], a.indptr[rows], axis=0)
        ring &= unseen
        if not ring.any():  # closed: hops > level only where j is never reached
            hops = hops.astype(float)
            hops[hops > level] = np.inf
            return hops
        seen |= ring
        front = ring
    del hops
    return csgraph.shortest_path(a, method="D", directed=False, unweighted=True)


def inverse_geodesic_weights(net, gamma=1.0):
    """Weights w_ij = 1 / d(i,j)**gamma for reachable i != j, else 0.

    gamma must be positive. The diagonal is zero by construction.
    """
    _real("gamma", gamma, 0, strict=True)
    d = geodesic_distances(net)
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / d**gamma
    w[~np.isfinite(w)] = 0.0
    np.fill_diagonal(w, 0.0)
    if not (w > 0).any():
        raise DegenerateStatisticError("graph has no edges; all weights are zero")
    return w


def degrees(net):
    """Node degrees as an int ndarray."""
    return np.diff(net.adjacency.indptr).astype(int)


def is_connected(net):
    """True if the graph is a single connected component."""
    return csgraph.connected_components(net.adjacency, directed=False)[0] == 1


_RETRY_CAP = 1000


def generate_random_network(n, model="erdos-renyi", *, p=None, k=4,
                            rewire_prob=0.05, seed=0, require_connected=True):
    """Generate a random undirected network.

    Parameters
    ----------
    n : int
        Number of nodes (>= 2).
    model : {"erdos-renyi", "small-world"}
        "erdos-renyi": each of the n(n-1)/2 pairs is an edge independently
        with probability p. p=None defaults to 5/(n-1), i.e. mean degree 5.
        "small-world": ring lattice where each node connects to its k nearest
        neighbours (k even), then each lattice edge is rewired with
        probability rewire_prob to a uniformly chosen new endpoint
        (up to 50 draws to avoid self-loops/duplicates, else kept).
    seed : int
        Master seed, non-negative.
    require_connected : bool
        If True, regenerate with sub-seed (seed, attempt) until connected,
        up to 1000 attempts, then raise InputError reporting the attempt count.
        An Erdos-Renyi setting where fewer than 0.01 of the 1000 attempts are
        expected to be connected fails at once instead.

    Each attempt draws from ``default_rng(SeedSequence((seed, attempt)))``,
    so results are reproducible and independent of earlier failed attempts.
    """
    n = _count("n", n, 2)
    seed = _count("seed", seed, 0)
    require_connected = _flag("require_connected", require_connected)
    if _choice("model", model, ("erdos-renyi", "small-world")) == "erdos-renyi":
        p = 5.0 / (n - 1) if p is None else _real("p", p, 0, 1)
        # Expected connected draws, from the Erdos-Renyi limit of P(connected).
        expected = _RETRY_CAP * math.exp(-n * (1 - p) ** (n - 1))
        if require_connected and expected < 0.01:
            raise InputError(
                f"n={n} and p={p:g} give {expected:.2g} expected connected graphs in "
                f"{_RETRY_CAP} attempts; use a larger p (--p) or require_connected=False "
                "(--no-require-connected)")
        iu, ju = np.triu_indices(n, 1)  # the same pairs for every attempt
        make = lambda rng: _er_edges(iu, ju, p, rng)
    else:
        k = _count("k", k, 2)
        if k % 2 != 0 or k >= n:
            raise InputError(f"k must be even and below n={n}, got {k!r}")
        _real("rewire_prob", rewire_prob, 0, 1)
        make = lambda rng: _smallworld_edges(n, k, rewire_prob, rng)

    for attempt in range(_RETRY_CAP):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        net = Network(n=n, edges=tuple(sorted(make(rng))))
        if not require_connected or is_connected(net):
            return net
    raise InputError(
        f"no connected {model} graph after {_RETRY_CAP} attempts "
        f"(n={n}, seed={seed}); parameters too sparse?"
    )


def _er_edges(iu, ju, p, rng):
    mask = rng.random(iu.size) < p
    return zip(iu[mask].tolist(), ju[mask].tolist())


def _smallworld_edges(n, k, beta, rng):
    base = set()
    half = k // 2
    for i in range(n):
        for j in range(1, half + 1):
            base.add((min(i, (i + j) % n), max(i, (i + j) % n)))
    base = sorted(base)
    out = set(base)
    for (u, v) in base:
        if rng.random() < beta:
            w = int(rng.integers(n))
            tries = 0
            while (w == u or (min(u, w), max(u, w)) in out) and tries < 50:
                w = int(rng.integers(n))
                tries += 1
            if tries < 50:
                out.discard((u, v))
                out.add((min(u, w), max(u, w)))
    return out
