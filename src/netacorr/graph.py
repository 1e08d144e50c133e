"""Undirected graphs: edge-list IO, weights, geodesics, random generators.

Nodes are integer indices 0..n-1 internally. File IO maps string labels
to indices in first-appearance order and hands the label list back to the
caller, so round-trips preserve identity by label rather than by index.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Network:
    """Simple undirected graph on nodes 0..n-1, stored as its CSR adjacency.

    ``edges`` is any iterable of integer pairs (i, j), i < j, in any order,
    or an (m, 2) integer array. An item that is not a pair of integers that
    fit an intp is refused as it is read; then the first self-loop, endpoint
    outside 0..n-1, pair not in (min, max) order or repeat is named.
    ``adjacency``, the symmetric 0/1 float CSR matrix, is what every function
    reads; treat it as read-only. ``edges`` is read back from it, so it is
    always sorted. Equality and hashing go by n and the edge set.
    """

    n: int
    adjacency: sparse.csr_array

    def __init__(self, n, edges):
        n = _count("n", n, 1)
        e = _edge_array(edges, n)
        i, j = e.T
        bad = (i >= j) | (i < 0) | (j >= n)
        # i * n + j is one-to-one on edges. A flagged row is bad, or repeats an
        # earlier row that is bad or equal to it, so the first flag is the first fault.
        key = i * n + j
        order = np.argsort(key, kind="stable")  # a repeat sorts after its first copy
        bad[order[1:][np.diff(key[order]) == 0]] = True
        if bad.any():
            raise InputError(_fault(n, *map(int, e[bad.argmax()])))
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", sparse.csr_array(
            (np.ones(rows.size), (rows, cols)), shape=(n, n)))

    @classmethod
    def from_edges(cls, n, edges):
        """Build a Network from unordered integer pairs or an (m, 2) array, dropping repeats."""
        e = np.sort(_edge_array(edges, n), axis=1)
        e = e[np.lexsort(e.T[::-1])]  # rows in (i, j) order, so repeats are adjacent
        keep = np.ones(len(e), dtype=bool)
        keep[1:] = np.any(e[1:] != e[:-1], axis=1)
        return cls(n, e[keep])

    @property
    def edges(self):
        """The sorted tuple of (i, j) pairs, i < j, read from the upper triangle."""
        upper = sparse.triu(self.adjacency, 1, format="coo")
        return tuple(zip(upper.row.tolist(), upper.col.tolist()))

    def __eq__(self, other):
        return isinstance(other, Network) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))


def _edge_array(edges, n):
    """``edges`` as an (m, 2) intp array, refusing the first item that is not a pair of intp.

    An integer array, or a sequence numpy reads as one, is read in bulk;
    anything else item by item. n is for the message.
    """
    if not isinstance(edges, np.ndarray):
        try:
            edges = list(edges)
        except TypeError:
            raise InputError(f"edges must be an iterable of (i, j) pairs, got {edges!r}") from None
    try:
        a = np.asarray(edges)
    except ValueError:  # items of different lengths
        a = np.empty(0)
    if a.ndim == 2 and a.shape[1] == 2 and a.dtype.kind in "biu" and np.can_cast(a.dtype, np.intp):
        return a.astype(np.intp, copy=False)
    return np.array([_pair(e, n) for e in edges], dtype=np.intp).reshape(-1, 2)


def _pair(e, n):
    """The item ``e`` of an edge list on n nodes as two ints that fit an intp."""
    try:
        i, j = e
    except (TypeError, ValueError):
        raise InputError(f"edge {e!r} is not a pair") from None
    try:
        i, j = operator.index(i), operator.index(j)
    except TypeError:
        raise InputError(f"edge {e!r} has non-integer endpoints") from None
    if max(abs(i), abs(j)) > np.iinfo(np.intp).max:
        raise InputError(_fault(n, i, j))
    return i, j


def _fault(n, i, j):
    """Why (i, j), which is known to be bad, is not a new edge of a graph on n nodes."""
    if i == j:
        return f"self-loop at node {i}"
    if not (0 <= i < n and 0 <= j < n):
        return f"edge {(i, j)!r} out of range for n={n}"
    if i > j:
        return f"edge {(i, j)!r} not in (min, max) order"
    return f"duplicate edge {(i, j)!r}"


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
    ends = []  # the two nodes of every row, in row order
    for rownum, row in rows:
        if len(row) != 2 or not row[0].strip() or not row[1].strip():
            raise InputError(f"{name}: malformed edge row {rownum}: {row!r}")
        a, b = (index.setdefault(lab.strip(), len(index)) for lab in row)
        if a == b:
            raise InputError(f"{name}: self-loop at row {rownum}: node {row[0].strip()!r}")
        ends += (a, b)
    return Network.from_edges(len(index), np.array(ends, dtype=np.intp).reshape(-1, 2)), list(index)


def adjacency_weights(net):
    """Symmetric 0/1 adjacency matrix of ``net`` as float ndarray.

    Raises DegenerateStatisticError if the graph has no edges at all
    (every downstream statistic would divide by a zero weight total).
    """
    return _edge_weights(net).toarray()


def _edge_weights(net):
    """The sparse adjacency of ``net``, refusing a graph with no edges."""
    if net.adjacency.nnz == 0:
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
        net = Network.from_edges(n, make(rng))
        if not require_connected or is_connected(net):
            return net
    raise InputError(
        f"no connected {model} graph after {_RETRY_CAP} attempts "
        f"(n={n}, seed={seed}); parameters too sparse?"
    )


def _er_edges(iu, ju, p, rng):
    mask = rng.random(iu.size) < p
    return np.column_stack([iu[mask], ju[mask]])


def _smallworld_edges(n, k, beta, rng):
    i = np.repeat(np.arange(n), k // 2)  # the ring lattice: i to i + 1, ..., i + k/2
    j = (i + np.tile(np.arange(1, k // 2 + 1), n)) % n
    base = sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
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
