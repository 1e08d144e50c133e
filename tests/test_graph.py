"""Network container, edge-list IO, weights, and random generators."""

import io

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import shortest_path

from netacorr import (
    DegenerateStatisticError,
    InputError,
    Network,
    adjacency_weights,
    degrees,
    generate_random_network,
    geodesic_distances,
    inverse_geodesic_weights,
    is_connected,
    load_edge_list,
    transmission_operator,
)

from netacorr import graph

from conftest import random_network


def test_network_rejects_bad_edges():
    with pytest.raises(InputError):
        Network(0, ())
    with pytest.raises(InputError):
        Network(3, ((0, 0),))
    with pytest.raises(InputError):
        Network(3, ((0, 3),))
    with pytest.raises(InputError):
        Network(3, ((1, 0),))  # endpoints must be (min, max)
    with pytest.raises(InputError):
        Network(3, ((0, 1), (0, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: Network(3, None), "^edges must be an iterable of .* got None$"),
    (lambda: Network(3, (1, 2)), "^edge 1 is not a pair$"),
    (lambda: Network(3, ((0, 1, 2),)), r"^edge \(0, 1, 2\) is not a pair$"),
    (lambda: Network.from_edges(3, None), "^edges must be an iterable of .* got None$"),
    (lambda: Network.from_edges(3, 5), "^edges must be an iterable of .* got 5$"),
    (lambda: Network.from_edges(3, [1, 2]), "^edge 1 is not a pair "),
    (lambda: Network.from_edges(3, [(0, 1), (0, 1, 2)]), r"^edge \(0, 1, 2\) is not a pair "),
], ids=["none", "ints", "triple", "from-none", "from-int", "from-ints", "from-triple"])
def test_malformed_edges_name_the_edge_or_argument(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_network_stores_edges_as_a_tuple():
    listed = Network(3, [(0, 1), (1, 2)])
    assert listed.edges == ((0, 1), (1, 2))
    assert listed == Network(3, ((0, 1), (1, 2)))
    assert hash(listed) == hash(Network(3, ((0, 1), (1, 2))))
    assert Network(3, iter([(0, 1)])).edges == ((0, 1),)


def test_from_edges_normalizes():
    net = Network.from_edges(4, [(2, 1), (1, 2), (3, 0), (0, 3)])
    assert net.n == 4
    assert net.edges == ((0, 3), (1, 2))

    net = Network.from_edges(3, np.array([[0, 1], [2, 1]]))
    assert net.edges == ((0, 1), (1, 2))
    assert all(type(v) is int for e in net.edges for v in e)

    with pytest.raises(InputError, match="non-integer"):
        Network.from_edges(3, [(0.0, 1.0)])


def test_load_edge_list_labels_in_first_appearance_order(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst\nb,a\nc,b\nb,c\n")
    net, labels = load_edge_list(path)
    assert labels == ["b", "a", "c"]
    assert net.n == 3
    assert net.edges == ((0, 1), (0, 2))


def test_load_edge_list_accepts_file_like():
    net, labels = load_edge_list(io.StringIO("src,dst\nx,y\n"))
    assert net.n == 2
    assert labels == ["x", "y"]
    assert net.edges == ((0, 1),)


def test_load_edge_list_errors(tmp_path):
    with pytest.raises(InputError, match="cannot open"):
        load_edge_list(tmp_path / "missing.csv")

    # every message about the file's content starts with the file's path
    cases = [
        ("h.csv", "from,to\na,b\n", "expected header 'src,dst', got 'from,to'"),
        ("sl.csv", "src,dst\na,b\nc,c\n", "self-loop at row 2"),
        ("headeronly.csv", "src,dst\n", "no data rows"),
        ("empty.csv", "", "empty file"),
        ("m.csv", "src,dst\na,b,c\n", "malformed edge row 1"),
    ]
    for name, text, message in cases:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InputError) as err:
            load_edge_list(path)
        assert str(err.value).startswith(f"{path}: {message}")

    # a blank row is skipped but still counted, so numbers follow the file's lines
    with pytest.raises(InputError, match="^<stream>: malformed edge row 3"):
        load_edge_list(io.StringIO("src,dst\na,b\n\nc\n"))


def test_adjacency_weights_path(path4):
    w = adjacency_weights(path4)
    expect = np.array([
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ], dtype=float)
    assert np.array_equal(w, expect)


def test_adjacency_weights_edgeless():
    with pytest.raises(DegenerateStatisticError):
        adjacency_weights(Network(3, ()))


def test_geodesic_path_and_disconnected():
    net = Network(5, ((0, 1), (1, 2), (3, 4)))
    d = geodesic_distances(net)
    assert d[0, 2] == 2
    assert d[0, 0] == 0
    assert np.isinf(d[0, 3])
    assert np.array_equal(d, d.T)


def _path(n):
    return Network(n, tuple((i, i + 1) for i in range(n - 1)))


def _geodesic_cases():
    rng = np.random.default_rng(42)
    for _ in range(20):
        yield random_network(rng, int(rng.integers(5, 25)), p=0.15)
    for n in (63, 64, 65, 128, 129):  # either side of the 64-bit word boundary
        yield random_network(rng, n, p=1.5 / n)  # isolated nodes, several components
        yield generate_random_network(n, "small-world", k=4, rewire_prob=0.1, seed=n)
    yield Network(150, ((0, 1), (1, 2), (70, 71), (140, 149)))
    yield _path(64)  # hop diameter 63: the sweep closes at its last level
    yield _path(65)  # hop diameter 64: csgraph's search takes over


def test_geodesic_matches_scipy():
    for net in _geodesic_cases():
        ours = geodesic_distances(net)
        ref = shortest_path(adjacency_weights(net), method="D", unweighted=True)
        assert np.array_equal(ours, ref), net.n


def _sw300():
    return generate_random_network(300, "small-world", k=4, rewire_prob=0.05, seed=0)


@pytest.mark.parametrize("net, calls", [(_sw300(), 0), (_path(64), 0), (_path(65), 1)],
                         ids=["small-world-300", "path-64", "path-65"])
def test_geodesic_sweep_hands_only_high_diameter_graphs_to_csgraph(monkeypatch, net, calls):
    made = []
    search = graph.csgraph.shortest_path

    def counted(*args, **kwargs):
        made.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(graph.csgraph, "shortest_path", counted)
    geodesic_distances(net)
    assert len(made) == calls


@pytest.mark.parametrize("net", [_sw300(), _path(300)], ids=["small-world-300", "path-300"])
def test_geodesic_peak_memory_is_the_result_plus_a_quarter(net):
    import tracemalloc

    net.adjacency  # cached before tracing
    tracemalloc.start()
    try:
        geodesic_distances(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * net.n**2, peak / (8 * net.n**2)


def test_inverse_geodesic_weights_values():
    net = Network(3, ((0, 1), (1, 2)))
    w = inverse_geodesic_weights(net)
    assert w[0, 1] == 1.0
    assert w[0, 2] == 0.5
    assert np.all(np.diag(w) == 0.0)

    w2 = inverse_geodesic_weights(net, gamma=2.0)
    assert w2[0, 2] == 0.25

    # d**2000 overflows to inf beyond one hop, and 1/inf = 0 is the limit
    assert np.array_equal(inverse_geodesic_weights(net, gamma=2000.0), adjacency_weights(net))

    with pytest.raises(InputError):
        inverse_geodesic_weights(net, gamma=0.0)


def test_inverse_geodesic_disconnected_pairs_get_zero():
    net = Network(4, ((0, 1), (2, 3)))
    w = inverse_geodesic_weights(net)
    assert w[0, 2] == 0.0
    assert w[1, 3] == 0.0
    assert w[0, 1] == 1.0


def test_degrees_and_connectivity():
    star = Network(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    assert degrees(star).tolist() == [4, 1, 1, 1, 1]
    assert is_connected(star)
    assert not is_connected(Network(4, ((0, 1), (2, 3))))
    assert is_connected(Network(1, ()))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 30))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Network(n, tuple(e for e, k in zip(pairs, keep) if k))


@settings(deadline=None)
@given(net=graphs(), a=st.floats(0.0, 1.0))
@example(net=Network(1, ()), a=0.5)
@example(net=Network(4, ()), a=0.5)
@example(net=Network(5, ((0, 1), (1, 2))), a=1.0)
def test_graph_primitives_match_networkx(net, a):
    g = nx.Graph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from(net.edges)

    ref = np.full((net.n, net.n), np.inf)
    for i, lengths in nx.all_pairs_shortest_path_length(g):
        for j, d in lengths.items():
            ref[i, j] = d
    assert np.array_equal(geodesic_distances(net), ref)
    assert is_connected(net) == nx.is_connected(g)
    assert degrees(net).tolist() == [d for _, d in sorted(g.degree)]
    if net.edges:
        assert np.array_equal(adjacency_weights(net), nx.to_numpy_array(g, nodelist=range(net.n)))

    t = transmission_operator(net, a)
    for i in range(net.n):
        for j in range(net.n):
            if i == j:
                expect = 1.0 - a if g.degree[i] else 1.0
            else:
                expect = a / g.degree[i] if g.has_edge(i, j) else 0.0
            assert t[i, j] == expect


def test_er_generator_edge_count_band():
    # n=200, p=0.03: 19900 trials, mean 597, sd about 24. A fixed seed gives
    # a fixed count; the band guards against off-by-wide generator bugs.
    for seed in range(10):
        net = generate_random_network(200, model="erdos-renyi", p=0.03,
                                      seed=seed, require_connected=False)
        assert 500 <= len(net.edges) <= 695


def test_er_default_p_targets_mean_degree_five(er_net):
    mean_deg = 2 * len(er_net.edges) / er_net.n
    assert abs(mean_deg - 5.0) < 0.6
    assert is_connected(er_net)


def test_generator_is_deterministic():
    a = generate_random_network(50, model="erdos-renyi", p=0.1, seed=7)
    b = generate_random_network(50, model="erdos-renyi", p=0.1, seed=7)
    c = generate_random_network(50, model="erdos-renyi", p=0.1, seed=8)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_small_world_edge_count_and_connectivity(sw_net):
    # rewiring moves edges but never changes the count: n * k / 2
    assert len(sw_net.edges) == 200 * 4 // 2
    assert is_connected(sw_net)
    for seed in range(5):
        net = generate_random_network(30, model="small-world", k=6,
                                      rewire_prob=0.2, seed=seed)
        assert len(net.edges) == 30 * 6 // 2
        assert is_connected(net)


def test_generator_argument_validation():
    with pytest.raises(InputError):
        generate_random_network(1, model="erdos-renyi")
    with pytest.raises(InputError):
        generate_random_network(10, model="erdos-renyi", p=1.5)
    with pytest.raises(InputError):
        generate_random_network(10, model="small-world", k=3)
    with pytest.raises(InputError):
        generate_random_network(10, model="small-world", k=12)
    with pytest.raises(InputError):
        generate_random_network(10, model="small-world", rewire_prob=-0.1)
    with pytest.raises(InputError):
        generate_random_network(10, model="ring")
    with pytest.raises(InputError):
        generate_random_network(10, model="erdos-renyi", seed=-1)


def test_require_connected_retries_or_fails():
    # p tiny: a connected 40-node graph is effectively impossible
    with pytest.raises(InputError, match="attempts"):
        generate_random_network(40, model="erdos-renyi", p=0.001, seed=0,
                                require_connected=True)
    net = generate_random_network(40, model="erdos-renyi", p=0.001, seed=0,
                                  require_connected=False)
    assert not is_connected(net)


def test_hopeless_erdos_renyi_settings_fail_before_the_retry_loop(monkeypatch):
    # refused: fewer than 0.01 of the 1000 attempts expected to be connected
    er_edges = graph._er_edges

    class Drawn(Exception):
        pass

    def drawing(*args):
        raise Drawn

    monkeypatch.setattr(graph, "_er_edges", drawing)
    refused = []
    for n in range(2, 13):
        for p in (0.0, 0.001, 0.002, 0.0035, 0.005, 0.05, 0.5):
            try:
                generate_random_network(n, p=p, seed=0)
            except Drawn:
                continue
            except InputError as exc:
                assert f"n={n} and p={p:g} " in str(exc) and "attempts" in str(exc)
                assert "--p" in str(exc) and "--no-require-connected" in str(exc)
                refused.append((n, p))
    assert refused == [(12, 0.0), (12, 0.001), (12, 0.002), (12, 0.0035)]
    # none of the draws the loop would make for seeds 0-4 has the n - 1 edges
    # that a connected graph needs
    for n, p in refused:
        iu, ju = np.triu_indices(n, 1)
        for seed in range(5):
            for attempt in range(1000):
                rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
                assert len(list(er_edges(iu, ju, p, rng))) < n - 1
    # without the connectivity requirement the same settings still draw
    monkeypatch.undo()
    assert generate_random_network(12, p=0.0, require_connected=False).edges == ()
