import tracemalloc

import numpy as np
import pytest

import netacorr
from netacorr import (
    ConfoundConfig,
    DegenerateStatisticError,
    InputError,
    LatentConfig,
    Network,
    TransmissionConfig,
    degree_confounded_covariate,
    direct_transmission,
    generate_random_network,
    geodesic_distances,
    latent_field,
    latent_variable_outcome,
    monotone_pair,
    standardized_degrees,
    transmission_covariance,
)
from netacorr.simulate import _transmit

from conftest import random_network
from oracles import transmission_matrix

PATH3 = Network(3, ((0, 1), (1, 2)))


def test_transmission_operator_path3_oracle():
    expect = np.array([
        [0.5, 0.5, 0.0],
        [0.25, 0.5, 0.25],
        [0.0, 0.5, 0.5],
    ])
    np.testing.assert_allclose(transmission_matrix(PATH3, 0.5), expect, atol=0)
    np.testing.assert_allclose(_transmit(PATH3, 0.5, np.eye(3)), expect, atol=0)


def test_transmission_operator_limits_and_isolated_nodes():
    net = Network(3, ((0, 1),))
    assert np.array_equal(transmission_matrix(net, 0.0), np.eye(3))
    t = transmission_matrix(net, 1.0)
    assert t[0, 1] == 1.0 and t[0, 0] == 0.0
    assert t[2, 2] == 1.0  # isolated node keeps its value
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_network(rng, 12, p=0.2)
        rows = transmission_matrix(g, float(rng.uniform(0, 1))).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)


def test_transmit_matches_the_dense_operator():
    # the step reads the adjacency; T written out from its formula is the
    # oracle. The last two nodes have no neighbours and keep their values at
    # every a.
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        net = Network(n, random_network(rng, n - 2, p=0.25).edges)
        y, block = rng.standard_normal(n), rng.standard_normal((n, 3))
        for a in (0.0, 1.0, float(rng.uniform(0, 1))):
            t = transmission_matrix(net, a)
            for v in (y, block):
                got = _transmit(net, a, v)
                assert got.shape == v.shape
                np.testing.assert_allclose(got, t @ v, rtol=0, atol=1e-14)
                assert np.array_equal(got[-2:], v[-2:])
        assert np.array_equal(_transmit(net, 0.0, y), y)
        assert np.array_equal(_transmit(net, 0.0, block), block)


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_direct_transmission_builds_no_dense_operator():
    # a dense T of this 3000-node ring alone takes 72 MB
    ring = generate_random_network(3000, model="small-world", k=4, rewire_prob=0.0)
    peak = _traced_peak(lambda: direct_transmission(ring, TransmissionConfig(kappa=3, seed=1)))
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MB"


def test_transmission_covariance_holds_at_most_five_dense_matrices():
    # the version that built a dense T peaked at 5.051 n x n here
    net = generate_random_network(400, model="erdos-renyi", seed=2)
    net.adjacency  # cached before tracing
    peak = _traced_peak(lambda: transmission_covariance(net, 0.5, 0.5, 3))
    assert peak <= 5.05 * 8 * net.n**2, f"{peak / (8 * net.n**2):.2f} n x n"


def test_direct_transmission_on_a_hub_near_the_float_max():
    # values near 1e307 stay finite, though the hub's 100 neighbours sum
    # beyond the float range unless the step scales them first
    star = Network(101, tuple((0, j) for j in range(1, 101)))
    t = transmission_matrix(star, 0.5)
    gen = np.random.default_rng(1)
    expect = gen.standard_normal(101)
    for _ in range(3):
        expect = t @ expect + 1e307 * gen.standard_normal(101)
    got = direct_transmission(star, TransmissionConfig(a=0.5, sigma=1e307, kappa=3, seed=1))
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e295)


def test_transmission_covariance_recursion():
    # Sigma_k = T Sigma_{k-1} T' + sigma^2 I, Sigma_0 = I
    rng = np.random.default_rng(9)
    net = random_network(rng, 15, p=0.2)
    t = transmission_matrix(net, 0.6)
    prev = np.eye(15)
    for kappa in range(5):
        got = transmission_covariance(net, 0.6, 0.4, kappa)
        np.testing.assert_allclose(got, prev, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(got)) > -1e-10
        prev = t @ prev @ t.T + 0.4**2 * np.eye(15)


def test_transmission_covariance_kappa_zero_is_identity():
    np.testing.assert_allclose(
        transmission_covariance(PATH3, 0.9, 2.0, 0), np.eye(3), atol=0
    )


def test_transmission_covariance_refuses_a_sigma_that_overflows_it():
    # entries reach 1 + sigma^2 kappa; past the float range sigma is named
    for sigma, kappa in ((1e200, 0), (1e200, 1), (1e154, 1), (1e153, 100)):
        with pytest.raises(InputError, match="sigma is too large: sigma=1e"):
            transmission_covariance(PATH3, 0.5, sigma, kappa)
    assert np.all(np.isfinite(transmission_covariance(PATH3, 0.5, 1e153, 3)))


def test_transmission_covariance_matches_simulation():
    # empirical covariance over many replicates vs the closed form
    rng = np.random.default_rng(14)
    net = random_network(rng, 25, p=0.2)
    t = transmission_matrix(net, 0.6)
    reps = 40000
    ys = rng.standard_normal((reps, 25))
    for _ in range(3):
        ys = ys @ t.T + 0.5 * rng.standard_normal((reps, 25))
    emp = np.cov(ys.T, ddof=0)
    sig = transmission_covariance(net, 0.6, 0.5, 3)
    np.testing.assert_allclose(emp, sig, atol=6.0 * sig.max() / np.sqrt(reps))


def test_direct_transmission_draw_order_contract():
    # y0 first, then one innovation vector per step, all from the same stream
    cfg = TransmissionConfig(a=0.5, sigma=0.5, kappa=3, seed=7)
    net = PATH3
    t = transmission_matrix(net, 0.5)
    gen = np.random.default_rng(7)
    y = gen.standard_normal(3)
    for _ in range(3):
        y = t @ y + 0.5 * gen.standard_normal(3)
    got = direct_transmission(net, cfg)
    assert np.array_equal(got, y)


def test_direct_transmission_kappa_zero_is_iid_field():
    cfg = TransmissionConfig(a=0.9, sigma=0.5, kappa=0, seed=13)
    got = direct_transmission(PATH3, cfg)
    assert np.array_equal(got, np.random.default_rng(13).standard_normal(3))
    # kappa=0 output cannot depend on the mixing strength
    other = direct_transmission(PATH3, TransmissionConfig(a=0.1, sigma=0.5, kappa=0, seed=13))
    assert np.array_equal(got, other)


def test_direct_transmission_sigma_zero_is_pure_mixing():
    net = Network(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    cfg = TransmissionConfig(a=0.7, sigma=0.0, kappa=4, seed=2)
    t = transmission_matrix(net, 0.7)
    y0 = np.random.default_rng(2).standard_normal(4)
    expect = y0
    for _ in range(4):
        expect = t @ expect
    np.testing.assert_allclose(direct_transmission(net, cfg), expect, atol=1e-12)


def test_direct_transmission_validation():
    with pytest.raises(InputError):
        direct_transmission(PATH3, TransmissionConfig(sigma=-1.0))
    with pytest.raises(InputError):
        direct_transmission(PATH3, TransmissionConfig(kappa=-1))
    with pytest.raises(InputError):
        direct_transmission(PATH3, TransmissionConfig(seed=-5))


def test_latent_field_complete_graph_oracle():
    # complete graph: self weight 1, every other node weight exp(-1/l)
    n, ell = 5, 2.0
    net = Network(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
    z = np.arange(1.0, n + 1.0)
    got = latent_field(z, geodesic_distances(net), ell)
    e = np.exp(-1.0 / ell)
    expect = (z + e * (z.sum() - z)) / (1.0 + (n - 1) * e)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_latent_field_short_length_scale_is_identity():
    rng = np.random.default_rng(21)
    net = random_network(rng, 10, p=0.3)
    z = rng.standard_normal(10)
    got = latent_field(z, geodesic_distances(net), 1e-6)
    np.testing.assert_allclose(got, z, atol=1e-12)
    with pytest.raises(InputError):
        latent_field(z, geodesic_distances(net), 0.0)


def test_latent_field_ignores_unreachable_pairs():
    net = Network(4, ((0, 1), (2, 3)))
    z = np.array([1.0, 1.0, -1.0, -1.0])
    got = latent_field(z, geodesic_distances(net), 5.0)
    # components never mix: the two halves keep their own signs
    assert got[0] > 0 and got[1] > 0 and got[2] < 0 and got[3] < 0
    np.testing.assert_allclose(got[:2], 1.0, atol=1e-12)


DIST3 = geodesic_distances(PATH3)


@pytest.mark.parametrize("param, z, dist", [
    ("dist", np.ones(4), DIST3),
    ("z", np.ones((3, 1)), DIST3),
    ("z", "abc", DIST3),
    ("z", [1.0, np.nan, 2.0], DIST3),
    ("z", [1.0, np.inf, 2.0], DIST3),
    ("dist", np.ones(3), np.diagonal(DIST3)),
    ("dist", np.ones(3), DIST3[:2]),
    ("dist", np.ones(3), np.where(DIST3 == 2.0, np.nan, DIST3)),
    ("dist", np.ones(3), -DIST3),
    ("dist", np.ones(3), [["a"] * 3] * 3),
], ids=["z-length", "z-2d", "z-string", "z-nan", "z-inf", "dist-1d", "dist-shape",
        "dist-nan", "dist-negative", "dist-string"])
def test_latent_field_rejects_bad_inputs(param, z, dist):
    with pytest.raises(InputError, match=f"^{param} must be "):
        latent_field(z, dist, 1.0)


def test_latent_variable_outcome_noise_free():
    net = Network(3, ((0, 1), (1, 2)))
    cfg = LatentConfig(length_scale=1.5, noise=0.0, seed=4)
    z = np.random.default_rng(4).standard_normal(3)
    expect = latent_field(z, geodesic_distances(net), 1.5)
    np.testing.assert_allclose(latent_variable_outcome(net, cfg), expect, atol=0)


def test_standardized_degrees_star_oracle():
    star = Network(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    got = standardized_degrees(star)
    np.testing.assert_allclose(got, [2.0, -0.5, -0.5, -0.5, -0.5], atol=1e-12)
    assert abs(got.mean()) < 1e-12
    assert abs(got.std() - 1.0) < 1e-12


def test_standardized_degrees_rejects_regular_graphs():
    ring = Network(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    with pytest.raises(DegenerateStatisticError):
        standardized_degrees(ring)


def test_degree_confounded_covariate_loads_on_degree():
    star = Network(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    x = degree_confounded_covariate(star, ConfoundConfig(b=3.0, noise=1e-12, seed=0))
    np.testing.assert_allclose(x, 3.0 * standardized_degrees(star), atol=1e-9)
    with pytest.raises(InputError):
        degree_confounded_covariate(star, ConfoundConfig(b=1.0, noise=0.0))


@pytest.mark.parametrize("simulate, cfg, message", [
    (direct_transmission, TransmissionConfig(sigma=1e308, seed=1),
     "sigma is too large: sigma=1e+308 overflows the transmission process at kappa=3"),
    (latent_variable_outcome, LatentConfig(noise=1e308, seed=1),
     "noise is too large: noise=1e+308 overflows the latent outcome"),
    (degree_confounded_covariate, ConfoundConfig(b=1e308, seed=1),
     "b and noise are too large: b=1e+308 and noise=1.0 overflow the covariate"),
], ids=["transmission", "latent", "degree-confound"])
def test_generators_name_the_setting_that_overflows_them(simulate, cfg, message):
    # no NaN or inf leaves a generator, and its overflow warnings stay silent
    net = random_network(np.random.default_rng(9), 30, p=0.2)
    with pytest.raises(InputError) as info:
        simulate(net, cfg)
    assert str(info.value) == message


def test_monotone_pair_is_exactly_comonotone():
    for seed in range(30):
        x, y = monotone_pair(40, seed=seed)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(abs(r) - 1.0) < 1e-12
        assert np.array_equal(np.abs(x), np.arange(1, 41) / 40)
        assert np.array_equal(np.abs(y), np.arange(1, 41) / 40)


def test_monotone_pair_both_signs_occur():
    signs = set()
    for seed in range(40):
        x, y = monotone_pair(10, seed=seed)
        signs.add(np.sign(x[0] * y[0]))
    assert signs == {-1.0, 1.0}
    with pytest.raises(InputError):
        monotone_pair(1)


def test_shared_rng_is_respected():
    # passing an explicit generator must bypass the seed entirely
    gen = np.random.default_rng(123)
    a = direct_transmission(PATH3, TransmissionConfig(kappa=1, seed=0), rng=gen)
    gen2 = np.random.default_rng(123)
    b = direct_transmission(PATH3, TransmissionConfig(kappa=1, seed=999), rng=gen2)
    assert np.array_equal(a, b)


def test_package_exports_exactly_the_module_exports():
    # latent_field was exported by the package but missing from simulate.__all__
    from netacorr import deptest, experiments, graph, inference, simulate

    modules = set().union(*(m.__all__ for m in (graph, deptest, simulate, inference, experiments)))
    errors = {"NetacorrError", "InputError", "SingularDesignError", "BadCovarianceError",
              "DegenerateStatisticError", "NumericError"}
    assert len(set(netacorr.__all__)) == len(netacorr.__all__)
    assert set(netacorr.__all__) == modules | errors | {"__version__"}
    assert all(hasattr(netacorr, name) for name in netacorr.__all__)
