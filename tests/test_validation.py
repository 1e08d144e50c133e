"""The shared scalar checks: every public entry point and config field
rejects a bad count, real, choice or flag with an InputError that names the
parameter first, before it draws a single random number."""

import json
import math
import os

import numpy as np
import pytest
from scipy import sparse

from netacorr import (
    BadCovarianceError,
    ConfoundConfig,
    DegenerateStatisticError,
    ExperimentReport,
    InputError,
    LatentConfig,
    NetacorrError,
    Network,
    NumericError,
    PermutationConfig,
    SingularDesignError,
    TransmissionConfig,
    adjacency_weights,
    degree_confounded_covariate,
    direct_transmission,
    generate_random_network,
    geodesic_distances,
    gls,
    inverse_geodesic_weights,
    latent_field,
    latent_variable_outcome,
    lmm_fit,
    mean_ci_naive,
    monotone_pair,
    morans_i,
    normal_test,
    ols,
    permutation_test,
    run_correlation_distribution,
    run_coverage_experiment,
    run_degree_confounding_experiment,
    run_gls_correction_experiment,
    run_spurious_regression_experiment,
    transmission_covariance,
    write_report,
)

NET = generate_random_network(30, model="erdos-renyi", p=0.2, seed=1)
W = adjacency_weights(NET)
Y = np.sin(np.arange(30.0))
X = np.column_stack([np.ones(30), np.cos(np.arange(30.0))])


def count(floor):
    """Bad values of an integer count with this floor."""
    return [math.nan, math.inf, floor - 1, True, float(floor + 1)]


def real(outside):
    """Bad values of a finite real, with one finite value outside its interval."""
    return [math.nan, math.inf, outside, True]


CHOICE = ["bogus", None, 1]
FLAG = ["no", None, 1]

# The five study runners, with small settings.
RUNNERS = {
    "correlation-distribution": (run_correlation_distribution, {}),
    "coverage": (run_coverage_experiment, {"kappa_list": (0, 1), "m": 49}),
    "spurious-regression": (run_spurious_regression_experiment, {"kappa_list": (0, 1), "m": 49}),
    "degree-confounding": (run_degree_confounding_experiment, {"m": 49}),
    "gls-correction": (run_gls_correction_experiment, {"kappa_list": (1,), "lambdas": (0.0,)}),
}


def runner(name, key, wrap=lambda v: v):
    """A call of the named study that passes wrap(v) as its argument key."""
    run, kwargs = RUNNERS[name]
    return lambda v: run(NET, **{**kwargs, "reps": 4, "seed": 0, key: wrap(v)})


# (entry point, parameter the message names, call with the bad value, bad values)
CASES = [
    ("generate_random_network", "n", lambda v: generate_random_network(v), count(2)),
    ("generate_random_network", "seed", lambda v: generate_random_network(20, seed=v), count(0)),
    ("generate_random_network", "p", lambda v: generate_random_network(20, p=v), real(1.5)),
    ("generate_random_network", "model", lambda v: generate_random_network(20, v), CHOICE),
    ("generate_random_network", "require_connected",
     lambda v: generate_random_network(20, require_connected=v), FLAG),
    ("generate_random_network", "k",
     lambda v: generate_random_network(20, "small-world", k=v), count(2) + [3, 20]),
    ("generate_random_network", "rewire_prob",
     lambda v: generate_random_network(20, "small-world", rewire_prob=v), real(-0.1)),
    ("Network", "n", lambda v: Network(v, ()), count(1)),
    ("inverse_geodesic_weights", "gamma", lambda v: inverse_geodesic_weights(NET, v), real(0.0)),
    ("permutation_test", "m", lambda v: permutation_test(Y, W, PermutationConfig(m=v)), count(1)),
    ("permutation_test", "seed",
     lambda v: permutation_test(Y, W, PermutationConfig(seed=v)), count(0)),
    ("permutation_test", "alternative",
     lambda v: permutation_test(Y, W, PermutationConfig(alternative=v)), CHOICE),
    ("normal_test", "alternative", lambda v: normal_test(Y, W, v), CHOICE),
    ("transmission_covariance", "a", lambda v: transmission_covariance(NET, v, 0.5, 2), real(1.5)),
    ("transmission_covariance", "sigma",
     lambda v: transmission_covariance(NET, 0.5, v, 2), real(-0.1)),
    ("transmission_covariance", "kappa",
     lambda v: transmission_covariance(NET, 0.5, 0.5, v), count(0)),
    ("direct_transmission", "a",
     lambda v: direct_transmission(NET, TransmissionConfig(a=v)), real(1.5)),
    ("direct_transmission", "sigma",
     lambda v: direct_transmission(NET, TransmissionConfig(sigma=v)), real(-0.1)),
    ("direct_transmission", "kappa",
     lambda v: direct_transmission(NET, TransmissionConfig(kappa=v)), count(0)),
    ("direct_transmission", "seed",
     lambda v: direct_transmission(NET, TransmissionConfig(seed=v)), count(0)),
    ("latent_field", "length_scale",
     lambda v: latent_field(Y, geodesic_distances(NET), v), real(0.0)),
    ("latent_variable_outcome", "length_scale",
     lambda v: latent_variable_outcome(NET, LatentConfig(length_scale=v)), real(0.0)),
    ("latent_variable_outcome", "noise",
     lambda v: latent_variable_outcome(NET, LatentConfig(noise=v)), real(-0.1)),
    ("latent_variable_outcome", "seed",
     lambda v: latent_variable_outcome(NET, LatentConfig(seed=v)), count(0)),
    ("degree_confounded_covariate", "b",
     lambda v: degree_confounded_covariate(NET, ConfoundConfig(b=v)), real(-math.inf)),
    ("degree_confounded_covariate", "noise",
     lambda v: degree_confounded_covariate(NET, ConfoundConfig(noise=v)), real(0.0)),
    ("degree_confounded_covariate", "seed",
     lambda v: degree_confounded_covariate(NET, ConfoundConfig(seed=v)), count(0)),
    ("monotone_pair", "n", lambda v: monotone_pair(v), count(2)),
    ("monotone_pair", "seed", lambda v: monotone_pair(5, seed=v), count(0)),
    ("mean_ci_naive", "level", lambda v: mean_ci_naive(Y, level=v), real(1.0)),
    ("ols", "level", lambda v: ols(Y, X, level=v), real(1.0)),
    ("gls", "level", lambda v: gls(Y, X, np.eye(30), level=v), real(1.0)),
    # fmt is checked before the directory is made: none can be made under os.devnull
    ("write_report", "fmt", lambda v: write_report(
        ExperimentReport("x", 2, 0, {}, []), os.path.join(os.devnull, "out"), fmt=v), CHOICE),
    ("run_correlation_distribution", "sigma",
     runner("correlation-distribution", "settings", lambda v: [v]), real(-0.1)),
    ("run_degree_confounding_experiment", "control_degree",
     runner("degree-confounding", "control_degree"), FLAG),
    ("run_spurious_regression_experiment", "include_permuted_baseline",
     runner("spurious-regression", "include_permuted_baseline"), FLAG),
    ("run_degree_confounding_experiment", "b",
     runner("degree-confounding", "effect_sizes", lambda v: (0.0, v)), real(-math.inf)),
    ("run_gls_correction_experiment", "lambda",
     runner("gls-correction", "lambdas", lambda v: (0.0, v)), real(1.5)),
    ("run_gls_correction_experiment", "estimator", runner("gls-correction", "estimator"), CHOICE),
    ("run_gls_correction_experiment", "kinship", runner("gls-correction", "kinship"), CHOICE),
]
for name, (run, _) in RUNNERS.items():
    CASES += [(run.__name__, "reps", runner(name, "reps"), count(2)),
              (run.__name__, "seed", runner(name, "seed"), count(0)),
              (run.__name__, "threads", runner(name, "threads"), count(1) + [-3, 2.5, "2", None])]
    if name in ("coverage", "spurious-regression", "degree-confounding"):
        CASES.append((run.__name__, "m", runner(name, "m"), count(1)))
    if name in ("coverage", "spurious-regression", "gls-correction"):
        CASES += [(run.__name__, "a", runner(name, "a"), real(1.5)),
                  (run.__name__, "sigma", runner(name, "sigma"), real(-0.1)),
                  (run.__name__, "kappa",
                   runner(name, "kappa_list", lambda v: (1, v)), count(0))]

# Each study's lists of cells, and the bad values of one: a lone number, a
# string, None (except for settings, where None means the defaults) and a
# generator, which has no length; the value "generator" only names that case.
CELL_LISTS = [("coverage", "kappa_list"), ("spurious-regression", "kappa_list"),
              ("degree-confounding", "effect_sizes"), ("gls-correction", "kappa_list"),
              ("gls-correction", "lambdas"), ("correlation-distribution", "settings")]
for name, param in CELL_LISTS:
    bad = [2, 0.1, "0,1"] + ([None] if param != "settings" else [])
    CASES += [(RUNNERS[name][0].__name__, param, runner(name, param), bad),
              (RUNNERS[name][0].__name__, param,
               runner(name, param, lambda v: (c for c in (1, 2))), ["generator"])]

BAD = [(call, param, value) for _, param, call, values in CASES for value in values]
IDS = [f"{entry}-{param}={value!r}" for entry, param, _, values in CASES for value in values]


def _no_draws(*args, **kwargs):
    raise AssertionError("a random generator was made before the arguments were checked")


@pytest.mark.parametrize("call, param, value", BAD, ids=IDS)
def test_bad_scalar_fails_before_any_draw(call, param, value, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(InputError, match=f"^{param} must be "):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: generate_random_network(20),
    lambda: permutation_test(Y, W),
    lambda: direct_transmission(NET, TransmissionConfig()),
    lambda: latent_variable_outcome(NET, LatentConfig()),
    lambda: degree_confounded_covariate(NET, ConfoundConfig()),
    lambda: monotone_pair(5),
    lambda: runner("coverage", "seed")(0),
    lambda: runner("gls-correction", "seed")(0),
], ids=["network", "permutation_test", "transmission", "latent", "confound", "pair",
        "coverage", "gls-correction"])
def test_valid_calls_do_reach_the_draws(call, monkeypatch):
    # the guard above sees draws: valid arguments get past the checks to it
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(AssertionError, match="random generator"):
        call()


def test_numpy_integer_counts_are_accepted(tmp_path):
    i = np.int64
    net = generate_random_network(i(30), p=0.2, seed=i(1))
    assert net == NET and type(net.n) is int
    assert type(Network(i(3), ((0, 1),)).n) is int
    assert (permutation_test(Y, W, PermutationConfig(m=i(99), seed=i(2)))
            == permutation_test(Y, W, PermutationConfig(m=99, seed=2)))
    np.testing.assert_array_equal(
        direct_transmission(NET, TransmissionConfig(kappa=i(3), seed=i(4))),
        direct_transmission(NET, TransmissionConfig(kappa=3, seed=4)))
    assert monotone_pair(i(5), seed=i(1))[0].shape == (5,)

    rep = run_coverage_experiment(NET, kappa_list=(i(0), i(2)), reps=i(4), seed=i(3), m=i(49))
    assert rep == run_coverage_experiment(NET, kappa_list=(0, 2), reps=4, seed=3, m=49)
    corr = run_correlation_distribution(NET, settings=[i(2)], reps=i(3))
    for report in (rep, corr):
        (path,) = write_report(report, tmp_path, fmt="json")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["reps"] == report.reps and doc["rows"] == report.rows
    assert doc["config"]["settings"][1] == {
        "label": "sigma=2", "config": {"a": 0.9, "sigma": 2.0, "kappa": 10, "seed": 0}}

    # numpy scalars and arrays in a study's arguments are echoed in its
    # report, and a JSON report writes them as the Python numbers they hold
    inputs = [("degree-confounding", "effect_sizes", np.array([0, 1])),
              ("gls-correction", "lambdas", np.array([0, 1])),
              ("coverage", "sigma", np.float32(0.05)), ("coverage", "a", i(1)),
              ("spurious-regression", "a", np.float32(0.9)),
              ("gls-correction", "sigma", i(1)),
              ("degree-confounding", "control_degree", np.True_)]
    for name, key, value in inputs:
        (path,) = write_report(runner(name, key)(value), tmp_path / key, fmt="json")
        with open(path) as fh:
            assert np.array_equal(json.load(fh)["config"][key], value), (key, value)


def test_error_classes_carry_their_exit_codes():
    codes = {InputError: 2, SingularDesignError: 2, BadCovarianceError: 2,
             DegenerateStatisticError: 3, NumericError: 4, NetacorrError: 4}
    assert {cls: cls.exit_code for cls in codes} == codes


@pytest.mark.parametrize("name, param", [
    ("coverage", "kappa_list"),
    ("spurious-regression", "kappa_list"),
    ("degree-confounding", "effect_sizes"),
    ("gls-correction", "kappa_list"),
    ("gls-correction", "lambdas"),
])
@pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
def test_empty_cell_list_fails_before_any_draw(name, param, empty, monkeypatch):
    # a study with no cells would return a report with no rows
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(InputError, match=f"^{param} must not be empty$"):
        runner(name, param)(empty)


STRINGS = ["a"] * 30


@pytest.mark.parametrize("param, call", [
    ("y", lambda: morans_i(STRINGS, W)),
    ("y", lambda: mean_ci_naive([1 + 2j, 3])),
    ("y", lambda: mean_ci_naive(np.array([1 + 2j, 3]))),
    ("y", lambda: ols([[1.0], [2.0, 3.0]], X)),
    ("w", lambda: morans_i(Y, [STRINGS] * 30)),
    ("w", lambda: permutation_test(Y, W.astype(complex))),
    ("w", lambda: morans_i(Y, sparse.csr_array(W.astype(complex)))),
    ("x", lambda: ols(Y, [["a", "b"]] * 30)),
    ("x", lambda: gls(Y, X.astype(complex), np.eye(30))),
    ("sigma", lambda: gls(Y, X, [STRINGS] * 30)),
    ("k", lambda: lmm_fit(Y, X, [STRINGS] * 30)),
    ("k", lambda: lmm_fit(Y, X, [{}] * 30)),
], ids=["morans_i-y-str", "mean-y-complex-list", "mean-y-complex-array", "ols-y-ragged",
        "morans_i-w-str", "permutation_test-w-complex", "morans_i-w-sparse-complex",
        "ols-x-str", "gls-x-complex", "gls-sigma-str", "lmm_fit-k-str", "lmm_fit-k-dict"])
def test_non_numeric_array_raises_input_error_naming_it(param, call):
    with pytest.raises(InputError, match=f"^{param} must be an array of real numbers"):
        call()
