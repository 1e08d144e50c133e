"""Monte Carlo experiments quantifying what network dependence does to
naive estimators, and what corrections recover.

Every experiment returns an ExperimentReport: summary rows (one per
setting, or cell), the per-replicate records behind them, and an echo of
the full configuration. Replicate r of experiment E under master seed s
draws from streams seeded SeedSequence((E, s, r, tag)), so runs are
reproducible, replicates are independent, results do not depend on the
thread count, and the same replicate shares its noise across cells (common
random numbers). For the transmission process that means horizon kappa
consumes a prefix of the draws of horizon kappa' > kappa, which makes
monotone comparisons across kappa far less noisy. The permutation tests
share their relabellings the same way: within a replicate, the tests of
one tag in every cell run on that tag's one stream, so a runner hands all
of them to deptest._rejects at once, and each block of relabellings is
drawn once and scored on the CSR adjacency for every cell still open.

All five runners share one path, _run_study. A runner validates its
arguments, lists its cells, and defines one_rep(r), which returns one tuple
of values per cell in cell order; the first value is the cell's estimate
(a mean, slope or correlation). _run_study maps one_rep over the replicates
and builds, for each cell:

- one row: the cell's keys, then the row fields, then "reps". A field named
  in _ROW_STATS is that statistic over the replicates; any other name is
  the plain mean of the column of that name; a (key, source) pair stores
  the statistic or column named source under key, or source itself when it
  is not a string (a per-run constant).
- one record per replicate: the cell's keys (or rep_keys), "rep", then
  every column cast to its declared type.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._io import document, json_text, records_csv_text, write_text, writing
from .deptest import _centre, _check_w, _rejects
from .errors import BadCovarianceError, InputError, _cells, _choice, _count, _real
from .graph import _edge_weights, adjacency_weights
from .inference import (
    _check_design,
    _gls_core,
    _gls_factor,
    _lmm_cores,
    _lmm_factor,
    _sd,
    _z_quantile,
    mean_ci_naive,
    ols,
)
from .simulate import (
    ConfoundConfig,
    TransmissionConfig,
    degree_confounded_covariate,
    direct_transmission,
    standardized_degrees,
    transmission_covariance,
)

__all__ = [
    "ExperimentReport",
    "run_correlation_distribution",
    "run_coverage_experiment",
    "run_spurious_regression_experiment",
    "run_degree_confounding_experiment",
    "run_gls_correction_experiment",
    "write_report",
    "EXPERIMENT_NAMES",
]

# Leading stream tags, one per experiment, so experiments never share draws.
_CORR, _COVER, _SPUR, _DEGREE, _GLSEXP = 1, 2, 3, 4, 5

# Named (a, sigma, kappa) settings for the correlation-distribution runs.
# The error scale controls how completely transmission wipes out the iid
# start; the small-error setting runs long enough that node values collapse
# onto the slowest network mode and pairwise correlations pile up near +-1.
DEFAULT_CORR_SETTINGS = (
    ("iid", None),
    ("large-error", TransmissionConfig(a=0.9, sigma=0.05, kappa=10)),
    ("moderate-error", TransmissionConfig(a=0.9, sigma=0.01, kappa=10)),
    ("small-error", TransmissionConfig(a=0.9, sigma=0.0, kappa=50)),
)

# Per-cell row statistics over the replicates: est is the cell's first
# column (its estimate), cols maps every column name to its values.
_ROW_STATS = {
    "coverage": lambda est, cols: cols["covered"].mean(),
    "bias": lambda est, cols: est.mean(),
    "mean_abs_error": lambda est, cols: np.abs(est).mean(),
    "mean_se": lambda est, cols: cols["se"].mean(),
    "sd_estimates": lambda est, cols: _sd(est),
    "mc_se_mean_estimate": lambda est, cols: _sd(est) / np.sqrt(len(est)),
    "reject_slope": lambda est, cols: 1.0 - cols["covered"].mean(),
    "frac_abs_gt_half": lambda est, cols: np.mean(np.abs(est) > 0.5),
}

# Columns and row fields shared by the regression studies.
_SLOPE_COLUMNS = (("slope", float), ("se", float), ("covered", int))
_ESTIMATE_FIELDS = ("coverage", "bias", "mean_abs_error", "mean_se", "sd_estimates")


@dataclass
class ExperimentReport:
    name: str
    reps: int
    seed: int
    config: dict
    rows: list
    replicates: list = field(default_factory=list)

    def to_json_dict(self):
        return document(name=self.name, reps=self.reps, seed=self.seed, config=self.config,
                        rows=self.rows, replicates=self.replicates)


def write_report(report, directory, fmt="csv"):
    """Write a report under ``directory``; returns the list of paths written.

    fmt "csv" writes <name>_report.csv (summary rows) and
    <name>_replicates.csv; fmt "json" writes a single <name>_report.json
    carrying rows, replicates and configuration. A directory or file that
    cannot be written raises InputError naming it.
    """
    _choice("fmt", fmt, ("csv", "json"))
    with writing(directory):
        os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, report.name)
    if fmt == "csv":
        texts = {f"{base}_report.csv": records_csv_text(report.rows),
                 f"{base}_replicates.csv": records_csv_text(report.replicates)}
    else:
        texts = {f"{base}_report.json": json_text(report.to_json_dict())}
    for path, text in texts.items():
        write_text(path, text)
    return list(texts)


def run_correlation_distribution(net, settings=None, reps=500, seed=0, threads=1):
    """Distribution of the Pearson correlation of two independent fields.

    Each replicate draws two mutually independent outcome vectors on the
    same network under each setting and records their sample correlation.
    With iid data the correlations concentrate near 0 at scale 1/sqrt(n-1);
    under strong transmission they spread out and, in the near-noiseless
    long-horizon regime, pile up near -1 and +1 even though the fields
    never interact.

    settings may be None (the named defaults), a list of sigma floats
    (each becomes a=0.9, kappa=10 transmission), or (label, cfg) pairs
    with cfg a TransmissionConfig or None for the iid baseline.
    """
    reps, seed = _count("reps", reps, 2), _count("seed", seed, 0)
    threads = _count("threads", threads, 1)
    labelled = _corr_settings(settings)
    n = net.n

    def one_rep(r):
        out = []
        for label, cfg in labelled:
            rng = _rng(_CORR, seed, r, 0)
            if cfg is None:
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
            else:
                x = direct_transmission(net, cfg, rng=rng)
                y = direct_transmission(net, cfg, rng=rng)
            out.append((_pearson(x, y),))
        return out

    cells = [{"label": label, **{k: getattr(cfg, k, None) for k in ("a", "sigma", "kappa")}}
             for label, cfg in labelled]
    config = {
        "n": net.n,
        "settings": [
            {"label": lab, "config": None if cfg is None else vars(cfg)}
            for lab, cfg in labelled
        ],
        "threads": threads,
    }
    return _run_study("correlation-distribution", one_rep, reps, seed, threads, config,
                      cells, (("corr", float),),
                      (("corr_mean", "corr"), ("corr_sd", "sd_estimates"), "frac_abs_gt_half"),
                      rep_keys=("label",))


def run_coverage_experiment(net, kappa_list=(0, 1, 2, 3), reps=500, seed=0,
                            a=0.5, sigma=0.5, level=0.95, alpha=0.05,
                            m=500, threads=1):
    """Coverage of the naive iid mean interval as transmission deepens.

    The process mean is 0 at every horizon, so the nominal-level interval
    from mean_ci_naive should cover 0 about level of the time; dependence
    shrinks the reported SE relative to the true sampling spread of the
    mean and coverage decays with kappa. Also records the rejection rate
    of the permutation dependence test on the same data.
    """
    reps, seed, m = _count("reps", reps, 2), _count("seed", seed, 0), _count("m", m, 1)
    threads = _count("threads", threads, 1)
    _real("alpha", alpha, 0, 1, strict=True)
    _real("level", level, 0, 1, strict=True)
    cfgs = [TransmissionConfig(a=a, sigma=sigma, kappa=k)._checked()
            for k in _cells("kappa_list", kappa_list)]
    kappa_list = [cfg.kappa for cfg in cfgs]
    w, s0 = _check_w(_edge_weights(net), net.n)

    def one_rep(r):
        ys = [direct_transmission(net, cfg, rng=_rng(_COVER, seed, r, 0)) for cfg in cfgs]
        ests = [mean_ci_naive(y, level=level) for y in ys]
        bits = _rejects(ys, w, s0, m, _seed_int(_COVER, seed, r, 1), alpha)
        return [(est.mean, est.se, float(est.ci[0] <= 0.0 <= est.ci[1]), bit)
                for est, bit in zip(ests, bits)]

    config = {"n": net.n, "a": a, "sigma": sigma, "kappa_list": list(kappa_list),
              "level": level, "alpha": alpha, "m": m, "threads": threads}
    return _run_study("coverage", one_rep, reps, seed, threads, config,
                      [{"kappa": kappa} for kappa in kappa_list],
                      (("estimate", float), ("se", float), ("covered", int), ("reject_y", int)),
                      _ESTIMATE_FIELDS + ("reject_y",))


def run_spurious_regression_experiment(net, kappa_list=(0, 1, 2, 3), reps=500,
                                       seed=0, a=0.7, sigma=0.05, level=0.95,
                                       alpha=0.05, m=500,
                                       include_permuted_baseline=True, threads=1):
    """Regression of one independently transmitted field on another.

    X and Y never interact, so the true slope is 0 at every horizon. As
    kappa grows both fields align with the same slow network modes and the
    OLS slope spreads out while its reported SE barely moves: the classic
    spurious-regression picture. The permuted baseline re-runs the kappa =
    max(kappa_list) regression after randomly relabelling Y, which breaks
    the network alignment and restores honest behaviour; its residual
    dependence test should reject at about the nominal rate.
    """
    reps, seed, m = _count("reps", reps, 2), _count("seed", seed, 0), _count("m", m, 1)
    threads = _count("threads", threads, 1)
    _real("alpha", alpha, 0, 1, strict=True)
    _real("level", level, 0, 1, strict=True)
    cfgs = [TransmissionConfig(a=a, sigma=sigma, kappa=k)._checked()
            for k in _cells("kappa_list", kappa_list)]
    kappa_list = [cfg.kappa for cfg in cfgs]
    w, s0 = _check_w(_edge_weights(net), net.n)
    n = net.n
    kmax = max(kappa_list)
    z = _z_quantile(level)
    labels = list(kappa_list) + (["permuted"] if include_permuted_baseline else [])

    def one_rep(r):
        seeds = [_seed_int(_SPUR, seed, r, tag) for tag in (2, 3, 4, 6, 7, 8)]
        pairs = [(direct_transmission(net, cfg, rng=_rng(_SPUR, seed, r, 0)),
                  direct_transmission(net, cfg, rng=_rng(_SPUR, seed, r, 1))) for cfg in cfgs]
        out = _spurious_cells(pairs, w, s0, m, seeds[:3], z, alpha)
        if include_permuted_baseline:
            xk, yk = pairs[kappa_list.index(kmax)]
            perm = _rng(_SPUR, seed, r, 5).permutation(n)
            out += _spurious_cells([(xk, yk[perm])], w, s0, m, seeds[3:], z, alpha)
        return out

    config = {"n": net.n, "a": a, "sigma": sigma, "kappa_list": list(kappa_list),
              "include_permuted_baseline": include_permuted_baseline,
              "level": level, "alpha": alpha, "m": m, "threads": threads}
    return _run_study("spurious-regression", one_rep, reps, seed, threads, config,
                      [{"kappa": label} for label in labels],
                      _SLOPE_COLUMNS + (("reject_x", int), ("reject_y", int),
                                        ("reject_resid", int)),
                      _ESTIMATE_FIELDS + ("reject_slope", "reject_x", "reject_y",
                                          "reject_resid"))


def _spurious_cells(pairs, w, s0, m, seeds, z, alpha):
    """One row of values per (x, y) pair: the OLS slope of y on x, then the
    reject bits of x, y and the residuals; all x tests share the stream
    seeds[0], all y tests seeds[1] and all residual tests seeds[2]."""
    fits = [ols(y, np.column_stack([np.ones(len(x)), x])) for x, y in pairs]
    tested = ([x for x, _ in pairs], [y for _, y in pairs], [fit.residuals for fit in fits])
    bits = [_rejects(vs, w, s0, m, s, alpha) for vs, s in zip(tested, seeds)]
    return [(*_slope_cell(fit.beta, fit.se, z), *cell_bits)
            for fit, *cell_bits in zip(fits, *bits)]


def run_degree_confounding_experiment(net, effect_sizes=(0.0, 1.0), reps=500,
                                      seed=0, outcome_effect=0.5, noise=1.0,
                                      control_degree=False, level=0.95,
                                      alpha=0.05, m=500, threads=1):
    """Degree as a common cause of covariate and outcome.

    The outcome Y = outcome_effect * zdeg + eta is synthesized once per run
    and held fixed; each replicate redraws the covariate
    x = b * zdeg + noise * eps. The true effect of x on Y is 0 by
    construction, so an uncontrolled regression with b != 0 shows the
    classic omitted-variable displacement, while adding zdeg to the design
    (control_degree=True) restores centering and coverage.
    """
    reps, seed, m = _count("reps", reps, 2), _count("seed", seed, 0), _count("m", m, 1)
    threads = _count("threads", threads, 1)
    _real("alpha", alpha, 0, 1, strict=True)
    _real("level", level, 0, 1, strict=True)
    _real("outcome_effect", outcome_effect)
    cfgs = [ConfoundConfig(b=b, noise=noise)._checked()
            for b in _cells("effect_sizes", effect_sizes)]
    w, s0 = _check_w(_edge_weights(net), net.n)
    n = net.n
    zdeg = standardized_degrees(net)
    rng_y = _rng(_DEGREE, seed, 0, 0)
    y = outcome_effect * zdeg + rng_y.standard_normal(n)
    [reject_y] = _rejects([y], w, s0, m, _seed_int(_DEGREE, seed, 0, 1), alpha)
    z = _z_quantile(level)

    def one_rep(r):
        xs = [degree_confounded_covariate(net, cfg, rng=_rng(_DEGREE, seed, r, 2))
              for cfg in cfgs]
        fits = [ols(y, np.column_stack([np.ones(n), x] + ([zdeg] if control_degree else [])))
                for x in xs]
        x_bits = _rejects(xs, w, s0, m, _seed_int(_DEGREE, seed, r, 3), alpha)
        resid_bits = _rejects([fit.residuals for fit in fits], w, s0, m,
                              _seed_int(_DEGREE, seed, r, 4), alpha)
        return [(*_slope_cell(fit.beta, fit.se, z), *bits)
                for fit, *bits in zip(fits, x_bits, resid_bits)]

    config = {"n": net.n, "effect_sizes": list(effect_sizes),
              "outcome_effect": outcome_effect, "noise": noise,
              "control_degree": control_degree, "level": level,
              "alpha": alpha, "m": m, "threads": threads}
    return _run_study("degree-confounding", one_rep, reps, seed, threads, config,
                      [{"b": b, "controlled": int(control_degree)} for b in effect_sizes],
                      _SLOPE_COLUMNS + (("reject_x", int), ("reject_resid", int)),
                      ("coverage", "bias", "mean_abs_error", ("mean_estimate", "slope"),
                       "sd_estimates", "mc_se_mean_estimate", "mean_se",
                       ("reject_y", reject_y), "reject_x", "reject_resid"),
                      rep_keys=("b",))


def run_gls_correction_experiment(net, kappa_list=(1, 2, 3),
                                  lambdas=(0.0, 0.1, 0.25, 0.5), reps=500,
                                  seed=0, a=0.7, sigma=0.05, estimator="lmm",
                                  kinship="transmission", level=0.95,
                                  threads=1):
    """Dependence-aware regression under a (possibly misspecified) covariance.

    Replays the spurious-regression design but fits the slope with an
    estimator that is told the error covariance: the exact transmission
    covariance Sigma(kappa) blended toward its own diagonal,

        K_lambda = (1 - lambda) * Sigma + lambda * diag(Sigma),

    so lambda = 0 is the truth and larger lambda discards more of the
    dependence structure. estimator "lmm" fits the mixed model with K as
    the similarity matrix (adaptive rescaling); "gls" plugs K in as the
    known covariance. kinship "adjacency" swaps Sigma for a PSD-clipped,
    diagonal-normalized adjacency matrix, a structure-only analogue with
    no exactness guarantee; that matrix is singular, so gls with it needs
    every lambda > 0.
    """
    reps, seed = _count("reps", reps, 2), _count("seed", seed, 0)
    threads = _count("threads", threads, 1)
    _choice("estimator", estimator, ("lmm", "gls"))
    _choice("kinship", kinship, ("transmission", "adjacency"))
    for lam in _cells("lambdas", lambdas):
        _real("lambda", lam, 0, 1)
    _real("level", level, 0, 1, strict=True)
    cfgs = [TransmissionConfig(a=a, sigma=sigma, kappa=k)._checked()
            for k in _cells("kappa_list", kappa_list)]
    kappa_list = [cfg.kappa for cfg in cfgs]
    n = net.n
    # K depends on the cell, never on the replicate: factor it once per cell.
    factors = _cell_factors(net, kappa_list, lambdas, a, sigma, estimator, kinship)
    z = _z_quantile(level)

    def one_rep(r):
        problems = []
        for cfg in cfgs:
            x = direct_transmission(net, cfg, rng=_rng(_GLSEXP, seed, r, 0))
            y = direct_transmission(net, cfg, rng=_rng(_GLSEXP, seed, r, 1))
            y, design, _, _ = _check_design(y, np.column_stack([np.ones(n), x]))
            problems.extend((y, design, factors[cfg.kappa, lam]) for lam in lambdas)
        # The mixed models of a replicate share one search over delta.
        fits = ([(fit.beta, fit.se) for fit in _lmm_cores(problems)] if estimator == "lmm"
                else [_gls_core(*problem)[:2] for problem in problems])
        return [_slope_cell(beta, se, z) for beta, se in fits]

    config = {"n": net.n, "a": a, "sigma": sigma, "kappa_list": list(kappa_list),
              "lambdas": list(lambdas), "estimator": estimator,
              "kinship": kinship, "level": level, "threads": threads}
    return _run_study("gls-correction", one_rep, reps, seed, threads, config,
                      [{"kappa": kappa, "lambda": lam, "estimator": estimator}
                       for kappa in kappa_list for lam in lambdas],
                      _SLOPE_COLUMNS, _ESTIMATE_FIELDS, rep_keys=("kappa", "lambda"))


# Study name -> (runner, {CLI option: runner keyword}). The CLI passes each
# listed option that is not None, and refuses a given option not listed;
# other runner arguments keep their defaults.
# A test in test_cli.py checks the README's `netacorr experiment` table against this.
_STUDIES = {
    "correlation-distribution": (run_correlation_distribution, {"sigmas": "settings"}),
    "coverage": (run_coverage_experiment, {
        "kappas": "kappa_list", "permutations": "m", "a": "a", "sigma": "sigma"}),
    "spurious-regression": (run_spurious_regression_experiment, {
        "kappas": "kappa_list", "permutations": "m", "a": "a", "sigma": "sigma"}),
    "degree-confounding": (run_degree_confounding_experiment, {
        "effect_sizes": "effect_sizes", "permutations": "m",
        "control_degree": "control_degree"}),
    "gls-correction": (run_gls_correction_experiment, {
        "kappas": "kappa_list", "lambdas": "lambdas", "estimator": "estimator",
        "kinship": "kinship", "a": "a", "sigma": "sigma"}),
}

EXPERIMENT_NAMES = tuple(_STUDIES)


def _slope_cell(beta, se, z):
    """(slope, se, covered) of the coefficient on x, the design's column 1:
    covered is 1.0 when slope -/+ z * se brackets 0."""
    slope, se = float(beta[1]), float(se[1])
    return slope, se, float(slope - z * se <= 0.0 <= slope + z * se)


def _run_study(name, one_rep, reps, seed, threads, config, cells, columns,
               row_fields, rep_keys=None):
    """Run one_rep over the replicates and assemble the report (see module doc)."""
    per_rep = np.asarray(_map_reps(one_rep, reps, threads)).reshape(
        reps, len(cells), len(columns))
    rows = []
    replicates = []
    for j, cell in enumerate(cells):
        cols = {col: per_rep[:, j, k] for k, (col, _) in enumerate(columns)}
        est = per_rep[:, j, 0]
        row = dict(cell)
        for spec in row_fields:
            key, source = spec if isinstance(spec, tuple) else (spec, spec)
            if not isinstance(source, str):
                row[key] = source
            elif source in _ROW_STATS:
                row[key] = float(_ROW_STATS[source](est, cols))
            else:
                row[key] = float(cols[source].mean())
        row["reps"] = reps
        rows.append(row)
        keys = {k: cell[k] for k in (rep_keys or cell)}
        replicates.extend(
            {**keys, "rep": r, **{col: cast(cols[col][r]) for col, cast in columns}}
            for r in range(reps)
        )
    return ExperimentReport(name=name, reps=reps, seed=seed, config=config,
                            rows=rows, replicates=replicates)


def _cell_factors(net, kappa_list, lambdas, a, sigma, estimator, kinship):
    """{(kappa, lambda): the estimator's factor of K_lambda}; no K is kept."""
    factor = _lmm_factor if estimator == "lmm" else _gls_factor
    kin = _clipped_adjacency_kinship(net) if kinship == "adjacency" else None
    factors = {}
    for kappa in kappa_list:
        base = kin if kin is not None else transmission_covariance(net, a, sigma, kappa)
        dbase = np.diag(np.diag(base))
        for lam in lambdas:
            try:
                factors[kappa, lam] = factor((1.0 - lam) * base + lam * dbase, net.n)
            except BadCovarianceError as exc:
                if (estimator, kinship) != ("gls", "adjacency"):
                    raise
                raise BadCovarianceError(
                    f"gls cannot use kinship='adjacency' at lambda={lam!r}: the "
                    f"PSD-clipped adjacency kinship is singular ({exc}); use lambdas "
                    "that are all > 0, or the lmm estimator (--estimator lmm)") from exc
    return factors


def _clipped_adjacency_kinship(net):
    w = adjacency_weights(net)
    lam, u = np.linalg.eigh(w)
    lam = np.clip(lam, 0.0, None)
    k = (u * lam) @ u.T
    k = (k + k.T) / 2.0
    d = np.diagonal(k).mean()
    return k / d


def _corr_settings(settings):
    if settings is None:
        return list(DEFAULT_CORR_SETTINGS)
    out = [("iid", None)]
    for s in _cells("settings", settings, least=0):
        if isinstance(s, tuple) and len(s) == 2:
            label, cfg = s
            if cfg is not None and not isinstance(cfg, TransmissionConfig):
                raise InputError(f"setting {label!r} must map to a TransmissionConfig or None")
            if cfg is None and label == "iid":
                continue  # baseline is always present
            out.append((str(label), None if cfg is None else cfg._checked()))
        else:
            sigma = float(_real("sigma", s, 0))
            out.append((f"sigma={sigma:g}", TransmissionConfig(a=0.9, sigma=sigma, kappa=10)))
    return out


def _pearson(x, y):
    """The correlation of x and y, from their centred values scaled by powers
    of two (deptest._centre), so that no sum of squares overflows."""
    (dx, sx), (dy, sy) = _centre(x), _centre(y)
    return float((dx @ dy) / np.sqrt(sx * sy))


def _rng(exp, seed, rep, tag):
    return np.random.default_rng(np.random.SeedSequence((exp, seed, rep, tag)))


def _seed_int(exp, seed, rep, tag):
    return int(np.random.SeedSequence((exp, seed, rep, tag)).generate_state(1, np.uint64)[0])


def _map_reps(fn, reps, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(reps)))
    return [fn(r) for r in range(reps)]
