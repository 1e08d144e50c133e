"""Command-line interface.

Subcommands: test, residual-test, simulate, experiment, generate-network.
Machine-readable output (JSON by default) goes to --out or stdout; a short
human summary goes to stderr. Exit codes: 0 success, 2 input error,
3 degenerate statistic, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from ._io import (csv_text, document, expect_header, flat_csv_text, json_text, read_csv,
                  write_text)
from ._version import __version__
from .deptest import PermutationConfig, gearys_c, normal_test, permutation_test
from .errors import InputError, NetacorrError, _count
from .experiments import _STUDIES, EXPERIMENT_NAMES, write_report
from .graph import (
    _edge_weights,
    generate_random_network,
    inverse_geodesic_weights,
    load_edge_list,
)
from .inference import ols
from .simulate import (
    ConfoundConfig,
    LatentConfig,
    TransmissionConfig,
    degree_confounded_covariate,
    direct_transmission,
    latent_variable_outcome,
    monotone_pair,
)

THREADS_ENV = "NETACORR_THREADS"

# Significance thresholds are a reporting convention, not part of the test.
_ALPHA_NOTE = ("note: a fixed significance threshold may not be appropriate "
               "for these tests; weigh the statistic itself, not only the p-value")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NetacorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netacorr",
        description="Dependence statistics and Monte Carlo experiments on networks",
    )
    parser.add_argument("--version", action="version", version=f"netacorr {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_test = sub.add_parser("test", help="Moran dependence test on node values")
    _add_edges(p_test, required=True)
    p_test.add_argument("--values", required=True, help="values CSV (node,value)")
    _add_stat_options(p_test)
    p_test.add_argument("--geary", action="store_true", help="also report Geary's c")
    _add_output_options(p_test)
    p_test.set_defaults(func=cmd_test)

    p_res = sub.add_parser("residual-test",
                           help="OLS fit, then the dependence test on residuals")
    _add_edges(p_res, required=True)
    p_res.add_argument("--values", required=True, help="outcome CSV (node,value)")
    p_res.add_argument("--design", required=True,
                       help="covariate CSV (node,<col1>,...); intercept added")
    _add_stat_options(p_res)
    _add_output_options(p_res)
    p_res.set_defaults(func=cmd_residual_test)

    p_sim = sub.add_parser("simulate", help="draw synthetic node values")
    p_sim.add_argument("--model", required=True,
                       choices=["transmission", "latent", "degree-confound", "monotone-pair"])
    _add_edges(p_sim, required=False)
    p_sim.add_argument("--a", type=float, default=0.5, help="transmission strength")
    p_sim.add_argument("--sigma", type=float, default=0.5, help="innovation scale")
    p_sim.add_argument("--kappa", type=_nonneg_int, default=3, help="transmission steps")
    p_sim.add_argument("--length-scale", type=float, default=2.0, help="latent kernel scale")
    p_sim.add_argument("--noise", type=float, default=None,
                       help="noise scale (default 0.5 latent, 1.0 degree-confound)")
    p_sim.add_argument("--b", type=float, default=1.0, help="degree loading")
    p_sim.add_argument("--n", type=_nonneg_int, default=None,
                       help="length for monotone-pair (no network needed)")
    p_sim.add_argument("--seed", type=_nonneg_int, default=0)
    p_sim.add_argument("--out", default=None, help="values CSV path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a named Monte Carlo experiment")
    p_exp.add_argument("name", choices=list(EXPERIMENT_NAMES))
    _add_edges(p_exp, required=False)
    # Study options, --n and --net-seed default to None: a study refuses one
    # it does not take, and otherwise the runner's default applies.
    p_exp.add_argument("--n", type=_nonneg_int, default=None,
                       help="nodes for the default generated network (default 200)")
    p_exp.add_argument("--net-seed", type=_nonneg_int, default=None,
                       help="seed for the default generated network (default 0)")
    p_exp.add_argument("--reps", type=_nonneg_int, default=500)
    p_exp.add_argument("--seed", type=_nonneg_int, default=0)
    p_exp.add_argument("--permutations", type=_pos_int, default=None,
                       help="permutations per dependence test (default 500)")
    p_exp.add_argument("--kappas", type=_int_list, default=None,
                       help="comma-separated transmission horizons")
    p_exp.add_argument("--lambdas", type=_float_list, default=None,
                       help="comma-separated misspecification mixes (gls-correction)")
    p_exp.add_argument("--sigmas", type=_float_list, default=None,
                       help="comma-separated error scales (correlation-distribution)")
    p_exp.add_argument("--effect-sizes", type=_float_list, default=None,
                       help="comma-separated degree loadings (degree-confounding)")
    p_exp.add_argument("--control-degree", action="store_true", default=None,
                       help="add standardized degree to the design (degree-confounding)")
    p_exp.add_argument("--a", type=float, default=None, help="transmission strength")
    p_exp.add_argument("--sigma", type=float, default=None, help="innovation scale")
    p_exp.add_argument("--estimator", choices=["lmm", "gls"], default=None,
                       help="default lmm")
    p_exp.add_argument("--kinship", choices=["transmission", "adjacency"], default=None,
                       help="default transmission")
    p_exp.add_argument("--threads", type=_pos_int, default=None,
                       help=f"replicate worker threads (default ${THREADS_ENV} or 1)")
    p_exp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_exp.add_argument("--out", default=".", help="output directory")
    p_exp.set_defaults(func=cmd_experiment)

    p_gen = sub.add_parser("generate-network", help="write a random network edge list")
    p_gen.add_argument("--model", choices=["erdos-renyi", "small-world"],
                       default="erdos-renyi")
    p_gen.add_argument("--n", type=_nonneg_int, required=True)
    p_gen.add_argument("--p", type=float, default=None,
                       help="edge probability (default mean degree 5)")
    p_gen.add_argument("--k", type=_nonneg_int, default=4, help="small-world ring degree")
    p_gen.add_argument("--rewire-prob", type=float, default=0.05)
    p_gen.add_argument("--seed", type=_nonneg_int, default=0)
    p_gen.add_argument("--no-require-connected", dest="require_connected",
                       action="store_false", default=True)
    p_gen.add_argument("--out", default=None, help="edge CSV path (default stdout)")
    p_gen.set_defaults(func=cmd_generate_network)

    return parser


def _add_edges(parser, required):
    parser.add_argument("--edges", required=required,
                        help="edge-list CSV with header src,dst")


def _add_stat_options(parser):
    parser.add_argument("--weights", default="adjacency",
                        help="adjacency (default) or inverse-geodesic[:gamma]")
    parser.add_argument("--method", choices=["perm", "normal", "both"], default="perm")
    parser.add_argument("--permutations", type=_pos_int, default=500, metavar="M")
    parser.add_argument("--alternative", choices=["greater", "two-sided"],
                        default="greater")
    parser.add_argument("--seed", type=_nonneg_int, default=0)
    parser.add_argument("--threads", type=_pos_int, default=None,
                        help="accepted and ignored: the test runs serially")


def _add_output_options(parser):
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def cmd_test(args):
    net, labels = load_edge_list(args.edges)
    y = _load_values_csv(args.values, labels)
    w = _weights_for(net, args.weights)
    res = _run_test(y, w, args)
    result = _result_fields(res)
    if args.geary:
        result["gearys_c"] = gearys_c(y, w)
    _emit(document(command="test", options=_echo_stat_options(args), result=result), args)
    _human_summary("test", res)
    return 0


def cmd_residual_test(args):
    net, labels = load_edge_list(args.edges)
    y = _load_values_csv(args.values, labels)
    names, xcols = _load_node_table(args.design, labels, "design")
    design = np.column_stack([np.ones(len(y)), xcols])
    fit = ols(y, design)
    res = _run_test(fit.residuals, _weights_for(net, args.weights), args)
    fitted = {
        "names": ["intercept"] + names,
        "beta": [float(b) for b in fit.beta],
        "se": [float(s) for s in fit.se],
        "ci": [[float(lo), float(hi)] for lo, hi in fit.ci],
        "sigma2": fit.sigma2,
    }
    options = _echo_stat_options(args, design=args.design)
    _emit(document(command="residual-test", options=options, fit=fitted,
                   result=_result_fields(res)), args)
    _human_summary("residual-test", res)
    return 0


def cmd_simulate(args):
    write_text(args.out, csv_text(*_simulated_table(args)))
    return 0


def _simulated_table(args):
    """The header and rows of the simulate CSV; floats go out as their repr."""
    if args.model == "monotone-pair":
        if args.n is None:
            raise InputError("monotone-pair needs --n (it draws no network)")
        x, y = monotone_pair(args.n, seed=args.seed)
        return ("node", "x", "y"), zip(range(args.n), x.tolist(), y.tolist())
    if args.edges is None:
        raise InputError(f"model {args.model!r} needs --edges")
    net, labels = load_edge_list(args.edges)
    if args.model == "transmission":
        cfg = TransmissionConfig(a=args.a, sigma=args.sigma, kappa=args.kappa,
                                 seed=args.seed)
        y = direct_transmission(net, cfg)
    elif args.model == "latent":
        noise = 0.5 if args.noise is None else args.noise
        cfg = LatentConfig(length_scale=args.length_scale, noise=noise, seed=args.seed)
        y = latent_variable_outcome(net, cfg)
    else:  # degree-confound
        noise = 1.0 if args.noise is None else args.noise
        cfg = ConfoundConfig(b=args.b, noise=noise, seed=args.seed)
        y = degree_confounded_covariate(net, cfg)
    return ("node", "value"), zip(labels, y.tolist())


def cmd_experiment(args):
    runner, options = _STUDIES[args.name]
    _check_study_options(args, options)
    net = _experiment_network(args)
    threads = _threads_for(args)
    kwargs = {kw: getattr(args, opt) for opt, kw in options.items()
              if getattr(args, opt) is not None}
    run = runner(net, reps=args.reps, seed=args.seed, threads=threads, **kwargs)
    for path in write_report(run, args.out, fmt=args.format):
        print(path)
    for row in run.rows:
        print("  " + "  ".join(f"{k}={_fmt_cell(v)}" for k, v in row.items()),
              file=sys.stderr)
    print(_ALPHA_NOTE, file=sys.stderr)
    return 0


def cmd_generate_network(args):
    net = generate_random_network(
        args.n, args.model, p=args.p, k=args.k, rewire_prob=args.rewire_prob,
        seed=args.seed, require_connected=args.require_connected,
    )
    write_text(args.out, csv_text(("src", "dst"), net.edges))
    print(f"{args.model} network: n={net.n}, edges={len(net.edges)}", file=sys.stderr)
    return 0


def _run_test(y, w, args):
    if args.method in ("perm", "both"):
        cfg = PermutationConfig(m=args.permutations, seed=args.seed,
                                alternative=args.alternative)
        return permutation_test(y, w, cfg)
    return normal_test(y, w, alternative=args.alternative)


def _result_fields(res):
    mom = res.moments
    return {
        "statistic": res.i_stat,
        "i_std": res.i_std,
        "mean_null": None if mom is None else mom.mean_i,
        "var_null": None if mom is None else mom.var_i,
        "p_perm": res.p_perm,
        "p_normal": res.p_normal,
        "m": res.m_used,
        "n": res.n,
        "s0": res.s0,
    }


def _echo_stat_options(args, **extra):
    opts = {
        "edges": args.edges,
        "values": args.values,
        "weights": args.weights,
        "method": args.method,
        "permutations": args.permutations if args.method in ("perm", "both") else None,
        "alternative": args.alternative,
        "seed": args.seed,
        "format": args.format,
    }
    opts.update(extra)
    return opts


def _human_summary(kind, res):
    bits = [f"I={res.i_stat:.6g}"]
    if res.i_std is not None:
        bits.append(f"I_std={res.i_std:.4g}")
    if res.p_perm is not None:
        bits.append(f"p_perm={res.p_perm:.4g} (M={res.m_used})")
    if res.p_normal is not None:
        bits.append(f"p_normal={res.p_normal:.4g}")
    print(f"{kind}: " + "  ".join(bits) + f"  [n={res.n}]", file=sys.stderr)
    print(_ALPHA_NOTE, file=sys.stderr)


def _emit(doc, args):
    write_text(args.out, json_text(doc) if args.format == "json" else flat_csv_text(doc))


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _check_study_options(args, options):
    """Refuse a given option that the study does not take: another study's
    option, or --n or --net-seed next to --edges."""
    foreign = [opt for _, opts in _STUDIES.values() for opt in opts if opt not in options]
    if args.edges is not None:
        foreign += ["n", "net_seed"]
    for opt in foreign:
        if getattr(args, opt) is not None:
            where = " with --edges" if opt in ("n", "net_seed") else ""
            raise InputError(f"--{opt.replace('_', '-')} does not apply to study "
                             f"{args.name!r}{where}")


def _experiment_network(args):
    if args.edges is not None:
        net, _labels = load_edge_list(args.edges)
        return net
    return generate_random_network(200 if args.n is None else args.n, "erdos-renyi",
                                   seed=0 if args.net_seed is None else args.net_seed,
                                   require_connected=True)


def _weights_for(net, spec):
    if spec == "adjacency":
        return _edge_weights(net)
    if spec == "inverse-geodesic":
        return inverse_geodesic_weights(net, gamma=1.0)
    if spec.startswith("inverse-geodesic:"):
        raw = spec.split(":", 1)[1]
        try:
            gamma = float(raw)
        except ValueError:
            raise InputError(f"bad gamma in weights spec {spec!r}") from None
        return inverse_geodesic_weights(net, gamma=gamma)
    raise InputError(
        f"unknown weights spec {spec!r}; use adjacency or inverse-geodesic[:gamma]"
    )


def _threads_for(args):
    if args.threads is not None:
        return args.threads
    env = os.environ.get(THREADS_ENV)
    if not env:
        return 1
    try:
        val = int(env)
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    return _count(THREADS_ENV, val, 1)


def _load_values_csv(path, labels):
    _names, table = _load_node_table(path, labels, "values")
    return table.ravel()  # the one value column


def _design_header(header):
    if len(header) < 2 or header[0].lower() != "node":
        return f"design header must be node,<col1>[,...], got {','.join(header)!r}"


_NODE_TABLE_HEADERS = {"values": expect_header("node", "value"), "design": _design_header}


def _load_node_table(path, labels, kind):
    """Column names and an (n, columns) array of a node-keyed numeric CSV.

    Rows are reordered to match labels. kind "values" needs the header
    node,value; kind "design" takes node,<col1>[,...].
    """
    rows = read_csv(path, _NODE_TABLE_HEADERS[kind])
    _name, header = next(rows)
    seen = {}
    for rownum, row in rows:
        if len(row) != len(header) or not row[0].strip():
            raise InputError(f"{path}: malformed {kind} row {rownum}: {row!r}")
        label = row[0].strip()
        if label in seen:
            raise InputError(f"{path}: duplicate node {label!r} at row {rownum}")
        try:
            vals = [float(v) for v in row[1:]]
        except ValueError:
            raise InputError(
                f"{path}: non-numeric {kind} entry for node {label!r} at row {rownum}"
            ) from None
        if not all(math.isfinite(v) for v in vals):
            raise InputError(f"{path}: non-finite {kind} entry for node {label!r}")
        seen[label] = vals
    _check_label_match(path, seen, labels)
    return header[1:], np.array([seen[lab] for lab in labels])


def _check_label_match(path, seen, labels):
    label_set = set(labels)
    missing = [lab for lab in labels if lab not in seen]
    extra = [lab for lab in seen if lab not in label_set]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing nodes: {', '.join(sorted(missing))}")
        if extra:
            parts.append(f"unknown nodes: {', '.join(sorted(extra))}")
        raise InputError(f"{path}: node labels do not match the edge list ({'; '.join(parts)})")


def _nonneg_int(text):
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if val < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {val}")
    return val


def _pos_int(text):
    val = _nonneg_int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {val}")
    return val


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


if __name__ == "__main__":
    sys.exit(main())
