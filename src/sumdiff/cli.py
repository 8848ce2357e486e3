"""Command line interface.

Subcommands: sample, predict, compare, enumerate, sweep, crossover,
verify-bounds.  Exit codes: 0 success, 1 usage error, 2 runtime or
resource error, 3 bound-verification violation.
"""

from __future__ import annotations

import argparse
import sys
import time

from .bounds import alt_parameterization, ratio_claim
from .errors import BracketingError, ExperimentAborted, ResourceBudgetError
from .experiments import (
    ExperimentConfig,
    StatisticsSpec,
    _format_value,
    _statistic_columns,
    empirical_crossover,
    enumerate_exhaustive,
    load_config,
    records_to_csv,
    results_to_json,
    run_experiment,
    run_trial,
    verify_bounds,
)
from .predictions import REGIMES, asymptotic_bundle
from .sampling import PFamily
from .sets import LinearForm, _domination_label
from .thresholds import classify_pair

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_form(text: str) -> LinearForm:
    try:
        coeffs = tuple(int(part) for part in text.split(","))
        return LinearForm(coeffs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, help="explicit inclusion probability")
    parser.add_argument("--c", type=float, help="power-law coefficient: p(N) = c * N^-delta")
    parser.add_argument("--delta", type=float, help="power-law exponent")


def _family_from(args) -> PFamily:
    if args.p is None and args.c is None and args.delta is None:
        raise ValueError("family required: --p P, or --c C --delta D")
    variant = "power-law" if args.p is None else "explicit"
    return PFamily(variant, p=args.p, c=args.c, delta=args.delta)


def build_parser() -> _Parser:
    parser = _Parser(prog="sumdiff", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("sample", help="draw one set and print its statistics")
    sp.add_argument("--n", type=int, required=True)
    _add_family_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trial-index", type=int, default=0)
    sp.add_argument("--form", action="append", type=_parse_form, default=[])

    pp = sub.add_parser("predict", help="closed-form prediction table")
    pp.add_argument("--n", type=int, required=True)
    _add_family_flags(pp)
    pp.add_argument("--regime", choices=REGIMES,
                    help="required with --p (asymptotic class is undecidable from one point)")
    pp.add_argument("--form", action="append", type=_parse_form, default=[])

    cp = sub.add_parser("compare", help="classify a pair of difference forms")
    cp.add_argument("--form", action="append", type=_parse_form, required=True,
                    help="repeat twice: --form u1,v1 --form u2,v2")

    ep = sub.add_parser("enumerate", help="classify every subset of [0, N]")
    ep.add_argument("--n", type=int, required=True)

    wp = sub.add_parser("sweep", help="Monte Carlo sweep over N values")
    wp.add_argument("--config", help="JSON config file (instead of the flags below)")
    wp.add_argument("--n", type=int, action="append")
    _add_family_flags(wp)
    wp.add_argument("--trials", type=int)
    wp.add_argument("--seed", type=int)
    wp.add_argument("--threads")
    wp.add_argument("--out", choices=("csv", "json"))
    wp.add_argument("--output-path", help="output file (default: stdout)")
    wp.add_argument("--stats", help="comma list from sizes, missing, xk:K, y (forms via --form)")
    wp.add_argument("--form", action="append", type=_parse_form)

    cr = sub.add_parser("crossover",
                        help="empirical domination frequencies across a c grid")
    cr.add_argument("--form", action="append", type=_parse_form, required=True)
    cr.add_argument("--n", type=int, required=True)
    cr.add_argument("--c-grid", required=True, help="comma-separated c values")
    cr.add_argument("--trials", type=int, default=100)
    cr.add_argument("--seed", type=int, default=0)
    cr.add_argument("--threads", default="auto")

    vb = sub.add_parser("verify-bounds",
                        help="empirical failure rates vs the explicit bounds")
    vb.add_argument("--c", type=float, required=True)
    vb.add_argument("--delta", type=float, required=True)
    vb.add_argument("--g-exp", type=float, required=True)
    vb.add_argument("--n", type=int, required=True)
    vb.add_argument("--trials", type=int, default=1000)
    vb.add_argument("--seed", type=int, default=0)
    vb.add_argument("--alt", action="store_true", help="also print the delta < 3/4 variant")
    return parser


def _cmd_sample(args) -> int:
    spec = StatisticsSpec(forms=tuple(args.form))
    config = ExperimentConfig((args.n,), _family_from(args), 1, args.seed, spec)
    r = run_trial(config, args.n, args.trial_index)
    print(f"N={args.n} p={r.p:.17g} seed={args.seed} trial={args.trial_index}")
    for col in _statistic_columns(spec):  # the statistic cells of the sweep CSV
        print(f"{col.name}={_format_value(col.cell(r))}")
    print(f"classification={_domination_label(r.sumset_size, r.diffset_size)}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    family = _family_from(args)
    bundle = asymptotic_bundle(args.n, family, tuple(args.form), regime=args.regime)
    print(f"N={args.n} p={bundle.p:.17g} regime={bundle.regime}"
          + (f" c={bundle.c:.17g}" if bundle.c is not None else ""))
    print(f"S_pred={bundle.S_pred:.6f} D_pred={bundle.D_pred:.6f}")
    print(f"Sc_pred={bundle.Sc_pred:.6f} Dc_pred={bundle.Dc_pred:.6f}")
    for f, (df, dfc) in bundle.forms.items():
        print(f"form {f}: Df_pred={df:.6f} Dfc_pred={dfc:.6f}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    if len(args.form) != 2:
        raise ValueError("compare needs exactly two --form arguments")
    f, g = args.form
    report = classify_pair(f, g)
    print(f"f={f} g={g} case={report.case}")
    print(f"dominator_below={report.dominator_below} dominator_above={report.dominator_above}")
    if report.c_threshold is not None:
        print(f"c_threshold={report.c_threshold:.12g}")
    print(report.validity_note)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    counts = enumerate_exhaustive(args.n)
    total = sum(counts.values())
    print(f"N={args.n} subsets={total}")
    print(f"sum_dominated={counts['sum_dominated']}")
    print(f"balanced={counts['balanced']}")
    print(f"difference_dominated={counts['difference_dominated']}")
    return EXIT_OK


def _parse_stats(text: str, forms: list[LinearForm]) -> StatisticsSpec:
    sizes = missing = y = False
    max_k = 0
    for token in filter(None, (t.strip() for t in text.split(","))):
        if token == "sizes":
            sizes = True
        elif token == "missing":
            missing = True
        elif token == "y":
            y = True
        elif token.startswith("xk:"):
            max_k = _int_flag(token.split(":", 1)[1], "--stats xk:")
        else:
            raise ValueError(f"unknown statistic {token!r}")
    return StatisticsSpec(sizes=sizes, missing=missing, max_k=max_k, forms=tuple(forms), y=y)


def _int_flag(text: str, flag: str, also: str = "") -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} needs an integer{also}, got {text!r}") from None


def _threads_from(args) -> int | str:
    if args.threads == "auto":
        return "auto"
    return _int_flag(args.threads, "--threads", " or 'auto'")


# The sweep flags that --config replaces, and their defaults without it.  The
# parser leaves them None, so that one given with --config is seen.
_SWEEP_DEFAULTS = {"n": [], "p": None, "c": None, "delta": None, "trials": 100, "seed": 0,
                   "threads": "auto", "out": "csv", "stats": "sizes,missing", "form": []}


def _cmd_sweep(args) -> int:
    given = [name for name in _SWEEP_DEFAULTS if getattr(args, name) is not None]
    if args.config:
        if given:
            raise ValueError(f"--config replaces the other sweep flags, got --{' --'.join(given)}")
        config = load_config(args.config)
    else:
        vars(args).update((name, v) for name, v in _SWEEP_DEFAULTS.items() if name not in given)
        if not args.n:
            raise ValueError("sweep needs --config or at least one --n")
        config = ExperimentConfig(
            n_list=tuple(args.n),
            family=_family_from(args),
            trials=args.trials,
            seed=args.seed,
            statistics=_parse_stats(args.stats, args.form),
            output=args.out,
            threads=_threads_from(args),
        )
    start = time.perf_counter()
    records, summaries = run_experiment(config)
    wall = time.perf_counter() - start
    if config.output == "csv":
        payload = records_to_csv(records, config.statistics)
    else:
        payload = results_to_json(records, summaries, config, wall)
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        print(f"wrote {len(records)} records to {args.output_path} in {wall:.1f}s", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_crossover(args) -> int:
    if len(args.form) != 2:
        raise ValueError("crossover needs exactly two --form arguments")
    try:
        grid = [float(tok) for tok in args.c_grid.split(",")]
    except ValueError:
        raise ValueError(f"--c-grid needs comma-separated numbers, got {args.c_grid!r}") from None
    result = empirical_crossover(
        args.form[0], args.form[1], args.n, grid, args.trials, args.seed,
        threads=_threads_from(args),
    )
    for c, freq in zip(result.c_grid, result.frequencies):
        print(f"c={c:.6g} freq={freq:.4f}")
    if result.crossover is None:
        print("crossover=inconclusive (no 1/2 crossing on the grid)")
    else:
        print(f"crossover={result.crossover:.6g}")
    return EXIT_OK


def _cmd_verify_bounds(args) -> int:
    check = verify_bounds(args.c, args.delta, args.g_exp, args.n, args.trials, args.seed)
    rep = check.report
    claim = ratio_claim(rep)
    print(f"c={rep.c:g} delta={rep.delta:g} g_exp={rep.g_exp:g} N={rep.n} trials={check.trials}")
    print(f"P1={rep.P1:.6g} empirical_cardinality_rate={check.card_violation_rate:.6g}")
    print(f"P2={rep.P2:.6g} empirical_collision_rate={check.y_violation_rate:.6g}")
    print(f"card_interval=[{rep.card_interval[0]:.6g}, {rep.card_interval[1]:.6g}] "
          f"Y_threshold={rep.Y_threshold:.6g}")
    print(f"ratio_claim: 2 + O(N^-{claim.deviation_exponent:g}) "
          f"outside with prob <= {claim.failure_prob_bound:.6g}")
    if args.alt:
        alt = alt_parameterization(args.c, args.delta, args.n)
        if alt.trivial:
            print(f"alt: {alt.note}")
        else:
            print(f"alt: P2={alt.P2:.6g} Y_threshold={alt.Y_threshold:.6g} ({alt.note})")
    for flag in check.flags:
        print(f"VIOLATION: {flag}")
    return EXIT_VIOLATION if check.flags else EXIT_OK


_COMMANDS = {
    "sample": _cmd_sample,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "enumerate": _cmd_enumerate,
    "sweep": _cmd_sweep,
    "crossover": _cmd_crossover,
    "verify-bounds": _cmd_verify_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"sumdiff: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceBudgetError, BracketingError, ExperimentAborted) as exc:
        print(f"sumdiff: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
