"""Command line front end.

One verb per analysis: exact trajectory tables, level words, spread
identities, return matrices, the transfer-operator density, and the
experiment drivers with CSV/JSON/plot emission.  `verify` runs the
acceptance checks and is the only verb whose exit status encodes a result:
0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

# The level verbs need only these numpy-free modules; every other verb
# imports its modules itself, so traj/word/rho/matrix never load numpy.
from . import GaprenormError
from .cf import (
    CellBoundaryError,
    ExpansionExhaustedError,
    classify_cell,
    gap_trajectory,
    parse_theta_spec,
)
from .exact import exact_str
from .substitution import A, expand_word, levels, return_matrix


def _resolve_theta_spec(spec: str, den_bound: int | None) -> str:
    """Expand the CLI-only dec: form into an exact rat: spec."""
    if not spec.startswith("dec:"):
        return spec
    if den_bound is None:
        raise ValueError("dec: input needs --den-bound to fix the approximation")
    if den_bound < 2:
        raise ValueError("--den-bound must be at least 2")
    try:
        value = Fraction(spec[4:])
    except ValueError as exc:
        raise ValueError(f"cannot read decimal {spec[4:]!r}") from exc
    if not 0 < value < 1:
        raise ValueError("decimal theta must lie strictly between 0 and 1")
    value = value.limit_denominator(den_bound)
    return f"rat:{value.numerator}/{value.denominator}"


def _add_theta(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--theta",
        required=required,
        help="rotation number: rat:p/q, cf:[a1,a2,...], cfper:[pre][per], "
        "or dec:0.123 with --den-bound",
    )
    parser.add_argument(
        "--den-bound",
        type=int,
        default=None,
        help="largest denominator when converting a dec: input",
    )


def _add_config(parser: argparse.ArgumentParser, *fields: str) -> None:
    """One flag per config field in `fields`, the ones the verb's driver reads."""
    helps = {"k": "threshold family depth",
             "epsilon": "threshold family exponent bump"}
    for name in fields:
        parser.add_argument("--" + name.replace("_", "-"), default=None,
                            type=float if name == "epsilon" else int,
                            help=helps.get(name))
    parser.set_defaults(config_fields=fields)


def _add_emit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fmt", choices=("csv", "json", "plot"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default: summary only)")
    parser.add_argument(
        "--plot-fields", default=None, help="X,Y field names for --fmt plot"
    )


def _build_config(args: argparse.Namespace):
    from .experiments import ExperimentConfig

    merged = {name: getattr(args, name) for name in args.config_fields
              if getattr(args, name) is not None}
    if getattr(args, "theta", None) is not None:
        merged["theta_spec"] = _resolve_theta_spec(args.theta, args.den_bound)
    return ExperimentConfig(**merged)


def _emit_or_summarize(args, records, meta, summary_lines) -> None:
    from .experiments import emit

    if args.out is not None:
        plot_fields = None
        if args.plot_fields is not None:
            parts = [p.strip() for p in args.plot_fields.split(",")]
            if len(parts) != 2:
                raise ValueError("--plot-fields wants exactly two names: X,Y")
            plot_fields = (parts[0], parts[1])
        path = emit(records, args.fmt, args.out, meta=meta, plot_fields=plot_fields)
        print(f"wrote {len(records)} records to {path}")
    for line in summary_lines:
        print(line)


def _parse_theta(args: argparse.Namespace):
    return parse_theta_spec(_resolve_theta_spec(args.theta, args.den_bound))


# ---------------------------------------------------------------------------
# verbs


def _reached(walk, theta, n):
    """(walk(theta, n), None), or, when a rational theta runs out first, the
    walk to the last level it reached and the exhaustion, raised later."""
    try:
        return walk(theta, n), None
    except ExpansionExhaustedError as exc:
        if exc.steps_completed is None:
            raise
        return walk(theta, exc.steps_completed), exc


def _print_levels(args, rows, header, line, error=None) -> int:
    """Print the rows as JSON (--json) or as a header (if any) over one
    line(row) each; then raise `error`, the level a verb could not reach."""
    if args.json:
        print(json.dumps({"theta_spec": args.theta, "levels": rows}, indent=2))
    else:
        for text in ([header] if header else []) + [line(r) for r in rows]:
            print(text)
    if error:
        raise error
    return 0


def cmd_traj(args) -> int:
    traj, exhausted = _reached(gap_trajectory, _parse_theta(args), args.depth)
    rows, boundary = [], None
    for n, step in enumerate(traj.steps):
        try:
            cell = str(classify_cell(step))
        except CellBoundaryError as exc:
            # a rational's last level may sit on a cell endpoint: print it,
            # then report the error
            if n < len(traj.steps) - 1:
                raise
            cell, boundary = "endpoint", exc
        rows.append(
            {
                "n": n,
                "theta_n": float(step.value),
                "cell": cell,
                "a1": step.a1,
                "e": step.e,
                "delta": exact_str(step.delta),
            }
        )
    return _print_levels(
        args, rows, f"{'n':>3} {'theta_n':>20} {'a1':>6} {'E':>3}  cell / delta",
        lambda r: (f"{r['n']:>3} {r['theta_n']:>20.15f} {r['a1']:>6} {r['e']:>3}"
                   f"  {r['cell']}   delta = {r['delta']}"),
        exhausted or boundary)


def cmd_word(args) -> int:
    theta = _parse_theta(args)
    word = expand_word(levels(theta, args.level).rules, args.letter,
                       max_len=args.max_len)
    print(word)
    return 0


def cmd_rho(args) -> int:
    lv, exhausted = _reached(levels, _parse_theta(args), args.level)
    rows = []
    for n in range(1, len(lv.rules) + 1):
        rho, half = lv.stats[n][A].rho, lv.halfsums[n]
        rows.append(
            {
                "n": n,
                "rho": rho,
                "halfsum": half,
                "xi": rho - half,
                "length": lv.lengths[n][0],
            }
        )
    return _print_levels(
        args, rows, f"{'n':>3} {'rho':>8} {'halfsum':>8} {'xi':>4} {'length':>12}",
        lambda r: (f"{r['n']:>3} {r['rho']:>8} {r['halfsum']:>8} {r['xi']:>4}"
                   f" {r['length']:>12}"),
        exhausted)


def cmd_matrix(args) -> int:
    lv, exhausted = _reached(levels, _parse_theta(args), args.level)
    a, b, c, d = 1, 0, 0, 1
    rows = []
    for n, rule in enumerate(lv.rules, start=1):
        p, q, r, s = return_matrix(rule)
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        t = a + d
        rows.append(
            {
                "n": n,
                "step": [[p, q], [r, s]],
                "product": [[a, b], [c, d]],
                "lengths": lv.lengths[n],
                "top_eigenvalue": (t + math.sqrt(t * t - 4 * (a * d - b * c))) / 2,
            }
        )
    return _print_levels(
        args, rows, None,
        lambda r: (f"n={r['n']:>2}  step={r['step']}  product="
                   f"{str(r['product']).replace(' ', '')}  lengths={r['lengths']}"
                   f"  top~{r['top_eigenvalue']:.4f}"),
        exhausted)


def cmd_ulam(args) -> int:
    from .experiments import tool_version
    from .measure import build_ulam, stationary_density

    op = build_ulam(args.bins)
    density = stationary_density(op, tol=args.tol)
    summary = {
        "bins": density.bins,
        "residual": density.residual,
        "row_defect": op.row_defect,
        "min_density": density.min_density,
        "max_density": density.max_density,
        "mass_upper_half": density.mass_upper_half,
        "version": tool_version(),
    }
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(density.to_json(), fh)
        print(f"wrote density to {args.out}")
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"bins {summary['bins']}, residual {summary['residual']:.3e}, "
            f"density in [{summary['min_density']:.4f}, {summary['max_density']:.4f}], "
            f"upper-half mass {summary['mass_upper_half']:.6f}"
        )
    return 0


def cmd_khinchin(args) -> int:
    from .measure import khinchin_experiment

    cfg = _build_config(args)
    window = None
    if args.window is not None:
        lo, _, hi = args.window.partition(",")
        try:
            window = (int(lo), int(hi))
        except ValueError:
            raise ValueError(f"--window wants lo,hi integers, got {args.window!r}")
    result = khinchin_experiment(
        args.family,
        samples=cfg.samples,
        n_max=args.n_max,
        rng_seed=cfg.seed,
        window=window,
    )
    meta = cfg.to_meta()
    meta.update(
        family=result.family,
        n_max=result.n_max,
        window_lo=result.window[0],
        window_hi=result.window[1],
        median_count=result.median_count,
        resamples=result.resamples,
    )
    _emit_or_summarize(
        args,
        result.records,
        meta,
        [
            f"family {result.family}: {result.samples} samples over "
            f"window {result.window}",
            f"median exceedances {result.median_count:g}, total "
            f"{result.total_count}, first-half total {result.total_half_count}",
        ],
    )
    return 0


def cmd_growth(args) -> int:
    from .experiments import IteratedLogFamily, run_growth_experiment

    cfg = _build_config(args)
    family = IteratedLogFamily(cfg.k, cfg.epsilon)
    records = run_growth_experiment(cfg, family)
    meta = cfg.to_meta()
    last = records[-1]
    exceed = sum(
        1 for r in records if not math.isnan(r.f_of_n) and r.rho_omega >= r.f_of_n
    )
    _emit_or_summarize(
        args,
        records,
        meta,
        [
            f"depth {last.n}: rho {last.rho_omega}, halfsum {last.halfsum}, "
            f"f(n) {last.f_of_n:.4f}, F(n) {last.F_of_n:.4f}",
            f"{exceed} of {len(records)} levels at or above the threshold",
        ],
    )
    return 0


def cmd_trimmed(args) -> int:
    from .experiments import run_trimmed_sums

    cfg = _build_config(args)
    try:
        checkpoints = tuple(int(c) for c in args.checkpoints.split(","))
    except ValueError:
        raise ValueError(
            f"--checkpoints wants comma-separated integers, got {args.checkpoints!r}"
        )
    records, summary = run_trimmed_sums(cfg, checkpoints=checkpoints)
    meta = cfg.to_meta()
    lines = [
        f"n={n}: median trimmed ratio {v:.4f}"
        for n, v in sorted(summary["median_ratio"].items())
    ]
    _emit_or_summarize(args, records, meta, lines)
    return 0


def cmd_boundedpq(args) -> int:
    from .experiments import run_bounded_pq_check

    cfg = _build_config(args)
    x0 = Fraction(args.x0)
    records, summary = run_bounded_pq_check(cfg, x0=x0)
    meta = cfg.to_meta()
    meta["theta_spec"] = summary["theta_spec"]
    lo, hi = summary["ratio_band"]
    _emit_or_summarize(
        args,
        records,
        meta,
        [
            f"theta {summary['theta_spec']}, x0 {x0}",
            f"rho/log N in [{lo:.4f}, {hi:.4f}] "
            f"(band ratio {hi / lo:.3f}), monotone={summary['monotone']}",
        ],
    )
    return 0


def cmd_limsup(args) -> int:
    from .experiments import run_limsup_probe

    cfg = _build_config(args)
    records, summary = run_limsup_probe(cfg)
    meta = cfg.to_meta()
    meta["fraction_still_climbing"] = summary["fraction_still_climbing"]
    _emit_or_summarize(
        args,
        records,
        meta,
        [
            f"{len(records)} samples at depth {cfg.depth}: "
            f"{summary['fraction_still_climbing']:.2f} still climbing in the "
            "final third (records this rare are expected at desk scale)",
        ],
    )
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    numbers = None
    if args.only is not None:
        numbers = [int(tok) for tok in args.only.split(",")]
    verdicts = verify_mod.run_all(numbers)
    if args.json:
        print(json.dumps([dataclasses.asdict(v) for v in verdicts], indent=2))
    else:
        for v in verdicts:
            mark = "PASS" if v.passed else "FAIL"
            print(f"{mark} {v.criterion:>2} {v.name:<20} {v.seconds:7.2f}s  {v.details}")
    return 0 if verify_mod.all_passed(verdicts) else 1


# ---------------------------------------------------------------------------
# wiring


class _VersionAction(argparse.Action):
    """--version; asks git for the revision only when the flag is given."""

    def __init__(self, option_strings, dest):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        from .experiments import tool_version

        print(tool_version())
        parser.exit()


def _threshold_family(name: str) -> str:
    from .measure import THRESHOLD_FAMILIES

    if name not in THRESHOLD_FAMILIES:
        choices = ", ".join(map(repr, sorted(THRESHOLD_FAMILIES)))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {choices})")
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaprenorm",
        description="Renormalization toolkit for half-discrepancy sums of "
        "irrational rotations.",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("traj", help="exact trajectory table of the gap dynamics")
    _add_theta(p)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_traj)

    p = sub.add_parser("word", help="expand the level word")
    _add_theta(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--letter", choices=("A", "B", "C"), default=A)
    p.add_argument("--max-len", type=int, default=100_000)
    p.set_defaults(fn=cmd_word)

    p = sub.add_parser("rho", help="level spreads against their half-sums")
    _add_theta(p)
    p.add_argument("--level", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("matrix", help="return matrices and their running product")
    _add_theta(p)
    p.add_argument("--level", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("ulam", help="stationary density of the transfer operator")
    p.add_argument("--bins", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None, help="write the density as JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ulam)

    p = sub.add_parser("khinchin", help="window exceedances of the leading quotient")
    p.add_argument("--family", type=_threshold_family, default="linear",
                   help="threshold family; a wrong name lists the choices")
    p.add_argument("--n-max", type=int, default=5000)
    p.add_argument("--window", default=None, help="lo,hi window of orbit steps")
    _add_config(p, "samples", "seed")
    _add_emit(p)
    p.set_defaults(fn=cmd_khinchin)

    p = sub.add_parser("growth", help="per-level spread against a threshold family")
    _add_theta(p, required=False)
    _add_config(p, "depth", "seed", "k", "epsilon")
    _add_emit(p)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("trimmed", help="half-sums with the largest term removed")
    _add_theta(p, required=False)
    _add_config(p, "samples", "depth", "seed")
    _add_emit(p)
    p.add_argument("--checkpoints", default="25,50,100,200")
    p.set_defaults(fn=cmd_trimmed)

    p = sub.add_parser("boundedpq", help="orbit spread over log N, bounded quotients")
    _add_theta(p, required=False)
    _add_config(p, "orbit_length")
    _add_emit(p)
    p.add_argument("--x0", default="0", help="orbit base point, as p/q")
    p.set_defaults(fn=cmd_boundedpq)

    p = sub.add_parser("limsup", help="running max of the scaled spread per sample")
    _add_theta(p, required=False)
    _add_config(p, "samples", "depth", "seed")
    _add_emit(p)
    p.set_defaults(fn=cmd_limsup)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--only", default=None, help="comma-separated criteria numbers")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, GaprenormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
