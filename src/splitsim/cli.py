"""Command-line interface.

Subcommands: simulate, sweep, bound-check, verify-lemma2, expand, scaling.
Exit codes: 0 success, 1 assertion failure (a verified claim did not hold),
2 invalid input, including input whose result overflows or is not finite.
:func:`main` builds the argument parser on its first call and reuses it on
every later call in the same process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds, harness, series
from .schedules import word_from_json

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INVALID = 2


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(doc: dict, out: str | None) -> None:
    text = harness.stable_json_dumps(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    cfg = harness.RunConfig.from_json(_load_json(args.config))
    points = [{"K": k, "N": n, "error": e} for k, n, e in harness.k_list_errors(cfg)[1]]
    _emit({"scheme": cfg.scheme, "t": cfg.t, "config": cfg.to_json(), "points": points}, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = harness.RunConfig.from_json(_load_json(args.config))
    result = harness.sweep_error_vs_K(cfg)
    text = harness.stable_json_dumps(result.to_json())  # rejects NaN before anything is written
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep_result.json").write_text(text, encoding="utf-8")
    (out_dir / "points.csv").write_text(result.points_csv(), encoding="utf-8")
    return EXIT_OK


def _cmd_bound_check(args) -> int:
    report = harness.lemma1_campaign(args.instances, args.seed)
    _emit(report.to_json(), args.out)
    if not report.ok:
        print(
            f"dominance violated on {len(report.violations)} instance(s)",
            file=sys.stderr,
        )
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_verify_lemma2(args) -> int:
    result = bounds.lemma2_max(args.n)
    third = 1.0 / 3.0
    if result.max_s < third:
        print(
            f"max S = {result.max_s:.6f} < 1/3 (margin {third - result.max_s:.3e}) "
            f"at N={result.n}"
        )
        code = EXIT_OK
    else:
        print(f"max S = {result.max_s:.6f} >= 1/3 at N={result.n}: claim violated")
        code = EXIT_ASSERTION
    _emit(result.to_json(), args.out)
    return code


def _cmd_expand(args) -> int:
    word = word_from_json(_load_json(args.word))
    try:
        a_str, b_str = args.pair.split(",")
        a, b = int(a_str), int(b_str)
    except ValueError as exc:
        raise ValueError(f"--pair expects 'a,b' with integers, got {args.pair!r}") from exc
    audit = bounds.audit_schedule(word, a, b, args.dt_unit)
    dump = series.series_to_json(series.word_series(word, max(word.max_index(), a, b)))
    if audit.verdict == "obstructed":
        print(
            f"pair ({a},{b}): s = {audit.s:.6f} < 1/3 (gap {audit.gap:.6f}), obstructed"
        )
    else:
        print(
            f"pair ({a},{b}): per-term totals ({audit.alpha_sum:.6f}, {audit.beta_sum:.6f}) "
            f"!= 1, mistimed"
        )
    _emit({"series": dump, "audit": audit.to_json()}, args.out)
    return EXIT_OK


def _cmd_scaling(args) -> int:
    cfg = harness.ScalingConfig.from_json(_load_json(args.config))
    _emit(harness.scaling_cross_check(cfg).to_json(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsim",
        description="Positive-time product-formula simulation lab: sweeps, bounds, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single run, JSON report to stdout or --out")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="error-vs-K sweep: JSON + CSV into --out dir")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("bound-check", help="random-instance bound dominance campaign")
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bound_check)

    p = sub.add_parser("verify-lemma2", help="maximize the triple-product sum S")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify_lemma2)

    p = sub.add_parser("expand", help="series dump + third-order audit of a word")
    p.add_argument("--word", required=True, help="path to a word JSON file")
    p.add_argument("--pair", required=True, help="term pair 'a,b'")
    p.add_argument("--dt-unit", dest="dt_unit", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("scaling", help="minimum-N exponent cross-check")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_scaling)

    return parser


_shared_parser = functools.cache(build_parser)  # built on the first call, not at import


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_INVALID if exc.code not in (0,) else 0
    try:
        # An overflowing or undefined numpy operation means out-of-envelope input.
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except (ValueError, OverflowError, FloatingPointError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
