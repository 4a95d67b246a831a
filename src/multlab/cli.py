"""Command-line front end.

Subcommands:

* ``mult "(x^2, x*y, y^3)"`` -- Hilbert-Samuel multiplicity (and colength).
* ``mixed "(x,y^2)" "(x^2,y)"`` -- mixed multiplicities, optional --type.
* ``br --module "(x,y^2);(x^2,y)"`` -- Buchsbaum-Rim, optional --cross-check.
* ``verify`` -- run the seeded inequality suite from flags or a config file.
* ``fuzz`` -- time-budgeted randomized search for violations.

Exit codes: 0 success, 1 bad usage or unparsable input, 2 a verified
inequality failed (or --cross-check disagreed), 3 a difference table failed
to stabilize or stabilized on an impossible value (ImpossibleValueError),
130 interrupted (Ctrl-C); every report line written before the interrupt
stays in the --report file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .buchsbaum_rim import (
    DirectSumModule,
    br_direct,
    br_via_mixed,
    scale_by_m,
)
from .errors import ParseError, StabilizationError
from .expr import format_ideal, parse_ideal, parse_ideals, parse_module
from .harness import CHECK_NAMES, CorpusConfig, Tally, fuzz, run_suite, write_jsonl, write_summary_csv
from .lengths import colength
from .multiplicity import hilbert_samuel, mixed_multiplicity

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_UNSTABLE = 3
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we reserve 2 for violations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _jobs_default() -> int:
    """Worker processes from $MULTLAB_JOBS, a positive int; 1 when it is unset or blank."""
    env = os.environ.get("MULTLAB_JOBS", "").strip()
    if not env:
        return 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ParseError(f"MULTLAB_JOBS must be a positive integer, got {env!r}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="multlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_mult = sub.add_parser("mult", help="Hilbert-Samuel multiplicity of one ideal")
    p_mult.add_argument("ideal", help='generators, e.g. "(x^2, x*y, y^3)"')
    p_mult.add_argument("--dim", type=int, default=None, help="ambient dimension")
    p_mult.add_argument("--scale-by-m", action="store_true", help="replace I by m*I first")
    p_mult.add_argument("--json", action="store_true", help="machine-readable output")

    p_mixed = sub.add_parser("mixed", help="mixed multiplicity of several ideals")
    p_mixed.add_argument("ideals", nargs="+", help="one parenthesized ideal per argument")
    p_mixed.add_argument("--type", type=_int_list, default=None, metavar="A1,A2,...",
                         help="orders per ideal (default all ones)")
    p_mixed.add_argument("--dim", type=int, default=None)
    p_mixed.add_argument("--scale-by-m", action="store_true")
    p_mixed.add_argument("--json", action="store_true")

    p_br = sub.add_parser("br", help="Buchsbaum-Rim multiplicity of a direct sum")
    p_br.add_argument("--module", required=True,
                      help='column ideals separated by ";", e.g. "(x,y^2);(x^2,y)"')
    p_br.add_argument("--dim", type=int, default=None)
    p_br.add_argument("--scale-by-m", action="store_true")
    p_br.add_argument("--cross-check", action="store_true",
                      help="also compute via mixed multiplicities and compare")
    p_br.add_argument("--json", action="store_true")

    for name, help_ in (
        ("verify", "run the seeded inequality suite"),
        ("fuzz", "randomized time-budgeted search for violations"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None, help="key = value file with the flags below")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--max-pure-power", type=int, default=None)
        p.add_argument("--extra-gens", type=int, default=None)
        p.add_argument("--checks", default=None,
                       help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}")
        p.add_argument("--exploration", action="store_true", default=None,
                       help="also run d>=4 bounds below dimension 4, flagged")
        if name == "verify":
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default $MULTLAB_JOBS or 1)")
        p.add_argument("--report", default=None, metavar="FILE.jsonl",
                       help="write one JSON report per instance")
        p.add_argument("--summary", default=None, metavar="FILE.csv",
                       help="write the per-check summary table")
        if name == "verify":
            p.add_argument("--instances", type=int, default=None)
        else:
            p.add_argument("--seconds", type=float, default=10.0)
    return top


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_CONFIG_FIELDS = {
    "seed": int,
    "dim": int,
    "rank": int,
    "max_pure_power": int,
    "extra_gens": int,
    "instances": int,
    "jobs": int,
    "exploration": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "checks": lambda s: tuple(c.strip() for c in s.split(",") if c.strip()),
}


def _corpus_config(args) -> CorpusConfig:
    values = {}
    if args.config:
        raw = _load_config_file(args.config)
        unknown = set(raw) - set(_CONFIG_FIELDS)
        if unknown:
            raise ParseError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        if args.command == "fuzz" and "jobs" in raw:
            raise ParseError("fuzz runs in one process; jobs applies to verify only")
        if args.command == "fuzz" and "instances" in raw:
            raise ParseError("fuzz runs for --seconds; instances applies to verify only")
        for key, text in raw.items():
            values[key] = _CONFIG_FIELDS[key](text)
    for key in _CONFIG_FIELDS:
        arg = getattr(args, key, None)
        if arg is not None:
            values[key] = _CONFIG_FIELDS[key](arg) if isinstance(arg, str) else arg
    if args.command == "verify" and "jobs" not in values:
        values["jobs"] = _jobs_default()
    try:
        return CorpusConfig(**values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key} = {value}")


def _cmd_mult(args) -> int:
    I = parse_ideal(args.ideal, dim=args.dim)
    if args.scale_by_m:
        I = scale_by_m(I)
    payload = {
        "ideal": format_ideal(I),
        "colength": colength(I),
        "multiplicity": hilbert_samuel(I),
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_mixed(args) -> int:
    ideals = parse_ideals(args.ideals, dim=args.dim)
    if args.scale_by_m:
        ideals = [scale_by_m(I) for I in ideals]
    type_ = args.type if args.type is not None else (1,) * len(ideals)
    try:
        value = mixed_multiplicity(ideals, type_)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    payload = {
        "ideals": [format_ideal(I) for I in ideals],
        "type": list(type_),
        "mixed_multiplicity": value,
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_br(args) -> int:
    ideals = parse_module(args.module, dim=args.dim)
    E = DirectSumModule(tuple(ideals))
    if args.scale_by_m:
        E = scale_by_m(E)
    value = br_direct(E)
    payload = {
        "module": [format_ideal(I) for I in E.ideals],
        "buchsbaum_rim": value,
    }
    if args.cross_check:
        other = br_via_mixed(E)
        payload["via_mixed"] = other
        payload["routes_agree"] = other == value
        if other != value:
            _emit(payload, args.json)
            print("cross-check failed: the two routes disagree", file=sys.stderr)
            return EXIT_VIOLATION
    _emit(payload, args.json)
    return EXIT_OK


def _finish_suite(reports, args) -> int:
    tally = Tally()
    reports = map(tally.add, reports)
    if args.report:
        with open(args.report, "w") as fh:
            write_jsonl(reports, fh)
    for _ in reports:  # without --report the stream is only tallied
        pass
    if args.summary:
        with open(args.summary, "w") as fh:
            write_summary_csv(tally, fh)
    rows = tally.summary_rows()
    for row in rows:
        status = "ok" if row["violations"] == 0 else "VIOLATED"
        extra = f" (+{row['exploratory']} exploratory)" if row["exploratory"] else ""
        print(
            f"{row['check']:<16} {row['instances']:>4} instances{extra}  "
            f"min slack {row['min_slack']:>6}  {status}"
        )
    total = sum(row["instances"] for row in rows)
    violations = sum(row["violations"] for row in rows)
    print(f"total {total} reports, {violations} violations")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_verify(args) -> int:
    return _finish_suite(run_suite(_corpus_config(args)), args)


def _cmd_fuzz(args) -> int:
    config = _corpus_config(args)
    return _finish_suite(fuzz(config, args.seconds), args)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse --help or usage error
            return int(exc.code or 0)
        handler = {
            "mult": _cmd_mult,
            "mixed": _cmd_mixed,
            "br": _cmd_br,
            "verify": _cmd_verify,
            "fuzz": _cmd_fuzz,
        }[args.command]
        return handler(args)
    except ParseError as exc:
        print(f"multlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilizationError as exc:
        print(f"multlab: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (ValueError, OSError) as exc:
        print(f"multlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("multlab: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
