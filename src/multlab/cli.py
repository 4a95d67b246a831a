"""Command-line front end.

Subcommands:

* ``mult "(x^2, x*y, y^3)"`` -- Hilbert-Samuel multiplicity (and colength).
* ``mixed "(x,y^2)" "(x^2,y)"`` -- mixed multiplicities, optional --type.
* ``br --module "(x,y^2);(x^2,y)"`` -- Buchsbaum-Rim from Newton polyhedra;
  --cross-check also runs the difference table, the oracle, and once more
  from twice its stop base when the two disagree, noted on stderr.
* ``verify`` -- run the seeded inequality suite from flags or a config file;
  ``--jobs N`` (default 1) pools N worker processes.
* ``fuzz`` -- time-budgeted randomized search for violations.

After their summary, ``verify`` and ``fuzz`` print one line to stderr,
``N reports in S s (R reports/s)``; stdout and the report files carry no
timing.

A ``--config FILE`` of ``verify`` or ``fuzz`` holds ``key = value`` lines
(``#`` starts a comment). Each line stands for the subcommand's long flag
``--key=value``, with ``_`` and ``-`` alike in the key; ``exploration``
takes 1/true/yes/on or 0/false/no/off. The file's flags are parsed by the
same parser as the command line, placed after the subcommand and before
the command line's own flags, which therefore win. Flags are spelled in
full, in a file as on the command line; a ``config`` key is refused.

Exit codes: 0 success, 1 bad usage or unparsable input, 2 a verified
inequality failed (or --cross-check disagreed, also from twice the table's
stop base), 3 the difference table of
``br --cross-check`` failed to stabilize, or a value came out impossible
(ImpossibleValueError), 4 out of memory (MemoryError), 130 interrupted
(Ctrl-C). Each --report line is flushed as it is written, so every line
written before a failure or an interrupt stays in the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import ExitStack

from .buchsbaum_rim import DirectSumModule, _br_table, br_via_mixed, scale_by_m
from .errors import ParseError, StabilizationError
from .expr import format_ideal, parse_ideal, parse_ideals, parse_module
from .harness import CHECK_NAMES, CorpusConfig, Tally, fuzz, run_suite, write_jsonl, write_summary_csv
from .lengths import colength
from .multiplicity import GROWTH, hilbert_samuel, mixed_multiplicity

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_UNSTABLE = 3
EXIT_OUT_OF_MEMORY = 4
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2 (kept for violations); flags are never abbreviated."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _names(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="multlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, default=None, help="ambient dimension")
    common.add_argument("--scale-by-m", action="store_true", help="replace I by m*I first")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p_mult = sub.add_parser("mult", parents=[common], help="Hilbert-Samuel multiplicity of one ideal")
    p_mult.set_defaults(handler=_cmd_mult)
    p_mult.add_argument("ideal", help='generators, e.g. "(x^2, x*y, y^3)"')

    p_mixed = sub.add_parser("mixed", parents=[common], help="mixed multiplicity of several ideals")
    p_mixed.set_defaults(handler=_cmd_mixed)
    p_mixed.add_argument("ideals", nargs="+", help="one parenthesized ideal per argument")
    p_mixed.add_argument("--type", type=_int_list, default=None, metavar="A1,A2,...",
                         help="orders per ideal (default all ones)")

    p_br = sub.add_parser("br", parents=[common], help="Buchsbaum-Rim multiplicity of a direct sum")
    p_br.set_defaults(handler=_cmd_br)
    p_br.add_argument("--module", required=True,
                      help='column ideals separated by ";", e.g. "(x,y^2);(x^2,y)"')
    p_br.add_argument("--cross-check", action="store_true",
                      help="also compute from the difference table and compare; it makes C(n+r, r) "
                           "products per round over the r distinct columns: 0.05-0.08 s at r = 6, 2-3 s at r = 8")

    for name, handler, help_ in (
        ("verify", _cmd_verify, "run the seeded inequality suite"),
        ("fuzz", _cmd_fuzz, "randomized time-budgeted search for violations"),
    ):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None,
                       help="file of key = value lines, each standing for the flag --key=value")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--max-pure-power", type=int, default=None)
        p.add_argument("--extra-gens", type=int, default=None)
        p.add_argument("--checks", type=_names, default=None,
                       help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}")
        p.add_argument("--exploration", action="store_true",
                       help="also run d>=4 bounds below dimension 4, flagged")
        p.add_argument("--report", default=None, metavar="FILE.jsonl",
                       help="write one JSON report per instance")
        p.add_argument("--summary", default=None, metavar="FILE.csv",
                       help="write the per-check summary table")
        if name == "verify":
            p.add_argument("--jobs", type=int, default=None, help="worker processes (default 1)")
            p.add_argument("--instances", type=int, default=None)
        else:
            p.add_argument("--seconds", type=float, default=10.0)
    return top


def _config_flags(path: str) -> list[str]:
    """The flags that a config file's ``key = value`` lines stand for, in file order."""
    flags = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key, value = key.strip().replace("_", "-"), value.strip()
            if not eq:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            if key == "config":
                raise ParseError(f"{path}: config: a config file cannot name another")
            if key != "exploration":
                flags.append(f"--{key}={value}")
            elif value.lower() in ("1", "true", "yes", "on"):
                flags.append("--exploration")
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ParseError(
                    f"{path}: exploration: expected 1/true/yes/on or 0/false/no/off, got {value!r}"
                )
    return flags


def _parse(parser: argparse.ArgumentParser, argv: list[str]):
    """Parse argv, with a --config file's flags between the subcommand and argv's own flags."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    flags = _config_flags(args.config)
    try:  # the file alone first, so that its errors name it
        parser.parse_args([args.command, *flags])
    except ParseError as exc:
        raise ParseError(f"{args.config}: {exc}") from None
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def _corpus_config(args) -> CorpusConfig:
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(CorpusConfig)}
    return CorpusConfig(**{name: value for name, value in given.items() if value is not None})


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
    value = mixed_multiplicity(ideals, type_)
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
    value = br_via_mixed(E)
    payload = {
        "module": [format_ideal(I) for I in E.ideals],
        "buchsbaum_rim": value,
    }
    if args.cross_check:
        table = _br_table(E)
        if table.result != value:  # the window can stop early: one more table, from further out
            (stop,) = table.base
            print(f"cross-check: the difference table gave {table.result} at base {stop}; "
                  f"running it again from base {GROWTH * stop}", file=sys.stderr)
            table = _br_table(E, GROWTH * stop)
        payload["direct"] = table.result
        payload["routes_agree"] = table.result == value
    _emit(payload, args.json)
    if args.cross_check and not payload["routes_agree"]:
        print("cross-check failed: the two routes disagree", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _finish_suite(reports, args) -> int:
    """Tally the report stream into the files of `args` and the summary on stdout.

    The throughput goes to stderr, after the summary, so stdout and the
    report files stay byte-identical from run to run.
    """
    start = time.perf_counter()
    tally = Tally()
    reports = map(tally.add, reports)
    with ExitStack() as files:
        # both files open before the first instance, so a bad path costs no run
        report, summary = (files.enter_context(open(path, "w")) if path else None
                           for path in (args.report, args.summary))
        if report:
            write_jsonl(reports, report)
        for _ in reports:  # without --report the stream is only tallied
            pass
        if summary:
            write_summary_csv(tally, summary)
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
    elapsed = time.perf_counter() - start
    print(f"{total} reports in {elapsed:.3f} s ({total / elapsed:.1f} reports/s)", file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_verify(args) -> int:
    return _finish_suite(run_suite(_corpus_config(args)), args)


def _cmd_fuzz(args) -> int:
    config = _corpus_config(args)
    return _finish_suite(fuzz(config, args.seconds), args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _parse(build_parser(), argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        return args.handler(args)
    except StabilizationError as exc:
        print(f"multlab: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"multlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("multlab: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except KeyboardInterrupt:
        print("multlab: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
