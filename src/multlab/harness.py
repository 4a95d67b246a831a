"""Randomized empirical verification of Lech-type bounds.

Each check wraps one inequality (or identity) between multiplicities and
colengths, evaluates both sides exactly on randomly generated m-primary
ideals, and reports the slack.  Instances are seeded per (seed, check,
index) through SHA-256, so a corpus is reproducible independently of which
checks run, in what order, or across how many worker processes; report
files contain no timestamps and are byte-identical for a given config.

Each check is declared once, as a row of `_CHECKS`: how many ideals an
instance draws, the dimensions the check is stated for, whether it is one
of the strict d >= 4 bounds, and how the drawn ideals become the arguments
of its `check_*` function.  `CHECK_NAMES`, `_applicable_checks` and
`run_instance` only read that table.  The strict bounds can also be
*explored* below d = 4: exploratory reports are flagged and never count
toward the verdict.

A corpus's inputs are checked once, where they enter: `CorpusConfig`
refuses a `dim` past `expr.MAX_VARIABLE`, the parser's bound, and a
`max_pure_power` of MAX_EXPONENT or more, and `gen_random_mprimary`
checks the same two bounds once per call.  Its rows are then ints in
range, so every draw is built as every computed ideal is, by
`monomial._built` on the sweep, with no second check; the checks take
e(m, I) and its kin from `mixed_multiplicity`, with one m per instance.
A draw takes its numbers from the instance's `getrandbits` by CPython's
own rejection loop, the numbers `randrange` gives, without its argument
handling; every report is encoded by one module-level JSON encoder.

`run_suite` and `fuzz` yield reports one at a time and keep none of them;
a `Tally` folds a report stream into the per-check summary as it passes,
so memory stays bounded however long a run goes.
"""

from __future__ import annotations

import csv
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations, count, islice, starmap
from math import factorial, inf
from typing import Callable, Iterator, NamedTuple

from .buchsbaum_rim import DirectSumModule, br_via_mixed, scale_by_m
from .expr import MAX_VARIABLE, format_ideal
from .lengths import colength
from .monomial import MAX_EXPONENT, MonomialIdeal, _built, _sweep, integer, m_ideal, product
from .multiplicity import mixed_multiplicity

# the interpreter's own SHA-256, as `random` takes its SHA-512: hashlib
# loads OpenSSL's libcrypto, several MiB of it, for this one digest
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


@dataclass(frozen=True)
class CorpusConfig:
    """What to generate and which inequalities to drive over it."""

    seed: int = 0
    dim: int = 2
    rank: int = 2
    max_pure_power: int = 3
    extra_gens: int = 2
    instances: int = 20
    checks: tuple[str, ...] | None = None
    exploration: bool = False
    jobs: int = 1

    def __post_init__(self):
        for name in ("seed", "dim", "rank", "max_pure_power", "extra_gens", "instances", "jobs"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        _draw_bounds(self.dim, self.max_pure_power)
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.extra_gens < 0:
            raise ValueError("extra_gens must be non-negative")
        if self.instances < 1:
            raise ValueError("instances must be at least 1")
        if not isinstance(self.exploration, bool):
            raise ValueError(f"exploration must be a bool, got {self.exploration!r}")
        if isinstance(self.checks, str):
            raise ValueError(f"checks must be a sequence of check names, got the string {self.checks!r}")
        if self.checks is not None:
            object.__setattr__(self, "checks", tuple(self.checks))
            unknown = [c for c in self.checks if c not in CHECK_NAMES]
            if unknown:
                raise ValueError(f"unknown checks: {', '.join(unknown)}")
            repeated = sorted({c for c in self.checks if self.checks.count(c) > 1})
            if repeated:
                raise ValueError(f"repeated checks: {', '.join(repeated)}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


# one encoder for every report: json.dumps builds a new one per call that passes options
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class InequalityReport:
    """One evaluated instance of one check.

    `relation` is the claimed comparison of lhs against rhs ("<", "<=" or
    "=="), `holds` whether it came out true, and `slack` is rhs - lhs.
    `terms` carries the named summands of composite bounds for inspection.
    """

    check: str
    index: int
    instance: dict
    lhs: int
    rhs: int
    relation: str
    holds: bool
    slack: int
    exploratory: bool = False
    terms: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return _encode(vars(self))


def _report(check, lhs, rhs, relation, *, instance=None, index=-1,
            exploratory=False, terms=None) -> InequalityReport:
    holds = {"<": lhs < rhs, "<=": lhs <= rhs, "==": lhs == rhs}[relation]
    return InequalityReport(
        check=check,
        index=index,
        instance=instance or {},
        lhs=int(lhs),
        rhs=int(rhs),
        relation=relation,
        holds=holds,
        slack=int(rhs) - int(lhs),
        exploratory=exploratory,
        terms=terms or {},
    )


def rng_for(seed: int, check: str, index: int) -> random.Random:
    digest = sha256(f"{seed}:{check}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_bounds(dim, max_pure_power) -> tuple[int, int]:
    """`dim` and `max_pure_power` as ints; a ValueError unless draws from them can be built unchecked.

    A draw's rows are `dim` long, at most `expr.MAX_VARIABLE` as the parser
    allows, and its exponents lie in [0, max_pure_power], below MAX_EXPONENT.
    """
    dim, top = integer(dim, "dim"), integer(max_pure_power, "max_pure_power")
    if not 1 <= dim <= MAX_VARIABLE:
        raise ValueError(f"dim must be at least 1 and at most {MAX_VARIABLE}, got {dim}")
    if not 1 <= top < MAX_EXPONENT:
        raise ValueError(f"max_pure_power must be at least 1 and below {MAX_EXPONENT}, got {top}")
    return dim, top


def gen_random_mprimary(
    dim: int, max_pure_power: int, extra_gens: int, rng: random.Random
) -> MonomialIdeal:
    """Random m-primary ideal: pure powers x_i^{k_i} plus extra box points.

    The draw is defined on `rng.getrandbits`: a number below n is
    getrandbits(n.bit_length()), drawn again while it is n or more.  That
    is CPython's own rejection loop, so on a `random.Random` each number
    is the one `randrange(n)` gives, and 1 + it the one `randint(1, n)`
    gives; a subclass that overrides only `random()` has a `randrange` of
    its own, which this draw does not follow.  First come the pure powers
    k_i in [1, max_pure_power], then, unless every k_i is 1, `extra_gens`
    points v with v_i in [0, k_i), each kept unless it is 0.

    `dim` and `max_pure_power` are checked once, here (`_draw_bounds`); the
    drawn rows are then ints in range, so the ideal is built as a product
    is, by the sweep with no second check.
    """
    dim, max_pure_power = _draw_bounds(dim, max_pure_power)
    getrandbits = rng.getrandbits

    def below(n):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    powers = [1 + below(max_pure_power) for _ in range(dim)]
    zero = (0,) * dim
    rows = {zero[:i] + (k,) + zero[i + 1:] for i, k in enumerate(powers)}
    if max(powers) > 1:
        for _ in range(extra_gens):
            v = tuple(map(below, powers))
            if any(v):
                rows.add(v)
    return _built(dim, _sweep(rows))


def _gen_many(config: CorpusConfig, check: str, index: int, count: int):
    rng = rng_for(config.seed, check, index)
    return [
        gen_random_mprimary(config.dim, config.max_pure_power, config.extra_gens, rng)
        for _ in range(count)
    ]


def _describe(ideals) -> dict:
    return {"ideals": [format_ideal(I) for I in ideals]}


# ---------------------------------------------------------------------------
# the checks


def _one_per_dim(ideals) -> list[MonomialIdeal]:
    """`ideals` as a list; raises unless there are exactly as many as their dimension."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    if len(ideals) != ideals[0].dim:
        raise ValueError(f"need {ideals[0].dim} ideals, got {len(ideals)}")
    return ideals


def check_lech_classical(I: MonomialIdeal, **meta) -> InequalityReport:
    """e(I) <= d! * lambda(R/I)."""
    d = I.dim
    lhs = mixed_multiplicity([I], (d,))
    rhs = factorial(d) * colength(I)
    return _report("lech_classical", lhs, rhs, "<=", **meta)


def check_lech_mixed(ideals, **meta) -> InequalityReport:
    """e(I_1, ..., I_d) <= (d-1)! * sum lambda(R/I_i)."""
    ideals = _one_per_dim(ideals)
    d = ideals[0].dim
    lhs = mixed_multiplicity(ideals)
    rhs = factorial(d - 1) * sum(colength(I) for I in ideals)
    return _report("lech_mixed", lhs, rhs, "<=", **meta)


def check_main_mixed(ideals, *, exploratory=False, **meta) -> InequalityReport:
    """Strict bound after scaling by m: e(mI_1, ..., mI_d) < (d-1)! sum lambda(R/I_i).

    Stated for d >= 4; lower dimensions are allowed only as exploration.
    """
    ideals = _one_per_dim(ideals)
    d = ideals[0].dim
    if d < 4 and not exploratory:
        raise ValueError("the strict scaled bound is asserted only for d >= 4")
    scaled = [scale_by_m(I) for I in ideals]
    lhs = mixed_multiplicity(scaled)
    rhs = factorial(d - 1) * sum(colength(I) for I in ideals)
    return _report(
        "main_mixed", lhs, rhs, "<", exploratory=exploratory, **meta
    )


def check_main_br(E: DirectSumModule, *, exploratory=False, **meta) -> InequalityReport:
    """Strict Buchsbaum-Rim bound: br(mE) < (d+r-1)!/r! * lambda(F/E).

    Stated for d >= 4 and E inside mF; lower d only as exploration.
    """
    d, r = E.dim, E.rank
    if d < 4 and not exploratory:
        raise ValueError("the strict scaled bound is asserted only for d >= 4")
    if not E.contained_in_mF:
        raise ValueError("E must be contained in mF (all column ideals proper)")
    lhs = br_via_mixed(scale_by_m(E))
    rhs = (factorial(d + r - 1) // factorial(r)) * E.quotient_colength()
    return _report("main_br", lhs, rhs, "<", exploratory=exploratory, **meta)


def check_prop_dim2(ideals, **meta) -> InequalityReport:
    """Dimension-2 refinement over several ideals.

    2 sum_{i<j} e(I_i, I_j) + (r-1) sum_i e(m, I_i)
        <= 2(r-1) sum_i lambda(R/I_i),
    with equality when all I_i are the same power of m.
    """
    ideals = list(ideals)
    r = len(ideals)
    if r < 2:
        raise ValueError("need at least two ideals")
    if ideals[0].dim != 2:
        raise ValueError("this bound is specific to dimension 2")
    m = m_ideal(2)
    pair_sum = sum(
        mixed_multiplicity([a, b]) for a, b in combinations(ideals, 2)
    )
    # e(m, I) is the multiplicity of I after one general hyperplane cut
    section_sum = sum(mixed_multiplicity([m, I]) for I in ideals)
    lhs = 2 * pair_sum + (r - 1) * section_sum
    rhs = 2 * (r - 1) * sum(colength(I) for I in ideals)
    terms = {"pair_sum": pair_sum, "section_sum": section_sum}
    return _report("prop_dim2", lhs, rhs, "<=", terms=terms, **meta)


def check_prop_dim3(ideals, **meta) -> InequalityReport:
    """Dimension-3 refinement over four ideals.

    sum_{i<j<k} e(I_i, I_j, I_k) + sum_{i<j} e(m, I_i, I_j)
        + sum_i e(m, m, I_i) + 1 <= 3! * sum_i lambda(R/I_i).
    """
    ideals = list(ideals)
    if len(ideals) != 4:
        raise ValueError("need exactly four ideals")
    if ideals[0].dim != 3:
        raise ValueError("this bound is specific to dimension 3")
    m = m_ideal(3)
    triple_sum = sum(
        mixed_multiplicity(list(t)) for t in combinations(ideals, 3)
    )
    pair_sum = sum(
        mixed_multiplicity([m, a, b]) for a, b in combinations(ideals, 2)
    )
    single_sum = sum(mixed_multiplicity([m, m, I]) for I in ideals)
    lhs = triple_sum + pair_sum + single_sum + 1
    rhs = factorial(3) * sum(colength(I) for I in ideals)
    terms = {
        "triple_sum": triple_sum,
        "pair_sum": pair_sum,
        "single_sum": single_sum,
    }
    return _report("prop_dim3", lhs, rhs, "<=", terms=terms, **meta)


def check_additivity(ideals, J: MonomialIdeal, **meta) -> InequalityReport:
    """e(I_1 J, I_2, ..., I_d) == e(I_1, ..., I_d) + e(J, I_2, ..., I_d)."""
    ideals = _one_per_dim(ideals)
    lhs = mixed_multiplicity([product(ideals[0], J)] + ideals[1:])
    rhs = mixed_multiplicity(ideals) + mixed_multiplicity([J] + ideals[1:])
    return _report("additivity", lhs, rhs, "==", **meta)


class _Check(NamedTuple):
    """One row of `_CHECKS`."""

    draws: Callable[[int, int], int]  # ideals an instance draws at (d, r)
    applies: Callable[[int], bool]  # the dimensions d the check is stated for
    strict: bool  # a strict d >= 4 bound: below d = 4 only explored, flagged
    call: Callable[..., InequalityReport]  # (drawn ideals, **meta) -> report


# the order of the rows is the order of reports and summary rows
_CHECKS = {
    "lech_classical": _Check(lambda d, r: 1, lambda d: d >= 1, False,
                             lambda ideals, **meta: check_lech_classical(ideals[0], **meta)),
    "lech_mixed": _Check(lambda d, r: d, lambda d: d >= 2, False, check_lech_mixed),
    "prop_dim2": _Check(lambda d, r: max(2, r), lambda d: d == 2, False, check_prop_dim2),
    "prop_dim3": _Check(lambda d, r: 4, lambda d: d == 3, False, check_prop_dim3),
    "main_mixed": _Check(lambda d, r: d, lambda d: d >= 2, True, check_main_mixed),
    "main_br": _Check(lambda d, r: r, lambda d: d >= 1, True,
                      lambda ideals, **meta: check_main_br(DirectSumModule(tuple(ideals)), **meta)),
    "additivity": _Check(lambda d, r: d + 1, lambda d: d >= 2, False,
                         lambda ideals, **meta: check_additivity(ideals[:-1], ideals[-1], **meta)),
}
CHECK_NAMES = tuple(_CHECKS)


# ---------------------------------------------------------------------------
# corpus driving


def _applicable_checks(config: CorpusConfig) -> list[str]:
    """The checks of `config` that apply at its dimension.

    The default selection keeps them silently.  Raises when none applies,
    and when the configuration names a check that does not apply: one not
    defined at `dim`, or a strict d >= 4 bound below d = 4 without
    exploration.  Either message names each selected check it refused,
    with the reason.
    """
    wanted = config.checks if config.checks is not None else CHECK_NAMES
    explore = config.exploration or config.dim >= 4
    why = {}
    for name in wanted:
        if not _CHECKS[name].applies(config.dim):
            why[name] = f"not defined at dim {config.dim}"
        elif _CHECKS[name].strict and not explore:
            why[name] = "a d >= 4 bound, run below d = 4 only with exploration"
    out = [name for name in wanted if name not in why]
    refused = "; ".join(f"{name} ({reason})" for name, reason in why.items())
    if not out:
        raise ValueError("no applicable checks for this configuration"
                         + (f": {refused}" if config.checks else ""))
    if config.checks is not None and why:
        raise ValueError(f"selected checks that do not apply: {refused}")
    return out


def run_instance(config: CorpusConfig, check: str, index: int) -> InequalityReport:
    """Evaluate one seeded instance of one check (deterministic)."""
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}")
    row = _CHECKS[check]
    ideals = _gen_many(config, check, index, row.draws(config.dim, config.rank))
    return row.call(ideals, instance=_describe(ideals), index=index,
                    exploratory=row.strict and config.dim < 4)


def run_suite(config: CorpusConfig) -> Iterator[InequalityReport]:
    """Yield a report for every applicable check over the seeded corpus.

    Reports come check by check, each in index order, from one process or
    from a pool of `config.jobs` workers alike.  The (check, index) pairs
    are generated as they are consumed, so the serial path holds none of
    them ahead, and a pool keeps a window of two chunks of 4 tasks per
    worker in flight: it submits one more chunk as it yields the reports
    of the oldest.  Closing the stream early cancels the chunks not yet
    started and waits for the workers to exit.  Usage errors raise at the
    call, before any report is made.
    """
    checks, n = _applicable_checks(config), config.instances
    tasks = ((config, check, index) for check in checks for index in range(n))
    if config.jobs > 1 and len(checks) * n > 1:
        return _pooled(min(config.jobs, len(checks) * n), tasks)
    return starmap(run_instance, tasks)


def _run_chunk(tasks) -> list[InequalityReport]:
    return list(starmap(run_instance, tasks))


def _pooled(workers: int, tasks) -> Iterator[InequalityReport]:
    # imported here: concurrent.futures and multiprocessing cost every serial run about 20 ms
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    chunks = iter(lambda: tuple(islice(tasks, 4)), ())  # 4 tasks per submission
    submitted = (pool.submit(_run_chunk, chunk) for chunk in chunks)
    try:
        window = deque(islice(submitted, 2 * workers))
        while window:
            window.extend(islice(submitted, 1))
            yield from window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def fuzz(config: CorpusConfig, seconds: float) -> Iterator[InequalityReport]:
    """Open-ended search: yield reports on fresh instances until time runs out.

    The budget starts at the call and counts the time the consumer spends
    on each report.  The deadline is read after each full round of checks,
    so every applicable check runs at least once however short the budget.
    Usage errors raise at the call, before any report is made.
    """
    if not 0 < seconds < inf:
        raise ValueError(f"seconds must be positive and finite, got {seconds}")
    return _fuzz_rounds(config, _applicable_checks(config), time.monotonic() + seconds)


def _fuzz_rounds(config, checks, deadline) -> Iterator[InequalityReport]:
    for index in count():
        for check in checks:
            yield run_instance(config, check, index)
        if time.monotonic() >= deadline:
            return


class Tally:
    """Running per-check summary of a report stream; it keeps no reports.

    A check's `violations` count its failed reports that are not
    exploratory, so a run passes when every row has none.
    """

    def __init__(self):
        self._rows: dict[str, dict] = {}

    def add(self, report: InequalityReport) -> InequalityReport:
        """Fold `report` into its check's row and hand it back."""
        row = self._rows.setdefault(report.check, {
            "check": report.check, "instances": 0, "exploratory": 0,
            "violations": 0, "min_slack": report.slack, "max_slack": report.slack,
        })
        row["instances"] += 1
        row["exploratory"] += report.exploratory
        row["violations"] += not (report.holds or report.exploratory)
        row["min_slack"] = min(row["min_slack"], report.slack)
        row["max_slack"] = max(row["max_slack"], report.slack)
        return report

    def summary_rows(self) -> list[dict]:
        """One row per check seen, in `CHECK_NAMES` order."""
        return [self._rows[name] for name in CHECK_NAMES if name in self._rows]


def write_jsonl(reports, stream) -> None:
    """Write one JSON line per report, flushed at once, so a killed run keeps every line counted."""
    for r in reports:
        stream.write(r.to_json() + "\n")
        stream.flush()


def write_summary_csv(tally: Tally, stream) -> None:
    fields = ["check", "instances", "exploratory", "violations", "min_slack", "max_slack"]
    writer = csv.DictWriter(stream, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in tally.summary_rows():
        writer.writerow(row)
