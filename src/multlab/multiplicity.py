"""Hilbert-Samuel and mixed multiplicities from Newton polyhedra, with difference tables as oracle.

For m-primary ideals the function n |-> lambda(R / I_1^{n_1} ... I_s^{n_s})
agrees with a polynomial of total degree d once every n_j is large.  Taking
the mixed finite difference of order (a_1, ..., a_s) with sum d kills every
lower term and returns a_1! ... a_s! times the leading coefficient -- which
is exactly the mixed multiplicity e(I_1^[a_1], ..., I_s^[a_s]).

`mixed_multiplicity` takes the value from Newton polyhedra instead: no
window, no base, and no product of ideals.  `closure.mixed_sum` holds
that route and why it gives the value: in d <= 3 the facet formula for
mixed volumes, with no box, in the plane on the ideals' edge chains and
in d = 1 and 3 on one hull, and from d = 4 on that difference at base 0
of the closures, as closure colengths.
`_newton_value` is one call of it, with the one pair (orders, 1),
memoized for the last `lengths.MEMO_ENTRIES` distinct keys.  A key
holds generator rows, not ideals: the merged slots' (rows, order) pairs,
sorted as tuples, since mixed multiplicities are symmetric.  `_merged`
fuses equal slots by their rows, and every call checks its slots, memo
hits included; only a miss builds the ideals again.  This module holds
no field, box, hull or closure colength.

The difference-table engine stays as the independent oracle.  `stabilize`
evaluates the difference, with the terms of `monomial._difference_terms`,
at a window of diagonal shifts and accepts the value only when the
window is constant, doubling the base point otherwise, on one fixed
schedule (`WINDOW`, `MAX_ROUNDS`, `GROWTH`).
Each round hands all its lattice points to one evaluator at once; for
colengths of products that is the sampler, which climbs the round's meet
once from the unit ideal, slot by slot, and each point on from the meet.
`mixed_difference_table` runs it from a base read off the ideals'
generators with a sampler of its own, whose `ProductSampler.colengths`
takes each round's points, and memoizes nothing.
`buchsbaum_rim.br_direct` runs it on module colengths, which the
sampler's walk over compositions sums (`ProductSampler._composition_sums`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add

from . import closure
from .errors import ImpossibleValueError, NotMPrimaryError, StabilizationError
from .lengths import MEMO_ENTRIES, ProductSampler
from .monomial import MonomialIdeal, _built, _difference_terms, common_dim, integer
from .monomial import box_bounds, integer_exponents, is_m_primary, m_ideal

# The schedule of `stabilize`: WINDOW extra diagonal shifts must reproduce
# the shift-0 value; on an unstable window every base coordinate is
# multiplied by GROWTH, up to MAX_ROUNDS escalations.
WINDOW = 2
MAX_ROUNDS = 6
GROWTH = 2


@dataclass(frozen=True)
class DifferenceTable:
    """A confirmed mixed difference: where it was taken and what it gave.

    `samples` holds the (point, value) pairs of the last round, sorted by
    point; `rounds` is the number of bases tried, the last one being `base`.
    """

    base: tuple[int, ...]
    order: tuple[int, ...]
    samples: tuple[tuple[tuple[int, ...], int], ...]
    result: int
    rounds: int


def _mixed_difference(values, base, terms):
    """Sum of coeff * f(base + delta) over the `terms` of `_difference_terms`.

    `values` maps every point base + delta to f there.
    """
    return sum(coeff * values[tuple(map(add, base, delta))] for delta, coeff in terms)


def _round_points(base, terms):
    """The distinct lattice points of one round's differences, in first-use order."""
    points = {}
    for s in range(WINDOW + 1):
        shifted = tuple(b + s for b in base)
        points.update(dict.fromkeys(tuple(map(add, shifted, delta)) for delta, _ in terms))
    return list(points)


def stabilize(evaluate, order, *, base: int) -> DifferenceTable:
    """Confirmed mixed difference of a function on lattice points.

    `evaluate` maps a round's list of points to the list of their values,
    and a list of another length raises ValueError.  Evaluates the
    order-`order` difference at diagonal shifts 0..WINDOW of the point
    (base, ..., base) and returns a DifferenceTable once all shifts agree,
    multiplying the base by GROWTH otherwise.  Raises StabilizationError
    with the full escalation history if no window is constant after
    MAX_ROUNDS escalations.  `order` must hold positive ints and `base`
    must be a positive int; anything else is a ValueError.
    """
    order = integer_exponents(order)
    if not order or min(order) < 1:
        raise ValueError("order must be a non-empty tuple of positive ints")
    base = integer(base, "base")
    if base < 1:
        raise ValueError(f"base must be positive, got {base}")
    base = (base,) * len(order)

    terms = _difference_terms(order)
    bases_tried = []
    diffs_seen = []
    for _ in range(MAX_ROUNDS + 1):
        points = _round_points(base, terms)
        values = dict(zip(points, evaluate(points), strict=True))
        diffs = [
            _mixed_difference(values, tuple(b + s for b in base), terms)
            for s in range(WINDOW + 1)
        ]
        bases_tried.append(base)
        diffs_seen.append(tuple(diffs))
        if all(v == diffs[0] for v in diffs):
            return DifferenceTable(
                base=base,
                order=order,
                samples=tuple(sorted(values.items())),
                result=diffs[0],
                rounds=len(bases_tried),
            )
        base = tuple(b * GROWTH for b in base)
    raise StabilizationError(
        "difference window never became constant",
        bases=bases_tried,
        attempts=diffs_seen,
    )


def _heuristic_base(ideals, dim: int) -> int:
    """The first base of a difference table: the larger of `dim` and one past the largest exponent of the m-primary `ideals`.

    That exponent is their largest pure power: a minimal generator of an
    m-primary ideal that is not a pure power has every g_i < b_i.
    """
    top = max((max(box_bounds(I)) for I in ideals), default=1)
    return max(dim, top + 1)


def _merged(ideals, type_):
    """`ideals` and `type_` checked and merged: the dimension d, and a dict of generator rows to orders.

    The rows map to the summed order of every slot that holds them, in
    order of first appearance; zero slots are dropped.  Rows are tuples,
    so they hash and compare in C, where an ideal's hash and equality are
    Python calls.  One pass over the slots merges them and gathers what
    the refusals need, which are then raised in a fixed order: a negative
    entry, a sum other than d, a non-m-primary slot of positive order.
    """
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    d = common_dim(ideals)
    if type_ is None:
        type_ = repeat(1)
    else:
        type_ = integer_exponents(type_)
        if len(type_) != len(ideals):
            raise ValueError("type length must match the number of ideals")
    orders: dict[tuple, int] = {}
    total, negative, primary = 0, False, True
    for I, a in zip(ideals, type_):
        total += a
        if a > 0:
            primary = primary and is_m_primary(I)
            orders[I.gens] = orders.get(I.gens, 0) + a
        elif a:
            negative = True
    if negative:
        raise ValueError("type entries must be non-negative")
    if total != d:
        raise ValueError(f"type must sum to the ambient dimension {d}")
    if not primary:
        raise NotMPrimaryError(
            "mixed multiplicities need m-primary ideals in every "
            "slot with positive order"
        )
    return d, orders


def _positive(value: int, route: str,
              kind: str = "mixed multiplicities of m-primary ideals") -> int:
    """`value`, which `route` produced, unless it is no possible value of `kind`."""
    if value < 1:
        raise ImpossibleValueError(
            f"{route} produced {value}; {kind} are positive, so the inputs are inconsistent"
        )
    return value


@lru_cache(maxsize=MEMO_ENTRIES)
def _newton_value(dim, key) -> int:
    """e(J_1^[a_1], ..., J_s^[a_s]) from Newton polyhedra, for the (rows of J_j, a_j) pairs of `key`.

    One `closure.mixed_sum` of the one pair (a, 1), on the ideals rebuilt
    from their rows in dimension `dim`, which only a miss does.  Memoized
    for the last MEMO_ENTRIES keys, which hold generator rows, not ideals.
    """
    merged = [_built(dim, rows) for rows, _ in key]
    return closure.mixed_sum(merged, [(tuple(a for _, a in key), 1)])


def mixed_difference_table(ideals, type_=None) -> DifferenceTable:
    """The stabilized difference table of the engine: the independent oracle of `mixed_multiplicity`.

    The ideals are merged as by `mixed_multiplicity`, and their product
    colengths come from a `ProductSampler` of this call's own, at a base
    read off the generators; each round's points, made by `stabilize`,
    go to its point climb (`colengths`).  Nothing here is memoized and no
    product outlives the call, so every call stabilizes afresh.
    """
    d, orders = _merged(ideals, type_)
    merged = [_built(d, rows) for rows in orders]
    base = _heuristic_base(merged, d)
    table = stabilize(ProductSampler(merged).colengths, tuple(orders.values()), base=base)
    _positive(table.result, "difference table")
    return table


def mixed_multiplicity(ideals, type_=None) -> int:
    """Mixed multiplicity e(I_1^[a_1], ..., I_s^[a_s]).

    `type_` defaults to (1, ..., 1), which requires exactly d ideals.  Slots
    with a_i = 0 are ignored; repeated ideals are merged by summing their
    orders.  Every counted slot must hold an m-primary ideal, and every
    call checks its slots, memo hits included.  The value comes from
    Newton polyhedra (`_newton_value`), with no difference window;
    `mixed_difference_table` computes it independently.
    """
    d, orders = _merged(ideals, type_)
    # e is symmetric in its slots, so the memo keys the (rows, order) pairs in one order
    return _positive(_newton_value(d, tuple(sorted(orders.items()))), "the Newton route")


def hilbert_samuel(I: MonomialIdeal) -> int:
    """Hilbert-Samuel multiplicity e(I) of an m-primary ideal."""
    return mixed_multiplicity([I], (I.dim,))


def hyperplane_section_multiplicity(ideals, k: int = 1) -> int:
    """Multiplicity of the images of `ideals` after k general hyperplane cuts.

    Computed without leaving the ambient ring: cutting by k general linear
    forms turns e(J_1, ..., J_{d-k}) downstairs into the mixed multiplicity
    e(m, ..., m, J_1, ..., J_{d-k}) with k copies of the maximal ideal.
    """
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    k = integer(k, "k")
    d = ideals[0].dim
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= {d - 1} hyperplane cuts, got {k}")
    if len(ideals) != d - k:
        raise ValueError(
            f"need {d - k} ideals for {k} cuts in dimension {d}, got {len(ideals)}"
        )
    m = m_ideal(d)
    return mixed_multiplicity([m] * k + ideals)
