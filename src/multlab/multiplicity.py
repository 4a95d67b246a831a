"""Hilbert-Samuel and mixed multiplicities from Newton polyhedra, with difference tables as oracle.

For m-primary ideals the function n |-> lambda(R / I_1^{n_1} ... I_s^{n_s})
agrees with a polynomial of total degree d once every n_j is large.  Taking
the mixed finite difference of order (a_1, ..., a_s) with sum d kills every
lower term and returns a_1! ... a_s! times the leading coefficient -- which
is exactly the mixed multiplicity e(I_1^[a_1], ..., I_s^[a_s]).

`mixed_multiplicity` takes that difference at base 0 of the closures
instead.  lambda(R / closure of prod I_j^{n_j}) counts the lattice points
of R^d_>=0 outside n_1 Newt(I_1) + ... + n_s Newt(I_s) (Huneke-Swanson,
*Integral Closure*, 1.4), and that count is a polynomial of total degree d
on all of Z^s_>=0 (McMullen, *Lattice invariant valuations on rational
polytopes*, 1977) with the same top-degree part, since e does not change
under integral closure.  So the order-a difference over the points
delta <= a alone is the value: no window, no base, and no product of
ideals.  `_newton_value` memoizes it for the last `lengths.MEMO_ENTRIES`
distinct (ideals, orders) keys; `closure` supplies the facets of the sum
and each term's count.

The difference-table engine stays as the independent oracle.  `stabilize`
evaluates the difference at a window of diagonal shifts and accepts the
value only when the window is constant, doubling the base point otherwise.
Each round hands all its lattice points to one evaluator at once; for
colengths of products that is `ProductSampler.colengths`, which builds
them in one depth-first walk through the round's base point.
`mixed_difference_table` runs it from a base read off the ideals'
generators and memoizes nothing, and `buchsbaum_rim.br_direct` runs it on
module colengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from math import comb, prod
from operator import add, mul

import numpy as np

from . import closure
from .errors import DimensionMismatchError, NotMPrimaryError, StabilizationError
from .errors import ImpossibleValueError
from .lengths import MEMO_ENTRIES, shared_sampler
from .monomial import MonomialIdeal, as_array, box_bounds, integer, integer_exponents
from .monomial import is_m_primary, m_ideal


@dataclass(frozen=True)
class LengthSample:
    """One evaluated lattice point: exponent vector and its colength."""

    point: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class DifferenceTable:
    """A confirmed mixed difference: where it was taken and what it gave.

    `rounds` is the number of bases tried, the last one being `base`.
    """

    base: tuple[int, ...]
    order: tuple[int, ...]
    samples: tuple[LengthSample, ...]
    result: int
    rounds: int


@dataclass(frozen=True)
class StabilizePolicy:
    """How hard `stabilize` pushes for a constant difference window.

    `stabilize` is the one function that takes a schedule; the
    multiplicities fill in only `initial_base` and keep the other defaults.
    `initial_base` of None starts at max(2, max(order)) in every
    coordinate; on an unstable window every base coordinate is multiplied
    by `growth`, up to `max_rounds` escalations.  `window` is the number of
    extra diagonal shifts that must reproduce the shift-0 value.
    """

    initial_base: int | tuple[int, ...] | None = None
    window: int = 2
    max_rounds: int = 6
    growth: int = 2

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if self.growth < 2:
            raise ValueError("growth must be at least 2")


def _difference_terms(order):
    """The pairs (delta, (-1)^{|order - delta|} prod C(order_j, delta_j)) of one order."""
    return [
        (delta, (-1) ** (sum(order) - sum(delta)) * prod(map(comb, order, delta)))
        for delta in iter_product(*(range(o + 1) for o in order))
    ]


def _mixed_difference(values, base, terms):
    """Sum of coeff * f(base + delta) over the `terms` of `_difference_terms`.

    `values` maps every point base + delta to f there.
    """
    return sum(coeff * values[tuple(map(add, base, delta))] for delta, coeff in terms)


def _round_points(base, terms, window):
    """The distinct lattice points of one round's differences, in first-use order."""
    points = {}
    for s in range(window + 1):
        shifted = tuple(b + s for b in base)
        points.update(dict.fromkeys(tuple(map(add, shifted, delta)) for delta, _ in terms))
    return list(points)


def stabilize(evaluate, order, policy: StabilizePolicy | None = None) -> DifferenceTable:
    """Confirmed mixed difference of a function on lattice points.

    `evaluate` maps a round's list of points to the list of their values,
    and a list of another length raises ValueError.  Evaluates the
    order-`order` difference at diagonal shifts 0..window of a base point
    and returns a DifferenceTable once all shifts agree, growing the base
    geometrically otherwise.  Raises StabilizationError with the
    full escalation history if no window ever becomes constant.  This is
    the one place that takes a schedule: `policy` defaults to
    StabilizePolicy(), and the multiplicities pass one with only their
    starting base set.
    """
    policy = policy or StabilizePolicy()
    order = tuple(int(o) for o in order)
    if not order or any(o < 1 for o in order):
        raise ValueError("order must be a non-empty tuple of positive ints")
    if policy.initial_base is None:
        base = (max(2, max(order)),) * len(order)
    elif isinstance(policy.initial_base, int):
        base = (policy.initial_base,) * len(order)
    else:
        base = tuple(int(b) for b in policy.initial_base)
        if len(base) != len(order):
            raise ValueError("initial_base length must match order length")
    if any(b < 1 for b in base):
        raise ValueError("base coordinates must be positive")

    terms = _difference_terms(order)
    bases_tried = []
    diffs_seen = []
    for _ in range(policy.max_rounds + 1):
        points = _round_points(base, terms, policy.window)
        values = dict(zip(points, evaluate(points), strict=True))
        diffs = [
            _mixed_difference(values, tuple(b + s for b in base), terms)
            for s in range(policy.window + 1)
        ]
        bases_tried.append(base)
        diffs_seen.append(tuple(diffs))
        if all(v == diffs[0] for v in diffs):
            samples = tuple(
                LengthSample(point, value) for point, value in sorted(values.items())
            )
            return DifferenceTable(
                base=base,
                order=order,
                samples=samples,
                result=diffs[0],
                rounds=len(bases_tried),
            )
        base = tuple(b * policy.growth for b in base)
    raise StabilizationError(
        "difference window never became constant",
        bases=bases_tried,
        attempts=diffs_seen,
    )


def _merge_slots(ideals, type_):
    """Drop zero slots and fuse repeated ideals, summing their orders."""
    merged: list[MonomialIdeal] = []
    orders: list[int] = []
    for I, a in zip(ideals, type_):
        if a == 0:
            continue
        if not is_m_primary(I):
            raise NotMPrimaryError(
                "mixed multiplicities need m-primary ideals in every "
                "slot with positive order"
            )
        try:
            at = merged.index(I)
        except ValueError:
            merged.append(I)
            orders.append(a)
        else:
            orders[at] += a
    return merged, tuple(orders)


def _heuristic_base(ideals, dim: int) -> int:
    top = max((max(max(g) for g in I.gens) for I in ideals), default=1)
    return max(dim, top + 1)


def _merged(ideals, type_):
    """`ideals` and `type_` checked and merged: the ideals with positive order, and their orders."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    if type_ is None:
        type_ = (1,) * len(ideals)
    d = ideals[0].dim
    for I in ideals:
        if I.dim != d:
            raise DimensionMismatchError(
                f"ideals live in different dimensions: {I.dim} != {d}"
            )
    type_ = integer_exponents(type_)
    if len(type_) != len(ideals):
        raise ValueError("type length must match the number of ideals")
    if any(a < 0 for a in type_):
        raise ValueError("type entries must be non-negative")
    if sum(type_) != d:
        raise ValueError(f"type must sum to the ambient dimension {d}")
    merged, orders = _merge_slots(ideals, type_)
    return tuple(merged), orders


def _positive(value: int, route: str) -> int:
    """`value`, which `route` produced, unless it is no possible mixed multiplicity."""
    if value < 1:
        raise ImpossibleValueError(
            f"{route} produced {value}; mixed multiplicities "
            "of m-primary ideals are positive, so the inputs are inconsistent"
        )
    return value


@lru_cache(maxsize=MEMO_ENTRIES)
def _newton_value(merged, orders) -> int:
    """e(J_1^[a_1], ..., J_s^[a_s]) of the merged ideals J_j at `orders` a, from Newton polyhedra.

    lambda(R / closure of prod J_j^(t_j)) is a polynomial of total degree d
    on all of Z^s_>=0 (module docstring), so its order-a difference at base
    0 is the value.  Each term is `closure.closure_colength` of the facets
    of the whole sum (`closure.sum_facets`), with right-hand sides
    sum t_j h_j(a), h_j(a) = min over J_j's generators of a.g, on the box
    of summed pure-power bounds.  The largest of those fields is the one at
    t = a, so its cells are allocated once, before anything else: a field
    past numpy's maximum size, or one the machine will not allocate,
    raises MemoryError at once.  Then the summed box must pass
    `closure.check_int64`, and all the arithmetic fits in int64.  Memoized
    for the last MEMO_ENTRIES keys, which are frozen.
    """
    bounds = [box_bounds(I) for I in merged]

    def box(t):
        return [sum(map(mul, t, side)) for side in zip(*bounds)]

    top = box(orders)
    cells = closure.field_cells(top)
    closure.check_int64(top)
    gens = [as_array(I) for I in merged]
    A, b = closure.sum_facets(gens)
    normals = np.array(A, dtype=np.int64).T
    support = [(g @ normals).min(axis=0) for g in gens]
    terms = _difference_terms(orders)
    values = {}
    for t, _ in terms:
        rhs = sum(map(mul, t, support))
        values[t] = closure.closure_colength(A, rhs.tolist(), box(t), cells) if any(t) else 0
    return _mixed_difference(values, (0,) * len(orders), terms)


def mixed_difference_table(ideals, type_=None) -> DifferenceTable:
    """The stabilized difference table of the engine: the independent oracle of `mixed_multiplicity`.

    The ideals are merged as by `mixed_multiplicity`, and their product
    colengths come from `lengths.shared_sampler`, at a base read off the
    generators.  Nothing here is memoized, so every call stabilizes afresh.
    """
    merged, orders = _merged(ideals, type_)
    policy = StabilizePolicy(initial_base=_heuristic_base(merged, merged[0].dim))
    table = stabilize(shared_sampler(merged).colengths, orders, policy)
    _positive(table.result, "difference table")
    return table


def mixed_multiplicity(ideals, type_=None) -> int:
    """Mixed multiplicity e(I_1^[a_1], ..., I_s^[a_s]).

    `type_` defaults to (1, ..., 1), which requires exactly d ideals.  Slots
    with a_i = 0 are ignored; repeated ideals are merged by summing their
    orders.  Every counted slot must hold an m-primary ideal.  The value
    comes from Newton polyhedra (`_newton_value`), with no difference
    window; `mixed_difference_table` computes it independently.
    """
    merged, orders = _merged(ideals, type_)
    return _positive(_newton_value(merged, orders), "the Newton route")


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
    return mixed_multiplicity([m] * k + ideals, (1,) * d)
