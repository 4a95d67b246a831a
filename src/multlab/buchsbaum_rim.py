"""Buchsbaum-Rim multiplicities of direct sums of monomial ideals.

For E = I_1 e_1 + ... + I_r e_r inside F = R^r with each I_i m-primary (or
all of R), the function n |-> lambda(Sym^n F / image of Sym^n E) is a sum of
colengths of products over all compositions of n, eventually polynomial of
degree d + r - 1.  `br_via_mixed` answers: br(E) = sum over the
compositions a of d of e(I_1^[a_1], ..., I_r^[a_r]), and it passes those
compositions, weighted, to one `closure.mixed_sum`, which answers on one
Newton hull, from its facets in d <= 3 and from closure colengths from
d = 4 on; this module builds neither, and in d <= 3 no box is built.
`br_direct`, the oracle, extracts (d+r-1)! times the leading coefficient
from a stabilized difference table.  The two routes share neither the
difference window nor the hull, so their agreement is a real cross-check.
The oracle sums C(n + r - 1, r - 1) compositions per n over r distinct
columns, so its time grows fast with r, though the sampler climbs their
products in batches: on r distinct columns (x^2, y^(k+1)), k < r, in
d = 2 it took 0.009-0.015 s at r = 4, 0.32-0.78 s at r = 6 and 28-39 s
at r = 8 on a 2-core Xeon host (with one product per kernel call,
0.016-0.035 s, 0.79-1.47 s and 53 s there), where `br_via_mixed` took
1-2 ms.  At r = 8 the Python bookkeeping of the round's 3 095 235
compositions, not their products, takes most of the time.  Both routes,
and `module_colength`, take their compositions from
`monomial.compositions`, the enumerator that also writes the generators
of m^k.  `scale_by_m` is the one multiplication by m, of an ideal or of
each column of a module.

Equal columns are fused first, in order of first appearance, as
`multiplicity._merged` fuses equal slots, by a `Counter` of the columns.  A column J_g that
appears m_g times sees only the sum s_g of the exponents of its copies, and
C(s_g + m_g - 1, m_g - 1) compositions over the copies give that sum, so a
composition s over the distinct columns weighs the product of those
binomials (`_weights`), in which a column seen once is the factor 1 and
is not read.  Every sum runs over the compositions into the distinct
columns, so its cost follows their number, not the rank: 1 100 copies of
one column cost what one costs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from math import comb
from operator import mul

from .closure import mixed_sum
from .lengths import ProductSampler, colength
from .monomial import MonomialIdeal, common_dim, compositions, integer, integer_exponents
from .monomial import is_m_primary, m_ideal, product
from .multiplicity import _heuristic_base, _positive, stabilize

_BR_KIND = "Buchsbaum-Rim multiplicities of proper submodules"


@dataclass(frozen=True)
class DirectSumModule:
    """A submodule ⊕ I_i e_i of the free module R^r, given by its column ideals."""

    ideals: tuple[MonomialIdeal, ...]

    def __post_init__(self):
        if not self.ideals:
            raise ValueError("a direct sum needs at least one column ideal")
        object.__setattr__(self, "ideals", tuple(self.ideals))
        common_dim(self.ideals)
        for I in self.ideals:
            if not (I.is_unit or is_m_primary(I)):
                raise ValueError(
                    "column ideals must be m-primary (or the whole ring)"
                )

    @property
    def dim(self) -> int:
        return self.ideals[0].dim

    @property
    def rank(self) -> int:
        return len(self.ideals)

    @property
    def contained_in_mF(self) -> bool:
        """True when every column ideal is proper, i.e. E sits inside mF."""
        return all(not I.is_unit for I in self.ideals)

    def quotient_colength(self) -> int:
        """lambda(F/E) = sum of the column colengths."""
        return sum(colength(I) for I in self.ideals)


def module(ideals) -> DirectSumModule:
    return DirectSumModule(tuple(ideals))


def _weights(points, copies: Counter) -> list[int]:
    """How many compositions over all the columns fuse to each of `points`.

    `copies` counts the columns, distinct ones in order of first appearance.
    A point s is a composition over the distinct columns, the g-th of which
    appears m_g times; it weighs prod_g C(s_g + m_g - 1, m_g - 1), a
    product over the repeated columns alone, since a column seen once
    gives the factor 1.  The weights are built a repeated column at a time,
    so with none every weight is 1 and no point is read: an empty product
    per point took 8 % of `br_direct` on seven distinct columns (cProfile).
    """
    weights = [1] * len(points)
    for g, m in enumerate(copies.values()):
        if m > 1:
            weights = [w * comb(s[g] + m - 1, m - 1) for w, s in zip(weights, points)]
    return weights


def _module_colengths(E: DirectSumModule):
    """The function mapping a list of n to lambda(Sym^n F / E^n) for each n.

    E's columns are fused, and the compositions of every n over the
    distinct columns go to one sampler climb (`ProductSampler._counts`,
    which takes them unchecked) in one call; each n sums its
    C(n + s - 1, s - 1) colengths, s distinct columns, times their weights.
    """
    copies = Counter(E.ideals)
    sampler, s = ProductSampler(tuple(copies)), len(copies)

    def evaluate(ns) -> list[int]:
        points = [a for n in ns for a in compositions(n, s)]
        values = map(mul, _weights(points, copies), sampler._counts(points))
        return [sum(islice(values, comb(n + s - 1, s - 1))) for n in ns]

    return evaluate


def module_colength(E: DirectSumModule, n: int) -> int:
    """lambda(Sym^n F / E^n): sum of product colengths over compositions of n, n = 0 included."""
    (n,) = integer_exponents((n,))
    if n < 0:
        raise ValueError("n must be non-negative")
    return _module_colengths(E)([n])[0]


def _proper_columns(E: DirectSumModule) -> list[MonomialIdeal]:
    proper = [I for I in E.ideals if not I.is_unit]
    if not proper:
        raise ValueError("E equals F; the Buchsbaum-Rim multiplicity needs E != F")
    return proper


def br_direct(E: DirectSumModule) -> int:
    """Buchsbaum-Rim multiplicity from the symmetric-power colength function.

    Takes the (d + r - 1)-th difference of n |-> module_colength(E, n) at a
    stabilized base; the constant window certifies that the polynomial
    degree is exactly d + r - 1 with the expected leading behaviour.  Each
    round's module colengths come from one batched climb over the
    compositions into the distinct columns, from the unit ideal through
    their meet.  The sampler is this call's own, so nothing it builds
    outlives the call.
    """
    proper = _proper_columns(E)
    d = E.dim
    evaluate = _module_colengths(E)
    table = stabilize(lambda points: evaluate([n for (n,) in points]),
                      (d + E.rank - 1,), base=_heuristic_base(proper, d))
    return _positive(table.result, "difference table", _BR_KIND)


def br_via_mixed(E: DirectSumModule) -> int:
    """Buchsbaum-Rim multiplicity as a sum of mixed multiplicities, in one closure sum.

    br(E) = sum over compositions a of d of e(I_1^[a_1], ..., I_r^[a_r]),
    where only the r proper columns count: the colength function does not
    depend on the exponent of a unit column.  Equal proper columns are
    fused, and each composition a over the distinct ones weighs the number
    of compositions over all r that fuse to it (`_weights`).  Those pairs
    go to `closure.mixed_sum`, which answers on one hull.
    """
    copies = Counter(_proper_columns(E))
    points = compositions(E.dim, len(copies))
    value = mixed_sum(tuple(copies), zip(points, _weights(points, copies)))
    return _positive(value, "the Newton route", _BR_KIND)


def scale_by_m(x):
    """Multiply by the maximal ideal: ideals map to m*I, modules columnwise."""
    if isinstance(x, DirectSumModule):
        return DirectSumModule(tuple(map(scale_by_m, x.ideals)))
    if isinstance(x, MonomialIdeal):
        return product(m_ideal(x.dim), x)
    raise TypeError(f"cannot scale {type(x).__name__} by m")


def composition_count(d: int, r: int) -> tuple[int, int]:
    """(number of compositions of d into r parts, per-term Lech constant).

    The second entry is (d + r - 1)! / (r! (d - 1)!) = C(d + r - 1, r),
    which equals d/r times the first.
    """
    d, r = integer(d, "d"), integer(r, "r")
    if d < 1 or r < 1:
        raise ValueError("d and r must be positive")
    return comb(d + r - 1, r - 1), comb(d + r - 1, r)
