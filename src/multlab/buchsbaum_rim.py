"""Buchsbaum-Rim multiplicities of direct sums of monomial ideals.

For E = I_1 e_1 + ... + I_r e_r inside F = R^r with each I_i m-primary (or
all of R), the function n |-> lambda(Sym^n F / image of Sym^n E) is a sum of
colengths of products over all compositions of n, eventually polynomial of
degree d + r - 1.  `br_via_mixed` answers: br(E) is the sum of the mixed
multiplicities e(I_1^[a_1], ..., I_r^[a_r]) over the compositions a of d,
and summed over every a the base-0 differences of the closure colengths
collapse to one weighted sum of them, one `closure.colength_sum` on one
Newton hull.  `br_direct`, the oracle, extracts (d+r-1)! times the leading
coefficient from a stabilized difference table.  The two routes share
neither the difference window nor the hull, so their agreement is a real
cross-check.  Both routes, and `module_colength`, take their compositions
from `monomial.compositions`, the enumerator that also writes the
generators of m^k.  `scale_by_m` is the one multiplication by m, of an
ideal or of each column of a module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb

from .closure import colength_sum
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


def _module_colengths(sampler: ProductSampler, ns) -> list[int]:
    """lambda(Sym^n F / E^n) for each n of `ns`, E the direct sum of the sampler's ideals.

    Every composition of every n goes to the sampler in one `colengths`
    call, one prefix walk, and each n sums its C(n + r - 1, r - 1) values.
    """
    r = len(sampler.ideals)
    values = iter(sampler.colengths([a for n in ns for a in compositions(n, r)]))
    return [sum(islice(values, comb(n + r - 1, r - 1))) for n in ns]


def module_colength(E: DirectSumModule, n: int) -> int:
    """lambda(Sym^n F / E^n): sum of product colengths over compositions of n, n = 0 included."""
    (n,) = integer_exponents((n,))
    if n < 0:
        raise ValueError("n must be non-negative")
    return _module_colengths(ProductSampler(E.ideals), [n])[0]


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
    round's module colengths come from one `colengths` call, one prefix
    walk from the unit ideal through their meet.  The sampler is this
    call's own, so nothing it builds outlives the call.
    """
    proper = _proper_columns(E)
    d = E.dim
    sampler = ProductSampler(E.ideals)
    table = stabilize(lambda points: _module_colengths(sampler, [n for (n,) in points]),
                      (d + E.rank - 1,), base=_heuristic_base(proper, d))
    return _positive(table.result, "difference table", _BR_KIND)


def br_via_mixed(E: DirectSumModule) -> int:
    """Buchsbaum-Rim multiplicity as a sum of mixed multiplicities, in one closure sum.

    br(E) = sum over compositions a of d of e(I_1^[a_1], ..., I_r^[a_r]),
    where only the r proper columns count: the colength function does not
    depend on the exponent of a unit column.  Each term is the order-a
    difference at 0 of the closure colengths L(t), and summed over every
    a the weight of L(t) is (-1)^{d-|t|} C(d+r-1, |t|+r-1), the
    coefficient of x^d in x^{|t|} / (1-x)^{|t|+r}.  So the value is one
    `closure.colength_sum` over the t with |t| <= d, on one hull.
    """
    proper = _proper_columns(E)
    d, r = E.dim, len(proper)
    terms = [
        (t, (-1) ** (d - k) * comb(d + r - 1, k + r - 1))
        for k in range(d + 1)
        for t in compositions(k, r)
    ]
    return _positive(colength_sum(proper, terms), "the Newton route", _BR_KIND)


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
