"""Buchsbaum-Rim multiplicities of direct sums of monomial ideals.

For E = I_1 e_1 + ... + I_r e_r inside F = R^r with each I_i m-primary (or
all of R), the function n |-> lambda(Sym^n F / image of Sym^n E) is a sum of
colengths of products over all compositions of n, eventually polynomial of
degree d + r - 1.  `br_direct` extracts (d+r-1)! times the leading
coefficient from a stabilized difference table; `br_via_mixed` recomputes it
as the sum of mixed multiplicities over compositions of d into r parts,
which come from Newton polyhedra.  The two routes share neither the
difference window nor the hull, so their agreement is a real cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, factorial

from .errors import ImpossibleValueError
from .lengths import colength, shared_sampler
from .monomial import MonomialIdeal, integer, integer_exponents, is_m_primary
from .monomial import scale_by_m as _scale_ideal
from .multiplicity import StabilizePolicy, _heuristic_base, mixed_multiplicity, stabilize


@dataclass(frozen=True)
class DirectSumModule:
    """A submodule ⊕ I_i e_i of the free module R^r, given by its column ideals."""

    ideals: tuple[MonomialIdeal, ...]

    def __post_init__(self):
        if not self.ideals:
            raise ValueError("a direct sum needs at least one column ideal")
        object.__setattr__(self, "ideals", tuple(self.ideals))
        d = self.ideals[0].dim
        for I in self.ideals:
            if I.dim != d:
                raise ValueError("column ideals live in different dimensions")
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


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def module_colength(E: DirectSumModule, n: int) -> int:
    """lambda(Sym^n F / E^n): sum of product colengths over compositions of n."""
    (n,) = integer_exponents((n,))
    if n < 0:
        raise ValueError("n must be non-negative")
    sampler = shared_sampler(E.ideals)
    return sum(sampler.colength_at(a) for a in _compositions(n, E.rank))


def br_direct(E: DirectSumModule) -> int:
    """Buchsbaum-Rim multiplicity from the symmetric-power colength function.

    Takes the (d + r - 1)-th difference of n |-> module_colength(E, n) at a
    stabilized base; the constant window certifies that the polynomial
    degree is exactly d + r - 1 with the expected leading behaviour.  Each
    round hands the compositions of all its n to the sampler in one
    `colengths` call and sums each n's colengths from that one result.
    """
    proper = [I for I in E.ideals if not I.is_unit]
    if not proper:
        raise ValueError("E equals F; the Buchsbaum-Rim multiplicity needs E != F")
    d, r = E.dim, E.rank
    order = d + r - 1
    policy = StabilizePolicy(initial_base=_heuristic_base(proper, d))
    sampler = shared_sampler(E.ideals)

    def evaluate(points):
        values = iter(sampler.colengths([a for (n,) in points for a in _compositions(n, r)]))
        return [sum(islice(values, comb(n + r - 1, r - 1))) for (n,) in points]

    table = stabilize(evaluate, (order,), policy)
    if table.result < 1:
        raise ImpossibleValueError(
            f"difference table produced {table.result}; Buchsbaum-Rim "
            "multiplicities of proper submodules are positive"
        )
    return table.result


def br_via_mixed(E: DirectSumModule) -> int:
    """Buchsbaum-Rim multiplicity as a sum of mixed multiplicities.

    br(E) = sum over compositions (a_1, ..., a_r) of d of
    e(I_1^[a_1], ..., I_r^[a_r]).  Compositions that put positive weight on
    a unit column contribute nothing (the colength function does not depend
    on that exponent) and are skipped.
    """
    if not any(not I.is_unit for I in E.ideals):
        raise ValueError("E equals F; the Buchsbaum-Rim multiplicity needs E != F")
    d, r = E.dim, E.rank
    total = 0
    for a in _compositions(d, r):
        if any(w > 0 and I.is_unit for w, I in zip(a, E.ideals)):
            continue
        total += mixed_multiplicity(list(E.ideals), a)
    return total


def scale_by_m(x):
    """Multiply by the maximal ideal: ideals map to m*I, modules columnwise."""
    if isinstance(x, DirectSumModule):
        return DirectSumModule(tuple(_scale_ideal(I) for I in x.ideals))
    if isinstance(x, MonomialIdeal):
        return _scale_ideal(x)
    raise TypeError(f"cannot scale {type(x).__name__} by m")


def composition_count(d: int, r: int) -> tuple[int, int]:
    """(number of compositions of d into r parts, per-term Lech constant).

    The second entry is (d + r - 1)! / (r! (d - 1)!), which equals d/r times
    the first; the divisibility is checked rather than assumed.
    """
    d, r = integer(d, "d"), integer(r, "r")
    if d < 1 or r < 1:
        raise ValueError("d and r must be positive")
    count = comb(d + r - 1, r - 1)
    constant = factorial(d + r - 1) // (factorial(r) * factorial(d - 1))
    if constant * factorial(r) * factorial(d - 1) != factorial(d + r - 1):
        raise ArithmeticError("Lech constant is not integral")  # unreachable
    if constant * r != d * count:
        raise ArithmeticError("composition identity failed")  # unreachable
    return count, constant
