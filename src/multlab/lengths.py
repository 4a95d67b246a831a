"""Colengths of monomial ideals and memoized colengths of ideal products.

`colength` is the workhorse: length of R/I as a k-vector space, i.e. the
number of standard monomials.  Powers of the maximal ideal short-circuit to
a binomial; everything else is the sum of the ideal's height field on the
box of pure-power bounds.  `ProductSampler` serves the multiplicity engine,
which needs lambda(R / I_1^{n_1} ... I_s^{n_s}) on many nearby exponent
vectors: it walks the lattice on height fields (on minimal generators once
a field would pass `counting.FIELD_CELLS`), so each new vector costs one
product per step from a kept product plus one count.  `shared_sampler` is
the one bounded cache of samplers that every caller shares.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from math import comb, prod

import numpy as np

from .counting import FIELD_CELLS, count_grid, count_naive, field_count, height_axis
from .counting import multiply_field
from .errors import NotMPrimaryError
from .monomial import (
    MonomialIdeal,
    as_array,
    box_bounds,
    is_m_primary,
    m_power_degree,
    minimalize_array,
    product_array,
)

# Products one sampler keeps of each kind.  The lattice walks of a
# difference table step between neighbours, so a few recent products serve
# almost every step, while keeping every field grows memory like the number
# of points times (n*b)^(d-1).
PRODUCTS_KEPT = 4


def colength(I: MonomialIdeal) -> int:
    """Number of standard monomials of I; 0 for the unit ideal.

    Raises NotMPrimaryError when the count is infinite.
    """
    if I.is_unit:
        return 0
    k = m_power_degree(I)
    if k is not None:
        return comb(k - 1 + I.dim, I.dim)
    return count_grid(as_array(I), box_bounds(I))


def colength_naive(I: MonomialIdeal) -> int:
    """Reference colength by exhaustive box enumeration (small ideals only)."""
    if I.is_unit:
        return 0
    return count_naive(as_array(I), box_bounds(I))


class ProductSampler:
    """Colengths of products prod_j I_j^{n_j}, memoized across exponents.

    Products are height fields along one axis per sampler: the longest side
    of the summed boxes of the ideals.  A product whose field would have
    more than FIELD_CELLS cells is held as its minimal generators instead,
    so memory stays bounded for large boxes with few generators.  To reach
    n, start from the kept product nearest below n (or from the unit ideal)
    and multiply by one ideal at a time, lowest index first; only the
    PRODUCTS_KEPT most recently used products of each kind are kept.  Unit
    ideals never change a product, and when every ideal is a power of the
    maximal ideal the colength collapses to a binomial and nothing is built.
    """

    def __init__(self, ideals):
        ideals = tuple(ideals)
        if not ideals:
            raise ValueError("need at least one ideal")
        d = ideals[0].dim
        bounds = []
        for I in ideals:
            if I.dim != d:
                raise ValueError("mixed ambient dimensions in one sampler")
            if I.is_unit:
                bounds.append((0,) * d)
            elif is_m_primary(I):
                bounds.append(box_bounds(I))
            else:
                raise NotMPrimaryError(
                    "sampler requires m-primary (or unit) ideals"
                )
        self.ideals = ideals
        self.dim = d
        self._bounds = bounds
        self._m_degrees = [m_power_degree(I) for I in ideals]
        self._all_m = all(k is not None for k in self._m_degrees)
        self._gens = [as_array(I) for I in ideals]
        self._axis = height_axis([sum(b[i] for b in bounds) for i in range(d)])
        self._fields: OrderedDict[tuple[int, ...], object] = OrderedDict()
        self._chains: OrderedDict[tuple[int, ...], object] = OrderedDict()
        self._counts: dict[tuple[int, ...], int] = {}

    def _box(self, n):
        return tuple(
            sum(e * b[i] for e, b in zip(n, self._bounds)) for i in range(self.dim)
        )

    def _walk(self, kept, n):
        """The product at n, from the nearest product in `kept` below n.

        `kept` is `_fields` for a height field, `_chains` for minimal generators.
        """
        fields = kept is self._fields
        below = [q for q in kept if all(a <= b for a, b in zip(q, n))]
        cur = max(below, key=sum, default=(0,) * len(n))
        if cur in kept:
            kept.move_to_end(cur)
            held = kept[cur]
        elif fields:
            held = np.zeros((0,) * (self.dim - 1), dtype=np.int32)
        else:
            held = np.zeros((1, self.dim), dtype=np.int64)
        while cur != n:
            j = next(j for j, (a, b) in enumerate(zip(cur, n)) if a < b)
            gens = self._gens[j]
            if fields:
                held = multiply_field(held, self._box(cur), gens, self._bounds[j], self._axis)
            else:
                held = minimalize_array(product_array(held, gens))
            cur = cur[:j] + (cur[j] + 1,) + cur[j + 1 :]
            kept[cur] = held
            if len(kept) > PRODUCTS_KEPT:
                kept.popitem(last=False)
        return held

    def colength_at(self, n) -> int:
        n = tuple(int(e) for e in n)
        if len(n) != len(self.ideals):
            raise ValueError("exponent vector length mismatch")
        if any(e < 0 for e in n):
            raise ValueError("exponents must be non-negative")
        n = tuple(0 if I.is_unit else e for e, I in zip(n, self.ideals))
        hit = self._counts.get(n)
        if hit is not None:
            return hit
        if self._all_m:
            total_deg = sum(e * k for e, k in zip(n, self._m_degrees))
            value = comb(total_deg - 1 + self.dim, self.dim) if total_deg else 0
        elif not any(n):
            value = 0
        else:
            box = self._box(n)
            if prod(b for i, b in enumerate(box) if i != self._axis) <= FIELD_CELLS:
                value = field_count(self._walk(self._fields, n))
            else:
                value = count_grid(self._walk(self._chains, n), box)
        self._counts[n] = value
        return value


@lru_cache(maxsize=4)
def shared_sampler(ideals: tuple[MonomialIdeal, ...]) -> ProductSampler:
    """The sampler of a tuple of ideals, from one small cache shared by all callers."""
    return ProductSampler(ideals)


def colength_of_product(ideals, exponents) -> int:
    """lambda(R / prod I_j^{n_j}) for m-primary ideals; 0 when all n_j = 0."""
    key = tuple(ideals)
    n = tuple(int(e) for e in exponents)
    if len(n) != len(key):
        raise ValueError("one exponent per ideal")
    return shared_sampler(key).colength_at(n)
