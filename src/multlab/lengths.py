"""Colengths of monomial ideals and memoized colengths of ideal products.

`colength` is the workhorse: length of R/I as a k-vector space, i.e. the
number of standard monomials.  Powers of the maximal ideal short-circuit to
a binomial; everything else is the sum of the ideal's height field on the
box of pure-power bounds.  `ProductSampler` serves the multiplicity engine,
which needs lambda(R / I_1^{n_1} ... I_s^{n_s}) on many nearby exponent
vectors: it walks the lattice on height fields (on minimal generators once
a field would pass `counting.FIELD_CELLS`), so each new vector costs one
product per step from a kept product plus one count, and one product in all
when a neighbour one step below is kept.  Small products are kept by cells
(a whole composition layer fits), large ones by count (`PRODUCTS_KEPT`).
`shared_sampler` is the one bounded cache of samplers that every caller
shares.
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

# Products one sampler keeps of each kind, least recently used out, once
# they hold more than KEPT_CELLS array elements together.  The lattice walks
# of a difference table step between neighbours, so small products are kept
# by cells, enough for a whole layer of compositions of n, while large ones
# stay at PRODUCTS_KEPT: keeping every field grows memory like the number of
# points times (n*b)^(d-1).  Either way one kind holds at most
# PRODUCTS_KEPT * FIELD_CELLS cells of fields.
PRODUCTS_KEPT = 4
KEPT_CELLS = FIELD_CELLS // PRODUCTS_KEPT


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


class _Kept(OrderedDict):
    """Products of one kind by exponent vector, least recently used first."""

    def __init__(self):
        super().__init__()
        self.cells = 0

    def keep(self, n, held) -> None:
        """Add the product at n, which is not kept yet, and drop old ones past the budget."""
        self[n] = held
        self.cells += held.size
        while len(self) > PRODUCTS_KEPT and self.cells > KEPT_CELLS:
            self.cells -= self.popitem(last=False)[1].size


class ProductSampler:
    """Colengths of products prod_j I_j^{n_j}, memoized across exponents.

    Products are height fields along one axis per sampler: the longest side
    of the summed boxes of the ideals.  A product whose field would have
    more than FIELD_CELLS cells is held as its minimal generators instead,
    so memory stays bounded for large boxes with few generators.  To reach
    n, start from a kept product at n - e_j, one step below; failing that,
    from the kept product nearest below n (or from the unit ideal), and
    multiply by one ideal at a time, lowest index first, carrying the box.
    Products of each kind are dropped least recently used first, but only
    while more than PRODUCTS_KEPT of them hold more than KEPT_CELLS cells
    together: small products keep a whole layer of neighbours, large ones
    the last PRODUCTS_KEPT.  Unit ideals never change a product, and when
    every ideal is a power of the maximal ideal the colength collapses to a
    binomial and nothing is built.
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
        self._fields = _Kept()
        self._chains = _Kept()
        self._counts: dict[tuple[int, ...], int] = {}

    def _box(self, n):
        return tuple(
            sum(e * b[i] for e, b in zip(n, self._bounds)) for i in range(self.dim)
        )

    def _walk(self, kept, n):
        """The product at n, from `kept`: at n, one step below n, or nearest below n.

        `kept` is `_fields` for a height field, `_chains` for minimal generators.
        """
        fields = kept is self._fields
        steps = (n[:j] + (e - 1,) + n[j + 1 :] for j, e in enumerate(n) if e)
        cur = next((q for q in (n, *steps) if q in kept), None)
        if cur is None:
            below = [q for q in kept if all(a <= b for a, b in zip(q, n))]
            cur = max(below, key=sum, default=(0,) * len(n))
        if cur in kept:
            kept.move_to_end(cur)
            held = kept[cur]
        elif fields:
            held = np.zeros((0,) * (self.dim - 1), dtype=np.int32)
        else:
            held = np.zeros((1, self.dim), dtype=np.int64)
        box = self._box(cur)
        while cur != n:
            j = next(j for j, (a, b) in enumerate(zip(cur, n)) if a < b)
            gens, bounds = self._gens[j], self._bounds[j]
            if fields:
                held = multiply_field(held, box, gens, bounds, self._axis)
            else:
                held = minimalize_array(product_array(held, gens))
            box = tuple(a + b for a, b in zip(box, bounds))
            cur = cur[:j] + (cur[j] + 1,) + cur[j + 1 :]
            kept.keep(cur, held)
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
