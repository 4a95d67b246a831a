"""Colengths of monomial ideals and memoized colengths of ideal products.

`colength` is the workhorse: length of R/I as a k-vector space, i.e. the
number of standard monomials.  Powers of the maximal ideal short-circuit to
a binomial; everything else is the sum of the ideal's height field on the
box of pure-power bounds.  `ProductSampler` serves the multiplicity engine,
which needs lambda(R / I_1^{n_1} ... I_s^{n_s}) on many nearby exponent
vectors, on height fields (on minimal generators once a field would pass
`counting.FIELD_CELLS`).  `colengths` takes all the points of a difference
round at once and builds their fields depth-first from the round's root,
one product per new point beyond the climb to the root.  `colength_at`
takes one point and walks to it from a kept product, one product in all
when a neighbour one step below is kept; small products are kept by cells
(a whole composition layer fits), large ones by count (`PRODUCTS_KEPT`).
Repeated exact results come from bounded memos, least recently used out:
`shared_sampler` holds the samplers every caller shares, `colength` keeps
MEMO_ENTRIES colengths, and `multiplicity` keeps as many difference tables.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from math import comb, prod
from operator import add, mul

import numpy as np

from .counting import FIELD_CELLS, count_grid, count_naive, field_count, height_axis
from .counting import field_dtype, multiply_field
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

# Entries of the colength and difference-table memos.  A corpus of small
# ideals asks for the same values again and again: `verify --dim 2 --rank 3
# --instances 300` stabilizes 3 300 tables, 308 of them distinct, and counts
# 1 800 colengths of 19 distinct ideals.  Each entry pins its key ideals; a
# table entry also keeps every LengthSample of its rounds.  Filled with d=4
# keys (`verify --dim 4 --instances 150`, 1 437 distinct tables), the table
# memo held 6.8 MiB, about 6.8 KiB an entry, and the colength memo 0.67 KiB
# an entry (tracemalloc), while that run's peak RSS, set by its largest
# products, stayed at the unmemoized 194-198 MiB.
MEMO_ENTRIES = 1024


@lru_cache(maxsize=MEMO_ENTRIES)
def colength(I: MonomialIdeal) -> int:
    """Number of standard monomials of I; 0 for the unit ideal.

    Memoized for the last MEMO_ENTRIES ideals.  Raises NotMPrimaryError
    when the count is infinite.
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
    so memory stays bounded for large boxes with few generators.  The
    fields of a batch of points (`colengths`) grow depth-first from their
    meet; see `_grow`.  To reach the meet, or a single point n, start from
    a kept product at n - e_j, one step below; failing that, from the kept
    product nearest below n (or from the unit ideal), and multiply by one
    ideal at a time, lowest index first, carrying the box.  Only these
    walks keep products.
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
        self._columns = list(zip(*bounds))
        self._m_degrees = [m_power_degree(I) for I in ideals]
        self._all_m = all(k is not None for k in self._m_degrees)
        self._gens = [as_array(I) for I in ideals]
        self._units = {j for j, I in enumerate(ideals) if I.is_unit}
        self._axis = height_axis([sum(b[i] for b in bounds) for i in range(d)])
        # a product costs one min-plus update per generator of the ideal it adds
        self._cheapest = sorted(range(len(ideals)), key=lambda j: len(self._gens[j]))
        self._fields = _Kept()
        self._chains = _Kept()
        self._counts: dict[tuple[int, ...], int] = {}

    def _box(self, n):
        return tuple([sum(map(mul, n, column)) for column in self._columns])

    def _walk(self, kept, n):
        """The product at n and its box, from `kept`: at n, one step below, or nearest below.

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
            held = np.zeros((0,) * (self.dim - 1), dtype=field_dtype(0))
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
        return held, box

    def _grow(self, points) -> None:
        """Count the fields of `points` depth-first from their meet, the root.

        A point's parent is the point one step below it in the slot whose
        ideal has the fewest generators (lowest index on ties) among the
        steps that stay among the points; failing that, the first step in
        that order that stays above the root, added to the tree as a point
        of its own.  The root comes from `_walk`; every other node costs one
        product from its parent's field.  Smaller subtrees go first and the
        last child takes over its parent's field, so the path stack holds
        only the ancestors that still have children to visit, and it is
        freed on return: nothing below the root is kept.
        """
        root = tuple(map(min, zip(*points)))
        held, box = self._walk(self._fields, root)
        if root not in self._counts:
            self._counts[root] = field_count(held)
        pending = sorted(set(points) - {root})
        if not pending:
            return
        children = {p: [] for p in (root, *pending)}
        while pending:
            p = pending.pop()
            steps = [
                (j, p[:j] + (p[j] - 1,) + p[j + 1 :]) for j in self._cheapest if p[j] > root[j]
            ]
            j, up = next((step for step in steps if step[1] in children), steps[0])
            if up not in children:
                children[up] = []
                pending.append(up)
            children[up].append((j, p))
        size = {}
        for p in sorted(children, key=sum, reverse=True):
            size[p] = 1 + sum([size[c] for _, c in children[p]])

        def push(p, held, box):
            """Queue the children of p with their slots, the largest subtree last."""
            if children[p]:
                kids = sorted(children[p], key=lambda jc: (size[jc[1]], jc[1]), reverse=True)
                path.append((held, box, kids))

        path = []
        push(root, held, box)
        while path:
            held, box, kids = path[-1]
            j, c = kids.pop()
            if not kids:
                path.pop()
            bounds = self._bounds[j]
            held = multiply_field(held, box, self._gens[j], bounds, self._axis)
            if c not in self._counts:
                self._counts[c] = field_count(held)
            push(c, held, tuple(map(add, box, bounds)))

    def _key(self, n) -> tuple[int, ...]:
        """n as a tuple of ints, with the exponents of unit ideals set to 0."""
        n = tuple(map(int, n))
        if len(n) != len(self.ideals):
            raise ValueError("exponent vector length mismatch")
        if min(n) < 0:
            raise ValueError("exponents must be non-negative")
        if self._units:
            n = tuple(0 if j in self._units else e for j, e in enumerate(n))
        return n

    def _fill(self, todo) -> None:
        """Count every point of `todo` not counted yet; fields go depth-first together."""
        fields = set()
        for n in todo:
            if n in self._counts:
                continue
            if self._all_m:
                total_deg = sum(e * k for e, k in zip(n, self._m_degrees))
                self._counts[n] = comb(total_deg - 1 + self.dim, self.dim) if total_deg else 0
            elif not any(n):
                self._counts[n] = 0
            else:
                box = self._box(n)
                if prod(b for i, b in enumerate(box) if i != self._axis) <= FIELD_CELLS:
                    fields.add(n)
                else:
                    self._counts[n] = count_grid(*self._walk(self._chains, n))
        if fields:
            self._grow(fields)

    def colength_at(self, n) -> int:
        n = self._key(n)
        if n not in self._counts:
            self._fill((n,))
        return self._counts[n]

    def colengths(self, points) -> list[int]:
        """Colengths at all `points`, their fields built in one depth-first walk."""
        keys = [self._key(n) for n in points]
        self._fill(keys)
        return [self.colength_at(n) for n in keys]


@lru_cache(maxsize=4)
def shared_sampler(ideals: tuple[MonomialIdeal, ...]) -> ProductSampler:
    """The sampler of a tuple of ideals, from a small cache shared by all callers.

    Bounded by count like the colength and table memos, but to four
    samplers, since each keeps fields of up to PRODUCTS_KEPT products.
    """
    return ProductSampler(ideals)


def colength_of_product(ideals, exponents) -> int:
    """lambda(R / prod I_j^{n_j}) for m-primary ideals; 0 when all n_j = 0."""
    key = tuple(ideals)
    n = tuple(int(e) for e in exponents)
    if len(n) != len(key):
        raise ValueError("one exponent per ideal")
    return shared_sampler(key).colength_at(n)
