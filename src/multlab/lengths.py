"""Colengths of monomial ideals and memoized colengths of ideal products.

`colength` is the workhorse: length of R/I as a k-vector space, i.e. the
number of standard monomials.  Powers of the maximal ideal short-circuit to
a binomial; everything else is the sum of the ideal's height field on the
box of pure-power bounds.  `ProductSampler` serves the difference-table
engine (`br_direct` and `mixed_difference_table`), which needs
lambda(R / I_1^{n_1} ... I_s^{n_s}) on many nearby exponent vectors, and
builds every product as a height field (`multiply_field`).
Each ideal's generators are split once per sampler into the rows and
margins the field kernel reads (`counting.field_rows`), so a product does
no per-generator set-up.
`colengths` takes all the points of a difference round at once: it checks
and keys each point once, builds the products of the points not counted
yet in one depth-first walk, one product per new point beyond the climb
to their meet, and then reads every point's count.  The climb starts from
the one product a sampler keeps, the last walk's meet, when it lies below.
`colength_at` is the same on one point.  Repeated exact results come from
bounded memos, least recently used out:
`shared_sampler` holds the samplers every caller shares, `colength` keeps
MEMO_ENTRIES colengths, and `multiplicity._newton_value` keeps as many
mixed multiplicities.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, le

import numpy as np

from .counting import count_grid, count_naive, field_count, height_axis
from .counting import field_dtype, field_rows, multiply_field
from .errors import NotMPrimaryError
from .monomial import (
    MonomialIdeal,
    as_array,
    box_bounds,
    integer_exponents,
    is_m_primary,
    m_power_degree,
)

# Entries of the colength and mixed-multiplicity memos.  A corpus of small
# ideals asks for the same values again and again: `verify --dim 2 --rank 3
# --instances 300` asks for 3 300 mixed multiplicities, 308 of them
# distinct, and counts 1 800 colengths of 19 distinct ideals.  Each entry
# pins its key ideals and holds one int.  Filled with d=4 keys (`verify
# --dim 4 --instances 150`, 1 437 distinct values), the mixed-multiplicity
# memo held 1.1 MiB and the colength memo 0.4 MiB (tracemalloc).
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


class ProductSampler:
    """Colengths of products prod_j I_j^{n_j}, memoized across exponents.

    Products are height fields along one axis per sampler: the longest side
    of the summed boxes of the ideals.  Every product is built by one
    depth-first walk over the points of a call (`_grow`), from the root
    kept by the last walk or from the unit ideal.  Between calls a sampler
    holds its counts and one product, that root's.  Unit ideals never
    change a product, and when every ideal is a power of the maximal ideal
    the colength collapses to a binomial and nothing is built.
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
        gens = [as_array(I) for I in ideals]
        self._units = {j for j, I in enumerate(ideals) if I.is_unit}
        axis = height_axis([sum(b[i] for b in bounds) for i in range(d)])
        self._rows = [field_rows(g, b, axis) for g, b in zip(gens, bounds)]
        # a product costs one min-plus update per generator of the ideal it adds
        self._cheapest = sorted(range(len(ideals)), key=lambda j: len(gens[j]))
        self._root = None  # (point, field, box) at the meet of the last walk
        self._counts: dict[tuple[int, ...], int] = {}

    def _grow(self, points) -> None:
        """Count `points` in one depth-first walk through their meet.

        The walk starts from the root kept by the last walk when that root
        lies below the new meet, and from the unit ideal otherwise.  It
        climbs from there to the meet one product at a time, slot by slot
        in reverse of `_cheapest`, so the first field too large to
        allocate fails before anything else is planned.  Above the meet a
        node's parent is one step below it, in the slot whose ideal has
        the fewest generators (lowest index on ties) among the steps that
        stay among the nodes; failing that, the first step in that order
        that stays above the meet, added as a node of its own.  Every node
        but the meet costs one field product from its parent's.  Smaller
        subtrees go first and the last child takes over its parent's
        product, so the path stack holds only the ancestors that still
        have children to visit; of the products, only the meet's is kept.
        """
        meet = tuple(map(min, zip(*points)))
        if self._root and all(map(le, self._root[0], meet)):
            start, held, box = self._root
        else:
            start, box = (0,) * len(meet), (0,) * self.dim
            held = np.zeros((0,) * (self.dim - 1), field_dtype(0))
        self._root = None  # a root the walk does not start from is freed before it
        for j in reversed(self._cheapest):
            for _ in range(meet[j] - start[j]):
                held = multiply_field(held, box, self._rows[j])
                box = tuple(map(add, box, self._bounds[j]))
        pending = sorted(set(points) - {meet})
        children = {p: [] for p in (meet, *pending)}
        while pending:
            p = pending.pop()
            steps = [
                (j, p[:j] + (p[j] - 1,) + p[j + 1 :]) for j in self._cheapest if p[j] > meet[j]
            ]
            j, up = next((step for step in steps if step[1] in children), steps[0])
            if up not in children:
                children[up] = []
                pending.append(up)
            children[up].append((j, p))
        size = {}
        for p in sorted(children, key=sum, reverse=True):
            size[p] = 1 + sum([size[c] for _, c in children[p]])

        def visit(p, held, box):
            """Count p if asked, keep it if it is the meet, and queue its children."""
            if p in points:
                self._counts[p] = field_count(held)
            if p == meet:
                self._root = (meet, held, box)
            if children[p]:
                kids = sorted(children[p], key=lambda jc: (size[jc[1]], jc[1]), reverse=True)
                path.append((held, box, kids))

        path = []
        visit(meet, held, box)
        while path:
            held, box, kids = path[-1]
            j, c = kids.pop()
            if not kids:
                path.pop()
            held = multiply_field(held, box, self._rows[j])
            visit(c, held, tuple(map(add, box, self._bounds[j])))

    def _key(self, n) -> tuple[int, ...]:
        """n as a tuple of ints, with the exponents of unit ideals set to 0."""
        n = integer_exponents(n)
        if len(n) != len(self.ideals):
            raise ValueError("exponent vector length mismatch")
        if min(n) < 0:
            raise ValueError("exponents must be non-negative")
        if self._units:
            n = tuple(0 if j in self._units else e for j, e in enumerate(n))
        return n

    def _fill(self, todo) -> None:
        """Count every point of `todo` not counted yet, in one walk."""
        walk = set()
        for n in todo:
            if n in self._counts:
                continue
            if self._all_m:
                total_deg = sum(e * k for e, k in zip(n, self._m_degrees))
                self._counts[n] = comb(total_deg - 1 + self.dim, self.dim) if total_deg else 0
            elif not any(n):
                self._counts[n] = 0
            else:
                walk.add(n)
        if walk:
            self._grow(walk)

    def colength_at(self, n) -> int:
        n = self._key(n)
        if n not in self._counts:
            self._fill((n,))
        return self._counts[n]

    def colengths(self, points) -> list[int]:
        """Colengths at all `points`, their products built in one walk."""
        keys = [self._key(n) for n in points]
        self._fill(keys)
        counts = self._counts
        return [counts[n] for n in keys]


@lru_cache(maxsize=4)
def shared_sampler(ideals: tuple[MonomialIdeal, ...]) -> ProductSampler:
    """The sampler of a tuple of ideals, from a small cache shared by all callers.

    Bounded by count like the colength and table memos, but to four
    samplers, since each keeps its counts and one root product.
    """
    return ProductSampler(ideals)


def colength_of_product(ideals, exponents) -> int:
    """lambda(R / prod I_j^{n_j}) for m-primary ideals; 0 when all n_j = 0."""
    return shared_sampler(tuple(ideals)).colength_at(exponents)
