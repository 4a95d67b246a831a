"""Colengths of monomial ideals and colengths of ideal products.

`colength` is the workhorse: length of R/I as a k-vector space, i.e. the
number of standard monomials.  It is the sum of the ideal's height field on
the box of pure-power bounds (`count_grid`) for every ideal, with no
binomial shortcut for powers of m and no branch for R, whose box
(0, ..., 0) is empty and counts 0.  `ProductSampler` serves the
difference-table engine (`br_direct` and `mixed_difference_table`), which
needs lambda(R / I_1^{n_1} ... I_s^{n_s}) on many nearby exponent vectors.
Both build every field with one kernel, `multiply_field`: `colength`
multiplies the unit ideal's empty field by I once, and the sampler climbs
product by product.
The kernels read each ideal's stored rows as they are, checked once when
the ideal was built.  Each ideal's generators are split once per sampler
into the slices and heights the field kernel reads (`counting.field_rows`),
so a product does no per-generator set-up.
`colengths` takes all the points of a difference round at once: it checks
and keys each point once, builds their products in one prefix walk from
the unit ideal through their meet, slot by slot, and reads every point's
count at the walk's last level.  `colength_at` is the same on one
point.  `_counts` is that walk on points already checked, for the module
layer, which builds its compositions itself, and for
`mixed_difference_table`, whose rounds make their own points.  A unit
ideal has no rows and an empty box, so its slot climbs as a copy of its
field.  When every ideal is a power of m (R is m^0), the sampler answers
by a binomial and builds nothing.  It keeps that shortcut, unlike
`colength`, because whole walks are what it saves: on the 8 of the 79
br-cross-check benchmark modules that take it, `br_direct` took 71-241 us
with the binomial and 130-1 022 us by the walk, 1.8 to 4.3 times as much
(medians of 15 alternating calls, in-process, 2-core Xeon, numpy 2.4.6).
A sampler keeps nothing from one call to the next: no count and no
product outlives the call that made it.  Repeated exact results come from
three bounded memos, least recently used out: `colength` keeps MEMO_ENTRIES
colengths, `multiplicity._newton_value` keeps as many mixed
multiplicities, and `closure._facet_rows` as many ideals' facet rows for
`closure.newton_polyhedron_member`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, itemgetter, mul

import numpy as np

from .counting import count_grid, count_naive, field_count, height_axis
from .counting import field_dtype, field_rows, multiply_field
from .monomial import (
    MonomialIdeal,
    box_bounds,
    common_dim,
    integer_exponents,
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
    """Number of standard monomials of I; 0 for the unit ideal, whose box is empty.

    The sum of I's height field along the longest side of its box, which
    `count_grid` holds whole, beside the zero field it reads and one sum.
    Memoized for the last MEMO_ENTRIES ideals.  Raises NotMPrimaryError
    when the count is infinite.
    """
    return count_grid(I.gens, box_bounds(I))


def colength_naive(I: MonomialIdeal) -> int:
    """Reference colength by exhaustive box enumeration (small ideals only)."""
    return count_naive(I.gens, box_bounds(I))


class ProductSampler:
    """Colengths of products prod_j I_j^{n_j} at the exponent vectors of one call.

    Products are height fields along one axis per sampler: the longest side
    of the summed boxes of the ideals.  Every call builds its products in
    one prefix walk from the unit ideal over its points (`_counts`), and
    holds no count and no product once it returns.  Every ideal's bounds
    come from `box_bounds`, which raises NotMPrimaryError; a unit ideal's
    are 0 and it has no rows, so it leaves a product's field as it is.
    When every ideal is a power of the maximal ideal the colength collapses
    to a binomial and nothing is built.
    """

    def __init__(self, ideals):
        ideals = tuple(ideals)
        if not ideals:
            raise ValueError("need at least one ideal")
        d = common_dim(ideals)
        bounds = [box_bounds(I) for I in ideals]
        self.ideals = ideals
        self.dim = d
        self._m_degrees = [m_power_degree(I) for I in ideals]
        self._all_m = all(k is not None for k in self._m_degrees)
        axis = height_axis([sum(b[i] for b in bounds) for i in range(d)])
        self._rows = [field_rows(I.gens, b, axis) for I, b in zip(ideals, bounds)]
        # a product costs one min-plus update per generator of the ideal it
        # adds, so the walk climbs the costliest slots where groups are fewest;
        # in plain index order, br_direct over the 79 br-cross-check modules
        # took 3.6-4.6 % longer (medians of 21 alternating passes, two runs)
        self._cheapest = sorted(range(len(ideals)), key=lambda j: len(ideals[j].gens))

    def _counts(self, points) -> list[int]:
        """Colengths at `points`, tuples of non-negative ints, one per ideal, taken as they are.

        Powers of m take the binomial; otherwise one prefix walk through
        the points' meet builds the products.  The walk climbs from the
        unit ideal's empty field to the meet, then takes the slots in
        reverse of `_cheapest` and the points in lex order of their values
        on those slots.  A stack holds one (field, box) per level, level k
        + 1 being level k with slot k climbed to the point's value.  Each
        point keeps the levels it shares with the point before (the meet,
        for the first), climbs the first slot where they differ from that
        point's value to its own, climbs each later slot from the meet, and
        counts the last level.  The walk holds the meet's field and at most
        one more per slot, and no product once it returns; it is a loop, so
        any number of slots fits the stack of the interpreter.
        """
        if self._all_m:
            degrees = [sum(map(mul, n, self._m_degrees)) for n in points]
            return [comb(k - 1 + self.dim, self.dim) if k else 0 for k in degrees]
        if not points:
            return []
        slots = self._cheapest[::-1]
        meet = tuple(map(min, zip(*points)))

        def climb(level, j, steps):
            held, box = level
            for _ in range(steps):
                held = multiply_field(held, box, self._rows[j])
                box = tuple(map(add, box, self._rows[j].bounds))
            return held, box

        level = np.zeros((0,) * (self.dim - 1), field_dtype(0)), (0,) * self.dim
        for j in slots:
            level = climb(level, j, meet[j])
        stack, prev, counts = [level] * (len(slots) + 1), meet, {}
        for p in sorted(set(points), key=itemgetter(*slots)):
            # k: the level of slot j, the first where the point leaves the
            # one before; the meet itself, as the first point, leaves it
            # nowhere, so k ends at the last slot and climbs it 0 steps
            for k, j in enumerate(slots):
                if p[j] != prev[j]:
                    break
            del stack[k + 2:]
            stack[k + 1] = climb(stack[k + 1], j, p[j] - prev[j])
            for i, j in enumerate(slots[k + 1:], k + 1):
                stack.append(climb(stack[i], j, p[j] - meet[j]))
            counts[p] = field_count(stack[-1][0])
            prev = p
        return [counts[n] for n in points]

    def _key(self, n) -> tuple[int, ...]:
        """n as a tuple of ints, one non-negative exponent per ideal."""
        n = integer_exponents(n)
        if len(n) != len(self.ideals):
            raise ValueError("exponent vector length mismatch")
        if min(n) < 0:
            raise ValueError("exponents must be non-negative")
        return n

    def colength_at(self, n) -> int:
        return self.colengths([n])[0]

    def colengths(self, points) -> list[int]:
        """Colengths at all `points`, each checked, their products built in one prefix walk."""
        return self._counts([self._key(n) for n in points])
