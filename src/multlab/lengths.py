"""Colengths of monomial ideals and colengths of ideal products.

`colength` is the workhorse: length of R/I as a k-vector space, i.e. the
number of standard monomials.  It is the sum of the ideal's height field on
the box of pure-power bounds (`count_grid`) for every ideal, with no
binomial shortcut for powers of m and no branch for R, whose box
(0, ..., 0) is empty and counts 0.  `ProductSampler` serves the
difference-table engine (`br_direct` and `mixed_difference_table`), which
needs lambda(R / I_1^{n_1} ... I_s^{n_s}) on many nearby exponent vectors.
Both build every field with one kernel, `multiply_field`, which multiplies
a batch of fields on the batch's own box, and lay every batch out once,
with `zero_fields`, on a box that holds each product it will take:
`colength` multiplies a batch of one, the unit ideal's zero field on I's
box, by I once, and the sampler climbs many products per call.
The kernels read each ideal's stored rows as they are, checked once when
the ideal was built.  Each ideal's generators are split once per sampler
into the slices and heights the field kernel reads (`counting.field_rows`),
so a product does no per-generator set-up.
`colengths` takes all the points of a difference round at once: it checks
and keys each point once, builds their products in one batched climb from
the unit ideal through their meet, slot by slot, and counts every point
at the climb's last level.  Each level holds one field per prefix of the
points' values, and its fields climb the level's slot together, one
kernel call per step, in chunks of at most BATCH_CELLS cells, each chunk
laid out once, on the box of its top.
`colength_at` is the same on one point.  `_counts` is that climb on
points already checked, for `mixed_difference_table`, whose rounds make
their own points.  The module layer takes `_composition_sums` instead:
for each n of a window, the weighted sum of colengths over the
compositions of n, from one walk over the prefixes of the compositions
that lists none of them.  Both climbs lay each chunk out with `_chunk`.
A unit ideal has no rows and an empty box, so its slot climbs as a copy
of its field.  When every ideal is a power of m (R is m^0), the sampler
answers by binomials and builds nothing.  It keeps that shortcut, unlike
`colength`, because whole climbs are what it saves: on the 8 of the 79
br-cross-check benchmark modules that take it, `br_direct` took 54-179
us with the binomials and 92-468 us by the climb, 1.6 to 2.8 times as
much (medians of 15 alternating calls, three runs, in-process, 2-core
Xeon, numpy 2.4.6).
A sampler keeps nothing from one call to the next: no count and no
product outlives the call that made it.  Repeated exact results come from
three bounded memos, least recently used out: `colength` keeps MEMO_ENTRIES
colengths, `multiplicity._newton_value` keeps as many mixed
multiplicities, and `closure._facet_rows` as many ideals' facet rows for
`closure.newton_polyhedron_member`.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import comb, prod
from operator import add, itemgetter, mul

from .counting import count_grid, count_naive, field_counts, field_rows, height_axis
from .counting import multiply_field, zero_fields
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
# distinct, and counts 1 800 colengths of 19 distinct ideals.  A colength
# entry pins its key ideal, a mixed-multiplicity entry only its slots'
# generator rows, and each holds one int.  Filled with d=4 keys (`verify
# --dim 4 --instances 150`: 851 mixed multiplicities, 600 colengths),
# clearing the mixed-multiplicity memo freed 1.5 MiB (2.0 MiB when its keys
# were ideals) and then the colength memo 0.5 MiB (tracemalloc, Python 3.11).
MEMO_ENTRIES = 1024

# Cells that one chunk of a level of the sampler's climb may keep for the
# next level (at the last level: may climb), each field counted at the box
# of the chunk's top.  Against a walk of one product per kernel call,
# br_direct over the 79 br-cross-check modules took 0.52-0.62 of the time
# at this budget.  Against this budget, it took 0.98-1.07 of the time at
# 2**14 cells, 0.92-1.07 at 2**16 and 0.92-1.08 at 2**18, and the d = 4
# order-(1, 1, 1, 1) table of tests/test_lengths.py 0.94-1.05, 0.93-1.16
# and 1.04-1.29, as chunks of large fields climb on the box of their top
# (medians of 15 and 41 calls, six alternating rounds, in-process).  No
# larger budget gained more than the spread, and this one holds less.
BATCH_CELLS = 1 << 15


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


def _off_axis(box, axis: int) -> tuple[int, ...]:
    """The sides of `box` but the height axis: the shape of its field."""
    return box[:axis] + box[axis + 1:]


def _cells(box, axis: int) -> int:
    return prod(_off_axis(box, axis))


def _chunk(rows, start: int, grow, keep, axis: int):
    """The chunk of a level's `rows` from `start`, laid out once: (its end, its base, its batch).

    Every row ends in (batch, box, i): row i of `batch`, exact on `box`.
    The chunk takes consecutive rows while the fields they keep for the
    next level, `keep(row)` each, times the cells of the chunk's top box
    stay within BATCH_CELLS, and at least one row.  Its base is the least
    box that holds its rows' boxes, and its top box the base plus `grow`,
    the steps of its climb times J's bounds.  The batch is zero fields on
    the top box, in the type of its top, gathered with one copy per batch
    that the rows come from: a slice for one row, a fancy index for more
    (a fancy index for every batch made br_direct over the 79
    br-cross-check modules about 5 % slower, medians of 15 passes, six
    alternating runs).  A field is 0 past its own box, so each is exact
    on the top box, and so is every product that the chunk climbs there.
    """
    base = rows[start][-2]
    cells = _cells(tuple(map(add, base, grow)), axis)
    kept, stop, end = keep(rows[start]), start + 1, len(rows)
    while stop < end and (kept + 1) * cells <= BATCH_CELLS:
        row = rows[stop]
        box = row[-2]
        wide = base if box == base else tuple(map(max, base, box))
        if wide != base:
            cells = _cells(tuple(map(add, wide, grow)), axis)
        size = kept + keep(row)
        if size * cells > BATCH_CELLS:
            break
        base, kept, stop = wide, size, stop + 1
    held = zero_fields(stop - start, tuple(map(add, base, grow)), axis)
    sources = {}
    for r, row in enumerate(rows[start:stop]):
        batch = row[-3]
        source = sources.get(id(batch))
        if source is None:
            sources[id(batch)] = batch, row[-2], [r], [row[-1]]
        else:
            source[2].append(r)
            source[3].append(row[-1])
    for batch, box, to, at in sources.values():
        cut = tuple(map(slice, _off_axis(box, axis)))
        if len(to) == 1:
            held[(to[0], *cut)] = batch[(at[0], *cut)]
        else:
            held[(to, *cut)] = batch[(at, *cut)]
    return stop, base, held


class ProductSampler:
    """Colengths of products prod_j I_j^{n_j} at the exponent vectors of one call.

    Products are height fields along one axis per sampler: the longest side
    of the summed boxes of the ideals.  Every call builds its products in
    one batched climb from the unit ideal, over its points (`_counts`) or
    over the prefixes of compositions (`_composition_sums`), and holds no
    count and no product once it returns.  Every ideal's bounds
    come from `box_bounds`, which raises NotMPrimaryError; a unit ideal's
    are 0 and it has no rows, so it leaves a product's field as it is.
    When every ideal is a power of the maximal ideal the colength collapses
    to a binomial of the product's degree and nothing is built.
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

    def _counts(self, points) -> list[int]:
        """Colengths at `points`, tuples of non-negative ints, one per ideal, taken as they are.

        Powers of m take the binomial; otherwise one batched climb through
        the points' meet builds the products.  A batch of one, the unit
        ideal's zero field laid out on the meet's box, climbs to the meet,
        each step on the box of its product, a leading view of that layout.
        Then the slots are taken in order, and the distinct points in lex
        order, so the points that share a prefix are a run of that order.
        Level k holds one field per prefix of length k, each exact on its
        own box, and its rows climb slot k together, one `multiply_field`
        call per step, each from the meet to its top, the largest value
        that its points take there.  The rows go largest top first, so the
        rows still climbing are a leading slice.  At each step the rows
        that reach a value of their points are kept, as one batch, for the
        next level; the last level counts them instead, with one reduce,
        and keeps nothing.

        A level climbs in chunks of consecutive rows, each laid out once by
        `_chunk` on the box of its top, a row keeping one field per run of
        its points (at the last level, itself), and every step multiplies
        the rows still climbing into a new batch on the same box: the rows
        kept at step t are exact on the chunk's base plus t times J's
        bounds.  The stack holds one chunk's next level per slot, below the
        meet's field, and no product once it returns; it is a loop, so any
        number of slots fits the stack of the interpreter.  Each field is
        the product that a prefix walk makes for its prefix, so the climb
        makes exactly the walk's products: the climb to the meet, then each
        row from the meet to its own top.
        """
        if self._all_m:
            degrees = [sum(map(mul, n, self._m_degrees)) for n in points]
            return [comb(k - 1 + self.dim, self.dim) if k else 0 for k in degrees]
        if not points:
            return []
        order = sorted(set(points))
        meet = tuple(map(min, zip(*points)))
        axis = self._rows[0].axis
        box = tuple(sum(map(mul, meet, sides)) for sides in zip(*(J.bounds for J in self._rows)))
        # each step of the climb to the meet multiplies the leading view of the
        # meet's box that holds its product: on the whole box, the order-4
        # table of (x^12, y^12, z^12, w^12) took 15-25 % longer (medians of 9
        # calls, six alternating runs, in-process)
        held, grown = zero_fields(1, box, axis), (0,) * self.dim
        for J, steps in zip(self._rows, meet):
            for _ in range(steps):
                grown = tuple(map(add, grown, J.bounds))
                at = (..., *map(slice, _off_axis(grown, axis)))
                held[at] = multiply_field(held[at], J)
        # rise[k][i]: how far above the meet order[i] lies on slot k
        rise = [[v - low for v in map(itemgetter(k), order)] for k, low in enumerate(meet)]
        counts = [0] * len(order)

        def level(kept, k):
            """Level k of the fields `kept`, as [rows, k, the first row no chunk has taken].

            A kept field (batch, box, i, lo, hi) is row i of `batch`, exact
            on `box`, for the points order[lo:hi].  Its row (runs, batch,
            box, i) splits those points into runs (step, lo, hi) by their
            value on slot k, the meet's plus step.  Rows go largest
            top first: the step of their last run.
            """
            at, rows = rise[k], []
            for batch, box, i, lo, hi in kept:
                runs = []
                while lo < hi:
                    end = bisect_right(at, at[lo], lo, hi)
                    runs.append((at[lo], lo, end))
                    lo = end
                rows.append((runs, batch, box, i))
            rows.sort(key=lambda row: row[0][-1][0], reverse=True)
            return [rows, k, 0]

        stack = [level([(held, box, 0, 0, len(order))], 0)]
        while stack:
            rows, k, start = entry = stack[-1]
            if start == len(rows):
                stack.pop()
                continue
            J, last = self._rows[k], k == len(self._rows) - 1
            steps = rows[start][0][-1][0]
            keep = (lambda row: 1) if last else (lambda row: len(row[0]))
            stop, base, held = _chunk(rows, start, [e * steps for e in J.bounds], keep, axis)
            entry[2] = stop
            chunk = rows[start:stop]
            alive = len(chunk)
            # hits[t]: the rows that reach a value of their points at step t;
            # tops[r]: the steps row r climbs
            hits, tops = [[] for _ in range(steps + 1)], []
            for r, (runs, _, _, _) in enumerate(chunk):
                for t, lo, hi in runs:
                    hits[t].append((r, lo, hi))
                tops.append(t)
            kept, batch = [], None
            for t, hit in enumerate(hits):
                if t:
                    while tops[alive - 1] < t:
                        alive -= 1
                    held = multiply_field(held[:alive], J)
                if not hit:
                    continue
                if last:
                    # summing every row still climbing costs less than
                    # copying out the rows hit: that copy made br_direct over
                    # the 79 br-cross-check modules 3 % slower (15 passes)
                    sums = field_counts(held)
                    for r, lo, _ in hit:
                        counts[lo] = sums[r]
                    continue
                batch = held if len(hit) == alive else held[[r for r, _, _ in hit]]
                box = tuple(b + t * e for b, e in zip(base, J.bounds))
                kept += [(batch, box, i, lo, hi) for i, (_, lo, hi) in enumerate(hit)]
            del chunk, held, batch
            if kept:
                stack.append(level(kept, k + 1))
        by_point = dict(zip(order, counts))
        return [by_point[n] for n in points]

    def _composition_sums(self, ns, copies) -> list[int]:
        """For each n of `ns`, the weighted sum of colengths over the compositions of n.

        A composition a of n into the slots weighs prod_g C(a_g + m_g - 1,
        m_g - 1), m_g = copies[g], and adds that weight times lambda(R /
        prod_g I_g^a_g).  The walk lists no composition.  Level k holds one
        row per prefix over the slots before k whose sum, its size, is at
        most the top of `ns`: its field, exact on its box, and its weight.
        Each row climbs slot k for steps t = 0 .. top - size, and every
        step is kept, since each is a prefix of a composition of the top;
        a kept row's weight is its own times C(t + m_k - 1, m_k - 1).  The
        last slot instead counts its rows with one reduce per step and adds
        weight times count into the total of size + t, once that lies in
        `ns`.  Rows go smallest size first, so the rows still climbing are
        a leading slice, and a step whose last row still lies below `ns`
        is not counted.  A level climbs in chunks laid out by `_chunk`, as
        in `_counts`, each row keeping the fields of its steps; the stack
        holds one chunk's next level per slot and nothing once it returns.
        So the products are those of the lattice points with sum at most
        the top, each made once.  When every ideal is a power of m, the
        colength depends only on the degree of the product, and the walk
        carries one summed weight per (size, degree) instead of a field.
        """
        top, totals = max(ns), dict.fromkeys(ns, 0)
        if self._all_m:
            level = {(0, 0): 1}
            for k, m in zip(self._m_degrees, copies):
                sums = {}
                for (size, degree), w in level.items():
                    for t in range(top - size + 1):
                        at = size + t, degree + k * t
                        sums[at] = sums.get(at, 0) + w * comb(t + m - 1, m - 1)
                level = sums
            for (size, degree), w in level.items():
                if size in totals and degree:
                    totals[size] += w * comb(degree - 1 + self.dim, self.dim)
            return [totals[n] for n in ns]
        low = min(totals)
        axis, zero = self._rows[0].axis, (0,) * self.dim
        # a row (size, weight, batch, box, i) is row i of batch, exact on box
        stack = [[[(0, 1, zero_fields(1, zero, axis), zero, 0)], 0, 0]]
        while stack:
            rows, k, start = entry = stack[-1]
            if start == len(rows):
                stack.pop()
                continue
            J, m, last = self._rows[k], copies[k], k == len(self._rows) - 1
            steps = top - rows[start][0]
            keep = (lambda row: 1) if last else (lambda row: top - row[0] + 1)
            stop, base, held = _chunk(rows, start, [e * steps for e in J.bounds], keep, axis)
            entry[2] = stop
            sizes = [row[0] for row in rows[start:stop]]
            weights = [row[1] for row in rows[start:stop]]
            alive, kept = len(sizes), []
            for t in range(steps + 1):
                if t:
                    while sizes[alive - 1] + t > top:
                        alive -= 1
                    held = multiply_field(held[:alive], J)
                lift = comb(t + m - 1, m - 1)
                if not last:
                    box = tuple(b + t * e for b, e in zip(base, J.bounds))
                    kept += [(size + t, w * lift, held, box, r)
                             for r, (size, w) in enumerate(zip(sizes[:alive], weights))]
                elif sizes[alive - 1] + t >= low:
                    for size, w, count in zip(sizes, weights, field_counts(held)):
                        if size + t in totals:
                            totals[size + t] += w * lift * count
            del held
            if kept:
                kept.sort(key=itemgetter(0))
                stack.append([kept, k + 1, 0])
        return [totals[n] for n in ns]

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
        """Colengths at all `points`, each checked, their products built in one batched climb."""
        return self._counts([self._key(n) for n in points])
