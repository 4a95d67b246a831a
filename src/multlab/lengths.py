"""Colengths of monomial ideals and colengths of ideal products.

`colength` is the workhorse: length of R/I as a k-vector space, i.e. the
number of standard monomials.  It is the sum of the ideal's height field on
the box of pure-power bounds (`count_grid`) for every ideal, with no
binomial shortcut for powers of m and no branch for R, whose box
(0, ..., 0) is empty and counts 0.  `ProductSampler` serves the
difference-table engine (`br_direct` and `mixed_difference_table`), which
needs lambda(R / I_1^{n_1} ... I_s^{n_s}) on many nearby exponent vectors.
Both build every field with one kernel, `multiply_field`, which takes a
batch of fields: `colength` multiplies a batch of one, the unit ideal's
empty field, by I once, and the sampler climbs many products per call.
The kernels read each ideal's stored rows as they are, checked once when
the ideal was built.  Each ideal's generators are split once per sampler
into the slices and heights the field kernel reads (`counting.field_rows`),
so a product does no per-generator set-up.
`colengths` takes all the points of a difference round at once: it checks
and keys each point once, builds their products in one batched climb from
the unit ideal through their meet, slot by slot, and counts every point
at the climb's last level.  Each level holds one field per prefix of the
points' values, and its fields climb the level's slot together, one
kernel call per step, in chunks of at most BATCH_CELLS cells.
`colength_at` is the same on one point.  `_counts` is that climb on
points already checked, for the module layer, which builds its
compositions itself, and for `mixed_difference_table`, whose rounds make
their own points.  A unit ideal has no rows and an empty box, so its slot
climbs as a copy of its field.  When every ideal is a power of m (R is
m^0), the sampler answers by a binomial and builds nothing.  It keeps that
shortcut, unlike `colength`, because whole climbs are what it saves: on
the 8 of the 79 br-cross-check benchmark modules that take it, `br_direct`
took 74-256 us with the binomial and 150-781 us by the climb, 2.0 to 3.5
times as much (medians of 15 alternating calls, two runs, in-process,
2-core Xeon, numpy 2.4.6).
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

import numpy as np

from .counting import count_grid, count_naive, field_counts, height_axis
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

# Cells that one chunk of a level of the sampler's climb may keep for the
# next level (at the last level: may climb), each field counted at the box
# of the chunk's top.  Against a walk of one product per kernel call,
# br_direct over the 79 br-cross-check modules took 0.54-0.59 of the time
# at 2**14 cells, 0.52-0.62 at 2**15, 0.47-0.73 at 2**16 and 0.43-0.71 at
# 2**18, and the d = 4 order-(1, 1, 1, 1) table of tests/test_lengths.py
# 0.93-0.96, 0.93-0.97, 0.94-0.98 and 1.18-1.21, as batches of large fields
# pay for their padding (medians of 15 and 41 alternating calls, two runs,
# in-process).  2**16 gained no more than the spread of the runs, and the
# smaller budget holds less.
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


class ProductSampler:
    """Colengths of products prod_j I_j^{n_j} at the exponent vectors of one call.

    Products are height fields along one axis per sampler: the longest side
    of the summed boxes of the ideals.  Every call builds its products in
    one batched climb from the unit ideal over its points (`_counts`), and
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

    def _counts(self, points) -> list[int]:
        """Colengths at `points`, tuples of non-negative ints, one per ideal, taken as they are.

        Powers of m take the binomial; otherwise one batched climb through
        the points' meet builds the products.  A batch of one climbs from
        the unit ideal's empty field to the meet.  Then the slots are taken
        in order, and the distinct points in lex order, so the points that
        share a prefix are a run of that order.  Level k holds one field per
        prefix of length k, each with its own box, and its rows climb slot
        k together, one `multiply_field` call per step, each from the meet
        to its top, the largest value that its points take there.  The rows
        go largest top first, so the rows still climbing are a leading
        slice.  At each step the rows that reach a value of their points
        are kept, as one batch, for the next level; the last level counts
        them instead, with one reduce, and keeps nothing.

        A level climbs in chunks of consecutive rows: a chunk holds at most
        as many rows as keep rows, each with the cells of the box at the
        top of its climb, within BATCH_CELLS, and at least one row.  Its
        rows are gathered into one batch padded to the largest of their
        boxes, which leaves every field exact; a chunk of one row reads its
        batch in place.  The stack holds one chunk's next level per slot,
        below the meet's field, and no product once it returns; it is a
        loop, so any number of slots fits the stack of the interpreter.
        Each field is the product that a prefix walk makes for its prefix,
        so the climb makes exactly the walk's products: the climb to the
        meet, then each row from the meet to its own top.
        """
        if self._all_m:
            degrees = [sum(map(mul, n, self._m_degrees)) for n in points]
            return [comb(k - 1 + self.dim, self.dim) if k else 0 for k in degrees]
        if not points:
            return []
        order = sorted(set(points))
        meet = tuple(map(min, zip(*points)))
        axis = self._rows[0].axis
        box = (0,) * self.dim
        held = np.zeros((1,) + (0,) * (self.dim - 1), field_dtype(0))
        for J, steps in zip(self._rows, meet):
            for _ in range(steps):
                held = multiply_field(held, box, J)
                box = tuple(map(add, box, J.bounds))
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
            # the chunk: wide[a] is the box of its first a rows, and cells the
            # cells of the chunk's box at its top
            runs, _, both, _ = rows[start]
            steps = runs[-1][0]
            grow = [e * steps for e in J.bounds]
            wide = [None, both]
            cells = _cells(tuple(map(add, both, grow)), axis)
            keep, stop = 1 if last else len(runs), start + 1
            while stop < len(rows) and (keep + 1) * cells <= BATCH_CELLS:
                runs, _, box, _ = rows[stop]
                both = tuple(map(max, both, box))
                cells = _cells(tuple(map(add, both, grow)), axis)
                size = keep + (1 if last else len(runs))
                if size * cells > BATCH_CELLS:
                    break
                wide.append(both)
                keep, stop = size, stop + 1
            entry[2] = stop
            chunk = rows[start:stop]
            alive, box = len(chunk), wide[-1]
            # a chunk of one row reads its batch in place: gathered as the
            # rest are, the d = 4 table of tests/test_lengths.py took 4 %
            # longer (medians of 41 alternating calls, in-process)
            if alive == 1:
                _, batch, _, i = chunk[0]
                held = batch[i:i + 1]
            else:
                # one copy per batch that the rows come from: a slice for one
                # row, a fancy index for more (a fancy index for every batch
                # made br_direct over the 79 br-cross-check modules 4 %
                # slower, medians of 15 alternating passes)
                held = np.zeros((alive, *_off_axis(box, axis)), field_dtype(box[axis]))
                sources = {}
                for r, (_, batch, _, i) in enumerate(chunk):
                    to, at = sources.setdefault(id(batch), (batch, [], []))[1:]
                    to.append(r)
                    at.append(i)
                for batch, to, at in sources.values():
                    cut = tuple(map(slice, batch.shape[1:]))
                    if len(to) == 1:
                        held[(to[0], *cut)] = batch[at[0]]
                    else:
                        held[(to, *cut)] = batch[at]
            # hits[t]: the rows that reach a value of their points at step t;
            # tops[r]: the steps row r climbs
            hits, tops = [[] for _ in range(steps + 1)], []
            for r, (runs, _, _, _) in enumerate(chunk):
                for t, lo, hi in runs:
                    hits[t].append((r, lo, hi))
                tops.append(t)
            kept = []
            for t, hit in enumerate(hits):
                if t:
                    if tops[alive - 1] < t:
                        while tops[alive - 1] < t:
                            alive -= 1
                        box = tuple(b + (t - 1) * e for b, e in zip(wide[alive], J.bounds))
                        held = held[(slice(alive), *map(slice, _off_axis(box, axis)))]
                    held = multiply_field(held, box, J)
                    box = tuple(map(add, box, J.bounds))
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
                kept += [(batch, box, i, lo, hi) for i, (_, lo, hi) in enumerate(hit)]
            del chunk, held, batch
            if kept:
                stack.append(level(kept, k + 1))
        by_point = dict(zip(order, counts))
        return [by_point[n] for n in points]

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
