"""Integral closure of monomial ideals via the Newton polyhedron.

A monomial x^v lies in the integral closure of I exactly when v lies in the
Newton polyhedron Newt(I) = conv(gens) + R^d_{>=0} (Huneke-Swanson,
*Integral Closure*, 1.4).  Newt(I) is the slice t = 1 of the cone in
R^(d+1) spanned by (g, 1) for each generator g and (e_i, 0) for each axis,
so its facet inequalities a.v >= b are the rays (a, -b) of the dual cone
with b > 0.  The Newton polyhedron of a product prod J_j^(t_j) is the
Minkowski sum t_1 Newt(J_1) + ... + t_s Newt(J_s), and the Cayley trick
gives all its facet normals from one cone in R^(d+s), spanned by (g, e_j)
for each generator g of J_j and by (e_i, 0); with one block it is the cone
above.  `_newton_facets`, the one hull algorithm in every dimension,
takes the ideals J_j themselves, reads each one's minimal generators as
stored, lex-sorted, and finds the normals in Python ints, and each normal
a comes with min over J_j of a.g for every block.  It is the double
description method, which cuts the Cayley cone one generator at a time,
so its cost follows the facets rather than the subsets of generators or
the products of vertices; it starts from the known rays of the simplex of
an m-primary block's pure powers, the bounds the ideal stored when it was
built, and drops the rows inside it.  Every membership question is then
a.v >= b for every facet:

* `newton_polyhedron_member` tests one point of any ideal against its
  facet rows alone, in Python ints, so it is exact for every exponent the
  ideal can hold; the rows of each ideal are found once and kept in a
  memo keyed by the ideal and bounded by `lengths.MEMO_ENTRIES`
  (`_facet_rows`).
* An m-primary polyhedron is a height field along the longest side of its
  box of pure-power bounds: over the other sides each facet bounds the
  least member height from below, and the field is the largest of those
  bounds.  It is built in int64 numpy arithmetic, every facet at once, on
  the tiles of `_tile_sums`, of at most TILE_CELLS facet-cells.
  `integral_closure` reads the closure's minimal generators off the
  corners of its one field (`_closure_corners`, which divides every row
  at once).
* `colength_sum` sums the colengths of the closures of products prod
  J_j^(t_j): one hull of the J_j serves every t, with right-hand sides
  sum t_j min over J_j of a.g, one int64 table from one matrix product,
  and one `_tile_heights` pass serves every box: the parts of the boxes
  that meet a tile are reduced together, in batches of at most one
  tile's cells, each run of one a_c divided once per batch, and one
  `np.add.reduceat` sums each part.
* `mixed_sum` is the one route of mixed multiplicities: it takes
  weighted orders a with |a| = d and chooses by the ideals' dimension.
  In d <= 3 `facet_sum` reads every value off facets, by the facet
  formula for mixed volumes, in Python ints with no box: in the plane
  off the edges of the blocks' lower convex chains, which run through
  the stored generators in order, with no hull; in d = 1 and 3 off the
  facets of the one hull.  From d = 4 on it expands each a into the
  terms of its order-a difference at 0, merges them per point t
  (`_merged_terms`) and hands them to one `colength_sum`, which is also
  the facet route's oracle in the tests.  `multiplicity._newton_value`
  passes one order, `buchsbaum_rim.br_via_mixed` every composition of d.

`check_int64` bounds every value the tiles hold before int64 arithmetic
starts.  No floats and no rationals enter the decision.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product as iter_product
from math import factorial, gcd, lcm, prod
from operator import mul, or_

import numpy as np

from . import counting
from .errors import NotMPrimaryError
from .lengths import MEMO_ENTRIES
from .monomial import (
    MonomialIdeal,
    _built,
    _difference_terms,
    box_bounds,
    integer_exponents,
    is_m_primary,
)


@lru_cache(maxsize=MEMO_ENTRIES)
def _facet_rows(I: MonomialIdeal) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The facet rows (a, b) of Newt(I), from `_newton_facets`.

    Memoized for the last `lengths.MEMO_ENTRIES` ideals, keyed by the ideal,
    whose hash is stored when it is built, so membership finds each ideal's
    facets once, not once per point.
    """
    A, (b,) = _newton_facets([I])
    return tuple(zip(A, b))


def _phase_one_feasible(I: MonomialIdeal, rhs: tuple[int, ...]) -> bool:
    """Is there lam >= 0 with sum(lam) = 1 and sum lam_j g_j <= rhs over the generators g_j of I?

    That is, does rhs lie in Newt(I); it does exactly when a.rhs >= b for
    every facet row (a, b) of `_facet_rows(I)`.  The benchmark's tracer
    (`bench/tracer.py`) wraps this function by name.
    """
    return all(sum(map(mul, a, rhs)) >= b for a, b in _facet_rows(I))


def newton_polyhedron_member(I: MonomialIdeal, point) -> bool:
    """True when x^point lies in the integral closure of I.

    The facet rows alone decide, with no divisibility test first: a point
    that a generator divides satisfies every row too.  Nothing in the
    library calls this function; the rows of each ideal are found once and
    kept in the bounded memo of `_facet_rows`, since finding them takes
    30-45 ms for the 235 generators of a ball-shaped ideal in d = 4.
    """
    v = integer_exponents(point)
    if len(v) != I.dim:
        raise ValueError(f"point has {len(v)} coordinates, ideal has {I.dim}")
    if any(e < 0 for e in v):
        raise ValueError("exponents must be non-negative")
    return _phase_one_feasible(I, v)


def _newton_facets(blocks) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Facet normals a of Newt(J_1) + ... + Newt(J_s), and per block j the minima min over J_j of a.g.

    `blocks` holds the ideals J_1, ..., J_s, of one dimension; the hull
    reads their stored minimal generators, lex-sorted, and the pure-power
    bounds stored with them.  The normals come back as a list of primitive
    a >= 0, and with them one list per block: b_j[k] = min over J_j of
    A[k].g >= 0.  The facets of the sum are a.v >= b_1 + ... + b_s > 0,
    and the same normals with right-hand sides sum t_j b_j cut out every
    sum t_1 Newt(J_1) + ... with t_j >= 0; with one block, A and b_1 are
    the facet rows of Newt(J_1) itself.  The rows come in no fixed order.
    This is the one hull algorithm, in every dimension.

    Double description (Fukuda-Prodon, *Double description method
    revisited*, 1996) on the Cayley cone of the blocks (Huber-Rambau-Santos,
    *The Cayley trick, lifting subdivisions and the Bohne-Dress theorem*,
    2000): the rays y = (a, c_1, ..., c_s) with y.(g, e_j) >= 0 for every
    generator g of block j and y.(e_i, 0) >= 0 for every axis are the facet
    normals of the cone those vectors span.  Its facets tight on a generator
    of every block are the facets of the sum, with c_j = -min over J_j of
    a.g.  The rows, the blocks' minimal generators, go in by degree, then
    lex, which keeps the intermediate ray sets small, and every ray keeps
    a bit mask of the constraints it is tight on.

    The start is a cone whose rays are known.  In d >= 2 an m-primary
    block, whose pure powers b_i e_i are the bounds its ideal stored
    (`box_bounds`), has the simplex weights w_i = L / b_i, L = lcm(b), and
    each of its rows g with w.g > L, or w.g = L and g not a pure power,
    lies in conv(b_i e_i) + R^d_>=0, so its constraint follows from theirs
    and the axes' and is dropped.  The first such block p starts from its
    d pure powers, the axes and (g_j, e_j), g_j the first kept row of every
    other block j: with g_p = 0 those 2d + s - 1 constraints give the s + d
    + 1 rays (0, e_j), (e_i, -g_1i, ..., -g_si) and (w, c) with c_p = -L
    and c_j = -w.g_j (primitive, since the gcd of the L / b_i is 1).  With
    no such block, and in d = 1, the d + s independent constraints e_i and
    (g_j, e_j) give the first d + s of those rays.  Each further row cuts
    the cone.  A ray on the positive side of a cut and one on the negative
    side are adjacent when their common tight set has at least d + s - 2
    bits and no third ray is tight on all of it; each adjacent pair gives
    one new ray on the cut, divided by its gcd.  All arithmetic is in
    Python ints, so the rows are exact at any size.

    A ray tight on no generator of block j solves equations free of c_j,
    so it is (0, e_j); every other ray is tight on every block.  Of those,
    the rays with c_1 + ... + c_s < 0 are kept: the others are facets v_i
    >= 0 of the sum.  A kept y is primitive and each c_j is an integer
    combination of a, so a is primitive too.  The rays of the whole cone do
    not depend on the start or on the dropped rows, so neither do the rows
    returned, taken as a set.
    """
    s, d = len(blocks), blocks[0].dim
    rows = sorted((sum(g), g, j) for j, J in enumerate(blocks) for g in J.gens)
    simplex = [None] * s  # per m-primary block: (w, L)
    for j, J in enumerate(blocks):
        if d > 1 and is_m_primary(J):
            b = box_bounds(J)
            L = lcm(*b)
            simplex[j] = [L // e for e in b], L
    p = next((j for j, sim in enumerate(simplex) if sim), None)
    firsts, cuts = [None] * s, []
    if p is not None:
        firsts[p] = (0,) * d
    for deg, g, j in rows:
        if simplex[j]:
            w, L = simplex[j]
            t = sum(map(mul, w, g))
            # rows on or past the simplex go, but for its pure powers: the
            # start on block p, cuts on every other block
            if t > L or t == L and (j == p or deg != max(g)):
                continue
        if firsts[j] is None:
            firsts[j] = g
        else:
            cuts.append((g, j))
    # bit i: tight on e_i; d + i: on block p's pure power on axis i;
    # 2d + j: on (firsts[j], e_j) for j != p; 2d + s + k: on cuts[k]
    axes = (1 << d) - 1
    pures = 0 if p is None else axes << d
    own = [pures if j == p else 1 << 2 * d + j for j in range(s)]  # each block's start bits
    every = reduce(or_, own, axes)
    ys = [(0,) * d + tuple(int(i == j) for i in range(s)) for j in range(s)]
    zs = [every ^ z for z in own]
    for i in range(d):
        ys.append((*(int(j == i) for j in range(d)), *(-g[i] for g in firsts)))
        zs.append(every ^ 1 << i ^ pures & 1 << d + i)
    if p is not None:
        w, L = simplex[p]
        ys.append((*w, *(-L if j == p else -sum(map(mul, w, g)) for j, g in enumerate(firsts))))
        zs.append(every ^ axes)
    for k, (g, j) in enumerate(cuts, 2 * d + s):
        j += d
        sides = [sum(map(mul, y, g)) + y[j] for y in ys]
        bit = 1 << k
        new_ys, new_zs, pos, neg = [], [], [], []
        for side, y, z in zip(sides, ys, zs):
            if side >= 0:
                new_ys.append(y)
                new_zs.append(z | bit if side == 0 else z)
                if side:
                    pos.append((side, y, z))
            else:
                neg.append((side, y, z))
        for sp, p, zp in pos:
            for sn, n, zn in neg:
                both = zp & zn
                if both.bit_count() < d + s - 2:
                    continue
                holders = 0  # rays tight on all of `both`, counted up to 3
                for z in zs:
                    if z & both == both:
                        holders += 1
                        if holders > 2:
                            break
                if holders == 2:
                    y = [sp * e - sn * f for e, f in zip(n, p)]
                    g = gcd(*y)
                    new_ys.append(tuple(e // g for e in y))
                    new_zs.append(both | bit)
        ys, zs = new_ys, new_zs
    facets = [y for y in ys if sum(y[d:]) < 0]
    return [y[:d] for y in facets], [[-y[d + j] for y in facets] for j in range(s)]


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Smallest integrally closed monomial ideal containing I.

    Requires an m-primary ideal, with pure-power bounds b_i.  Every facet
    a.v >= b of Newt(I) from `_newton_facets` has a_c > 0 on every axis c,
    since a_c * b_c >= b > 0 at x_c^(b_c), so the closure is a height
    field along one axis (see `_closure_corners`), and its minimal
    generators are the field's corners, an antichain with every v_i <= b_i,
    so nothing is minimalized or checked afterwards.  The box is checked by
    `check_int64` before the facets are built.  Any other ideal, the unit
    ideal included, raises NotMPrimaryError.
    """
    if not is_m_primary(I):
        raise NotMPrimaryError("the integral closure is computed for m-primary ideals only")
    bounds = box_bounds(I)
    check_int64(bounds)
    A, (b,) = _newton_facets([I])
    return _built(I.dim, tuple(sorted(map(tuple, _closure_corners(A, b, bounds).tolist()))))


def check_int64(bounds) -> None:
    """Raise ValueError unless every facet value on the box prod [0, b_i] fits in int64.

    Each facet row (a, -b) of a polyhedron whose vertices lie in the box is
    primitive, so it divides the vector of d x d minors of the d spanning
    rays of its facet, (g, 1) for vertices g and (e_i, 0) for axes.  So
    |a.v| is at most |det| of those rays over (v, 0), and subtracting one
    vertex row from the others leaves a d x d determinant whose column i
    holds entries of size at most b_i, so 0 <= a.v <= d! * prod b_i on the
    box (and so is b, the value at a vertex).  The tiles of `_closure_corners`
    and the batches of `_tile_heights` hold a'.v' - r, with a'.v' = a.v at
    v_c = 0 for cells v' of a field in the box and r the value of a at a
    point of the box (a vertex, or for `colength_sum` the sum of t_j
    minimizers over the J_j, which lies in B(t)), so they lie in [-d! *
    prod b_i, d! * prod b_i]; so do the side rows a_i * x_i that are read,
    x_i < B_i, and their partial sums, and the minima and the floors lie
    between those.  `colength_sum` forms its r as one matrix product of
    the t with the minima, whose summands t_j * min over J_j of a.g are
    non-negative and at most r, so they and their partial sums fit too;
    and the heights h <= B_c summed over a part of B(t) are at most the
    number of points of B(t).  Past that check the facet rows, Python
    ints, enter int64 arithmetic exactly.
    """
    if factorial(len(bounds)) * prod(bounds) >= 2**63:
        raise ValueError(f"pure powers {tuple(bounds)} may overflow int64 facet values")


TILE_CELLS = 1 << 18
"""The most int64 facet-cells (facets times field cells) one tile of `_tile_sums` holds."""


def _tile_sums(rows, shape):
    """The field over prod [0, shape_i) in tiles: per tile its origin lo, its ends hi and a'.v' for every row.

    `rows` is an int64 table of one row a' per facet, one column per side.
    Each tile holds at most TILE_CELLS facet-cells, its innermost sides
    whole first, and its values a'.(lo + x) come from broadcast adds of one
    row per side, a fresh array unless the field has one side, where it is
    a view of a table kept across tiles, so callers write only into arrays
    of their own.
    """
    n, k = rows.shape
    steps = rows[:, :, None] * np.arange(max(shape, default=0))  # a'_fi * x, x < side i
    col = (n,) + (1,) * k
    sides = [col[: i + 1] + (-1,) + col[i + 2:] for i in range(k)]  # axis i's row, broadcast
    tile, room = [], max(1, TILE_CELLS // n)
    for side in reversed(shape):
        tile.insert(0, min(side, room))
        room = max(1, room // side)
    for lo in iter_product(*map(range, [0] * k, shape, tile)):
        hi = [min(l + t, side) for l, t, side in zip(lo, tile, shape)]
        parts = [steps[:, i, l:h].reshape(sides[i]) for i, (l, h) in enumerate(zip(lo, hi))]
        yield lo, hi, reduce(np.add, parts) if parts else np.zeros(n, np.int64)


def _tile_heights(A, c, rights, boxes, cells):
    """The least member heights along axis c over every box of `colength_sum`, negated and summed per tile part, in batches.

    Every facet row a has a_c > 0, and with right-hand sides r the height
    at the coordinates v' off axis c is h(v') = max(0, max over rows of
    ceil((r - a'.v') / a_c)): v = (v', v_c) satisfies every row exactly
    when v_c >= h(v').  `rights` is an int64 table of the r of each box of
    `boxes`, one row per box and one column per row of A; the boxes' fields
    lie over prod [0, B_i), i != c.  The field of their componentwise
    maximum is cut into the tiles of `_tile_sums`, and the parts of the
    boxes that meet a tile are packed first-fit into batches of at most
    one tile's cells, and never more than that field's: each part's a'.v'
    is copied into its own segment of one int64 buffer of one row per
    facet, and its r are subtracted there.  The rows are sorted by a_c, and
    per batch each run of one a_c is reduced to its least row, then
    floor-divided by that a_c: floor((a'.v' - r) / a_c) is monotone in
    a'.v' - r, so one division per run serves all its rows.  Dividing every
    row instead took the d = 6 CI corpus (`verify --dim 6 --rank 3
    --instances 2 --seed 11`, in-process, six alternating runs on a 2-core
    Xeon) 14.2-16.6 s against 11.7-12.9 s, about 1.2 times as long, and
    verify-d4's 30 calls of `colength_sum` 15.4-19.6 ms against 14.2-14.8
    ms (sums of per-call minima, five alternating runs).  The least over
    the runs, capped at 0, is -h; it is written into the first cells of
    the flat int64 buffer `cells`, which holds the field of the maximum,
    and one `np.add.reduceat` sums it per part.  Yields (lo, parts, sums)
    per batch: the tile's origin lo, (j, ends, at, size) for each part,
    the field of box j from lo on with sides `ends` at offset `at` of the
    batch, and each part's sum of -h as a Python int.
    """
    # the rows by a_c, sorted in Python: np.argsort would page 0.1-0.3 MiB of
    # numpy's code that nothing else runs into the resident set
    n = len(A)
    order = sorted(range(n), key=lambda f: A[f][c])
    lead = [A[f][c] for f in order]
    starts = [f for f in range(n) if not f or lead[f] != lead[f - 1]]
    runs = list(map(slice, starts, starts[1:] + [n]))  # the rows of each a_c
    steep = [(i, lead[f]) for i, f in enumerate(starts) if lead[f] > 1]  # (run, a_c > 1)
    boxes = [box[:c] + box[c + 1:] for box in boxes]
    rights = rights[:, order, None]
    room = min(cells.size, max(1, TILE_CELLS // n))  # a batch's cells: no more than a tile's
    over, least = np.empty((n, room), np.int64), np.empty((len(runs), room), np.int64)
    rows = np.array([A[f][:c] + A[f][c + 1:] for f in order], np.int64)
    for lo, hi, vals in _tile_sums(rows, list(map(max, zip(*boxes)))):
        batches = []  # per batch: its cells so far, then (box, ends, offset, size) per part
        for j, box in enumerate(boxes):
            ends = [min(h, b) - l for l, h, b in zip(lo, hi, box)]
            if min(ends, default=1) > 0:
                size = prod(ends)
                batch = next((b for b in batches if b[0] + size <= room), None)
                if batch is None:
                    batches.append(batch := [0])
                batch.append((j, ends, batch[0], size))
                batch[0] += size
        for used, *parts in batches:
            # a strided copy, then a flat subtraction: one strided subtraction
            # took the five largest d = 6 CI calls 1.06 s, against 0.86 s so
            # (in-process, best of three)
            for j, ends, at, size in parts:
                part = over[:, at : at + size]  # its last axis split below: still a view
                np.copyto(part.reshape((n, *ends)), vals[(slice(None), *map(slice, ends))])
                np.subtract(part, rights[j], out=part)
            low = least[:, :used]  # each run's least row
            for i, run in enumerate(runs):
                np.minimum.reduce(over[run, :used], axis=0, out=low[i])
            for i, a in steep:
                np.floor_divide(low[i], a, out=low[i])
            np.minimum.reduce(low, axis=0, initial=0, out=cells[:used])
            yield lo, parts, np.add.reduceat(cells[:used], [at for _, _, at, _ in parts]).tolist()


def _closure_corners(A, b, bounds) -> np.ndarray:
    """The minimal generators of {v : a.v >= b for every facet row (a, b)}, as rows.

    Along the height axis c = `counting.height_axis` of the box prod [0,
    b_i] (its longest side) every row has a_c > 0, and the closure is the
    field h(v') = max(0, max over rows of ceil((b - a'.v') / a_c)) on the
    other coordinates v', the least height of a member.  One int64 table
    holds (a_c, b, a') per row; on each tile of `_tile_sums` every row's
    a'.v' - b is floor-divided by its a_c in one call, and the least over
    the rows, capped at 0, is -h, so a tile holds about three arrays of
    TILE_CELLS facet-cells at once.  h is non-increasing on every axis, and
    (v', h(v')) is a minimal generator exactly when h is strictly lower
    there than one step down on every axis with v'_i > 0.  The field is
    int64 and whole, and it is freed before the caller turns the rows into
    tuples.
    """
    box = [n + 1 for n in bounds]
    c = counting.height_axis(box)
    h = np.empty(box[:c] + box[c + 1:], np.int64)
    table = np.array([(a[c], r, *a[:c], *a[c + 1:]) for a, r in zip(A, b)], np.int64)
    lead, right = table.T[:2].reshape((2, -1) + (1,) * h.ndim)
    for lo, hi, vals in _tile_sums(table[:, 2:], h.shape):
        over = np.subtract(vals, right)
        np.floor_divide(over, lead, out=over)
        low = h[(..., *map(slice, lo, hi))]
        np.minimum.reduce(over, axis=0, initial=0, out=low)
        np.negative(low, out=low)
    corner = np.ones(h.shape, dtype=bool)
    for ax in range(h.ndim):
        above = (slice(None),) * ax + (slice(1, None),)
        below = (slice(None),) * ax + (slice(None, -1),)
        corner[above] &= h[above] < h[below]
    at = np.argwhere(corner).T
    return np.array((*at[:c], h[corner], *at[c:])).T


def colength_sum(ideals, terms) -> int:
    """Sum of coeff * L(t) over the (t, coeff) of `terms`, L(t) = lambda(R / closure of prod J_j^(t_j)).

    The closure is cut out by the facet normals a of the sum of the
    Newt(J_j), from one `_newton_facets` call with the J_j as blocks, with
    right-hand sides sum t_j min over J_j of a.g, and L(t) is the sum of
    its heights over the box B(t) = sum t_j (pure-power bounds of J_j),
    which holds every point outside it.  The right-hand sides are one
    int64 table of terms by facets, one matrix product of the t with the
    minima, exact past `check_int64`.  One `_tile_heights` pass along the
    longest side of the componentwise maximum of the boxes sums the
    negated heights of every tile part of every box, batch by batch, and
    each part's sum is weighed by its term's coefficient.  The order is
    fixed: one flat int64 buffer for the field of that maximum is
    allocated first, so a field past numpy's maximum size, or one the
    machine will not allocate, raises MemoryError at once, and each
    batch's heights go to its first cells; then the maximum must pass
    `check_int64`; then one hull serves every term.  The J_j are the
    m-primary `ideals`; L(0) = 0.
    """
    sides = list(zip(*(box_bounds(J) for J in ideals)))
    terms = [(t, coeff) for t, coeff in terms if any(t)]
    if not terms:
        return 0
    boxes = [[sum(map(mul, t, side)) for side in sides] for t, _ in terms]
    top = list(map(max, zip(*boxes)))
    c = counting.height_axis(top)
    size = prod(top) // top[c]
    counting._check_size([size], np.int64)
    cells = np.empty(size, np.int64)
    check_int64(top)
    A, mins = _newton_facets(ideals)
    # ts @ mins as a product and a sum, whose loops are resident already;
    # matmul pages in 0.06 MiB of code of its own
    ts = np.array([t for t, _ in terms], np.int64)[:, :, None]
    rights = (ts * np.array(mins, np.int64)).sum(axis=1)
    return -sum(terms[j][1] * h for _, parts, sums in _tile_heights(A, c, rights, boxes, cells)
                for (j, *_), h in zip(parts, sums))


def _merged_terms(weights) -> dict:
    """The terms of every order-a difference at 0, times w, merged per point t, over the (a, w) of `weights`."""
    merged = {}
    for a, w in weights:
        for t, coeff in _difference_terms(a):
            merged[t] = merged.get(t, 0) + w * coeff
    return merged


def _hull(points) -> list:
    """The vertices of conv(points) for points in Z^2, counter-clockwise.

    Andrew's monotone chain; a segment gives its two ends and a point itself.
    """
    points = sorted(set(points))
    if len(points) < 3:
        return points
    return _chain(points)[:-1] + _chain(points[::-1])[:-1]


def _chain(points) -> list:
    """The chain through `points` in Z^2, taken in order, that turns strictly left at every vertex it keeps.

    For points sorted lex it is their lower hull (Andrew's monotone chain).
    """
    chain = []
    for x, y in points:
        while len(chain) > 1 and ((chain[-1][0] - chain[-2][0]) * (y - chain[-2][1])
                                  <= (chain[-1][1] - chain[-2][1]) * (x - chain[-2][0])):
            chain.pop()
        chain.append((x, y))
    return chain


def _mixed_volume(hulls) -> int:
    """MV_k of the lattice polytopes with vertices `hulls` (from `_hull`) in Z^k, k = 0 or 2, with MV(P, P) = 2 vol P.

    MV_0 = 1, and MV_2(P, Q) is the sum over the counter-clockwise edges e
    of Q of the largest e_y p_x - e_x p_y over the vertices p of P: the
    support of P at the outer normal of e, as long as e, which is the
    facet formula in the plane.
    """
    if not hulls:
        return 1
    P, Q = hulls
    return sum(max((q[1] - p[1]) * x - (q[0] - p[0]) * y for x, y in P)
               for p, q in zip(Q, Q[1:] + Q[:1]))


def facet_sum(ideals, weights) -> int:
    """Sum of w * e(J_1^[a_1], ..., J_s^[a_s]) over the (a, w) of `weights`, in d <= 3, from facets.

    e(J^[a]) is the normalized mixed covolume of the Newton polyhedra of
    the slots j_1, ..., j_d that a lists (Teissier, *Monomial ideals,
    binomial ideals, polynomial ideals*, 2004), and the facet formula
    for mixed volumes (Schneider, *Convex Bodies*, 5.1) gives it as the
    sum, over the primitive facet normals u of Newt(J_1) + ... +
    Newt(J_s), of m_{j_1}(u) MV_{d-1}(F_{j_2}(u), ..., F_{j_d}(u)), with
    m_j(u) = min over J_j of u.g and F_j(u) the generators of J_j on
    which it is reached; a normal of a coarser sum only adds terms whose
    faces are too thin, which are 0.

    In the plane only the edges of Newt(J_j), j = j_2, give faces longer
    than a point, and m_{j_1} = 0 on the axes, so the hull is not needed.
    Newt(J) is bounded below by the lower convex chain of the minimal
    generators of J, which are stored lex-sorted, so `_chain` of them runs
    right and strictly down.  An edge (x, y) -> (u, v) has the normal (y -
    v, u - x), its lattice length times the primitive one, and its face
    has MV_1 that length, so e(J_i, J_j) is the sum over the edges of J_j's
    chain of the least (y - v) p + (u - x) q over the vertices (p, q) of
    J_i's chain, where m_i is reached: no generator is scanned and no gcd
    taken.

    In d = 1 and 3 the normals come from the one hull, `_newton_facets`.
    Every u > 0, since the sum holds a pure power on every axis, so the
    facet projects onto the other coordinates when coordinate c, the
    largest u_c, is dropped, and that map takes the facet's lattice to
    one of index u_c in Z^(d-1); so the mixed volume is `_mixed_volume`
    of the projected faces' hulls, divided by u_c.  Each face and each
    per-facet volume is computed once per call.  All arithmetic is in
    Python ints, so the value is exact at any size and no box is built.
    The J_j are the m-primary `ideals`, in dimension at most 3.
    """
    if ideals[0].dim == 2:
        chains = [_chain(J.gens) for J in ideals]
        total = 0
        for a, w in weights:
            i, j = (k for k, n in enumerate(a) for _ in range(n))
            total += w * sum(min((y - v) * p + (u - x) * q for p, q in chains[i])
                             for (x, y), (u, v) in zip(chains[j], chains[j][1:]))
        return total
    A, mins = _newton_facets(ideals)
    faces, volumes = {}, {}  # (facet, block): projected face hull; (facet, slots): its volume
    total = 0
    for a, w in weights:
        first, *rest = (j for j, n in enumerate(a) for _ in range(n))
        rest = tuple(rest)
        for k, u in enumerate(A):
            if (k, rest) not in volumes:
                c = u.index(max(u))
                for j in rest:
                    if (k, j) not in faces:
                        m = mins[j][k]
                        faces[k, j] = _hull([g[:c] + g[c + 1:] for g in ideals[j].gens
                                             if sum(map(mul, u, g)) == m])
                volumes[k, rest] = _mixed_volume([faces[k, j] for j in rest]) // u[c]
            total += w * mins[first][k] * volumes[k, rest]
    return total


def mixed_sum(ideals, weights) -> int:
    """Sum of w * e(J_1^[a_1], ..., J_s^[a_s]) over the pairs (a, w) of `weights`, each |a| = d.

    In d <= 3 `facet_sum` answers from facets, with no box: in the plane
    from the blocks' edge chains, with no hull, in d = 1 and 3 from the
    one hull.  From d = 4 on the closure colengths answer: L(t) = lambda(R /
    closure of prod J_j^(t_j)) counts the lattice points outside t_1
    Newt(J_1) + ... + t_s Newt(J_s) (Huneke-Swanson, *Integral Closure*,
    1.4) and is a polynomial of total degree d on all of Z^s_>=0
    (McMullen, *Lattice invariant valuations on rational polytopes*, 1977)
    with the top-degree part of the colength of the products themselves,
    since e does not change under integral closure.  So e(J^[a]) is the
    order-a difference of L at 0, the sum over t <= a of (-1)^{|a - t|}
    prod C(a_j, t_j) L(t) (`monomial._difference_terms`), with no window
    and no product of ideals.  The terms of every a are merged per t
    (`_merged_terms`), and one `colength_sum` on one hull of the
    m-primary `ideals` sums them.
    """
    # The facet formula one dimension up, by a recursion through MV_3 of the
    # faces read off the hull's tight masks, took 1.35-1.7 times the closure
    # sums' time on the 30 calls of the verify-d4 benchmark corpus (3.7
    # times with one hull per face), so from d = 4 on the sums answer.  That
    # ratio was measured against the per-part tile pass, before the parts of
    # a tile were reduced in batches; a cut-over is to be re-measured.
    if ideals[0].dim > 3:
        return colength_sum(ideals, _merged_terms(weights).items())
    return facet_sum(ideals, weights)
