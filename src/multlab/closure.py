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
above.  `_newton_facets` finds the normals by the double description
method in Python ints, one generator at a time, so its cost follows the
facets rather than the subsets of generators or the products of vertices,
and each normal a comes with min over J_j of a.g for every block.  Every
membership question is then a.v >= b for every facet:

* `newton_polyhedron_member` tests one point of any ideal against its
  facet rows alone, in Python ints, so it is exact for every exponent the
  ideal can hold.
* An m-primary polyhedron is a height field along the longest side of its
  box of pure-power bounds: over the other sides each facet bounds the
  least member height from below, and the field is the largest of those
  bounds.  `_tile_heights` builds it in int64 numpy arithmetic, every
  facet at once, on tiles of at most TILE_CELLS facet-cells, and each
  tile serves every box of the call.  `integral_closure` reads the
  closure's minimal generators off the field's corners.
* `colength_sum` sums the colengths of the closures of products prod
  J_j^(t_j): one hull of the J_j serves every t, with right-hand sides
  sum t_j min over J_j of a.g, and one `_tile_heights` pass serves every
  box.

`check_int64` bounds every value the tiles hold before int64 arithmetic
starts.  No floats and no rationals enter the decision.
"""

from __future__ import annotations

from functools import reduce
from itertools import product as iter_product
from math import factorial, gcd, prod
from operator import add, mul

import numpy as np

from . import counting
from .errors import NotMPrimaryError
from .monomial import (
    MonomialIdeal,
    _built,
    box_bounds,
    integer_exponents,
    is_m_primary,
)


def _phase_one_feasible(cols: tuple[tuple[int, ...], ...], rhs: tuple[int, ...]) -> bool:
    """Is there lam >= 0 with sum(lam) = 1 and sum lam_j cols[j] <= rhs?

    That is, does rhs lie in conv(cols) + R^d_{>=0}; it does exactly when
    a.rhs >= b for every facet row (a, b) of `_newton_facets([cols])`.  The
    benchmark's tracer (`bench/tracer.py`) wraps this function by name.
    """
    A, (b,) = _newton_facets([cols])
    return all(sum(map(mul, a, rhs)) >= c for a, c in zip(A, b))


def newton_polyhedron_member(I: MonomialIdeal, point) -> bool:
    """True when x^point lies in the integral closure of I.

    The facet rows alone decide, with no divisibility test first: a point
    that a generator divides satisfies every row too.  Nothing in the
    library calls this function, and each call finds the facets afresh:
    30-45 ms for the 235 generators of a ball-shaped ideal in d = 4.
    """
    v = integer_exponents(point)
    if len(v) != I.dim:
        raise ValueError(f"point has {len(v)} coordinates, ideal has {I.dim}")
    if any(e < 0 for e in v):
        raise ValueError("exponents must be non-negative")
    return _phase_one_feasible(I.gens, v)


def _newton_facets(blocks) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Facet normals a of Newt(J_1) + ... + Newt(J_s), and per block j the minima min over J_j of a.g.

    `blocks` holds the generator rows of J_1, ..., J_s, each a non-empty
    sequence of tuples of Python ints, such as an ideal's stored `gens`,
    taken as they are.  The normals come back as a list of primitive a >=
    0, and with them one list per block: b_j[k] = min over J_j of A[k].g >=
    0.  The facets of the sum are a.v >= b_1 + ... + b_s
    > 0, and the same normals with right-hand sides sum t_j b_j cut out
    every sum t_1 Newt(J_1) + ... with t_j >= 0; with one block, A and b_1
    are the facet rows of Newt(J_1) itself.

    Double description (Fukuda-Prodon, *Double description method
    revisited*, 1996) on the Cayley cone of the blocks (Huber-Rambau-Santos,
    *The Cayley trick, lifting subdivisions and the Bohne-Dress theorem*,
    2000): the rays y = (a, c_1, ..., c_s) with y.(g, e_j) >= 0 for every
    generator g of block j and y.(e_i, 0) >= 0 for every axis are the facet
    normals of the cone those vectors span.  Its facets tight on a generator
    of every block are the facets of the sum, with c_j = -min over J_j of
    a.g.  The cuts go in by degree, then lex, which keeps the intermediate
    ray sets small.  The d + s independent constraints e_i and (g_j, e_j),
    g_j the first generator of block j in that order, give the rays (e_i,
    -g_1i, ..., -g_si) and (0, e_j); each further generator cuts the cone,
    and every ray keeps a bit mask of the constraints it is tight on.  A
    ray on the positive side of a cut and one on the negative side are
    adjacent when their common tight set has at least d + s - 2 bits and no
    third ray is tight on all of it; each adjacent pair gives one new ray
    on the cut, divided by its gcd.  All arithmetic is in Python ints, so
    the rows are exact at any size.

    A ray tight on no generator of block j solves equations free of c_j,
    so it is (0, e_j); every other ray is tight on every block.  Of those,
    the rays with c_1 + ... + c_s < 0 are kept: the others are facets v_i
    >= 0 of the sum.  A kept y is primitive and each c_j is an integer
    combination of a, so a is primitive too.
    """
    s = len(blocks)
    firsts, cuts = [None] * s, []
    for _, g, j in sorted((sum(g), g, j) for j, gens in enumerate(blocks) for g in gens):
        if firsts[j] is None:
            firsts[j] = g
        else:
            cuts.append((g, j))
    d = len(firsts[0])
    axes = (1 << d) - 1  # bit i: tight on e_i; bit d + j: on (firsts[j], e_j); d + s + k: on cuts[k]
    tops = ((1 << s) - 1) << d
    ys = [(0,) * d + tuple(int(i == j) for i in range(s)) for j in range(s)]
    zs = [axes | (tops ^ 1 << d + j) for j in range(s)]
    for i in range(d):
        ys.append((*(int(j == i) for j in range(d)), *(-g[i] for g in firsts)))
        zs.append((axes ^ 1 << i) | tops)
    for k, (g, j) in enumerate(cuts, d + s):
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
    A, (b,) = _newton_facets([I.gens])
    return _built(I.dim, tuple(sorted(map(tuple, _closure_corners(A, b, bounds).tolist()))))


def check_int64(bounds) -> None:
    """Raise ValueError unless every facet value on the box prod [0, b_i] fits in int64.

    Each facet row (a, -b) of a polyhedron whose vertices lie in the box is
    primitive, so it divides the vector of d x d minors of the d spanning
    rays of its facet, (g, 1) for vertices g and (e_i, 0) for axes.  So
    |a.v| is at most |det| of those rays over (v, 0), and subtracting one
    vertex row from the others leaves a d x d determinant whose column i
    holds entries of size at most b_i, so 0 <= a.v <= d! * prod b_i on the
    box (and so is b, the value at a vertex).  The tiles of `_tile_heights`
    hold a'.v' - r, with a'.v' = a.v at v_c = 0 for cells v' of a field
    in the box and r the value of a at a point of the box (a vertex, or
    for `colength_sum` the sum of t_j minimizers over the J_j, which lies
    in B(t)), so they lie in [-d! * prod b_i, d! * prod b_i]; so do the
    side rows a_i * x_i that are read, x_i < B_i, and their partial sums,
    and the run minima and their floors lie between those.  Past that
    check the facet rows, Python ints, enter int64 arithmetic exactly.
    """
    if factorial(len(bounds)) * prod(bounds) >= 2**63:
        raise ValueError(f"pure powers {tuple(bounds)} may overflow int64 facet values")


TILE_CELLS = 1 << 18
"""The most int64 facet-cells (facets times field cells) one tile of `_tile_heights` holds."""


def _tile_heights(A, c, rights, boxes, cells):
    """The least member heights along axis c over every box, negated, one tile part at a time.

    Every facet row a has a_c > 0, and with right-hand sides r the height
    at the coordinates v' off axis c is h(v') = max(0, max over rows of
    ceil((r - a'.v') / a_c)): v = (v', v_c) satisfies every row exactly
    when v_c >= h(v').  `rights` holds the r of each box of `boxes`, whose
    fields lie over prod [0, B_i), i != c.  The field of their
    componentwise maximum is cut into tiles of at most TILE_CELLS
    facet-cells, innermost sides whole first, and each tile holds a'.v' for
    every row at once, from broadcast adds of one row per side.  Every box
    that meets the tile takes its part as a view and subtracts its r.  The
    rows are sorted by a_c, and each run of one a_c is reduced to its least
    row, then floor-divided by that a_c: floor((a'.v' - r) / a_c) is
    monotone in a'.v' - r, so one division per run serves all its rows.
    Dividing every row instead took the d = 6 CI corpus (`verify --dim 6
    --rank 3 --instances 2 --seed 11`, in-process) from 13.0 / 11.3 s to
    21.9 / 20.0 s, 1.7-1.8 times as long, while the closure-d4 benchmark
    corpus, of few facets over small fields, read 4 % faster (16.0 against
    15.4 ms, medians of 21 alternating passes).
    The least over the runs, capped at 0, is -h.  Yields (j, lo, low) for
    box j, with low = -h on the part of its field from the coordinates lo
    on, written into the first cells of the flat int64 buffer `cells`,
    which holds the field of the maximum; the next part overwrites it.
    """
    n = len(A)
    rows = sorted((a[c], *a[:c], *a[c + 1:], *r) for a, r in zip(A, zip(*rights)))
    table = np.array(rows, np.int64)  # per row: a_c, a', then r for every box
    lead = [row[0] for row in rows]
    starts = [f for f in range(n) if not f or lead[f] != lead[f - 1]]
    runs = list(map(slice, starts, starts[1:] + [n]))  # the rows of each a_c
    steep = [(i, lead[f]) for i, f in enumerate(starts) if lead[f] > 1]  # (run, a_c > 1)
    boxes = [box[:c] + box[c + 1:] for box in boxes]
    shape = list(map(max, zip(*boxes)))
    k = len(shape)
    col = (n,) + (1,) * k
    rights = table.T[k + 1:].reshape((-1,) + col)
    steps = table[:, 1 : k + 1, None] * np.arange(max(shape, default=0))  # a'_fi * x, x < side i
    sides = [col[: i + 1] + (-1,) + col[i + 2:] for i in range(k)]  # axis i's row, broadcast
    tile, room = [], max(1, TILE_CELLS // n)
    for side in reversed(shape):
        tile.insert(0, min(side, room))
        room = max(1, room // side)
    for lo in iter_product(*map(range, [0] * k, shape, tile)):
        hi = [min(l + t, side) for l, t, side in zip(lo, tile, shape)]
        parts = [steps[:, i, l:h].reshape(sides[i]) for i, (l, h) in enumerate(zip(lo, hi))]
        vals = reduce(np.add, parts) if parts else np.zeros(n, np.int64)  # a'_f.(lo + x)
        for j, box in enumerate(boxes):
            ends = [min(h, b) - l for l, h, b in zip(lo, hi, box)]
            if min(ends, default=1) > 0:
                over = vals[(slice(None), *map(slice, ends))] - rights[j]
                least = np.empty((len(runs), *ends), np.int64)  # each run's least row
                for i, run in enumerate(runs):
                    np.minimum.reduce(over[run], axis=0, out=least[i, ...])
                for i, a in steep:
                    np.floor_divide(least[i, ...], a, out=least[i, ...])
                low = cells[: prod(ends)].reshape(ends)
                yield j, lo, np.minimum.reduce(least, axis=0, initial=0, out=low)


def _closure_corners(A, b, bounds) -> np.ndarray:
    """The minimal generators of {v : a.v >= b for every facet row (a, b)}, as rows.

    Along the height axis c = `counting.height_axis` of the box prod [0,
    b_i] (its longest side) the closure is the field h of `_tile_heights`
    on the other coordinates v'.  h is non-increasing on every axis, and
    (v', h(v')) is a minimal generator exactly when h is strictly lower
    there than one step down on every axis with v'_i > 0.  The field is
    int64 and whole, and it is freed before the caller turns the rows into
    tuples.
    """
    box = [n + 1 for n in bounds]
    c = counting.height_axis(box)
    h = np.empty(box[:c] + box[c + 1:], np.int64)
    for _, lo, low in _tile_heights(A, c, [b], [box], np.empty(h.size, np.int64)):
        np.negative(low, out=h[(..., *map(slice, lo, map(add, lo, low.shape)))])
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
    which holds every point outside it.  One `_tile_heights` pass along
    the longest side of the componentwise maximum of the boxes gives every
    L(t).  The order is fixed: one flat int64 buffer for the field of that
    maximum is allocated first, so a field past numpy's maximum size, or
    one the machine will not allocate, raises MemoryError at once, and
    each tile part's heights go to its first cells; then the maximum must
    pass `check_int64`; then one hull serves every term.  The J_j are the
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
    A, mins = _newton_facets([J.gens for J in ideals])
    per_facet = list(zip(*mins))
    rights = [[sum(map(mul, t, m)) for m in per_facet] for t, _ in terms]
    return -sum(terms[j][1] * int(np.add.reduce(low, axis=None))
                for j, _, low in _tile_heights(A, c, rights, boxes, cells))
