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

* `newton_polyhedron_member` tests one point of any ideal in Python ints,
  so it is exact for every exponent the ideal can hold.
* An m-primary polyhedron is a height field along the longest side of its
  box of pure-power bounds: over the other sides each facet bounds the
  least member height from below, and the field is the largest of those
  bounds (`_height_field`, int64 numpy arithmetic, one facet at a time).
  `integral_closure` reads the closure's minimal generators off the
  field's corners.
* `colength_sum` sums the colengths of the closures of products prod
  J_j^(t_j): one hull of the J_j serves every t, with right-hand sides
  sum t_j min over J_j of a.g.

`check_int64` bounds every facet value on a box before int64 arithmetic
starts.  No floats and no rationals enter the decision.
"""

from __future__ import annotations

from math import factorial, gcd, prod
from operator import mul

import numpy as np

from . import counting
from .monomial import (
    MonomialIdeal,
    box_bounds,
    contains,
    ideal_from_array,
    integer_exponents,
)


def _phase_one_feasible(cols: list[tuple[int, ...]], rhs: tuple[int, ...]) -> bool:
    """Is there lam >= 0 with sum(lam) = 1 and sum lam_j cols[j] <= rhs?

    That is, does rhs lie in conv(cols) + R^d_{>=0}; it does exactly when
    a.rhs >= b for every facet row (a, b) of `_newton_facets([cols])`.  The
    benchmark's tracer (`bench/tracer.py`) wraps this function by name.
    """
    A, (b,) = _newton_facets([cols])
    return all(sum(map(mul, a, rhs)) >= c for a, c in zip(A, b))


def newton_polyhedron_member(I: MonomialIdeal, point) -> bool:
    """True when x^point lies in the integral closure of I."""
    v = integer_exponents(point)
    if len(v) != I.dim:
        raise ValueError(f"point has {len(v)} coordinates, ideal has {I.dim}")
    if any(e < 0 for e in v):
        raise ValueError("exponents must be non-negative")
    if contains(I, v):
        return True
    return _phase_one_feasible(list(I.gens), v)


def _newton_facets(blocks) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Facet normals a of Newt(J_1) + ... + Newt(J_s), and per block j the minima min over J_j of a.g.

    `blocks` holds the generator rows of J_1, ..., J_s, each any non-empty
    sequence of exponent rows.  The normals come back as a list of
    primitive a >= 0, and with them one list per block: b_j[k] = min over
    J_j of A[k].g >= 0.  The facets of the sum are a.v >= b_1 + ... + b_s
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
    cut with no ray on its negative side only marks the rays tight on it.
    Otherwise a ray on the positive side and one on the negative side are
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
    for _, g, j in sorted((sum(g), g, j) for j, gens in enumerate(blocks)
                          for g in map(tuple, np.asarray(gens).tolist())):
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
        if min(sides) >= 0:
            zs = [z | bit if side == 0 else z for side, z in zip(sides, zs)]
            continue
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
    generators are read off the field's corners; nothing is minimalized
    afterwards.  The box is checked by `check_int64` before the facets
    are built.
    """
    bounds = box_bounds(I)
    check_int64(bounds)
    A, (b,) = _newton_facets([I.gens])
    return ideal_from_array(I.dim, _closure_corners(A, b, bounds))


def check_int64(bounds) -> None:
    """Raise ValueError unless every facet value on the box prod [0, b_i] fits in int64.

    Each facet row (a, -b) of a polyhedron whose vertices lie in the box is
    primitive, so it divides the vector of d x d minors of the d spanning
    rays of its facet, (g, 1) for vertices g and (e_i, 0) for axes.  So
    |a.v| is at most |det| of those rays over (v, 0), and subtracting one
    vertex row from the others leaves a d x d determinant whose column i
    holds entries of size at most b_i, so 0 <= a.v <= d! * prod b_i on the
    box (and so is b, the value at a vertex).  Past that check the facet
    rows, Python ints, enter int64 arithmetic exactly.
    """
    if factorial(len(bounds)) * prod(bounds) >= 2**63:
        raise ValueError(f"pure powers {tuple(bounds)} may overflow int64 facet values")


def _height_field(A, b, box, cells=None) -> np.ndarray:
    """The least member heights along the longest side c of `box`, over prod [0, n_i) on the others.

    Every facet row (a, b) has a_c > 0, and the result is h(v') = max(0,
    max over rows of ceil((b - a'.v') / a_c)) at the coordinates v' off
    axis c: v = (v', v_c) satisfies every row exactly when v_c >= h(v').
    The int64 field is worked in the first cells of the flat int64 array
    `cells` when it is given, else in a new array.  The rows go one at a
    time, so besides the field only one row's temporary is held.
    """
    c = counting.height_axis(box)
    rest = [i for i in range(len(box)) if i != c]
    shape = [box[i] for i in rest]
    low = np.empty(shape, np.int64) if cells is None else cells[: prod(shape)].reshape(shape)
    axes = [np.arange(n).reshape([n if j == k else 1 for j in range(len(shape))])
            for k, n in enumerate(shape)]
    low.fill(0)
    for a, rhs in zip(A, b):  # low = min(0, floor((a'.v' - b) / a_c)) = -h
        over = sum((a[i] * x for i, x in zip(rest, axes) if a[i]), -rhs)
        if a[c] > 1:
            over //= a[c]
        np.minimum(low, over, out=low)
    return np.negative(low, out=low)


def _closure_corners(A, b, bounds) -> np.ndarray:
    """The minimal generators of {v : a.v >= b for every facet row (a, b)}, as rows.

    Along the height axis c = `counting.height_axis(bounds)` (the longest
    side) the closure is the field h of `_height_field` on the other
    coordinates v' in prod [0, b_i], i != c.  h is non-increasing on every
    axis, and (v', h(v')) is a minimal generator exactly when h is
    strictly lower there than one step down on every axis with v'_i > 0.
    The field is int64 and whole, and it is freed before the caller turns
    the rows into tuples.
    """
    h = _height_field(A, b, [n + 1 for n in bounds])
    corner = np.ones(h.shape, dtype=bool)
    for ax in range(h.ndim):
        above = (slice(None),) * ax + (slice(1, None),)
        below = (slice(None),) * ax + (slice(None, -1),)
        corner[above] &= h[above] < h[below]
    return np.insert(np.argwhere(corner), counting.height_axis(bounds), h[corner], axis=1)


def colength_sum(ideals, terms) -> int:
    """Sum of coeff * L(t) over the (t, coeff) of `terms`, L(t) = lambda(R / closure of prod J_j^(t_j)).

    The closure is cut out by the facet normals a of the sum of the
    Newt(J_j), from one `_newton_facets` call with the J_j as blocks, with
    right-hand sides sum t_j min over J_j of a.g, and L(t) is its
    `_height_field` summed over the box B(t) = sum t_j (pure-power bounds
    of J_j), which holds every point outside it.  The order is fixed: one
    flat int64 buffer for the largest term's field is allocated first, so
    a field past numpy's maximum size, or one the machine will not
    allocate, raises MemoryError at once; then the componentwise maximum of
    the boxes must pass `check_int64`; then one hull serves every term.
    The J_j are the m-primary `ideals`; L(0) = 0.
    """
    sides = list(zip(*(box_bounds(J) for J in ideals)))
    boxes = [[sum(map(mul, t, side)) for side in sides] for t, _ in terms]
    size = max(prod(sorted(B)[:-1]) for B in boxes)  # the cells off B's longest side
    counting._check_size([size], np.int64)
    cells = np.empty(size, np.int64)
    check_int64(list(map(max, zip(*boxes))))
    A, mins = _newton_facets([J.gens for J in ideals])
    return sum(
        coeff * int(_height_field(A, [sum(map(mul, t, m)) for m in zip(*mins)], B, cells).sum())
        for (t, coeff), B in zip(terms, boxes)
        if any(t)
    )
