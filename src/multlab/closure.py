"""Integral closure of monomial ideals via the Newton polyhedron.

A monomial x^v lies in the integral closure of I exactly when v lies in the
Newton polyhedron Newt(I) = conv(gens) + R^d_{>=0} (Huneke-Swanson,
*Integral Closure*, 1.4).  Newt(I) is the slice t = 1 of the cone in
R^(d+1) spanned by (g, 1) for each generator g and (e_i, 0) for each axis,
so its facet inequalities a.v >= b are the rays (a, -b) of the dual cone
with b > 0.  `_newton_facets` finds them by the double description method
in Python ints, one generator at a time, so its cost follows the facets
rather than the subsets of generators.  Every membership question is then
a.v >= b for every facet:

* `newton_polyhedron_member` tests one point of any ideal in Python ints,
  so it is exact for every exponent the ideal can hold.
* An m-primary polyhedron is a height field along the longest side of its
  box of pure-power bounds: over the other sides each facet bounds the
  least member height from below, and the field is the largest of those
  bounds (`_height_field`, int64 numpy arithmetic, one facet at a time).
  `integral_closure` reads the closure's minimal generators off the
  field's corners.
* `sum_facets` finds the facet normals of a Minkowski sum Newt(J_1) +
  ... + Newt(J_s) from the vertices of its summands; with right-hand
  sides sum t_j min over J_j of a.g they cut out every sum of multiples
  t_1 Newt(J_1) + ..., which is the Newton polyhedron of the product
  prod J_j^(t_j).  `colength_sum` sums the colengths of those closures.

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
    as_array,
    box_bounds,
    contains,
    ideal_from_array,
    integer_exponents,
    product_array,
)


def _phase_one_feasible(cols: list[tuple[int, ...]], rhs: tuple[int, ...]) -> bool:
    """Is there lam >= 0 with sum(lam) = 1 and sum lam_j cols[j] <= rhs?

    That is, does rhs lie in conv(cols) + R^d_{>=0}; it does exactly when
    a.rhs >= b for every facet row (a, b) of `_newton_facets(cols)`.  The
    benchmark's tracer (`bench/tracer.py`) wraps this function by name.
    """
    A, b = _newton_facets(cols)
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


def _newton_facets(gens) -> tuple[list[tuple[int, ...]], list[int]]:
    """Integer rows (a, b), a >= 0 and b > 0, with Newt(gens) = {v >= 0 : a.v >= b for all}.

    Double description (Fukuda-Prodon, *Double description method
    revisited*, 1996) of the cone of rays y = (a, -b) with y.c >= 0 for
    every c = (g, 1), g a generator, and every c = (e_i, 0): those rays are
    the facet normals of the cone the c span.  The cuts (g, 1) go in by
    degree, then lex, which keeps the intermediate ray sets small.  The
    d + 1 independent constraints e_i and (g_0, 1) give the rays
    (e_i, -g_0i) and (0, ..., 0, 1); each further generator cuts the cone,
    and every ray keeps a bit mask of the constraints it is tight on.  A
    cut with no ray on its negative side only marks the rays tight on it.
    Otherwise a ray on the positive side and one on the negative side are
    adjacent when their common tight set has at least d - 1 bits and no
    third ray is tight on all of it; each adjacent pair gives one new ray
    on the cut, divided by its gcd.  All arithmetic is in Python ints, so
    the rows are exact at any size.  The rays with a negative last entry
    are the facets with b > 0; the others are facets v_i >= 0 and the face
    at infinity.  `gens` is any non-empty sequence of exponent rows, and
    the rows come back as the list of a's and the list of b's.
    """
    cuts = sorted(map(tuple, np.asarray(gens).tolist()), key=lambda g: (sum(g), g))
    d = len(cuts[0])
    first = cuts[0]
    axes = (1 << d) - 1  # bit i: tight on e_i; bit d + k: tight on cuts[k]
    ys = [(0,) * d + (1,)] + [(*(int(j == i) for j in range(d)), -first[i]) for i in range(d)]
    zs = [axes] + [(axes ^ 1 << i) | 1 << d for i in range(d)]
    for k, c in enumerate(cuts[1:], d + 1):
        c = (*c, 1)
        sides = [sum(map(mul, y, c)) for y in ys]
        bit = 1 << k
        if min(sides) >= 0:
            zs = [z | bit if s == 0 else z for s, z in zip(sides, zs)]
            continue
        new_ys, new_zs, pos, neg = [], [], [], []
        for s, y, z in zip(sides, ys, zs):
            if s >= 0:
                new_ys.append(y)
                new_zs.append(z | bit if s == 0 else z)
                if s:
                    pos.append((s, y, z))
            else:
                neg.append((s, y, z))
        for sp, p, zp in pos:
            for sn, n, zn in neg:
                both = zp & zn
                if both.bit_count() < d - 1:
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
    facets = [y for y in ys if y[d] < 0]
    return [y[:d] for y in facets], [-y[d] for y in facets]


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
    return ideal_from_array(I.dim, _closure_corners(*_newton_facets(I.gens), bounds))


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
    Newt(J_j) (`sum_facets`) with right-hand sides sum t_j min over J_j of
    a.g, and L(t) is its `_height_field` summed over the box B(t) = sum
    t_j (pure-power bounds of J_j), which holds every point outside it.
    The order is fixed: one flat int64 buffer for the largest term's field
    is allocated first, so a field past numpy's maximum size, or one the
    machine will not allocate, raises MemoryError at once; then the
    componentwise maximum of the boxes must pass `check_int64`; then one
    hull serves every term.  The J_j are the m-primary `ideals`; L(0) = 0.
    """
    sides = list(zip(*(box_bounds(J) for J in ideals)))
    boxes = [[sum(map(mul, t, side)) for side in sides] for t, _ in terms]
    size = max(prod(sorted(B)[:-1]) for B in boxes)  # the cells off B's longest side
    counting._check_size([size], np.int64)
    cells = np.empty(size, np.int64)
    check_int64(list(map(max, zip(*boxes))))
    gens = [as_array(J) for J in ideals]
    A = sum_facets(gens)
    normals = np.array(A, dtype=np.int64).T
    support = [(g @ normals).min(axis=0) for g in gens]
    return sum(
        coeff * int(_height_field(A, sum(map(mul, t, support)).tolist(), B, cells).sum())
        for (t, coeff), B in zip(terms, boxes)
        if any(t)
    )


def _vertices(rows: np.ndarray, A, b) -> np.ndarray:
    """The rows of `rows` tight on at least d of the facet rows (A, b) and the planes v_i = 0.

    Every vertex of the polyhedron the facet rows cut out is tight on d
    independent ones, so no vertex among `rows` is dropped; a row kept that
    is no vertex only costs time.  Facet values must fit in int64.
    """
    tight = (rows @ np.array(A, dtype=np.int64).T == np.array(b, dtype=np.int64)).sum(axis=1)
    tight += (rows == 0).sum(axis=1)
    return rows[tight >= rows.shape[1]]


def sum_facets(gens_list) -> list[tuple[int, ...]]:
    """Facet normals a of Newt(J_1) + ... + Newt(J_s), the J_j generated by `gens_list`.

    The normal fan of a Minkowski sum refines that of every partial sum, so
    these normals a also serve every sum t_1 Newt(J_1) + ... with t_j >= 0,
    with right-hand side sum t_j min over J_j's generators of a.g.  The
    sum is built one ideal at a time from vertices: each ideal's and each
    running sum's rows are cut to `_vertices` of their own facets, and the
    next running sum is the minimal rows of their pairwise sums, with one
    `_newton_facets` call per ideal and per step.  The facet values of
    every sum must fit in int64 (`check_int64` on the summed box).
    """
    first, *rest = gens_list
    total = np.asarray(first, dtype=np.int64)
    A, b = _newton_facets(total)
    for gens in rest:
        gens = np.asarray(gens, dtype=np.int64)
        total = product_array(_vertices(total, A, b), _vertices(gens, *_newton_facets(gens)))
        A, b = _newton_facets(total)
    return A
