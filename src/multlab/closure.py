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
* `integral_closure` of an m-primary ideal is a height field along the
  longest side of its box of pure-power bounds: over the other sides each
  facet bounds the least member height from below, the field is the
  largest of those bounds in int64 numpy arithmetic, and the closure's
  minimal generators are the field's corners.

No floats and no rationals enter the decision.
"""

from __future__ import annotations

from itertools import product
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
    the facet normals of the cone the c span.  The d + 1 independent
    constraints e_i and (g_0, 1) give the rays (e_i, -g_0i) and (0, ..., 0, 1);
    each further generator cuts the cone, and every ray keeps a bit mask
    of the constraints it is tight on.  A ray on the positive side and one
    on the negative side are adjacent when their common tight set has at
    least d - 1 bits and no third ray is tight on all of it; each adjacent
    pair gives one new ray on the cut, divided by its gcd.  All arithmetic
    is in Python ints, so the rows are exact at any size.  The rays with a
    negative last entry are the facets with b > 0; the others are facets
    v_i >= 0 and the face at infinity.  `gens` is any non-empty sequence of
    exponent rows, and the rows come back as the list of a's and the list
    of b's.
    """
    cuts = [(*map(int, g), 1) for g in gens]
    d = len(cuts[0]) - 1
    axes = (1 << d) - 1  # bit i: tight on e_i; bit d + k: tight on cuts[k]
    rays = [((0,) * d + (1,), axes)] + [
        ((*(int(j == i) for j in range(d)), -cuts[0][i]), (axes ^ 1 << i) | 1 << d)
        for i in range(d)
    ]
    for k, c in enumerate(cuts[1:], d + 1):
        side = [(sum(map(mul, y, c)), y, z) for y, z in rays]
        kept = [(y, z | (s == 0) << k) for s, y, z in side if s >= 0]
        masks = [z for _, z in rays]
        pos = [r for r in side if r[0] > 0]
        neg = [r for r in side if r[0] < 0]
        for (sp, p, zp), (sn, n, zn) in product(pos, neg):
            both = zp & zn
            if both.bit_count() >= d - 1 and sum(z & both == both for z in masks) == 2:
                y = [sp * e - sn * f for e, f in zip(n, p)]
                g = gcd(*y)
                kept.append((tuple(e // g for e in y), both | 1 << k))
        rays = kept
    facets = [y for y, _ in rays if y[d] < 0]
    return [y[:d] for y in facets], [-y[d] for y in facets]


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Smallest integrally closed monomial ideal containing I.

    Requires an m-primary ideal, with pure-power bounds b_i.  Every facet
    a.v >= b of Newt(I) from `_newton_facets` has a_c > 0 on every axis c,
    since a_c * b_c >= b > 0 at x_c^(b_c), so the closure is a height
    field along one axis (see `_closure_corners`), and its minimal
    generators are read off the field's corners; nothing is minimalized
    afterwards.

    Each facet row (a, -b) is primitive, so it divides the vector of
    d x d minors of the d spanning rays of its facet, (g, 1) for
    generators g in the box and (e_i, 0) for axes.  So |a.v| is at most
    |det| of those rays over (v, 0), and subtracting one generator
    row from the others leaves a d x d determinant whose column i holds
    entries of size at most b_i, so 0 <= a.v <= d! * prod b_i on the box
    prod [0, b_i] (and so is b, the value at a generator).  A box where
    that bound does not fit in int64 raises ValueError before anything is
    allocated; past that check the facet rows, Python ints, enter int64
    arithmetic exactly.
    """
    bounds = box_bounds(I)
    if factorial(I.dim) * prod(bounds) >= 2**63:
        raise ValueError(f"pure powers {bounds} may overflow int64 facet values")
    return ideal_from_array(I.dim, _closure_corners(*_newton_facets(I.gens), bounds))


def _closure_corners(A, b, bounds) -> np.ndarray:
    """The minimal generators of {v : a.v >= b for every facet row (a, b)}, as rows.

    Along the height axis c = `counting.height_axis(bounds)` (the longest
    side) the closure is the field h(v') = max(0, max over facets of
    ceil((b - a'.v') / a_c)) on the other coordinates v' in prod [0, b_i],
    i != c: v is a member exactly when v_c >= h(v').  h is non-increasing
    on every axis, and (v', h(v')) is a minimal generator exactly when h is
    strictly lower there than one step down on every axis with v'_i > 0.
    The field is int64 and whole, and it is freed before the caller turns
    the rows into tuples.
    """
    c = counting.height_axis(bounds)
    rest = [i for i in range(len(bounds)) if i != c]
    axes = np.ix_(*(np.arange(bounds[i] + 1) for i in rest))
    low = np.zeros([bounds[i] + 1 for i in rest], dtype=np.int64)
    for a, rhs in zip(A, b):  # low = min(0, floor((a'.v' - b) / a_c)) = -h
        over = sum((a[i] * x for i, x in zip(rest, axes) if a[i]), -rhs)
        over //= a[c]
        np.minimum(low, over, out=low)
    h = np.negative(low, out=low)
    corner = np.ones(h.shape, dtype=bool)
    for ax in range(h.ndim):
        above = (slice(None),) * ax + (slice(1, None),)
        below = (slice(None),) * ax + (slice(None, -1),)
        corner[above] &= h[above] < h[below]
    return np.insert(np.argwhere(corner), c, h[corner], axis=1)
