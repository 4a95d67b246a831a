"""Integral closure of m-primary monomial ideals via the Newton polyhedron.

A monomial x^v lies in the integral closure of I exactly when v lies in the
Newton polyhedron Newt(I) = conv(gens) + R^d_{>=0} (Huneke-Swanson,
*Integral Closure*, 1.4).  Two exact routes decide that:

* `newton_polyhedron_member` tests one point.  Whether v is >= some convex
  combination of the generators is a linear feasibility problem, solved by
  a phase-I simplex on `fractions.Fraction` entries (Bland's rule, so it
  always terminates).  It is the public per-point route and the judge of
  the second one.
* `integral_closure` tests the whole box of pure-power bounds at once.
  `_newton_facets` enumerates the facet inequalities a.v >= b of Newt(I)
  in exact integers: every facet passes through k generators and the
  d - k coordinate directions off some k-subset T of the axes, so it is
  the cofactor normal of k distinct projections of generators onto T.
  Membership is then a.v >= b for every facet, evaluated in int64 numpy
  arithmetic, and the closure's minimal generators are the members with
  no member one step below them.  No floats enter the decision.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice, permutations
from math import factorial, prod

import numpy as np

from . import counting
from .monomial import (
    MonomialIdeal,
    as_array,
    box_bounds,
    contains,
    dedup_rows,
    ideal_from_array,
)


def _phase_one_feasible(cols: list[tuple[int, ...]], rhs: tuple[int, ...]) -> bool:
    """Is there lam >= 0 with sum(lam) = 1 and sum lam_j cols[j] <= rhs?

    Standard form: one convexity row with an artificial variable, one row per
    coordinate with a slack.  Minimizing the artificial to zero certifies
    feasibility; everything stays in exact rational arithmetic.
    """
    g = len(cols)
    d = len(rhs)
    rows = d + 1
    ncols = g + d + 1  # lambdas, slacks, artificial
    art = g + d

    T = [[Fraction(0)] * (ncols + 1) for _ in range(rows)]
    for i in range(d):
        for j in range(g):
            T[i][j] = Fraction(cols[j][i])
        T[i][g + i] = Fraction(1)
        T[i][ncols] = Fraction(rhs[i])
    for j in range(g):
        T[d][j] = Fraction(1)
    T[d][art] = Fraction(1)
    T[d][ncols] = Fraction(1)

    basis = list(range(g, g + d)) + [art]
    # objective: minimize the artificial == maximize -art; reduced costs
    # start as the negated artificial row since art is basic there
    z = [-T[d][j] for j in range(ncols + 1)]
    z[art] = Fraction(0)

    while True:
        # Bland's rule (smallest eligible index) guarantees termination;
        # the artificial never re-enters once driven out
        enter = next((j for j in range(ncols) if j != art and z[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (T[i][ncols] / T[i][enter], basis[i], i)
            for i in range(rows)
            if T[i][enter] > 0
        ]
        if not ratios:
            return False  # unbounded phase-I: cannot happen, but be safe
        _, _, leave = min(ratios)
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(rows):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [a - f * b for a, b in zip(T[i], T[leave])]
        if z[enter]:
            f = z[enter]
            z = [a - f * b for a, b in zip(z, T[leave])]
        basis[leave] = enter
        if art not in basis:
            return True
    return -z[ncols] == 0


def newton_polyhedron_member(I: MonomialIdeal, point) -> bool:
    """True when x^point lies in the integral closure of I."""
    v = tuple(int(e) for e in point)
    if len(v) != I.dim:
        raise ValueError(f"point has {len(v)} coordinates, ideal has {I.dim}")
    if any(e < 0 for e in v):
        raise ValueError("exponents must be non-negative")
    if contains(I, v):
        return True
    return _phase_one_feasible(list(I.gens), v)


def _determinants(m: np.ndarray) -> np.ndarray:
    """Exact int64 determinants of a stack of square integer matrices (Leibniz)."""
    n = m.shape[-1]
    out = np.zeros(len(m), dtype=np.int64)
    for perm in permutations(range(n)):
        odd = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:]) % 2
        term = np.ones(len(m), dtype=np.int64)
        for row, col in enumerate(perm):
            term *= m[:, row, col]
        out += -term if odd else term
    return out


def _newton_facets(gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer rows (a, b), a >= 0 and b > 0, with Newt(gens) = {v >= 0 : a.v >= b for all}.

    `gens` are minimal generators.  For every k-subset T of the axes and
    every k distinct projections of the generators onto T, take the
    cofactor normal of the k - 1 differences, flip it non-negative (mixed
    signs and zero are dropped), set b = a.p0 at the first projection and
    keep (a, b) when no generator has a.g < b.  Every facet of Newt(gens)
    arises this way; any other row kept is still a valid inequality and
    cuts nothing.  Rows are divided by their gcd and deduplicated, and rows
    with b = 0 (true on the whole orthant) are dropped.  Combinations go
    in batches that keep the support test at or under
    `counting.FIELD_CELLS` values.
    """
    # g >= (p + q) / 2 for two other generators puts g inside Newt of the
    # rest, so it is no vertex and no facet needs it; a pair holding g
    # itself never passes, since minimal generators form an antichain
    i, j = np.triu_indices(len(gens), 1)
    sums = gens[i] + gens[j]
    gens = gens[[not (sums <= 2 * g).all(axis=1).any() for g in gens]]
    d = gens.shape[1]
    rows = [np.empty((0, d + 1), dtype=np.int64)]
    for k in range(1, d + 1):
        minors = [[c for c in range(k) if c != j] for j in range(k)]
        for T in combinations(range(d), k):
            proj = dedup_rows(gens[:, T])
            picks = combinations(range(len(proj)), k)
            batch = max(1, counting.FIELD_CELLS // len(proj))
            while chunk := list(islice(picks, batch)):
                pts = proj[np.array(chunk)]
                diff = pts[:, 1:] - pts[:, :1]
                a = np.stack(
                    [(-1) ** j * _determinants(diff[:, :, minors[j]]) for j in range(k)],
                    axis=1,
                )
                a = np.where((a <= 0).all(axis=1, keepdims=True), -a, a)
                signed = (a >= 0).all(axis=1) & (a > 0).any(axis=1)
                a, p0 = a[signed], pts[signed, 0]
                b = (a * p0).sum(axis=1)
                keep = ((proj @ a.T).min(axis=0) == b) & (b > 0)
                full = np.zeros((int(keep.sum()), d + 1), dtype=np.int64)
                full[:, list(T)] = a[keep]
                full[:, d] = b[keep]
                full //= np.gcd.reduce(full, axis=1, keepdims=True)
                rows.append(dedup_rows(full))
    rows = dedup_rows(np.concatenate(rows))
    return rows[:, :d], rows[:, d]


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Smallest integrally closed monomial ideal containing I.

    Requires an m-primary ideal.  Every minimal generator of the closure
    lies in the box prod [0, b_i] of the pure-power bounds, so the box is
    scanned once against the facets of Newt(I) from `_newton_facets`:
    mem marks the points v with a.v >= b for every facet, and the
    generators are the points of mem for which no v - e_i is in mem (a
    shift-and over the grid, so nothing is minimalized afterwards).

    Facet entries come from determinants of differences of points in the
    box, so |a.v| <= d! * prod b_i <= d! * M^d on the box, M the largest
    pure power; that bound is asserted to fit in int64, which it does for
    any box small enough to scan.  The box goes in slabs along the first
    axis of at most `counting.FIELD_CELLS` cells (or one row), and each
    slab carries the last row of mem from the one before.
    """
    bounds = box_bounds(I)
    d = I.dim
    assert factorial(d) * prod(bounds) < 2**63, "facet values may overflow int64"
    A, b = _newton_facets(as_array(I))
    shape = [n + 1 for n in bounds]
    rows = max(1, counting.FIELD_CELLS // prod(shape[1:]))
    before = np.zeros([1, *shape[1:]], dtype=bool)
    found = []
    for lo in range(0, shape[0], rows):
        hi = min(lo + rows, shape[0])
        axes = np.ix_(np.arange(lo, hi), *(np.arange(n) for n in shape[1:]))
        mem = np.ones([hi - lo, *shape[1:]], dtype=bool)
        for a, c in zip(A.tolist(), b.tolist()):
            mem &= sum(ai * x for ai, x in zip(a, axes) if ai) >= c
        gen = mem.copy()
        gen[:1] &= ~before
        for ax in range(d):
            below = (slice(None),) * ax + (slice(None, -1),)
            above = (slice(None),) * ax + (slice(1, None),)
            gen[above] &= ~mem[below]
        before = mem[-1:]
        pts = np.argwhere(gen)
        pts[:, 0] += lo
        found.append(pts)
    return ideal_from_array(d, np.concatenate(found))
