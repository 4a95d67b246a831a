"""Shared fixtures and independent oracles.

The oracles here deliberately share no code with the package internals:
height fields cell by cell and colengths as their sums, products by
definition, Pareto filtering by quadratic scan, Newton-polyhedron
membership by Fourier-Motzkin elimination over Python integers.  Fast paths are trusted only where they
agree with these.
"""

from __future__ import annotations

import random
from itertools import product as iter_product
from math import gcd
from operator import le

import numpy as np
import pytest

from multlab import MonomialIdeal, closure, harness, ideal, lengths, multiplicity


def oracle_minimalize(gens) -> tuple:
    pts = set(map(tuple, gens))
    return tuple(
        sorted(
            p
            for p in pts
            if not any(q != p and all(map(le, q, p)) for q in pts)
        )
    )


def oracle_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    sums = [tuple(x + y for x, y in zip(g, h)) for g in a.gens for h in b.gens]
    return MonomialIdeal(a.dim, oracle_minimalize(sums))


def oracle_power(a: MonomialIdeal, n: int) -> MonomialIdeal:
    from multlab import unit_ideal

    out = unit_ideal(a.dim)
    for _ in range(n):
        out = oracle_product(out, a)
    return out


def oracle_colength(I: MonomialIdeal) -> int:
    """Count standard monomials as the `oracle_field` heights over the box of pure-power bounds.

    Over each cell of the box with its longest side removed, the standard
    monomials above that cell are those below the least generator height
    there, and the pure power on the longest side caps that height.
    """
    d = I.dim
    bounds = []
    for i in range(d):
        pure = [g[i] for g in I.gens if all(g[j] == 0 for j in range(d) if j != i)]
        assert pure, f"not m-primary along axis {i}"
        bounds.append(min(pure))
    axis = max(range(d), key=bounds.__getitem__)
    return int(oracle_field(I.gens, bounds, axis).sum())


def oracle_field(gens, box, axis: int) -> np.ndarray:
    """Height field of the rows of `gens` along `axis`, cell by cell.

    Over each cell x' of the box with `axis` removed, the least g_c over the
    rows with g' <= x', capped at the top box[axis]; an object array of
    Python ints, 0-d when d = 1.
    """
    rest = [i for i in range(len(box)) if i != axis]
    gens = [[int(e) for e in g] for g in gens]
    cells = iter_product(*(range(box[i]) for i in rest))
    heights = [
        min([g[axis] for g in gens if all(g[i] <= x for i, x in zip(rest, cell))] + [box[axis]])
        for cell in cells
    ]
    return np.array(heights, dtype=object).reshape([box[i] for i in rest])


def _fm_keep(system: dict, row, origin: frozenset) -> None:
    """Add a row to `system` with the set of original rows it combines.

    Rows equal up to a positive factor share one entry, which keeps each
    origin set that holds no other.  A set that holds another is dropped:
    every row its descendants give, the smaller set's descendants give too,
    from no more original rows.
    """
    scale = gcd(*row) or 1
    origins = system.setdefault(tuple(a // scale for a in row), [])
    if not any(o <= origin for o in origins):
        origins[:] = [o for o in origins if not origin <= o] + [origin]


def _fm_eliminate(rows: list[list[int]]) -> bool:
    """Fourier-Motzkin feasibility of rows a_1 x_1 + ... + a_k x_k <= b.

    Each row is [a_1, ..., a_k, b] in integers; rows combine with integer
    factors, so the arithmetic stays exact.  Eliminates variables left to
    right; feasible iff no contradictory constant row 0 <= b with b < 0
    remains.  Each row carries the set of original rows it combines, and by
    Chernikov's rule a combination of more than k + 1 of them after k
    eliminations is implied by the other rows, so it is dropped.
    """
    system: dict = {}
    for i, r in enumerate(rows):
        _fm_keep(system, r, frozenset([i]))
    nvars = len(rows[0]) - 1
    for k in range(1, nvars + 1):
        pos, neg, new_system = [], [], {}
        for r, origins in system.items():
            for origin in origins:
                if r[0] > 0:
                    pos.append((r, origin))
                elif r[0] < 0:
                    neg.append((r, origin))
                else:
                    _fm_keep(new_system, r[1:], origin)
        for p, p_origin in pos:
            for q, q_origin in neg:
                origin = p_origin | q_origin
                if len(origin) <= k + 1:
                    combo = [-q[0] * a + p[0] * b for a, b in zip(p[1:], q[1:])]
                    _fm_keep(new_system, combo, origin)
        system = new_system
        if not system:
            return True
    return all(r[-1] >= 0 for r in system)


def oracle_newton_member(I: MonomialIdeal, v) -> bool:
    """Is v >= some convex combination of the generators?  (FM elimination)

    Variables: lam_1..lam_g.  Constraints: lam_j >= 0, sum lam = 1 (as two
    inequalities), sum lam_j g_j[i] <= v_i.
    """
    g = len(I.gens)
    rows = []
    for j in range(g):  # -lam_j <= 0
        row = [0] * (g + 1)
        row[j] = -1
        rows.append(row)
    rows.append([1] * g + [1])  # sum lam <= 1
    rows.append([-1] * g + [-1])  # -sum lam <= -1
    for i in range(I.dim):
        rows.append([I.gens[j][i] for j in range(g)] + [int(v[i])])
    return _fm_eliminate(rows)


def random_mprimary(rng: random.Random, dim: int, max_power: int = 3,
                    extras: int = 2, mixed: bool = False) -> MonomialIdeal:
    """Small random m-primary ideal for oracle comparisons.

    By default an extra generator with a zero coordinate is a smaller pure
    power and one on an axis of power 1 is absorbed, so most draws are
    generated by pure powers alone.  With `mixed` every pure power is at
    least 2 and each of the `extras` generators has two or more nonzero
    exponents, each below its axis' power, so in d >= 2 at least one mixed
    generator is minimal.
    """
    if mixed:
        powers = [rng.randint(2, max_power) for _ in range(dim)]
        gens = [tuple(k * (i == j) for j in range(dim)) for i, k in enumerate(powers)]
        while dim > 1 and len(gens) < dim + extras:
            v = tuple(rng.randrange(k) for k in powers)
            if sum(map(bool, v)) > 1:
                gens.append(v)
        return ideal(gens, dim=dim)
    powers = [rng.randint(1, max_power) for _ in range(dim)]
    gens = [
        tuple(k if i == j else 0 for j in range(dim))
        for i, k in enumerate(powers)
    ]
    if any(k > 1 for k in powers):
        for _ in range(extras):
            v = tuple(rng.randrange(0, k) for k in powers)
            if any(v):
                gens.append(v)
    return ideal(gens, dim=dim)


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty colength, Newton-value, facet-row and draw memos.

    Otherwise a memo warmed by an earlier test hides the work a test counts.
    """
    lengths.colength.cache_clear()
    multiplicity._newton_value.cache_clear()
    closure._facet_rows.cache_clear()
    harness._interned.cache_clear()
