"""Shared fixtures and independent oracles.

The oracles here deliberately share no code with the package internals:
colengths by exhaustive box walks, products by definition, Pareto filtering
by quadratic scan, Newton-polyhedron membership by Fourier-Motzkin
elimination over exact rationals.  Fast paths are trusted only where they
agree with these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from multlab import MonomialIdeal, ideal, lengths, multiplicity


def oracle_minimalize(gens) -> tuple:
    pts = set(map(tuple, gens))
    return tuple(
        sorted(
            p
            for p in pts
            if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)
        )
    )


def oracle_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    sums = [tuple(x + y for x, y in zip(g, h)) for g in a.gens for h in b.gens]
    return ideal(sums, dim=a.dim)


def oracle_power(a: MonomialIdeal, n: int) -> MonomialIdeal:
    from multlab import unit_ideal

    out = unit_ideal(a.dim)
    for _ in range(n):
        out = oracle_product(out, a)
    return out


def oracle_colength(I: MonomialIdeal) -> int:
    """Count standard monomials by walking the box of pure-power bounds."""
    d = I.dim
    bounds = []
    for i in range(d):
        pure = [g[i] for g in I.gens if all(g[j] == 0 for j in range(d) if j != i)]
        assert pure, f"not m-primary along axis {i}"
        bounds.append(min(pure))
    count = 0
    for v in iter_product(*(range(b) for b in bounds)):
        if not any(all(g[j] <= v[j] for j in range(d)) for g in I.gens):
            count += 1
    return count


def _fm_eliminate(rows: list[list[Fraction]]) -> bool:
    """Fourier-Motzkin feasibility of rows a_1 x_1 + ... + a_k x_k <= b.

    Each row is [a_1, ..., a_k, b].  Eliminates variables left to right;
    feasible iff no contradictory constant row 0 <= b with b < 0 remains.
    """
    rows = [list(r) for r in rows]
    nvars = len(rows[0]) - 1
    for _ in range(nvars):
        pos, neg, zero = [], [], []
        for r in rows:
            if r[0] > 0:
                pos.append(r)
            elif r[0] < 0:
                neg.append(r)
            else:
                zero.append(r[1:])
        new_rows = list(zero)
        for p in pos:
            for q in neg:
                scale_p, scale_q = -q[0], p[0]
                combo = [
                    scale_p * a + scale_q * b for a, b in zip(p[1:], q[1:])
                ]
                new_rows.append(combo)
        rows = new_rows
        if not rows:
            return True
    return all(r[-1] >= 0 for r in rows)


def oracle_newton_member(I: MonomialIdeal, v) -> bool:
    """Is v >= some convex combination of the generators?  (FM elimination)

    Variables: lam_1..lam_g.  Constraints: lam_j >= 0, sum lam = 1 (as two
    inequalities), sum lam_j g_j[i] <= v_i.
    """
    g = len(I.gens)
    rows = []
    for j in range(g):  # -lam_j <= 0
        row = [Fraction(0)] * (g + 1)
        row[j] = Fraction(-1)
        rows.append(row)
    rows.append([Fraction(1)] * g + [Fraction(1)])  # sum lam <= 1
    rows.append([Fraction(-1)] * g + [Fraction(-1)])  # -sum lam <= -1
    for i in range(I.dim):
        rows.append([Fraction(I.gens[j][i]) for j in range(g)] + [Fraction(v[i])])
    return _fm_eliminate(rows)


def random_mprimary(rng: random.Random, dim: int, max_power: int = 3,
                    extras: int = 2) -> MonomialIdeal:
    """Small random m-primary ideal for oracle comparisons."""
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
    """Every test starts with empty samplers, difference tables and colengths.

    Otherwise a memo warmed by an earlier test hides the work a test counts.
    """
    lengths.shared_sampler.cache_clear()
    lengths.colength.cache_clear()
    multiplicity._stabilized.cache_clear()
