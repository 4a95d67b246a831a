"""Newton-polyhedron membership and integral closure by facets, judged by Fourier-Motzkin."""

import random
import tracemalloc
from itertools import product as iter_product
from math import gcd
from operator import le, mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import (
    MonomialIdeal,
    NotMPrimaryError,
    box_bounds,
    colength,
    hilbert_samuel,
    ideal,
    ideal_contains,
    integral_closure,
    m_power,
    mixed_multiplicity,
    newton_polyhedron_member,
    parse_ideal,
    unit_ideal,
)
from multlab import closure, counting, multiplicity
from multlab.monomial import contains

from conftest import (
    oracle_minimalize,
    oracle_newton_member,
    oracle_power,
    oracle_product,
    random_mprimary,
)


class TestMembership:
    def test_known_points(self):
        I = parse_ideal("(x^2, y^2)")
        assert newton_polyhedron_member(I, (1, 1))  # midpoint of (2,0),(0,2)
        assert not newton_polyhedron_member(I, (1, 0))
        assert newton_polyhedron_member(I, (2, 0))
        assert newton_polyhedron_member(I, (3, 5))

    def test_members_of_ideal_are_members(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        for g in I.gens:
            assert newton_polyhedron_member(I, g)

    def test_matches_fourier_motzkin_oracle(self, rng):
        for _ in range(15):
            d = rng.randint(2, 3)
            I = random_mprimary(rng, d, max_power=4, extras=3)
            for _ in range(12):
                v = tuple(rng.randrange(0, 5) for _ in range(d))
                assert newton_polyhedron_member(I, v) == oracle_newton_member(I, v)

    def test_ideals_that_are_not_m_primary(self, rng):
        # no pure power of the last variable, so Newt(I) is unbounded along
        # it; in d = 1 only the unit ideal is left.  The points are rounded-up
        # midpoints of two generators, in the closure, with one coordinate
        # maybe lowered by one, which may take them out
        for d in (1, 2, 3, 4):
            for _ in range(10):
                gens = [tuple(rng.randrange(6) for _ in range(d)) for _ in range(rng.randint(2, 6))]
                I = ideal([g for g in gens if any(g[:-1])] or [(0,) * d], dim=d)
                if d > 1:
                    with pytest.raises(NotMPrimaryError):
                        box_bounds(I)
                for _ in range(12):
                    g, h = rng.choice(I.gens), rng.choice(I.gens)
                    v = [(a + b + 1) // 2 for a, b in zip(g, h)]
                    i = rng.randrange(d)
                    v[i] = max(0, v[i] - rng.randrange(2))
                    assert newton_polyhedron_member(I, v) == oracle_newton_member(I, v), (I, v)

    def test_exponents_near_the_maximum(self, rng):
        # facet values pass 2**63, so the rows must stay Python ints; on the
        # plane v_3 = v_4 = 0 only x^N0 and y^N1 count, so there membership
        # is v_1 * N1 + v_2 * N0 >= N0 * N1 exactly
        N = [2**31 - 1, 2**31 - 2, 2**31 - 3, 2**31 - 5]
        gens = [tuple(n * (i == j) for j in range(4)) for i, n in enumerate(N)]
        I = ideal(gens + [(2**28, 2**28, 2**28, 2**28), (2**30, 0, 3, 2**29)], dim=4)
        A, (b,) = closure._newton_facets([I.gens])
        assert max(b) >= 2**63 and len(A) > 4
        for _ in range(20):
            v1 = rng.randrange(1, N[0])
            v2 = -(-(N[0] - v1) * N[1] // N[0])  # the least v2 on Newt(I)
            for v in ((v1, v2, 0, 0), (v1, v2 - 1, 0, 0)):
                expected = v[0] * N[1] + v[1] * N[0] >= N[0] * N[1]
                assert newton_polyhedron_member(I, v) == expected == oracle_newton_member(I, v), v
            v = tuple(rng.randrange(n // 2) for n in N)
            assert newton_polyhedron_member(I, v) == oracle_newton_member(I, v), v

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            newton_polyhedron_member(m_power(2, 2), (1, 1, 1))

    def test_coordinates_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            newton_polyhedron_member(parse_ideal("(x^2, y^2)"), (3, -1))

    def test_coordinates_must_be_integers(self):
        I = parse_ideal("(x^2, y^2)")
        for point in ((1.9, 0.0), (2.0, 0), (1, "1"), (1, None)):
            with pytest.raises(ValueError):
                newton_polyhedron_member(I, point)
        assert newton_polyhedron_member(I, np.array([1, 1]))
        assert newton_polyhedron_member(I, (np.int16(1), np.uint8(1)))
        assert not newton_polyhedron_member(I, (np.int64(1), 0))


class TestClosure:
    def test_frozen_examples(self):
        assert integral_closure(parse_ideal("(x^2, y^2)")) == m_power(2, 2)
        I = parse_ideal("(x^2, x*y, y^3)")
        assert integral_closure(I) == I  # already integrally closed

    def test_three_dim_power_gap(self):
        # (x^3, y^3, z^3) picks up all degree-3 monomials except x*y*z...
        I = parse_ideal("(x^3, y^3, z^3)")
        closed = integral_closure(I)
        assert newton_polyhedron_member(I, (1, 1, 1))
        assert closed == m_power(3, 3)

    def test_extensive_idempotent_monotone(self, rng):
        for _ in range(8):
            d = rng.randint(2, 3)
            I = random_mprimary(rng, d, max_power=3, extras=2)
            closed = integral_closure(I)
            assert ideal_contains(closed, I)  # extensive
            assert integral_closure(closed) == closed  # idempotent
            assert colength(closed) <= colength(I)

    def test_closure_preserves_box(self, rng):
        for _ in range(8):
            I = random_mprimary(rng, 2, max_power=4, extras=3)
            assert box_bounds(integral_closure(I)) == box_bounds(I)

    def test_m_powers_are_closed(self):
        for d in (2, 3):
            for k in (1, 2, 3):
                assert integral_closure(m_power(d, k)) == m_power(d, k)

    def test_large_pure_power_box(self):
        # a field of 21^3 = 9261 cells over three sides, each against the single facet
        assert integral_closure(parse_ideal("(x^20, y^20, z^20, w^20)")) == m_power(4, 20)

    def test_requires_m_primary(self):
        # refused by name, not through box_bounds: R's box is (0, ..., 0) and
        # its colength 0, so no message may call a colength infinite
        for I in (parse_ideal("(x^2, x*y)"), unit_ideal(1), unit_ideal(2), unit_ideal(4)):
            with pytest.raises(NotMPrimaryError, match="m-primary") as caught:
                integral_closure(I)
            assert "infinite" not in str(caught.value)

    def test_int64_overflow_is_a_value_error(self, monkeypatch):
        # 4! * 100000^4 > 2^63: refused before the box or the facets are built
        monkeypatch.setattr(closure, "_newton_facets", None)
        with pytest.raises(ValueError, match="int64"):
            integral_closure(parse_ideal("(x^100000, y^100000, z^100000, w^100000)"))


def _box_scan(I, member):
    """The closure by definition: every point of the box that `member` accepts."""
    box = (range(b + 1) for b in box_bounds(I))
    return MonomialIdeal(I.dim, oracle_minimalize(v for v in iter_product(*box) if member(I, v)))


def _cross_check_ideals(rng):
    ideals = [
        parse_ideal("(x^7)"),
        parse_ideal("(x^3, y^5, z^2)"),  # pure powers only
        parse_ideal("(x, y^4, z^3)"),  # a linear generator
        parse_ideal("(x^4, x*y^2, x*z^2, y^4, z^4)"),  # projections onto x repeat
        parse_ideal("(x^3, x^2*y, x*y^2*w, y^3, y*z, z^2, w^2)"),
        # eight generators: plain Fourier-Motzkin took minutes over its box
        parse_ideal("(x^4, x^3*y^2, x^2*y*w, y^4, y*z, z^2, z*w, w^4)"),
    ]
    for d in (1, 2, 3, 4):
        for _ in range(10):
            extras = rng.randint(0, 6)
            ideals.append(random_mprimary(rng, d, max_power=5 if d < 4 else 4, extras=extras))
    return ideals


def test_facet_rows_are_primitive_tight_supporting_inequalities(rng):
    for I in _cross_check_ideals(rng):
        A, (b,) = closure._newton_facets([I.gens])
        gens = np.array(I.gens)
        A, b = np.array(A), np.array(b)
        assert len(A) == len(b) >= 1, I
        assert (A >= 0).all() and (b > 0).all(), I
        assert (np.gcd.reduce(np.c_[A, b], axis=1) == 1).all(), I
        values = gens @ A.T
        assert (values >= b).all(), I
        assert (values == b).any(axis=0).all(), I


def test_minkowski_sum_facets_are_the_product_facets(rng):
    # one hull on the Cayley cone of 1-4 blocks against the one-block hull of
    # the product ideal, built by definition: Newt(J_1 ... J_s) is the sum of
    # the Newt(J_j), so the normals agree and the product's b splits into
    # the blocks' minima; every normal is primitive (`check_int64` needs it)
    # and every minimum is attained on its block
    for d, s, _ in iter_product((2, 3, 4, 5), (1, 2, 3, 4), range(3)):
        Js = [random_mprimary(rng, d, max_power=6 if d < 4 else 4, extras=4, mixed=True) for _ in range(s)]
        assert all(any(sum(map(bool, g)) > 1 for g in J.gens) for J in Js)
        A, mins = closure._newton_facets([J.gens for J in Js])
        P = Js[0]
        for J in Js[1:]:
            P = oracle_product(P, J)
        want_A, (want_b,) = closure._newton_facets([P.gens])
        assert len(mins) == s and all(len(m) == len(A) for m in mins)
        assert sorted(zip(A, map(sum, zip(*mins)))) == sorted(zip(want_A, want_b)), Js
        for a, m in zip(A, zip(*mins)):
            assert gcd(*a) == 1, (Js, a)
            assert m == tuple(min(sum(map(mul, a, g)) for g in J.gens) for J in Js), (Js, a)
        if d <= 3 and s <= 2:  # Fourier-Motzkin shares no hull with either side
            box = [sum(B) for B in zip(*map(box_bounds, Js))]
            for _ in range(15):
                v = tuple(rng.randrange(n + 1) for n in box)
                inside = all(sum(map(mul, a, v)) >= sum(m) for a, m in zip(A, zip(*mins)))
                assert inside == oracle_newton_member(P, v), (Js, v)


def test_many_generators_few_facets():
    # lattice points of a ball of radius 10 about (10, 10, 10, 10), with x_i^30:
    # the facets are found one generator at a time, not over subsets of them
    pts = [v for v in iter_product(range(11), repeat=4) if sum((10 - e) ** 2 for e in v) <= 100]
    I = ideal(pts + [tuple(30 * (i == j) for j in range(4)) for i in range(4)], dim=4)
    assert len(I.gens) == 235
    A, _ = closure._newton_facets([I.gens])
    assert len(A) == 118
    closed = integral_closure(I)
    rng = random.Random(235)
    for _ in range(200):
        v = tuple(rng.randrange(31) for _ in range(4))
        assert contains(closed, v) == newton_polyhedron_member(I, v), v


def test_facet_scan_matches_both_exact_oracles(rng):
    # the per-point route reads the same facets as the scan, so
    # Fourier-Motzkin, which shares nothing with them, judges every ideal
    for I in _cross_check_ideals(rng):
        closed, want = integral_closure(I), _box_scan(I, oracle_newton_member)
        assert closed == _box_scan(I, newton_polyhedron_member), I
        assert closed == want and hash(closed) == hash(want), I


@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_height_axis_gives_the_same_closure(d, rng):
    # the field stands on the longest side of the box: put that side on each
    # axis in turn, alone and tied with the others, so every choice of
    # height axis runs, and Fourier-Motzkin judges every closure
    short, long = (3, 5) if d < 4 else (3, 4)
    shapes = [tuple(long if i == k else short for i in range(d)) for k in range(d)]
    shapes += [tuple(short if i == k else long for i in range(d)) for k in range(d)]
    assert {counting.height_axis(bounds) for bounds in shapes} == set(range(d))
    for bounds in shapes:
        extras = [tuple(rng.randrange(b) for b in bounds) for _ in range(4 if d < 4 else 6)]
        gens = [g for g in extras if sum(map(bool, g)) > 1]  # no new pure power
        gens += [tuple(b * (i == j) for j in range(d)) for i, b in enumerate(bounds)]
        I = ideal(gens, dim=d)
        assert box_bounds(I) == bounds
        assert integral_closure(I) == _box_scan(I, oracle_newton_member), I


def test_long_axis_closure_stays_small():
    # the field lies over the three short sides, 4^3 cells, however long the
    # fourth; Newt(I) has the one facet (a + b + c) / 3 + v_w / N >= 1
    N = 100000
    tracemalloc.start()
    try:
        closed = integral_closure(parse_ideal(f"(x^3, y^3, z^3, w^{N})"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = [(a, b, c, max(0, -(-N * (3 - a - b - c) // 3)))
                for a, b, c in iter_product(range(4), repeat=3)]
    assert closed == ideal(expected, dim=4)
    assert len(closed.gens) == 20
    assert peak < 2**20, peak


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
def test_closure_of_diagonal_ideals(a, b):
    # (x^a, y^b) closes to all v with v1/a + v2/b >= 1
    I = parse_ideal(f"(x^{a}, y^{b})")
    closed = integral_closure(I)
    expected = [
        (v1, v2)
        for v1 in range(a + 1)
        for v2 in range(b + 1)
        if v1 * b + v2 * a >= a * b
    ]
    assert closed == ideal(expected, dim=2)


def test_multiplicity_invariant_under_closure(rng):
    # e(I) depends only on the integral closure
    for _ in range(6):
        I = random_mprimary(rng, 2, max_power=4, extras=2)
        assert hilbert_samuel(integral_closure(I)) == hilbert_samuel(I)


def _fm_blocks(rng, d):
    """An m-primary ideal with pure powers 2-4 and up to two mixed generators."""
    powers = [rng.randint(2, 4) for _ in range(d)]
    extras = [tuple(rng.randrange(k) for k in powers) for _ in range(2)]
    gens = [g for g in extras if sum(map(bool, g)) > 1]
    return ideal(gens + [tuple(k * (i == j) for j in range(d)) for i, k in enumerate(powers)], dim=d)


def _fm_colength(Js, t):
    """L(t) by definition: the product, and every point of its box judged by Fourier-Motzkin."""
    P = unit_ideal(Js[0].dim)
    for J, k in zip(Js, t):
        P = oracle_product(P, oracle_power(J, k))
    box = [min(g[i] for g in P.gens if sum(g) == g[i]) for i in range(P.dim)]
    return sum(
        not any(all(map(le, g, v)) for g in P.gens) and not oracle_newton_member(P, v)
        for v in iter_product(*map(range, box))
    )


def test_single_closure_colengths_match_fourier_motzkin(rng):
    # L(t) = lambda(R / closure of prod J_j^(t_j)) alone, not inside a
    # multiplicity: the product by definition, and every point of its
    # pure-power box judged by Fourier-Motzkin, which shares no hull,
    # Minkowski sum or field with `colength_sum`
    cases = 0
    for d, s in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        Js = [_fm_blocks(rng, d) for _ in range(s)]
        for t in rng.sample([t for t in iter_product(range(3), repeat=s) if any(t)], min(3, 3**s - 1)):
            assert closure.colength_sum(Js, [(t, 1)]) == _fm_colength(Js, t), (Js, t)
            cases += 1
    assert cases == 13
    assert closure.colength_sum(Js, [((0, 0), 1)]) == 0


def test_tiny_tiles_give_the_same_sums_and_closures(monkeypatch, rng):
    # a tile of a few facet-cells splits every field into many tiles, and a
    # box smaller than the largest of its call ends inside one; the sums are
    # judged by Fourier-Motzkin, one term and all terms of a call at once,
    # the closures by the box scan, and a d = 5 multiplicity by itself at
    # the default tile size
    I5 = parse_ideal("(x1^2, x2^3, x3^2, x4^2, x5^2, x1*x2*x3, x2*x4*x5)")
    d5 = lambda: mixed_multiplicity([I5, m_power(5, 1)], (2, 3))
    d5_default = d5()
    sums = []
    for d, s in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        Js = [_fm_blocks(rng, d) for _ in range(s)]
        ts = rng.sample([t for t in iter_product(range(3), repeat=s) if any(t)], min(3, 3**s - 1))
        sums.append((Js, ts, [_fm_colength(Js, t) for t in ts]))
    steep = 0  # calls with a facet of a_c > 1 on the height axis
    for Js, ts, _ in sums:
        top = [max(sum(map(mul, t, side)) for t in ts) for side in zip(*map(box_bounds, Js))]
        A, _ = closure._newton_facets([J.gens for J in Js])
        steep += any(a[counting.height_axis(top)] > 1 for a in A)
    assert steep >= 3
    closures = [(I, _box_scan(I, oracle_newton_member)) for I in _cross_check_ideals(rng)]

    calls = []  # per call, the (origin, shape) of every tile part
    real = closure._tile_heights

    def recorded(*args):
        calls.append([])
        for j, lo, low in real(*args):
            calls[-1].append((lo, low.shape))
            yield j, lo, low

    monkeypatch.setattr(closure, "_tile_heights", recorded)
    for tile in (1, 7, 40):
        monkeypatch.setattr(closure, "TILE_CELLS", tile)
        for Js, ts, want in sums:
            for t, w in zip(ts, want):
                assert closure.colength_sum(Js, [(t, 1)]) == w, (tile, Js, t)
            coeffs = [rng.randint(-3, 3) for _ in ts]
            total = sum(map(mul, coeffs, want))
            assert closure.colength_sum(Js, list(zip(ts, coeffs))) == total, (tile, Js)
        for I, C in closures:
            assert integral_closure(I) == C, (tile, I)
    assert any(len({lo for lo, _ in parts}) > 10 for parts in calls)
    shapes = [{shape for lo, shape in parts if lo == at} for parts in calls for at, _ in parts]
    assert any(len(kinds) > 1 for kinds in shapes)  # boxes of one call that end apart in one tile
    monkeypatch.setattr(closure, "TILE_CELLS", 7)
    multiplicity._newton_value.cache_clear()
    calls.clear()
    assert d5() == d5_default
    assert len(calls) == 1 and len(calls[0]) > 1000
