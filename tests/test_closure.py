"""Newton-polyhedron membership and integral closure by facets, judged by Fourier-Motzkin."""

import random
import tracemalloc
from functools import reduce
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
    br_via_mixed,
    colength,
    hilbert_samuel,
    ideal,
    ideal_contains,
    integral_closure,
    m_power,
    mixed_difference_table,
    mixed_multiplicity,
    module,
    newton_polyhedron_member,
    parse_ideal,
    unit_ideal,
)
from multlab import closure, counting, multiplicity
from multlab.monomial import _built, compositions, contains, product

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
        for k in range(23):  # the last eight with mixed generators, not only pure powers
            d = rng.randint(2, 3)
            I = random_mprimary(rng, d, max_power=4, extras=3, mixed=k >= 15)
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
        A, (b,) = closure._newton_facets([I])
        assert max(b) >= 2**63 and len(A) > 4
        for _ in range(20):
            v1 = rng.randrange(1, N[0])
            v2 = -(-(N[0] - v1) * N[1] // N[0])  # the least v2 on Newt(I)
            for v in ((v1, v2, 0, 0), (v1, v2 - 1, 0, 0)):
                expected = v[0] * N[1] + v[1] * N[0] >= N[0] * N[1]
                assert newton_polyhedron_member(I, v) == expected == oracle_newton_member(I, v), v
            v = tuple(rng.randrange(n // 2) for n in N)
            assert newton_polyhedron_member(I, v) == oracle_newton_member(I, v), v

    def test_facets_are_found_once_per_ideal(self, monkeypatch):
        # the facet rows of an ideal are memoized, so 200 points of one
        # ideal find them once, and a second ideal finds its own
        calls = []
        real = closure._newton_facets
        monkeypatch.setattr(closure, "_newton_facets", lambda blocks: calls.append(blocks) or real(blocks))
        I = parse_ideal("(x^4, x^2*y, y^3*z, z^5, x*y*z)")
        rng = random.Random(200)
        for _ in range(200):
            v = tuple(rng.randrange(6) for _ in range(3))
            assert newton_polyhedron_member(I, v) == oracle_newton_member(I, v), v
        assert calls == [[I]]
        assert newton_polyhedron_member(m_power(3, 2), (1, 1, 0))
        assert len(calls) == 2

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
        for k in range(13):  # the last three with mixed generators, not only pure powers
            extras = rng.randint(0, 6)
            ideals.append(random_mprimary(rng, d, max_power=5 if d < 4 else 4, extras=extras, mixed=k >= 10))
    return ideals


def test_facet_rows_are_primitive_tight_supporting_inequalities(rng):
    for I in _cross_check_ideals(rng):
        A, (b,) = closure._newton_facets([I])
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
        A, mins = closure._newton_facets(Js)
        P = Js[0]
        for J in Js[1:]:
            P = oracle_product(P, J)
        want_A, (want_b,) = closure._newton_facets([P])
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


def _simplex_blocks(rng, d, s):
    """s ideals in d variables, most with generators below their pure-power simplex, and the count of those generators.

    A generator v below it has sum v_i / k_i < 1 for the pure powers k_i,
    so it is not in the simplex's Newton polyhedron and still cuts a hull
    started from it.  Some ideals miss a pure power, and a few are the
    unit ideal.
    """
    blocks, below = [], 0
    for _ in range(s):
        powers = [rng.randint(2, 5) for _ in range(d)]
        rows = [tuple(k * (i == j) for j in range(d)) for i, k in enumerate(powers)]
        for _ in range(4 * d):
            v = tuple(rng.randrange(k) for k in powers)
            if sum(map(bool, v)) > 1 and sum(e / k for e, k in zip(v, powers)) < 1:
                rows.append(v)
        kind = rng.randrange(3)
        if kind == 0:
            rows.pop(rng.randrange(d))
        elif kind == 1 and rng.random() < 0.3:
            rows = [(0,) * d]
        J = ideal(rows, dim=d)
        below += sum(sum(map(bool, g)) > 1 for g in J.gens)
        blocks.append(J)
    return blocks, below


def test_hulls_started_from_the_pure_power_simplex(rng):
    # the double description starts from the simplex of a block's pure
    # powers and drops the generators inside it; those below it still cut.
    # In d <= 3 Fourier-Motzkin on the product ideal judges points of the
    # sum, and in d = 4-5 the Cayley hull must equal the one-block hull of
    # the product, which starts from the product's own simplex, or from its
    # first generator when a block misses a pure power
    below = 0
    for d, s, _ in iter_product((2, 3, 4, 5), (1, 2, 3, 4), range(3)):
        blocks, n = _simplex_blocks(rng, d, s)
        below += n
        A, mins = closure._newton_facets(blocks)
        P = blocks[0]
        for J in blocks[1:]:
            P = oracle_product(P, J)
        if d <= 3:
            box = [max(g[i] for g in P.gens) + 1 for i in range(d)]
            for _ in range(10):
                v = tuple(rng.randrange(n) for n in box)
                inside = all(sum(map(mul, a, v)) >= sum(m) for a, m in zip(A, zip(*mins)))
                assert inside == oracle_newton_member(P, v), (blocks, v)
        else:
            want_A, (want_b,) = closure._newton_facets([P])
            assert sorted(zip(A, map(sum, zip(*mins)))) == sorted(zip(want_A, want_b)), blocks
    assert below >= 150


def _staircase():
    """The 1 001-generator staircase (i, (1000 - i)^2 // 100 + 1000 - i): 161 facets, e = 7 665 400."""
    return ideal([(i, (1000 - i) ** 2 // 100 + 1000 - i) for i in range(1001)], dim=2)


def _lower_chain(points):
    """The vertices of the lower convex chain of the plane Newton polygon spanned by `points`, by gift wrapping.

    From the lowest point of least x, each step goes to the point down and
    to the right that the steepest line from the last vertex reaches, so
    it shares nothing with the library's monotone chain.
    """
    chain = [min(points)]
    while below := [(u, v) for u, v in points if u > chain[-1][0] and v < chain[-1][1]]:
        (x, y), (u, v) = chain[-1], below[0]
        for p, q in below:
            if (q - y) * (u - x) < (v - y) * (p - x):  # steeper: a lesser slope
                u, v = p, q
        chain.append((u, v))
    return chain


def _area_value(I, J):
    """e(I, J) in the plane by areas: e(K) is twice the area below Newt(K), and e(I, J) = (e(IJ) - e(I) - e(J)) / 2.

    Twice that area is the sum over the edges (x, y) -> (u, v) of K's lower
    chain of u y - x v, and IJ comes from `monomial.product`; e(J, J) =
    e(J) needs no product.
    """
    def e(K):
        chain = _lower_chain(K.gens)
        return sum(u * y - x * v for (x, y), (u, v) in zip(chain, chain[1:]))

    return e(I) if I == J else (e(product(I, J)) - e(I) - e(J)) // 2


def test_plane_values_from_the_edge_chains(rng):
    # in the plane `facet_sum` reads e(J_i, J_j) off the blocks' edge chains
    # with no hull; the area oracle judges every composition of 2, alone and
    # all with random weights, on 1-4 blocks with mixed generators, on
    # exponents near 2**31 - 1 (a product of the two halves, of exponents
    # near 2**30, reaches 2**31 - 2) and on the 1 001-generator staircase.
    # Where the box is small the closure sums on the one hull and the table
    # engine, which builds products, must give the same
    N, H = 2**31 - 1, 2**30 - 1
    near = ideal([(N, 0), (N - 2, 1), (N // 2, N // 3), (1, N - 1), (0, N)])
    halves = [ideal([(H, 0), (H - 2, 1), (H // 2, H // 3), (1, H - 1), (0, H)]),
              ideal([(H - 1, 0), (H // 3, 5), (2, H // 2), (0, H)])]
    stair = _staircase()
    cases = [[random_mprimary(rng, 2, max_power=rng.randint(2, 9), extras=rng.randint(0, 5), mixed=True)
              for _ in range(s)] for s in (1, 2, 3, 4) for _ in range(25)]
    cases += [[near], halves, [stair], [stair, halves[1]]]
    tables = 0
    for blocks in cases:
        values = {a: _area_value(*(blocks[k] for k, n in enumerate(a) for _ in range(n)))
                  for a in compositions(2, len(blocks))}
        for a, want in values.items():
            assert closure.facet_sum(blocks, [(a, 1)]) == want == mixed_multiplicity(blocks, a), (blocks, a)
        weights = [(a, rng.randint(-3, 3)) for a in values]
        total = sum(w * values[a] for a, w in weights)
        assert closure.facet_sum(blocks, weights) == total, blocks
        if max(map(max, map(box_bounds, blocks))) <= 9:
            assert closure.colength_sum(blocks, closure._merged_terms(weights).items()) == total, blocks
            a = rng.choice(list(values))
            assert mixed_difference_table(blocks, a).result == values[a], (blocks, a)
            tables += 1
    assert tables == 100
    assert hilbert_samuel(stair) == 7665400


def test_plane_hulls_by_the_double_description(rng):
    # plane integral closures, membership and closure sums take the one hull
    # algorithm, the double description: on principal ideals, the unit
    # ideal, ideals of random rows, which may miss a pure power, and rows
    # near 2**31 - 1, of 1-4 blocks, each row is a primitive normal a >= 0
    # with a positive right-hand side, and each block's minimum is reached
    # on it.  Points of a sum of at most two blocks agree with
    # Fourier-Motzkin on the product, a sum of more has the facets of the
    # one-block hull of the product, and one block's membership and
    # closure agree with Fourier-Motzkin and the box scan
    N = 2**31 - 1
    near = ideal([(N, 0), (N - 2, 1), (N // 2, N // 3), (1, N - 1), (0, N)])
    unit, principal = unit_ideal(2), ideal([(3, 5)])
    cases = [[ideal([tuple(rng.randrange(7) for _ in range(2)) for _ in range(rng.randint(1, 6))])
              for _ in range(s)] for s in (1, 2, 3, 4) for _ in range(25)]
    specials = [[principal], [ideal([(0, 4)])], [ideal([(4, 0)])], [unit], [unit, unit], [unit, principal],
                [ideal([(2, 3), (5, 1)]), principal], [near], [near, ideal([(N - 1, N)]), principal]]
    hulls = [(blocks, *closure._newton_facets(blocks)) for blocks in cases + specials]
    for blocks, A, mins in hulls:
        for a, m in zip(A, zip(*mins)):
            assert min(a) >= 0 and gcd(*a) == 1 and sum(m) > 0, (blocks, a)
            assert m == tuple(min(sum(map(mul, a, g)) for g in J.gens) for J in blocks), (blocks, a)
    for blocks, A, mins in hulls[:len(cases)]:
        P = reduce(oracle_product, blocks)
        if len(blocks) > 2:
            want_A, (want_b,) = closure._newton_facets([P])
            assert sorted(zip(A, map(sum, zip(*mins)))) == sorted(zip(want_A, want_b)), blocks
            continue
        for _ in range(10):
            v = tuple(rng.randrange(7 * len(blocks)) for _ in range(2))
            inside = all(sum(map(mul, a, v)) >= sum(m) for a, m in zip(A, zip(*mins)))
            assert inside == oracle_newton_member(P, v), (blocks, v)
            if len(blocks) == 1:
                assert newton_polyhedron_member(P, v) == inside, (P, v)
        if len(blocks) == 1 and P != unit:  # with pure powers of its own it is m-primary
            Q = ideal(P.gens + ((rng.randint(1, 7), 0), (0, rng.randint(1, 7))))
            assert integral_closure(Q) == _box_scan(Q, oracle_newton_member), Q
    assert closure._newton_facets([unit, unit]) == ([], [[], []])
    assert len(closure._newton_facets([_staircase()])[0]) == 161


def test_plane_values_build_no_hull(monkeypatch):
    # with no hull algorithm at all, plane values still come from the edge
    # chains: e((x^3, x*y, y^4)) is twice the area below its Newton polygon,
    # 7; e(J, m^2) = 2 ord(J) = 4; and br((x^2, x*y, y^3) + (x^3, y^2)) =
    # 5 + 4 + 6.  A plane closure and a membership call each build one hull,
    # and so does a d = 3 value
    multiplicity._newton_value.cache_clear()
    closure._facet_rows.cache_clear()
    real = closure._newton_facets
    monkeypatch.setattr(closure, "_newton_facets", None)
    J, square = parse_ideal("(x^3, x*y, y^4)"), parse_ideal("(x^2, y^2)")
    assert hilbert_samuel(J) == 7
    assert mixed_multiplicity([J, m_power(2, 2)]) == 4
    assert br_via_mixed(module([parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^3, y^2)")])) == 15
    calls = []
    monkeypatch.setattr(closure, "_newton_facets", lambda blocks: calls.append(len(blocks)) or real(blocks))
    assert integral_closure(square) == m_power(2, 2)
    assert calls == [1]
    assert newton_polyhedron_member(square, (1, 1)) and not newton_polyhedron_member(square, (1, 0))
    assert calls == [1, 1]
    assert hilbert_samuel(parse_ideal("(x^2, y^3, z^5)")) == 30
    assert calls == [1, 1, 1]


def _ball():
    """Lattice points of a ball of radius 10 about (10, 10, 10, 10), with x_i^30: 235 generators, 118 facets."""
    pts = [v for v in iter_product(range(11), repeat=4) if sum((10 - e) ** 2 for e in v) <= 100]
    return ideal(pts + [tuple(30 * (i == j) for j in range(4)) for i in range(4)], dim=4)


def test_many_generators_few_facets():
    # the facets are found one generator at a time, not over subsets of them
    I = _ball()
    assert len(I.gens) == 235
    A, _ = closure._newton_facets([I])
    assert len(A) == 118
    closed = integral_closure(I)
    rng = random.Random(235)
    for _ in range(200):
        v = tuple(rng.randrange(31) for _ in range(4))
        assert contains(closed, v) == newton_polyhedron_member(I, v), v


def test_ball_closure_field_stays_in_tiles():
    # the field has 31**3 cells under 118 facets, 27 MiB of int64 facet-cells
    # at once; tiled, about three arrays of one tile are alive at a time
    I = _ball()
    integral_closure(parse_ideal("(x^2, y^2, z^2, w^2)"))  # first-use set-up
    tracemalloc.start()
    try:
        closed = integral_closure(I)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(closed.gens) == 3473
    assert peak < 4 * closure.TILE_CELLS * 8, peak


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


def test_d4_closure_colengths_match_fourier_motzkin(rng):
    # d = 4 is where `mixed_sum` hands its terms to `colength_sum`: one and
    # two blocks, every t with |t| <= 2 alone (the oracle's elimination grows
    # past that), then all of them in one weighted sum, whose parts share
    # the tile pass's batches
    for s in (1, 2):
        Js = [_fm_blocks(rng, 4) for _ in range(s)]
        ts = [t for t in iter_product(range(3), repeat=s) if 0 < sum(t) <= 2]
        want = [_fm_colength(Js, t) for t in ts]
        for t, w in zip(ts, want):
            assert closure.colength_sum(Js, [(t, 1)]) == w, (Js, t)
        coeffs = [rng.randint(-3, 3) for _ in ts]
        assert closure.colength_sum(Js, list(zip(ts, coeffs))) == sum(map(mul, coeffs, want)), Js


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.randoms(use_true_random=False))
def test_facet_route_equals_the_closure_sums(d, s, mixed, rng):
    # the closure colengths are the facet route's oracle: on the same hull,
    # the merged difference terms of the same weighted orders, summed over
    # height fields, must give what the faces give; the d slots are drawn
    # from s ideals, so slots repeat and are merged, and further orders come
    # with random weights
    pool = [random_mprimary(rng, d, max_power=4, extras=rng.randint(0, 4), mixed=mixed) for _ in range(s)]
    _, merged = multiplicity._merged([rng.choice(pool) for _ in range(d)], None)
    ideals, orders = [_built(d, rows) for rows in merged], tuple(merged.values())
    others = compositions(d, len(ideals))
    weights = [(orders, 1)] + [(a, rng.randint(-3, 3)) for a in rng.sample(others, rng.randint(0, len(others)))]
    want = closure.colength_sum(ideals, closure._merged_terms(weights).items())
    assert closure.facet_sum(ideals, weights) == want


def test_facet_route_closed_forms():
    # values the facet route gives with no box, so pure powers of any size
    # are exact: e(m^a, m^b, m^c) = abc; e of three pure powers p is p^3;
    # e((x^q, y^q), J) = q e(m, J) = q ord(J); and br of a sum of two
    # complete intersections in d = 3 is p^3 + 2p^2 + 6p + 30 here
    for a, b, c in iter_product(range(1, 5), repeat=3):
        assert mixed_multiplicity([m_power(3, a), m_power(3, b), m_power(3, c)]) == a * b * c
    p, q = 10**6, 2**31 - 1
    powers = parse_ideal(f"(x^{p}, y^{p}, z^{p})")
    assert hilbert_samuel(powers) == p**3
    assert mixed_multiplicity([parse_ideal(f"(x^{q}, y^{q})"), parse_ideal("(x^3, x*y, y^5)")]) == 2 * q
    E = module([powers, parse_ideal("(x^3, y^2, z^5)")])
    assert br_via_mixed(E) == p**3 + 2 * p**2 + 6 * p + 30


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
        A, _ = closure._newton_facets(Js)
        steep += any(a[counting.height_axis(top)] > 1 for a in A)
    assert steep >= 3
    closures = [(I, _box_scan(I, oracle_newton_member)) for I in _cross_check_ideals(rng)]

    calls = []  # per call, per batch: its tile's origin and the shape of each part
    real = closure._tile_heights

    def recorded(*args):
        calls.append([])
        for lo, parts, sums in real(*args):
            calls[-1].append((lo, [tuple(ends) for _, ends, *_ in parts]))
            yield lo, parts, sums

    fields = []  # per `_tile_sums` call, the origin of every tile
    real_tiles = closure._tile_sums

    def tiled(*args):
        fields.append([])
        for lo, hi, vals in real_tiles(*args):
            fields[-1].append(lo)
            yield lo, hi, vals

    monkeypatch.setattr(closure, "_tile_heights", recorded)
    monkeypatch.setattr(closure, "_tile_sums", tiled)
    closed = []  # the tile origins of every closure's field
    for tile in (1, 7, 40):
        monkeypatch.setattr(closure, "TILE_CELLS", tile)
        first = len(calls)
        for Js, ts, want in sums:
            for t, w in zip(ts, want):
                assert closure.colength_sum(Js, [(t, 1)]) == w, (tile, Js, t)
            coeffs = [rng.randint(-3, 3) for _ in ts]
            total = sum(map(mul, coeffs, want))
            assert closure.colength_sum(Js, list(zip(ts, coeffs))) == total, (tile, Js)
        summed, before = len(calls), len(fields)
        for I, C in closures:
            assert integral_closure(I) == C, (tile, I)
        assert len(calls) == summed  # closures take their own pass, not `_tile_heights`
        closed += fields[before:]
        if tile > 1:  # some tile's parts fill more than one batch
            assert any(len(batches) > len({lo for lo, _ in batches}) for batches in calls[first:])
    assert any(len(set(origins)) > 10 for origins in closed)
    assert any(len({lo for lo, _ in batches}) > 10 for batches in calls)
    shapes = [{shape for lo, parts in batches if lo == at for shape in parts}
              for batches in calls for at, _ in batches]
    assert any(len(kinds) > 1 for kinds in shapes)  # boxes of one call that end apart in one tile
    monkeypatch.setattr(closure, "TILE_CELLS", 7)
    multiplicity._newton_value.cache_clear()
    calls.clear()
    assert d5() == d5_default
    assert len(calls) == 1 and len(calls[0]) > 1000
