"""Monomial ideal core: construction, minimalization, arithmetic, membership."""

import pickle
import random
from itertools import combinations_with_replacement
from itertools import product as iter_product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import (
    DimensionMismatchError,
    MonomialIdeal,
    NotMPrimaryError,
    ProductSampler,
    box_bounds,
    contains,
    ideal,
    ideal_contains,
    integral_closure,
    is_m_primary,
    m_ideal,
    m_power,
    minimalize,
    mixed_difference_table,
    mixed_multiplicity,
    module,
    parse_ideal,
    power,
    product,
    scale_by_m,
    unit_ideal,
)
from multlab import monomial
from multlab.monomial import MAX_EXPONENT, compositions, minimalize_array, product_array
from multlab.monomial import _sweep as sweep

from conftest import oracle_minimalize, oracle_power, oracle_product, random_mprimary


class TestConstruction:
    def test_ideal_minimalizes_and_sorts(self):
        I = ideal([(3, 1), (2, 0), (0, 1), (5, 5)])
        assert I.gens == ((0, 1), (2, 0))
        assert I.dim == 2

    def test_dim_inferred_and_explicit(self):
        assert ideal([(1, 0, 0)]).dim == 3
        assert ideal([(2,)], dim=1).gens == ((2,),)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ideal([])

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            ideal([(1, -1)])

    def test_rejects_ragged(self):
        with pytest.raises(DimensionMismatchError):
            ideal([(1, 0), (1, 0, 0)])

    @pytest.mark.parametrize("extra", [0, 59])
    def test_ragged_rows_are_refused_at_every_size(self, extra):
        # 2 or 61 rows; compared by zip, (1,) and (1, 0) would divide each other
        antichain = [(100 + i, 200 - i) for i in range(extra)]
        for gens in ([(1,), (1, 0)] + antichain, antichain + [(0, 1, 0), (1, 0)]):
            with pytest.raises(DimensionMismatchError, match="different lengths"):
                minimalize(gens)
            with pytest.raises(DimensionMismatchError, match="different lengths"):
                ideal(gens)

    def test_unit_ideal(self):
        R = unit_ideal(3)
        assert R.is_unit
        assert R.gens == ((0, 0, 0),)
        assert ideal([(0, 0), (1, 2)]).is_unit  # 1 divides everything
        assert unit_ideal(np.int64(2)) == ideal([(0, 0)]) and type(unit_ideal(np.int64(2)).dim) is int
        with pytest.raises(ValueError, match="dim must be >= 1"):
            unit_ideal(0)
        with pytest.raises(ValueError, match="dim must be an integer, got 1.5"):
            unit_ideal(1.5)

    def test_m_ideal_and_powers(self):
        m = m_ideal(2)
        assert m.gens == ((0, 1), (1, 0))
        assert m_power(2, 3).gens == ((0, 3), (1, 2), (2, 1), (3, 0))
        assert m_power(2, 1) == m
        assert m_power(3, 0) == unit_ideal(3)

    def test_compositions_are_the_rows_of_m_powers_in_lex_order(self):
        def recursive(total, parts):
            # the reference: one nested generator per part, so its depth is the part count
            if parts == 1:
                yield (total,)
                return
            for head in range(total + 1):
                for rest in recursive(total - head, parts - 1):
                    yield (head, *rest)

        for parts in range(1, 6):
            for total in range(6):
                rows = compositions(total, parts)
                assert rows == list(recursive(total, parts)), (total, parts)
                if total:
                    assert tuple(rows) == m_power(parts, total).gens
        # far past the depth at which the reference raises RecursionError (about 990 parts)
        for parts in (1, 2, 7, 100, 1100):
            for total in range(3 if parts <= 100 else 2):
                assert len(compositions(total, parts)) == comb(total + parts - 1, parts - 1)

    def test_non_integer_exponents_and_dim_are_refused(self):
        for gens in ([(1.5, 0), (0, 1)], [(2.0, 0), (0, 1)]):
            with pytest.raises(ValueError, match="integers"):
                ideal(gens)
            with pytest.raises(ValueError, match="integers"):
                minimalize(gens)
        for dim in (2.0, 2.5):
            with pytest.raises(ValueError, match="dim must be an integer"):
                ideal([(1, 0), (0, 1)], dim=dim)
        I = ideal([(np.int64(1), 0), (0, np.int64(1))], dim=np.int64(2))
        assert I == m_ideal(2) and type(I.dim) is int
        assert minimalize([np.array([2, 0]), (0, 3)]) == ((0, 3), (2, 0))

    def test_constructor_refuses_non_integer_exponents(self):
        for gens in (((0, 1.5), (2.0, 0)), ((0, 1), (2.0, 0)), ((0, "1"), (2, 0))):
            with pytest.raises(ValueError, match="integers"):
                MonomialIdeal(2, gens)
        assert MonomialIdeal(2, ((0, np.int64(1)), (2, 0))) == ideal([(0, 1), (2, 0)])

    @pytest.mark.parametrize("dim, gens, error, message", [
        (0, ((),), ValueError, "dim must be >= 1"),
        (2, (), ValueError, "at least one generator"),
        (2, ((0, 1), (1, 0, 0)), DimensionMismatchError, "has 3 exponents, expected 2"),
        (2, ((1, 0), (0, 1)), ValueError, "strictly increasing"),
        (2, ((0, 1), (0, 1)), ValueError, "strictly increasing"),
        (2, ((0, 1), (1, -1)), ValueError, r"exponents must be in \[0, 2147483648\), got -1$"),
        (2, ((0, MAX_EXPONENT), (1, 0)), ValueError, rf"\), got {MAX_EXPONENT}$"),
        (2.5, ((0, 1), (1, 0)), ValueError, "dim must be an integer, got 2.5"),
        ("2", ((0, 1), (1, 0)), ValueError, "dim must be an integer, got '2'"),
    ])
    def test_constructor_refuses_malformed_generators(self, dim, gens, error, message):
        with pytest.raises(error, match=message):
            MonomialIdeal(dim, gens)

    def test_constructor_stores_int_tuples(self):
        # rows in a list, rows given as lists or arrays, numpy ints: all
        # stored as a tuple of int tuples, so the ideal hashes and memoizes
        m = m_ideal(2)
        for gens in ([(0, 1), (1, 0)], ([0, 1], [1, 0]), [np.array([0, 1]), (np.int64(1), 0)]):
            I = MonomialIdeal(2, gens)
            assert I == m and hash(I) == hash(m)
            assert type(I.gens) is tuple
            assert all(type(g) is tuple and all(type(e) is int for e in g) for g in I.gens)
            assert mixed_multiplicity([I, I]) == 1

    @pytest.mark.parametrize("extra", [0, 59])
    def test_explicit_dim_must_match_the_rows(self, extra):
        # 2 + extra rows, minimalized, then built unchecked
        gens = [(0, 1), (1, 0)] + [(100 + i, 200 - i) for i in range(extra)]
        with pytest.raises(DimensionMismatchError, match=r"has 2 exponents, expected 3$"):
            ideal(gens, dim=3)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            ideal([()])

    @pytest.mark.parametrize("extra", [0, 3, 60])
    def test_exponent_range_is_checked_at_every_size(self, extra):
        # 2, 5 or 62 rows
        refused = rf"exponents must be in \[0, {MAX_EXPONENT}\), got "
        antichain = [(100 + i, 200 - i) for i in range(extra)]
        with pytest.raises(ValueError, match=refused + "-1$"):
            minimalize([(1, -1), (0, 200)] + antichain)
        with pytest.raises(ValueError, match=refused + f"{MAX_EXPONENT}$"):
            minimalize([(MAX_EXPONENT, 0), (0, 200)] + antichain)
        steps = [(i + 1, 60 - i) for i in range(extra)]
        with pytest.raises(ValueError, match=refused + f"{2**70}$"):
            ideal([(2**70, 0)] + steps)
        gens = [(MAX_EXPONENT - 1, 0), (0, 200)] + antichain
        assert minimalize(gens) == oracle_minimalize(gens)

    def test_construction_is_canonical(self):
        a = ideal([(2, 0), (0, 3), (1, 1)])
        b = ideal([(1, 1), (2, 0), (0, 3), (2, 5)])
        assert a == b
        assert hash(a) == hash(b)


def _same(got, want):
    """`got` equals `want` and hashes like it."""
    return got == want and hash(got) == hash(want)


class TestConstructionPaths:
    """Every way of building an ideal gives what the checked constructor gives on oracle rows."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([47, 48, 49, 60]), d=st.sampled_from([2, 3]), data=st.data())
    def test_ideal_matches_oracle_around_the_sweep_size(self, n, d, data):
        # n distinct rows with repeats, in any order; an antichain of 13 x 13
        # or 7^3 points has at most 13 or 37 rows, so some rows always
        # divide others
        top = 12 if d == 2 else 6
        rows = data.draw(st.lists(st.tuples(*[st.integers(0, top)] * d),
                                  min_size=n, max_size=n, unique=True))
        gens = data.draw(st.permutations(rows + data.draw(st.lists(st.sampled_from(rows), max_size=10))))
        assert _same(ideal(gens), MonomialIdeal(d, oracle_minimalize(rows)))

    @given(st.integers(1, 4), st.integers(0, 6))
    def test_m_power_matches_oracle(self, d, k):
        rows = [v for v in iter_product(range(k + 1), repeat=d) if sum(v) == k]
        assert _same(m_power(d, k), MonomialIdeal(d, oracle_minimalize(rows)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_m_power_rows_are_the_counted_picks(self, d):
        # the rows of m^k once counted each pick of k variables, then sorted
        for k in range(1, 7):
            picks = [tuple(map(pick.count, range(d))) for pick in combinations_with_replacement(range(d), k)]
            assert m_power(d, k).gens == tuple(sorted(picks))

    def test_m_power_costs_per_row_not_per_degree(self):
        # one row of degree 2**31 - 1 is written, not counted
        assert m_power(1, MAX_EXPONENT - 1).gens == ((MAX_EXPONENT - 1,),)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(st.tuples(*[st.integers(0, 5)] * d), min_size=1, max_size=12), min_size=2, max_size=2)))
    def test_product_matches_oracle_on_both_paths(self, pair):
        # every pair, two powers of m included, takes the one sweep
        a, b = map(ideal, pair)
        assert _same(product(a, b), oracle_product(a, b))
        arrays = [np.array(I.gens, dtype=np.int64) for I in (a, b)]
        assert product_array(*arrays).tolist() == [list(g) for g in oracle_product(a, b).gens]

    def test_computed_ideals_are_built_unchecked_as_the_constructor_builds(self, monkeypatch):
        # closures, products (one with a 61-generator factor) and unit
        # ideals are built from trusted rows; the checked constructor on the
        # same rows agrees
        rng = random.Random(35)
        draws = [random_mprimary(rng, d, max_power=6, extras=4, mixed=True)
                 for d in (2, 3, 4) for _ in range(6)]
        big = ideal([(i, 60 - i) for i in range(61)])
        checked = []
        post_init = MonomialIdeal.__post_init__
        monkeypatch.setattr(MonomialIdeal, "__post_init__",
                            lambda self: checked.append(1) or post_init(self))
        built = [integral_closure(I) for I in draws]
        pairs = [(big, draws[0]), (built[-1], draws[-1])]
        built += [product(a, b) for a, b in pairs] + [unit_ideal(d) for d in (1, 2, 4)]
        assert not checked
        for J in built:
            want = MonomialIdeal(J.dim, J.gens)
            back = pickle.loads(pickle.dumps(J))
            assert _same(J, want) and _same(back, want) and back.gens == J.gens
            assert J._bounds == want._bounds

    def test_array_path_products_check_their_range(self):
        # two exponents in range can sum past it, so a product checks its 81
        # sums once; the array form, which no library code calls, checks none
        steps = [(i, 8 - i) for i in range(8)]
        top = ideal([(MAX_EXPONENT // 2, 0)] + steps)
        with pytest.raises(ValueError, match=rf"^exponents must be in \[0, {MAX_EXPONENT}\), got {MAX_EXPONENT}$"):
            product(top, top)
        below = ideal([(MAX_EXPONENT // 2 - 1, 0)] + steps)
        got = product(below, below)
        assert got.gens[-1] == (MAX_EXPONENT - 2, 0) and _same(got, oracle_product(below, below))
        rows = np.array(below.gens, dtype=np.int64)
        assert product_array(rows, rows).tolist() == [list(g) for g in got.gens]

    def test_pickle_keeps_equality_and_hash(self):
        I = ideal([(3, 0), (1, 1), (0, 2)])
        big = ideal([(i, 60 - i) for i in range(61)])
        built = [
            I, big, m_power(3, 4), unit_ideal(2), product(I, I), product(big, I),
            integral_closure(ideal([(4, 0), (0, 4), (3, 2)])), MonomialIdeal(2, [[0, 1], [1, 0]]),
        ]
        for J in built:
            back = pickle.loads(pickle.dumps(J))
            assert _same(back, J) and is_m_primary(back) == is_m_primary(J)
            assert back.gens == J.gens and repr(back) == repr(J)


class TestMinimalize:
    def test_small_cases(self):
        assert minimalize([(1, 2), (1, 2)]) == ((1, 2),)
        assert minimalize([(0, 0), (1, 1)]) == ((0, 0),)
        assert minimalize([(2, 0), (1, 1), (0, 2), (2, 2)]) == (
            (0, 2),
            (1, 1),
            (2, 0),
        )

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 6)] * 3), min_size=1, max_size=60
        )
    )
    def test_matches_oracle(self, gens):
        assert minimalize(gens) == oracle_minimalize(gens)

    @staticmethod
    def _both_forms(rows, d, want):
        """`minimalize` and the array form on `rows` both give `want`, in lex order."""
        got = minimalize_array(np.array(rows, dtype=np.int64).reshape(-1, d))
        assert got.tolist() == [list(r) for r in want]
        if rows and max(map(max, rows)) < MAX_EXPONENT:
            assert minimalize(rows) == want

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 4),
        pad=st.booleans(),
        corner=st.integers(0, 6),
        data=st.data(),
    )
    def test_padded_cubes_match_oracle(self, d, pad, corner, data):
        # a first coordinate of 2**40 is past MAX_EXPONENT, so only the array form takes it
        first = st.one_of(st.integers(0, 6), st.just(2**40))
        rows = data.draw(st.lists(st.tuples(first, *[st.integers(0, 6)] * (d - 1)), max_size=30))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
        want = oracle_minimalize(rows)
        if pad:
            # a cube of more than 1024 distinct rows whose only minimal row is
            # its corner, so the answer is that of rows + [corner]
            side = {1: 1100, 2: 33, 3: 11, 4: 6}[d]
            cube = list(iter_product(range(corner, corner + side), repeat=d))
            want = oracle_minimalize(rows + [(corner,) * d])
            rows = rows + cube
            random.Random(data.draw(st.integers(0, 2**32))).shuffle(rows)
        self._both_forms(rows, d, want)

    def test_distinct_rows_in_a_small_box(self):
        # 2 000 distinct rows in a 30^4 box, most of them divided by another
        rng = random.Random(3)
        pts = set()
        while len(pts) < 2000:
            pts.add(tuple(rng.randrange(30) for _ in range(4)))
        self._both_forms(sorted(pts), 4, oracle_minimalize(pts))

    def test_array_path_tie_heavy(self, rng):
        # 2 500 rows in a tiny coordinate range: at most 256 distinct
        rows = [tuple(rng.randrange(0, 4) for _ in range(4)) for _ in range(2500)]
        self._both_forms(rows, 4, oracle_minimalize(rows))

    def test_array_path_antichain_is_fixed_point(self):
        layer = m_power(3, 7)  # all degree-7 monomials: a large antichain
        self._both_forms(list(layer.gens) * 40, 3, layer.gens)  # 1440 rows with duplicates

    def test_adjacent_degree_layers(self, rng):
        # > 1024 distinct rows on four adjacent degree layers: each row meets
        # the rows kept from the layers below it
        pts = set()
        while len(pts) < 1100:
            p = tuple(rng.randrange(0, 10) for _ in range(4))
            if 11 <= sum(p) <= 14:
                pts.add(p)
        want = oracle_minimalize(pts)
        assert 100 < len(want) < len(pts)
        self._both_forms(list(pts), 4, want)

    def test_sparse_generators_past_the_grid_cap(self):
        # > 1024 sparse generators in a box of about 10^24 cells: the sweep
        # must hand back lex order for `ideal` to accept it
        rng = random.Random(1)
        gens = [tuple(rng.randrange(10**6) for _ in range(4)) for _ in range(1100)]
        want = oracle_minimalize(gens)
        assert len(want) == 71
        self._both_forms(gens, 4, want)
        assert ideal(gens).gens == want


class TestArithmetic:
    def test_product_example(self):
        A, B = parse_ideal("(x, y^2)"), parse_ideal("(x^2, y)")
        assert product(A, B) == parse_ideal("(x^3, x*y, y^3)")

    def test_power_example(self):
        B = parse_ideal("(x^2, y)")
        assert power(B, 3) == parse_ideal("(x^6, x^4*y, x^2*y^2, y^3)")

    def test_power_edge_cases(self):
        B = parse_ideal("(x^2, y)")
        assert power(B, 0) == unit_ideal(2)
        assert power(B, 1) == B
        # m^0 is the one composition of 0 and I^0 the empty product, R in every d
        for d in (1, 2, 3, 4):
            assert power(m_power(d, 2), 0) == m_power(d, 0) == unit_ideal(d)
        with pytest.raises(ValueError, match="n must be >= 0"):
            power(B, -1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            m_power(2, -1)
        # m_power builds its rows unchecked, so it checks dim and k itself
        with pytest.raises(ValueError, match=rf"\), got {MAX_EXPONENT}$"):
            m_power(1, MAX_EXPONENT)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            m_power(0, 2)

    def test_powers_take_integers_only(self):
        B = parse_ideal("(x^2, y)")
        for n in (2.0, 2.5):
            with pytest.raises(ValueError, match="n must be an integer"):
                power(B, n)
            with pytest.raises(ValueError, match="k must be an integer"):
                m_power(2, n)
        with pytest.raises(ValueError, match="dim must be an integer"):
            m_power(2.0, 2)
        assert power(B, np.int64(2)) == power(B, 2)
        assert m_power(np.int64(2), np.int64(3)) == m_power(2, 3)

    def test_unit_is_identity(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        assert product(I, unit_ideal(2)) == I

    def test_products_of_m_powers_take_the_sweep(self, monkeypatch):
        # product has no m-power shortcut: m^a * m^b = m^(a+b) comes out of the
        # one sweep, whose sums all have degree a + b, m^0 = R included
        swept = []
        monkeypatch.setattr(monomial, "_sweep", lambda pts: swept.append(None) or sweep(pts))
        for d in (1, 2, 3, 4):
            for a in range(4):
                for b in range(4):
                    got = product(m_power(d, a), m_power(d, b))
                    assert _same(got, m_power(d, a + b)), (d, a, b)
                    assert oracle_product(m_power(d, a), m_power(d, b)) == got
        assert len(swept) == 4 * 4 * 4

    def test_product_commutes_and_associates(self, rng):
        for _ in range(10):
            a = random_mprimary(rng, 3, mixed=True)
            b = random_mprimary(rng, 3, mixed=True)
            c = random_mprimary(rng, 3, mixed=True)
            assert product(a, b) == product(b, a)
            assert product(product(a, b), c) == product(a, product(b, c))

    def test_product_matches_oracle(self, rng):
        for _ in range(25):
            a = random_mprimary(rng, rng.randint(1, 4), mixed=True)
            b = random_mprimary(rng, a.dim, mixed=True)
            assert product(a, b) == oracle_product(a, b)

    def test_power_matches_oracle(self, rng):
        for _ in range(10):
            a = random_mprimary(rng, rng.randint(1, 3), mixed=True)
            n = rng.randint(0, 4)
            assert power(a, n) == oracle_power(a, n)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            product(m_ideal(2), m_ideal(3))

    def test_every_entry_point_checks_dimensions_alike(self):
        m2, m3 = m_ideal(2), m_ideal(3)
        calls = (
            lambda: product(m2, m3),
            lambda: ideal_contains(m2, m3),
            lambda: module([m2, m3]),
            lambda: ProductSampler([m2, m3]),
            lambda: mixed_multiplicity([m2, m3], (1, 1)),
            lambda: mixed_difference_table([m2, m3], (1, 1)),
        )
        for call in calls:
            with pytest.raises(DimensionMismatchError, match="different dimensions: 3 != 2"):
                call()

    def test_scale_by_m(self):
        I = parse_ideal("(x^2, y)")
        assert scale_by_m(I) == product(m_ideal(2), I)
        assert scale_by_m(unit_ideal(2)) == m_ideal(2)


class TestMembership:
    def test_contains(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        assert contains(I, (2, 0))
        assert contains(I, (5, 7))
        assert not contains(I, (1, 0))
        assert not contains(I, (0, 2))
        assert (5, 7) in I and (0, 2) not in I
        assert str(I) == "(x^2, x*y, y^3)"

    def test_contains_checks_dim(self):
        with pytest.raises(DimensionMismatchError):
            contains(m_ideal(2), (1, 0, 0))

    def test_ideal_contains(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        assert ideal_contains(m_ideal(2), I)  # m contains I
        assert not ideal_contains(I, m_ideal(2))
        assert ideal_contains(I, I)

    def test_ideal_contains_matches_products(self, rng):
        m = m_ideal(2)
        for _ in range(10):
            a = random_mprimary(rng, 2)
            assert ideal_contains(a, product(a, m))  # mI inside I


class TestMPrimary:
    def test_m_primary_detection(self):
        assert is_m_primary(parse_ideal("(x^2, x*y, y^3)"))
        assert is_m_primary(m_ideal(4))
        assert not is_m_primary(parse_ideal("(x^2, x*y)"))  # no pure y power
        assert not is_m_primary(unit_ideal(2))

    def test_box_bounds(self):
        assert box_bounds(parse_ideal("(x^2, x*y, y^3)")) == (2, 3)
        assert box_bounds(m_power(3, 4)) == (4, 4, 4)
        # R's least pure powers are the x_i^0, so its box is empty; R is
        # still not m-primary (test_m_primary_detection), since it is not proper
        for d in (1, 2, 3, 4):
            assert box_bounds(unit_ideal(d)) == (0,) * d

    def test_box_bounds_raises_with_axis_names(self):
        with pytest.raises(NotMPrimaryError, match="x2"):
            box_bounds(parse_ideal("(x^2, x*y)"))

    @given(st.integers(1, 4), st.integers(1, 5))
    def test_m_powers_are_m_primary(self, d, k):
        I = m_power(d, k)
        assert is_m_primary(I)
        assert box_bounds(I) == (k,) * d


@settings(max_examples=40)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(0, 5)] * d), min_size=1, max_size=12
        )
    )
)
def test_ideal_roundtrip_through_array(gens):
    I = ideal(gens)
    arr = np.array(I.gens, dtype=np.int64)
    assert minimalize_array(arr).tolist() == arr.tolist()  # an antichain is its own minimalization
    assert _same(MonomialIdeal(I.dim, list(arr)), I)  # rows given as int64 arrays
