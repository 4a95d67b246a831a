"""Multiplicities: stabilization, Hilbert-Samuel, mixed, hyperplane sections, the Newton route."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import (
    DimensionMismatchError,
    ImpossibleValueError,
    MonomialIdeal,
    NotMPrimaryError,
    StabilizationError,
    hilbert_samuel,
    hyperplane_section_multiplicity,
    ideal,
    integral_closure,
    m_ideal,
    m_power,
    mixed_difference_table,
    mixed_multiplicity,
    parse_ideal,
    product,
    scale_by_m,
    stabilize,
    unit_ideal,
)
from multlab import closure, lengths, multiplicity
from multlab.harness import CorpusConfig, run_suite, write_jsonl
from multlab.lengths import MEMO_ENTRIES, ProductSampler
from multlab.monomial import _built

from conftest import random_mprimary


def batch(f):
    """The round evaluator of a function on single points."""
    return lambda points: [f(n) for n in points]


class TestStabilize:
    def test_polynomial_sampler(self):
        table = stabilize(batch(lambda n: n[0] * (n[0] + 1) // 2), (2,), base=1)
        assert table.result == 1
        assert table.base == (1,)

    def test_quadratic_leading_coefficient(self):
        # f(n) = 7n^2 + 3n + 2: second difference is 2 * 7
        table = stabilize(batch(lambda n: 7 * n[0] ** 2 + 3 * n[0] + 2), (2,), base=2)
        assert table.result == 14

    def test_mixed_difference_of_product_poly(self):
        # f(a, b) = a^2 b: difference of order (2, 1) gives 2! * 1! * 1
        table = stabilize(batch(lambda n: n[0] ** 2 * n[1]), (2, 1), base=2)
        assert table.result == 2

    def test_escalates_past_transient(self):
        # piecewise junk below 40, clean quadratic afterwards
        f = lambda n: (n[0] % 7) if n[0] < 40 else 5 * n[0] ** 2
        table = stabilize(batch(f), (2,), base=3)
        assert table.result == 10
        assert table.base[0] >= 40
        assert table.rounds > 1

    def test_rounds_count_the_bases_tried(self):
        table = stabilize(batch(lambda n: 3 * n[0] ** 2 + n[0]), (2,), base=2)
        assert table.rounds == 1
        f = lambda n: (n[0] % 7) if n[0] < 40 else 5 * n[0] ** 2
        table = stabilize(batch(f), (2,), base=3)
        assert table.base == (3 * 2 ** (table.rounds - 1),)

    def test_gives_up_with_diagnostics(self):
        with pytest.raises(StabilizationError) as exc:
            stabilize(batch(lambda n: n[0] % 2), (1,), base=2)
        err = exc.value
        assert len(err.bases) == 7  # initial + 6 escalations
        assert err.bases[-1] == (128,)
        assert len(err.attempts) == 7

    def test_samples_recorded(self):
        table = stabilize(batch(lambda n: n[0] ** 2), (2,), base=2)
        values = dict(table.samples)
        assert (2,) in values and (6,) in values  # base through base+window+order
        assert values[(3,)] == 9
        assert list(values) == sorted(values)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            stabilize(batch(lambda n: 0), (), base=2)
        with pytest.raises(ValueError):
            stabilize(batch(lambda n: 0), (0, 1), base=2)

    def test_rejects_bad_bases(self):
        with pytest.raises(ValueError, match="positive"):
            stabilize(batch(lambda n: 0), (1,), base=0)
        with pytest.raises(TypeError):
            stabilize(batch(lambda n: 0), (1,), 2)  # the base is keyword-only

    def test_refuses_non_integer_orders_and_bases(self):
        # no rounding and no parsing: orders and bases are Python or numpy ints
        for order in ((2.5,), ("2",)):
            with pytest.raises(ValueError, match="integers"):
                stabilize(batch(lambda n: 0), order, base=2)
        for base in (2.7, (2,)):
            with pytest.raises(ValueError, match="base must be an integer"):
                stabilize(batch(lambda n: 0), (2,), base=base)
        table = stabilize(batch(lambda n: n[0] ** 2), (np.int64(2),), base=np.int64(3))
        assert (table.order, table.base, table.result) == ((2,), (3,), 2)
        assert type(table.order[0]) is int and type(table.base[0]) is int

    def test_rejects_an_evaluator_of_the_wrong_length(self):
        # one value short would otherwise surface as a KeyError in the difference
        for wrong in (lambda points: [0] * (len(points) - 1), lambda points: [0] * 99):
            with pytest.raises(ValueError):
                stabilize(wrong, (2,), base=2)


class TestHilbertSamuel:
    def test_frozen_examples(self):
        assert hilbert_samuel(parse_ideal("(x^2, x*y, y^3)")) == 5
        assert hilbert_samuel(m_ideal(2)) == 1
        assert hilbert_samuel(m_ideal(5)) == 1

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_m_powers(self, d, k):
        # e(m^k) = k^d
        assert hilbert_samuel(m_power(d, k)) == k**d

    def test_diagonal_ideals(self):
        # e((x^a, y^b)) = a*b
        for a, b in [(1, 1), (2, 3), (4, 2), (5, 5)]:
            assert hilbert_samuel(parse_ideal(f"(x^{a}, y^{b})")) == a * b

    def test_rejects_non_primary(self):
        with pytest.raises(NotMPrimaryError):
            hilbert_samuel(parse_ideal("(x^2, x*y)"))

    def test_rejects_unit(self):
        with pytest.raises(NotMPrimaryError):
            hilbert_samuel(unit_ideal(2))

    def test_multiplicity_bounded_by_colength_factorial(self, rng):
        from math import factorial

        from multlab import colength

        for _ in range(8):
            d = rng.randint(2, 3)
            I = random_mprimary(rng, d)
            assert 1 <= hilbert_samuel(I) <= factorial(d) * colength(I)


class TestMixed:
    def test_frozen_examples(self):
        A, B = parse_ideal("(x, y^2)"), parse_ideal("(x^2, y)")
        assert mixed_multiplicity([A, B]) == 1
        m = m_ideal(2)
        assert mixed_multiplicity([m, parse_ideal("(x^2, y^2)")]) == 2
        m3 = m_ideal(3)
        assert mixed_multiplicity([m3, m3, m_power(3, 3)]) == 3

    def test_all_m_is_one(self):
        for d in (2, 3, 4, 5):
            assert mixed_multiplicity([m_ideal(d)] * d) == 1

    def test_type_collapses_to_hilbert_samuel(self, rng):
        for _ in range(6):
            d = rng.randint(2, 3)
            I = random_mprimary(rng, d)
            assert mixed_multiplicity([I], (d,)) == hilbert_samuel(I)

    def test_merging_duplicates_matches_types(self, rng):
        # e(I, I, J) with unit type == e(I^[2], J^[1])
        for _ in range(4):
            I = random_mprimary(rng, 3)
            J = random_mprimary(rng, 3)
            assert mixed_multiplicity([I, I, J]) == mixed_multiplicity(
                [I, J], (2, 1)
            )

    def test_type_entries_must_be_integers(self):
        A, B = parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x, y^3)")
        for type_ in ((1.5, 1.5), (2.5, 0), (1.0, 1), ("1", 1)):
            with pytest.raises(ValueError, match="integers"):
                mixed_multiplicity([A, B], type_)
        want = mixed_multiplicity([A, B], (1, 1))
        assert mixed_multiplicity([A, B], (np.int64(1), np.uint8(1))) == want
        assert mixed_multiplicity([A, B], np.array([1, 1])) == want

    def test_zero_slots_ignored(self, rng):
        I = random_mprimary(rng, 2)
        J = random_mprimary(rng, 2)
        assert mixed_multiplicity([I, J], (2, 0)) == hilbert_samuel(I)
        # the zero slot may even be non-primary junk
        assert (
            mixed_multiplicity([I, parse_ideal("(x^2, x*y)")], (2, 0))
            == hilbert_samuel(I)
        )

    def test_symmetry(self, rng):
        for _ in range(5):
            I = random_mprimary(rng, 2, mixed=True)
            J = random_mprimary(rng, 2, mixed=True)
            assert mixed_multiplicity([I, J]) == mixed_multiplicity([J, I])

    def test_symmetry_three(self, rng):
        I, J, K = (random_mprimary(rng, 3, mixed=True) for _ in range(3))
        want = mixed_multiplicity([I, J, K])
        assert mixed_multiplicity([K, I, J]) == want
        assert mixed_multiplicity([J, K, I]) == want

    def test_directional_difference_recovers_hilbert_samuel(self, rng):
        # deep in the polynomial region the pure a-direction second
        # difference of lambda(R/I^a J^b) is e(I), whatever b is held at
        for _ in range(4):
            I = random_mprimary(rng, 2, mixed=True)
            J = random_mprimary(rng, 2, mixed=True)
            eI = hilbert_samuel(I)
            for b in (0, 1, 3):
                lam = lambda a: ProductSampler([I, J]).colength_at((a, b))
                assert lam(18) - 2 * lam(17) + lam(16) == eI

    def test_multiplicativity_on_powers(self, rng):
        # e(I^[1], J^[1]) scales linearly when I is raised to a power:
        # e(I^2, J) = 2 e(I, J) in dimension 2
        from multlab import power

        for _ in range(4):
            I = random_mprimary(rng, 2, mixed=True)
            J = random_mprimary(rng, 2, mixed=True)
            assert mixed_multiplicity([power(I, 2), J]) == 2 * mixed_multiplicity(
                [I, J]
            )

    def test_closure_invariance(self, rng):
        for _ in range(4):
            I = random_mprimary(rng, 2, max_power=3, extras=2, mixed=True)
            J = random_mprimary(rng, 2, max_power=3, extras=2, mixed=True)
            assert mixed_multiplicity([integral_closure(I), J]) == mixed_multiplicity(
                [I, J]
            )

    def test_validates_inputs(self):
        m = m_ideal(2)
        with pytest.raises(ValueError, match="at least one ideal"):
            mixed_multiplicity([])
        with pytest.raises(ValueError):
            mixed_multiplicity([m])  # needs d ideals for the default type
        with pytest.raises(ValueError, match="type length"):
            mixed_multiplicity([m, m], (2,))
        with pytest.raises(ValueError):
            mixed_multiplicity([m, m], (1, 2))  # type sums to 3 != 2
        with pytest.raises(ValueError):
            mixed_multiplicity([m, m], (3, -1))
        with pytest.raises(DimensionMismatchError):
            mixed_multiplicity([m, m_ideal(3)], (1, 1))
        with pytest.raises(NotMPrimaryError):
            mixed_multiplicity([m, parse_ideal("(x^2, x*y)")])

    def test_table_reports_where_it_stabilized(self):
        table = mixed_difference_table(
            [m_ideal(2), parse_ideal("(x^2, y^2)")], (1, 1)
        )
        assert table.result == 2
        assert table.order == (1, 1)


class TestHyperplaneSections:
    def test_frozen_example(self):
        # cutting m^3 in dimension 3 by two general hyperplanes leaves e = 3
        assert hyperplane_section_multiplicity([m_power(3, 3)], 2) == 3

    def test_section_of_m_power_is_power(self):
        # cutting once leaves d-1 slots: e(m, m^k, ..., m^k) = k^(d-1)
        assert hyperplane_section_multiplicity([m_power(3, 2)] * 2, 1) == 4
        assert hyperplane_section_multiplicity([m_power(2, 5)], 1) == 5

    def test_equals_mixed_with_maximal_ideals(self, rng):
        m = m_ideal(3)
        for _ in range(4):
            I = random_mprimary(rng, 3)
            J = random_mprimary(rng, 3)
            assert hyperplane_section_multiplicity(
                [I, J], 1
            ) == mixed_multiplicity([m, I, J])

    def test_validates_counts(self):
        with pytest.raises(ValueError, match="at least one ideal"):
            hyperplane_section_multiplicity([])
        with pytest.raises(ValueError):
            hyperplane_section_multiplicity([m_ideal(2)], 2)  # k = d not allowed
        with pytest.raises(ValueError):
            hyperplane_section_multiplicity([m_ideal(3)], 1)  # needs d-k ideals

    def test_cut_count_must_be_an_integer(self):
        for k in (1.0, 1.5):
            with pytest.raises(ValueError, match="k must be an integer"):
                hyperplane_section_multiplicity([m_power(2, 5)], k)
        assert hyperplane_section_multiplicity([m_power(2, 5)], np.int64(1)) == 5

    def test_sections_shrink_multiplicity_bound(self, rng):
        # e after one cut is at most e(I) for plane curves... keep it simple:
        # the section multiplicity of a single ideal is positive
        for _ in range(4):
            I = random_mprimary(rng, 3)
            assert hyperplane_section_multiplicity([I, I], 1) >= 1


class TestReproducibility:
    def test_doubled_base_reproduces_value(self, rng):
        for _ in range(4):
            I = random_mprimary(rng, 2, mixed=True)
            J = random_mprimary(rng, 2, mixed=True)
            table = mixed_difference_table([I, J], (1, 1))
            merged = tuple(dict.fromkeys([I, J]))  # I == J merges to order (2,)
            doubled = stabilize(
                ProductSampler(merged).colengths, table.order, base=2 * table.base[0]
            )
            assert doubled.result == table.result


class TestTableMemo:
    """The memo of mixed multiplicities (`multiplicity._newton_value`); tables are not memoized."""

    def test_repeat_is_a_hit(self, monkeypatch):
        calls = []
        real = closure.mixed_sum

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(closure, "mixed_sum", counted)
        ideals = [parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^3, y^2)")]
        first = mixed_multiplicity(ideals)
        assert calls
        calls.clear()
        assert mixed_multiplicity(ideals) == first
        assert mixed_difference_table(ideals).result == first
        assert not calls

    def test_type_is_part_of_the_key(self):
        I, J = parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^3, y^2)")
        info = multiplicity._newton_value.cache_info
        mixed_multiplicity([I, J])
        assert (info().misses, info().hits) == (1, 0)
        assert mixed_multiplicity([I, J], (2, 0)) == hilbert_samuel(I)
        assert (info().misses, info().hits) == (2, 1)

    def test_slot_order_is_not_part_of_the_key(self):
        # mixed multiplicities are symmetric in their slots, so the merged
        # slots are keyed in one order, whatever order they came in
        I, J = parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^3, y^2)")
        info = multiplicity._newton_value.cache_info
        assert mixed_multiplicity([I, J]) == mixed_multiplicity([J, I])
        assert (info().misses, info().hits) == (1, 1)
        K, L = parse_ideal("(x^2, y^3, z^2, x*y*z)"), parse_ideal("(x^3, y, z^4)")
        assert mixed_multiplicity([K, L, K]) == mixed_multiplicity([L, K], (1, 2))
        assert (info().misses, info().hits) == (2, 2)
        assert mixed_multiplicity([L, K], (2, 1)) != mixed_multiplicity([K, L], (2, 1))
        assert (info().misses, info().hits) == (3, 3)  # e(L, L, K) is new, e(K, K, L) a hit

    def test_equal_ideals_built_apart_share_a_key(self):
        # the memo is keyed by generator rows, so equal ideals hit it however
        # they were built, in either slot order
        I, J = parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^3, y^2)")
        I2, J2 = ideal([(0, 3), (2, 0), (1, 1), (2, 1)]), MonomialIdeal(2, ((0, 2), (3, 0)))
        assert (I2, J2) == (I, J) and I2 is not I and J2 is not J
        info = multiplicity._newton_value.cache_info
        first = mixed_multiplicity([I, J])
        assert mixed_multiplicity([I2, J2]) == mixed_multiplicity([J2, I]) == first
        assert (info().misses, info().hits) == (1, 2)
        assert mixed_multiplicity([I, I2], (1, 1)) == hilbert_samuel(I2)  # fused by rows
        assert (info().misses, info().hits) == (2, 3)

    def test_memoized_ideals_are_checked_on_every_call(self):
        # a memo hit skips only the Newton route: the type and the slots are
        # checked on every call, after the same ideals were memoized too
        I, J = parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^3, y^2)")
        K = parse_ideal("(x^2, x*y)")  # no pure power of y
        mixed_multiplicity([I, J])
        hilbert_samuel(I)
        for bad in ((1, 2), (1, 0), (2, 1), (0, 0)):
            with pytest.raises(ValueError, match="sum to the ambient dimension"):
                mixed_multiplicity([I, J], bad)
        with pytest.raises(NotMPrimaryError):
            mixed_multiplicity([I, K])
        with pytest.raises(NotMPrimaryError):
            mixed_multiplicity([K, J], (1, 1))
        assert mixed_multiplicity([I, K], (2, 0)) == hilbert_samuel(I)  # a zero slot is not read
        assert multiplicity._newton_value.cache_info().currsize == 2

    def test_stabilization_error_is_raised_every_time(self, monkeypatch):
        stabilized = []

        def unstable(sampler, order, *, base):
            stabilized.append(order)
            raise StabilizationError("difference window never became constant")

        monkeypatch.setattr(multiplicity, "stabilize", unstable)
        I = parse_ideal("(x^5, x^4*y, y^6)")
        for _ in range(2):
            with pytest.raises(StabilizationError):
                mixed_difference_table([I], (2,))
        assert len(stabilized) == 2
        # the Newton route takes no window, so it cannot fail to stabilize
        assert mixed_multiplicity([I], (2,)) == 29
        assert len(stabilized) == 2

    def test_impossible_value_is_raised_on_a_hit(self, monkeypatch):
        counted = []

        def zero(*args):
            counted.append(None)
            return 0

        monkeypatch.setattr(closure, "mixed_sum", zero)
        I = parse_ideal("(x^2, y^2)")
        for _ in range(2):
            with pytest.raises(ImpossibleValueError):
                hilbert_samuel(I)
        assert len(counted) == 1  # the value is computed once, and the memo serves the repeat
        assert multiplicity._newton_value.cache_info().hits == 1

    def test_bounded_by_count(self):
        # principal ideals (x^k) of k[x] have colength kn at n, so each key is cheap
        for k in range(1, MEMO_ENTRIES + 2):
            assert hilbert_samuel(m_power(1, k)) == k
        assert multiplicity._newton_value.cache_info().currsize == MEMO_ENTRIES

    def test_warm_memos_write_the_same_report(self):
        config = CorpusConfig(seed=3, dim=2, rank=3, instances=20)
        runs = []
        for _ in range(2):
            out = io.StringIO()
            write_jsonl(run_suite(config), out)
            runs.append(out.getvalue())
        assert multiplicity._newton_value.cache_info().hits
        assert lengths.colength.cache_info().hits
        assert runs[0] == runs[1]


class TestNewtonRoute:
    """`mixed_multiplicity` reads Newton polyhedra; the table engine is its oracle."""

    def test_pure_power_and_long_axis_boxes_build_no_product_field(self, monkeypatch):
        # through the table engine the first needs fields of up to (4 * 20)^3
        # cells, and the second a climb of about 32 770 products to its base
        calls = []
        real = lengths.multiply_field

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(lengths, "multiply_field", counted)
        assert hilbert_samuel(parse_ideal("(x^20, y^20, z^20, w^20)")) == 160000
        assert hilbert_samuel(parse_ideal("(x^3, y^32769)")) == 98307
        assert not calls

    def test_widening_pair(self):
        # a constant window at a low base gives 909 for this pair; the Newton
        # value and the table at the engine's own base give 996
        I = parse_ideal("(x^180, x^150*y^21, x^12*y^36, y^80)")
        J = parse_ideal("(x^16, x^9*y^2, x^5*y^36, y^37)")
        assert mixed_multiplicity([I, J]) == 996
        assert mixed_difference_table([I, J]).result == 996
        low = stabilize(ProductSampler((I, J)).colengths, (1, 1), base=2)
        assert low.result == 909

    def test_int64_check_on_the_summed_box(self, monkeypatch):
        # 6! * 6^6 * 3^4 * 2 * (2^31 - 1) > 2^63, while the field over the
        # five short sides has 18^4 * 12 cells; no facet is computed
        monkeypatch.setattr(closure, "_newton_facets", None)
        powers = (3, 3, 3, 3, 2, 2**31 - 1)
        I = ideal([tuple(k * (i == j) for j in range(6)) for i, k in enumerate(powers)], dim=6)
        with pytest.raises(ValueError, match="int64"):
            hilbert_samuel(I)

    def test_one_variable(self):
        for k in (1, 2, 7, 2**31 - 1):
            x = parse_ideal(f"(x^{k})")
            assert hilbert_samuel(x) == mixed_multiplicity([x, x], (1, 0)) == k


# The table engine's known false stops, each with its true value.  The
# engine stops on a constant window of third differences one below it, before
# the colengths have become a polynomial: in one round at base 6, at base 7
# for (x^5, x^2*y^3, ...), and for (x^6, ...) in its second, at base 14.
# The first is the hypothesis draw of --hypothesis-seed=122, the second the
# plateau of third differences at 66 from n = 3 to 9.  The first and the last
# eight are the nine draws where the engine disagrees with the Newton value
# among the distinct ideals of 3 000 gen_random_mprimary(3, 5, 3, rng) and
# 3 000 gen_random_mprimary(3, 6, 4, rng) draws, each from rng =
# random.Random(7): 6 of 1 192 and 3 of 1 564
FALSE_STOPS = [
    ("(x^3, x*y^2*z, y^5, z^4)", 59),
    ("(x^5, x^3*z, x*y^3, y^4, z^4)", 67),
    ("(x^3, x^2*y^3, x*y^2*z, y^5, z^4)", 59),
    ("(x^5, x^2*y*z, y^3, z^4)", 59),
    ("(x^5, x^3*y, x^2*y*z, y^4, z^4)", 68),
    ("(x^5, x^3*z, x^2*y*z, y^4, z^4)", 68),
    ("(x^4, x^3*z^3, x*y*z^2, y^3, z^5)", 59),
    ("(x^6, x^4*y, x*z^4, y^6, z^5)", 149),
    ("(x^5, x^2*y^3, y^6, y^4*z^3, y*z^4, z^5)", 133),
    ("(x^5, x^2*y*z, x*y*z^3, y^3, y^2*z^3, z^4)", 59),
]


@pytest.mark.parametrize("text, e", FALSE_STOPS)
def test_table_engine_false_stops_are_newton_values(text, e):
    # the Newton value and the window-free closure sum both give the true value
    I = parse_ideal(text)
    assert hilbert_samuel(I) == closure.colength_sum([I], closure._merged_terms([((3,), 1)]).items()) == e


@st.composite
def mprimary(draw, d):
    """A small m-primary ideal of dimension d, one draw in five scaled by m."""
    powers = draw(st.lists(st.integers(1, 5 if d < 4 else 3), min_size=d, max_size=d))
    extras = draw(st.lists(st.tuples(*(st.integers(0, k - 1) for k in powers)), max_size=3))
    gens = [tuple(k * (i == j) for j in range(d)) for i, k in enumerate(powers)]
    I = ideal(gens + [v for v in extras if any(v)], dim=d)
    return scale_by_m(I) if draw(st.integers(0, 4)) == 0 else I


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_newton_values_match_the_table_engine(data):
    d = data.draw(st.integers(1, 4), label="d")
    slots = data.draw(st.integers(1, d), label="slots")
    ideals = []
    for _ in range(slots):  # a slot may repeat an earlier ideal, which merges
        repeat = ideals and data.draw(st.booleans())
        ideals.append(data.draw(st.sampled_from(ideals)) if repeat else data.draw(mprimary(d)))
    cuts = sorted(data.draw(st.lists(st.integers(0, d), min_size=slots - 1, max_size=slots - 1)))
    type_ = tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))
    want = mixed_multiplicity(ideals, type_)
    table = mixed_difference_table(ideals, type_)
    if table.result != want:
        # the engine's window can stop before the colengths are a polynomial
        # (FALSE_STOPS): one more table from GROWTH times its stop base must
        # give the Newton value, so the draw shows a false stop, not a wrong value
        dim, orders = multiplicity._merged(ideals, type_)
        sampler = ProductSampler([_built(dim, rows) for rows in orders])
        again = stabilize(sampler.colengths, tuple(orders.values()), base=multiplicity.GROWTH * table.base[0])
        assert table.result != again.result == want, (ideals, type_, table.base)
