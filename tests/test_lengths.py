"""Colengths: closed forms, counters, the product sampler."""

import os
import subprocess
import sys
from itertools import product as iter_product
from math import comb
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import (
    NotMPrimaryError,
    ProductSampler,
    StabilizePolicy,
    colength,
    colength_naive,
    colength_of_product,
    ideal,
    m_ideal,
    m_power,
    mixed_difference_table,
    parse_ideal,
    power,
    product,
    stabilize,
    unit_ideal,
)
from multlab import counting, lengths
from multlab.buchsbaum_rim import br_direct, module, module_colength
from multlab.counting import FIELD_CELLS, count_grid, count_naive, field_count, field_slabs
from multlab.counting import field_rows, multiply_field
from multlab.lengths import MEMO_ENTRIES, shared_sampler
from multlab.monomial import as_array, box_bounds, product_array, scale_by_m

from conftest import oracle_colength, random_mprimary


class TestCounters:
    def test_frozen_values(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        assert count_naive(as_array(I), box_bounds(I)) == 4
        assert count_grid(as_array(I), box_bounds(I)) == 4

    def test_one_dimension(self):
        I = ideal([(5,)], dim=1)
        assert count_grid(as_array(I), (5,)) == 5
        assert count_naive(as_array(I), (5,)) == 5

    def test_oversized_sums_handled_exactly(self):
        # a tall box whose count exceeds int64: exercises the object reroute
        tall = 2**62
        arr = np.array([[2, tall - 5]], dtype=np.int64)
        want = 3 * tall - 5
        assert want > np.iinfo(np.int64).max
        assert count_grid(arr, (3, tall)) == want
        # a generator far above a short box clips to the box, never wraps
        assert count_grid(np.array([[0, 2**40]], dtype=np.int64), (3, 5)) == 15

    def test_field_types(self):
        # the narrowest type that holds the top:
        # uint8 below 2**8, uint16 below 2**16, uint32 below 2**32, Python ints beyond
        ladder = ((2**8 - 1, np.uint8), (2**8, np.uint16), (2**16 - 1, np.uint16),
                  (2**16, np.uint32), (2**32 - 1, np.uint32), (2**32, object))
        for top, dtype in ladder:
            (h, widths), = field_slabs([[1, top - 1]], (3, top), 1)
            assert h.dtype == dtype
            assert h.tolist() == [top, top - 1]
            assert widths.tolist() == [1, 2]
            grown = multiply_field(h.repeat(widths), (3, top), field_rows([[0, top], [1, 0]], (1, top), 1))
            assert grown.dtype == counting.field_dtype(2 * top)
            assert grown.tolist() == [2 * top, top, top - 1, top - 1]
        (tall, widths), = field_slabs([[1, 2**32]], (3, 2**32 + 1), 1)
        assert tall.dtype == object
        assert tall.tolist() == [2**32 + 1, 2**32]
        assert widths.tolist() == [1, 2]

    def test_heights_far_above_the_top_are_clamped(self):
        # P*J on a uint8 field (top 6); unclamped, h + 255 wraps and h + 2**40 overflows
        P, J = parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^2, y^3)")
        box, gen_box = box_bounds(P), box_bounds(J)
        h = whole_field(as_array(P), box, 1)
        redundant = np.vstack([as_array(J), [[0, 255], [1, 2**40]]])
        want = multiply_field(h, box, field_rows(as_array(J), gen_box, 1))
        got = multiply_field(h, box, field_rows(redundant, gen_box, 1))
        assert want.dtype == got.dtype == np.uint8
        assert got.tolist() == want.tolist()
        out_box = tuple(map(add, box, gen_box))
        sums = (as_array(P)[:, None, :] + redundant[None, :, :]).reshape(-1, 2)
        assert field_count(got) == count_naive(sums, out_box) == colength(product(P, J))

    def test_one_dimension_fields_are_arrays(self):
        # d = 1: the field is 0-d, and each min-plus update must stay an array
        unit = multiply_field(np.zeros((), np.uint8), (0,), field_rows([[2]], (2,), 0))
        assert isinstance(unit, np.ndarray) and unit.shape == () and unit == 2
        grown = multiply_field(whole_field([[3]], (3,), 0), (3,), field_rows([[2], [7]], (2,), 0))
        assert isinstance(grown, np.ndarray) and grown.shape == () and grown == 5
        assert field_count(grown) == count_naive([[5]], (5,))

    def test_uint8_fields_count_exactly_on_both_sides_of_2_24_cells(self):
        # below 2**24 cells a uint8 field sums in uint32, as 255 * 2**24 < 2**32
        assert field_count(np.full((2**6, 2**7, 2**7), 255, np.uint8)) == 255 * 2**20
        # from 2**24 cells on it sums in uint64, past 2**32 / 255 cells where uint32 wraps
        for cells in (2**24, 2**24 + 2**17):
            assert field_count(np.full(cells, 255, np.uint8)) == 255 * cells

    def test_counters_agree_random(self, rng, monkeypatch):
        # whole fields, then slabs of a few cells
        for cells in (FIELD_CELLS, 3):
            monkeypatch.setattr(counting, "FIELD_CELLS", cells)
            for _ in range(40):
                d = rng.randint(1, 4)
                I = random_mprimary(rng, d, max_power=4, extras=3)
                arr, box = as_array(I), box_bounds(I)
                assert count_grid(arr, box) == count_naive(arr, box)

    def test_redundant_generators_ok(self):
        # counters must not require minimal generating sets
        I = parse_ideal("(x^2, x*y, y^3)")
        arr = np.vstack([as_array(I), [[5, 5], [2, 1], [2, 0]]]).astype(np.int64)
        assert count_grid(arr, box_bounds(I)) == 4


@st.composite
def ideal_pairs(draw):
    """(P, J, axis) in d = 2-4: short sides, and tops on both sides of 2**8 and 2**16."""
    d = draw(st.integers(2, 4))
    axis = draw(st.integers(0, d - 1))
    base = draw(st.sampled_from((0, 2**7 - 40, 2**15 - 40)))
    pair = []
    for _ in range(2):
        bounds = [draw(st.integers(1, 3)) for _ in range(d)]
        bounds[axis] = base + draw(st.integers(1, 80))
        gens = [tuple(k * (i == j) for j in range(d)) for i, k in enumerate(bounds)]
        gens += draw(st.lists(st.tuples(*(st.integers(0, k - 1) for k in bounds)), max_size=5))
        pair.append(ideal([g for g in gens if any(g)], dim=d))
    return (*pair, axis)


@st.composite
def generator_rows(draw, J, axis):
    """J's generators shuffled among repeats and multiples, some of them past J's bound on `axis`."""
    bounds = box_bounds(J)
    gens = [list(g) for g in J.gens]
    rows = gens + draw(st.lists(st.sampled_from(gens), max_size=4))
    for g in draw(st.lists(st.sampled_from(gens), max_size=4)):
        multiple = [e + draw(st.integers(0, b - e)) for e, b in zip(g, bounds)]
        multiple[axis] += draw(st.sampled_from((0, 1, 2**8, 2**16, 2**40)))
        rows.append(multiple)
    return np.array(draw(st.permutations(rows)), dtype=np.int64)


def whole_field(gens, box, axis):
    """The height field of `gens` along `axis`, its slabs' rows repeated back."""
    slabs = list(field_slabs(gens, box, axis))
    if len(box) == 1:
        return slabs[0][0]
    return np.concatenate([h.repeat(widths, axis=0) for h, widths in slabs])


@settings(max_examples=60, deadline=None)
@given(ideal_pairs(), st.data())
def test_multiply_field_matches_the_field_of_the_product(pair, data):
    P, J, axis = pair
    box, gen_box = box_bounds(P), box_bounds(J)
    rows = data.draw(generator_rows(J, axis))
    got = multiply_field(whole_field(as_array(P), box, axis), box, field_rows(rows, gen_box, axis))
    out_box = tuple(map(add, box, gen_box))
    want = whole_field(product_array(as_array(P), as_array(J)), out_box, axis)
    assert got.dtype == want.dtype == counting.field_dtype(out_box[axis])
    assert np.array_equal(got, want)


class TestFieldKernelEdges:
    """Reads of the flat min-plus update that leave the product's box.

    Each must land in the margin of a later axis, or before the update's
    offset, and lower nothing.  Every case is judged by the field of the
    product of the generator arrays.
    """

    @staticmethod
    def pure_powers(bounds):
        d = len(bounds)
        return [[k * (i == j) for j in range(d)] for i, k in enumerate(bounds)]

    def case(self, rng, d, axis, top, side):
        """P and J as generator arrays with their bounds, for a product whose top is `top`.

        P is the unit ideal when `side` is None, and otherwise has bound
        `side` on every axis but `axis`.  J has bounds 2-3 on those axes;
        beside its pure powers, each of them carries the largest shift below
        the pure power, at height 0 and at the largest height below b_c.
        """
        bounds = [rng.randint(2, 3) for _ in range(d)]
        bounds[axis] = top if side is None else rng.randint(top // 3, 2 * top // 3)
        J = self.pure_powers(bounds)
        for i in range(d):
            if i != axis:
                for c in (0, bounds[axis] - 1):
                    J.append([c if j == axis else (bounds[i] - 1) * (j == i) for j in range(d)])
        if side is None:
            box, P = [0] * d, [[0] * d]
        else:
            box = [side] * d
            box[axis] = top - bounds[axis]
            P = self.pure_powers(box)
            if d > 1 and side > 1:
                P.append([box[axis] // 2 if j == axis else 1 for j in range(d)])
        return np.array(P), box, np.array(J), bounds

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_reads_past_the_box(self, d, rng):
        # tops just below 2**8 and 2**16, where top + b_c - 1 passes the field's type
        for axis, top, side in iter_product(range(d), (2**8 - 1, 2**16 - 2, 9), (None, 1, 2)):
            for _ in range(2):
                P, box, gens, bounds = self.case(rng, d, axis, top, side)
                if side is None:
                    h = np.zeros((0,) * (d - 1), counting.field_dtype(0))
                else:
                    h = whole_field(P, box, axis)
                J = field_rows(gens, bounds, axis)
                got = multiply_field(h, box, J)
                out_box = tuple(map(add, box, bounds))
                want = whole_field(product_array(P, gens), out_box, axis)
                assert out_box[axis] == top
                assert got.dtype == counting.field_dtype(top)
                assert np.array_equal(got, want)
                if d > 1 and top > 9:  # worked in the next type and narrowed
                    assert counting.field_dtype(top + J.lift) is not counting.field_dtype(top)

    def test_fields_past_numpys_maximum_size_are_out_of_memory(self):
        # numpy refuses these shapes with a ValueError before it asks for
        # memory; the kernels refuse them first, with nothing allocated
        assert np.iinfo(np.intp).max == sys.maxsize  # the bound they compare with
        b = 2**21
        J = field_rows(self.pure_powers([b] * 4), [b] * 4, 0)
        with pytest.raises(MemoryError, match="maximum array size"):
            multiply_field(np.zeros((0, 0, 0), counting.field_dtype(0)), [0] * 4, J)
        with pytest.raises(MemoryError, match="maximum array size"):
            count_grid(np.array(self.pure_powers([2**31] * 4)), [2**31] * 4)


class TestColength:
    def test_frozen_examples(self):
        assert colength(parse_ideal("(x^2, x*y, y^3)")) == 4
        assert colength(power(parse_ideal("(x^2, y^2)"), 3)) == 24
        assert colength(m_power(2, 3)) == 6
        assert colength(m_power(3, 3)) == 10

    def test_unit_ideal_is_zero(self):
        assert colength(unit_ideal(3)) == 0
        assert colength_naive(unit_ideal(3)) == 0

    def test_not_m_primary_raises(self):
        with pytest.raises(NotMPrimaryError):
            colength(parse_ideal("(x^2, x*y)"))

    @given(st.integers(1, 5), st.integers(1, 7))
    def test_m_power_closed_form(self, d, k):
        assert colength(m_power(d, k)) == comb(k - 1 + d, d)

    def test_matches_independent_oracle(self, rng):
        for _ in range(30):
            d = rng.randint(1, 4)
            I = random_mprimary(rng, d, max_power=4, extras=3)
            assert colength(I) == oracle_colength(I)
            assert colength_naive(I) == oracle_colength(I)

    def test_monotone_under_containment(self, rng):
        m = m_ideal(3)
        for _ in range(10):
            I = random_mprimary(rng, 3)
            assert colength(product(m, I)) >= colength(I)

    def test_repeat_is_a_hit(self, monkeypatch):
        counted = []
        monkeypatch.setattr(lengths, "count_grid", lambda *a: counted.append(a) or count_grid(*a))
        I = parse_ideal("(x^3, x*y, y^4)")
        assert colength(I) == colength(parse_ideal("(x^3, x*y, y^4)")) == 6
        assert len(counted) == 1

    def test_not_m_primary_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(NotMPrimaryError):
                colength(parse_ideal("(x^2, x*y)"))
        assert colength.cache_info().currsize == 0

    def test_bounded_by_count(self):
        for b in range(1, MEMO_ENTRIES + 2):
            assert colength(ideal([(2, 0), (0, b)], dim=2)) == 2 * b
        assert colength.cache_info().currsize == MEMO_ENTRIES

    def test_counting_leaves_numpy_ma_unloaded(self):
        # numpy 2's 1-D np.unique imports numpy.ma, about 10 ms on the first
        # call; numpy 1 imports numpy.ma with numpy itself, so there is
        # nothing to check.  The second input minimalizes 1 140 rows past
        # the grid cap, in `monomial._pareto_layers`.
        calls = (
            "colength(parse_ideal('(x^3, x*y, y^4)')) == 6",
            "len(power(parse_ideal('(x^20, y^20, z^20, w^20)', dim=4), 17).gens) == 1140",
        )
        src = str(Path(lengths.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for call in calls:
            code = (
                "import sys; from multlab import colength, parse_ideal, power; "
                "at_import = 'numpy.ma' in sys.modules; "
                f"assert {call}; "
                "print(at_import, 'numpy.ma' in sys.modules)"
            )
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": path}, check=True)
            at_import, after_call = out.stdout.split()
            if at_import == "True":
                pytest.skip("this numpy loads numpy.ma on import")
            assert after_call == "False", call


class TestProductSampler:
    def test_matches_direct_products(self, rng):
        pairs = [(random_mprimary(rng, 2), random_mprimary(rng, 2)) for _ in range(8)]
        pairs += [(random_mprimary(rng, d), random_mprimary(rng, d)) for d in (1, 3, 4)]
        pairs.append((scale_by_m(random_mprimary(rng, 3)), random_mprimary(rng, 3)))
        pairs.append((random_mprimary(rng, 4), unit_ideal(4)))
        for a, b in pairs:
            sampler = ProductSampler([a, b])
            want = {}
            for na in range(4):
                for nb in range(4):
                    direct = product(power(a, na), power(b, nb))
                    want[na, nb] = 0 if direct.is_unit else colength(direct)
                    assert sampler.colength_at((na, nb)) == want[na, nb]
            # one batch whose points do not step down to each other
            scattered = [(3, 0), (0, 3), (2, 2), (1, 3), (2, 2)]
            batch = ProductSampler([a, b]).colengths(scattered)
            assert batch == [want[p] for p in scattered]

    def test_a_later_round_climbs_from_the_last_root(self, monkeypatch):
        ideals = [
            parse_ideal(t, dim=3)
            for t in ("(x^2, x*y, y^3, z^2)", "(x^3, y, z^2)", "(x, y^2, y*z, z^3)")
        ]
        cube = list(iter_product(range(2), repeat=3))
        first, second = (2, 3, 1), (4, 4, 3)
        rounds = [[tuple(map(add, root, delta)) for delta in cube] for root in (first, second)]
        calls = []

        def counted(*args):
            calls.append(None)
            return multiply_field(*args)

        monkeypatch.setattr(lengths, "multiply_field", counted)
        sampler = ProductSampler(ideals)
        assert sampler.colengths(rounds[0]) == ProductSampler(ideals).colengths(rounds[0])
        calls.clear()
        values = sampler.colengths(rounds[1])
        # the climb from one root to the next ends in the new root's product
        assert len(calls) == sum(second) - sum(first) + len(rounds[1]) - 1
        assert values == ProductSampler(ideals).colengths(rounds[1])
        assert values == [
            colength(product(product(power(ideals[0], a), power(ideals[1], b)),
                             power(ideals[2], c)))
            for a, b, c in rounds[1]
        ]

    def test_module_rounds_make_one_product_per_point_below_their_top(self, monkeypatch):
        E = module(
            parse_ideal(t, dim=3)
            for t in ("(x^2, x*y, y^3, z^2)", "(x^3, y, z^2)", "(x, y^2, y*z, z^3)")
        )
        calls = []

        def counted(*args):
            calls.append(None)
            return multiply_field(*args)

        monkeypatch.setattr(lengths, "multiply_field", counted)
        sampler = shared_sampler(E.ideals)
        batch = sampler.colengths
        layers = set()

        def one_round(points):
            before = len(calls)
            values = batch(points)
            top = max(map(sum, points))
            # every product is of a lattice point with sum <= top, each at most once
            assert len(calls) - before <= comb(top + 3, 3)
            layers.update(map(sum, points))
            return values

        monkeypatch.setattr(sampler, "colengths", one_round)
        assert br_direct(E) == 46
        assert calls  # the bounds above count field products the walk really made
        calls.clear()
        for n in layers:
            module_colength(E, n)
        assert not calls  # the rounds' layers are all counted
        for n in range(1, 7):
            want = sum(
                colength(product(product(power(E.ideals[0], a), power(E.ideals[1], b)),
                                 power(E.ideals[2], c)))
                for a, b, c in iter_product(range(n + 1), repeat=3)
                if a + b + c == n
            )
            assert module_colength(E, n) == want

    def test_round_walk_makes_one_product_per_new_point(self, monkeypatch):
        # an order-(1,1,1,1) table of the default d = 4 corpus (lech_mixed, index 6)
        texts = ("(x^2, y^2, z^2, w)", "(x, y, z, w^2)", "(x, y, z^3, w)", "(x^2, y^2, z^3, w)")
        ideals = [parse_ideal(t, dim=4) for t in texts]
        calls = []

        def counted(*args):
            calls.append(None)
            return multiply_field(*args)

        monkeypatch.setattr(lengths, "multiply_field", counted)
        table = mixed_difference_table(ideals)
        assert table.order == (1, 1, 1, 1)
        # the climb from the unit ideal to the root ends in the root's field
        assert calls
        assert len(calls) <= sum(table.base) + len(table.samples) - 1
        fresh = ProductSampler(ideals)
        by_point = stabilize(
            lambda points: [fresh.colength_at(n) for n in points],
            table.order,
            StabilizePolicy(initial_base=table.base),
        )
        assert (table.base, table.samples, table.result) == (
            by_point.base, by_point.samples, by_point.result
        )

    def test_narrow_fields_widen_exactly(self):
        # the heights of I fit the narrower type, those of I^2 and I^3 do not
        a = 3
        widenings = ((2**7 + 1, np.uint8, np.uint16), (2**15 + 1, np.uint16, np.uint32))
        for b, narrow, wide in widenings:
            I = ideal([(a, 0), (0, b)], dim=2)
            sampler = ProductSampler([I])
            tops = [n * b for n in (1, 2, 3)]
            assert [counting.field_dtype(t) for t in tops] == [narrow, wide, wide]
            for n in (1, 2, 3):
                assert sampler.colength_at((n,)) == a * b * n * (n + 1) // 2
        # each table climbs through a widening: at n = 2 to uint16, at n = 256 to uint32
        for b in (2**7 + 1, 2**8 + 1):
            assert mixed_difference_table([ideal([(a, 0), (0, b)], dim=2)], (2,)).result == a * b

    def test_products_past_the_old_cell_budget_are_exact(self, monkeypatch):
        # fields of more than 2**20 cells, where a product was once held as
        # its minimal generators; (x^12, ...) peaks near 75 MiB in all
        sizes = []

        def counted(*args):
            h = multiply_field(*args)
            sizes.append(h.size)
            return h

        monkeypatch.setattr(lengths, "multiply_field", counted)
        for text, want in (("(x^7, y^7, z^7, w^10)", 7**3 * 10), ("(x^12, y^12, z^12, w^12)", 12**4)):
            sizes.clear()
            assert mixed_difference_table([parse_ideal(text, dim=4)], (4,)).result == want
            assert max(sizes) > FIELD_CELLS, text

    def test_all_zero_is_zero(self):
        sampler = ProductSampler([m_ideal(2), m_ideal(2)])
        assert sampler.colength_at((0, 0)) == 0

    def test_m_power_fast_path(self):
        sampler = ProductSampler([m_power(3, 2), m_ideal(3)])
        for a, b in [(0, 0), (1, 0), (2, 3), (5, 1)]:
            k = 2 * a + b
            assert sampler.colength_at((a, b)) == (comb(k - 1 + 3, 3) if k else 0)

    def test_unit_columns_are_inert(self):
        I = parse_ideal("(x^2, y^2)")
        sampler = ProductSampler([I, unit_ideal(2)])
        for n in range(4):
            assert sampler.colength_at((n, 7)) == sampler.colength_at((n, 0))

    def test_rejects_non_primary(self):
        with pytest.raises(NotMPrimaryError):
            ProductSampler([parse_ideal("(x^2, x*y)")])

    def test_exponents_must_be_non_negative(self):
        sampler = ProductSampler([parse_ideal("(x^2, y^2)"), m_ideal(2)])
        with pytest.raises(ValueError, match="non-negative"):
            sampler.colength_at((1, -1))

    def test_colength_of_product_wrapper(self):
        A, B = parse_ideal("(x, y^2)"), parse_ideal("(x^2, y)")
        assert colength_of_product([A, B], (1, 1)) == colength(product(A, B))
        assert colength_of_product([A, B], (0, 0)) == 0
        with pytest.raises(ValueError):
            colength_of_product([A, B], (1,))

    def test_exponents_must_be_integers(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        for bad in ((1.9,), (2.0,), ("1",), (None,)):
            with pytest.raises(ValueError, match="integers"):
                colength_of_product([I], bad)
        with pytest.raises(ValueError, match="integers"):
            ProductSampler([I]).colengths([(1,), (1.5,)])
        want = colength(power(I, 2))
        assert colength_of_product([I], (np.int64(2),)) == want
        assert ProductSampler([I]).colengths([np.array([2]), (np.uint8(2),)]) == [want, want]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_sampler_agrees_with_oracle_on_triples(na, nb, nc):
    a = parse_ideal("(x^2, x*y, y^3)")
    b = parse_ideal("(x, y^3)")
    c = m_ideal(2)
    sampler = ProductSampler([a, b, c])
    direct = product(product(power(a, na), power(b, nb)), power(c, nc))
    want = 0 if direct.is_unit else oracle_colength(direct)
    assert sampler.colength_at((na, nb, nc)) == want
