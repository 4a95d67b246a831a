"""Colengths: closed forms, counters, the product sampler."""

import os
import subprocess
import sys
import tracemalloc
from itertools import product as iter_product
from math import comb, prod
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multlab import (
    NotMPrimaryError,
    ProductSampler,
    colength,
    colength_naive,
    ideal,
    m_ideal,
    m_power,
    mixed_difference_table,
    parse_ideal,
    power,
    product,
    scale_by_m,
    stabilize,
    unit_ideal,
)
from multlab import counting, lengths
from multlab.buchsbaum_rim import br_direct, module, module_colength
from multlab.counting import count_grid, count_naive, field_counts
from multlab.counting import field_rows, multiply_field
from multlab.lengths import MEMO_ENTRIES
from multlab.monomial import box_bounds, compositions

from conftest import oracle_colength, oracle_field, oracle_power, oracle_product, random_mprimary


def field_of(gens, box, axis):
    """The naive field of `gens` along `axis`, in the type a field of its top keeps."""
    return oracle_field(gens, box, axis).astype(counting.field_dtype(box[axis]))


def multiply_one(h, box, J):
    """The product's field from the field h of P, exact on `box`, laid out on the product's box."""
    batch = counting.zero_fields(1, tuple(map(add, box, J.bounds)), J.axis)
    batch[(0, *map(slice, h.shape))] = h
    (got,) = multiply_field(batch, J)
    return got


def field_count(h):
    """`field_counts` on a batch of one field: its count."""
    (count,) = field_counts(h[None])
    return count


def sums(P, J):
    """Every sum of a row of P and a row of J: generators of the product, by definition."""
    P, J = np.asarray(P, dtype=np.int64), np.asarray(J, dtype=np.int64)
    return (P[:, None, :] + J[None, :, :]).reshape(-1, P.shape[1])


class TestCounters:
    def test_frozen_values(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        assert count_naive(I.gens, box_bounds(I)) == 4
        assert count_grid(I.gens, box_bounds(I)) == 4

    def test_one_dimension(self):
        I = ideal([(5,)], dim=1)
        assert count_grid(I.gens, (5,)) == 5
        assert count_naive(I.gens, (5,)) == 5

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
        # the narrowest type that holds the top, from the unit ideal's field on:
        # uint8 below 2**8, uint16 below 2**16, uint32 below 2**32, Python ints beyond
        ladder = ((2**8 - 1, np.uint8), (2**8, np.uint16), (2**16 - 1, np.uint16),
                  (2**16, np.uint32), (2**32 - 1, np.uint32), (2**32, object))
        unit = np.zeros((0,), counting.field_dtype(0))
        for top, dtype in ladder:
            h = multiply_one(unit, (0, 0), field_rows([[1, top - 1]], (3, top), 1))
            assert h.dtype == dtype
            assert h.tolist() == [top, top - 1, top - 1]
            grown = multiply_one(h, (3, top), field_rows([[0, top], [1, 0]], (1, top), 1))
            assert grown.dtype == counting.field_dtype(2 * top)
            assert grown.tolist() == [2 * top, top, top - 1, top - 1]
        tall = multiply_one(unit, (0, 0), field_rows([[1, 2**32]], (3, 2**32 + 1), 1))
        assert tall.dtype == object
        assert tall.tolist() == [2**32 + 1, 2**32, 2**32]

    def test_heights_far_above_the_top_are_clamped(self):
        # P*J on a uint8 field (top 6); unclamped, h + 255 wraps and h + 2**40 overflows
        P, J = parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^2, y^3)")
        box, gen_box = box_bounds(P), box_bounds(J)
        h = field_of(P.gens, box, 1)
        redundant = np.vstack([J.gens, [[0, 255], [1, 2**40]]])
        got = multiply_one(h, box, field_rows(redundant.tolist(), gen_box, 1))
        out_box = tuple(map(add, box, gen_box))
        rows = sums(P.gens, redundant)
        assert got.dtype == np.uint8
        assert got.tolist() == oracle_field(rows, out_box, 1).tolist()
        assert field_count(got) == count_naive(rows, out_box) == colength(product(P, J))

    def test_one_dimension_fields_are_arrays(self):
        # d = 1: each field is 0-d, so a batch is 1-d, and each min-plus
        # update must keep it an array of the batch's type
        unit = multiply_field(counting.zero_fields(1, (2,), 0), field_rows([[2]], (2,), 0))
        assert isinstance(unit, np.ndarray) and unit.tolist() == [2]
        # the fields of (x^3) and of (x), in the type of the product's top, times (x^2, x^7)
        h = np.array([field_of([[3]], (5,), 0), field_of([[1]], (5,), 0)])
        grown = multiply_field(h, field_rows([[2], [7]], (2,), 0))
        assert grown.dtype == np.uint8 and grown.tolist() == [5, 3]
        assert field_counts(grown) == [count_naive([[5]], (5,)), count_naive([[3]], (5,))]
        # past 2**32 a batch of 0-d fields holds Python ints
        tall = multiply_field(counting.zero_fields(1, (2**32,), 0), field_rows([[2**32]], (2**32,), 0))
        assert tall.dtype == object and tall.tolist() == [2**32] == field_counts(tall)

    def test_uint8_fields_count_exactly_on_both_sides_of_2_24_cells(self):
        # a uint8 field of 255s sums below 2**32 up to 2**24 cells, as
        # 255 * 2**24 < 2**32, and past it at 2**24 + 2**17 cells, where a
        # uint32 accumulator would wrap: both sides must count exactly
        assert field_count(np.full((2**6, 2**7, 2**7), 255, np.uint8)) == 255 * 2**20
        for cells in (2**24, 2**24 + 2**17):
            assert field_count(np.full(cells, 255, np.uint8)) == 255 * cells

    def test_rows_past_the_box_off_the_height_axis_allocate_nothing(self):
        # the height axis is w; rows at 2**40 on x, y or z lie past the box
        # and lower no cell: their views of the field are empty, and the
        # only arrays are the box's own
        box = (3, 3, 3, 9)
        far = 2**40
        rows = np.array([[1, 1, 1, 4], [far, 0, 0, 0], [0, far, 0, 1], [0, 0, far, 2], [0, far, far, 0]])
        tracemalloc.start()
        try:
            got = count_grid(rows, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == count_naive(rows, box) == 3 * 3 * 3 * 9 - 2 * 2 * 2 * 5
        assert peak < 2**14, peak

    def test_redundant_generators_ok(self):
        # counters must not require minimal generating sets
        I = parse_ideal("(x^2, x*y, y^3)")
        arr = np.vstack([I.gens, [[5, 5], [2, 1], [2, 0]]]).astype(np.int64)
        assert count_grid(arr, box_bounds(I)) == 4

    def test_grid_inputs_are_checked(self):
        assert count_grid([[1, 0]], (2, 0)) == 0  # an empty box holds no point
        for rows in ([[1, 0, 0]], [1, 0]):
            with pytest.raises(ValueError, match=r"must be \(n, d\)"):
                count_grid(rows, (2, 2))


@st.composite
def ideal_pairs(draw):
    """(P, J, axis), each ideal as (generator rows, pure-power bounds), in d = 1-4.

    Short sides, and the product's top on both sides of 2**8, 2**16 and
    2**32: rows past monomial.MAX_EXPONENT, as the sampler's fields reach,
    so they are rows, not ideals.  Beside its pure powers each ideal has up
    to five rows with two or more nonzero exponents, each below its bound.
    """
    d = draw(st.integers(1, 4))
    axis = draw(st.integers(0, d - 1))
    base = draw(st.sampled_from((0, 2**7 - 40, 2**15 - 40, 2**31 - 40)))
    pair = []
    for _ in range(2):
        bounds = [draw(st.integers(1, 3)) for _ in range(d)]
        bounds[axis] = base + draw(st.integers(1, 80))
        gens = [tuple(k * (i == j) for j in range(d)) for i, k in enumerate(bounds)]
        extras = draw(st.lists(st.tuples(*(st.integers(0, k - 1) for k in bounds)), max_size=5))
        gens += [g for g in extras if sum(map(bool, g)) > 1]
        pair.append((gens, tuple(bounds)))
    return (*pair, axis)


@st.composite
def generator_rows(draw, J, axis):
    """J's rows shuffled among repeats and multiples, some of them past J's bound on `axis`."""
    gens, bounds = J
    rows = gens + draw(st.lists(st.sampled_from(gens), max_size=4))
    for g in draw(st.lists(st.sampled_from(gens), max_size=4)):
        multiple = [e + draw(st.integers(0, b - e)) for e, b in zip(g, bounds)]
        multiple[axis] += draw(st.sampled_from((0, 1, 2**8, 2**16, 2**40)))
        rows.append(multiple)
    return np.array(draw(st.permutations(rows)), dtype=np.int64)


@st.composite
def boxes_and_rows(draw):
    """A box in d = 1-4 and rows to count in it.

    The box need not be the rows' pure-power bounds.  Rows repeat, some
    divide others, and some lie at or past the box on one axis, the height
    axis or another, by up to 2**40.
    """
    d = draw(st.integers(1, 4))
    box = tuple(draw(st.integers(1, 8 - d)) for _ in range(d))
    rows = draw(st.lists(st.tuples(*(st.integers(0, b - 1) for b in box)), min_size=1, max_size=6))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    for g in draw(st.lists(st.sampled_from(rows), max_size=3)):
        i = draw(st.integers(0, d - 1))
        rows.append(g[:i] + (box[i] + draw(st.sampled_from((0, 1, 2**40))),) + g[i + 1 :])
    return box, np.array(draw(st.permutations(rows)), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(boxes_and_rows())
def test_count_grid_matches_the_naive_walk(case):
    box, rows = case
    assert count_grid(rows, box) == count_naive(rows, box)


@settings(max_examples=60, deadline=None)
@given(ideal_pairs(), st.data())
def test_multiply_field_matches_the_field_of_the_product(pair, data):
    # P's field laid out on the product's box plus a margin of 0-3 cells per
    # axis: the product's field on its own box, 0 on the rest, in the type
    # of the layout's top
    (P, box), J, axis = pair
    rows = data.draw(generator_rows(J, axis))
    out_box = tuple(map(add, box, J[1]))
    margin = data.draw(st.lists(st.integers(0, 3), min_size=len(box), max_size=len(box)))
    layout = tuple(map(add, out_box, margin))
    got = multiply_field(field_of(P, layout, axis)[None], field_rows(rows.tolist(), J[1], axis))
    assert got.dtype == counting.field_dtype(layout[axis])
    inner = (slice(None), *(slice(b) for i, b in enumerate(out_box) if i != axis))
    assert got[inner].tolist() == [oracle_field(sums(P, rows), out_box, axis).tolist()]
    rest = got.copy()
    rest[inner] = 0
    assert not rest.any()


class TestFieldKernelEdges:
    """Slice edges of the strided min-plus update.

    A shift of 0 must read the whole axis, a shift equal to the product's
    side must give empty views, and every sum must fit the product's own
    type.  Every case is judged by the naive field of the sums of the two
    generator arrays.
    """

    @staticmethod
    def pure_powers(bounds):
        d = len(bounds)
        return [[k * (i == j) for j in range(d)] for i, k in enumerate(bounds)]

    def case(self, rng, d, axis, top, side):
        """P and J as generator arrays with their bounds, for a product whose top is `top`.

        P is the unit ideal when `side` is None, and otherwise has bound
        `side` on every axis but `axis`.  J has bounds 2-3 on those axes.
        Beside its pure powers it carries, at height 0 and at the largest
        height below b_c, every shift that is 0 on some of those axes and
        the largest below the pure power on the others; and at height 0,
        on each of those axes, a shift equal to the product's side.
        """
        bounds = [rng.randint(2, 3) for _ in range(d)]
        bounds[axis] = top if side is None else rng.randint(top // 3, 2 * top // 3)
        box = [0 if side is None else side] * d
        box[axis] = top - bounds[axis]
        rest = [i for i in range(d) if i != axis]
        J = self.pure_powers(bounds)
        for on in iter_product((0, 1), repeat=d - 1):
            if any(on):
                for c in (0, bounds[axis] - 1):
                    g = [c] * d
                    for i, bit in zip(rest, on):
                        g[i] = (bounds[i] - 1) * bit
                    J.append(g)
        for i in rest:
            J.append([(box[i] + bounds[i]) * (j == i) for j in range(d)])
        if side is None:
            P = [[0] * d]
        else:
            P = self.pure_powers(box)
            if d > 1 and side > 1:
                P.append([box[axis] // 2 if j == axis else 1 for j in range(d)])
        return np.array(P), box, np.array(J), bounds

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_reads_past_the_box(self, d, rng):
        # tops just below 2**8 and 2**16, where the field's type has no room above the top
        for axis, top, side in iter_product(range(d), (2**8 - 1, 2**16 - 2, 9), (None, 1, 2)):
            for _ in range(2):
                P, box, gens, bounds = self.case(rng, d, axis, top, side)
                if side is None:
                    h = np.zeros((0,) * (d - 1), counting.field_dtype(0))
                else:
                    h = field_of(P, box, axis)
                J = field_rows(gens.tolist(), bounds, axis)  # rows of Python ints, as taken
                got = multiply_one(h, box, J)
                out_box = tuple(map(add, box, bounds))
                assert out_box[axis] == top
                assert got.dtype == counting.field_dtype(top)
                assert got.tolist() == oracle_field(sums(P, gens), out_box, axis).tolist()

    def test_a_product_allocates_its_field_and_one_sum(self):
        # J shifts by up to 13 on x, y and z; on a batch laid out on the
        # product's box the product is one fresh C-contiguous array of that
        # box, and the call holds at most one sum of its size beside it, with
        # no copy of its input
        P = parse_ideal("(x^30, y^30, z^30, w^80, x^9*y^9*z^9*w)", dim=4)
        J = parse_ideal("(x^14, y^14, z^14, w^60, x^13*w, y^13*w^2, z^13, x^12*y^12*z^12)", dim=4)
        box, bounds = box_bounds(P), box_bounds(J)
        unit = np.zeros((0, 0, 0), counting.field_dtype(0))
        h = multiply_one(unit, (0,) * 4, field_rows(P.gens, box, 3))
        batch = counting.zero_fields(1, tuple(map(add, box, bounds)), 3)
        batch[(0, *map(slice, h.shape))] = h
        rows = field_rows(J.gens, bounds, 3)
        tracemalloc.start()
        try:
            got = multiply_field(batch, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == batch.shape == (1, 44, 44, 43) and got.dtype == np.uint8
        assert got.flags.c_contiguous and got.base is None
        assert peak <= 2 * got.nbytes + (16 << 10), (peak, got.nbytes)
        assert field_counts(got) == [colength(product(P, J))]

    def test_fields_past_numpys_maximum_size_are_out_of_memory(self):
        # numpy refuses these shapes with a ValueError before it asks for
        # memory; the layout of a batch refuses them first, with nothing
        # allocated, and count_grid lays its field out there
        assert np.iinfo(np.intp).max == sys.maxsize  # the bound they compare with
        with pytest.raises(MemoryError, match="maximum array size"):
            counting.zero_fields(1, [2**21] * 4, 0)
        with pytest.raises(MemoryError, match="maximum array size"):
            count_grid(np.array(self.pure_powers([2**31] * 4)), [2**31] * 4)


class TestColength:
    def test_frozen_examples(self):
        assert colength(parse_ideal("(x^2, x*y, y^3)")) == 4
        assert colength(power(parse_ideal("(x^2, y^2)"), 3)) == 24
        assert colength(m_power(2, 3)) == 6
        assert colength(m_power(3, 3)) == 10

    def test_unit_ideal_is_zero(self, monkeypatch):
        # R's box is (0, ..., 0): both counters see it and count 0, with no branch for R
        counted = []
        for name, counter in (("count_grid", count_grid), ("count_naive", count_naive)):
            monkeypatch.setattr(lengths, name, lambda *a, c=counter: counted.append(a[1]) or c(*a))
        for d in (1, 2, 3, 4):
            assert colength(unit_ideal(d)) == 0
            assert colength_naive(unit_ideal(d)) == 0
        assert counted == [(0,) * d for d in (1, 2, 3, 4) for _ in range(2)]

    def test_not_m_primary_raises(self):
        with pytest.raises(NotMPrimaryError):
            colength(parse_ideal("(x^2, x*y)"))

    @given(st.integers(1, 5), st.integers(0, 7))
    @example(4, 20)
    def test_m_power_closed_form(self, d, k):
        # colength has no binomial shortcut, so the closed form checks count_grid
        # (8 855 for m^20 in d = 4), and m^0 = R counts comb(d - 1, d) = 0
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
        # nothing to check.  The second input builds a power of 1 140
        # generators, each product minimalized by the sweep `monomial._sweep`.
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
        # judged by the naive product and the naive box walk, not by the field kernel
        pairs = [(random_mprimary(rng, 2), random_mprimary(rng, 2)) for _ in range(8)]
        pairs += [(random_mprimary(rng, d), random_mprimary(rng, d)) for d in (1, 3, 4)]
        pairs.append((scale_by_m(random_mprimary(rng, 3)), random_mprimary(rng, 3)))
        pairs.append((random_mprimary(rng, 4), unit_ideal(4)))
        pairs = [(a, b, 6) for a, b in pairs]  # with the largest na + nb to check
        # pairs with mixed generators, whose fields have interior corners; in
        # d = 4 up to na + nb = 4, since the naive walk of the 12^4 box of
        # (3, 3) takes seconds
        for d, k in ((2, 4), (3, 2), (4, 2), (1, 4)):
            for _ in range(2):
                a, b = (random_mprimary(rng, d, k, mixed=True) for _ in range(2))
                pairs.append((a, b, 6 if d < 4 else 4))
        pairs.append((random_mprimary(rng, 4, 2, mixed=True), unit_ideal(4), 4))
        for a, b, most in pairs:
            sampler = ProductSampler([a, b])
            want = {}
            for na in range(4):
                for nb in range(min(4, most + 1 - na)):
                    direct = oracle_product(oracle_power(a, na), oracle_power(b, nb))
                    want[na, nb] = 0 if direct.is_unit else oracle_colength(direct)
                    assert sampler.colength_at((na, nb)) == want[na, nb]
            # one batch whose points do not step down to each other
            scattered = [(3, 0), (0, 3), (2, 2), (1, 3), (2, 2)]
            batch = ProductSampler([a, b]).colengths(scattered)
            assert batch == [want[p] for p in scattered]

    def test_module_rounds_make_one_product_per_point_below_their_top(self, monkeypatch):
        E = module(
            parse_ideal(t, dim=3)
            for t in ("(x^2, x*y, y^3, z^2)", "(x^3, y, z^2)", "(x, y^2, y*z, z^3)")
        )
        calls = []  # one entry per product: a call makes one per row of its batch

        def counted(h, *args):
            calls.extend([None] * len(h))
            return multiply_field(h, *args)

        monkeypatch.setattr(lengths, "multiply_field", counted)
        # the rounds hand their n to the walk over the compositions
        walk = ProductSampler._composition_sums
        layers = set()

        def one_round(sampler, ns, copies):
            before = len(calls)
            values = walk(sampler, ns, copies)
            top = max(ns)
            # every product is of a lattice point with sum <= top, each at most once
            assert len(calls) - before <= comb(top + 3, 3)
            layers.update(ns)
            return values

        monkeypatch.setattr(ProductSampler, "_composition_sums", one_round)
        assert br_direct(E) == 46
        assert layers  # the per-round bound above held on every round br_direct made
        assert calls  # the bounds above count field products the climb really made
        for n in sorted(layers):
            calls.clear()
            module_colength(E, n)
            # one climb: a product per lattice point with sum <= n but the zero vector
            assert len(calls) <= comb(n + 3, 3) - 1
        for n in range(1, 7):
            want = sum(
                colength(product(product(power(E.ideals[0], a), power(E.ideals[1], b)),
                                 power(E.ideals[2], c)))
                for a, b, c in iter_product(range(n + 1), repeat=3)
                if a + b + c == n
            )
            assert module_colength(E, n) == want

    @pytest.mark.parametrize("call", [
        lambda J: mixed_difference_table([J], (3,)).result,
        lambda J: br_direct(module([J])),
    ], ids=["mixed_difference_table", "br_direct"])
    def test_no_product_outlives_a_call(self, call):
        # a product field of this ideal's table rounds holds about 300 KiB
        call(parse_ideal("(x^2, y^2, z^2, x*y*z)"))  # imports and first-use set-up
        tracemalloc.start()
        try:
            assert call(parse_ideal("(x^20, y^18, z^19, x^3*y^4*z^5)")) == 4346  # e(I)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 32 << 10

    def test_table_round_climbs_the_meet_once_and_each_point_from_it(self, monkeypatch):
        # an order-(1,1,1,1) table of the default d = 4 corpus (lech_mixed, index 6)
        texts = ("(x^2, y^2, z^2, w)", "(x, y, z, w^2)", "(x, y, z^3, w)", "(x^2, y^2, z^3, w)")
        ideals = [parse_ideal(t, dim=4) for t in texts]
        calls = []  # one entry per product: a call makes one per row of its batch

        def counted(h, *args):
            calls.extend([None] * len(h))
            return multiply_field(h, *args)

        monkeypatch.setattr(lengths, "multiply_field", counted)
        table = mixed_difference_table(ideals)
        assert (table.order, table.rounds) == ((1, 1, 1, 1), 1)
        # the climb from the unit ideal to the round's meet, then one climb
        # per distinct point from the meet, a product per step
        points = [p for p, _ in table.samples]
        meet = tuple(map(min, zip(*points)))
        want = sum(meet) + sum(sum(p) - sum(meet) for p in set(points))
        assert len(calls) == want == 292
        fresh = ProductSampler(ideals)
        by_point = stabilize(
            lambda points: [fresh.colength_at(n) for n in points],
            table.order,
            base=table.base[0],
        )
        assert (table.base, table.samples, table.result) == (
            by_point.base, by_point.samples, by_point.result
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_points_climb_from_a_meet_above_zero(self, d, rng):
        # every slot's meet is at least 1 and every slot takes two values or
        # more, so each point climbs from a meet field that is no unit
        # ideal's; a point repeats, and a unit slot and a repeated ideal
        # each fill a slot; judged by products by definition
        A, B = (random_mprimary(rng, d, 3, mixed=True) for _ in range(2))
        cases = (
            ([A, B], [(1, 2), (2, 1), (1, 2), (3, 1)]),
            ([A, unit_ideal(d), B], [(1, 1, 2), (2, 3, 1), (1, 2, 1), (1, 1, 2)]),
            ([B, A, B], [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1)]),
        )
        for ideals, points in cases:
            want = []
            for n in points:
                direct = unit_ideal(d)
                for I, e in zip(ideals, n):
                    direct = oracle_product(direct, oracle_power(I, e))
                want.append(oracle_colength(direct))
            assert ProductSampler(ideals).colengths(points) == want, (ideals, points)

    def test_zero_vectors_duplicates_and_unit_slots_enter_the_walk(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        assert ProductSampler([I, I]).colengths([(0, 0), (1, 0), (0, 0)]) == [0, 4, 0]
        assert ProductSampler([I]).colengths([]) == []
        J = parse_ideal("(x^3)", dim=1)  # in d = 1 the unit ideal's field is 0-d
        assert ProductSampler([J]).colengths([(0,), (2,), (0,)]) == [0, 6, 0]
        assert module_colength(module([J]), 0) == 0
        assert ProductSampler([J, unit_ideal(1)]).colengths([(0, 5), (1, 0)]) == [0, 3]

    def test_tiny_chunks_give_the_counts_of_one_batch(self, monkeypatch):
        # a budget of 4 cells splits every level of the module round's walk
        # into chunks of one or two rows; it must count what it counts
        # unsplit, with the same products in more kernel calls.  The table
        # round climbs each point alone, in no chunk, and must count what
        # a fresh sampler counts one point at a time
        E = module(
            parse_ideal(t, dim=3)
            for t in ("(x^2, x*y, y^3, z^2)", "(x^3, y, z^2)", "(x, y^2, y*z, z^3)")
        )
        texts = ("(x^2, y^2, z^2, w)", "(x, y, z, w^2)", "(x, y, z^3, w)", "(x^2, y^2, z^3, w)")
        ideals = [parse_ideal(t, dim=4) for t in texts]
        rounds, calls = [], []
        walks = {name: getattr(ProductSampler, name) for name in ("_composition_sums", "colengths")}

        def hooked(walk):
            def one_round(sampler, *args):
                rounds.append((walk, sampler, args))
                return walk(sampler, *args)
            return one_round

        def counted(h, *args):
            out = multiply_field(h, *args)
            calls.append(len(h))
            # a batch of more than one field keeps within the budget
            assert len(h) == 1 or out.size <= lengths.BATCH_CELLS, (out.shape, lengths.BATCH_CELLS)
            return out

        for name, walk in walks.items():
            monkeypatch.setattr(ProductSampler, name, hooked(walk))
        monkeypatch.setattr(lengths, "multiply_field", counted)
        monkeypatch.setattr(lengths, "BATCH_CELLS", 4)
        assert br_direct(E) == 46
        table = mixed_difference_table(ideals)
        assert (table.order, table.rounds, table.result) == ((1, 1, 1, 1), 1, 2)
        split = []
        for walk, sampler, args in rounds:
            calls.clear()
            split.append((walk(sampler, *args), len(calls), sum(calls)))
        monkeypatch.setattr(lengths, "BATCH_CELLS", 1 << 62)
        for (walk, sampler, args), (values, kernel_calls, products) in zip(rounds, split):
            calls.clear()
            assert walk(sampler, *args) == values
            if walk is walks["_composition_sums"]:
                assert sum(calls) == products and len(calls) < kernel_calls
        # the module round, judged by the naive count where its boxes are small
        (walk, sampler, (ns, copies)), (values, _, _) = rounds[0], split[0]
        assert walk is walks["_composition_sums"] and sampler.ideals == E.ideals
        low = compositions(4, 3)
        assert len(low) == 15 and copies == (1, 1, 1)
        want = 0
        for p in low:
            P = unit_ideal(3)
            for I, e in zip(E.ideals, p):
                P = product(P, power(I, e))
            want += count_naive(P.gens, box_bounds(P))
        assert values[ns.index(4)] == want
        # the table round, judged one point at a time by a fresh sampler
        (walk, sampler, (points,)), (values, _, _) = rounds[1], split[1]
        assert walk is walks["colengths"]
        assert values == [ProductSampler(ideals).colength_at(p) for p in points]

    def test_rows_of_one_batch_widen_at_different_steps(self, monkeypatch):
        # the walk over the compositions of n <= 3 into (J, I) climbs J first,
        # a batch of one whose top 3c fits the narrower type, and keeps J^q,
        # q = 0..3; the last level lays those rows out as one batch, in the
        # type of its top 3c + 3a, and they climb I together.  Row q tops out
        # at q*c + t*a after t steps: row 2 crosses 2**8 (or 2**16) at step
        # 1, rows 0 and 1 at step 2, and every step keeps the batch's type
        seen = []

        def counted(h, *args):
            out = multiply_field(h, *args)
            seen.append((len(h), h.dtype, out.dtype))
            return out

        monkeypatch.setattr(lengths, "multiply_field", counted)
        for a, c, narrow, wide in ((2**7 + 1, 2**6, np.uint8, np.uint16),
                                   (2**15 + 1, 2**14, np.uint16, np.uint32)):
            I, J = ideal([(1, 0), (0, a)], dim=2), ideal([(1, 0), (0, c)], dim=2)
            want = {}
            for q, p in iter_product(range(4), repeat=2):
                direct = oracle_product(oracle_power(J, q), oracle_power(I, p))
                want[q, p] = 0 if direct.is_unit else oracle_colength(direct)
            seen.clear()
            sums = ProductSampler([J, I])._composition_sums([0, 1, 2, 3], (1, 1))
            assert (1, narrow, narrow) in seen and (3, wide, wide) in seen
            assert all(before == after for _, before, after in seen)
            assert sums == [sum(want[q, n - q] for q in range(n + 1)) for n in range(4)], a
            points = list(iter_product(range(3), range(4)))
            got = ProductSampler([J, I]).colengths(points)
            assert got == [want[p] for p in points], a
        # heights past 2**32 are Python ints: (x, y^b)^n has colength b*n*(n+1)/2
        b = 2**31 - 1
        I = ideal([(1, 0), (0, b)], dim=2)
        assert ProductSampler([I]).colengths([(1,), (2,), (3,)]) == [b, 3 * b, 6 * b]

    def test_eleven_hundred_distinct_slots_climb_in_a_loop(self):
        # one level per slot: a climb that recursed per level would pass the
        # interpreter's stack near a thousand slots.  (x^k) in d = 1 has
        # colength k, so each unit vector reads its own slot's k
        sampler = ProductSampler([ideal([(k,)], dim=1) for k in range(1, 1101)])
        units = (0, 1, 549, 1099)
        points = [tuple(int(i == j) for i in range(1100)) for j in units] + [(0,) * 1100]
        assert sampler.colengths(points) == [1, 2, 550, 1100, 0]

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
        # its minimal generators; (x^12, ...) peaks near 59 MiB resident in all
        sizes = []

        def counted(*args):
            h = multiply_field(*args)
            sizes.append(h.size)
            return h

        monkeypatch.setattr(lengths, "multiply_field", counted)
        for text, want in (("(x^7, y^7, z^7, w^10)", 7**3 * 10), ("(x^12, y^12, z^12, w^12)", 12**4)):
            sizes.clear()
            tracemalloc.start()
            try:
                assert mixed_difference_table([parse_ideal(text, dim=4)], (4,)).result == want
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert max(sizes) > 2**20, text
        # each batch laid out once: after the first table as a warm-up, the
        # (x^12, ...) table peaks below 30 MiB of traced allocations (35.9 MiB
        # when every step padded a copy of its input to the product's box)
        assert peak < 30 << 20, peak

    def test_all_zero_is_zero(self):
        sampler = ProductSampler([m_ideal(2), m_ideal(2)])
        assert sampler.colength_at((0, 0)) == 0

    def test_products_of_m_powers_count_the_binomial_of_their_degree(self):
        sampler = ProductSampler([m_power(3, 2), m_ideal(3)])
        for a, b in [(0, 0), (1, 0), (2, 3), (5, 1)]:
            k = 2 * a + b
            assert sampler.colength_at((a, b)) == (comb(k - 1 + 3, 3) if k else 0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_m_power_binomial_equals_the_walk(self, d):
        # powers of m, and R as m^0: lambda(R / m^k) is comb(k - 1 + d, d),
        # and 0 at k = 0, so a product of powers of m counts the binomial of
        # its degree.  That binomial is the oracle: over the compositions a
        # of each n of a window, the sum of prod_g C(a_g + m_g - 1, m_g - 1)
        # times it.  The walk over compositions, which climbs fields for
        # these columns as for any other, and the point climb, summed over
        # the same compositions, must both equal it, n = 0 included; and the
        # point climb must count the binomial at every point of a grid
        def binomial(k):
            return comb(k - 1 + d, d) if k else 0

        for ks in ((1,), (2,), (3,), (1, 2), (3, 1), (1, 2, 3)):
            for unit in (False, True):
                degrees = ks + (0,) * unit
                ideals = [m_power(d, k) for k in ks] + [unit_ideal(d)] * unit
                sampler = ProductSampler(ideals)
                for copies in ((1,) * len(ideals), tuple(range(1, len(ideals) + 1))):
                    for ns in ([0, 1, 2, 3], [0, 4]):
                        want, climbed = [], []
                        for n in ns:
                            points = compositions(n, len(ideals))
                            weights = [prod(comb(a + m - 1, m - 1) for a, m in zip(p, copies))
                                       for p in points]
                            want.append(sum(w * binomial(sum(map(mul, p, degrees)))
                                            for w, p in zip(weights, points)))
                            climbed.append(sum(map(mul, weights, sampler.colengths(points))))
                        case = (d, ks, unit, copies, ns)
                        assert sampler._composition_sums(ns, copies) == want, case
                        assert climbed == want, case
                points = list(iter_product(range(3), repeat=len(ideals)))
                want = [binomial(sum(map(mul, n, degrees))) for n in points]
                assert sampler.colengths(points) == want, (d, ks, unit)

    def test_unit_columns_are_inert(self):
        I = parse_ideal("(x^2, y^2)")
        sampler = ProductSampler([I, unit_ideal(2)])
        for n in range(4):
            assert sampler.colength_at((n, 7)) == sampler.colength_at((n, 0))

    def test_rejects_non_primary(self):
        with pytest.raises(NotMPrimaryError):
            ProductSampler([parse_ideal("(x^2, x*y)")])
        with pytest.raises(ValueError, match="at least one ideal"):
            ProductSampler([])

    def test_exponents_must_be_non_negative(self):
        sampler = ProductSampler([parse_ideal("(x^2, y^2)"), m_ideal(2)])
        with pytest.raises(ValueError, match="non-negative"):
            sampler.colength_at((1, -1))

    def test_colength_of_product_wrapper(self):
        # lambda(R / A^n1 B^n2) straight from the sampler, which replaced the
        # one-line colength_of_product wrapper
        A, B = parse_ideal("(x, y^2)"), parse_ideal("(x^2, y)")
        sampler = ProductSampler([A, B])
        assert sampler.colength_at((1, 1)) == colength(product(A, B))
        assert sampler.colength_at((0, 0)) == 0
        with pytest.raises(ValueError, match="length"):  # one exponent per ideal
            sampler.colength_at((1,))

    def test_exponents_must_be_integers(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        for bad in ((1.9,), (2.0,), ("1",), (None,)):
            with pytest.raises(ValueError, match="integers"):
                ProductSampler([I]).colength_at(bad)
        with pytest.raises(ValueError, match="integers"):
            ProductSampler([I]).colengths([(1,), (1.5,)])
        want = colength(power(I, 2))
        assert ProductSampler([I]).colength_at((np.int64(2),)) == want
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
