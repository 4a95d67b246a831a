"""Buchsbaum-Rim multiplicities: module colengths and the two routes."""

from itertools import product as iter_product
from math import comb

import numpy as np
import pytest

from multlab import (
    DirectSumModule,
    br_direct,
    br_via_mixed,
    colength,
    composition_count,
    hilbert_samuel,
    m_ideal,
    m_power,
    mixed_multiplicity,
    module,
    module_colength,
    parse_ideal,
    power,
    scale_by_m,
    unit_ideal,
)
from multlab import closure
from multlab.monomial import compositions

from conftest import random_mprimary


class TestModule:
    def test_construction(self):
        E = module([m_ideal(2), parse_ideal("(x^2, y^2)")])
        assert E.rank == 2
        assert E.dim == 2
        assert E.contained_in_mF

    def test_unit_columns_allowed(self):
        E = module([unit_ideal(2), m_ideal(2)])
        assert not E.contained_in_mF
        assert E.quotient_colength() == 1

    def test_rejects_an_empty_direct_sum(self):
        with pytest.raises(ValueError, match="at least one column"):
            DirectSumModule(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            module([m_ideal(2), m_ideal(3)])

    def test_rejects_non_primary_proper_columns(self):
        with pytest.raises(ValueError):
            module([parse_ideal("(x^2, x*y)")])

    def test_quotient_colength_sums_columns(self):
        E = module([m_power(2, 2), m_power(2, 3)])
        assert E.quotient_colength() == colength(m_power(2, 2)) + colength(
            m_power(2, 3)
        )


class TestModuleColength:
    def test_frozen_example(self):
        E = module([m_ideal(2), m_ideal(2)])
        # lambda(Sym^2 F / E^2) = lambda(R/m^2)*3 = 9
        assert module_colength(E, 2) == 9

    def test_n_zero_and_one(self):
        E = module([m_ideal(2), m_power(2, 2)])
        assert module_colength(E, 0) == 0
        assert module_colength(E, 1) == E.quotient_colength()

    def test_n_must_be_an_integer(self):
        E = module([parse_ideal("(x^2, x*y, y^3)"), m_ideal(2)])
        for n in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="integers"):
                module_colength(E, n)
        assert module_colength(E, np.int64(2)) == module_colength(E, 2)

    def test_n_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            module_colength(module([m_ideal(2), m_ideal(2)]), -1)

    def test_rank_one_reduces_to_powers(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        E = module([I])
        for n in range(5):
            assert module_colength(E, n) == colength(power(I, n))

    def test_m_copies_closed_form(self):
        # all columns m: sum over compositions of colength(m^n)
        d, r = 2, 3
        E = module([m_ideal(d)] * r)
        for n in range(1, 5):
            expected = comb(n + r - 1, r - 1) * colength(m_power(d, n))
            assert module_colength(E, n) == expected

    def test_a_thousand_columns_walk_without_recursion(self):
        # the sampler's prefix walk takes one level per column; a walk that
        # recursed per level raised RecursionError past about 1 000 columns
        E = module([parse_ideal("(x^2, y)")] * 1100)
        assert module_colength(E, 1) == 2200


class TestBuchsbaumRim:
    def test_frozen_examples(self):
        assert br_direct(module([m_ideal(2), m_ideal(2)])) == 3
        assert br_via_mixed(module([m_ideal(2), m_ideal(2)])) == 3
        E = module([m_power(4, 2), m_power(4, 2)])
        assert br_direct(E) == 80
        assert br_via_mixed(E) == 80
        Emix = module([m_ideal(2), parse_ideal("(x^2, y^2)")])
        assert br_direct(Emix) == 7
        assert br_via_mixed(Emix) == 7
        # m^a_1 + ... + m^a_r has br = h_d(a_1, ..., a_r), the complete
        # homogeneous polynomial: h_2(1, 2) = 1 + 2 + 4 and h_3(1, 2, 3) = 90
        for E, want in ((module([m_ideal(2), m_power(2, 2)]), 7),
                        (module([m_ideal(3), m_power(3, 2), m_power(3, 3)]), 90)):
            assert br_direct(E) == want
            assert br_via_mixed(E) == want

    def test_rank_past_the_recursion_limit(self):
        # 1 100 columns (x^2) in d = 1: br = the sum of the column multiplicities
        assert br_via_mixed(module([parse_ideal("(x^2)")] * 1100)) == 2200

    def test_rank_one_is_hilbert_samuel(self, rng):
        for _ in range(6):
            d = rng.randint(2, 3)
            I = random_mprimary(rng, d)
            E = module([I])
            e = hilbert_samuel(I)
            assert br_direct(E) == e
            assert br_via_mixed(E) == e

    def test_routes_agree_random(self, rng):
        for _ in range(10):
            d = rng.randint(2, 3)
            r = rng.randint(1, 3)
            E = module([random_mprimary(rng, d) for _ in range(r)])
            assert br_direct(E) == br_via_mixed(E)

    def test_unit_column_drops_out(self, rng):
        # a free summand contributes nothing: br(I + R e) == e(I)
        for _ in range(4):
            I = random_mprimary(rng, 2)
            E = module([I, unit_ideal(2)])
            want = hilbert_samuel(I)
            assert br_direct(E) == want
            assert br_via_mixed(E) == want

    def test_rejects_full_module(self):
        with pytest.raises(ValueError):
            br_direct(module([unit_ideal(2), unit_ideal(2)]))
        with pytest.raises(ValueError):
            br_via_mixed(module([unit_ideal(2)]))

    def test_closure_sum_equals_the_composition_sum(self, rng):
        # the replaced route as the oracle: one mixed multiplicity per
        # composition a of d, skipping those that weigh a unit column
        def composition_sum(E):
            d, r = E.dim, E.rank
            return sum(
                mixed_multiplicity(list(E.ideals), a)
                for a in iter_product(range(d + 1), repeat=r)
                if sum(a) == d and not any(w and I.is_unit for w, I in zip(a, E.ideals))
            )

        for d in (1, 2, 3, 4):
            for r in (1, 2, 3):
                columns = [random_mprimary(rng, d, max_power=2 if d == 4 else 3) for _ in range(r)]
                for E in (module(columns), module([*columns, unit_ideal(d)]),
                          module([*columns, columns[0]])):
                    assert br_via_mixed(E) == composition_sum(E), (d, E)

    def test_one_hull_per_call(self, monkeypatch):
        calls = []
        real = closure._newton_facets
        monkeypatch.setattr(closure, "_newton_facets", lambda blocks: calls.append(len(blocks)) or real(blocks))
        I, J = parse_ideal("(x^2, x*y, y^3)"), parse_ideal("(x^3, y^2)")
        assert br_via_mixed(module([I, unit_ideal(2), J])) == br_direct(module([I, J]))
        assert calls == [2]  # one hull with the two proper columns as blocks, whatever the composition

    def test_column_order_irrelevant(self, rng):
        I = random_mprimary(rng, 2)
        J = random_mprimary(rng, 2)
        assert br_via_mixed(module([I, J])) == br_via_mixed(module([J, I]))
        assert br_direct(module([I, J])) == br_direct(module([J, I]))


class TestScale:
    def test_scale_module(self):
        E = module([unit_ideal(2), m_ideal(2)])
        scaled = scale_by_m(E)
        assert scaled.ideals[0] == m_ideal(2)
        assert scaled.ideals[1] == m_power(2, 2)

    def test_scale_ideal(self):
        assert scale_by_m(m_ideal(2)) == m_power(2, 2)

    def test_scale_rejects_other_types(self):
        with pytest.raises(TypeError):
            scale_by_m([m_ideal(2)])

    def test_scaling_grows_br(self, rng):
        E = module([random_mprimary(rng, 2), random_mprimary(rng, 2)])
        assert br_via_mixed(scale_by_m(E)) > br_via_mixed(E)


class TestCompositionCount:
    def test_frozen_values(self):
        assert composition_count(4, 2) == (5, 10)
        assert composition_count(2, 3) == (6, 4)
        assert composition_count(5, 1) == (1, 5)
        assert composition_count(1, 1) == (1, 1)

    def test_counts_match_enumeration(self):
        for d in range(1, 6):
            for r in range(1, 5):
                count, constant = composition_count(d, r)
                assert count == len(compositions(d, r))
                assert constant * r == d * count

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            composition_count(0, 2)
        with pytest.raises(ValueError):
            composition_count(2, 0)

    def test_takes_integers_only(self):
        for bad, name in (((2.0, 2), "d"), ((2, 2.5), "r")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                composition_count(*bad)
        assert composition_count(np.int64(4), np.int64(2)) == (5, 10)
