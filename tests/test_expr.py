"""Ideal expression parsing and printing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import ParseError, format_ideal, ideal, parse_ideal, parse_module

from conftest import random_mprimary


class TestParse:
    def test_basic(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        assert I.dim == 2
        assert I.gens == ((0, 3), (1, 1), (2, 0))

    def test_star_optional(self):
        assert parse_ideal("(x y, x^2)") == parse_ideal("(x*y, x^2)")
        assert parse_ideal("(xy, x^2)", dim=2) == parse_ideal("(x*y, x^2)")

    def test_double_star_tolerated(self):
        assert parse_ideal("(x**2, y)") == parse_ideal("(x^2, y)")

    def test_indexed_variables(self):
        I = parse_ideal("(x1^2, x2*x3, x3^4)")
        assert I.dim == 3
        assert I.gens == ((0, 0, 4), (0, 1, 1), (2, 0, 0))

    def test_aliases_match_indexed(self):
        assert parse_ideal("(x*z, y^2, w)") == parse_ideal("(x1*x3, x2^2, x4)")

    def test_unit_monomial(self):
        I = parse_ideal("(1, x^2)", dim=2)
        assert I.is_unit

    def test_repeated_variable_multiplies(self):
        assert parse_ideal("(x*x, y)") == parse_ideal("(x^2, y)")

    def test_dim_widening(self):
        I = parse_ideal("(x^2, y)", dim=4)
        assert I.dim == 4
        assert I.gens == ((0, 1, 0, 0), (2, 0, 0, 0))

    def test_dim_too_small(self):
        with pytest.raises(ParseError):
            parse_ideal("(x*z)", dim=2)

    def test_whitespace_insensitive(self):
        assert parse_ideal(" ( x ^ 2 ,x*y , y^3 ) ") == parse_ideal("(x^2,x*y,y^3)")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(",
            "()",
            "(x",
            "x^2",
            "(x^2,)",
            "(x^)",
            "(q^2)",
            "(x^2) trailing",
            "(x + y)",
            "(2*x)",
            "(x^-1)",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_ideal(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("(x^2, q)")
        assert exc.value.position == 6

    def test_cannot_infer_dim_from_unit(self):
        with pytest.raises(ParseError):
            parse_ideal("(1)")
        assert parse_ideal("(1)", dim=2).is_unit


class TestFormat:
    def test_x_major_order(self):
        assert format_ideal(parse_ideal("(y^3, x*y, x^2)")) == "(x^2, x*y, y^3)"

    def test_unit(self):
        assert format_ideal(parse_ideal("(1)", dim=2)) == "(1)"

    def test_high_dim_uses_indexed_names(self):
        I = ideal([(1, 0, 0, 0, 2)])
        assert format_ideal(I) == "(x1*x5^2)"

    def test_omits_unit_exponents(self):
        assert format_ideal(parse_ideal("(x^1*y^1)")) == "(x*y)"


class TestModule:
    def test_parse_module(self):
        cols = parse_module("(x, y^2); (x^2, y)")
        assert len(cols) == 2
        assert cols[0] == parse_ideal("(x, y^2)")

    def test_module_unifies_dimension(self):
        cols = parse_module("(x^2, y); (x*z, y, z^2)")
        assert all(I.dim == 3 for I in cols)

    def test_empty_module(self):
        with pytest.raises(ParseError):
            parse_module(";;")

    def test_unit_column_takes_the_module_dimension(self):
        cols = parse_module("(1);(x^2, y)")
        assert [I.dim for I in cols] == [2, 2]
        assert cols[0] == parse_ideal("(1)", dim=2)
        assert cols[1] == parse_ideal("(x^2, y)")

    def test_all_unit_module_needs_dim(self):
        with pytest.raises(ParseError, match="cannot infer dimension"):
            parse_module("(1);(1)")
        assert [I.dim for I in parse_module("(1);(1)", dim=3)] == [3, 3]


@settings(max_examples=60)
@given(
    st.integers(2, 5).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(0, 5)] * d), min_size=1, max_size=8
        ).filter(lambda gens: any(any(g) for g in gens))
    )
)
def test_format_parse_roundtrip(gens):
    I = ideal(gens)
    assert parse_ideal(format_ideal(I), dim=I.dim) == I
