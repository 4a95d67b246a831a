"""Ideal expression parsing and printing."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import ParseError, format_ideal, ideal, parse_ideal, parse_module
from multlab.expr import parse_ideals

from conftest import random_mprimary


# each malformed ideal text with the position and the message of its ParseError
_MALFORMED = {
    "(x^2, q)": (6, "unknown variable 'q'"),
    "(q^2)": (1, "unknown variable 'q'"),
    "(X)": (1, "unknown variable 'X'"),
    "(y2)": (1, "unknown variable 'y2'"),
    "(x0)": (1, "variable indices start at 1"),
    "(x + y)": (3, "unexpected character '+'"),
    "(x^-1)": (3, "unexpected character '-'"),
    # the first bad character anywhere wins over an earlier grammar fault
    "wX(-q0": (3, "unexpected character '-'"),
    "": (0, "unexpected end of input"),
    "   ": (3, "unexpected end of input"),
    "(x": (2, "unexpected end of input"),
    "(x, y\t": (6, "unexpected end of input"),
    "(x^": (3, "unexpected end of input"),
    "x^2": (0, "expected lpar, found 'x'"),
    "(x^)": (3, "expected int, found ')'"),
    "(x**y)": (4, "expected int, found 'y'"),
    "(x^2^3)": (4, "expected rpar, found '^'"),
    "(1^2)": (2, "expected rpar, found '^'"),
    "(x * * y)": (5, "expected rpar, found '*'"),
    "(2*x)": (1, "only the constant 1"),
    "(01)": (1, "only the constant 1"),
    "(": (1, "expected a monomial"),
    "()": (1, "expected a monomial"),
    "(*x)": (1, "expected a monomial"),
    "(x^2,)": (5, "expected a monomial"),
    "(x,,": (3, "expected a monomial"),
    "(x^2) trailing": (6, "trailing input 't'"),
    "(x, y) (z)": (7, "trailing input '('"),
    # exponents past monomial.MAX_EXPONENT, by value, by digit count and by
    # the sum of a repeated variable, at the token that passes it
    "(x^2147483648, y)": (3, "exponents must be below 2147483648"),
    "(x^" + "9" * 5000 + ", y)": (3, "exponents must be below 2147483648"),
    "(x^2147483647*x, y)": (14, "exponents must be below 2147483648"),
    "(x*x^2147483647, y)": (5, "exponents must be below 2147483648"),
    # variable indices past expr.MAX_VARIABLE, by digit count and by value,
    # and, with a dimension given, past the dimension
    "(x" + "1" * 5000 + ")": (1, "variable indices must be at most 1024"),
    "(x1000000)": (1, "variable indices must be at most 1024"),
    "(x^2, y*x5, x6)": (8, "variable x5 exceeds dimension 4", 4),
}

# each malformed module text with the position and the message of its
# ParseError, counted from the start of the module text, not of its column
_MALFORMED_MODULES = {
    "(x,y^2);(x^2,q)": (13, "unknown variable 'q'"),
    "(x,y^2);(x^2,z)": (13, "variable x3 exceeds dimension 2", 2),
    "(x);(y);(q)": (9, "unknown variable 'q'"),
    "(x, y^2); (x^2, y); (x^3 + y)": (25, "unexpected character '+'"),
    "(x, y); (x^2, y); (z, x*w)": (24, "variable x4 exceeds dimension 3", 3),
    # a blank column is skipped, and a column's end is the ";" after it
    " ; (x;(y)": (5, "unexpected end of input"),
}


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

    # a long text is named by its head and length, the rest by themselves
    @pytest.mark.parametrize(
        "bad", list(_MALFORMED), ids=lambda t: f"{t[:6]}...{len(t)} chars" if len(t) > 40 else None
    )
    def test_rejects_malformed(self, bad):
        position, message, *dim = _MALFORMED[bad]
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_ideal(bad, *dim)
        assert exc.value.position == position
        assert str(exc.value).endswith(f"(at position {position})")

    def test_tolerated_forms(self):
        assert parse_ideal("(x*)") == parse_ideal("(x)")
        assert parse_ideal("(x 1 y)") == parse_ideal("(x*y)")
        assert parse_ideal("(X2^3, x^0)").is_unit

    def test_cannot_infer_dim_from_unit(self):
        with pytest.raises(ParseError):
            parse_ideal("(1)")
        assert parse_ideal("(1)", dim=2).is_unit

    def test_dimension_must_be_positive(self):
        with pytest.raises(ParseError, match="dimension must be at least 1"):
            parse_ideals(["(1)"], dim=0)

    def test_dimension_is_capped_as_variables_are(self):
        # a given dim builds rows that long, so it has the variables' bound
        for dim in (1025, 2**31, 10**100):
            with pytest.raises(ParseError, match="dimension must be at most 1024"):
                parse_ideal("(x^2, y^2)", dim=dim)
            with pytest.raises(ParseError, match="dimension must be at most 1024"):
                parse_module("(x^2, y); (x, y^2)", dim=dim)
        I = parse_ideal("(x^2, y^2)", dim=1024)
        assert I.dim == 1024 and I.gens[-1] == (2,) + (0,) * 1023
        assert parse_module("(1); (x1024)", dim=1024)[1].gens == ((0,) * 1023 + (1,),)


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

    @pytest.mark.parametrize("bad", list(_MALFORMED_MODULES))
    def test_rejects_malformed(self, bad):
        position, message, *dim = _MALFORMED_MODULES[bad]
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_module(bad, *dim)
        assert exc.value.position == position
        assert str(exc.value).endswith(f"(at position {position})")

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


# every token kind, a few bad characters, and whitespace; runs of more than
# three digits are left out, so no variable index builds a huge dimension
_TOKEN_TEXTS = st.sampled_from(
    ["(", ")", ",", "^", "**", "*", " ", "x", "y", "z", "w", "X", "q",
     "x1", "x3", "0", "1", "2", "+", "-", "\t"]
)


@settings(max_examples=300)
@given(st.lists(_TOKEN_TEXTS, max_size=14).map("".join).filter(lambda s: not re.search(r"\d{4}", s)))
def test_any_token_string_parses_or_fails_with_a_position(text):
    try:
        I = parse_ideal(text, dim=None if re.search(r"[xyzwX]", text) else 1)
    except ParseError as exc:
        assert exc.position is not None and 0 <= exc.position <= len(text)
    else:
        assert parse_ideal(format_ideal(I), dim=I.dim) == I
