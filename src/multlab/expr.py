"""Parse and print monomial ideals in the parenthesized generator syntax.

Input such as ``(x^2, x*y, y^3)`` follows this grammar, with whitespace
free between tokens::

    ideal = "(" monomial {"," monomial} ")";  monomial = factor {["*"] factor} ["*"];  factor = "1" | var [("^" | "**") digits]

A ``var`` is ``x1, x2, ...`` up to ``x1024`` (or ``X1, X2, ...``), with
the aliases ``x, y, z, w`` for the first four; a repeated variable
multiplies, and ``1`` is the unit monomial.  With a dimension given, the
first variable past it is named at its position; a given dimension may
not pass ``MAX_VARIABLE`` either, so neither text nor ``--dim`` builds
rows longer than 1 024 entries.  Formatting inverts parsing:
``parse_ideal(format_ideal(I)) == I`` whenever the printed names pin down
the dimension.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .monomial import MAX_EXPONENT, MonomialIdeal, ideal

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}

# The largest variable index.  The index is the ideal's dimension, so
# every generator is a row that long: (x1000000) built rows of a million
# entries and named a million variables in its not-m-primary message.
MAX_VARIABLE = 1024

# any other non-space character is a "bad" token
_TOKEN = re.compile(
    r"(?P<lpar>\()|(?P<rpar>\))|(?P<comma>,)|(?P<pow>\*\*|\^)|(?P<star>\*)"
    r"|(?P<int>\d+)|(?P<var>[a-zA-Z]\d*)|(?P<bad>\S)"
)

# For each token kind, the kinds that may follow it and the error for any
# other, where "{}" names the token found; "exp" is an int after "pow".
_AFTER_FACTOR = {"star", "int", "var", "comma", "rpar"}
_NEXT = {
    "start": ({"lpar"}, "expected lpar, found {}"),
    "lpar": ({"int", "var"}, "expected a monomial"),
    "comma": ({"int", "var"}, "expected a monomial"),
    "var": (_AFTER_FACTOR | {"pow"}, "expected rpar, found {}"),
    "pow": ({"exp"}, "expected int, found {}"),
    "exp": (_AFTER_FACTOR, "expected rpar, found {}"),
    "int": (_AFTER_FACTOR, "expected rpar, found {}"),
    "star": (_AFTER_FACTOR - {"star"}, "expected rpar, found {}"),
    "rpar": ({"end"}, "trailing input {}"),
}


def _variable(name: str, at: int, dim: int | None) -> int:
    if name in _ALIASES:
        index = _ALIASES[name]
    elif name[0] in "xX" and name[1:]:
        digits = name[1:].lstrip("0") or "0"  # counted first: int() refuses 4 300 digits
        index = int(digits) if len(digits) <= len(str(MAX_VARIABLE)) else MAX_VARIABLE + 1
        if index < 1:
            raise ParseError("variable indices start at 1", position=at)
        if index > MAX_VARIABLE:
            raise ParseError(f"variable indices must be at most {MAX_VARIABLE}", position=at)
    else:
        raise ParseError(f"unknown variable {name!r} (use x1..xd or x, y, z, w)", position=at)
    if dim is not None and index > dim:
        raise ParseError(f"variable x{index} exceeds dimension {dim}", position=at)
    return index


def _monomials(text: str, dim: int | None, start: int, end: int) -> list[dict[int, int]]:
    """The monomials of the ideal in text[start:end], each as {variable index: exponent}.

    The whole ideal is tokenized first, so its first unexpected character is
    reported wherever it stands; then one pass checks each token against the
    one before it, and each variable against `dim` when it is given.  Error
    positions count from the start of `text`.
    """
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text, start, end)]
    for kind, tok, at in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", position=at)
    monos, prev = [{}], "start"
    for kind, tok, at in tokens + [("end", "", end)]:
        if kind == "int" and prev == "pow":
            kind = "exp"
        follow, error = _NEXT[prev]
        if kind not in follow:
            if kind == "end" and "{}" in error:
                error = "unexpected end of input"
            raise ParseError(error.format(repr(tok)), position=at)
        if kind == "int" and tok != "1":
            raise ParseError("only the constant 1 is allowed in a monomial", position=at)
        if kind == "var":
            var = _variable(tok, at, dim)
            monos[-1][var] = monos[-1].get(var, 0) + 1
        elif kind == "exp":  # the variable before "^" already counted once
            digits = tok.lstrip("0") or "0"  # counted first: int() refuses 4 300 digits
            big = len(digits) > len(str(MAX_EXPONENT))
            monos[-1][var] += (MAX_EXPONENT if big else int(digits)) - 1
        elif kind == "comma":
            monos.append({})
        # a repeated variable adds up, so the token that passes the bound is named
        if kind in ("var", "exp") and monos[-1][var] >= MAX_EXPONENT:
            raise ParseError(f"exponents must be below {MAX_EXPONENT}", position=at)
        prev = kind
    return monos


def parse_ideal(text: str, dim: int | None = None) -> MonomialIdeal:
    """Parse ``(m1, m2, ...)`` into a minimal-generator monomial ideal.

    The ambient dimension is the largest variable index seen unless `dim`
    widens it; shrinking below a used variable is an error.
    """
    return parse_ideals([text], dim=dim)[0]


def parse_module(text: str, dim: int | None = None) -> list[MonomialIdeal]:
    """Parse ``(..);(..);...`` into the column ideals of a direct sum.

    Blank columns are skipped, and error positions count from the start of
    the module text.
    """
    cols = [m.span() for m in re.finditer(r"[^;]+", text) if m.group().strip()]
    if not cols:
        raise ParseError("empty module expression")
    return _ideals([_monomials(text, dim, *span) for span in cols], dim)


def parse_ideals(texts, dim: int | None = None) -> list[MonomialIdeal]:
    """Parse several ideals into one dimension: `dim`, else the largest any of them uses."""
    return _ideals([_monomials(text, dim, 0, len(text)) for text in texts], dim)


def _ideals(parsed, dim: int | None) -> list[MonomialIdeal]:
    if dim is None:
        dim = max((max(m) for monos in parsed for m in monos if m), default=0)
        if dim == 0:
            raise ParseError("cannot infer dimension from (1); pass dim")
    if dim < 1:
        raise ParseError("dimension must be at least 1")
    if dim > MAX_VARIABLE:  # before a row is built: each is dim entries long
        raise ParseError(f"dimension must be at most {MAX_VARIABLE}, got {dim}")
    return [
        ideal([tuple(m.get(i, 0) for i in range(1, dim + 1)) for m in monos], dim=dim)
        for monos in parsed
    ]


def _var_name(i: int, dim: int) -> str:
    if dim <= 4:
        return "xyzw"[i]
    return f"x{i + 1}"


def format_monomial(exps, dim: int) -> str:
    factors = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = _var_name(i, dim)
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def format_ideal(I: MonomialIdeal) -> str:
    # canonical storage is lex-ascending; print x-major so (x^2, x*y, y^3)
    # reads the way it is usually written
    return "(" + ", ".join(format_monomial(g, I.dim) for g in reversed(I.gens)) + ")"
