"""Parse and print monomial ideals in the parenthesized generator syntax.

Accepted input looks like ``(x^2, x*y, y^3)``: a comma-separated list of
monomials in parentheses.  Variables are ``x1, x2, ...`` with the aliases
``x, y, z, w`` for the first four; ``*`` between factors is optional, and
exponents use ``^`` (``**`` is tolerated).  A bare ``1`` denotes the unit
monomial.  Formatting inverts parsing: ``parse_ideal(format_ideal(I)) == I``
whenever the printed names pin down the dimension.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .monomial import MonomialIdeal, ideal

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<comma>,)|(?P<pow>\*\*|\^)"
    r"|(?P<star>\*)|(?P<int>\d+)|(?P<var>[a-zA-Z]\d*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.lastgroup is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", position=at)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", position=len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", position=tok[2])
        return tok

    def var_index(self, name: str, at: int) -> int:
        head, digits = name[0], name[1:]
        if digits:
            if head not in ("x", "X"):
                raise ParseError(
                    f"unknown variable {name!r} (use x1..xd or x, y, z, w)",
                    position=at,
                )
            idx = int(digits)
            if idx < 1:
                raise ParseError("variable indices start at 1", position=at)
            return idx
        if head in _ALIASES:
            return _ALIASES[head]
        raise ParseError(
            f"unknown variable {name!r} (use x1..xd or x, y, z, w)", position=at
        )

    def monomial(self) -> dict[int, int]:
        exps: dict[int, int] = {}
        saw_factor = False
        while True:
            kind = self.peek()
            if kind == "int":
                _, text, at = self.next()
                if text != "1":
                    raise ParseError(
                        "only the constant 1 is allowed in a monomial", position=at
                    )
                saw_factor = True
            elif kind == "var":
                _, name, at = self.next()
                idx = self.var_index(name, at)
                exp = 1
                if self.peek() == "pow":
                    self.next()
                    _, etext, eat = self.expect("int")
                    exp = int(etext)
                exps[idx] = exps.get(idx, 0) + exp
                saw_factor = True
            else:
                break
            if self.peek() == "star":
                self.next()
                continue
        if not saw_factor:
            tok = self.tokens[self.i] if self.i < len(self.tokens) else None
            at = tok[2] if tok else len(self.text)
            raise ParseError("expected a monomial", position=at)
        return exps

    def ideal_body(self) -> list[dict[int, int]]:
        self.expect("lpar")
        monos = [self.monomial()]
        while self.peek() == "comma":
            self.next()
            monos.append(self.monomial())
        self.expect("rpar")
        if self.i < len(self.tokens):
            tok = self.tokens[self.i]
            raise ParseError(f"trailing input {tok[1]!r}", position=tok[2])
        return monos


def parse_ideal(text: str, dim: int | None = None) -> MonomialIdeal:
    """Parse ``(m1, m2, ...)`` into a minimal-generator monomial ideal.

    The ambient dimension is the largest variable index seen unless `dim`
    widens it; shrinking below a used variable is an error.
    """
    monos = _Parser(text).ideal_body()
    used = max((max(m) for m in monos if m), default=0)
    if dim is None:
        if used == 0:
            raise ParseError("cannot infer dimension from (1); pass dim")
        dim = used
    elif used > dim:
        raise ParseError(f"variable x{used} exceeds dimension {dim}")
    if dim < 1:
        raise ParseError("dimension must be at least 1")
    gens = [tuple(m.get(i, 0) for i in range(1, dim + 1)) for m in monos]
    return ideal(gens, dim=dim)


def parse_module(text: str, dim: int | None = None) -> list[MonomialIdeal]:
    """Parse ``(..);(..);...`` into the column ideals of a direct sum."""
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ParseError("empty module expression")
    return parse_ideals(parts, dim=dim)


def parse_ideals(texts, dim: int | None = None) -> list[MonomialIdeal]:
    """Parse several ideals into one dimension: `dim`, else the largest any of them uses."""
    ideals = [parse_ideal(text, dim=dim) for text in texts]
    if dim is None:
        d = max(I.dim for I in ideals)
        ideals = [parse_ideal(text, dim=d) for text in texts]
    return ideals


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
