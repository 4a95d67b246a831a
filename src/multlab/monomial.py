"""Monomials and monomial ideals in k[x_1..x_d], exponent-vector style.

A monomial is a tuple of non-negative ints (its exponent vector); a
monomial ideal is the set of monomials divisible by at least one of a
finite set of generators.  Ideals are kept in canonical form: the
generators are the divisibility-minimal antichain, sorted lexicographically,
so equal ideals compare equal as values.

All arithmetic is exact; results are ordinary Python ints.  Each kind of
input from outside has one checker, which converts it to ints where it
enters.  A generating set goes through `_generators`: `minimalize`, then
the dimension check.  `ideal` and the public `MonomialIdeal(...)` (user
calls, unpickling) both call it, and the constructor refuses rows that are
not already the minimal generators in strictly increasing lex order.  Rows
must have one length and every exponent must lie in [0, MAX_EXPONENT)
before any numpy work, so int64 sums of generators never wrap.  An
exponent vector (a point, a product's exponents, a module's n) goes
through `exponent_vector`: ints, the right length, none negative.  Every
ideal the library computes builds through the private `_built` with no
second check: among them the harness's random draws, whose `dim` and
largest pure power were checked where they entered, by
`harness.CorpusConfig` when it is made or by `harness.gen_random_mprimary`
once per call, so their rows are ints in range by construction.  Only a
product's sums are range-checked, since two exponents in range can sum
past it.  Every ideal computes its hash and its pure-power bounds once,
when it is built, so memo lookups, `is_m_primary` and `box_bounds` read
them without a pass over the generators.

`compositions(total, parts)` lists the tuples of a given sum in lex order
by stars and bars: the generators of m^k, and the index sets of the
Buchsbaum-Rim sums.  Beside it, `_difference_terms(order)` lists the
points t <= order with the signed binomial coefficients of the
order-`order` mixed difference; the closure sums of `closure.mixed_sum`
(from d = 4 on) and `multiplicity.stabilize` both take their terms from it.

Every generating set, of any size, is minimalized by one pure-Python sweep
(`_sweep`): the distinct rows are taken by degree, then lex, and a row is
kept unless a kept row of smaller degree divides it; two rows of one degree
never divide each other, so they are never compared.  `minimalize` (so
`ideal`) and `product` each take that one path, products of powers of m
included: their sums all have one degree, so the sweep compares none.

The unit ideal R needs no branch of its own.  Its least pure powers are the
x_i^0, so `box_bounds(R)` is (0, ..., 0), the empty box the counting
kernels count as 0; `compositions(0, d)` is its one row, so `m_power(d, 0)`
is R; and `power(I, 0)` is the empty product, R.  `is_m_primary(R)` stays
False: R is not proper.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations_with_replacement, repeat
from math import comb
from operator import add, index, le, sub

import numpy as np

from .errors import DimensionMismatchError, NotMPrimaryError

Monomial = tuple[int, ...]

# Exponents are machine integers inside the engine; keep far away from the
# int64 edge so sums of generators can never wrap.
MAX_EXPONENT = 2**31


def integer_exponents(values) -> tuple[int, ...]:
    """`values` as a tuple of ints.

    Python and numpy integers pass; anything else, 2.0 included, is a ValueError.
    """
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError("exponents must be integers") from None


def _int_rows(gens) -> Iterator[Monomial]:
    """The rows of `gens` as int tuples, one by one; a ValueError unless `gens` is iterable."""
    try:
        return map(integer_exponents, gens)
    except TypeError:
        raise ValueError(f"generators must be rows of exponents, got {type(gens).__name__}") from None


def exponent_vector(values, length: int) -> tuple[int, ...]:
    """`values` as a tuple of `length` non-negative ints.

    The one check of an exponent vector from outside: a point of
    `closure.newton_polyhedron_member`, of `ProductSampler.colengths` or
    the n of `buchsbaum_rim.module_colength`.  As `integer_exponents`, it
    takes Python and numpy integers; any other entry, a wrong length or a
    negative entry is a ValueError.
    """
    v = integer_exponents(values)
    if len(v) != length:
        raise ValueError(f"exponent vector has length {len(v)}, expected {length}")
    if min(v, default=0) < 0:
        raise ValueError(f"exponents must be non-negative, got {min(v)}")
    return v


def check_exponents(exponents) -> None:
    """A ValueError unless every int of the sequence `exponents` is in [0, MAX_EXPONENT)."""
    low, high = min(exponents, default=0), max(exponents, default=0)
    if low < 0 or high >= MAX_EXPONENT:
        raise ValueError(f"exponents must be in [0, {MAX_EXPONENT}), got {low if low < 0 else high}")


def integer(value, name: str) -> int:
    """`value` as an int; as `integer_exponents`, but the ValueError names `name`."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _dimension(value) -> int:
    """`value` as an int >= 1; a ValueError names `dim` otherwise."""
    dim = integer(value, "dim")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return dim


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored as its minimal generators.

    The constructor takes only the minimal generators, in strictly
    increasing lex order.  It checks them with the checker that `ideal(...)`
    uses (`_generators`: convert to ints, check length and range,
    minimalize, check `dim`) and refuses rows that minimalizing would
    change; build ideals from arbitrary generating sets with `ideal(...)`.
    `gens` is stored as a tuple of int tuples.  The hash and the pure-power
    bounds are computed here, once.
    """

    dim: int
    gens: tuple[Monomial, ...]
    # x_i's least pure power for each variable i, 0 where there is none
    _bounds: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(_int_rows(self.gens))
        dim, gens = _generators(rows, self.dim)
        if gens != rows:
            raise ValueError("generators must be minimal, strictly increasing (lex); ideal() minimalizes")
        _settle(self, dim, gens)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # unpickled through the checked constructor, which computes the hash anew
        return MonomialIdeal, (self.dim, self.gens)

    def __str__(self) -> str:
        from .expr import format_ideal

        return format_ideal(self)

    def __contains__(self, m: Monomial) -> bool:
        return contains(self, m)

    @property
    def is_unit(self) -> bool:
        return self.gens[0] == (0,) * self.dim


def _settle(ideal_: MonomialIdeal, dim: int, gens: tuple[Monomial, ...]) -> MonomialIdeal:
    """Store `dim`, `gens`, the pure-power bounds and the hash on `ideal_`, and return it."""
    bounds = [0] * dim
    zeros = dim - 1
    # read backwards, the lex order writes each variable's least power last
    for g in reversed(gens):
        if g.count(0) == zeros:
            k = max(g)
            bounds[g.index(k)] = k
    vars(ideal_).update(dim=dim, gens=gens, _bounds=tuple(bounds), _hash=hash((dim, gens)))
    return ideal_


def _built(dim: int, gens: tuple[Monomial, ...]) -> MonomialIdeal:
    """The ideal of the trusted rows `gens`, with no check.

    They must be a lex-sorted antichain of int tuples of length `dim` >= 1
    with every exponent in [0, MAX_EXPONENT).
    """
    return _settle(object.__new__(MonomialIdeal), dim, gens)


def ideal(gens, dim: int | None = None) -> MonomialIdeal:
    """Build an ideal from any generating set, minimalizing it.

    `dim` defaults to the length of the generators.

    >>> ideal([(2, 0), (3, 1), (0, 1)]).gens
    ((0, 1), (2, 0))
    """
    return _built(*_generators(gens, dim))


def _generators(gens, dim) -> tuple[int, tuple[Monomial, ...]]:
    """`dim` and the minimal generators of the generating set `gens`, checked.

    The one check of a generating set from outside, which `ideal` and the
    `MonomialIdeal` constructor share: `minimalize` converts and checks the
    rows, then `dim`, which defaults to their length, must be an int >= 1
    equal to it.
    """
    gens = minimalize(gens)
    width = len(gens[0])
    dim = _dimension(width if dim is None else dim)
    if width != dim:
        raise DimensionMismatchError(f"generator {gens[0]} has {width} exponents, expected {dim}")
    return dim, gens


def unit_ideal(dim: int) -> MonomialIdeal:
    dim = _dimension(dim)
    return _built(dim, ((0,) * dim,))


def m_ideal(dim: int) -> MonomialIdeal:
    """The maximal ideal m = (x_1, ..., x_d)."""
    return m_power(dim, 1)


def m_power(dim: int, k: int) -> MonomialIdeal:
    """m^k, generated by all monomials of total degree k: the compositions of k.

    m^0 is R, whose one generator is the one composition of 0.
    """
    dim, k = _dimension(dim), integer(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    check_exponents((k,))
    return _built(dim, tuple(compositions(k, dim)))


def compositions(total: int, parts: int) -> list[Monomial]:
    """Every tuple of `parts` (>= 1) non-negative ints summing to `total`, in lex order.

    Each row is the gaps between cuts 0 <= c_1 <= ... <= c_{parts-1} <= total;
    the cuts in lex order give the rows in lex order, at O(parts) a row.

    >>> compositions(2, 2)
    [(0, 2), (1, 1), (2, 0)]
    """
    # the pool range(total + 1) is built whole, so one part, which cuts nothing, gets none
    cuts = combinations_with_replacement(range(total + 1) if parts > 1 else (), parts - 1)
    return [tuple(map(sub, c + (total,), (0,) + c)) for c in cuts]


def _difference_terms(order) -> list[tuple[Monomial, int]]:
    """The pairs (t, (-1)^{|order - t|} prod C(order_j, t_j)) over the points t <= `order`, in lex order.

    They are the terms of the order-`order` mixed difference: sum coeff *
    f(base + t) is the difference of f at `base`.  The coefficient is a
    product over the coordinates, so the terms are built one coordinate o
    of `order` at a time, each extended by the signed binomials (-1)^{o -
    k} C(o, k) of its k <= o.

    >>> _difference_terms((1, 2))
    [((0, 0), -1), ((0, 1), 2), ((0, 2), -1), ((1, 0), 1), ((1, 1), -2), ((1, 2), 1)]
    """
    terms = [((), 1)]
    for o in order:
        terms = [(t + (k,), c * (-1) ** (o - k) * comb(o, k)) for t, c in terms for k in range(o + 1)]
    return terms


# ---------------------------------------------------------------------------
# minimalization (divisibility antichain)

def minimalize(gens) -> tuple[Monomial, ...]:
    """Divisibility-minimal antichain of a generating set, sorted lex.

    Each row is converted to ints once, here.  Raises ValueError on input
    that is not an iterable of integer rows, on empty input or on an
    exponent outside [0, MAX_EXPONENT), and DimensionMismatchError on rows
    of different lengths.
    """
    pts = set(_int_rows(gens))
    if not pts:
        raise ValueError("empty generating set")
    lengths = set(map(len, pts))
    if len(lengths) > 1:
        raise DimensionMismatchError(f"generators have different lengths {sorted(lengths)}")
    check_exponents(tuple(chain.from_iterable(pts)))
    return _sweep(pts)


def _sweep(pts) -> tuple[Monomial, ...]:
    """The minimal rows of the set `pts`, in lex order, by one degree-layered sweep.

    Rows are taken by degree, then lex.  A proper divisor of a row has
    smaller degree, so a row is kept unless a row kept from a smaller
    degree divides it, and two rows of one degree are never compared: an
    antichain of one degree, such as the rows of m^k, costs one pass.
    """
    kept, below, at = [], 0, None
    for s, p in sorted([(sum(p), p) for p in pts]):
        if s != at:
            below, at = len(kept), s  # kept[:below] are the rows of smaller degree
        for q in kept[:below]:
            if all(map(le, q, p)):
                break
        else:
            kept.append(p)
    return tuple(sorted(kept))


def minimalize_array(pts: np.ndarray) -> np.ndarray:
    """`_sweep` on the rows of a 2-d int array, as an int64 array in lex order.

    No library code calls it or `product_array`.  Both remain only as
    array-in, array-out names that `bench/tracer.py` wraps, until the
    tracer stops patching functions by name (ROADMAP item 5).
    """
    return np.array(_sweep(set(map(tuple, pts.tolist()))), dtype=np.int64).reshape(-1, pts.shape[1])


# ---------------------------------------------------------------------------
# arithmetic

def common_dim(ideals) -> int:
    """The dimension of every ideal of the non-empty sequence `ideals`.

    Raises DimensionMismatchError if two of them differ.
    """
    d = ideals[0].dim
    for I in ideals:
        if I.dim != d:
            raise DimensionMismatchError(f"ideals live in different dimensions: {I.dim} != {d}")
    return d


def product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The product ideal, with minimal generators.

    >>> from multlab.expr import parse_ideal
    >>> print(product(parse_ideal("(x, y^2)"), parse_ideal("(x^2, y)")))
    (x^3, x*y, y^3)
    """
    common_dim((a, b))
    sums = {tuple(map(add, g, h)) for g in a.gens for h in b.gens}
    check_exponents(tuple(chain.from_iterable(sums)))
    return _built(a.dim, _sweep(sums))


def product_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`minimalize_array` of every sum of a row of `a` and one of `b`; no library code calls it."""
    return minimalize_array((a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1]))


def power(a: MonomialIdeal, n: int) -> MonomialIdeal:
    """a^n by iterated products from the empty product R, minimalizing at each step."""
    n = integer(n, "n")
    if n < 0:
        raise ValueError("n must be >= 0")
    return reduce(product, repeat(a, n), unit_ideal(a.dim))


def contains(ideal_: MonomialIdeal, m: Monomial) -> bool:
    """Membership of the monomial x^m in the ideal: some generator g <= m componentwise."""
    if len(m) != ideal_.dim:
        raise DimensionMismatchError(f"monomial {m} vs dim {ideal_.dim}")
    return any(all(map(le, g, m)) for g in ideal_.gens)


def ideal_contains(outer: MonomialIdeal, inner: MonomialIdeal) -> bool:
    """True if inner is a subset of outer (every generator is a member).

    A generator of inner that is also one of outer is a member, found by
    one set lookup; only the others are scanned against outer's generators.
    A closure and its ideal share most generators (543 of the 717 inner
    ones over the 85 (closure, ideal) pairs of the closure-d4 benchmark),
    and on those pairs this took 0.9-1.0 ms against 2.7-2.9 ms for a scan
    of every generator (in-process, sums of per-call minima, 2-core Xeon).
    """
    common_dim((outer, inner))
    return all(contains(outer, g) for g in set(inner.gens).difference(outer.gens))


def is_m_primary(ideal_: MonomialIdeal) -> bool:
    """True if the ideal contains a positive pure power of every variable.

    Equivalently the staircase complement is finite and the ideal is proper;
    the unit ideal is not m-primary.
    """
    return all(ideal_._bounds)


def box_bounds(ideal_: MonomialIdeal) -> tuple[int, ...]:
    """For each variable the least k with x_i^k in the ideal.

    The staircase complement lives inside the box prod [0, b_i).  For R the
    least pure powers are the x_i^0, so the box is (0, ..., 0) and empty.
    Raises NotMPrimaryError when a variable has no pure power in a proper
    ideal; the message names the first three such variables and counts the
    rest, so it stays one short line at any dimension.  The unit test runs
    only where a bound is 0, so an m-primary ideal pays nothing for it.
    """
    bounds = ideal_._bounds
    if not all(bounds) and not ideal_.is_unit:
        missing = [f"x{i + 1}" for i, k in enumerate(bounds) if not k]
        more = f" and {len(missing) - 3} more" if len(missing) > 3 else ""
        raise NotMPrimaryError(
            f"no pure power of {', '.join(missing[:3])}{more}: the colength is infinite"
        )
    return bounds

