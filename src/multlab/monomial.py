"""Monomials and monomial ideals in k[x_1..x_d], exponent-vector style.

A monomial is a tuple of non-negative ints (its exponent vector); a
monomial ideal is the set of monomials divisible by at least one of a
finite set of generators.  Ideals are kept in canonical form: the
generators are the divisibility-minimal antichain, sorted lexicographically,
so equal ideals compare equal as values.

All arithmetic is exact; results are ordinary Python ints.  A generating
set is converted to ints and checked once, where it enters `minimalize`:
its rows must have one length and every exponent must lie in
[0, MAX_EXPONENT) before any numpy work, so int64 sums of generators never
wrap.  Generator sets of more than 48 monomials are
minimalized as int64 arrays by `minimalize_array`: one lex sort drops the
duplicates, then past 1024 rows a prefix-min grid runs when it fits under
`_GRID_CELL_CAP` cells, and a sweep over lex-ordered blocks of 1024 rows
handles everything else.  Lex order suffices because a divisor of a
monomial always comes before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from math import comb, prod
from operator import index

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


def divides(a: Monomial, b: Monomial) -> bool:
    """True if x^a divides x^b, i.e. a <= b componentwise."""
    return all(ai <= bi for ai, bi in zip(a, b))


def degree(a: Monomial) -> int:
    return sum(a)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored as its minimal generators.

    The constructor validates shape and ordering but trusts that `gens`
    is already a divisibility antichain; build ideals from arbitrary
    generating sets with `ideal(...)`, which minimalizes.
    """

    dim: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        if type(self.dim) is not int:
            object.__setattr__(self, "dim", integer(self.dim, "dim"))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.gens:
            raise ValueError("an ideal needs at least one generator")
        check_exponents(integer_exponents(chain.from_iterable(self.gens)))
        prev = None
        for g in self.gens:
            if len(g) != self.dim:
                raise DimensionMismatchError(
                    f"generator {g} has {len(g)} exponents, expected {self.dim}"
                )
            if prev is not None and g <= prev:
                raise ValueError("generators must be strictly increasing (lex)")
            prev = g

    def __str__(self) -> str:
        from .expr import format_ideal

        return format_ideal(self)

    def __contains__(self, m: Monomial) -> bool:
        return contains(self, m)

    @property
    def is_unit(self) -> bool:
        return self.gens[0] == (0,) * self.dim


def ideal(gens, dim: int | None = None) -> MonomialIdeal:
    """Build an ideal from any generating set, minimalizing it.

    `dim` defaults to the length of the generators.

    >>> ideal([(2, 0), (3, 1), (0, 1)]).gens
    ((0, 1), (2, 0))
    """
    gens = minimalize(gens)
    return MonomialIdeal(len(gens[0]) if dim is None else dim, gens)


def unit_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ((0,) * dim,))


def m_ideal(dim: int) -> MonomialIdeal:
    """The maximal ideal m = (x_1, ..., x_d)."""
    return m_power(dim, 1)


def m_power(dim: int, k: int) -> MonomialIdeal:
    """m^k, generated by all monomials of total degree k."""
    dim, k = integer(dim, "dim"), integer(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return unit_ideal(dim)
    gens = []
    for pick in combinations_with_replacement(range(dim), k):
        g = [0] * dim
        for i in pick:
            g[i] += 1
        gens.append(tuple(g))
    return MonomialIdeal(dim, tuple(sorted(gens)))


def m_power_degree(ideal_: MonomialIdeal) -> int | None:
    """k if the ideal equals m^k, else None.  Recognized in O(#gens)."""
    k = degree(ideal_.gens[0])
    if any(degree(g) != k for g in ideal_.gens):
        return None
    if len(ideal_.gens) != comb(k + ideal_.dim - 1, ideal_.dim - 1):
        return None
    return k


# ---------------------------------------------------------------------------
# minimalization (divisibility antichain)

def minimalize(gens) -> tuple[Monomial, ...]:
    """Divisibility-minimal antichain of a generating set, sorted lex.

    Each row is converted to ints once, here.  Raises ValueError on empty
    input or an exponent outside [0, MAX_EXPONENT), and
    DimensionMismatchError on rows of different lengths.
    """
    pts = set(map(integer_exponents, gens))
    if not pts:
        raise ValueError("empty generating set")
    lengths = set(map(len, pts))
    if len(lengths) > 1:
        raise DimensionMismatchError(f"generators have different lengths {sorted(lengths)}")
    check_exponents(tuple(chain.from_iterable(pts)))
    if len(pts) <= 48:
        out = [p for p in pts if not any(q != p and divides(q, p) for q in pts)]
        return tuple(sorted(out))
    arr = np.array(sorted(pts), dtype=np.int64)
    return tuple(map(tuple, minimalize_array(arr).tolist()))


def as_array(ideal_: MonomialIdeal) -> np.ndarray:
    return np.array(ideal_.gens, dtype=np.int64)


def ideal_from_array(dim: int, arr: np.ndarray) -> MonomialIdeal:
    gens = tuple(sorted(map(tuple, arr.tolist())))
    return MonomialIdeal(dim, gens)


_GRID_CELL_CAP = 30_000_000


def minimalize_array(pts: np.ndarray) -> np.ndarray:
    """Pareto-minimal rows of a non-negative int64 array, in lex order.

    Rows are lex-sorted and equal neighbours dropped, so a row's index is its
    lex rank.  Both passes rest on one fact: a row that divides another
    differs from it first in a smaller coordinate, so it comes earlier in
    lex order.

    Past 1024 rows, when the grid over the non-value axes fits under
    `_GRID_CELL_CAP` cells, one prefix-min pass over it filters on the
    perturbed value v*n + lex_rank.  On value ties the dominator wins the
    perturbed comparison; and a row that wins it while sitting in the prefix
    cell really does dominate, because winning forces value <= and the cell
    gives <= elsewhere.

    Otherwise a blocked sweep takes the rows in lex order, 1024 at a time,
    and drops each row divisible by a row kept from an earlier block or by
    another row of its own block: all its divisors come earlier, and a
    dropped one is divided by a kept one.  A block meets those rows in parts
    whose boolean tables hold at most `_GRID_CELL_CAP` cells (one row's, when
    a single row meets more), so the sweep allocates less than the grid.
    """
    pts = pts[np.lexsort(pts.T[::-1])]
    if len(pts) > 1:
        pts = pts[np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))]
    n, d = pts.shape
    if n <= 1 or d == 1:
        return pts[:1]
    if n > 1024:
        maxs = pts.max(axis=0)
        c = int(np.argmax(maxs))
        rest = [i for i in range(d) if i != c]
        shape = [int(maxs[i]) + 1 for i in rest]
        if prod(shape) <= _GRID_CELL_CAP and int(maxs[c]) + 1 <= 2**62 // n:
            tilde = pts[:, c] * n + np.arange(n, dtype=np.int64)
            grid = np.full(shape, np.iinfo(np.int64).max, np.int64)
            cells = tuple(pts[:, i] for i in rest)
            np.minimum.at(grid, cells, tilde)  # unbuffered: right with duplicate cells
            for ax in range(len(rest)):
                np.minimum.accumulate(grid, axis=ax, out=grid)
            return pts[grid[cells] == tilde]
    return _pareto_sweep(pts)


def _pareto_sweep(pts: np.ndarray) -> np.ndarray:
    # distinct rows in lex order; see minimalize_array
    kept = pts[:0]
    for start in range(0, len(pts), 1024):
        block = pts[start:start + 1024]
        base = np.concatenate([kept, block]).T
        rows = max(1, _GRID_CELL_CAP // base.shape[1])
        hits = []
        for i in range(0, len(block), rows):
            part = block[i:i + rows, :, None]
            # le[r, j]: base row j divides part row r, built one axis at a time
            le = base[0] <= part[:, 0]
            for k in range(1, len(base)):
                le &= base[k] <= part[:, k]
            hits.append(np.count_nonzero(le, axis=1))
        # each row divides itself; one more divisor drops it
        kept = np.concatenate([kept, block[np.concatenate(hits) == 1]])
    return kept


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
    ka, kb = m_power_degree(a), m_power_degree(b)
    if ka is not None and kb is not None:
        return m_power(a.dim, ka + kb)
    arr = product_array(as_array(a), as_array(b))
    return ideal_from_array(a.dim, arr)


def product_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cand = (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])
    return minimalize_array(cand)


def power(a: MonomialIdeal, n: int) -> MonomialIdeal:
    """a^n by iterated products, minimalizing at each step."""
    n = integer(n, "n")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return unit_ideal(a.dim)
    out = a
    for _ in range(n - 1):
        out = product(out, a)
    return out


def contains(ideal_: MonomialIdeal, m: Monomial) -> bool:
    """Membership of the monomial x^m in the ideal."""
    if len(m) != ideal_.dim:
        raise DimensionMismatchError(f"monomial {m} vs dim {ideal_.dim}")
    return any(divides(g, m) for g in ideal_.gens)


def ideal_contains(outer: MonomialIdeal, inner: MonomialIdeal) -> bool:
    """True if inner is a subset of outer (every generator is a member)."""
    common_dim((outer, inner))
    return all(contains(outer, g) for g in inner.gens)


def _pure_powers(ideal_: MonomialIdeal) -> dict[int, int]:
    """{i: least k > 0 with x_i^k a generator}, over the variables that have one."""
    zeros = ideal_.dim - 1
    # read backwards, the lex order writes each variable's least power last
    return {g.index(k): k for g in reversed(ideal_.gens) if g.count(0) == zeros for k in (max(g),)}


def is_m_primary(ideal_: MonomialIdeal) -> bool:
    """True if the ideal contains a positive pure power of every variable.

    Equivalently the staircase complement is finite and the ideal is proper;
    the unit ideal is not m-primary.
    """
    return len(_pure_powers(ideal_)) == ideal_.dim


def box_bounds(ideal_: MonomialIdeal) -> tuple[int, ...]:
    """For each variable the least k with x_i^k in the ideal.

    The staircase complement lives inside the box prod [0, b_i).
    Raises NotMPrimaryError when some variable has no pure power.
    """
    powers = _pure_powers(ideal_)
    if len(powers) < ideal_.dim:
        missing = ", ".join(f"x{i + 1}" for i in range(ideal_.dim) if i not in powers)
        raise NotMPrimaryError(
            f"no pure power of {missing}: the colength is infinite"
        )
    return tuple(map(powers.get, range(ideal_.dim)))


def scale_by_m(ideal_: MonomialIdeal) -> MonomialIdeal:
    """m * I."""
    return product(m_ideal(ideal_.dim), ideal_)
