"""Exact lattice-point counting for staircase complements, on height fields.

Everything here counts standard monomials: exponent vectors v inside a box
prod [0, b_i) that are not divisible by any generator.  `count_naive` is the
trivially-correct reference (enumerate the box, test every generator).

The production representation of a staircase is its height field.  Pick one
coordinate c of the box as the height axis; over the cells x' of the other
axes, h(x') = min(b_c, min{g_c : g' <= x'}) is the number of standard points
above x', so the count is h.sum().
* `multiply_field` turns the field of P into the field of P*J with one
  min-plus update per generator g of J: out[g':] = min(out[g':], h[:-g'] + g_c).
  Nothing is minimalized; from the empty field of the unit ideal it gives
  the field of J.  Two shortcuts leave every height exact.  J is m-primary
  or R, so its pure power (0', b_c) on the height axis lies in J (for R,
  b_c = 0 and the power is 1, so P*R keeps P's field); its update
  covers the whole field, and from a field of tops it gives h + b_c, since
  h stays within P's top.  So `out` starts as h + b_c, and every g with
  g_c >= b_c, a multiple of that power, is dropped once per J by
  `field_rows`: it cannot lower a height.  A generator with g_c = 0 takes
  the minimum with the shifted h itself, with no sum array.
  Both fields are arrays of exactly the product's box, P's field zero past
  its own box, and each update is one strided view per side, one slice
  per axis.  Every read lies inside the box, and a generator whose shift
  reaches past the box on some axis gives empty views and updates nothing.
* `count_grid` counts any generator array in any box by the field that
  `multiply_field` builds from the unit ideal, with the box as J's
  bounds, so it holds the whole field, the zero field it reads and one
  sum at once; `field_count` sums a field exactly.
* `field_rows` takes rows of Python ints as they are.  `count_grid`
  converts and shape-checks outside input once, as an int64 array, and
  hands its rows on as lists; the sampler hands each ideal's stored
  tuples, checked when the ideal was built.

Counts are exact: a field is uint8, uint16 or uint32 while its top fits,
and holds Python ints beyond.  No height of a field passes its top, and
`multiply_field` reads P's heights only inside the product's box and adds
g_c < b_c to them, so every sum h + g_c stays within the product's top and
the product's own type holds it.  `field_count` sums every unsigned field
in one uint64 accumulator, exact below 2**32 cells since every height is
below 2**32 (a uint32 field that large holds 16 GiB), and an object field
in Python ints.
"""

from __future__ import annotations

import sys
from itertools import product as iter_product
from math import prod
from operator import add
from typing import NamedTuple

import numpy as np


def _check_size(shape, dtype) -> None:
    """Raise MemoryError for an array of `shape` and `dtype` past numpy's maximum size.

    numpy refuses an array of more than np.iinfo(np.intp).max bytes with a
    ValueError, before it asks for memory; intp is the size of Py_ssize_t,
    so that bound is sys.maxsize, which costs no numpy call.
    """
    cells = prod(shape)
    if cells * np.dtype(dtype).itemsize > sys.maxsize:
        raise MemoryError(f"a field of {cells} cells is past numpy's maximum array size")


def field_dtype(top: int):
    """The narrowest field type that holds every height up to `top`.

    uint8 below 2**8, uint16 below 2**16, uint32 below 2**32, Python ints beyond.
    """
    if top < 2**8:
        return np.uint8
    if top < 2**16:
        return np.uint16
    return np.uint32 if top < 2**32 else object


def count_naive(gens, box) -> int:
    """Reference counter: walk the whole box and test each generator.

    Exponentially slow by design; guarded to ~10^7 cells.
    """
    box = [int(b) for b in box]
    if prod(box) > 10_000_000:
        raise ValueError("box too large for the reference counter")
    gens = [tuple(int(e) for e in g) for g in np.asarray(gens)]
    count = 0
    for v in iter_product(*(range(b) for b in box)):
        if not any(all(ge <= ve for ge, ve in zip(g, v)) for g in gens):
            count += 1
    return count


def height_axis(box) -> int:
    """The longest side of the box; as the height axis it keeps fields smallest."""
    return max(range(len(box)), key=lambda i: box[i])


class FieldRows(NamedTuple):
    """The generators of an m-primary J, or of R, as `multiply_field` reads them.

    `bounds` are J's pure-power bounds and `axis` the height axis.  `rows`
    holds one (out_at, src_at, g_c) per generator with g_c < b_c: with g'
    its coordinates off the height axis, `out_at` slices every axis from
    g'_i on and `src_at` up to g'_i from its end, so that out[out_at] and
    src[src_at] are the cells x' >= g' and the cells x' - g' they read.
    """

    bounds: tuple[int, ...]
    axis: int
    rows: list[tuple[tuple, tuple, int]]


def field_rows(gens, bounds: tuple[int, ...], axis: int) -> FieldRows:
    """Split the rows of `gens`, which generate J with pure-power `bounds`, for `multiply_field`.

    The rows (tuples or lists of Python ints, one per axis) and `bounds` are
    taken as they are, with no conversion: an ideal's stored rows, or the
    rows `count_grid` converted once.  A row with g_c >= b_c is a multiple
    of the pure power (0', b_c) and is dropped: it cannot lower a height
    below that power's update.  Each slice tuple ends in ..., which keeps
    the 0-d field of d = 1 an array, and slice(-e or None) reads the whole
    axis when e = 0.
    """
    rows = []
    for g in gens:
        c = g[axis]
        if c < bounds[axis]:
            rest = g[:axis] + g[axis + 1:]
            out_at = (*(slice(e, None) for e in rest), ...)
            src_at = (*(slice(-e or None) for e in rest), ...)
            rows.append((out_at, src_at, c))
    return FieldRows(bounds, axis, rows)


def multiply_field(h: np.ndarray, box, J: FieldRows) -> np.ndarray:
    """Height field of P*J on the box `box + J.bounds`, from the field h of P.

    P and J are m-primary or R and `box` is P's pure-power bounds, 0 for
    R.  R's one row (0, ..., 0) is dropped, since 0 >= b_c = 0, so for J = R
    the product's field is a copy of h.  Beyond P's
    box a point lies in P, so P's field is h on its box and 0 on the rest
    of the product's.  The pure power (0', b_c) lies in J whether or not it
    is a row, so the field starts as h + b_c, that power's update, and rows
    with g_c >= b_c are already gone (`field_rows`).  Each row then updates
    out[g':] = min(out[g':], src[:-g'] + g_c), both views inside the
    product's box: every sum stays within the product's top, in the
    product's own type, and a row with g'_i at or past the box's side on
    some axis gives empty views and lowers nothing.
    """
    shape = list(map(add, box, J.bounds))
    top = shape.pop(J.axis)
    dtype = field_dtype(top)
    _check_size(shape, dtype)
    src = np.zeros(shape, dtype=dtype)
    src[tuple(map(slice, h.shape))] = h
    # Heights are added as scalars of the field's type: numpy 1.x sums the
    # 0-d field of d = 1 and a Python int in int64, which out= cannot narrow.
    lift = src.dtype.type
    # out= keeps the 0-d field of d = 1 an array, not a scalar
    out = np.add(src, lift(J.bounds[J.axis]), out=np.empty_like(src))
    for out_at, src_at, c in J.rows:
        view = out[out_at]
        np.minimum(view, src[src_at] + lift(c) if c else src[src_at], out=view)
    return out


def field_count(h: np.ndarray) -> int:
    """Standard points under the field h: the exact sum of its heights."""
    return int(np.add.reduce(h, axis=None, dtype=None if h.dtype == object else np.uint64))


def count_grid(gens, box) -> int:
    """Points of the box prod [0, b_i) divisible by no row of `gens`; exact for any d >= 1.

    The rows need not be minimal, nor lie in the box.  The count is the
    field of the rows along the longest side, built by `multiply_field`
    from the unit ideal's empty field with the box as J's bounds: the pure
    power (0', b_c) it assumes caps every height at the top, `field_rows`
    drops the rows at or past the top, and a row at or past the box on
    another axis updates empty views.  A box with a side 0, such as the
    unit ideal's (0, ..., 0), gives a field with no cells or a height of 0,
    which counts 0.
    """
    box = tuple(int(b) for b in box)
    gens = np.asarray(gens, dtype=np.int64)
    if gens.ndim != 2 or gens.shape[1] != len(box):
        raise ValueError("generator array must be (n, d)")
    unit = np.zeros((0,) * (len(box) - 1), field_dtype(0))
    J = field_rows(gens.tolist(), box, height_axis(box))
    return field_count(multiply_field(unit, (0,) * len(box), J))
