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
  the field of J.  Two shortcuts leave every height exact.  J is m-primary,
  so its pure power (0', b_c) on the height axis lies in J; its update
  covers the whole field, and from a field of tops it gives h + b_c, since
  h stays within P's top.  So `out` starts as h + b_c, and every g with
  g_c >= b_c, a multiple of that power, is dropped once per J by
  `field_rows`: it cannot lower a height.  A generator with g_c = 0 takes
  the minimum with the shifted h itself, with no sum array.
  Each update is one contiguous 1-D slice, not a strided view whose short
  rows numpy pays for one by one.  Both fields are laid out row-major on
  the product's box, with a margin past the end of every axis but the
  first that is as wide as J's largest shift on that axis, and P's field
  holds the top there.  A generator is then a flat offset o, and a cell
  whose shifted read would leave the box on some axis reads that axis's
  margin instead, which lowers nothing.  The result is the view on the
  box; its allocation is the box plus those margins.
* `count_grid` counts any generator array in any box by the field that
  `multiply_field` builds from the unit ideal, with the box as J's
  bounds, so it holds the whole field, its margins and one working copy
  at once; `field_count` sums a field exactly.

Counts are exact: a field is uint8, uint16 or uint32 while its top fits,
and holds Python ints beyond.  No height of a field passes its top, and
`multiply_field` adds at most b_c to P's heights, so a sum h + g_c never
passes the product's top; only a margin read, top + g_c, may pass the
field's type, and then the product is worked in the next type and
narrowed.  numpy sums uint16 and uint32 in uint64, which no field that
fits in memory can overflow, and `field_count` sums a uint8 field of fewer
than 2**24 cells in uint32, which is exact since 255 * 2**24 < 2**32.
"""

from __future__ import annotations

import sys
from itertools import product as iter_product
from math import prod
from operator import add, mul
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
    """The generators of an m-primary J as `multiply_field` reads them.

    `bounds` are J's pure-power bounds and `axis` the height axis.  `rows`
    holds (g', g_c) for each generator with g_c < b_c, g' the coordinates
    off the height axis; `margin` is the largest g'_i on each axis of the
    field but the first, which gets 0, and `lift` the largest g_c in `rows`.
    """

    bounds: tuple[int, ...]
    axis: int
    rows: list[tuple[list[int], int]]
    margin: list[int]
    lift: int


def field_rows(gens, bounds, axis: int) -> FieldRows:
    """Split the rows of `gens`, which generate J with pure-power `bounds`, for `multiply_field`.

    A row with g_c >= b_c is a multiple of the pure power (0', b_c) and is
    dropped: it cannot lower a height below that power's update.
    """
    bounds = tuple(int(b) for b in bounds)
    rows = []
    for g in np.asarray(gens, dtype=np.int64).reshape(-1, len(bounds)).tolist():
        c = g.pop(axis)
        if c < bounds[axis]:
            rows.append((g, c))
    margin = [max([g[i] for g, _ in rows], default=0) if i else 0 for i in range(len(bounds) - 1)]
    return FieldRows(bounds, axis, rows, margin, max([c for _, c in rows], default=0))


def multiply_field(h: np.ndarray, box, J: FieldRows) -> np.ndarray:
    """Height field of P*J on the box `box + J.bounds`, from the field h of P.

    P and J are m-primary and `box` is P's pure-power bounds.  Beyond P's
    box a point lies in P, so h counts as 0 there; every g' fits inside the
    product's box.  The pure power (0', b_c) lies in J whether or not it is
    a row, so the field starts as h + b_c, that power's update, and rows
    with g_c >= b_c are already gone (`field_rows`); every sum h + g_c
    therefore stays within the product's top.

    Both fields are laid out row-major on the product's box, each axis but
    the first widened by `J.margin[i]` cells past its end, and the margins
    of P's field hold the top.  A row is then one contiguous update,
    out[o:] = min(out[o:], src[:n - o] + g_c), at the flat offset
    o = sum g'_i * stride_i.  A cell x' >= g' reads the cell x' - g'.  For
    any other cell, take the last axis i with x'_i < g'_i.  If i is the
    first axis, the cell lies before o and is not updated.  Otherwise no
    later axis borrows, so the read lands at x'_i - g'_i + (box_i +
    margin_i) on axis i, inside its margin, since the margin is at least
    g'_i wide: the read is top + g_c, no lower than any height, and changes
    nothing.  The result is the view on the box.  Where top + g_c would
    pass the field's type, the work runs in the next type and the result
    is narrowed.
    """
    shape = list(map(add, box, J.bounds))
    top = shape.pop(J.axis)
    dtype, work = field_dtype(top), field_dtype(top + J.lift)
    padded = list(map(add, shape, J.margin))
    _check_size(padded, work)
    src = np.zeros(padded, dtype=work)
    for i in range(1, len(shape)):
        src[(slice(None),) * i + (slice(shape[i], None),)] = top
    # The trailing ... keeps the 0-d field of d = 1 an array, not a scalar.
    src[(*map(slice, h.shape), ...)] = h
    strides = [s // src.itemsize for s in src.strides]
    src = src.ravel()
    n = src.size
    # margin cells of out may wrap here; they are written, never read
    out = src + J.bounds[J.axis]
    for shift, c in J.rows:
        o = sum(map(mul, shift, strides))
        if o < n:
            view = out[o:]
            np.minimum(view, src[: n - o] + c if c else src[: n - o], out=view)
    out = out.reshape(padded)[(*map(slice, shape), ...)]
    return out if work is dtype else out.astype(dtype)


def field_count(h: np.ndarray) -> int:
    """Standard points under the field h: the exact sum of its heights."""
    # uint8 sums are exact in uint32 below 2**24 cells, as 255 * 2**24 < 2**32
    wide = np.uint32 if h.dtype == np.uint8 and h.size < 2**24 else None
    return int(np.add.reduce(h, axis=None, dtype=wide))


def count_grid(gens, box) -> int:
    """Points of the box prod [0, b_i) divisible by no row of `gens`; exact for any d >= 1.

    The rows need not be minimal, nor lie in the box.  The count is the
    field of the rows along the longest side, built by `multiply_field`
    from the unit ideal's empty field with the box as J's bounds: the pure
    power (0', b_c) it assumes caps every height at the top, and
    `field_rows` drops the rows at or past the top.  A row at or past the
    box on another axis lowers no cell and would widen a margin, so it is
    dropped first.
    """
    box = tuple(int(b) for b in box)
    if any(b <= 0 for b in box):
        return 0
    gens = np.asarray(gens, dtype=np.int64)
    if gens.ndim != 2 or gens.shape[1] != len(box):
        raise ValueError("generator array must be (n, d)")
    axis = height_axis(box)
    rest = [i for i in range(len(box)) if i != axis]
    rows = gens[(gens[:, rest] < [box[i] for i in rest]).all(axis=1)]
    unit = np.zeros((0,) * len(rest), field_dtype(0))
    return field_count(multiply_field(unit, (0,) * len(box), field_rows(rows, box, axis)))
