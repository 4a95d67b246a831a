"""Exact lattice-point counting for staircase complements, on height fields.

Everything here counts standard monomials: exponent vectors v inside a box
prod [0, b_i) that are not divisible by any generator.  `count_naive` is the
trivially-correct reference (enumerate the box, test every generator).

The production representation of a staircase is its height field.  Pick one
coordinate c of the box as the height axis; over the cells x' of the other
axes, h(x') = min(b_c, min{g_c : g' <= x'}) is the number of standard points
above x', so the count is h.sum().
* `multiply_field` turns a batch of fields of ideals P, a leading axis of
  fields on one box, into the batch of fields of the P*J on the same box,
  with one min-plus update per generator g of J for the whole batch:
  out[..., g':] = min(out[..., g':], h[..., :-g'] + g_c).
  Nothing is minimalized; from the zero field of the unit ideal it gives
  the field of J.  Two shortcuts leave every height exact.  J is m-primary
  or R, so its pure power (0', b_c) on the height axis lies in J (for R,
  b_c = 0 and the power is 1, so P*R keeps P's field); its update
  covers the whole field, and from a field of tops it gives h + b_c, since
  h stays within P's top.  So `out` starts as h + b_c, and every g with
  g_c >= b_c, a multiple of that power, is dropped once per J by
  `field_rows`: it cannot lower a height.  A generator with g_c = 0 takes
  the minimum with the shifted h itself, with no sum array.
  The kernel allocates its product and one sum at a time, and no copy of
  h; it picks no box and no type of its own.  Each update is one strided
  view per side, one slice per axis after the batch axis, which the
  slices lead with an ellipsis to pass; every read lies inside h's box,
  and a generator whose shift reaches past it on some axis gives empty
  views and updates nothing.
* `zero_fields` lays out every batch that is multiplied: zero fields on a
  box, in the type of the box's top, after the size check.  Any box that
  holds the product's box is exact: a field is 0 past its own box, since
  the pure powers off the height axis put those cells in the ideal, so
  fields of different boxes share a batch on one that holds them all, as
  the sampler's chunks do, and a batch climbs step after step on the box
  of its last product.
* `count_grid` counts any generator array in any box by the field that
  `multiply_field` builds from the unit ideal's zero field on that box, a
  batch of one, with the box as J's bounds, so it holds the whole field,
  the zero field it reads and one sum at once; `field_counts` sums each
  field of a batch exactly, in one reduce.
* `field_rows` takes rows of Python ints as they are.  `count_grid`
  converts and shape-checks outside input once, as an int64 array, and
  hands its rows on as lists; the sampler hands each ideal's stored
  tuples, checked when the ideal was built.

Counts are exact: a batch is uint8, uint16 or uint32 while the top of its
box fits, and holds Python ints beyond.  No height of a field passes its
top, and `multiply_field` adds g_c <= b_c to heights of P, so every sum
h + g_c stays within the product's top, which the box's top and so h's
type hold.  `field_counts` sums an unsigned field in a uint32 accumulator
while its cells times 2**bits stay below 2**32, bits the width of its
type, and in uint64 beyond, exact below 2**32 cells since every height is
below 2**32 (a uint32 field that large holds 16 GiB); an object field
sums in Python ints.
"""

from __future__ import annotations

import sys
from itertools import product as iter_product
from math import prod
from typing import NamedTuple

import numpy as np


def _check_size(shape, dtype) -> None:
    """Raise MemoryError for an array of `shape` and `dtype` past numpy's maximum size.

    numpy refuses an array of more than np.iinfo(np.intp).max bytes with a
    ValueError, before it asks for memory; intp is the size of Py_ssize_t,
    so that bound is sys.maxsize, which costs no numpy call.  No field type
    takes more than 8 bytes a cell, so smaller fields skip the type's size.
    """
    cells = prod(shape)
    if cells > sys.maxsize >> 3 and cells * np.dtype(dtype).itemsize > sys.maxsize:
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
            out_at = (..., *(slice(e, None) for e in rest))
            src_at = (..., *(slice(-e or None) for e in rest))
            rows.append((out_at, src_at, c))
    return FieldRows(bounds, axis, rows)


def zero_fields(n: int, box, axis: int) -> np.ndarray:
    """A batch of `n` zero fields on `box` along `axis`, in the type of the box's top.

    The one place that decides a batch's box and type: `count_grid` and
    the sampler lay out every batch they multiply here.  Raises
    MemoryError, with nothing allocated, past numpy's maximum size.
    """
    shape = (n, *box[:axis], *box[axis + 1:])
    dtype = field_dtype(box[axis])
    _check_size(shape, dtype)
    return np.zeros(shape, dtype)


def multiply_field(h: np.ndarray, J: FieldRows) -> np.ndarray:
    """Height fields of P*J from a batch h of fields of P, on h's own box and in h's type.

    h has a leading axis of fields, one per P, laid out on a box that holds
    each product's box, in a type that holds each product's top, as
    `zero_fields` lays a batch out.  P and J are m-primary or R.  Beyond
    P's own box a point lies in P, so P's field is 0 there, and beyond the
    product's box J's pure powers off the height axis keep the product's
    field at 0: the result is exact on any box that holds the product's.  R's one row (0, ..., 0) is dropped,
    since 0 >= b_c = 0, so for J = R the product's fields are a copy of h.
    The pure power (0', b_c) lies in J whether or not it is a row, so the
    fields start as h + b_c, that power's update, and rows with g_c >= b_c
    are already gone (`field_rows`).  Each row then updates out[..., g':]
    = min(out[..., g':], h[..., :-g'] + g_c), both views inside the box:
    every sum stays within the product's top, so h's type holds it, and a
    row with g'_i at or past the box's side on some axis gives empty views
    and lowers nothing.
    """
    # heights are added as scalars of the field's own type, which every sum
    # keeps under numpy 1.x value-based casting and numpy 2 alike
    lift = h.dtype.type
    out = h + lift(J.bounds[J.axis])
    # a row of height 0 takes the minimum with the shifted field itself, with
    # no sum array: with one path for every row, br_direct over the 79
    # br-cross-check modules took 7-13 % longer (medians of 21 alternating
    # passes, four runs)
    for out_at, src_at, c in J.rows:
        view = out[out_at]
        np.minimum(view, h[src_at] + lift(c) if c else h[src_at], out=view)
    return out


def field_counts(h: np.ndarray) -> list[int]:
    """Standard points under each field of the batch h: the exact sum of each one's heights.

    h holds at least one field, and one reduce sums each over its cells.  An unsigned field sums in uint32
    while its cells times 2**bits, bits its type's width, stay below 2**32,
    so every sum is exact, and in uint64 beyond; an object field sums in
    Python ints.  On uint8 fields of 22 500 cells, uint32 sums took 6-7 us
    against 11-13 us in uint64 (timeit, numpy 2.4.6), and with uint64 alone
    the d = 4 table of tests/test_lengths.py took 4-5 % longer (medians of
    21-41 alternating calls, in-process).
    """
    # a field of h.size / len(h) cells sums below 2**32 when cells << bits does
    wide = None if h.dtype == object else (
        np.uint32 if h.size << 8 * h.itemsize < len(h) << 32 else np.uint64)
    return np.add.reduce(h.reshape(len(h), -1), axis=1, dtype=wide).tolist()


def count_grid(gens, box) -> int:
    """Points of the box prod [0, b_i) divisible by no row of `gens`; exact for any d >= 1.

    The rows need not be minimal, nor lie in the box.  The count is the
    field of the rows along the longest side, built by `multiply_field`
    from the unit ideal's zero field on the box, with the box as J's
    bounds: the pure power (0', b_c) it assumes caps every height at the
    top, `field_rows` drops the rows at or past the top, and a row at or
    past the box on another axis updates empty views.  A box with a side
    0, such as the unit ideal's (0, ..., 0), gives a field with no cells or
    a height of 0, which counts 0.
    """
    box = tuple(map(int, box))
    gens = np.asarray(gens, dtype=np.int64)
    if gens.ndim != 2 or gens.shape[1] != len(box):
        raise ValueError("generator array must be (n, d)")
    axis = height_axis(box)
    J = field_rows(gens.tolist(), box, axis)
    (count,) = field_counts(multiply_field(zero_fields(1, box, axis), J))
    return count
