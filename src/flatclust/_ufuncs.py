"""How numpy's ufuncs iterate over blocks of rows."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = ["row_loops"]


@contextmanager
def row_loops(length: int):
    """Run ufuncs over (rows, length) blocks one row per inner loop.

    An op between a block and a per-row (rows, 1) operand, or between two
    blocks whose rows are not adjacent in memory, cannot run as one flat
    loop. When its rows are shorter than numpy's ufunc buffer (8192
    elements by default), numpy copies the operands through that buffer to
    lengthen its inner loop, which made such ops two to three times slower
    than looping over the rows in place. A buffer of at most one row (and
    never larger than numpy's own) keeps them in place. Only the iteration
    changes: every element is the same rounded operation, so the bits are
    the same.
    """
    size = min(length, np.getbufsize())
    old = np.setbufsize(max(16, size - size % 16))  # numpy wants a multiple of 16
    try:
        yield
    finally:
        np.setbufsize(old)
