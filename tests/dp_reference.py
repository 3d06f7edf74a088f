"""Test-side views of ``NarrowDp``: the pairwise conflict masks of an
explicit row arrangement, a DP built from a row spec, and reads of the DP's
packed state as position tuples (its live table and recorded predecessors).

A window is its position tuple: per row index, 0 when empty, else the
1-based window column of its entry.
"""

import math
from fractions import Fraction

from losnet import NarrowDp, are_adjacent, narrow, normalize_rows


def pairwise_conflicts(rows, omega):
    """Per row, the bitmask of the rows it is adjacent to (``are_adjacent``
    over every pair): the reference for ``box_conflicts``."""
    return tuple(
        sum(1 << b for b, rb in enumerate(rows) if are_adjacent(ra, rb, omega))
        for ra in rows
    )


def dp_of(row_spec, omega, budget=None, capacity=None):
    """``NarrowDp`` over a box of extents, with ``box_conflicts`` masks read
    from ``losnet.narrow`` only once the budget passed, or over an explicit
    arrangement, with the pairwise masks of its ``normalize_rows`` order."""
    spec = tuple(row_spec)
    if spec and all(isinstance(e, int) and e >= 1 for e in spec):
        return NarrowDp(
            math.prod(spec), omega, lambda: narrow.box_conflicts(spec, omega),
            budget, capacity,
        )
    rows = normalize_rows(spec)
    return NarrowDp(
        len(rows), omega, lambda: pairwise_conflicts(rows, omega), budget, capacity
    )


def pack(dp, positions):
    """The packed int of a window given by its positions."""
    return sum(p << at for p, at in zip(positions, dp._at))


def table(dp):
    """The newest layer: positions of each live window -> its best weight."""
    return {dp._unpack(key): Fraction(v, dp._scale) for key, v in dp._cur.items()}


def pred_at(dp, layer, positions):
    """Predecessor of a window at ``layer``: the one recorded for its
    shifted form, which is the window with its entries at omega cleared."""
    shifted = [0 if p == dp.omega else p for p in positions]
    return dp._unpack(dp._preds[layer - 1][pack(dp, shifted)])
