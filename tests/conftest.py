import functools
import os
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st

import losnet
from losnet import InstanceParams, LosInstance, brute_windows


def child_env() -> dict:
    """Environment for a child interpreter that imports this losnet."""
    return dict(os.environ, PYTHONPATH=str(Path(losnet.__file__).parent.parent))


def make_inst(extents, omega, cells) -> LosInstance:
    """Instance from {coords: weight-ish} with weights coerced to Fraction."""
    params = InstanceParams(len(extents), tuple(extents), omega)
    return LosInstance(params, {tuple(c): Fraction(w) for c, w in cells.items()})


def unit_inst(extents, omega, coords) -> LosInstance:
    return make_inst(extents, omega, {c: 1 for c in coords})


def cells_inst(row_extents, omega, n, cells, long_axis=0) -> LosInstance:
    """Instance whose narrow array along ``long_axis`` holds ``cells``, a
    {(row, column): weight} map: cell (row, j) is the vertex at ``row`` with
    ``j`` inserted at ``long_axis``, and the long extent is ``n``."""

    def at(row, j):
        coords = list(row)
        coords.insert(long_axis, j)
        return tuple(coords)

    extents = list(row_extents)
    extents.insert(long_axis, n)
    return make_inst(extents, omega, {at(row, j): w for (row, j), w in cells.items()})


@st.composite
def small_instances(draw, max_n=8, max_k=3, max_d=3, max_vertices=14):
    """Random small weighted instances, narrow along axis 0."""
    d = draw(st.integers(2, max_d))
    extents = tuple(
        draw(st.integers(1, max_n if a == 0 else max_k)) for a in range(d)
    )
    omega = draw(st.integers(2, 4))
    params = InstanceParams(d, extents, omega)
    all_cells = []
    from itertools import product

    for coords in product(*(range(1, e + 1) for e in extents)):
        all_cells.append(coords)
    chosen = draw(
        st.lists(st.sampled_from(all_cells), unique=True, max_size=max_vertices)
    ) if all_cells else []
    # Denominators up to 4 exercise the DP's rescaling of its integer table.
    weights = {
        c: Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 4))) for c in chosen
    }
    return LosInstance(params, weights)


def as_grid(positions, omega):
    """Rows x omega 0/1 grid of a window given by its positions."""
    return tuple(
        tuple(1 if p == c else 0 for c in range(1, omega + 1)) for p in positions
    )


def tail_equals_head(w1, w2, omega):
    """Literal array-level chaining oracle on position tuples: ``w1``
    without its oldest column equals ``w2`` without its newest."""
    tail = tuple(row[1:] for row in as_grid(w1, omega))
    head = tuple(row[:-1] for row in as_grid(w2, omega))
    return tail == head


@functools.lru_cache(maxsize=None)
def oracle_windows(rows, omega):
    """``brute_windows`` of a shape, ascending, filtered once per shape."""
    return tuple(sorted(brute_windows(rows, omega)))
