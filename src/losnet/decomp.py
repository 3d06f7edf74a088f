"""Strip and block decompositions: the 2-approximation and the PTAS.

Both algorithms cut the grid across the narrow axes into parts the exact
narrow solver can handle, then recombine:

* strips of width omega-1 across every non-long axis are mutually
  non-adjacent whenever their index parities agree, so the heavier of the
  odd/even unions of per-strip optima is within a factor 2 of optimal;

* shifted block partitions discard one strip out of every h+1, solve the
  surviving blocks exactly, and keep the best shift, losing at most a
  1 + 1/h factor per cut axis.  Cutting the non-long axes one per level
  yields the (1+epsilon) scheme for any dimension.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Iterable
from fractions import Fraction
from numbers import Rational

from .core import (
    Coords,
    FrozenRecord,
    InstanceParams,
    LosInstance,
    Solution,
    check_digits,
    check_epsilon,
    resolve_long_axis,
)
from .errors import ValidationError
from .narrow import solve_exact_narrow


def _slice(
    inst: LosInstance,
    ranges: dict[int, tuple[int, int]],
    members: Iterable[Coords],
) -> tuple[LosInstance, tuple[int, ...]]:
    """Sub-instance of ``members``, translated so ``ranges`` start at 1.

    ``members`` must be exactly the vertices of ``inst`` inside the per-axis
    coordinate ranges (axes not named keep their full extent); the caller
    has them grouped already.  ``inst`` validated them, so they are not
    checked again.  Returns the sub-instance and the per-axis offsets to add
    back to its coordinates to recover positions in ``inst``.
    """
    p = inst.params
    extents = []
    offsets = []
    for a in range(p.d):
        lo, hi = ranges.get(a, (1, p.extents[a]))
        extents.append(hi - lo + 1)
        offsets.append(lo - 1)
    weights = inst.vertices
    cells = {tuple(map(operator.sub, c, offsets)): weights[c] for c in members}
    params = InstanceParams(p.d, tuple(extents), p.omega)
    return LosInstance._trusted(params, cells), tuple(offsets)


def _translate(coords: Iterable[Coords], offsets: tuple[int, ...]) -> list[Coords]:
    return [tuple(c + o for c, o in zip(cc, offsets)) for cc in coords]


def solve_strip2(
    inst: LosInstance,
    long_axis: int | None = None,
    budget: int | None = None,
) -> Solution:
    """2-approximation by odd/even strips of width omega-1.

    A vertex's strip index is (coordinate-1)//(omega-1) on each non-long
    axis, and the strip's parity is the index sum mod 2.  Each strip is
    solved exactly; two strips with the same index parity are at least
    omega apart on some axis and never interact, so each parity union is
    independent.  The heavier union (ties to even) is at least half the
    optimum because the optimum splits across the two parity classes.
    """
    p = inst.params
    long_axis = resolve_long_axis(p, long_axis)
    k = p.omega - 1
    cut_axes = [a for a in range(p.d) if a != long_axis]
    by_strip: dict[tuple[int, ...], list[Coords]] = {}
    for coords in inst.vertices:
        index = tuple([(coords[a] - 1) // k for a in cut_axes])
        by_strip.setdefault(index, []).append(coords)

    unions: dict[int, list[Coords]] = {0: [], 1: []}
    weights: dict[int, Rational] = {0: 0, 1: 0}
    for index in sorted(by_strip):
        ranges = {}
        for a, i in zip(cut_axes, index):
            ranges[a] = (k * i + 1, min(k * (i + 1), p.extents[a]))
        sub, offsets = _slice(inst, ranges, by_strip[index])
        sol = solve_exact_narrow(sub, long_axis=long_axis, budget=budget)
        side = sum(index) % 2
        unions[side].extend(_translate(sol.vertices, offsets))
        weights[side] += sol.total_weight
    parity = 1 if weights[1] > weights[0] else 0
    meta = {
        "k": k,
        "parity": "odd" if parity else "even",
        "strips": len(by_strip),
        "odd_weight": str(weights[1]),
        "even_weight": str(weights[0]),
    }
    chosen = tuple(sorted(unions[parity]))
    return Solution("strip2", chosen, weights[parity], meta)


# -- shifted block partitions -------------------------------------------------


class Part(FrozenRecord):
    """A maximal coordinate range on the cut axis plus its vertices."""

    lo: int
    hi: int
    vertices: tuple[Coords, ...]


class BlockDecomposition(FrozenRecord):
    """Shifted partition of one axis into solved blocks and discarded strips.

    The leading block spans shift*k coordinates; afterwards width-k boundary
    strips alternate with width-h*k blocks, the final part possibly cut
    short.  Blocks and boundary partition the vertex set.
    """

    shift: int
    h: int
    axis: int
    k: int
    blocks: tuple[Part, ...]
    boundary: tuple[Part, ...]


def make_blocks(inst: LosInstance, h: int, shift: int, axis: int) -> BlockDecomposition:
    """Cut ``axis`` into the shifted block/boundary pattern.  The strip width
    k is omega-1, read from the instance, so no two blocks see each other."""
    if h < 1:
        raise ValidationError(f"h must be >= 1, got {h}")
    if not 0 <= shift <= h:
        raise ValidationError(f"shift must be in 0..{h}, got {shift}")
    p = inst.params
    if not 0 <= axis < p.d:
        raise ValidationError(f"axis {axis} outside 0..{p.d - 1}")
    k = p.omega - 1
    extent = p.extents[axis]
    segments: list[tuple[int, int, bool]] = []  # (lo, hi, is_block)
    pos = 1
    if shift:
        hi = min(shift * k, extent)
        segments.append((1, hi, True))
        pos = hi + 1
    while pos <= extent:
        hi = min(pos + k - 1, extent)
        segments.append((pos, hi, False))
        pos = hi + 1
        if pos > extent:
            break
        hi = min(pos + h * k - 1, extent)
        segments.append((pos, hi, True))
        pos = hi + 1
    starts = [lo for lo, _, _ in segments]
    members: list[list[Coords]] = [[] for _ in segments]
    for coords in sorted(inst.vertices):
        members[bisect_right(starts, coords[axis]) - 1].append(coords)
    blocks, boundary = [], []
    for i, (lo, hi, is_block) in enumerate(segments):
        part = Part(lo, hi, tuple(members[i]))
        (blocks if is_block else boundary).append(part)
    return BlockDecomposition(shift, h, axis, k, tuple(blocks), tuple(boundary))


def ptas_shift_count(epsilon: Fraction, d: int) -> int:
    """Block height parameter h: smallest h with (1+1/h)^(d-1) <= 1+epsilon.

    This is the integer form of ceil(1/eps') for
    eps' = (1+epsilon)^(1/(d-1)) - 1, computed in exact rational arithmetic,
    so the per-level loss (1+1/h) compounds to at most 1+epsilon over the
    d-1 cut axes.
    """
    epsilon = check_epsilon(epsilon)
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    # With m = d-1, Bernoulli gives (1+1/h)^m >= 1 + m/h, so no h below
    # ceil(m/epsilon) passes; for h > m, (1+1/h)^m <= h/(h-m), so that
    # bound plus m passes.  At most m+1 candidates are tested.
    m = d - 1
    h = max(1, math.ceil(m / epsilon))
    while (1 + Fraction(1, h)) ** m > 1 + epsilon:
        h += 1
    return h


def solve_ptas(
    inst: LosInstance,
    epsilon: Fraction,
    long_axis: int | None = None,
    budget: int | None = None,
) -> Solution:
    """(1+epsilon)-approximation by shifted blocks, any dimension.

    Cuts the non-long axes one per level, ascending axis index.  Per level
    and per shift, the axis splits into blocks separated by discarded
    width-(omega-1) strips; blocks are narrower on that axis and recurse,
    bottoming out in the exact narrow solver.  Each level keeps its best
    shift (smallest index on ties).
    """
    epsilon = check_epsilon(epsilon)
    p = inst.params
    long_axis = resolve_long_axis(p, long_axis)
    k = p.omega - 1
    h = check_digits(ptas_shift_count(epsilon, p.d), "epsilon too small: h")
    cut_axes = [a for a in range(p.d) if a != long_axis]
    coords, shift, block_weights = _ptas_level(inst, cut_axes, long_axis, h, budget)
    meta = {
        "epsilon": str(epsilon),
        "h": h,
        "k": k,
        "shift": shift,
        "blocks": len(block_weights),
        "block_weights": [str(w) for w in block_weights],
    }
    coords.sort()
    return Solution("ptas", tuple(coords), sum(block_weights), meta)


def _ptas_level(
    inst: LosInstance,
    cut_axes: list[int],
    long_axis: int,
    h: int,
    budget: int | None,
) -> tuple[list[Coords], int, list[Rational]]:
    if not cut_axes:
        sol = solve_exact_narrow(inst, long_axis=long_axis, budget=budget)
        return list(sol.vertices), 0, [sol.total_weight]
    axis = cut_axes[0]

    def solve_block(part: Part) -> tuple[list[Coords], Rational]:
        if not part.vertices:
            return [], 0
        sub, offsets = _slice(inst, {axis: (part.lo, part.hi)}, part.vertices)
        sub_coords, _, sub_weights = _ptas_level(
            sub, cut_axes[1:], long_axis, h, budget
        )
        return _translate(sub_coords, offsets), sum(sub_weights)

    # From shift ceil(extent/k) on, the leading block covers the whole axis:
    # later shifts rebuild that same block and cannot win the strict ">".
    k = inst.params.omega - 1
    last_shift = min(h, -(-inst.params.extents[axis] // k))
    best: tuple[Rational, int, list[Coords], list[Rational]] | None = None
    for shift in range(last_shift + 1):
        dec = make_blocks(inst, h, shift, axis)
        coords: list[Coords] = []
        weights: list[Rational] = []
        for block_coords, block_weight in map(solve_block, dec.blocks):
            coords.extend(block_coords)
            weights.append(block_weight)
        total = sum(weights)
        if best is None or total > best[0]:
            best = (total, shift, coords, weights)
    assert best is not None
    return best[2], best[1], best[3]
