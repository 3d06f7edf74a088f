"""The exact solver for narrow instances, from windows to solutions.

A narrow instance (bounded cross-section, one long axis) flattens into an
array whose columns run along the long axis.  The DP state is a feasible
window: which rows of the trailing omega columns hold a chosen vertex.
Chaining windows whose tail/head overlap agree sweeps the array in one
left-to-right pass, so the run time is linear in the long extent.
"""

from fractions import Fraction

from losnet import (
    GenConfig,
    InstanceParams,
    NarrowDp,
    brute_mis,
    build_array,
    generate,
    solve_exact_narrow,
    verify,
)
from losnet.narrow import box_conflicts

# The window state space for a 2-wide cross-section at omega=3: rows 0 and 1
# are within line of sight, so they may never share a window column.  The DP
# takes the row count and, per row, the bitmask of rows it conflicts with;
# ``box_conflicts`` derives them from the cross-section's extents.  A window
# is its row positions: 0 for an empty row, else the window column (1
# oldest, omega newest) of the row's entry.
masks = box_conflicts((2,), 3)
print("conflict masks of the 2 rows:", [bin(m) for m in masks])
dp = NarrowDp(2, 3, lambda: masks)
print(f"windows for a 2-row cross-section, omega=3: {len(dp.windows)}")
for positions in dp.windows:
    print("  positions:", positions)

# Two columns: rows 1 and 2 weigh 2 and 3 in the first, row 1 weighs 1 in
# the second.  A push shifts every window left one column, then offers the
# column's rows for its newest one.
dp.push_column({0: 2, 1: 3})
dp.push_column({0: 1})
# The winner of any prefix reads back as its best weight and window, and as
# the placements unwound from that window through the recorded predecessors.
for layer in (1, 2):
    best, window = dp.best_at(layer)
    print(f"best after {layer} column(s): {best} in window {window}")
    print("  placements (row index, column):", dp.placements(layer))

# Solve a generated instance and compare with the exhaustive oracle.
cfg = GenConfig(InstanceParams(2, (12, 2), 3), Fraction(3, 5), "uniform:1:5", 9)
inst = generate(cfg)
array = build_array(inst, long_axis=0)
print(f"\ninstance: {len(inst)} vertices, array {array.nrows}x{array.n + array.omega}")

sol = solve_exact_narrow(inst, long_axis=0)
ref = brute_mis(inst)
print("dp weight:   ", sol.total_weight)
print("brute weight:", ref.total_weight)
assert sol.total_weight == ref.total_weight

report = verify(inst, sol)
print("verified:", report.independent)
print("chosen:", sol.vertices)
