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

# The window state space for a 2-wide cross-section at omega=3: rows 1 and 2
# are within line of sight, so they may never share a window column.  A
# window is its row positions: 0 for an empty row, else the window column
# (1 oldest, omega newest) of the row's entry.
dp = NarrowDp((2,), 3)
print(f"windows for a 2-row cross-section, omega=3: {len(dp.windows)}")
for positions in dp.windows:
    print("  positions:", positions)

# Two columns: rows 1 and 2 weigh 2 and 3 in the first, row 1 weighs 1 in
# the second.  A push shifts every window left one column, then offers the
# column's rows for its newest one.
dp.push_column({0: 2, 1: 3})
dp.push_column({0: 1})
best, window = dp.best_at(2)
pred = dp.pred_at(2, window)
print(f"best after 2 columns: {best} in window {window}")
print(f"its predecessor after 1 column: {pred}")
print("placements (row, column):", dp.placements())

# Solve a generated instance and compare with the exhaustive oracle.
cfg = GenConfig(InstanceParams(2, (12, 2), 3), Fraction(3, 5), "uniform:1:5", 9)
inst = generate(cfg)
array = build_array(inst, long_axis=0)
print(f"\ninstance: {len(inst)} vertices, array {len(array.rows)}x{array.n + array.omega}")

sol = solve_exact_narrow(inst, long_axis=0)
ref = brute_mis(inst)
print("dp weight:   ", sol.total_weight)
print("brute weight:", ref.total_weight)
assert sol.total_weight == ref.total_weight

report = verify(inst, sol)
print("verified:", report.independent)
print("chosen:", sol.vertices)
