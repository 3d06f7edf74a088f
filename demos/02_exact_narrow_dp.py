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
    brute_mis,
    build_array,
    consistent,
    enumerate_windows,
    generate,
    solve_exact_narrow,
    verify,
)

# The window state space for a 2-wide cross-section at omega=3: rows 1 and 2
# are within line of sight, so they may never share a window column.
windows = enumerate_windows((2,), 3)
print(f"windows for a 2-row cross-section, omega=3: {len(windows)}")
for w in windows[:5]:
    print("  positions:", w.positions, "grid:", w.as_grid())

w_mid = next(w for w in windows if w.positions == (2, 0))
w_left = next(w for w in windows if w.positions == (1, 0))
print("entry shifts left one column:", consistent(w_mid, w_left))

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
