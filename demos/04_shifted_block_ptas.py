"""Tunable accuracy: shifted block partitions.

For a chosen slack eps, pick h so the per-axis loss (1+1/h) compounds to at
most 1+eps over the non-long axes.  Cutting one axis per level, each shift
discards one strip out of every h+1 and solves the surviving blocks; some
shift loses at most a 1/(h+1) share of the optimum, and the solver keeps
the best shift.  Smaller eps means taller blocks: accuracy trades against
the window budget of the exact solver underneath.
"""

from fractions import Fraction

from losnet import (
    GenConfig,
    InstanceParams,
    brute_mis,
    generate,
    make_blocks,
    ptas_shift_count,
    solve_ptas,
)

cfg = GenConfig(InstanceParams(2, (12, 4), 3), Fraction(1, 2), "const:1", 12)
inst = generate(cfg)
opt = brute_mis(inst).total_weight
print(f"instance: {len(inst)} vertices in a 12x4 box, optimum {opt}")

print("\nblock layout for h=2, shift=1, k=2 on the width axis:")
dec = make_blocks(inst, h=2, shift=1, axis=1)
for part in dec.blocks:
    print(f"  block rows {part.lo}..{part.hi}: {len(part.vertices)} vertices")
for part in dec.boundary:
    print(f"  discarded rows {part.lo}..{part.hi}: {len(part.vertices)} vertices")

print("\neps sweep (weight x (1+eps) must reach the optimum):")
for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
    sol = solve_ptas(inst, eps, long_axis=0)
    print(
        f"  eps={eps}: h={sol.meta['h']}, shift={sol.meta['shift']}, "
        f"weight={sol.total_weight}, bound ok={sol.total_weight * (1 + eps) >= opt}"
    )
    assert sol.total_weight * (1 + eps) >= opt

# In higher dimensions the slack splits across the cut axes: at d=3 a total
# slack of 21% leaves exactly 10% per axis, so h jumps to 10.
print("\nshift parameter h by dimension for eps=21/100:", end=" ")
print(ptas_shift_count(Fraction(21, 100), 2), "at d=2,", end=" ")
print(ptas_shift_count(Fraction(21, 100), 3), "at d=3")

cfg3 = GenConfig(InstanceParams(3, (8, 2, 2), 2), Fraction(2, 5), "const:1", 5)
inst3 = generate(cfg3)
opt3 = brute_mis(inst3).total_weight
sol3 = solve_ptas(inst3, Fraction(1, 2), long_axis=0)
print(f"d=3 run: weight {sol3.total_weight} vs optimum {opt3}")
assert sol3.total_weight * Fraction(3, 2) >= opt3
