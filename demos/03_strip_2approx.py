"""Factor-2 approximation for instances of any width, in any dimension.

Cut every non-long axis into strips of width omega-1.  Strips whose index
parities agree are at least omega apart, hence mutually invisible: each
parity class can be solved strip by strip with the exact narrow solver and
unioned.  The optimum splits across the two classes, so the heavier union
carries at least half of it.
"""

from fractions import Fraction

from losnet import (
    GenConfig,
    InstanceParams,
    brute_mis,
    generate,
    solve_exact_narrow,
    solve_strip2,
)

cfg = GenConfig(InstanceParams(2, (9, 6), 3), Fraction(2, 5), "uniform:1:5", 21)
inst = generate(cfg)
print(f"instance: {len(inst)} vertices in a 9x6 box, omega=3 (strip width 2)")

# Axis 1 is cut: a vertex at row r sits in strip (r-1)//2, and a strip's
# parity is its index mod 2.
for coords in list(inst.coords_sorted())[:4]:
    index = (coords[1] - 1) // 2
    print(f"  {coords} -> strip {index}, parity {index % 2}")

sol = solve_strip2(inst, long_axis=0)
meta = sol.meta
print(f"strips solved: {meta['strips']}")
print(f"odd union weight: {meta['odd_weight']} | even union weight: {meta['even_weight']}")
print("strip union weight:", sol.total_weight, "| kept parity:", meta["parity"])

opt = brute_mis(inst).total_weight if len(inst) <= 24 else None
if opt is not None:
    print("optimum:", opt, "| ratio:", Fraction(sol.total_weight, opt))
    assert 2 * sol.total_weight >= opt

# On a single-strip instance the approximation is silently exact.
narrow_cfg = GenConfig(InstanceParams(2, (30, 2), 3), Fraction(1, 2), "const:1", 4)
narrow = generate(narrow_cfg)
assert (
    solve_strip2(narrow, 0).total_weight
    == solve_exact_narrow(narrow, 0).total_weight
)
print("single-strip instance: strip union equals the exact optimum")
