"""Semi-online solving: columns arrive left to right, decisions are final.

Each phase anchors at the next unseen column and keeps extending the exact
DP by omega columns while every extension grows the best weight by at least
1+eps.  When growth stalls, the phase commits its last good set and throws
away the freshly examined omega columns as a separator, so phases never
interact.  The look-ahead any phase can need is bounded in advance, which is
what makes the scheme semi-online rather than offline.
"""

from fractions import Fraction

from losnet import (
    GenConfig,
    InstanceParams,
    build_array,
    generate,
    max_lookahead,
    run_phase,
    solve_exact_narrow,
    solve_semionline,
)

cfg = GenConfig(InstanceParams(2, (40, 2), 3), Fraction(1, 2), "const:1", 17)
inst = generate(cfg)
eps = Fraction(1, 2)

print("contract look-ahead buffer:", max_lookahead(2, 2, eps, 3), "columns")
print("\nphase by phase:")
array = build_array(inst, long_axis=0)
j = 1
while j <= array.n:
    ph = run_phase(array, j, eps)
    j += ph.lookahead_used  # the next phase anchors after the columns read
    kind = "degenerate" if ph.degenerate else ("stopped" if ph.stopped else "exhausted")
    print(
        f"  anchor {ph.j0:>2}: rounds={ph.r}, kept weight={ph.current_weight}, "
        f"look-ahead={ph.lookahead_used} ({kind})"
    )

sol = solve_semionline(inst, eps, long_axis=0)
exact = solve_exact_narrow(inst, 0).total_weight
print(f"\nsemi-online weight {sol.total_weight} vs offline optimum {exact}")
print(f"guarantee: {sol.total_weight} * (1+{eps}) >= {exact}:",
      sol.total_weight * (1 + eps) >= exact)
print("phases:", sol.meta["phases"],
      "| max look-ahead used:", sol.meta["lookahead_max_used"],
      "of", sol.meta["lookahead_limit"])
