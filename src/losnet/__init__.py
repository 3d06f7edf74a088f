"""Solvers for weighted independent sets on line-of-sight grid networks.

The package provides:

* an exact dynamic program over feasible windows for narrow instances,
* an odd/even strip 2-approximation for any dimension,
* a shifted-block (1+epsilon) scheme for any dimension,
* a phase-based semi-online (1+epsilon) solver with bounded look-ahead,
* an airing-schedule variant (per-client gaps, per-slot capacity),
* brute-force oracles (``losnet.brute``) and an exact solution verifier
  (``losnet.oracle``),
* deterministic instance generation and line-oriented file formats.

All weights are exact rationals; all solvers are deterministic.
"""

import importlib

# Public name -> defining submodule.  Names resolve on first access (PEP 562),
# so a command imports only the solver modules it runs.
_EXPORTS = {
    "adssched": ("AdsInstance", "solve_adssched"),
    "brute": (
        "brute_adssched", "brute_mis", "brute_windows", "exhaustive_mis",
        "normalize_rows",
    ),
    "core": (
        "Coords",
        "GenConfig",
        "InstanceParams",
        "LosInstance",
        "Solution",
        "are_adjacent",
        "default_long_axis",
        "generate",
        "is_independent",
        "set_weight",
    ),
    "decomp": (
        "BlockDecomposition",
        "make_blocks",
        "ptas_shift_count",
        "solve_ptas",
        "solve_strip2",
    ),
    "errors": ("CapacityError", "LosError", "UnknownCoordinateError", "ValidationError"),
    "io": (
        "load_ads",
        "load_instance",
        "load_solution",
        "parse_ads",
        "parse_instance",
        "save_instance",
        "serialize_ads",
        "serialize_instance",
        "solution_to_json",
    ),
    "narrow": (
        "DEFAULT_WINDOW_BUDGET",
        "NarrowArray",
        "NarrowDp",
        "build_array",
        "solve_exact_narrow",
    ),
    "oracle": ("VerifyReport", "verify", "verify_ads"),
    "semionline": (
        "PhaseState",
        "max_lookahead",
        "run_phase",
        "solve_semionline",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"
