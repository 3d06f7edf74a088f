"""Run one losnet command with a span around every call into a module.

    python3 perfbench/trace_op.py SPANS.json solve <algo> <file> --json ...

The arguments after SPANS.json go to ``losnet.cli.main`` unchanged.  Spans
are kept in memory and written to SPANS.json when ``main`` returns, with
``time.monotonic_ns`` stamps: the same system-wide clock the benchmark
reads around the process, so process start and exit line up with them.

A wrapped name that no longer exists is listed under ``absent`` instead of
failing the run, and so is a span whose count (``EXTRAS``) could not be
read; the metrics that need them are then reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

now = time.monotonic_ns

# (span name, module, attribute): the public functions and methods that the
# cli and the solver modules call across module boundaries.  Per-element
# helpers such as ``are_adjacent`` are left out: wrapping them would cost
# more than the work they do.
WRAPS = (
    ("cli.main", "losnet.cli", "main"),
    ("io.parse", "losnet.io", "load_instance"),
    ("io.parse", "losnet.io", "load_ads"),
    ("io.serialize", "losnet.io", "serialize_instance"),
    ("io.serialize", "losnet.io", "serialize_ads"),
    ("io.serialize", "losnet.io", "solution_dict"),
    ("narrow.solve", "losnet.narrow", "solve_exact_narrow"),
    ("narrow.build_array", "losnet.narrow", "build_array"),
    ("narrow.setup", "losnet.narrow", "NarrowDp.__init__"),
    ("narrow.push", "losnet.narrow", "NarrowDp.push_column"),
    ("narrow.unwind", "losnet.narrow", "NarrowDp.placements"),
    ("decomp.solve", "losnet.decomp", "solve_strip2"),
    ("decomp.solve", "losnet.decomp", "solve_ptas"),
    ("decomp.make_blocks", "losnet.decomp", "make_blocks"),
    ("semionline.solve", "losnet.semionline", "solve_semionline"),
    ("adssched.solve", "losnet.adssched", "solve_adssched"),
    ("oracle.verify", "losnet.oracle", "verify"),
    ("oracle.verify_ads", "losnet.oracle", "verify_ads"),
    ("core.set_weight", "losnet.core", "set_weight"),
)


def _long_extent(args, kwargs) -> int:
    """n of ``solve_exact_narrow`` or ``solve_semionline(inst, eps, long_axis)``:
    the instance's extent along the long axis."""
    extents = args[0].params.extents
    axis = kwargs.get("long_axis")
    if axis is None and len(args) > 1 and isinstance(args[1], int):
        axis = args[1]
    if axis is None:  # the program's default: largest extent, lowest index
        axis = max(range(len(extents)), key=lambda a: (extents[a], -a))
    return extents[axis]


# Per span name, a count read from the call once it has returned.
EXTRAS = {
    "narrow.setup": lambda args, kwargs, result: len(args[0].windows),
    "narrow.solve": lambda args, kwargs, result: _long_extent(args, kwargs),
    "semionline.solve": lambda args, kwargs, result: _long_extent(args, kwargs),
    "decomp.make_blocks": lambda args, kwargs, result: sum(
        1 for part in result.blocks if part.vertices
    ),
}


class Recorder:
    """Spans as [name, start, end, parent index, raised, extra]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.phases: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, absent = self.spans, self.stack, self.absent
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, now(), 0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = now()
                stack.pop()
            if extra is not None:
                try:
                    span[5] = extra(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    if f"{name}:count" not in absent:
                        absent.append(f"{name}:count")
            return result

        return traced

    def phase_hook(self, fn):
        """Pass an ``on_phase`` callback that stamps each phase's end."""
        code = fn.__code__
        if "on_phase" not in code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]:
            self.absent.append("on_phase")
            return fn
        phases = self.phases

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            outer = kwargs.get("on_phase")

            def on_phase(state):
                phases.append(now())
                if outer is not None:
                    outer(state)

            kwargs["on_phase"] = on_phase
            return fn(*args, **kwargs)

        return hooked

    def install(self, wraps=WRAPS) -> None:
        for name, module_name, attr in wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = vars(owner).get(method) if owner is not None else None
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, method, self.wrap(name, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name == "semionline.solve":
                fn_hooked = self.phase_hook(fn)
            else:
                fn_hooked = fn
            traced = self.wrap(name, fn_hooked)
            # Rebind every module-level reference, so calls through a
            # ``from .x import f`` binding are traced as well.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("losnet"):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "absent": self.absent, "phases": self.phases}, fh
            )


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    import losnet.cli

    try:
        return losnet.cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
