"""The names the benchmark's tracer wraps and reads still exist.

``perfbench/trace_op.py`` wraps functions and methods by name and reads
``len(dp.windows)`` after each ``NarrowDp`` is built; a renamed or deleted
name shows there only as an absent metric.  The tracer's source is read
and run here as a fresh module, so nothing under ``perfbench/`` is written.
"""

import importlib
import types
from pathlib import Path

import pytest

from losnet import AdsInstance, NarrowDp, build_array, solve_semionline
from losnet.adssched import count_ads_windows
from conftest import make_inst

TRACE_OP = Path(__file__).resolve().parent.parent / "perfbench" / "trace_op.py"


@pytest.fixture(scope="module")
def trace_op():
    module = types.ModuleType("trace_op")
    module.__file__ = str(TRACE_OP)
    source = TRACE_OP.read_text(encoding="utf-8")
    exec(compile(source, str(TRACE_OP), "exec"), vars(module))
    return module


def test_every_wrapped_name_resolves(trace_op):
    assert trace_op.WRAPS
    for _, module_name, attr in trace_op.WRAPS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            assert vars(getattr(module, owner_name)).get(method) is not None, attr
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


def test_window_count_reads_for_a_box_and_a_schedule(trace_op):
    count = trace_op.EXTRAS["narrow.setup"]
    array = build_array(make_inst((5, 2, 2), 3, {(1, 1, 1): 1}), 0)
    box = NarrowDp(array.nrows, array.omega, array.conflicts)
    assert count((box,), {}, None) == len(box.windows) > 0
    ads = AdsInstance(4, 3, 3, 2, ((1, 1, 1),) * 4)
    k = ads.k_clients
    schedule = NarrowDp(k, ads.omega, lambda: (0,) * k, capacity=ads.l)
    assert count((schedule,), {}, None) == count_ads_windows(k, ads.omega, ads.l)


def test_phase_hook_finds_on_phase(trace_op):
    # Without an ``on_phase`` parameter the tracer stamps no phase, and
    # ``semionline.phases`` is reported absent.
    recorder = trace_op.Recorder()
    recorder.phase_hook(solve_semionline)
    assert "on_phase" not in recorder.absent
