"""Smoke test of the benchmark harness itself, at tiny input sizes.

    python3 perfbench/smoke.py

Run from the root of a source tree; exits 0 when every check passes.  It
checks that the generator matches losnet's, that every workload runs plain
and traced and prints every metric with its unit, that counts repeat
exactly, that the default seed reproduces the recorded answers, that a
corrupted answer counts as a failed op, that a wrapped
name that is gone is reported absent, and that the benchmark refuses to run
without the source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import trace_op  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT, tiny: bool = True) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *(["--tiny"] if tiny else [])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_generator(work: Path) -> None:
    from losnet.adssched import count_ads_windows
    from losnet.core import GenConfig, InstanceParams, generate
    from losnet.io import parse_ads, serialize_ads, serialize_instance

    for extents, weights in (((30, 3), "uniform:1:5"), ((5, 2, 3), "const:1")):
        path = work / "g.losn"
        gen.write_losn(path, extents, 3, Fraction(1, 2), weights, 77)
        inst = generate(GenConfig(InstanceParams(len(extents), extents, 3), Fraction(1, 2), weights, 77))
        comment = f"generated prng=splitmix64 seed=77 density=1/2 weights={weights}"
        expect(path.read_text() == serialize_instance(inst, [comment]), f"{extents} .losn differs from losnet gen")
    path = work / "g.ads"
    gen.write_ads(path, 4, 40, 3, 2, Fraction(1, 2), "uniform:1:5", 5)
    expect(serialize_ads(parse_ads(path.read_text())) == path.read_text(), ".ads differs from serialize_ads")
    for clients, omega, cap in ((4, 3, 2), (5, 3, 2), (3, 2, 1)):
        expect(
            layers.ads_windows(clients, omega, cap) == count_ads_windows(clients, omega, cap),
            f"ads_windows{clients, omega, cap}",
        )
    print("ok generator matches losnet gen and serialize_ads")


def check_workloads() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        listed = {m["name"]: m["unit"] for m in CONFIG[key]}
        if trace == 0:  # printed in the report, without a bound
            listed.update({"fail_ratio": "1", "vertices_per_s": "1/s"})
        for workload in run.WORKLOADS:
            code, lines = bench(workload, trace)
            expect(code == 0, f"{workload} trace={trace} exit {code}")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result} {[ln for ln in lines if ln.startswith('error')]}")
            printed = {ln.split()[0]: ln.split()[-1] for ln in lines[1:-1] if not ln.startswith(("op ", "error "))}
            for name, unit in listed.items():
                expect(printed.get(name) == unit, f"{workload} trace={trace}: {name} [{unit}] not printed")
                if name in {m["name"] for m in CONFIG[key]}:
                    got = result["metrics"].get(name)
                    expect(got is not None and got["unit"] == unit, f"{workload}: {name} missing from result")
            env = json.loads(lines[0].removeprefix("env "))
            for field in ("python", "nproc", "cpu", "git_commit", "seed", "ops"):
                expect(field in env, f"env lacks {field}")
            if trace == 0:
                expect(env["tail_percentile"].startswith("p"), "tail percentile named")
            print(f"ok {workload} trace={trace}: {result['attempted']} ops, all metrics printed")


def check_counts_repeat() -> None:
    for workload in run.WORKLOADS:
        results = [json.loads(bench(workload, 1, seed=3)[1][-1])["metrics"] for _ in range(2)]
        counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"} for r in results]
        expect(counts[0] == counts[1], f"{workload}: counts differ between runs {counts}")
    print("ok counts repeat exactly between runs")


FAKE_CLI = '''
import json, os, subprocess, sys
from fractions import Fraction

if __name__ == "__main__":
    real = subprocess.run([sys.executable, "-m", "losnet.cli", *sys.argv[1:]],
                          env={**os.environ, "PYTHONPATH": os.environ["REAL_SRC"]},
                          capture_output=True)
    how = os.environ["CORRUPT"]
    if how == "exit":
        sys.exit(3)
    out = json.loads(real.stdout)
    sol = out["solution"]
    if how == "weight":
        sol["weight"] = str(Fraction(sol["weight"]) + 1)
    elif how == "adjacent":
        v = sol["vertices"][0]
        sol["vertices"].append([v[0] + 1, *v[1:]])
    print(json.dumps(out))
'''


def check_corrupt_answers(work: Path) -> None:
    fake = work / "fake"
    (fake / "losnet").mkdir(parents=True)
    (fake / "losnet" / "__init__.py").write_text("")
    (fake / "losnet" / "cli.py").write_text(FAKE_CLI)
    ops = run.make_ops("column-dp", 7, work, tiny=True)
    for how in ("weight", "adjacent", "exit"):
        b = run.Bench(0, ops, work, {})
        b.env = {**b.env, "PYTHONPATH": str(fake), "REAL_SRC": str(ROOT / "src"), "CORRUPT": how}
        _, attempted, failed = b.plain()
        expect(attempted >= len(ops) and failed == attempted, f"corrupt={how}: {failed}/{attempted} failed")
    # The checker on its own: two input vertices on one line, closer than omega.
    omega, cells = check.load_losn(ops[0].path)
    a, b = next(
        (a, b) for a in cells for b in cells if a[1:] == b[1:] and 0 < b[0] - a[0] < omega
    )
    bad = {"algorithm": "exact-narrow", "weight": str(cells[a] + cells[b]), "vertices": [a, b]}
    try:
        check.check_answer(ops[0].path, "exact-narrow", json.dumps({"solution": bad}).encode(), None)
    except check.CheckError as exc:
        expect("gap" in str(exc), f"wrong complaint: {exc}")
    else:
        expect(False, "adjacent vertices passed the checker")
    print("ok corrupted answers count as failed ops")


def check_absent() -> None:
    recorder = trace_op.Recorder()
    recorder.install(wraps=(
        ("narrow.gone", "losnet.narrow", "array_sum_removed"),
        ("narrow.gone", "losnet.narrow", "NarrowDp.removed"),
        ("gone", "losnet.removed_module", "f"),
    ))
    expect(len(recorder.absent) == 3, f"absent: {recorder.absent}")
    recorder.wrap("narrow.setup", lambda dp: None)(object())  # a DP without ``windows``
    expect(recorder.absent[-1] == "narrow.setup:count", f"absent: {recorder.absent}")
    times = [{m: 1_000_000 for m in layers.TIME_OF_SPANS}]
    out = layers.summarize(times, [{}], {"semionline.phases": 5}, {"on_phase"})
    expect("semionline.phases" not in out and "semionline.phase_ms.p50" not in out, "absent metrics dropped")
    print("ok names that are gone are reported absent")


def check_references() -> None:
    """Full-size inputs at the default seed give the recorded answers."""
    for workload in run.WORKLOADS:
        code, lines = bench(workload, 0, seed=run.DEFAULT_SEED, tiny=False)
        result = json.loads(lines[-1])
        expect(code == 0 and result["correct"], f"{workload}: {[ln for ln in lines if ln.startswith('error')]}")
    print("ok default-seed answers match references.json")


def check_refuses_without_source(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = bench("column-dp", 0, cwd=bare)
    expect(code != 0 and not any(ln.startswith("{") for ln in lines), "ran without a source tree")
    print("ok refuses to run without the source tree")


def main() -> int:
    work = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_generator(work)
        check_absent()
        check_refuses_without_source(work)
        check_corrupt_answers(work)
        check_workloads()
        check_counts_repeat()
        check_references()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
