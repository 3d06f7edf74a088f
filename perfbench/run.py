"""End-to-end benchmark of ``losnet solve``, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree: ops import losnet from ``src/``.

One op is one fresh ``python3 -m losnet.cli solve <algo> <file> --json``
process, timed from spawn to exit, so start-up, parsing, the solve, the
re-verify and the output are all in it, and every op starts with cold
module-level caches, as a user's run does.  One client runs one op at a
time (a closed loop).  Ops go in cycles, one pass over the workload's op
list, and a run ends after the last whole cycle that fits in ``--seconds``
(at least two cycles), so every run has the same mix of ops.

Inputs are generated from ``--seed``; every answer is re-checked by
``check.py`` and must be byte-identical each time its op repeats.  With
``--trace 1`` each op runs twice per cycle, plain and under
``trace_op.py``, and the per-layer metrics come from the traced copies.

The last line of stdout is the JSON result; the lines above it are the
report: the environment, then every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import check
import gen
import layers

HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 1
# setup_s: imports timed before the ops, then one after every cycle, so the
# samples spread over the whole run.
SETUP_SAMPLES = 5
# An op still running this long after --seconds is killed and the run ends.
GRACE_S = 90
HALF = Fraction(1, 2)
OMEGA = 3


def _losn(label, extents, weights="uniform:1:5"):
    return {"label": label, "kind": "losn", "extents": extents, "weights": weights}


def _ads(label, clients, times):
    return {"label": label, "kind": "ads", "clients": clients, "times": times}


# Why each workload is here is recorded in BENCHMARK.json.  The ops of a
# workload cost about the same, so the median op does not sit on a boundary
# between two groups of ops.  In decomp, six cheap ops, three eps=1/2 ops and
# one 3-D op per cycle put the median inside the cheap group and the tail
# among the eps=1/2 and 3-D ops, away from the 3-D op's seed-to-seed swings.
WORKLOADS = {
    "column-dp": {
        "inputs": [
            _losn("w3", (1300, 3)),
            _losn("w2", (2000, 2)),
            _losn("u1", (1000, 3), "const:1"),
            _losn("u2", (1000, 3), "const:1"),
            _ads("c4", 4, 350),
            _ads("c5", 5, 150),
        ],
        "ops": [
            ("exact-narrow", "w3"),
            ("exact-narrow", "w2"),
            ("semionline", "u1", "1/2"),
            ("semionline", "u2", "1/2"),
            ("adssched", "c4"),
            ("adssched", "c5"),
        ],
    },
    "decomp": {
        "inputs": [_losn("g2a", (100, 30)), _losn("g2b", (100, 30)), _losn("g2c", (100, 30)),
                   _losn("g3", (20, 2, 2))],
        "ops": [(algo, label, *eps)
                for label in ("g2a", "g2b", "g2c")
                for algo, *eps in (("strip2",), ("ptas", "1"), ("ptas", "1/2"))]
        + [("ptas", "g3", "1/4")],
    },
}


@dataclass(frozen=True)
class Op:
    name: str
    algo: str
    argv: tuple[str, ...]  # after ``losnet``
    path: Path
    extents: tuple[int, ...]
    size: int  # vertices, or available client-slot pairs


def make_ops(workload: str, seed: int, work: Path, tiny: bool) -> list[Op]:
    """Write the workload's inputs for ``seed`` under ``work``; list its ops."""
    spec = WORKLOADS[workload]
    files = {}
    for inp in spec["inputs"]:
        inst_seed = gen.derive_seed(seed, f"{workload}/{inp['label']}")
        if inp["kind"] == "losn":
            extents = inp["extents"]
            if tiny:
                extents = (max(4, extents[0] // 25), *extents[1:])
            path = work / f"{inp['label']}.losn"
            size = gen.write_losn(path, extents, OMEGA, HALF, inp["weights"], inst_seed)
        else:
            times = max(6, inp["times"] // 25) if tiny else inp["times"]
            extents = (inp["clients"], times)
            path = work / f"{inp['label']}.ads"
            size = gen.write_ads(path, inp["clients"], times, OMEGA, 2, HALF, "uniform:1:5", inst_seed)
        files[inp["label"]] = (path, extents, size)
    ops = []
    for algo, label, *eps in spec["ops"]:
        path, extents, size = files[label]
        argv = ("solve", algo, str(path.relative_to(Path.cwd())), "--json")
        if eps:
            argv += ("--epsilon", eps[0])
        name = f"{algo}{'@' + eps[0] if eps else ''}:{label}"
        ops.append(Op(name, algo, argv, path, extents, size))
    return ops


@dataclass
class Run:
    """One finished process."""

    wall_ns: int
    spawn: int
    exit: int
    code: int | None
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def spawn(cmd: list[str], env: dict, timeout: float, work: Path) -> Run:
    """Run ``cmd`` to completion, timed from spawn to exit; kill it after
    ``timeout`` seconds (``code`` is then None)."""
    out_path, err_path = work / "op.stdout", work / "op.stderr"
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)

        def kill() -> None:
            killed.append(True)
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed else proc.returncode
    return Run(end - start, start, end, code, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss)


class Bench:
    """The ops of one run, with everything they printed and took."""

    def __init__(self, seconds: int, ops: list[Op], work: Path, references: dict):
        self.seconds = seconds
        self.ops = ops
        self.work = work
        self.references = references
        self.env = {**os.environ, "PYTHONPATH": str(Path.cwd() / "src")}
        self.env.pop("LOS_WINDOW_BUDGET", None)  # every op runs with the default budget
        self.python = sys.executable
        self.outputs: dict[str, str] = {}
        self.errors: list[str] = []
        self.hard_deadline = 0.0
        self.n_cycles = 0
        self.op_ms: dict[str, list[float]] = {}
        self.setup_samples: list[float] = []

    def timeout(self) -> float:
        return max(1.0, self.hard_deadline - time.monotonic())

    def run_op(self, op: Op, traced: bool = False) -> tuple[Run, dict | None, dict | None]:
        """Run and check one op; (run, printed solution or None, trace or None)."""
        spans_path = self.work / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [self.python, str(HERE / "trace_op.py"), str(spans_path), *op.argv]
        else:
            cmd = [self.python, "-m", "losnet.cli", *op.argv]
        run = spawn(cmd, self.env, self.timeout(), self.work)
        trace = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
        try:
            if run.code is None:
                raise check.CheckError("timed out")
            if run.code != 0:
                raise check.CheckError(f"exit {run.code}: {run.stderr.decode(errors='replace')[-300:]}")
            sol = check.check_answer(op.path, op.algo, run.stdout, self.references.get(op.name))
            digest = hashlib.sha256(run.stdout).hexdigest()
            if self.outputs.setdefault(op.name, digest) != digest:
                raise check.CheckError("stdout differs from an earlier run of the same op")
        except check.CheckError as exc:
            self.errors.append(f"{op.name}{' (traced)' if traced else ''}: {exc}")
            return run, None, trace
        return run, sol, trace

    def cycles(self):
        """Yield cycle numbers while another whole cycle fits in the run."""
        start = time.monotonic()
        self.hard_deadline = start + self.seconds + GRACE_S
        last = 0.0
        while self.n_cycles < 2 or time.monotonic() + last <= start + self.seconds:
            if time.monotonic() > self.hard_deadline:
                self.errors.append("stopped: past the run's hard deadline")
                return
            began = time.monotonic()
            yield self.n_cycles
            last = time.monotonic() - began
            self.n_cycles += 1

    def sample_setup(self, keep: bool = True) -> None:
        """Time one fresh interpreter importing ``losnet.cli``."""
        run = spawn([self.python, "-c", "import losnet.cli"], self.env, GRACE_S, self.work)
        if run.code != 0:
            raise SystemExit(f"import losnet.cli failed: {run.stderr.decode(errors='replace')}")
        if keep:
            self.setup_samples.append(run.wall_ns / 1e9)

    def plain(self) -> tuple[dict, int, int]:
        runs, failed, cycle_rates = [], 0, []
        self.sample_setup(keep=False)  # may write bytecode caches
        for _ in range(SETUP_SAMPLES):
            self.sample_setup()
        for _ in self.cycles():
            solved_size, wall_s = 0, 0.0
            for op in self.ops:
                run, sol, _ = self.run_op(op)
                runs.append(run)
                self.op_ms.setdefault(op.name, []).append(run.wall_ns / 1e6)
                failed += sol is None
                solved_size += 0 if sol is None else op.size
                wall_s += run.wall_ns / 1e9
            cycle_rates.append(solved_size / wall_s)
            self.sample_setup()
        walls = sorted(r.wall_ns / 1e6 for r in runs)
        tail, pct = tail_of(walls)
        metrics = {
            "solve_ms.p50": (statistics.median(walls), "ms"),
            "solve_ms.tail": (tail, "ms"),
            # Per cycle, so every rate covers the same mix of ops; the
            # median drops cycles that a burst of host load slowed.
            "vertices_per_s": (statistics.median(cycle_rates), "1/s"),
            "peak_rss_mb": (max(r.maxrss_kb for r in runs) / 1024, "MB"),
            "fail_ratio": (failed / len(runs), "1"),
            "setup_s": (statistics.median(self.setup_samples), "s"),
        }
        self.info = {"ops": len(runs), "cycles": self.n_cycles, "tail_percentile": pct}
        return metrics, len(runs), failed

    def traced(self) -> tuple[dict, int, int]:
        plain_ms, traced_ms, times, counts = [], [], [], []
        cycles: list[dict] = []
        absent: set[str] = set()
        attempted = failed = 0
        for _ in self.cycles():
            cycle = []
            for op in self.ops:
                run, sol, _ = self.run_op(op)
                plain_ms.append(run.wall_ns / 1e6)
                self.op_ms.setdefault(op.name, []).append(run.wall_ns / 1e6)
                run_t, sol_t, trace = self.run_op(op, traced=True)
                traced_ms.append(run_t.wall_ns / 1e6)
                attempted += 2
                failed += (sol is None) + (sol_t is None)
                if sol_t is None or trace is None:
                    continue
                absent.update(trace["absent"])
                parsed = check.load_ads(op.path) if op.path.suffix == ".ads" else check.load_losn(op.path)
                t, c = layers.op_record(trace, run_t.spawn, run_t.exit, op, sol_t, parsed)
                times.append(t)
                counts.append(c)
                cycle.append(c)
            cycles.append(layers.cycle_counts(cycle))
        for i, cyc in enumerate(cycles[1:], start=1):
            if cyc != cycles[0]:
                diff = sorted(k for k in cyc.keys() | cycles[0].keys() if cyc.get(k) != cycles[0].get(k))
                self.errors.append(f"counts of cycle {i} differ from cycle 0: {diff}")
        metrics = {}
        if times:
            for name, value in layers.summarize(times, counts, cycles[0], absent).items():
                metrics[name] = (value, per_layer_unit(name))
        p50_plain, p50_traced = statistics.median(plain_ms), statistics.median(traced_ms)
        metrics["trace.untraced_ms.p50"] = (p50_plain, "ms")
        metrics["trace.op_ms.p50"] = (p50_traced, "ms")
        metrics["trace.overhead_ms"] = (p50_traced - p50_plain, "ms")
        self.info = {"ops": attempted, "cycles": len(cycles), "traced_ops": len(times), "absent": sorted(absent)}
        return metrics, attempted, failed


def tail_of(sorted_ms: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 ops beyond it, and its name."""
    n = len(sorted_ms)
    if n <= 10:
        return sorted_ms[-1], "p100"
    return sorted_ms[n - 11], f"p{100 * (n - 10) / n:.1f}"


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms.p50"):
        return "ms"
    if name.endswith("_us_per_column"):
        return "us"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def environment(args, bench_info: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((Path.cwd() / "src" / "losnet").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        **bench_info,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input; for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "losnet" / "cli.py").is_file():
        print(f"error: no losnet source under {root / 'src'}; run from the root of a source tree", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = config["per_layer" if args.trace else "end_to_end"]
    references = {}
    if args.seed == DEFAULT_SEED and not args.tiny:
        references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))[args.workload]

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = make_ops(args.workload, args.seed, work, args.tiny)
        bench = Bench(args.seconds, ops, work, references)
        metrics, attempted, failed = bench.traced() if args.trace else bench.plain()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(args, bench.info)))
    for error in bench.errors[:20]:
        print(f"error {error}")
    for name, walls in bench.op_ms.items():
        print(f"op {name}: {len(walls)} runs, median {statistics.median(walls):.1f} ms")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    result = {
        "correct": not bench.errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in listed
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
