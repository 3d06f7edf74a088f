"""Record the answers of every op at the default seed in references.json.

    python3 perfbench/record_references.py

Run from the root of a source tree.  A run with the default seed then
requires each op's algorithm, weight and vertex-list sha256 to match these.
Re-record only when a change is meant to alter answers, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import check
import run


def main() -> int:
    root = Path.cwd()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = {}
    for workload in run.WORKLOADS:
        work = root / ".perfbench_work" / f"references-{workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            out[workload] = {}
            for op in run.make_ops(workload, run.DEFAULT_SEED, work, tiny=False):
                proc = subprocess.run(
                    [sys.executable, "-m", "losnet.cli", *op.argv],
                    env=env, capture_output=True, check=True, timeout=600,
                )
                sol = check.check_answer(op.path, op.algo, proc.stdout, None)
                out[workload][op.name] = {
                    "algorithm": sol["algorithm"],
                    "weight": sol["weight"],
                    "vertices_sha256": check.vertices_digest(sol),
                }
        finally:
            shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "references.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
