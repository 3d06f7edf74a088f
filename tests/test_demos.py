import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# SHA-256 of each demo's stdout: a change to what a demo prints shows here.
STDOUT_SHA256 = {
    "01_instances_and_files.py":
        "2d608df8c6cb34e8b75036fb1e9a9d51b244442e0a92c97c18fc30067e076de6",
    "02_exact_narrow_dp.py":
        "0603af7fa5cf1864a5c1aed2251dbc25cec3dee921b2fdd48de229bd1daad62e",
    "03_strip_2approx.py":
        "8c844766cd035b427d785819ae7ec0fe9a0a045d7884456c68afd7fea1792db9",
    "04_shifted_block_ptas.py":
        "017cae29d19972ea6c7883dd3b5ab57a3d91fc5d6eff4e30ceffdcbfe5db1ae8",
    "05_semionline_phases.py":
        "78e70f84200ac08f217f569ae231d3a536e2b1a6048bb39c403ad56ba4fc3808",
    "06_adssched.py":
        "f9550a83738a6bf6b45acef366dfe83c264117258ea5b871cb62e64e42fdaf1d",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, env=child_env(), cwd=tmp_path, timeout=120,
    )
    stderr = proc.stderr.decode(errors="replace")
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]


def test_demos_found():
    assert len(DEMOS) == 6
