import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losnet.cli import ALGOS, main
from conftest import child_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=60):
    """``losnet`` in a fresh interpreter, as a user runs it."""
    return subprocess.run(
        [sys.executable, "-m", "losnet.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=timeout,
    )


@pytest.fixture()
def losn_file(tmp_path, capsys):
    path = tmp_path / "a.losn"
    code, _, _ = run(
        capsys,
        "gen",
        "--d", "2",
        "--extents", "40,3",
        "--omega", "4",
        "--density", "0.5",
        "--seed", "7",
        "-o", str(path),
    )
    assert code == 0
    return path


@pytest.fixture()
def ads_file(tmp_path):
    path = tmp_path / "a.ads"
    path.write_text(
        "ads v1\nclients=2 times=4 omega=2 l=1\na 1111\na 1111\n",
        encoding="utf-8",
    )
    return path


class TestGen:
    def test_gen_writes_sorted_deterministic_file(self, tmp_path, capsys):
        p1, p2 = tmp_path / "x1.losn", tmp_path / "x2.losn"
        args = ["gen", "--d", "2", "--extents", "12,3", "--omega", "3",
                "--density", "0.5", "--seed", "9"]
        assert run(capsys, *args, "-o", str(p1))[0] == 0
        assert run(capsys, *args, "-o", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("losn v1\n")

    def test_gen_zero_denominator_weight_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--d", "2", "--extents", "4,2", "--omega", "3",
            "--density", "1/2", "--weights", "const:3/0", "-o", str(tmp_path / "x.losn"),
        )
        assert code == 2
        assert err == "error: not a rational weight: '3/0'\n"
        assert not (tmp_path / "x.losn").exists()

    def test_gen_validation_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--d", "2", "--extents", "12,3", "--omega", "3",
            "--density", "1.5", "--seed", "1", "-o", str(tmp_path / "x.losn"),
        )
        assert code == 2
        assert "density" in err


class TestSolve:
    def test_solve_and_verify_roundtrip(self, losn_file, tmp_path, capsys):
        code, out, err = run(capsys, "solve", "exact-narrow", str(losn_file), "--json")
        assert code == 0
        assert "wall_ms" in err and "wall_ms" not in out
        report = json.loads(out)
        assert list(report) == ["command", "digest", "params", "solution"]
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps(report["solution"]))
        code, out, _ = run(capsys, "verify", str(losn_file), str(sol_path))
        assert code == 0
        assert json.loads(out)["independent"] is True

    def test_verify_flags_tampering(self, losn_file, tmp_path, capsys):
        _, out, _ = run(capsys, "solve", "exact-narrow", str(losn_file), "--json")
        sol = json.loads(out)["solution"]
        sol["weight"] = "99999"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(sol))
        code, out, _ = run(capsys, "verify", str(losn_file), str(bad))
        assert code == 1
        assert json.loads(out)["violations"]

    def test_byte_identical_reruns(self, losn_file, capsys):
        outs = set()
        for _ in range(2):
            code, out, _ = run(
                capsys, "solve", "ptas", str(losn_file), "--epsilon", "0.5", "--json"
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_ptas_meta_in_report(self, losn_file, capsys):
        _, out, _ = run(
            capsys, "solve", "ptas", str(losn_file), "--epsilon", "0.5", "--json"
        )
        meta = json.loads(out)["solution"]["meta"]
        assert meta["h"] == 2
        assert "shift" in meta

    def test_brute_capacity_exit_3(self, losn_file, capsys):
        code, _, err = run(capsys, "solve", "brute", str(losn_file))
        assert code == 3
        assert "24" in err

    def test_missing_epsilon_exit_2(self, losn_file, capsys):
        code, _, err = run(capsys, "solve", "ptas", str(losn_file))
        assert code == 2
        assert "--epsilon" in err

    def test_unknown_algo_usage_error(self, losn_file, capsys):
        assert run(capsys, "solve", "nope", str(losn_file))[0] == 2

    def test_float_flag_adds_field(self, losn_file, capsys):
        from fractions import Fraction

        _, out, _ = run(
            capsys, "solve", "exact-narrow", str(losn_file), "--json", "--float"
        )
        sol = json.loads(out)["solution"]
        assert sol["weight_float"] == float(Fraction(sol["weight"]))
        assert list(sol) == ["algorithm", "weight", "weight_float", "vertices", "meta"]

    def test_float_flag_null_past_the_float_range(self, tmp_path, capsys):
        path = tmp_path / "big.losn"
        path.write_text(LOSN_HEAD + "v 1 1 1e400\n")
        code, out, err = run(
            capsys, "solve", "exact-narrow", str(path), "--json", "--float"
        )
        assert code == 0, err
        sol = json.loads(out)["solution"]
        assert sol["weight"] == "1" + "0" * 400 and sol["weight_float"] is None

    def test_trace_phases_on_stderr(self, losn_file, capsys):
        code, out, err = run(
            capsys, "solve", "semionline", str(losn_file),
            "--epsilon", "1", "--trace-phases", "--json",
        )
        assert code == 0
        traces = [json.loads(l) for l in err.splitlines() if l.startswith("{")]
        assert traces
        assert set(traces[0]) == {"j0", "r_star", "weight", "lookahead_used"}
        assert json.loads(out)["solution"]["meta"]["phases"] == len(traces)
        # The phases tile the long axis: each anchors right after the
        # columns the previous one read.
        assert traces[0]["j0"] == 1
        for prev, nxt in zip(traces, traces[1:]):
            assert nxt["j0"] == prev["j0"] + prev["lookahead_used"]
        # ``losn_file`` has extents 40,3 and is solved along axis 0.
        assert json.loads(out)["params"]["long_axis"] == 0
        assert sum(t["lookahead_used"] for t in traces) == 40

    def test_long_axis_override(self, tmp_path, capsys):
        path = tmp_path / "w.losn"
        path.write_text(
            "losn v1\nd=2 omega=2 extents=3,5\nv 1 1 1\nv 1 3 1\nv 2 5 1\n"
        )
        code, out, _ = run(
            capsys, "solve", "exact-narrow", str(path), "--json", "--long-axis", "1"
        )
        assert code == 0
        assert json.loads(out)["params"]["long_axis"] == 1

    def test_adssched_solves_ads_files_only(self, losn_file, ads_file, capsys):
        code, out, _ = run(capsys, "solve", "adssched", str(ads_file), "--json")
        assert code == 0
        assert json.loads(out)["solution"]["weight"] == "4"
        assert run(capsys, "solve", "adssched", str(losn_file))[0] == 2
        assert run(capsys, "solve", "exact-narrow", str(ads_file))[0] == 2

    def test_verify_ads_solution(self, ads_file, tmp_path, capsys):
        _, out, _ = run(capsys, "solve", "adssched", str(ads_file), "--json")
        sol_path = tmp_path / "s.json"
        sol_path.write_text(json.dumps(json.loads(out)["solution"]))
        code, out, _ = run(capsys, "verify", str(ads_file), str(sol_path))
        assert code == 0

    def test_window_budget_env(self, losn_file, capsys, monkeypatch):
        monkeypatch.setenv("LOS_WINDOW_BUDGET", "2")
        code, _, err = run(capsys, "solve", "exact-narrow", str(losn_file))
        assert code == 3
        assert "budget" in err
        monkeypatch.setenv("LOS_WINDOW_BUDGET", "zzz")
        assert run(capsys, "solve", "exact-narrow", str(losn_file))[0] == 2

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_window_budget_below_one_is_invalid(
        self, losn_file, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("LOS_WINDOW_BUDGET", value)
        code, _, err = run(capsys, "solve", "exact-narrow", str(losn_file))
        assert code == 2
        assert "LOS_WINDOW_BUDGET" in err

    @pytest.mark.parametrize(
        "payload",
        [
            '{"algorithm": "x", "weight": "1", "vertices": 5}',
            '{"algorithm": "x", "weight": "1", "vertices": [5]}',
            '{"algorithm": "x", "weight": "1", "vertices": [[1, "a"]]}',
            '{"algorithm": "x", "weight": "1", "vertices": [[1, 1.5]]}',
            '[1, 2]',
        ],
    )
    def test_verify_malformed_solution_json(
        self, losn_file, tmp_path, capsys, payload
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code, _, err = run(capsys, "verify", str(losn_file), str(bad))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestUnopenableInput:
    """A path that cannot be opened is an input error: one line, exit 2."""

    @pytest.fixture(params=["missing", "directory"])
    def bad_path(self, request, tmp_path):
        if request.param == "missing":
            return tmp_path / "no_such.losn"
        return tmp_path

    def assert_refused(self, code, out, err, path):
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    def test_solve(self, bad_path, capsys):
        code, out, err = run(capsys, "solve", "exact-narrow", str(bad_path))
        self.assert_refused(code, out, err, bad_path)

    def test_verify_instance(self, bad_path, losn_file, tmp_path, capsys):
        _, out, _ = run(capsys, "solve", "exact-narrow", str(losn_file), "--json")
        sol_path = tmp_path / "s.json"
        sol_path.write_text(json.dumps(json.loads(out)["solution"]))
        code, out, err = run(capsys, "verify", str(bad_path), str(sol_path))
        self.assert_refused(code, out, err, bad_path)

    def test_verify_solution(self, bad_path, losn_file, capsys):
        code, out, err = run(capsys, "verify", str(losn_file), str(bad_path))
        self.assert_refused(code, out, err, bad_path)

    def test_in_a_fresh_process(self, tmp_path):
        proc = run_process("solve", "exact-narrow", str(tmp_path / "no_such.losn"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {tmp_path / 'no_such.losn'}: No such file or directory\n"


LOSN_HEAD = "losn v1\nd=2 omega=3 extents=12,2\n"
ADS_HEAD = "ads v1\nclients=1 times=2 omega=2 l=1\n"
SOLUTION = '{"algorithm": "x", "weight": "1", "vertices": [[1, 1]]}'


def assert_refused(code, out, err):
    """One ``error:`` line on stderr, nothing on stdout, exit 2."""
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


class TestMalformedInput:
    """A file that is not in its format, down to its bytes, is an input
    error: one line, exit 2."""

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfelosn v1\n",
            (LOSN_HEAD + "v 1 1 1\nv 3 1 \xff\n").encode("latin-1"),
            (LOSN_HEAD + "v \u0661 1 1e3\n").encode(),
            (LOSN_HEAD + "v 1_0 1 1\n").encode(),
        ],
        ids=["ff-fe", "late-bad-byte", "arabic-indic-digit", "underscore"],
    )
    def test_bad_instance(self, tmp_path, capsys, content):
        path = tmp_path / "bad.losn"
        path.write_bytes(content)
        sol_path = tmp_path / "s.json"
        sol_path.write_text(SOLUTION)
        for argv in (
            ("solve", "exact-narrow", str(path)),
            ("solve", "semionline", str(path), "--epsilon", "1"),
            ("verify", str(path), str(sol_path)),
        ):
            assert_refused(*run(capsys, *argv))

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
        ids=["ff-fe", "deeply-nested"],
    )
    def test_bad_solution(self, tmp_path, capsys, content):
        inst_path = tmp_path / "g.losn"
        inst_path.write_text(LOSN_HEAD + "v 1 1 1\n")
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert_refused(*run(capsys, "verify", str(inst_path), str(path)))

    @pytest.mark.parametrize(
        "argv, content, header",
        [
            (("solve", "adssched", "{f}"), LOSN_HEAD + "v 1 1 1\n", "ads v1"),
            (("solve", "exact-narrow", "{f}"), ADS_HEAD, "losn v1"),
            (("solve", "strip2", "{f}"), "", "losn v1"),
            (("verify", "{f}", "{sol}"), "", "losn v1"),
        ],
        ids=["adssched-on-losn", "exact-narrow-on-ads", "solve-empty", "verify-empty"],
    )
    def test_wrong_format_or_empty(self, tmp_path, capsys, argv, content, header):
        # The parser of the format the command reads refuses the first line.
        path = tmp_path / "in"
        path.write_text(content)
        sol_path = tmp_path / "s.json"
        sol_path.write_text(SOLUTION)
        argv = [a.format(f=path, sol=sol_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert_refused(code, out, err)
        assert err == f"error: expected first line {header!r}\n"


class TestOneRead:
    """Each input file is opened once: ``solve`` parses the format its
    algorithm takes, and ``verify`` reads its instance once in either
    format."""

    SMALL = LOSN_HEAD + "v 1 1 1\nv 3 2 2\n"

    @pytest.fixture()
    def opened(self, monkeypatch):
        """The paths ``losnet.io`` opens, in order."""
        import losnet.io

        paths = []

        def spy(file, *args, **kwargs):
            paths.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(losnet.io, "open", spy, raising=False)
        return paths

    def input_for(self, algo, tmp_path, ads_file):
        if algo == "adssched":
            return ads_file
        path = tmp_path / "small.losn"
        path.write_text(self.SMALL)
        return path

    @pytest.mark.parametrize("algo", ALGOS)
    def test_solve(self, tmp_path, ads_file, capsys, opened, algo):
        path = self.input_for(algo, tmp_path, ads_file)
        eps = ["--epsilon", "1"] if algo in ("ptas", "semionline") else []
        assert run(capsys, "solve", algo, str(path), "--json", *eps)[0] == 0
        assert opened == [str(path)]

    @pytest.mark.parametrize("algo", ["exact-narrow", "adssched"])
    def test_verify(self, tmp_path, ads_file, capsys, opened, algo):
        path = self.input_for(algo, tmp_path, ads_file)
        _, out, _ = run(capsys, "solve", algo, str(path), "--json")
        sol_path = tmp_path / "s.json"
        sol_path.write_text(json.dumps(json.loads(out)["solution"]))
        opened.clear()
        assert run(capsys, "verify", str(path), str(sol_path))[0] == 0
        assert sorted(opened) == sorted([str(path), str(sol_path)])


class TestNumbersTooLargeToPrint:
    """A number whose numerator or denominator would have more than 4300
    digits, the most ``str`` prints, is an input error: one line, exit 2."""

    @pytest.mark.parametrize("weight", ["1e5000", "1e-5000"])
    def test_losn_weight(self, tmp_path, capsys, weight):
        path = tmp_path / "big.losn"
        path.write_text(LOSN_HEAD + f"v 1 1 {weight}\n")
        code, out, err = run(capsys, "solve", "exact-narrow", str(path))
        assert_refused(code, out, err)
        assert f"bad weight '{weight}'" in err

    @pytest.mark.parametrize("algo", ["ptas", "semionline"])
    def test_epsilon(self, tmp_path, capsys, algo):
        path = tmp_path / "g.losn"
        path.write_text(LOSN_HEAD + "v 1 1 3\nv 5 1 2\n")
        code, out, err = run(capsys, "solve", algo, str(path), "--epsilon", "1e-5000")
        assert (code, out, err) == (2, "", "error: not a rational number: '1e-5000'\n")

    def test_gen_weight(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "gen", "--d", "2", "--extents", "4,2", "--omega", "3",
            "--density", "1", "--weights", "const:1e5000", "-o", str(tmp_path / "x.losn"),
        )
        assert (code, out, err) == (2, "", "error: not a rational weight: '1e5000'\n")
        assert not (tmp_path / "x.losn").exists()

    @pytest.mark.parametrize("algo", ["exact-narrow", "strip2"])
    def test_weight_sum(self, tmp_path, capsys, algo):
        # Each weight has 4300 digits; their sum has 4301.
        path = tmp_path / "sum.losn"
        path.write_text(
            "losn v1\nd=2 omega=2 extents=40,2\n"
            + "".join(f"v {i} 1 9e4299\n" for i in range(1, 20, 2))
        )
        started = time.perf_counter()
        code, out, err = run(capsys, "solve", algo, str(path), "--json")
        assert time.perf_counter() - started < 1
        assert (code, out, err) == (
            2, "", "error: a weight sum would have more than 4300 digits\n"
        )

    def test_ads_weight_sum(self, tmp_path, capsys):
        path = tmp_path / "sum.ads"
        path.write_text(
            "ads v1\nclients=1 times=4 omega=2 l=1\na 1111\n"
            + "".join(f"w 1 {t} 9e4299\n" for t in range(1, 5))
        )
        code, out, err = run(capsys, "solve", "adssched", str(path))
        assert (code, out, err) == (
            2, "", "error: a weight sum would have more than 4300 digits\n"
        )

    @pytest.mark.parametrize(
        "algo, content, what",
        [
            ("ptas", "losn v1\nd=3 omega=2 extents=2,2,2\nv 1 1 1 1\n", "h"),
            ("semionline", LOSN_HEAD + "v 1 1 1\n", "the look-ahead limit"),
        ],
        ids=["ptas", "semionline"],
    )
    def test_epsilon_parameter(self, tmp_path, capsys, algo, content, what):
        # epsilon = 1/(10^4300 - 1) reads, but what it sets has 4301 digits.
        path = tmp_path / "one.losn"
        path.write_text(content)
        eps = "1/" + "9" * 4300
        started = time.perf_counter()
        code, out, err = run(capsys, "solve", algo, str(path), "--json", "--epsilon", eps)
        assert time.perf_counter() - started < 1
        assert (code, out, err) == (
            2, "", f"error: epsilon too small: {what} would have more than 4300 digits\n"
        )

    def test_in_a_fresh_process(self, tmp_path):
        path = tmp_path / "big.losn"
        path.write_text(LOSN_HEAD + "v 1 1 1e5000\n")
        proc = run_process("solve", "exact-narrow", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@given(st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
def test_arbitrary_bytes_exit_2(tmp_path_factory, content):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "in"
    path.write_bytes(content)
    good_inst = work / "g.losn"
    good_inst.write_text(LOSN_HEAD + "v 1 1 1\n")
    good_sol = work / "s.json"
    good_sol.write_text(SOLUTION)
    for argv in (
        ("solve", "exact-narrow", str(path)),
        ("verify", str(path), str(good_sol)),
        ("verify", str(good_inst), str(path)),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert_refused(code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("axis", ["-1", "2"])
@pytest.mark.parametrize("vertices", ["", "v 1 1 1\n"], ids=["vertex-free", "one-vertex"])
@pytest.mark.parametrize("algo", ["exact-narrow", "strip2", "ptas", "semionline"])
def test_long_axis_outside_the_box_exit_2(tmp_path, capsys, algo, vertices, axis):
    path = tmp_path / "a.losn"
    path.write_text("losn v1\nd=2 omega=3 extents=5,2\n" + vertices)
    code, out, err = run(
        capsys, "solve", algo, str(path), f"--long-axis={axis}", "--epsilon", "1"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: long axis {axis} outside 0..1\n"


class TestTinyEpsilon:
    def gen(self, tmp_path, capsys, weights):
        path = tmp_path / "t.losn"
        code, _, _ = run(
            capsys, "gen", "--d", "2", "--extents", "12,2", "--omega", "3",
            "--density", "0.4", "--weights", weights, "--seed", "2",
            "-o", str(path),
        )
        assert code == 0
        return path

    def test_semionline_weighted_returns(self, tmp_path, capsys):
        path = self.gen(tmp_path, capsys, "uniform:1:5")
        proc = run_process("solve", "semionline", str(path), "--epsilon", "1e-9")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_semionline_weighted_epsilon_near_the_digit_bound(self, tmp_path):
        # The look-ahead limit (c+1)*omega has 4300 digits, c from ln(50/3).
        path = tmp_path / "w2.losn"
        path.write_text(
            "losn v1\nd=2 omega=2 extents=4,1\nv 1 1 1\nv 3 1 50/3\n", encoding="utf-8"
        )
        start = time.perf_counter()
        proc = run_process("solve", "semionline", str(path), "--epsilon", "1e-4299")
        assert time.perf_counter() - start < 5
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "algorithm: semionline\nweight: 53/3\nvertices: 2\n"

    def test_semionline_unit_epsilon_below_float_range(self, tmp_path, capsys):
        path = self.gen(tmp_path, capsys, "const:1")
        eps = "1/1" + "0" * 400
        proc = run_process("solve", "semionline", str(path), "--epsilon", eps)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr


class TestHugeCrossSection:
    """A million rows: (omega+1)^rows has far more than 4300 digits, so the
    refusal must not format it."""

    @pytest.mark.parametrize(
        "algo_args", [("exact-narrow",), ("semionline", "--epsilon", "1")]
    )
    def test_refused_with_exit_3(self, tmp_path, algo_args):
        path = tmp_path / "huge.losn"
        path.write_text(
            "losn v1\nd=2 omega=3 extents=1000000,1000000\nv 1 1 1\n",
            encoding="utf-8",
        )
        algo, *rest = algo_args
        proc = run_process("solve", algo, str(path), *rest, timeout=30)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("capacity error:")
        assert "Traceback" not in proc.stderr
        assert "rows=1000000" in proc.stderr

    def test_row_count_too_long_to_print_refused_with_exit_3(self, tmp_path):
        # Two extents of 4000 nines each: the cross-section's row count has
        # about 8000 digits, more than ``str`` writes.
        nines = "9" * 4000
        path = tmp_path / "big.losn"
        path.write_text(
            f"losn v1\nd=3 omega=3 extents={nines},{nines},5\nv 1 1 1 1\n",
            encoding="utf-8",
        )
        proc = run_process(
            "solve", "exact-narrow", str(path), "--long-axis", "2", timeout=30
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "capacity error: window count exceeds budget 10000000 "
            "(rows=int of more than 4300 digits, omega=3, "
            "capacity=int of more than 4300 digits)\n"
        )


class TestSemionlineRefusals:
    """semionline checks the cross-section against the window budget, the
    check the exact DP runs, before it computes its look-ahead limit."""

    def test_row_count_too_long_to_print_refused_with_exit_3(self, tmp_path):
        # epsilon=1 is not small: the limit would be large only through the
        # k^(d-1) factor of a cross-section the budget refuses anyway.
        nines = "9" * 4000
        path = tmp_path / "big.losn"
        path.write_text(
            f"losn v1\nd=3 omega=3 extents={nines},{nines},5\nv 1 1 1 1\n",
            encoding="utf-8",
        )
        args = (str(path), "--long-axis", "2")
        semi = run_process("solve", "semionline", *args, "--epsilon", "1", timeout=30)
        exact = run_process("solve", "exact-narrow", *args, timeout=30)
        assert (semi.returncode, semi.stdout) == (3, ""), semi.stderr
        assert semi.stderr == exact.stderr
        assert semi.stderr.startswith(
            "capacity error: window count exceeds budget 10000000 (rows="
        )

    def test_tiny_epsilon_on_small_cross_section_exits_2(self, tmp_path):
        path = tmp_path / "one.losn"
        path.write_text(LOSN_HEAD + "v 1 1 1\n", encoding="utf-8")
        eps = "1/" + "9" * 4300
        proc = run_process("solve", "semionline", str(path), "--epsilon", eps)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: epsilon too small: the look-ahead limit would have more "
            "than 4300 digits\n"
        )


MAIN_HELP = """\
usage: losnet [-h] {gen,solve,verify} ...

Solvers for independent sets on line-of-sight grid networks.

positional arguments:
  {gen,solve,verify}
    gen               generate a random instance file
    solve             solve an instance file
    verify            recheck a solution JSON against an instance

options:
  -h, --help          show this help message and exit
"""

SOLVE_HELP = """\
usage: losnet solve [-h] [--epsilon EPSILON] [--long-axis LONG_AXIS] [--json]
                    [--float] [--trace-phases]
                    {exact-narrow,brute,strip2,ptas,semionline,adssched} file

positional arguments:
  {exact-narrow,brute,strip2,ptas,semionline,adssched}
  file

options:
  -h, --help            show this help message and exit
  --epsilon EPSILON     rational, e.g. 0.5 or 1/2
  --long-axis LONG_AXIS
  --json                full report on stdout
  --float
  --trace-phases
"""


@pytest.mark.parametrize(
    "argv, expected",
    [(["--help"], MAIN_HELP), (["solve", "--help"], SOLVE_HELP)],
    ids=["losnet", "solve"],
)
def test_help_on_a_pipe_is_wrapped_at_78_columns(argv, expected):
    # The width is fixed, so ``COLUMNS`` does not widen it.
    proc = subprocess.run(
        [sys.executable, "-m", "losnet.cli", *argv],
        capture_output=True, text=True, env=dict(child_env(), COLUMNS="200"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


class TestImports:
    """Each command imports only the solver modules it runs."""

    SCRIPT = (
        "import json, sys\n"
        "from losnet.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('losnet.')]))\n"
        "sys.exit(code)\n"
    )

    def loaded(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.strip().splitlines()[-1]))

    def test_exact_narrow_leaves_other_solvers_unloaded(self, losn_file):
        loaded = self.loaded("solve", "exact-narrow", str(losn_file), "--json")
        assert "losnet.narrow" in loaded
        assert not loaded & {"losnet.decomp", "losnet.semionline", "losnet.adssched"}

    def test_ptas_loads_decomp_only(self, losn_file):
        loaded = self.loaded("solve", "ptas", str(losn_file), "--epsilon", "1")
        assert "losnet.decomp" in loaded
        assert not loaded & {"losnet.semionline", "losnet.adssched"}

    # Modules a solve must not pay for: ``dataclasses`` pulls in ``inspect``;
    # ``typing`` and ``pathlib`` cost as much as the code that used them; the
    # brute oracles only serve ``solve brute`` and the tests; ``shutil``
    # (which ``argparse`` imports to ask the terminal's width) brings ``bz2``,
    # ``lzma`` and ``zlib`` along.
    NOT_ON_SOLVE = {
        "dataclasses", "inspect", "typing", "pathlib", "losnet.brute", "shutil"
    }

    def loaded_without_site(self, *argv):
        """Every module a ``python -S`` child has loaded after running the
        command: without ``site``, only the interpreter and losnet add any."""
        script = (
            "import json, sys\n"
            "from losnet.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps(sorted(sys.modules)))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.strip().splitlines()[-1]))

    @pytest.mark.parametrize("algo", ["exact-narrow", "strip2", "adssched"])
    def test_solve_loads_only_what_it_runs(self, algo, losn_file, ads_file):
        path = ads_file if algo == "adssched" else losn_file
        loaded = self.loaded_without_site("solve", algo, str(path), "--json")
        assert "losnet.oracle" in loaded
        assert not loaded & self.NOT_ON_SOLVE
        if importlib.util.find_spec("_sha256") is not None:
            assert "_hashlib" not in loaded

    def test_brute_loads_the_oracles(self, tmp_path):
        small = tmp_path / "s.losn"
        small.write_text("losn v1\nd=2 omega=2 extents=3,2\nv 1 1 1\nv 3 2 2\n")
        assert "losnet.brute" in self.loaded("solve", "brute", str(small))

    def test_digest_is_hashlib_sha256(self):
        from losnet.cli import _digest

        for text in ("", "losn v1\n", "v 1 1 \u00bd\n" * 1000):
            expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert _digest(text) == "sha256:" + expected

    def test_star_import_binds_all(self):
        script = (
            "import losnet\n"
            "names = {}\n"
            "exec('from losnet import *', names)\n"
            "missing = [n for n in losnet.__all__ if n not in names]\n"
            "assert not missing, missing\n"
            "assert len(losnet.__all__) == len(set(losnet.__all__))\n"
            "assert set(losnet.__all__) == set(losnet._MODULE_OF)\n"
            "assert set(losnet.__all__) <= set(dir(losnet))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_name_is_attribute_error(self):
        import losnet

        with pytest.raises(AttributeError, match="no_such_name"):
            losnet.no_such_name


@pytest.fixture(scope="module")
def big_losn(tmp_path_factory):
    """A 12000x3 instance whose ``--json`` answer (about 330 KB) is larger
    than a pipe holds, so its writer must wait for the reader."""
    from fractions import Fraction

    from losnet import GenConfig, InstanceParams, generate, save_instance

    path = tmp_path_factory.mktemp("big") / "big.losn"
    params = InstanceParams(2, (12000, 3), 3)
    save_instance(path, generate(GenConfig(params, Fraction(1, 2), "uniform:1:5", 1)))
    return path


class TestExitPath:
    """``losnet`` leaves through ``cli.run``: ``os._exit`` after flushing,
    with the exit codes and stdout of ``main``."""

    def test_registers_no_atexit_handler(self, losn_file, ads_file, tmp_path):
        # ``os._exit`` would skip one, so none may be registered: run every
        # command and algorithm in one process and count the handlers.
        sol = tmp_path / "sol.json"
        sol.write_text('{"algorithm": "x", "weight": "0", "vertices": []}')
        script = (
            "import atexit, contextlib, io, sys\n"
            "before = atexit._ncallbacks()\n"
            "from losnet.cli import main\n"
            "losn, ads, sol, gen = sys.argv[1:]\n"
            "runs = [\n"
            "    ['gen', '--d', '2', '--extents', '4,2', '--omega', '2',\n"
            "     '--density', '1/2', '-o', gen],\n"
            "    ['solve', 'exact-narrow', losn, '--json'],\n"
            "    ['solve', 'strip2', losn], ['solve', 'ptas', losn, '--epsilon', '1'],\n"
            "    ['solve', 'semionline', losn, '--epsilon', '1', '--trace-phases'],\n"
            "    ['solve', 'brute', gen], ['solve', 'adssched', ads],\n"
            "    ['verify', losn, sol], ['verify', ads, sol],\n"
            "    ['solve', 'exact-narrow', 'missing.losn'],\n"
            "]\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    for argv in runs:\n"
            "        main(argv)\n"
            "print(atexit._ncallbacks() - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(losn_file), str(ads_file), str(sol),
             str(tmp_path / "gen.losn")],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    @pytest.mark.parametrize(
        "argv, budget, code",
        [
            (["solve", "exact-narrow", "{losn}", "--json"], None, 0),
            (["solve", "exact-narrow", "{losn}"], "2", 3),
            (["solve", "exact-narrow", "missing.losn"], None, 2),
            (["solve", "ptas", "{losn}"], None, 2),  # no --epsilon
            (["verify", "{losn}", "{losn}"], None, 2),
        ],
        ids=["ok", "budget", "missing-file", "usage", "bad-solution"],
    )
    @pytest.mark.parametrize("entry", ["module", "run"])
    def test_exit_codes_unchanged(self, losn_file, tmp_path, argv, budget, code, entry):
        argv = [a.format(losn=losn_file) for a in argv]
        env = child_env()
        env.pop("LOS_WINDOW_BUDGET", None)
        if budget is not None:
            env["LOS_WINDOW_BUDGET"] = budget
        # ``python -m losnet.cli`` and the ``losnet`` console script, which
        # calls ``losnet.cli:run``.
        head = (
            ["-m", "losnet.cli"] if entry == "module"
            else ["-c", "from losnet.cli import run; run()"]
        )
        proc = subprocess.run(
            [sys.executable, *head, *argv],
            capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["solution"]["vertices"]

    def test_large_answer_through_a_pipe_is_byte_identical(
        self, big_losn, capsys, monkeypatch
    ):
        monkeypatch.chdir(big_losn.parent)
        monkeypatch.delenv("LOS_WINDOW_BUDGET", raising=False)
        argv = ["solve", "exact-narrow", big_losn.name, "--json"]
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and len(expected) > 1 << 17
        proc = subprocess.run(
            [sys.executable, "-m", "losnet.cli", *argv],
            capture_output=True, env=child_env(), timeout=120, cwd=big_losn.parent,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected.encode("utf-8")

    def test_closed_pipe_is_one_line_and_exit_1(self, big_losn):
        # ``losnet solve ... --json | head -c 20``: the reader goes away
        # while the answer is still being written.
        with subprocess.Popen(
            [sys.executable, "-m", "losnet.cli", "solve", "exact-narrow",
             str(big_losn), "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as proc:
            try:
                assert len(proc.stdout.read(20)) == 20
                proc.stdout.close()
                err = proc.stderr.read().decode()
                code = proc.wait(timeout=120)
            finally:
                proc.kill()
        assert code == 1
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "error: output closed before it was written"
        assert err.startswith("# wall_ms=") and len(err.splitlines()) == 2


class TestIntegerWeights:
    """A weight written as a run of digits loads as an ``int``, the same
    weight written as p/1 as a ``Fraction``; every answer prints alike."""

    CASES = {
        # name: (extents, weights, seed, solve arguments after the file)
        "weighted": ((30, 3), "uniform:1:5", 3, [
            ["exact-narrow"], ["strip2"], ["ptas", "--epsilon", "1/2"],
            ["semionline", "--epsilon", "1/3"],
        ]),
        "unit": ((30, 3), "const:1", 4, [["semionline", "--epsilon", "1/2"]]),
        "tiny": ((6, 3), "uniform:1:5", 5, [["brute"], ["exact-narrow", "--float"]]),
    }
    ADS = "ads v1\nclients=3 times=9 omega=2 l=2\na 110111011\na 011011101\na 111100001\n"
    ADS_WEIGHTS = ["w 1 2 {}", "w 2 5 {}", "w 3 9 {}"]

    @staticmethod
    def as_fractions(text):
        return "".join(
            f"{line.rstrip()}/1\n" if line.startswith(("v ", "w ")) else line
            for line in text.splitlines(keepends=True)
        )

    def outputs(self, tmp_path, monkeypatch, capsys, name, text, runs):
        outs = []
        for sub, body in (("ints", text), ("fractions", self.as_fractions(text))):
            where = tmp_path / sub
            where.mkdir(exist_ok=True)
            (where / name).write_text(body, encoding="utf-8")
            monkeypatch.chdir(where)
            printed = []
            for algo, *rest in runs:
                code, out, _ = run(capsys, "solve", algo, name, *rest, "--json")
                assert code == 0
                printed.append(out)
            outs.append(printed)
        return outs

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_losn_int_and_fraction_weights_print_alike(
        self, case, tmp_path, monkeypatch, capsys
    ):
        from fractions import Fraction

        from losnet import GenConfig, InstanceParams, generate, load_instance
        from losnet.io import serialize_instance

        monkeypatch.delenv("LOS_WINDOW_BUDGET", raising=False)
        extents, weights, seed, runs = self.CASES[case]
        params = InstanceParams(2, extents, 3)
        text = serialize_instance(
            generate(GenConfig(params, Fraction(1, 2), weights, seed))
        )
        ints, fractions = self.outputs(
            tmp_path, monkeypatch, capsys, "a.losn", text, runs
        )
        assert ints == fractions
        loaded = [
            {type(w) for w in load_instance(tmp_path / sub / "a.losn").vertices.values()}
            for sub in ("ints", "fractions")
        ]
        assert loaded == [{int}, {Fraction}]

    def test_ads_int_and_fraction_weights_print_alike(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv("LOS_WINDOW_BUDGET", raising=False)
        text = self.ADS + "".join(
            f"{line.format(w)}\n" for line, w in zip(self.ADS_WEIGHTS, (3, 5, 2))
        )
        ints, fractions = self.outputs(
            tmp_path, monkeypatch, capsys, "a.ads", text, [["adssched"]]
        )
        assert ints == fractions
