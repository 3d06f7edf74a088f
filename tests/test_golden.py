"""Golden stdout: ``losnet solve ... --json`` must stay byte-identical.

Each case runs the CLI in-process from a directory holding its inputs, named
relatively, so the ``command`` field of the report is the same everywhere.
The digests were recorded from the code before the growth cap was computed
from logarithms; a change that moves any of them changes the output.
"""

import hashlib
from fractions import Fraction

import pytest

from losnet import GenConfig, InstanceParams, generate, save_instance
from losnet.cli import main

GENERATED = {
    # name: (extents, omega, density, weights, seed)
    "narrow.losn": ((60, 3), 3, Fraction(1, 2), "uniform:1:5", 1),
    "unit.losn": ((60, 3), 3, Fraction(1, 2), "const:1", 2),
    "grid.losn": ((20, 12), 3, Fraction(1, 2), "uniform:1:5", 3),
    "cube.losn": ((8, 5, 5), 2, Fraction(1, 3), "uniform:1:5", 4),
    "thirds.losn": ((30, 2), 2, Fraction(1, 2), "const:5/3", 5),
    "tiny.losn": ((6, 3), 2, Fraction(1, 2), "uniform:1:5", 6),
}

LITERAL = {
    "sched.ads": (
        "ads v1\nclients=3 times=12 omega=3 l=2\n"
        "a 110111011101\na 011011101110\na 111100001111\n"
        "w 1 2 5/2\nw 3 10 4\n"
    ),
    # Two vertices whose weight ratio is 50/3: the weighted look-ahead limit.
    "w2.losn": "losn v1\nd=2 omega=2 extents=4,1\nv 1 1 1\nv 3 1 50/3\n",
}

CASES = {
    "exact-narrow": (
        ["solve", "exact-narrow", "narrow.losn", "--json"],
        "e578d79594fc002a2281154fb632de615bb09b306fd4012456f4b75a76337e26",
    ),
    "brute": (
        ["solve", "brute", "tiny.losn", "--json"],
        "853ad72c38b5188fcc8049108c2d7558e85082256c5f584df5103322aaf856a5",
    ),
    "strip2": (
        ["solve", "strip2", "grid.losn", "--json"],
        "721d131c05f76761320405f7998e221e20fe578fe94cb0826a4fe794e044d412",
    ),
    "ptas": (
        ["solve", "ptas", "grid.losn", "--epsilon", "1/2", "--json"],
        "2dd10d1be276bbdcc188da00ab5a3c4976ac6bf05ca9103c8ab76d509be864cb",
    ),
    "ptas-3d": (
        ["solve", "ptas", "cube.losn", "--epsilon", "1", "--json"],
        "17dcdc1fcaabd983c51d72d4760d334a58a98df2a4497a35f288b30743c9e235",
    ),
    "semionline": (
        ["solve", "semionline", "unit.losn", "--epsilon", "1/2", "--json"],
        "893dc091b9a85cf8b603036ff66924d6970d0e597a0911c016bd39de8e61eb8f",
    ),
    "semionline-weighted": (
        ["solve", "semionline", "narrow.losn", "--epsilon", "1/3", "--json"],
        "620c88dfd143f775b4ef7083e115892c6cde3b4b573bfe1d430765102eb0b53d",
    ),
    # Pins the weighted look-ahead limit, a number of about 4200 digits.
    "semionline-tiny-epsilon": (
        ["solve", "semionline", "w2.losn", "--epsilon", "1e-4200", "--json"],
        "297092293ce4ef1c9cd8c9b189a687b9a0b9918815c0d0fda0ed817f386bc621",
    ),
    "adssched": (
        ["solve", "adssched", "sched.ads", "--json"],
        "7ed8db0cfa17b77d7a2d71c53906e2459aa5fb0ad1e5f26365dc810602ef2e3a",
    ),
    "float": (
        ["solve", "exact-narrow", "thirds.losn", "--json", "--float"],
        "b7a983f2bccadde97ea552836fbdc2ac30ce4acf741c384de53faa2cad26edf8",
    ),
}


@pytest.fixture()
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LOS_WINDOW_BUDGET", raising=False)
    for name, (extents, omega, density, weights, seed) in GENERATED.items():
        params = InstanceParams(len(extents), extents, omega)
        save_instance(name, generate(GenConfig(params, density, weights, seed)))
    for name, text in LITERAL.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_json_stdout_is_golden(inputs, capsys, case):
    argv, digest = CASES[case]
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
