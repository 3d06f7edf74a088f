"""The stdout contract: the benchmark's ops print byte-identical reports.

Each of the 16 ``column-dp`` and ``decomp`` ops of ``perfbench/run.py`` runs
in-process through ``cli.main`` on its seed-1, 2 and 3 inputs, and the
SHA-256 of its ``solve --json`` stdout must match the table below.  The
inputs are written by ``perfbench/gen.py``, which repeats ``losnet gen``
byte for byte, so a change to losnet's own generator cannot move them.  The
ops and input shapes mirror ``WORKLOADS`` in ``perfbench/run.py``.

Like ``test_golden.py``, each case runs from a directory holding its inputs,
named relatively, with ``LOS_WINDOW_BUDGET`` unset.  A change that means to
change stdout updates the table and says why.
"""

import hashlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from losnet.cli import main

_GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN_PATH)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

OMEGA = 3
HALF = Fraction(1, 2)

# workload -> (inputs, ops).  An input is (label, extents, weights) for a
# .losn file or (label, clients, times) for an .ads file; an op is
# (algo, label, epsilon or None).
WORKLOADS = {
    "column-dp": (
        [
            ("w3", (1300, 3), "uniform:1:5"),
            ("w2", (2000, 2), "uniform:1:5"),
            ("u1", (1000, 3), "const:1"),
            ("u2", (1000, 3), "const:1"),
            ("c4", 4, 350),
            ("c5", 5, 150),
        ],
        [
            ("exact-narrow", "w3", None),
            ("exact-narrow", "w2", None),
            ("semionline", "u1", "1/2"),
            ("semionline", "u2", "1/2"),
            ("adssched", "c4", None),
            ("adssched", "c5", None),
        ],
    ),
    "decomp": (
        [
            ("g2a", (100, 30), "uniform:1:5"),
            ("g2b", (100, 30), "uniform:1:5"),
            ("g2c", (100, 30), "uniform:1:5"),
            ("g3", (20, 2, 2), "uniform:1:5"),
        ],
        [
            (algo, label, eps)
            for label in ("g2a", "g2b", "g2c")
            for algo, eps in (("strip2", None), ("ptas", "1"), ("ptas", "1/2"))
        ]
        + [("ptas", "g3", "1/4")],
    ),
}

SEEDS = (1, 2, 3)

# "<workload> <seed> <algo>[@eps]:<label>" -> SHA-256 of the op's stdout,
# recorded before integer weights stayed ``int`` and before ``cli.run``.
DIGESTS = {
    "column-dp 1 adssched:c4": (
        "a761a5ba8036e3541e6d315e1a95ac07273f4b571e1a433caaec5a9fe5bd2c3e"
    ),
    "column-dp 1 adssched:c5": (
        "dfce66d25f5eef36816205a357ddc9251d2a5b9a746b0dd0574755d442e0a87b"
    ),
    "column-dp 1 exact-narrow:w2": (
        "d79c0a2c2dd1e078f9667e52640bfa72483131a03236bd1f52171899ca851ac8"
    ),
    "column-dp 1 exact-narrow:w3": (
        "a2aed1094acddf1d2ce88b44d43f3d32048ab8febf354267c180428439bb5e2a"
    ),
    "column-dp 1 semionline@1/2:u1": (
        "cd1e8fac7c59e7f12b0862e08bde7cabeec793c93559aa56b67999f20ea482fe"
    ),
    "column-dp 1 semionline@1/2:u2": (
        "9295537b9c16dbe4c47a2b4866bfb5134a06ab674657c19bc38004b356a7cb16"
    ),
    "column-dp 2 adssched:c4": (
        "a10c518a0f57eb53a0e2857145636fcfab5488fad2392a333fcec864b39e4918"
    ),
    "column-dp 2 adssched:c5": (
        "3af8ae8936b44a53538d64da0a5e712589f69d02907f334f13aaa6509e5752e6"
    ),
    "column-dp 2 exact-narrow:w2": (
        "a918e93fde779ad1a87e1ed9ee76afc01c52ffe805621ed2fb9cd4da3fafe5ab"
    ),
    "column-dp 2 exact-narrow:w3": (
        "581829724e6f0ba4277de484caf7d9961034b73f0e148cf005b95eb818370ec5"
    ),
    "column-dp 2 semionline@1/2:u1": (
        "e12e18603b3b49df80671f99cef5d96541bada3d4b3f7f0e4c00bbeeeef102ee"
    ),
    "column-dp 2 semionline@1/2:u2": (
        "8eabd9fdab291e63981d4074cee8c14a993fba0bf67d618c66021f748e1d06f6"
    ),
    "column-dp 3 adssched:c4": (
        "0f5ea583a4a3cacef473829ad7d875061ef6ef845d8f540f2330ae88dd5d38b0"
    ),
    "column-dp 3 adssched:c5": (
        "f6d631e5356880cbc805f4fdb45c248b73c3a6288b8f6873005bcc80f22c0308"
    ),
    "column-dp 3 exact-narrow:w2": (
        "980e094de770c232dafd3a7e6a7a58373cc036edb916ac91eca9f988f1ded419"
    ),
    "column-dp 3 exact-narrow:w3": (
        "1cd0334eb50d001d7a36745d3254889cd4077b632d245a75d6ade4a143ff9334"
    ),
    "column-dp 3 semionline@1/2:u1": (
        "9ab9c45c674d00709272c30eeb2b1dc01493c93c5c71e7a35610a1f5772af65a"
    ),
    "column-dp 3 semionline@1/2:u2": (
        "6acc64f22a003f2dd5b03043f63b31ead9a6eb06ac52eae05857a06cc8ad4842"
    ),
    "decomp 1 ptas@1/2:g2a": (
        "b071722c18da90991cad6b4368f8952566ba4f76fba32cd472b722f9d1ff9f2e"
    ),
    "decomp 1 ptas@1/2:g2b": (
        "d3099dfff8bdffbc498a375545d9f48788b77fe6513a7b18b26961e826f72a07"
    ),
    "decomp 1 ptas@1/2:g2c": (
        "1cc5df790ad6febbf557036aa161f2ae417ff87abe78c3aefb9ad14d87ed58d5"
    ),
    "decomp 1 ptas@1/4:g3": (
        "68aaa41fb25181b865ba17dbaed170e6b8f58cc660c3b68efa4a76c91a7728a2"
    ),
    "decomp 1 ptas@1:g2a": (
        "a2ba0fa2823c37b0bb12147009a42e3a625b579204216a59902e32fb8f4ad109"
    ),
    "decomp 1 ptas@1:g2b": (
        "55fdc093cecec7b52c81c07a6d90ae1525fdaf7556c158036ca941121d857d14"
    ),
    "decomp 1 ptas@1:g2c": (
        "434ae9c0356ffaf15fbc1dc3b46d396cf5daae222f48ccf9797a6d6d1fbf5020"
    ),
    "decomp 1 strip2:g2a": (
        "642453d1c5189ead31b048a507405d38fcaf1125f5ae201669645f36cb121efd"
    ),
    "decomp 1 strip2:g2b": (
        "7325700566e66fb91728c0e70a6a5abddfd35fe08909431a7acecdb7f97db439"
    ),
    "decomp 1 strip2:g2c": (
        "3170b8c828cc4b2bd7c255b33eb0f4f9517902da8c2d17003312737b32f086fc"
    ),
    "decomp 2 ptas@1/2:g2a": (
        "caf37a00d37f5a08a13b65b5fc4720ba8a8dc2268789e8c58f9d4c1ab4f4015c"
    ),
    "decomp 2 ptas@1/2:g2b": (
        "73de6973a1052864423f7a3a50bac9b1574aa0104b668f35b1e3a575fc64ccee"
    ),
    "decomp 2 ptas@1/2:g2c": (
        "c714d1eeeb8cff4957afa2cd058aad7dd1f731197472b877759bd7f0ed33375e"
    ),
    "decomp 2 ptas@1/4:g3": (
        "4f2b6e37df10a47047173ee6e38c3c90b88a1b72948e5c3e56cfc25d11a96cf4"
    ),
    "decomp 2 ptas@1:g2a": (
        "260c8506d9585102edc35431153400df10abe7997e104da005abb4337d8227f0"
    ),
    "decomp 2 ptas@1:g2b": (
        "df472b5cf2e103a03c06a48f13e1d72a5529cc80c882e3a18800bde478dfb393"
    ),
    "decomp 2 ptas@1:g2c": (
        "d13268c3eb169cc6ab08c8123e51149e6bf001a2fa5fd5ee4e0bfb8ca797e099"
    ),
    "decomp 2 strip2:g2a": (
        "c72cff08ba4f12e9955e5dc3bd30c93fe63de1996beb2baa867a244c591630d6"
    ),
    "decomp 2 strip2:g2b": (
        "ef476751fb1e70edd8865b6dbb4313fc64504a94af68cd51feb736b92ec67812"
    ),
    "decomp 2 strip2:g2c": (
        "63c08937f514778a04f418af7de217b248495c9c1ed8fd257db05e716d59a478"
    ),
    "decomp 3 ptas@1/2:g2a": (
        "e2f8186ca3d35f9e62691d092d908b88e37f880676c8782eabb12b8a675c4991"
    ),
    "decomp 3 ptas@1/2:g2b": (
        "5b3004d3d499e22fbd41ae2b896e58112234ba2559802d155081e41d75bf03a8"
    ),
    "decomp 3 ptas@1/2:g2c": (
        "63934ce7078c05a646a6ad84df39291428d9da695fca3aae769f3fbfcfe3affa"
    ),
    "decomp 3 ptas@1/4:g3": (
        "f75df5e78acc524f1b74adfd5c8c1c29587f6b47fa57dfb06aa6f38b2d3469c4"
    ),
    "decomp 3 ptas@1:g2a": (
        "ee170d2adbf115436a779cdfc3e38508d82e6aa5684b3d4a2e1fb46ef1de568a"
    ),
    "decomp 3 ptas@1:g2b": (
        "b3d0de03a3cbcc520449831be4d8f9b690bd5410eae963d548715520daf56450"
    ),
    "decomp 3 ptas@1:g2c": (
        "ac8d0bddac71975925182cff63be8783687c4e75d477c55658d6f0b386059e80"
    ),
    "decomp 3 strip2:g2a": (
        "33b2867e6e3826071f5fe4af417e368f33e8cfa4df171870f3929dd2b103717a"
    ),
    "decomp 3 strip2:g2b": (
        "62c539b015f99cfb5c21463a476f034354b7c76a72b093640bc25b511ea81e1a"
    ),
    "decomp 3 strip2:g2c": (
        "b85d745ee3ee9079e7d8a68f55aadbad8fc6900665f4a65fb85b4b32e9267905"
    ),
}


def _write_inputs(workload: str, seed: int, where: Path) -> dict[str, str]:
    files = {}
    for label, *shape in WORKLOADS[workload][0]:
        inst_seed = gen.derive_seed(seed, f"{workload}/{label}")
        if isinstance(shape[0], tuple):
            extents, weights = shape
            name = f"{label}.losn"
            gen.write_losn(where / name, extents, OMEGA, HALF, weights, inst_seed)
        else:
            clients, times = shape
            name = f"{label}.ads"
            gen.write_ads(
                where / name, clients, times, OMEGA, 2, HALF, "uniform:1:5", inst_seed
            )
        files[label] = name
    return files


def _op_argv(files, algo, label, eps):
    argv = ["solve", algo, files[label], "--json"]
    if eps is not None:
        argv += ["--epsilon", eps]
    return argv


def _op_key(workload, seed, algo, label, eps):
    return f"{workload} {seed} {algo}{'@' + eps if eps else ''}:{label}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_ops_print_the_recorded_stdout(
    workload, seed, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LOS_WINDOW_BUDGET", raising=False)
    files = _write_inputs(workload, seed, tmp_path)
    moved = []
    for algo, label, eps in WORKLOADS[workload][1]:
        assert main(_op_argv(files, algo, label, eps)) == 0
        out = capsys.readouterr().out
        key = _op_key(workload, seed, algo, label, eps)
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != DIGESTS[key]:
            moved.append(key)
    assert not moved, f"stdout changed for {moved}"


def test_table_covers_every_op():
    keys = {
        _op_key(workload, seed, algo, label, eps)
        for workload, (_, ops) in WORKLOADS.items()
        for seed in SEEDS
        for algo, label, eps in ops
    }
    assert len(keys) == 48
    assert keys == set(DIGESTS)
