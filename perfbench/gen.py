"""Seeded input files for the benchmark, written without importing losnet.

The generator repeats the one in ``losnet gen`` (SplitMix64, cells drawn in
lexicographic order, weights drawn right after each occupied cell), so a
``.losn`` file written here is byte-identical to what ``losnet gen`` writes
for the same parameters and seed.  Keeping a copy here means a later change
to the program's generator cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction
from pathlib import Path

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next64()
            if x < limit:
                return x % n


def derive_seed(workload_seed: int, label: str) -> int:
    """Instance seed for one input of a workload; a pure function of both."""
    digest = hashlib.sha256(f"{workload_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _draw_weight(rng: SplitMix64, spec: str) -> int:
    """One weight for ``const:c`` (no draw) or ``uniform:a:b`` (one draw)."""
    kind, *args = spec.split(":")
    if kind == "const":
        return int(args[0])
    lo, hi = map(int, args)
    return lo + rng.below(hi - lo + 1)


def write_losn(
    path: Path,
    extents: tuple[int, ...],
    omega: int,
    density: Fraction,
    weights: str,
    seed: int,
) -> int:
    """Write a random .losn instance; returns its vertex count."""
    rng = SplitMix64(seed)
    threshold = math.ceil(density * (1 << 64))
    lines = [
        "losn v1",
        f"d={len(extents)} omega={omega} extents={','.join(map(str, extents))}",
        f"# generated prng=splitmix64 seed={seed} density={density} weights={weights}",
    ]
    count = 0
    for coords in itertools.product(*(range(1, e + 1) for e in extents)):
        if rng.next64() < threshold:
            w = _draw_weight(rng, weights)
            lines.append(f"v {' '.join(map(str, coords))} {w}")
            count += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return count


def write_ads(
    path: Path,
    clients: int,
    times: int,
    omega: int,
    cap: int,
    density: Fraction,
    weights: str,
    seed: int,
) -> int:
    """Write a random .ads schedule; returns its available client-slot pairs.

    Availability is drawn client-major, slot by slot, and each available
    pair draws its weight next.  Every available pair gets a ``w`` line, in
    the (client, slot) order ``serialize_ads`` uses.
    """
    rng = SplitMix64(seed)
    threshold = math.ceil(density * (1 << 64))
    rows = []
    wlines = []
    for c in range(1, clients + 1):
        row = []
        for t in range(1, times + 1):
            if rng.next64() < threshold:
                row.append("1")
                wlines.append(f"w {c} {t} {_draw_weight(rng, weights)}")
            else:
                row.append("0")
        rows.append("a " + "".join(row))
    lines = [
        "ads v1",
        f"clients={clients} times={times} omega={omega} l={cap}",
        *rows,
        *wlines,
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(wlines)
