"""Independent re-check of ``losnet solve --json`` answers.

Nothing here imports losnet: the input files are parsed again, independence
is checked by line bucketing, schedules by their gap, capacity and
availability rules, and weights are re-summed exactly with ``Fraction``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction
from pathlib import Path


class CheckError(Exception):
    """The printed answer does not hold for its input."""


def _data_lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]


def _header_fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


@functools.lru_cache(maxsize=None)
def load_losn(path: Path) -> tuple[int, dict[tuple[int, ...], Fraction]]:
    """(omega, coords -> weight) of a .losn file."""
    lines = _data_lines(path.read_text(encoding="utf-8"))
    fields = _header_fields(lines[1])
    d = int(fields["d"])
    cells = {}
    for line in lines[2:]:
        parts = line.split()
        cells[tuple(int(x) for x in parts[1 : 1 + d])] = Fraction(parts[-1])
    return int(fields["omega"]), cells


@functools.lru_cache(maxsize=None)
def load_ads(path: Path) -> tuple[dict[str, int], dict[tuple[int, int], Fraction]]:
    """(header fields, available (client, slot) -> weight) of an .ads file."""
    lines = _data_lines(path.read_text(encoding="utf-8"))
    fields = {k: int(v) for k, v in _header_fields(lines[1]).items()}
    pairs: dict[tuple[int, int], Fraction] = {}
    overrides: dict[tuple[int, int], Fraction] = {}
    client = 0
    for line in lines[2:]:
        parts = line.split()
        if parts[0] == "a":
            client += 1
            for t, ch in enumerate(parts[1], start=1):
                if ch == "1":
                    pairs[(client, t)] = Fraction(1)
        else:
            overrides[(int(parts[1]), int(parts[2]))] = Fraction(parts[3])
    pairs.update(overrides)
    return fields, pairs


def _picked(points: list[list[int]], known: dict) -> list[tuple[int, ...]]:
    out = []
    for p in points:
        c = tuple(p)
        if c not in known:
            raise CheckError(f"{c} is not in the input")
        out.append(c)
    if len(set(out)) != len(out):
        raise CheckError("the answer repeats a point")
    return out


def _check_weight(claimed: str, picked, weights: dict) -> Fraction:
    total = sum((weights[c] for c in picked), Fraction(0))
    if Fraction(claimed) != total:
        raise CheckError(f"weight {claimed} printed, {total} re-summed")
    return total


def check_losn_answer(path: Path, sol: dict) -> None:
    """Independence by line bucketing plus an exact weight re-sum."""
    omega, cells = load_losn(path)
    picked = _picked(sol["vertices"], cells)
    d = len(next(iter(cells))) if cells else 0
    for axis in range(d):
        lines: dict[tuple[int, ...], list[int]] = {}
        for c in picked:
            lines.setdefault(c[:axis] + c[axis + 1 :], []).append(c[axis])
        for line, coords in lines.items():
            coords.sort()
            for a, b in zip(coords, coords[1:]):
                if b - a < omega:
                    raise CheckError(f"gap {b - a} < omega={omega} on axis {axis} at {line}")
    _check_weight(sol["weight"], picked, cells)


def check_ads_answer(path: Path, sol: dict) -> None:
    """Availability, per-client gap, per-slot capacity and exact weight."""
    fields, pairs = load_ads(path)
    picked = _picked(sol["vertices"], pairs)
    by_client: dict[int, list[int]] = {}
    by_slot: dict[int, int] = {}
    for c, t in picked:
        by_client.setdefault(c, []).append(t)
        by_slot[t] = by_slot.get(t, 0) + 1
    for c, slots in by_client.items():
        slots.sort()
        for a, b in zip(slots, slots[1:]):
            if b - a < fields["omega"]:
                raise CheckError(f"client {c} airs {b - a} < omega={fields['omega']} apart")
    for t, n in by_slot.items():
        if n > fields["l"]:
            raise CheckError(f"slot {t} serves {n} > l={fields['l']} clients")
    _check_weight(sol["weight"], picked, pairs)


def vertices_digest(sol: dict) -> str:
    """sha256 of the printed vertex list in its canonical JSON form."""
    text = json.dumps(sol["vertices"], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_answer(path: Path, algorithm: str, stdout: bytes, reference: dict | None) -> dict:
    """Parse and re-check one op's stdout; returns the printed solution.

    ``reference`` (algorithm, weight, vertices_sha256), when given, must match
    exactly; ``meta`` is never compared.
    """
    try:
        sol = json.loads(stdout)["solution"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"stdout is not a solve report: {exc}") from None
    if sol.get("algorithm") != algorithm:
        raise CheckError(f"algorithm {sol.get('algorithm')!r}, expected {algorithm!r}")
    try:
        if path.suffix == ".ads":
            check_ads_answer(path, sol)
        else:
            check_losn_answer(path, sol)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed solution: {exc!r}") from None
    if reference is not None:
        got = {
            "algorithm": sol["algorithm"],
            "weight": sol["weight"],
            "vertices_sha256": vertices_digest(sol),
        }
        if got != reference:
            raise CheckError(f"answer {got} differs from the reference {reference}")
    return sol
