"""Text formats: .losn instances, .ads schedules, solution JSON.

.losn (UTF-8, line oriented)::

    losn v1
    d=<int> omega=<int> extents=<int>,<int>[,...]
    # comment lines start with '#'
    v <c1> ... <cd> <weight>

Vertex lines are emitted sorted lexicographically by coordinates; weights
serialize as integers or p/q.

.ads::

    ads v1
    clients=<k> times=<n> omega=<w> l=<l>
    a <0/1 string of length n>      (one line per client)
    w <client> <time> <weight>      (optional overrides, default weight 1)

Numbers in both formats are ASCII.  An integer (coordinate, header value,
client, time) is ``[+-]?[0-9]+``.  A weight is an integer, a decimal with
an optional exponent, or p/q, each with an optional sign, read exactly as
``Fraction`` reads it, with at most 4300 digits (``core.MAX_DIGITS``) in
its numerator and in its denominator.  ``int`` and ``Fraction`` also take
other Unicode digits and ``_`` between digits; the formats do not.

Solution JSON uses the fixed key order (algorithm, weight, vertices, meta);
meta keys are sorted.  Weights are exact "p/q" strings (denominator 1
elided) so reports never lose precision.

Every file is read as UTF-8.  Bytes that are not UTF-8, a malformed line
or header, and JSON that is malformed or nested too deeply are refused with
``ValidationError`` (the CLI exits 2).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from fractions import Fraction
from os import PathLike

from .core import (
    Coords,
    InstanceParams,
    LosInstance,
    Solution,
    check_weight_sums,
    exact_fraction,
)
from .errors import ValidationError

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING``, without importing ``typing``
if TYPE_CHECKING:
    from .adssched import AdsInstance

LOSN_HEADER = "losn v1"
ADS_HEADER = "ads v1"


def _plain(token: str) -> bool:
    """Whether ``token`` is ASCII without ``_``: ``int`` and ``Fraction``
    also read other Unicode digits and ``_`` between digits, which the file
    formats refuse."""
    return token.isascii() and "_" not in token


def parse_int(token: str) -> int:
    """Integer of an ASCII decimal token, with an optional sign; ValueError
    for anything else."""
    if not _plain(token):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def parse_weight(token: str) -> Fraction:
    """Exact weight of an ASCII token, as ``Fraction(token)`` reads it:
    an integer, a decimal with an optional exponent, or p/q, each with an
    optional sign.

    A plain run of digits, the form ``losnet gen`` writes for integer
    weights, goes through ``int``: same value, without ``Fraction``'s
    string parser.  A weight whose numerator or denominator would have more
    than 4300 digits is refused (``core.exact_fraction``).
    """
    if _plain(token):
        try:
            return exact_fraction(int(token) if token.isdigit() else token)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"bad weight {token!r}")


def content_lines(lines: Iterable[str]) -> Iterator[str]:
    """Each line stripped, skipping blank lines and ``#`` comment lines."""
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def _parse_kv_line(line: str, expected: list[str], what: str) -> dict[str, str]:
    fields = {}
    for part in line.split():
        if "=" not in part:
            raise ValidationError(f"bad {what} header field {part!r}")
        key, _, value = part.partition("=")
        fields[key] = value
    missing = [k for k in expected if k not in fields]
    if missing:
        raise ValidationError(f"{what} header missing {missing}")
    extra = [k for k in fields if k not in expected]
    if extra:
        raise ValidationError(f"{what} header has unknown fields {extra}")
    return fields


def read_losn_header(lines: Iterator[str]) -> InstanceParams:
    """Parameters of a .losn file from its first two content lines, which
    it takes from ``lines``; the vertex lines are left to the caller."""
    if next(lines, None) != LOSN_HEADER:
        raise ValidationError(f"expected first line {LOSN_HEADER!r}")
    header_line = next(lines, None)
    if header_line is None:
        raise ValidationError("missing losn parameter line")
    fields = _parse_kv_line(header_line, ["d", "omega", "extents"], "losn")
    try:
        d = parse_int(fields["d"])
        omega = parse_int(fields["omega"])
        extents = tuple(map(parse_int, fields["extents"].split(",")))
    except ValueError as exc:
        raise ValidationError(f"bad losn header {header_line!r}") from exc
    return InstanceParams(d, extents, omega)


def parse_vertex_line(line: str, params: InstanceParams) -> tuple[Coords, Fraction]:
    parts = line.split()
    if len(parts) != params.d + 2 or parts[0] != "v":
        raise ValidationError(
            f"bad vertex line {line!r} (want 'v <{params.d} coords> <weight>')"
        )
    try:
        coords = tuple(map(parse_int, parts[1 : 1 + params.d]))
    except ValueError as exc:
        raise ValidationError(f"bad coordinates in {line!r}") from exc
    return coords, parse_weight(parts[-1])


def serialize_instance(inst: LosInstance, comments: Iterable[str] = ()) -> str:
    p = inst.params
    lines = [
        LOSN_HEADER,
        f"d={p.d} omega={p.omega} extents={','.join(map(str, p.extents))}",
    ]
    lines.extend(f"# {c}" for c in comments)
    weights = inst.vertices
    for coords in inst.coords_sorted():
        cs = " ".join(map(str, coords))
        lines.append(f"v {cs} {weights[coords]!s}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> LosInstance:
    lines = content_lines(text.splitlines())
    params = read_losn_header(lines)
    cells = {}
    for line in lines:
        coords, w = parse_vertex_line(line, params)
        if coords in cells:
            raise ValidationError(f"duplicate vertex at {coords}")
        cells[coords] = w
    # The cells are distinct int tuples of length d with ``Fraction``
    # weights.  One scan for what ``LosInstance`` refuses besides (a weight
    # that is not positive, a cell outside the box) lets a clean file skip
    # its per-cell checks; a bad cell goes to it for the refusal, which
    # checks the cells in the same order and so names the same one.
    for coords, w in cells.items():
        if w.numerator <= 0 or not params.in_box(coords):
            return LosInstance(params, cells)
    check_weight_sums(cells.values())
    return LosInstance._trusted(params, cells)


def read_lines(path: str | PathLike[str]) -> Iterator[str]:
    """Lines of the UTF-8 file at ``path``, read as they are asked for.  A
    byte sequence that is not UTF-8 is refused (``ValidationError``) when
    the reading reaches it."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_text(path: str | PathLike[str]) -> str:
    return "".join(read_lines(path))


def load_instance(path: str | PathLike[str]) -> LosInstance:
    return parse_instance(_read_text(path))


def save_instance(
    path: str | PathLike[str], inst: LosInstance, comments: Iterable[str] = ()
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst, comments))


# -- .ads ---------------------------------------------------------------------


def serialize_ads(ads: AdsInstance) -> str:
    lines = [
        ADS_HEADER,
        f"clients={ads.k_clients} times={ads.n_times} omega={ads.omega} l={ads.l}",
    ]
    for row in ads.available:
        lines.append("a " + "".join(map(str, row)))
    for (c, t) in sorted(ads.weights):
        lines.append(f"w {c} {t} {ads.weights[(c, t)]!s}")
    return "\n".join(lines) + "\n"


def parse_ads(text: str) -> AdsInstance:
    from .adssched import AdsInstance

    lines = list(content_lines(text.splitlines()))
    if not lines or lines[0] != ADS_HEADER:
        raise ValidationError(f"expected first line {ADS_HEADER!r}")
    if len(lines) < 2:
        raise ValidationError("missing ads parameter line")
    fields = _parse_kv_line(lines[1], ["clients", "times", "omega", "l"], "ads")
    try:
        k = parse_int(fields["clients"])
        n = parse_int(fields["times"])
        omega = parse_int(fields["omega"])
        cap = parse_int(fields["l"])
    except ValueError as exc:
        raise ValidationError(f"bad ads header {lines[1]!r}") from exc
    rows: list[tuple[int, ...]] = []
    weights: dict[tuple[int, int], Fraction] = {}
    for line in lines[2:]:
        parts = line.split()
        if parts[0] == "a" and len(parts) == 2:
            if any(ch not in "01" for ch in parts[1]):
                raise ValidationError(f"availability must be 0/1: {line!r}")
            rows.append(tuple(int(ch) for ch in parts[1]))
        elif parts[0] == "w" and len(parts) == 4:
            try:
                c, t = parse_int(parts[1]), parse_int(parts[2])
            except ValueError as exc:
                raise ValidationError(f"bad weight line {line!r}") from exc
            key = (c, t)
            if key in weights:
                raise ValidationError(f"duplicate weight for {key}")
            weights[key] = parse_weight(parts[3])
        else:
            raise ValidationError(f"bad ads line {line!r}")
    ads = AdsInstance(k, n, omega, cap, tuple(rows), weights)
    # Every available pair without a weight line weighs 1.
    check_weight_sums(ads.weights.values(), sum(map(sum, rows)) - len(weights))
    return ads


def load_ads(path: str | PathLike[str]) -> AdsInstance:
    return parse_ads(_read_text(path))


# -- solution JSON --------------------------------------------------------------


def solution_dict(sol: Solution, with_float: bool = False) -> dict:
    d: dict = {"algorithm": sol.algorithm, "weight": str(sol.total_weight)}
    if with_float:
        try:
            d["weight_float"] = float(sol.total_weight)
        except OverflowError:  # beyond the largest float
            d["weight_float"] = None
    d["vertices"] = [list(c) for c in sol.vertices]
    d["meta"] = {k: sol.meta[k] for k in sorted(sol.meta)}
    return d


def solution_to_json(sol: Solution, with_float: bool = False) -> str:
    return json.dumps(solution_dict(sol, with_float), indent=2) + "\n"


def parse_solution_json(text: str) -> Solution:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer longer than ``int``
        # reads; RecursionError: arrays or objects nested too deeply.
        raise ValidationError(f"bad solution JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("solution JSON must be an object")
    for key in ("algorithm", "weight", "vertices"):
        if key not in raw:
            raise ValidationError(f"solution JSON missing {key!r}")
    vertices = raw["vertices"]
    if not isinstance(vertices, list):
        raise ValidationError("solution 'vertices' must be a list of coordinate lists")
    for c in vertices:
        if not isinstance(c, list):
            raise ValidationError(f"solution vertex {c!r} is not a coordinate list")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in c):
            raise ValidationError(f"solution vertex {c!r} has a non-integer coordinate")
    meta = raw.get("meta", {})
    if not isinstance(meta, dict):
        raise ValidationError("solution 'meta' must be an object")
    return Solution(
        str(raw["algorithm"]),
        tuple(tuple(c) for c in vertices),
        parse_weight(str(raw["weight"])),
        dict(meta),
    )


def load_solution(path: str | PathLike[str]) -> Solution:
    return parse_solution_json(_read_text(path))
