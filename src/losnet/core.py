"""Instance model for line-of-sight networks on d-dimensional integer grids.

Vertices sit on 1-based grid coordinates inside a box of per-axis extents.
A ``LosInstance`` is built from one input, a coords -> weight mapping.
Two vertices are adjacent when their coordinates differ in exactly one
position and the gap there is strictly less than the range parameter omega.
Edges are never materialized; every solver consumes the adjacency predicate
directly.

Weights are exact rationals (``numbers.Rational``) so optimality claims
can be checked with equality rather than tolerances.  An integer weight is
an ``int`` and any other a ``fractions.Fraction``: a ``.losn`` or ``.ads``
token that is a run of digits loads as an ``int``, every other token as a
``Fraction``, and ``generate`` draws ``int`` weights unless ``const:c`` names
a non-integer c.  Both print, compare and hash alike for equal values, so no
output depends on which one a weight is.  Sums start from ``0`` and stay
``int`` while every term is one.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection, Iterable, Mapping
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType

from .errors import UnknownCoordinateError, ValidationError

Coords = tuple[int, ...]


class Record:
    """Plain value class over the fields its class annotates: ``_fields``
    lists them in declaration order, ``__init__`` assigns them positionally
    or by keyword, and equality and ``repr`` read them.  A class that checks
    or defaults its fields keeps its own ``__init__``, ending in ``super().__init__``.

    Records stand in for ``dataclasses``, whose import (it pulls in
    ``inspect``) would cost every CLI run more than the classes do.  Like a
    plain dataclass, a record compares equal only to a record of the same
    class and is unhashable.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call that does not give them all
        positionally; TypeError for a call a signature would refuse."""
        who, fields, n = cls.__name__, cls._fields, len(args)
        if n > len(fields):
            raise TypeError(f"{who}() takes {len(fields)} arguments but {n} were given")
        for key in kwargs:
            if key in fields[:n]:
                raise TypeError(f"{who}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{who}() got an unexpected keyword argument {key!r}")
        for field in fields[n:]:
            if field not in kwargs:
                raise TypeError(f"{who}() missing argument {field!r}")
        return [*args, *(kwargs[f] for f in fields[n:])]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """Immutable, hashable ``Record``: assigning or deleting a field after
    ``__init__`` raises AttributeError."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


# Python's default limit on the digits ``int`` reads and ``str`` writes,
# fixed here so that what is refused does not depend on the environment.
MAX_DIGITS = 4300
_DIGITS_CAP = 10**MAX_DIGITS


def exact_int(value: int) -> int:
    """``value``; ValueError when it has more than ``MAX_DIGITS`` digits."""
    if abs(value) >= _DIGITS_CAP:
        raise ValueError(f"more than {MAX_DIGITS} digits")
    return value


def exact_fraction(value) -> Fraction:
    """``Fraction(value)``; ValueError when its numerator or denominator
    would have more than ``MAX_DIGITS`` digits.  A string's exponent is read
    first: past ``MAX_DIGITS`` plus the mantissa's length no nonzero
    mantissa fits, so the token is refused (a zero one too) before
    ``Fraction`` builds 10**exponent.  An exponent ``int`` cannot read is
    one ``Fraction`` refuses too."""
    if isinstance(value, str):
        mantissa, e, exponent = value.lower().partition("e")
        if e and abs(int(exponent)) > MAX_DIGITS + len(mantissa):
            raise ValueError("exponent too large")
    result = Fraction(value)
    exact_int(result.numerator)
    exact_int(result.denominator)
    return result


def check_digits(value: int, what: str) -> int:
    """``value``; refused unless ``str`` can write it (``MAX_DIGITS``)."""
    if abs(value) >= _DIGITS_CAP:
        raise ValidationError(f"{what} would have more than {MAX_DIGITS} digits")
    return value


def shown(value: int) -> str:
    """``value`` as a message writes it; one that ``str`` cannot write is
    named by its digit bound, as ``parse_rational`` names it."""
    if abs(value) < _DIGITS_CAP:
        return str(value)
    return f"int of more than {MAX_DIGITS} digits"


def check_weight_sums(weights: Collection[Rational], units: int = 0) -> None:
    """Refuse positive ``weights`` when some sum of them, and of ``units``
    weights of 1, could not be written.  Such a sum has a denominator
    dividing the least common multiple L of their denominators and a
    numerator at most ``units * L`` plus the sum of ``w * L``, so both must
    fit ``check_digits``.  L is refused as soon as it passes the bound, before
    the numerator is summed over it."""
    lcm = 1
    for den in {w.denominator for w in weights}:
        lcm = check_digits(lcm // math.gcd(lcm, den) * den, "a weight sum")
    check_digits(
        units * lcm + sum(w.numerator * (lcm // w.denominator) for w in weights),
        "a weight sum",
    )


def parse_rational(value, what: str = "number") -> Fraction:
    """``exact_fraction(value)``, refused as ``not a rational <what>``: the
    one reader of epsilon, density and weights.  A ``Fraction`` with at most
    ``MAX_DIGITS`` digits in its numerator and denominator comes back as it
    is, so a value checked once is not read again."""
    if type(value) is Fraction:
        if abs(value.numerator) < _DIGITS_CAP and value.denominator < _DIGITS_CAP:
            return value
    try:
        return exact_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        # An int or Fraction is refused only for its digits, too many to print.
        if isinstance(value, (int, Fraction)):
            shown = f"{type(value).__name__} of more than {MAX_DIGITS} digits"
        else:
            shown = repr(value)
        raise ValidationError(f"not a rational {what}: {shown}") from exc


def as_weight(value) -> Rational:
    """``value`` as a weight: an ``int`` of at most ``MAX_DIGITS`` digits as
    it is, anything else through ``parse_rational``."""
    if type(value) is int and abs(value) < _DIGITS_CAP:
        return value
    return parse_rational(value, "weight")


class InstanceParams(FrozenRecord):
    """Grid box (dimension, per-axis extents) plus the range parameter.

    By convention axis 0 is the long axis of narrow instances, but nothing
    here depends on it; solvers take the long axis explicitly.  Narrowness
    is always derived from the extents, never stored.
    """

    d: int
    extents: tuple[int, ...]
    omega: int

    def __init__(self, d: int, extents: Iterable[int], omega: int) -> None:
        extents = tuple(int(e) for e in extents)
        # Checked first: the messages below print these values.
        check_digits(d, "dimension")
        check_digits(max(map(abs, extents), default=0), "an extent")
        check_digits(omega, "omega")
        if d < 2:
            raise ValidationError(f"dimension must be >= 2, got {d}")
        if len(extents) != d:
            raise ValidationError(f"expected {d} extents, got {len(extents)}")
        if any(e < 1 for e in extents):
            raise ValidationError(f"extents must be positive, got {extents}")
        if omega < 2:
            raise ValidationError(f"omega must be >= 2, got {omega}")
        super().__init__(d, extents, omega)

    def in_box(self, coords: Coords) -> bool:
        return len(coords) == self.d and all(
            1 <= c <= e for c, e in zip(coords, self.extents)
        )


def default_long_axis(params: InstanceParams) -> int:
    """Axis of maximum extent (smallest index on ties)."""
    return max(range(params.d), key=lambda a: (params.extents[a], -a))


def check_epsilon(epsilon) -> Fraction:
    """``epsilon`` as a ``Fraction``; refused unless positive."""
    epsilon = parse_rational(epsilon)
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def resolve_long_axis(params: InstanceParams, long_axis: int | None) -> int:
    """``long_axis`` checked against ``params``; ``default_long_axis`` if None."""
    if long_axis is None:
        return default_long_axis(params)
    if not 0 <= long_axis < params.d:
        raise ValidationError(f"long axis {long_axis} outside 0..{params.d - 1}")
    return long_axis


class LosInstance:
    """Immutable weighted vertex set embedded in a grid box, built from a
    coords -> weight mapping.  Each cell is checked once: its coordinates by
    ``int`` and ``MAX_DIGITS`` (the refusals print them), its weight by
    ``as_weight`` and for sign, then its place in the box, then duplicates."""

    __slots__ = ("params", "_cells")

    def __init__(
        self, params: InstanceParams, vertices: Mapping[Coords, Rational] | None = None
    ) -> None:
        cells: dict[Coords, Rational] = {}
        for coords, w in (vertices or {}).items():
            coords = tuple(map(int, coords))
            check_digits(max(map(abs, coords), default=0), "a coordinate")
            w = as_weight(w)
            if w.numerator <= 0:
                raise ValidationError(
                    f"vertex weight must be positive, got {w} at {coords}"
                )
            if not params.in_box(coords):
                raise ValidationError(
                    f"coordinates {coords} outside box extents={params.extents}"
                )
            if coords in cells:
                raise ValidationError(f"duplicate vertex at {coords}")
            cells[coords] = w
        self.params = params
        object.__setattr__(self, "_cells", cells)

    @classmethod
    def _trusted(
        cls, params: InstanceParams, cells: dict[Coords, Rational]
    ) -> "LosInstance":
        """Wrap cells taken from a validated instance, without checking them.

        Only for slices of an existing instance: every key must be an int
        tuple inside ``params``' box, every value a positive ``int`` or
        ``Fraction``.
        """
        inst = cls.__new__(cls)
        inst.params = params
        object.__setattr__(inst, "_cells", cells)
        return inst

    # -- mapping-ish access -------------------------------------------------

    @property
    def vertices(self) -> Mapping[Coords, Rational]:
        """Read-only coords -> weight view."""
        return MappingProxyType(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, coords: Coords) -> bool:
        return tuple(coords) in self._cells

    def weight_of(self, coords: Coords) -> Rational:
        try:
            return self._cells[tuple(coords)]
        except KeyError:
            raise UnknownCoordinateError(
                f"no vertex at {tuple(coords)}"
            ) from None

    def coords_sorted(self) -> list[Coords]:
        return sorted(self._cells)

    def total_weight(self) -> Rational:
        return sum(self._cells.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LosInstance):
            return NotImplemented
        return self.params == other.params and self._cells == other._cells

    def __repr__(self) -> str:
        return (
            f"LosInstance(d={self.params.d}, extents={self.params.extents}, "
            f"omega={self.params.omega}, vertices={len(self)})"
        )


class Solution(Record):
    """Algorithm-tagged vertex set with its exact total weight.

    ``meta`` carries free-form diagnostics (shift chosen, phase counts, ...)
    restricted to JSON-friendly primitives so reports serialize canonically;
    it defaults to a fresh empty dict.
    """

    algorithm: str
    vertices: tuple[Coords, ...]
    total_weight: Rational
    meta: dict[str, object]

    def __init__(
        self,
        algorithm: str,
        vertices: tuple[Coords, ...],
        total_weight: Rational,
        meta: dict[str, object] | None = None,
    ) -> None:
        meta = {} if meta is None else meta
        super().__init__(algorithm, vertices, total_weight, meta)


# -- adjacency predicates ---------------------------------------------------


def are_adjacent(p: Coords, q: Coords, omega: int) -> bool:
    """Shared line of sight (exactly one differing coordinate) with the gap
    there strictly below omega.

    A gap of exactly omega is NOT an edge; strictness matters everywhere
    downstream (window feasibility, strip separation, phase separation).
    """
    if omega < 2:
        raise ValidationError(f"omega must be >= 2, got {omega}")
    if len(p) != len(q):
        raise ValidationError(
            f"dimension mismatch: {len(p)}-tuple vs {len(q)}-tuple"
        )
    gap = 0
    for a, b in zip(p, q):
        if a != b:
            if gap:
                return False
            gap = abs(a - b)
    return 0 < gap < omega


def adjacent_pairs(known: list[Coords], omega: int) -> list[tuple[int, int]]:
    """Index pairs i < j of adjacent coordinates, ascending.

    Per axis, the coordinates are grouped by their other positions (one
    line of sight per group) and sorted along the axis; each one is paired
    forward only while the gap stays below omega.  ``known`` holds distinct
    coordinates of one dimension, so every adjacent pair is found on exactly
    one axis.
    """
    pairs: list[tuple[int, int]] = []
    dim = len(known[0]) if known else 0
    for axis in range(dim):
        lines: dict[Coords, list[tuple[int, int]]] = {}
        for i, c in enumerate(known):
            lines.setdefault(c[:axis] + c[axis + 1 :], []).append((c[axis], i))
        for line in lines.values():
            if len(line) < 2:
                continue
            line.sort()
            for a, (x, i) in enumerate(line):
                for b in range(a + 1, len(line)):
                    y, j = line[b]
                    if y - x >= omega:
                        break
                    pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def is_independent(inst: LosInstance, coords: Iterable[Coords]) -> bool:
    """Pairwise non-adjacency of the given vertices of ``inst``; a repeated
    coordinate is one vertex."""
    pts = list(dict.fromkeys(tuple(c) for c in coords))
    for c in pts:
        if c not in inst:
            raise UnknownCoordinateError(f"no vertex at {c}")
    return not adjacent_pairs(pts, inst.params.omega)


def set_weight(inst: LosInstance, coords: Iterable[Coords]) -> Rational:
    """Exact total weight of a duplicate-free set of vertices of ``inst``."""
    seen: set[Coords] = set()
    total = 0
    for c in coords:
        c = tuple(c)
        if c in seen:
            raise ValidationError(f"duplicate coordinate {c}")
        seen.add(c)
        total += inst.weight_of(c)
    return total


# -- random generation ------------------------------------------------------


def _parse_weight_dist(spec: str) -> tuple[str, tuple]:
    parts = spec.split(":")
    if parts[0] == "const" and len(parts) == 2:
        c = parse_rational(parts[1], "weight")
        if c <= 0:
            raise ValidationError(f"const weight must be positive: {spec}")
        return "const", (c.numerator if c.denominator == 1 else c,)
    if parts[0] == "uniform" and len(parts) == 3:
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"uniform bounds must be integers: {spec}") from exc
        if a < 1 or a > b:
            raise ValidationError(f"need 1 <= a <= b in uniform:a:b, got {spec}")
        return "uniform", (a, b)
    raise ValidationError(
        f"weight_dist must be 'const:c' or 'uniform:a:b', got {spec!r}"
    )


class GenConfig(FrozenRecord):
    """Seeded random-instance recipe; equal configs yield equal instances."""

    params: InstanceParams
    density: Fraction
    weight_dist: str
    seed: int

    def __init__(
        self,
        params: InstanceParams,
        density,
        weight_dist: str = "const:1",
        seed: int = 0,
    ) -> None:
        density = parse_rational(density)
        if not 0 <= density <= 1:
            raise ValidationError(f"density must be in [0,1], got {density}")
        _parse_weight_dist(weight_dist)  # validates
        super().__init__(params, density, weight_dist, int(seed))


def generate(cfg: GenConfig) -> LosInstance:
    """Generate an instance from a config: a pure, platform-stable function.

    Cells are visited in lexicographic coordinate order; each draws one
    64-bit splitmix64 value and hosts a vertex when the draw falls below
    the density threshold.  Occupied cells then draw their weight.
    """
    from .rng import SplitMix64

    rng = SplitMix64(cfg.seed)
    threshold = math.ceil(cfg.density * (1 << 64))
    kind, args = _parse_weight_dist(cfg.weight_dist)
    cells: dict[Coords, Rational] = {}
    ranges = [range(1, e + 1) for e in cfg.params.extents]
    for coords in itertools.product(*ranges):
        if rng.next64() < threshold:
            if kind == "const":
                w = args[0]
            else:
                a, b = args
                w = a + rng.below(b - a + 1)
            cells[coords] = w
    return LosInstance(cfg.params, cells)
