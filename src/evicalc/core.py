"""Frames, focal sets, and belief structures with exact rational masses.

A :class:`Frame` is an ordered finite universe of atoms.  A :class:`FocalSet`
is a subset of one frame, stored as a bitmask over atom indices.  A
:class:`BeliefStructure` maps focal sets to strictly positive rational masses
summing to exactly 1, stored as integer numerators by bitmask over one
common denominator (built and rescaled only here) and read out as exact
:class:`fractions.Fraction`; every invariant is checked with equality.
Values on different frames never mix, and the one check that refuses them,
for a set against a frame or for a pair of structures, lives here too.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import add

from .errors import (
    EmptyFocalInNormal,
    ExponentTooLarge,
    FrameMismatch,
    FrameTooLarge,
    MassSumNotOne,
    NegativeMass,
    SubnormalInput,
    UnknownAtom,
    _text,
)

MAX_FRAME_ATOMS = 24
MAX_TABLE_ATOMS = 20
MAX_EXPONENT = 4300  # the interpreter's default int-string digit limit

ZERO = Fraction(0)
ONE = Fraction(1)

MassLike = Fraction | int | str | float


def _parse_mass(value: MassLike) -> Fraction:
    """:func:`to_mass` without its sign test: the one parse of masses,
    sweep grid values and JSON number literals."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"a bool ({value}) is not a mass")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"mass {value!r} is not a finite number")
        return Fraction(repr(value))
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {type(value).__name__} as a mass")
    if not value.isascii():  # Fraction would read "١/٢" as 1/2
        raise ValueError(f"cannot parse mass {_text(value)}: not ASCII")
    # Fraction expands 10**exponent unchecked: minutes for "1e-100000000"
    text = value.strip()
    exp = text.lower().partition("e")[2].strip().lstrip("+-")
    exp = exp.replace("_", "").lstrip("0")
    if exp.isdecimal() and (len(exp) > 4 or int(exp) > MAX_EXPONENT):
        raise ExponentTooLarge(f"mass {_text(text)} has an exponent beyond "
                               f"{MAX_EXPONENT} in magnitude")
    try:  # Fraction reads "1_0" from Python 3.11 and "1 / 2" from 3.12
        if "_" in text or len(text.split()) > 1:
            raise ValueError("outside the grammar of Python 3.10")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse mass {_text(value)}") from exc


def to_mass(value: MassLike) -> Fraction:
    """Convert a mass-like value to an exact nonnegative Fraction.

    Strings may be fractions ("3/5") or decimal literals ("0.99", parsed
    exactly to 99/100; an exponent beyond MAX_EXPONENT in magnitude is
    refused).  Floats go through their shortest decimal repr, so a literal
    like 0.99 also becomes exactly 99/100; NaN and the infinities are
    rejected, and so is ``bool``, although it is an ``int``.
    """
    mass = _parse_mass(value)
    if mass < 0:
        raise NegativeMass(f"mass {_num_text(mass)} is negative")
    return mass


def _num_text(value: Fraction) -> str:
    """``str(value)`` for an error message, with each part past 199 bits
    written "<d digits>": ``str`` refuses one past the digit limit."""
    def part(n: int) -> str:
        if n.bit_length() < 200:
            return str(n)
        digits = int(n.bit_length() * 0.30102999566398120)  # log10(2)
        return f"{'-' * (n < 0)}<{digits + (abs(n) >= 10**digits)} digits>"

    if value.denominator == 1:
        return part(value.numerator)
    return f"{part(value.numerator)}/{part(value.denominator)}"


def _check_printable(value: Fraction) -> None:
    """Refuse a number with a part longer than ``str`` may print (the
    interpreter's int digit limit, which Python 3.10 does not have)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    longest = max(abs(value.numerator), value.denominator)
    if limit and longest.bit_length() > 3 * limit and longest >= 10**limit:
        raise ValueError(f"mass {_num_text(value)} has more than {limit} "
                         f"digits, too many to print")


def mass_str(value: Fraction) -> str:
    """Canonical reduced-fraction rendering ("3/5", "1", "0"); a value too
    long to print raises ValueError, through :func:`_check_printable`."""
    _check_printable(value)
    return str(value)


def decimal6(value: Fraction) -> str:
    """Render a nonnegative rational as a decimal rounded to 6 places."""
    scaled = round(value * 10**6)
    whole, frac = divmod(scaled, 10**6)
    return f"{whole}.{frac:06d}"


class _Value:
    """Base of the frozen value types, built without ``dataclasses``.

    A subclass lists its fields in ``_fields``, in declaration order, and
    the defaults of the last ones in ``_defaults``.  The base gives what
    ``@dataclass(frozen=True)`` gives: a constructor that binds the fields
    by position or keyword, ``==`` within one class, ``hash`` of the field
    tuple, a ``Name(field=value, ...)`` repr, no assignment or deletion,
    and pickle and copy through ``__init__``, with no ``exec``.

    ``Frame``, ``FocalSet``, ``Absolute``, ``Typical``, ``KnowledgeBase``
    and ``BeliefStructure`` check their input on the fold's hot path, so
    each keeps its own ``__init__``, faster there than the generic one.
    ``CombinationRule`` keeps one that binds through this one, then checks
    the rule, which arrives from outside: a CLI name, JSON or code.  The
    other types only hold fields.  Also overridden: some reprs,
    ``Frame.__eq__`` (identity first), ``BeliefStructure.__reduce__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields")
        values = dict(zip(fields[::-1], self._defaults[::-1]))
        values.update(zip(fields, args))
        for key in kwargs:
            if key not in fields or fields.index(key) < len(args):
                raise TypeError(f"{name} got field {key!r} twice"
                                if key in fields else
                                f"{name} has no field {key!r}")
        values.update(kwargs)
        for field in fields:
            if field not in values:
                raise TypeError(f"{name} is missing field {field!r}")
            object.__setattr__(self, field, values[field])

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


class Frame(_Value):
    """An ordered universe of distinct printable atom names.

    The atom order is canonical: atom i owns bit i of every focal-set
    bitmask, which makes serialization and display byte-stable.
    """

    __slots__ = ("atoms", "_index")
    _fields = ("atoms",)

    def __init__(self, atoms: Iterable[str]):
        names = tuple(atoms)
        if not names:
            raise ValueError("frame needs at least one atom")
        if len(names) > MAX_FRAME_ATOMS:
            raise FrameTooLarge(
                f"frame has {len(names)} atoms; the cap is {MAX_FRAME_ATOMS}")
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise ValueError("atom names must be non-empty strings")
            if not name.isprintable():
                raise ValueError(f"atom name {_text(name)} is not printable")
            if name in index:
                raise ValueError(f"duplicate atom {_text(name)}")
            index[name] = i
        object.__setattr__(self, "atoms", names)
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other: object) -> bool:  # identity first: the hot path
        return self is other or (isinstance(other, Frame)
                                 and self.atoms == other.atoms)

    __hash__ = _Value.__hash__

    def __repr__(self) -> str:
        return f"Frame({list(self.atoms)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtom(name) from None

    def subset(self, names: Iterable[str]) -> "FocalSet":
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return FocalSet(self, bits)

    def from_bits(self, bits: int) -> "FocalSet":
        return FocalSet(self, bits)

    @property
    def full(self) -> "FocalSet":
        return FocalSet(self, (1 << len(self.atoms)) - 1)

    @property
    def empty(self) -> "FocalSet":
        return FocalSet(self, 0)

    def all_subsets(self) -> Iterator["FocalSet"]:
        """All 2**n subsets in bitmask order (n capped for table work)."""
        for bits in range(1 << self._table_atoms("subset enumeration")):
            yield FocalSet(self, bits)

    def _table_atoms(self, work: str) -> int:
        """n, if ``work`` over the 2**n subsets is within MAX_TABLE_ATOMS."""
        if len(self.atoms) > MAX_TABLE_ATOMS:
            raise FrameTooLarge(f"{work} needs at most {MAX_TABLE_ATOMS} "
                                f"atoms, got {len(self.atoms)}")
        return len(self.atoms)


class FocalSet(_Value):
    """A subset of one frame, as a bitmask.  Immutable and hashable."""

    __slots__ = _fields = ("frame", "bits")

    def __init__(self, frame: Frame, bits: int):
        if bits < 0 or bits >> len(frame):
            raise ValueError(f"bitmask {bits:#x} out of range for {frame!r}")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "bits", bits)

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.frame.atoms)
                     if self.bits >> i & 1)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __contains__(self, name: str) -> bool:
        return bool(self.bits >> self.frame.index(name) & 1)

    def __and__(self, other: "FocalSet") -> "FocalSet":
        _check_frame(self.frame, other)
        return FocalSet(self.frame, self.bits & other.bits)

    def __or__(self, other: "FocalSet") -> "FocalSet":
        _check_frame(self.frame, other)
        return FocalSet(self.frame, self.bits | other.bits)

    def __invert__(self) -> "FocalSet":
        return FocalSet(self.frame, self.bits ^ self.frame.full.bits)

    def issubset(self, other: "FocalSet") -> bool:
        _check_frame(self.frame, other)
        return self.bits & other.bits == self.bits

    def __le__(self, other: "FocalSet") -> bool:
        return self.issubset(other)

    def intersects(self, other: "FocalSet") -> bool:
        _check_frame(self.frame, other)
        return bool(self.bits & other.bits)

    def label(self) -> str:
        """Human-readable rendering, e.g. "{a, b}"; "{}" for the empty set."""
        return "{" + ", ".join(self.atoms) + "}"

    def __repr__(self) -> str:
        return f"FocalSet({self.label()})"


def _check_frame(frame: Frame, value, kind: type = FocalSet) -> None:
    """The frame rule, which every FrameMismatch comes from: ``value`` must
    be a ``kind`` (a FocalSet, or a BeliefStructure to pair with one on
    ``frame``) bound to ``frame``."""
    if not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, "
                        f"got {type(value).__name__}")
    if value.frame != frame:
        raise FrameMismatch(f"frames differ: {_frame_text(frame)} vs "
                            f"{_frame_text(value.frame)}")


def _frame_text(frame: Frame) -> str:
    """``repr(frame)`` for an error message, or "<frame of n atoms, c
    characters>" for one past 99 characters, as ``errors._text`` names a
    long text by its length."""
    text = repr(frame)
    if len(text) > 99:
        return f"<frame of {len(frame)} atoms, {len(text)} characters>"
    return text


_ZETA_PAIRS: dict[int, list[tuple[int, int]]] = {}
"""Per n <= 8, every (mask, mask without bit i) pair with bit i set, bit
by bit: :func:`_zeta`'s additions, listed on first use."""


def _zeta(table: list[int], n: int) -> None:
    """Subset-sum (zeta) transform over n-bit masks, in place: afterwards
    ``table[S]`` is the sum of the input over all subsets of S.

    Bit by bit, every mask with the bit set adds in its partner without it.
    Up to 8 bits that is one loop over the listed pairs (:data:`_ZETA_PAIRS`,
    n * 2**(n - 1) of them).  Past that the masks come in whole list slices,
    added with ``operator.add``: runs of ``2**i`` consecutive masks for the
    high bits, strided slices for the low ones, whichever needs fewer
    slices.
    """
    if n <= 8:
        pairs = _ZETA_PAIRS.get(n)
        if pairs is None:
            pairs = _ZETA_PAIRS[n] = [
                (mask, mask ^ 1 << i) for i in range(n)
                for mask in range(1 << n) if mask >> i & 1]
        for mask, partner in pairs:
            table[mask] += table[partner]
        return
    size = 1 << n
    for i in range(n):
        half = 1 << i
        step = half << 1
        if half * step <= size:  # few strided slices, one per offset
            for j in range(half, step):
                table[j::step] = map(add, table[j::step],
                                     table[j - half::step])
        else:  # few runs, one per block of 2 * half masks
            for top in range(half, size, step):
                table[top:top + half] = map(add, table[top:top + half],
                                            table[top - half:top])


class ProbabilityInterval(_Value):
    """The exact [belief, plausibility] bounds on the probability of a set."""

    _fields = ("lower", "upper")

    def __iter__(self) -> Iterator[Fraction]:
        return iter((self.lower, self.upper))

    def __repr__(self) -> str:
        return (f"ProbabilityInterval({_num_text(self.lower)}, "
                f"{_num_text(self.upper)})")


class BeliefStructure(_Value):
    """A map from distinct focal sets to positive masses summing to 1.

    Duplicate sets in the input are merged by mass addition and zero-mass
    entries are dropped.  The empty set may carry mass only when
    ``subnormal=True`` (the unnormalized combination rule produces such
    structures); every other constructor path rejects it.

    Masses are stored as ``_nums``, positive numerators by focal bitmask in
    bitmask order, over ``_den``, the lcm of the reduced denominators: a
    canonical form, so ``==`` compares the fields.  Instances are immutable;
    all queries are pure functions.
    """

    __slots__ = _fields = ("frame", "_nums", "_den")

    def __init__(self, frame: Frame,
                 assignments: Iterable[tuple[FocalSet, MassLike]] |
                 Mapping[FocalSet, MassLike],
                 *, subnormal: bool = False):
        if isinstance(assignments, Mapping):
            assignments = assignments.items()
        masses: list[tuple[int, Fraction]] = []
        for focal, raw in assignments:
            _check_frame(frame, focal)
            mass = to_mass(raw)
            if mass:
                masses.append((focal.bits, mass))
        den = lcm(*(m.denominator for _, m in masses))
        nums: dict[int, int] = {}
        for bits, m in masses:
            nums[bits] = nums.get(bits, 0) + m.numerator * den // m.denominator
        self._set(frame, nums, den, subnormal)

    @classmethod
    def _from_form(cls, frame: Frame, nums: dict[int, int], den: int,
                   subnormal: bool = False) -> "BeliefStructure":
        """A structure from bitmask -> numerator over den, such as a
        combination result: the same checks, in integers, with no Fraction
        or FocalSet per focal element."""
        return cls.__new__(cls)._set(frame, nums, den, subnormal)

    def _set(self, frame: Frame, nums: dict[int, int], den: int,
             subnormal: bool) -> "BeliefStructure":
        """Check an integer form, reduce it by its gcd and store it."""
        if nums and (min(nums.values()) <= 0
                     or not 0 <= min(nums) <= max(nums) < 1 << len(frame)):
            raise ValueError("a numerator or bitmask is out of range")
        if 0 in nums and not subnormal:
            raise EmptyFocalInNormal(
                "the empty set may carry mass only in a subnormal structure")
        total = sum(nums.values())
        if total != den:
            raise MassSumNotOne(
                f"masses sum to {_num_text(Fraction(total, den))}, not 1")
        g = gcd(den, *nums.values())
        if g > 1:
            nums, den = {bits: w // g for bits, w in nums.items()}, den // g
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_nums", {b: nums[b] for b in sorted(nums)})
        object.__setattr__(self, "_den", den)
        return self

    def __reduce__(self):  # rebuilt from the integer form, with its checks
        return (BeliefStructure._from_form,
                (self.frame, self._nums, self._den, self.is_subnormal))

    @classmethod
    def vacuous(cls, frame: Frame) -> "BeliefStructure":
        """Total ignorance: all mass on the full set, {B: 0, X: 1}."""
        return cls._from_form(frame, *_typical_form(0, frame.full.bits, ZERO))

    @property
    def is_subnormal(self) -> bool:
        return 0 in self._nums

    def mass(self, focal: FocalSet) -> Fraction:
        _check_frame(self.frame, focal)
        return Fraction(self._nums.get(focal.bits, 0), self._den)

    def items(self) -> Iterator[tuple[FocalSet, Fraction]]:
        """Focal elements with their masses, in bitmask order."""
        return ((FocalSet(self.frame, bits), m)
                for bits, m in self.bit_items())

    def bit_items(self) -> Iterator[tuple[int, Fraction]]:
        """Focal bitmasks with their masses, in bitmask order."""
        den = self._den
        return ((bits, Fraction(w, den)) for bits, w in self._nums.items())

    def focal_sets(self) -> tuple[FocalSet, ...]:
        return tuple(FocalSet(self.frame, bits) for bits in self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    __hash__ = None  # mutable-looking container API; not hashable

    def __repr__(self) -> str:
        body = ", ".join(f"{f.label()}: {_num_text(m)}"
                         for f, m in self.items())
        return f"BeliefStructure({{{body}}})"

    def bel(self, focal: FocalSet) -> Fraction:
        """Total mass of non-empty focal elements contained in the set.

        Empty-set mass is never counted, so belief stays a lower bound and
        bel <= pl holds focal-wise even for subnormal structures.
        """
        _check_frame(self.frame, focal)
        bits = focal.bits
        return Fraction(sum(w for f, w in self._nums.items()
                            if f and f & bits == f), self._den)

    def pl(self, focal: FocalSet) -> Fraction:
        """Total mass of focal elements that intersect the set."""
        _check_frame(self.frame, focal)
        bits = focal.bits
        return Fraction(sum(w for f, w in self._nums.items() if f & bits),
                        self._den)

    def interval(self, focal: FocalSet) -> ProbabilityInterval:
        """The exact probability bounds [bel, pl] for the set, summed in
        one pass over the focal elements: each one that meets the set
        counts toward pl, and toward bel as well when it lies inside.  The
        empty set meets nothing, so its mass counts toward neither, as in
        :meth:`bel` and :meth:`pl`."""
        _check_frame(self.frame, focal)
        bits, bel, pl = focal.bits, 0, 0
        for f, w in self._nums.items():
            if f & bits:
                pl += w
                if f & bits == f:
                    bel += w
        return ProbabilityInterval(Fraction(bel, self._den),
                                   Fraction(pl, self._den))

    def uncertainty(self, focal: FocalSet) -> Fraction:
        """Width of the probability interval, pl - bel.

        Zero for every set exactly when the structure is Bayesian.  Undefined
        for subnormal structures.
        """
        if self.is_subnormal:
            raise SubnormalInput(
                "uncertainty range is undefined for subnormal structures")
        return self.pl(focal) - self.bel(focal)

    def is_bayesian(self) -> bool:
        """True iff every focal element is a singleton."""
        return all(bits.bit_count() == 1 for bits in self._nums)

    def bel_table(self) -> list[Fraction]:
        """Belief for every subset, indexed by bitmask.

        One integer subset-sum (zeta) transform, :func:`_zeta`, of the
        stored non-empty numerators, in O(n * 2**n) additions; each sum is
        then divided by the denominator.  Equals the per-subset bel() on
        every index.
        """
        n = self.frame._table_atoms("bel_table")
        table = [0] * (1 << n)
        for bits, w in self._nums.items():
            table[bits] = w
        table[0] = 0  # empty-set mass is never belief
        _zeta(table, n)
        value = {x: Fraction(x, self._den) for x in set(table)}
        return [value[x] for x in table]


def _typical_form(body: int, full: int, strength: Fraction):
    """(numerator by bitmask, denominator) for {B: s, X: 1 - s}, 0 <= s <= 1,
    with no zero mass, and one focal element when B = X (bitmasks)."""
    n, d = strength.numerator, strength.denominator
    if not n or body == full:
        return {full: d}, d
    return ({body: d} if n == d else {body: n, full: d - n}), d

