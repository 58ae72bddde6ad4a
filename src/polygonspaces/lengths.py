"""Exact side-length arithmetic: length vectors, subset sums, genericity.

Subsets of {1, ..., n} are plain ints: bit j-1 set <=> index j in the
subset.  Every length vector is stored in its coprime positive integer
normal form, so all subset classification is scale invariant and exact;
no floating point is used anywhere in this module.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    EntryNotPositive,
    MalformedNumber,
    NotGeneric,
    NotOrdered,
    OutOfRange,
    TooFewEntries,
    UnsupportedDimension,
)

#: guard on 2^(n-1) subset scans
MAX_ENUM_N = 24


def check_enumeration_width(n: int) -> None:
    """Refuse scans for fewer than 3 sides or beyond the cap, before any
    allocation."""
    if n < 3:
        raise TooFewEntries(f"need at least 3 sides, got n={n}")
    if n > MAX_ENUM_N:
        raise OutOfRange(f"n={n} exceeds the subset-enumeration cap {MAX_ENUM_N}")


# ---------------------------------------------------------------------------
# subset masks


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"subset indices are 1-based, got {i}")
        mask |= 1 << (i - 1)
    return mask


def indices_of_mask(mask: int) -> tuple[int, ...]:
    if mask < 0:  # a negative mask shifts right forever
        raise ValueError(f"masks are non-negative, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def complement_mask(mask: int, n: int) -> int:
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask} outside subsets of 1..{n}")
    return ~mask & ((1 << n) - 1)


def _doubling(steps: Sequence[int], dtype) -> np.ndarray:
    """table[mask] = sum of the steps whose bits are set in mask."""
    table = np.zeros(1 << len(steps), dtype=dtype)
    for i, e in enumerate(steps):
        table[1 << i : 2 << i] = table[: 1 << i] + e
    return table


def subset_sums(entries: Sequence[int], dtype) -> np.ndarray:
    """Sums over all subsets of ``entries`` in ``dtype``, indexed by bitmask.

    Cost and memory are O(2^len(entries)); callers guard the width and
    choose a dtype that holds what they build on the sums.
    """
    return _doubling(entries, dtype)


@functools.lru_cache(maxsize=1)  # batch commands scan one width over and over
def subset_sizes(width: int) -> np.ndarray:
    """Read-only popcount table: entry ``mask`` is the size of the subset."""
    table = _doubling((1,) * width, np.int8)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=1)
def subset_rank(width: int) -> np.ndarray:
    """Read-only int32 table: entry ``mask`` is the subset's position in
    index-tuple order, the order of ``indices_of_mask`` tuples, so that
    (1, 2) < (1, 2, 5) < (1, 3) < (2,).

    That order is a preorder walk: S = {s_1 < ... < s_k} comes after its
    k prefixes and after every subtree of a lower branch.  With R the mask
    read backwards (index i weighs 2^(width-i)) the walk gives
    rank = k + 2^width - R - (R & -R) for S nonempty, and rank 0 for the
    empty set.  ``first_in_index_order`` walks the same preorder.
    """
    backwards = _doubling([1 << (width - 1 - i) for i in range(width)], np.int32)
    table = (1 << width) - backwards - (backwards & -backwards)
    table += subset_sizes(width)  # into int32: int8 plus 2^width would overflow
    table[0] = 0
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=1)
def _strides(width: int) -> tuple[int, ...]:
    """T_j for j < width: the bitmap of the odd multiples of 2^j below 2^width."""
    strides, evens = [], 1  # evens: the multiples of 2^(j+1)
    for j in reversed(range(width)):
        strides.append(evens << (1 << j))
        evens |= evens << (1 << j)
    return tuple(reversed(strides))


def first_in_index_order(bitmap: int, width: int) -> int:
    """The set bit of a nonzero bitmap over a width-element set's masks whose
    mask comes first in ``subset_rank``'s preorder, by a trie descent: the
    subtree of prefix + 2^j holds prefix + the odd multiples of 2^j, and j
    only grows, so it makes at most width ANDs with T_j and no rank table."""
    if bitmap <= 0 or bitmap >> (1 << width):
        raise ValueError(f"not a nonzero bitmap of {1 << width} masks")
    strides = _strides(width)
    prefix = j = 0
    while not bitmap & 1:  # bit k of bitmap is the mask prefix + k
        while not bitmap & strides[j]:
            j += 1
        bitmap >>= 1 << j
        prefix += 1 << j
        j += 1
    return prefix


# ---------------------------------------------------------------------------
# length vectors


def exact_str(value: int) -> str:
    """Decimal digits of an exact integer, or OutOfRange where Python's
    int-to-str digit limit refuses the conversion."""
    try:
        return str(value)
    except ValueError as exc:
        raise OutOfRange(
            f"an exact integer of {value.bit_length()} bits exceeds "
            "Python's int-to-str digit limit"
        ) from exc


def _fmt_entries(entries: Sequence[int]) -> str:
    return "(" + ", ".join(map(exact_str, entries)) + ")"


#: longest vector text an error message repeats
MAX_SHOWN_VECTOR = 200
#: entries past this many bits go by their bit length; their decimal form
#: (at most 181 digits) stays below any int-to-str limit Python allows
_SHOWN_BITS = 600


def shown_vector(entries: Sequence[int]) -> str:
    """The vector as an error message names it: in full when that takes at
    most ``MAX_SHOWN_VECTOR`` characters, else its first entries and its
    length.  Never raises, unlike ``str`` of a ``LengthVector``."""
    # an entry takes at least three characters with its separator
    parts = [
        str(e) if e.bit_length() <= _SHOWN_BITS else f"<{e.bit_length()}-bit integer>"
        for e in itertools.islice(entries, MAX_SHOWN_VECTOR // 3 + 1)
    ]
    text = "(" + ", ".join(parts) + ")"
    if len(parts) == len(entries) and len(text) <= MAX_SHOWN_VECTOR:
        return text
    parts.append(f"... {len(entries)} entries")
    while len(text := "(" + ", ".join(parts) + ")") > MAX_SHOWN_VECTOR:
        del parts[-2]
    return text


class Kind(Enum):
    SHORT = "short"
    MEDIAN = "median"
    LONG = "long"


@dataclass(frozen=True)
class SubsetClass:
    kind: Kind
    excess: int


@dataclass(frozen=True)
class LengthVector:
    """Positive side lengths in coprime integer normal form.

    Entries must be integers; rationals go through ``from_rationals``.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            entries = tuple(operator.index(e) for e in self.entries)
        except TypeError as exc:
            raise MalformedNumber(
                f"side lengths must be integers, see from_rationals: {exc}"
            ) from exc
        if len(entries) < 3:
            raise TooFewEntries(f"need at least 3 sides, got {len(entries)}")
        if any(e <= 0 for e in entries):
            raise EntryNotPositive(f"side lengths must be positive: {shown_vector(entries)}")
        g = math.gcd(*entries)
        if g != 1:
            entries = tuple(e // g for e in entries)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rationals(cls, values: Iterable[Fraction | int | str]) -> "LengthVector":
        """Build from exact rationals by clearing denominators; strings are
        read as tokens of ``parse_length_vector``, and the constructor
        checks the count and the signs."""
        values = list(values)
        if any(isinstance(v, float) for v in values):
            # a binary float is already corrupted; demand "0.15" instead
            raise MalformedNumber("floats are not exact; pass strings or Fractions")
        try:
            fracs = [_parse_token(v) if isinstance(v, str) else Fraction(v) for v in values]
        except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
            # OverflowError: an infinite Decimal; TypeError: not a number at all
            raise MalformedNumber(f"not a rational: {exc}") from exc
        denom = math.lcm(*(f.denominator for f in fracs))
        return cls(tuple(f.numerator * (denom // f.denominator) for f in fracs))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)

    @property
    def is_ordered(self) -> bool:
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))

    def ordered(self) -> "LengthVector":
        """Copy with the entries in nondecreasing order."""
        return LengthVector(tuple(sorted(self.entries)))

    def __str__(self) -> str:
        return _fmt_entries(self.entries)


_TOKEN_SPLIT = re.compile(r"[,\s]+")
#: a trailing decimal exponent
_EXPONENT = re.compile(r"e([-+]?\d+(_\d+)*)\Z", re.IGNORECASE)
#: largest |exponent| of a decimal token; ``Fraction`` builds 10**|exponent|
#: exactly, in time superlinear in the exponent
MAX_DECIMAL_EXPONENT = 10**5
_DIGITS = re.compile(r"\d+")


def _shown(tok: str) -> str:
    """The token as a message repeats it: at most 40 characters, then its length."""
    return repr(tok) if len(tok) <= 40 else f"{tok[:40]!r}... ({len(tok)} characters)"


def _past_digit_limit(tok: str, parse: Callable[[str], object]) -> OutOfRange | None:
    """The limit a token that ``parse`` refused ran into, None if it is
    malformed: a token that parses with each digit run cut to one digit of
    the same zeroness failed only on Python's int-from-str digit limit."""
    try:
        parse(_DIGITS.sub(lambda run: "1" if run[0].strip("0") else "0", tok))
    except (ValueError, ZeroDivisionError):
        return None
    digits = sum(map(len, _DIGITS.findall(tok)))
    return OutOfRange(f"a token of {digits} digits exceeds Python's int-from-str digit limit")


def _parse_token(tok: str) -> Fraction:
    """One exact rational from a token such as "3/20", "0.15" or "2e3"."""
    exp = _EXPONENT.search(tok)
    try:
        if exp and abs(int(exp[1])) > MAX_DECIMAL_EXPONENT:
            Fraction(tok[: exp.start(1)] + "0")  # a malformed token reads as malformed
            raise OutOfRange(f"|exponent| of {_shown(tok)} exceeds {MAX_DECIMAL_EXPONENT}")
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        failure = exc
    raise _past_digit_limit(tok, Fraction) or MalformedNumber(
        f"cannot parse {_shown(tok)} as a rational"
    ) from failure


def parse_length_vector(text: str) -> LengthVector:
    """Parse comma/whitespace separated rationals ("3/20", "0.15", "2").

    Decimal strings are converted exactly, never through binary floats.
    """
    tokens = [t for t in _TOKEN_SPLIT.split(text.strip()) if t]
    if not tokens:
        raise TooFewEntries("no entries found")
    return LengthVector.from_rationals(tokens)


# ---------------------------------------------------------------------------
# subset classification


def excess(lv: LengthVector, mask: int) -> int:
    """Subset sum minus complement sum, exactly."""
    if mask < 0 or mask >> lv.n:
        raise ValueError(f"mask {mask} outside subsets of 1..{lv.n}")
    s = sum(e for i, e in enumerate(lv.entries) if mask >> i & 1)
    return 2 * s - lv.total


def classify_subset(lv: LengthVector, mask: int) -> SubsetClass:
    e = excess(lv, mask)
    if e < 0:
        return SubsetClass(Kind.SHORT, e)
    if e > 0:
        return SubsetClass(Kind.LONG, e)
    return SubsetClass(Kind.MEDIAN, e)


def require_ordered(lv: LengthVector) -> LengthVector:
    """``lv`` itself; raises NotOrdered unless its entries are nondecreasing."""
    if not lv.is_ordered:
        raise NotOrdered(f"{shown_vector(lv.entries)} is not nondecreasing")
    return lv


def require_dimension(d: int) -> None:
    """Raise UnsupportedDimension unless d >= 3: d = 2 is a different theory."""
    if d < 3:
        raise UnsupportedDimension(f"the classification needs d >= 3, got {d}")


def top_excess(lv: LengthVector) -> np.ndarray:
    """Excess 2(l_J + l_n) - L of J union {n} for every J inside {1..n-1}.

    Indexed by the mask of J.  The one subset scan everything else is
    built on: int64 when 2L < 2^63, so that no intermediate can wrap, and
    exact Python ints (dtype ``object``) otherwise.
    """
    check_enumeration_width(lv.n)
    total = lv.total
    exc = subset_sums(lv.entries[:-1], np.int64 if 2 * total < 2**63 else object)
    exc += lv.entries[-1]  # in place: one 2^(n-1) array, not three
    exc *= 2
    exc -= total
    return exc


def reject_median(lv: LengthVector, exc: np.ndarray) -> None:
    """Raise NotGeneric naming the first median subset containing n in
    index-tuple order (none is nested in another, so n keeps the order)."""
    medians = np.flatnonzero(exc == 0)
    if medians.size:
        first = medians[subset_rank(lv.n - 1)[medians].argmin()]
        mask = int(first) | 1 << (lv.n - 1)
        raise NotGeneric(
            f"{shown_vector(lv.entries)} has the median subset {indices_of_mask(mask)}"
        )


def is_generic(lv: LengthVector) -> bool:
    """True when no subset sums to exactly half the perimeter.

    Only the 2^(n-1) subsets containing n are scanned; a subset is median
    iff its complement is.
    """
    if lv.total % 2:  # an odd integer total cannot split in half
        return True
    return bool(np.all(top_excess(lv) != 0))
