"""Chamber signatures: comparison, realization and the small-n census.

A signature records which subsets J of {1, ..., n-1} stay short after
adjoining the top index n.  For an ordered vector such a family is
downward closed both under inclusion and under sliding an index to a
smaller unused slot, and it determines the vector's chamber completely.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import exactlp
from .errors import (
    CertificateFailure,
    DimensionMismatch,
    MalformedCandidate,
    OutOfRange,
)
from .lengths import (
    LengthVector,
    check_enumeration_width,
    excess,
    first_in_index_order,
    indices_of_mask,
    reject_median,
    require_ordered,
    subset_rank,
    subset_sizes,
    top_excess,
)

CENSUS_MAX_N = 8


def _pack(member: np.ndarray) -> int:
    """The bitmap whose bit m is member[m]."""
    return int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little")


def _unpack(bits: int, width: int) -> np.ndarray:
    """Boolean array over the masks of a width-element set: True on the set
    bits of the bitmap."""
    size = 1 << width
    packed = np.frombuffer(bits.to_bytes(max(1, size // 8), "little"), np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").view(bool)


@dataclass(frozen=True)
class ChamberSignature:
    """Family of subsets J of {1..n-1} with J union {n} short, as one int
    bitmap: bit m is set when the mask m is a member, so the bitmap is a
    non-negative int below 2^(2^(n-1))."""

    n: int
    bitmap: int

    def __post_init__(self) -> None:
        check_enumeration_width(self.n)
        size = 1 << (self.n - 1)
        member = self.bitmap
        if type(member) is not int or member < 0 or member >> size:
            raise MalformedCandidate(f"not a packed bitmap of {size} masks")
        gaps = member ^ (member & _closed_below(member, self.n - 1))
        if gaps:
            m = (gaps & -gaps).bit_length() - 1
            raise MalformedCandidate(
                f"family not downward closed: {indices_of_mask(m)} is a "
                f"member but {indices_of_mask(_missing_predecessor(m, member))} "
                "is not"
            )

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> ChamberSignature:
        """The signature whose members are exactly ``masks``, each an integer
        that is not a bool."""
        check_enumeration_width(n)
        member = np.zeros(1 << (n - 1), dtype=bool)
        for m in masks:
            try:
                if isinstance(m, (bool, np.bool_)):  # numpy reads a bool as every index
                    raise TypeError
                m = operator.index(m)
            except TypeError:
                raise MalformedCandidate(f"mask {m!r} is not an integer") from None
            if not 0 <= m < member.size:
                raise MalformedCandidate(f"mask {m} is not a subset of 1..{n - 1}")
            member[m] = True
        return cls(n, _pack(member))

    def masks(self) -> list[int]:
        """The members, ascending."""
        return np.flatnonzero(_unpack(self.bitmap, self.n - 1)).tolist()

    @property
    def is_empty_space(self) -> bool:
        return not self.bitmap

    @cached_property
    def walls(self) -> tuple[int, ...]:
        """The masks whose flip keeps the family closed: the maximal members,
        then the minimal non-members, each ascending.

        Complementing a mask reverses the dominance order, so the maximal
        members are the complements of the minimal non-members of the dual
        family, the masks whose complements are not members: its bitmap is
        this one read backwards and inverted."""
        width = self.n - 1
        size = 1 << width
        dual = int(f"{self.bitmap:0{size}b}"[::-1], 2) ^ ((1 << size) - 1)
        found = []
        for member in (dual, self.bitmap):
            closed = _closed_below(member, width)
            found.append(np.flatnonzero(_unpack(closed ^ (closed & member), width)))
        return tuple((size - 1 - found[0][::-1]).tolist() + found[1].tolist())

    @cached_property
    def short_counts(self) -> tuple[int, ...]:
        """a_k for k = 0..n-1: the number of members with k elements."""
        sizes = subset_sizes(self.n - 1)[_unpack(self.bitmap, self.n - 1)]
        return tuple(np.bincount(sizes, minlength=self.n).tolist())

    def family_indices(self) -> list[list[int]]:
        """The members as index lists, in index-tuple order."""
        masks = np.flatnonzero(_unpack(self.bitmap, self.n - 1))
        ordered = masks[subset_rank(self.n - 1)[masks].argsort()]
        return [list(indices_of_mask(m)) for m in ordered.tolist()]


class ChamberComparison(NamedTuple):
    same: bool
    #: J with n adjoined, for the first J of {1..n-1} in index-tuple order
    #: such that J + {n} is short for exactly one side; None when they agree
    witness: int | None


def chamber_signature(lv: LengthVector) -> ChamberSignature:
    exc = top_excess(require_ordered(lv))
    reject_median(lv, exc)
    return ChamberSignature(lv.n, _pack(exc < 0))


def same_chamber_up_to_permutation(
    first: LengthVector, second: LengthVector
) -> ChamberComparison:
    """Sort both vectors, then compare chambers; sorting loses nothing.  The
    witness is the distinguishing J of {1..n-1} that comes first in
    index-tuple order, with n adjoined; it is ranked before n is adjoined,
    so it need not be the first distinguishing subset as printed."""
    if first.n != second.n:
        raise DimensionMismatch(f"n={first.n} vs n={second.n}")
    a = chamber_signature(first.ordered())
    b = chamber_signature(second.ordered())
    return _compare_families(a, b)


def _compare_families(a: ChamberSignature, b: ChamberSignature) -> ChamberComparison:
    """Compare the signatures of two n-gons; the witness is the mask J of
    the symmetric difference that comes first in index-tuple order, then
    n is adjoined."""
    if a == b:
        return ChamberComparison(True, None)
    first = first_in_index_order(a.bitmap ^ b.bitmap, a.n - 1)
    return ChamberComparison(False, first | 1 << (a.n - 1))


# ---------------------------------------------------------------------------
# realization and census


def _closed_below(member: int, width: int) -> int:
    """Bit m set when every immediate predecessor of m is a member, for a
    bitmap over the masks of a width-element set.

    The immediate predecessors delete one index, or slide one index down
    into a free slot just below it; they generate the dominance order.
    Both moves at index bit i land on m - 2^i: deleting bit i, or sliding
    bit i+1 down to a free bit i.  With i running down, here and above are
    the bitmaps of the masks holding index bit i and index bit i+1.  Each
    next here is the last XOR the last shifted down by 2^(i-1): that sets
    bit m exactly when adding 2^(i-1) to m carries into bit i, that is,
    when m holds bit i-1.
    """
    size = 1 << width
    gaps, above, here = 0, 0, ((1 << size) - 1) ^ ((1 << (size >> 1)) - 1)
    for i in range(width - 1, -1, -1):
        moved = here | above
        gaps |= moved ^ (moved & (member << (1 << i)))
        above, here = here, here ^ (here >> (1 << i >> 1))
    return ((1 << size) - 1) ^ gaps


def _missing_predecessor(m: int, member: int) -> int:
    """First absent immediate predecessor of m, indices scanned upward."""
    bits = [1 << i for i in range(m.bit_length()) if m >> i & 1]
    # m ^ b | b >> 1 is the slide, or the deletion again when there is none
    return next(p for b in bits for p in (m ^ b, m ^ b | b >> 1) if not member >> p & 1)


def realize_signature(candidate: ChamberSignature) -> LengthVector | None:
    """Produce an ordered generic vector with the candidate signature.

    Exact LP over l_1..l_n and one slack: the perimeter is normalized to
    two, so every row is integral; dominance-maximal members must stay
    below half perimeter and dominance-minimal non-members above it, each
    by at least the slack.  The family is realizable exactly when the
    optimal slack is positive; every other subset constraint follows by
    monotonicity of ordered sums along the dominance order.
    """
    n = candidate.n
    width = n - 1
    zeros = [0] * (n + 1)

    cons = [exactlp.constraint([1] * n + [0], exactlp.EQUAL, 2)]
    row = zeros[:]
    row[0], row[n] = 1, -1
    cons.append(exactlp.constraint(row, exactlp.GREATER_EQUAL, 0))
    for i in range(n - 1):
        row = zeros[:]
        row[i], row[i + 1] = -1, 1
        cons.append(exactlp.constraint(row, exactlp.GREATER_EQUAL, 0))

    def row_of(m: int, slack: int) -> list[int]:
        """l_J + l_n plus or minus the slack, for the subset J with mask m."""
        return [m >> i & 1 for i in range(width)] + [1, slack]

    # side +1 on a member, below half perimeter; -1 on a non-member, above
    sides = {m: 1 if candidate.bitmap >> m & 1 else -1 for m in candidate.walls}
    for m, side in sides.items():
        relation = exactlp.LESS_EQUAL if side > 0 else exactlp.GREATER_EQUAL
        cons.append(exactlp.constraint(row_of(m, side), relation, 1))

    result = exactlp.maximize([0] * n + [1], cons)
    if result.status != exactlp.OPTIMAL or result.objective <= 0:
        return None
    vec = LengthVector.from_rationals(result.solution[:n])
    # an ordered vector's short family is a dominance ideal, and two ideals
    # whose walls fall on the same sides are equal: a vertex strictly on the
    # candidate's side of each wall realizes the whole family, generically
    top = 1 << width
    if not vec.is_ordered or any(side * excess(vec, m | top) >= 0 for m, side in sides.items()):
        raise CertificateFailure(
            f"the LP solution {vec} does not realize the candidate signature"
        )
    return vec


@dataclass(frozen=True)
class CensusResult:
    n: int
    chambers: tuple[tuple[ChamberSignature, LengthVector], ...]

    @property
    def count(self) -> int:
        return len(self.chambers)

    def signatures(self) -> set[ChamberSignature]:
        return {sig for sig, _ in self.chambers}

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "chambers": [
                {
                    "signature": sig.family_indices(),
                    "representative": [str(e) for e in rep.entries],
                }
                for sig, rep in self.chambers
            ],
        }


def enumerate_chambers(n: int) -> CensusResult:
    """Complete census of chambers of the ordered cone for small n.

    Walks the lattice of dominance-order ideals along single-set flips,
    breadth-first from the empty family, LP-testing each new candidate.
    A chamber with k members is exactly k flips from the empty family
    (raise l_n and its members leave one wall at a time), so the levels
    are member counts.  Every chamber of the cone is convex, so the flip
    graph restricted to realizable families is connected and the walk is
    exhaustive.
    """
    if n > CENSUS_MAX_N:
        raise OutOfRange(f"census supports 3 <= n <= {CENSUS_MAX_N}, got {n}")
    start = ChamberSignature(n, 0)  # TooFewEntries below three sides
    rep = realize_signature(start)
    if rep is None:
        raise CertificateFailure("the LP found no vector with an empty polygon space")
    # the bitmap of every candidate LP-tested, realizable or not: a candidate
    # seen before is skipped before its signature is built and validated
    seen: set[int] = {0}
    found = [(start, rep)]
    for chamber, _ in found:  # the list grows while it is walked
        for m in chamber.walls:
            bitmap = chamber.bitmap ^ 1 << m
            if bitmap not in seen:
                seen.add(bitmap)
                cand = ChamberSignature(n, bitmap)
                rep = realize_signature(cand)
                if rep is not None:
                    found.append((cand, rep))
    # by the printed family as compact JSON text; sorting the index lists
    # themselves gives another order
    ordered = sorted(
        found,
        key=lambda chamber: json.dumps(chamber[0].family_indices(), separators=(",", ":")),
    )
    return CensusResult(n, tuple(ordered))
