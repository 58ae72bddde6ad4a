"""Chamber signatures: comparison, realization and the small-n census.

A signature records which subsets J of {1, ..., n-1} stay short after
adjoining the top index n.  For an ordered vector such a family is
downward closed both under inclusion and under sliding an index to a
smaller unused slot, and it determines the vector's chamber completely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Collection, NamedTuple

import numpy as np

from . import exactlp
from .errors import (
    CertificateFailure,
    DimensionMismatch,
    MalformedCandidate,
    NotGeneric,
    NotOrdered,
    OutOfRange,
)
from .lengths import (
    LengthVector,
    check_enumeration_width,
    indices_of_mask,
    mask_key,
    reject_median,
    top_excess,
)

CENSUS_MIN_N = 3
CENSUS_MAX_N = 8


@dataclass(frozen=True)
class ChamberSignature:
    """Family of subsets J of {1..n-1} with J union {n} short."""

    n: int
    short_family: frozenset[int]

    def __post_init__(self) -> None:
        if not isinstance(self.short_family, frozenset):
            object.__setattr__(self, "short_family", frozenset(self.short_family))
        width = self.n - 1
        full = (1 << width) - 1
        fam = self.short_family
        in_range = not fam or 0 <= min(fam) <= max(fam) <= full
        inside = fam if in_range else [m for m in fam if 0 <= m <= full]
        member = _membership(inside, width)
        gaps = member & ~_closed_below(member)
        if in_range and not gaps.any():
            return
        # name the first offender in iteration order, with its first gap
        gaps = gaps.tolist()
        for m in fam:
            if not 0 <= m <= full:
                raise MalformedCandidate(f"mask {m} is not a subset of 1..{width}")
            if gaps[m]:
                raise MalformedCandidate(
                    f"family not downward closed: {indices_of_mask(m)} is a "
                    f"member but {indices_of_mask(_missing_predecessor(m, member))} "
                    "is not"
                )

    @property
    def is_empty_space(self) -> bool:
        return not self.short_family

    @cached_property
    def canonical_bytes(self) -> bytes:
        return json.dumps(
            {"n": self.n, "family": self.family_indices()},
            separators=(",", ":"),
            sort_keys=True,
        ).encode()

    def family_indices(self) -> list[list[int]]:
        return [
            list(indices_of_mask(m))
            for m in sorted(self.short_family, key=mask_key)
        ]


@dataclass(frozen=True)
class StratumSignature:
    """Three-valued refinement of a chamber signature (medians recorded)."""

    n: int
    short_family: frozenset[int]
    median_family: frozenset[int]

    def to_chamber_signature(self) -> ChamberSignature:
        if self.median_family:
            raise NotGeneric("stratum records median subsets; not a chamber")
        return ChamberSignature(self.n, self.short_family)


class ChamberComparison(NamedTuple):
    same: bool
    #: subset containing n that is short for exactly one side, or None
    witness: int | None


def chamber_signature(lv: LengthVector, max_n: int | None = None) -> ChamberSignature:
    if not lv.is_ordered:
        raise NotOrdered(f"{lv} is not nondecreasing")
    exc = top_excess(lv, max_n)
    reject_median(lv, exc)
    return ChamberSignature(lv.n, frozenset(np.flatnonzero(exc < 0).tolist()))


def stratum_signature(lv: LengthVector, max_n: int | None = None) -> StratumSignature:
    if not lv.is_ordered:
        raise NotOrdered(f"{lv} is not nondecreasing")
    exc = top_excess(lv, max_n)
    return StratumSignature(
        lv.n,
        frozenset(np.flatnonzero(exc < 0).tolist()),
        frozenset(np.flatnonzero(exc == 0).tolist()),
    )


def _compare(a: ChamberSignature, b: ChamberSignature) -> ChamberComparison:
    if a.short_family == b.short_family:
        return ChamberComparison(True, None)
    smallest = min(a.short_family ^ b.short_family, key=mask_key)
    return ChamberComparison(False, smallest | 1 << (a.n - 1))


def same_chamber(
    first: LengthVector, second: LengthVector, max_n: int | None = None
) -> ChamberComparison:
    """Compare two ordered generic vectors; the witness is the smallest
    distinguishing subset (index-tuple order) with n adjoined."""
    if first.n != second.n:
        raise DimensionMismatch(f"n={first.n} vs n={second.n}")
    return _compare(chamber_signature(first, max_n), chamber_signature(second, max_n))


def same_chamber_up_to_permutation(
    first: LengthVector, second: LengthVector, max_n: int | None = None
) -> ChamberComparison:
    """Sort both vectors, then compare chambers; sorting loses nothing."""
    if first.n != second.n:
        raise DimensionMismatch(f"n={first.n} vs n={second.n}")
    return _compare(
        chamber_signature(first.ordered()[0], max_n),
        chamber_signature(second.ordered()[0], max_n),
    )


def same_stratum(
    first: LengthVector, second: LengthVector, max_n: int | None = None
) -> bool:
    if first.n != second.n:
        raise DimensionMismatch(f"n={first.n} vs n={second.n}")
    return stratum_signature(first, max_n) == stratum_signature(second, max_n)


# ---------------------------------------------------------------------------
# realization and census


def _membership(fam: Collection[int], width: int) -> np.ndarray:
    """Boolean array over the masks of 1..width: True on the members."""
    member = np.zeros(1 << width, dtype=bool)
    member[np.fromiter(fam, np.int64, len(fam))] = True
    return member


def _closed_below(member: np.ndarray) -> np.ndarray:
    """True at m when every immediate predecessor of m is a member.

    The immediate predecessors delete one index, or slide one index down
    into a free slot just below it; they generate the dominance order.
    """
    ok = np.ones_like(member)
    width = member.size.bit_length() - 1
    for i in range(width):
        halves, quarters = (-1, 2, 1 << i), (-1, 2, 2, 1 << i)
        # deleting index i+1 needs the lower of each pair of halves; sliding
        # index i+2 down to i+1 needs quarter (0, 1) under quarter (1, 0)
        ok.reshape(halves)[:, 1] &= member.reshape(halves)[:, 0]
        if i + 1 < width:
            ok.reshape(quarters)[:, 1, 0] &= member.reshape(quarters)[:, 0, 1]
    return ok


def _missing_predecessor(m: int, member: np.ndarray) -> int:
    """First absent immediate predecessor of m, indices scanned upward."""
    bits = [1 << i for i in range(m.bit_length()) if m >> i & 1]
    # m ^ b | b >> 1 is the slide, or the deletion again when there is none
    return next(p for b in bits for p in (m ^ b, m ^ b | b >> 1) if not member[p])


def _minimal_nonmembers(member: np.ndarray) -> list[int]:
    """Non-members whose immediate predecessors are all members, ascending."""
    return np.flatnonzero(~member & _closed_below(member)).tolist()


def _maximal_members(fam: frozenset[int], member: np.ndarray) -> list[int]:
    """Members with no member immediately above, in the family's own order:
    complementing reverses the order, hence the reversed complement."""
    full = member.size - 1
    top = {full ^ m for m in _minimal_nonmembers(~member[::-1])}
    return [m for m in fam if m in top]


def realize_signature(candidate: ChamberSignature) -> LengthVector | None:
    """Produce an ordered generic vector with the candidate signature.

    Exact LP over l_1..l_n and one slack: the perimeter is normalized to
    one, dominance-maximal members must stay below half perimeter and
    dominance-minimal non-members above it, each by at least the slack.
    The family is realizable exactly when the optimal slack is positive;
    every other subset constraint follows by monotonicity of ordered
    sums along the dominance order.
    """
    n = candidate.n
    check_enumeration_width(n)
    width = n - 1
    fam = candidate.short_family
    member = _membership(fam, width)
    half = Fraction(1, 2)
    zeros = [0] * (n + 1)

    cons = [exactlp.constraint([1] * n + [0], exactlp.EQUAL, 1)]
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

    for m in _maximal_members(fam, member):
        cons.append(exactlp.constraint(row_of(m, 1), exactlp.LESS_EQUAL, half))
    for m in _minimal_nonmembers(member):
        cons.append(exactlp.constraint(row_of(m, -1), exactlp.GREATER_EQUAL, half))

    result = exactlp.maximize([0] * n + [1], cons)
    if result.status != exactlp.OPTIMAL or result.objective <= 0:
        return None
    vec = LengthVector.from_rationals(result.solution[:n])
    # the LP certifies every strict inequality, so the round trip is exact
    if chamber_signature(vec) != candidate:
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
    starting from the empty family; each new candidate is LP-tested.
    Every chamber of the cone is convex, so the flip graph restricted to
    realizable families is connected and the walk is exhaustive.
    """
    if not CENSUS_MIN_N <= n <= CENSUS_MAX_N:
        raise OutOfRange(
            f"census supports {CENSUS_MIN_N} <= n <= {CENSUS_MAX_N}, got {n}"
        )
    width = n - 1
    start = ChamberSignature(n, frozenset())
    first = realize_signature(start)
    if first is None:
        raise CertificateFailure("the LP found no vector with an empty polygon space")
    # keyed by family: a candidate seen before is skipped before its
    # signature is built and validated
    found: dict[frozenset[int], tuple[ChamberSignature, LengthVector]] = {
        start.short_family: (start, first)
    }
    infeasible: set[frozenset[int]] = set()
    frontier = [start]
    while frontier:
        sig = frontier.pop()
        fam = sig.short_family
        member = _membership(fam, width)
        flips = [fam - {m} for m in _maximal_members(fam, member)]
        flips += [fam | {m} for m in _minimal_nonmembers(member)]
        for new_fam in flips:
            if new_fam in found or new_fam in infeasible:
                continue
            cand = ChamberSignature(n, new_fam)
            rep = realize_signature(cand)
            if rep is None:
                infeasible.add(new_fam)
            else:
                found[new_fam] = (cand, rep)
                frontier.append(cand)
    ordered = sorted(found.values(), key=lambda chamber: chamber[0].canonical_bytes)
    return CensusResult(n, tuple(ordered))
