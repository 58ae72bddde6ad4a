"""Mod-2 Betti tables, cohomology-ring presentations, the pair verdict.

Everything here reduces to exact counts of short/median/long subsets
containing the top index, so the results are integers computed without
any rounding.  The classification needs d >= 3 throughout; d = 2 is a
different theory and is rejected explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chambers import (
    ChamberComparison,
    ChamberSignature,
    _compare_families,
    chamber_signature,
    same_chamber_up_to_permutation,
)
from .errors import (
    DimensionMismatch,
    NotOrdered,
    SearchTooLarge,
    UnsupportedDimension,
)
from .lengths import (
    Kind,
    LengthVector,
    classify_subset,
    indices_of_mask,
    mask_from_indices,
    subset_sizes,
    top_excess,
)

MAX_BIJECTION_VARIABLES = 12


def _require_dimension(d: int) -> None:
    if d < 3:
        raise UnsupportedDimension(f"the classification needs d >= 3, got {d}")


def short_median_counts(lv: LengthVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """a_k / b_k: short / median subsets containing n with k+1 elements."""
    if not lv.is_ordered:
        raise NotOrdered(f"{lv} is not nondecreasing")
    exc = top_excess(lv)
    sizes = subset_sizes(lv.n - 1)
    a = np.bincount(sizes[exc < 0], minlength=lv.n)
    b = np.bincount(sizes[exc == 0], minlength=lv.n)
    return tuple(a.tolist()), tuple(b.tolist())


@dataclass(frozen=True)
class BettiTable:
    n: int
    d: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    dims: dict[int, int]  # degree -> Z2 dimension, zero entries omitted
    manifold_dim: int
    note: str | None = None

    def dim(self, degree: int) -> int:
        return self.dims.get(degree, 0)

    @property
    def euler(self) -> int:
        return sum(v if deg % 2 == 0 else -v for deg, v in self.dims.items())

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "manifold_dim": self.manifold_dim,
            "a": list(self.a),
            "b": list(self.b),
            "betti": {str(deg): v for deg, v in sorted(self.dims.items())},
            "euler": self.euler,
            "note": self.note,
        }


def betti_table(lv: LengthVector, d: int) -> BettiTable:
    """Z2 Betti numbers from the a/b counts; ordering required, genericity not.

    Degrees (d-1)k carry a_k+b_k+a_{k-1}+b_{k-1} for k = 0..n-2, degrees
    (d-1)k-1 carry a_{n-k-2}+a_{n-k-1} for k = 1..n-1, everything else
    vanishes.  Nongeneric input is accepted and flagged, since the count
    formula does not need genericity.
    """
    _require_dimension(d)
    a, b = short_median_counts(lv)
    n = lv.n

    def av(k: int) -> int:
        return a[k] if 0 <= k < n else 0

    def bv(k: int) -> int:
        return b[k] if 0 <= k < n else 0

    dims: dict[int, int] = {}
    for k in range(n - 1):
        v = av(k) + bv(k) + av(k - 1) + bv(k - 1)
        if v:
            dims[(d - 1) * k] = v
    for k in range(1, n):
        v = av(n - k - 2) + av(n - k - 1)
        if v:
            dims[(d - 1) * k - 1] = v
    note = None if not any(b) else "nongeneric: the space may be singular"
    return BettiTable(n, d, a, b, dims, (n - 1) * (d - 1) - 1, note)


# ---------------------------------------------------------------------------
# ring presentations


@dataclass(frozen=True)
class RingPresentation:
    """Exterior generators Z_1..Z_n of degree d-1 modulo squares and the
    minimal monomials Z_J with J union {n} long, J inside {1..n-1}."""

    n: int
    d: int
    pruned: tuple[int, ...]  # variables Z_j with {j, n} long
    minimal_generators: tuple[int, ...]  # inclusion-antichain of masks

    @property
    def is_zero_ring(self) -> bool:
        return 0 in self.minimal_generators

    def kept_variables(self) -> tuple[int, ...]:
        """Variables surviving pruning, the top one always included."""
        dropped = set(self.pruned)
        return tuple(j for j in range(1, self.n) if j not in dropped) + (self.n,)

    def pruned_generators(self) -> tuple[int, ...]:
        """Minimal generators supported on the kept variables."""
        pruned_mask = mask_from_indices(self.pruned)
        return tuple(m for m in self.minimal_generators if not m & pruned_mask)

    def to_json_obj(self) -> dict:
        return {
            "pruned": list(self.pruned),
            "generators": [list(indices_of_mask(m)) for m in self.minimal_generators],
        }


def ring_presentation(lv: LengthVector, d: int) -> RingPresentation:
    if not lv.is_ordered:
        raise NotOrdered(f"{lv} is not nondecreasing")
    _require_dimension(d)
    long = top_excess(lv) > 0
    # minimal: long, and long after no single deletion
    minimal = long.copy()
    for i in range(lv.n - 1):
        step = 1 << i
        minimal.reshape(-1, 2, step)[:, 1] &= ~long.reshape(-1, 2, step)[:, 0]
    singletons = long[1 << np.arange(lv.n - 1)].tolist()
    pruned = tuple(j for j, is_long in enumerate(singletons, 1) if is_long)
    generators = sorted(np.flatnonzero(minimal).tolist(), key=indices_of_mask)
    return RingPresentation(lv.n, d, pruned, tuple(generators))


def quotient_basis_dimensions(lv: LengthVector, d: int) -> dict[int, int]:
    """Dimension of the quotient in degree (d-1)k, keyed by k.

    Counts the square-free monomials Z_S killed by no ideal generator,
    i.e. the S with S union {n} short or median; this is the independent
    oracle for the Betti numbers in degrees divisible by d-1.
    """
    if not lv.is_ordered:
        raise NotOrdered(f"{lv} is not nondecreasing")
    _require_dimension(d)
    exc = top_excess(lv)
    # S = J and S = J union {n} both survive
    by_size = np.bincount(subset_sizes(lv.n - 1)[exc <= 0], minlength=lv.n).tolist()
    dims = [a + b for a, b in zip(by_size + [0], [0] + by_size)]
    return {k: v for k, v in enumerate(dims) if v}


def rings_isomorphic_bruteforce(
    first: RingPresentation, second: RingPresentation
) -> bool:
    """Exhaustive search for a variable bijection matching the generator
    antichains of the pruned presentations."""
    if first.is_zero_ring or second.is_zero_ring:
        return first.is_zero_ring and second.is_zero_ring
    vars_a = first.kept_variables()
    vars_b = second.kept_variables()
    if len(vars_a) != len(vars_b):
        return False
    m = len(vars_a)
    if m > MAX_BIJECTION_VARIABLES:
        raise SearchTooLarge(
            f"{m} variables exceed the bijection-search cap {MAX_BIJECTION_VARIABLES}"
        )
    pos_a = {v: i for i, v in enumerate(vars_a)}
    pos_b = {v: i for i, v in enumerate(vars_b)}
    gens_a = [
        frozenset(pos_a[j] for j in indices_of_mask(g))
        for g in first.pruned_generators()
    ]
    gens_b = {
        frozenset(pos_b[j] for j in indices_of_mask(g))
        for g in second.pruned_generators()
    }
    if len(gens_a) != len(gens_b):
        return False
    if sorted(len(g) for g in gens_a) != sorted(len(g) for g in gens_b):
        return False

    def profile(pos: int, gens) -> tuple[int, ...]:
        return tuple(sorted(len(g) for g in gens if pos in g))

    prof_a = [profile(i, gens_a) for i in range(m)]
    prof_b = [profile(i, gens_b) for i in range(m)]
    if sorted(prof_a) != sorted(prof_b):
        return False

    # most constrained variables first
    order = sorted(range(m), key=lambda i: (-len(prof_a[i]), prof_a[i]))
    image = [-1] * m
    used = [False] * m

    def consistent(depth: int) -> bool:
        assigned = set(order[: depth + 1])
        for g in gens_a:
            if g <= assigned and frozenset(image[i] for i in g) not in gens_b:
                return False
        return True

    def search(depth: int) -> bool:
        if depth == m:
            return {frozenset(image[i] for i in g) for g in gens_a} == gens_b
        v = order[depth]
        for w in range(m):
            if not used[w] and prof_b[w] == prof_a[v]:
                image[v] = w
                used[w] = True
                if consistent(depth) and search(depth + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return search(0)


# ---------------------------------------------------------------------------
# the pair verdict


@dataclass(frozen=True)
class PairVerdict:
    diffeomorphic: bool
    betti_equal: bool
    witness: int | None
    notes: str = ""


def classify_pair(first: LengthVector, second: LengthVector, d: int) -> PairVerdict:
    """Equivalence verdict for two generic vectors of the same n.

    The verdict is decided by the chamber comparison after sorting; the
    Betti comparison runs independently and can agree or disagree.
    """
    _require_dimension(d)
    if first.n != second.n:
        raise DimensionMismatch(f"n={first.n} vs n={second.n}")
    s1 = first.ordered()
    s2 = second.ordered()
    cmp = same_chamber_up_to_permutation(s1, s2)
    betti_equal = betti_table(s1, d).dims == betti_table(s2, d).dims
    return _verdict(cmp, betti_equal)


def _verdict(cmp: ChamberComparison, betti_equal: bool) -> PairVerdict:
    if cmp.same:
        notes = "same chamber after sorting"
    elif betti_equal:
        notes = "different chambers despite identical Betti tables"
    else:
        notes = "different chambers"
    return PairVerdict(cmp.same, betti_equal, cmp.witness, notes)


@dataclass(frozen=True)
class VectorRecord:
    """What the pair verdict needs of one generic vector, computed once.

    Batch callers build one record per vector (one subset scan for the
    chamber, one for the Betti table) and compare records pairwise, so k
    vectors cost 2k scans instead of four per pair.
    """

    vector: LengthVector  # sorted
    d: int
    chamber: ChamberSignature
    betti: dict[int, int]  # BettiTable.dims

    @classmethod
    def of(cls, lv: LengthVector, d: int) -> "VectorRecord":
        _require_dimension(d)
        s = lv.ordered()
        return cls(s, d, chamber_signature(s), betti_table(s, d).dims)

    @property
    def n(self) -> int:
        return self.vector.n

    def verdict(self, other: "VectorRecord") -> PairVerdict:
        """The verdict ``classify_pair`` gives for the two vectors."""
        if self.n != other.n:
            raise DimensionMismatch(f"n={self.n} vs n={other.n}")
        if self.d != other.d:
            raise DimensionMismatch(f"d={self.d} vs d={other.d}")
        cmp = _compare_families(self.chamber, other.chamber)
        return _verdict(cmp, self.betti == other.betti)


def recognize_special(lv: LengthVector, d: int) -> str | None:
    """Tag the two chamber families whose manifolds are named products.

    "stiefel_times_spheres": nonempty with {n-2, n-1} long, the unique
    chamber where the degree d-2 Betti number is one.  "sphere_product":
    the chamber where only the singleton {n} is short, n >= 4.
    """
    _require_dimension(d)
    sig = chamber_signature(lv)  # enforces ordered + generic
    if sig.is_empty_space:
        return None
    n = lv.n
    if classify_subset(lv, mask_from_indices((n - 2, n - 1))).kind is Kind.LONG:
        return "stiefel_times_spheres"
    if n >= 4 and sig == ChamberSignature.from_masks(n, [0]):
        return "sphere_product"
    return None
