"""Mod-2 Betti tables, cohomology-ring presentations, the pair verdict.

Everything here reduces to exact counts of short/median/long subsets
containing the top index, so the results are integers computed without
any rounding.  The classification needs d >= 3 throughout; d = 2 is a
different theory and is rejected explicitly.  For a generic vector the
chamber signature is the whole record: the Betti table is a function of
its short counts, so batch verdicts compare signatures alone.
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
from .errors import DimensionMismatch, SearchTooLarge
from .lengths import (
    LengthVector,
    exact_str,
    indices_of_mask,
    mask_from_indices,
    require_dimension,
    require_ordered,
    subset_rank,
    subset_sizes,
    top_excess,
)

MAX_BIJECTION_VARIABLES = 12


def short_median_counts(lv: LengthVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """a_k / b_k: short / median subsets containing n with k+1 elements."""
    exc = top_excess(require_ordered(lv))
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
            "betti": {exact_str(deg): v for deg, v in sorted(self.dims.items())},
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
    require_dimension(d)
    a, b = short_median_counts(lv)
    n = lv.n
    # the one index out of range the loops reach is -1, and a[-1] = b[-1] = 0
    # there: the whole set, the only one with n elements, is always long
    dims: dict[int, int] = {}
    for k in range(n - 1):
        v = a[k] + b[k] + a[k - 1] + b[k - 1]
        if v:
            dims[(d - 1) * k] = v
    for k in range(1, n):
        v = a[n - k - 2] + a[n - k - 1]
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
    require_dimension(d)
    long = top_excess(require_ordered(lv)) > 0
    # minimal: long, and long after no single deletion
    minimal = long.copy()
    for i in range(lv.n - 1):
        step = 1 << i
        minimal.reshape(-1, 2, step)[:, 1] &= ~long.reshape(-1, 2, step)[:, 0]
    singletons = long[1 << np.arange(lv.n - 1)].tolist()
    pruned = tuple(j for j, is_long in enumerate(singletons, 1) if is_long)
    masks = np.flatnonzero(minimal)
    generators = masks[subset_rank(lv.n - 1)[masks].argsort()].tolist()
    return RingPresentation(lv.n, d, pruned, tuple(generators))


def quotient_basis_dimensions(lv: LengthVector, d: int) -> dict[int, int]:
    """Dimension of the quotient in degree (d-1)k, keyed by k.

    Counts the square-free monomials Z_S killed by no ideal generator,
    i.e. the S with S union {n} short or median; this is the independent
    oracle for the Betti numbers in degrees divisible by d-1.
    """
    require_dimension(d)
    exc = top_excess(require_ordered(lv))
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
    require_dimension(d)
    if first.n != second.n:
        raise DimensionMismatch(f"n={first.n} vs n={second.n}")
    s1 = first.ordered()
    s2 = second.ordered()
    # Betti first: the chamber witness fills the cached stride bitmaps,
    # which would otherwise be held through both Betti scans
    betti_equal = betti_table(s1, d).dims == betti_table(s2, d).dims
    cmp = same_chamber_up_to_permutation(s1, s2)
    return _verdict(cmp, betti_equal)


def _verdict(cmp: ChamberComparison, betti_equal: bool) -> PairVerdict:
    if cmp.same:
        notes = "same chamber after sorting"
    elif betti_equal:
        notes = "different chambers despite identical Betti tables"
    else:
        notes = "different chambers"
    return PairVerdict(cmp.same, betti_equal, cmp.witness, notes)


def signature_verdict(first: ChamberSignature, second: ChamberSignature) -> PairVerdict:
    """The verdict ``classify_pair`` gives, at any d >= 3, for two generic
    vectors with these signatures of their sorted forms: one scan per
    vector, not four per pair.  For one n the Betti table is a_k + a_{k-1}
    in degree (d-1)k and a_{n-k-2} + a_{n-k-1} in degree (d-1)k-1; those
    degrees never collide and a_{n-1} = 0, so equal tables are equal a_k.
    """
    if first.n != second.n:
        raise DimensionMismatch(f"n={first.n} vs n={second.n}")
    cmp = _compare_families(first, second)
    return _verdict(cmp, first.short_counts == second.short_counts)


def special_tag(a: tuple[int, ...]) -> str | None:
    """The named product that the chamber with short counts a_k is, if any.

    "stiefel_times_spheres": nonempty with {n-2, n-1} long, the unique
    chamber where the degree d-2 Betti number is one.  "sphere_product":
    only {n} is short, that is, {1, n} is long.  The family is closed under
    sliding indices down, so {n-2, n-1} is long exactly when some (n-3)-set
    is a member, and {1, n} exactly when no singleton is; at n = 3 every
    nonempty chamber is the first.
    """
    if not a[0]:  # {n} is long: the space is empty
        return None
    if a[len(a) - 3]:
        return "stiefel_times_spheres"
    return None if a[1] else "sphere_product"


def recognize_special(lv: LengthVector, d: int) -> str | None:
    """The ``special_tag`` of an ordered generic vector."""
    require_dimension(d)
    return special_tag(chamber_signature(lv).short_counts)  # ordered + generic
