"""Analytic verification layer for the closure energy on sphere products.

The energy of a direction tuple is minus the squared length of the
weighted sum; its zero set is the polygon space.  Away from zero the
critical sets are the aligned configurations, one per complementary
subset pair, and their transverse behaviour is governed by an exact
rational n x n form.  That form is congruent to an integer diagonal
minus a rank-one term, so Haynsworth's inertia additivity on the
bordered matrix [[diagonal, v], [v^T, 1]] (Linear Algebra Appl. 1, 1968)
gives its inertia exactly, in O(n) integer operations and without floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    CertificateFailure,
    ConvergenceFailure,
    DegenerateConfiguration,
    NonUnitInput,
    OutOfRange,
    SubsetNotLong,
    UnsupportedDimension,
)
from .lengths import (
    LengthVector,
    excess,
    indices_of_mask,
    reject_median,
    require_dimension,
    subset_rank,
    top_excess,
)

UNIT_NORM_TOL = 1e-12
RESIDUAL_TOL = 1e-9
#: the solver's budget: random starts, and descent sweeps per start
MAX_RESTARTS = 8
MAX_SWEEPS = 2000
RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PolygonConfiguration:
    """Floating realization: unit direction rows u_1..u_n in R^d."""

    d: int
    u: np.ndarray
    residual: float
    sweeps: int = 0
    restarts: int = 0

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.u.shape[1] != self.d:
            raise ValueError(f"direction array must be (n, {self.d})")
        self.u.setflags(write=False)


@dataclass(frozen=True)
class EmptySpaceCertificate:
    """The top side outweighs all others; no closure exists."""

    witness: int  # the singleton mask of the dominating side
    min_residual: int  # exact minimum of |sum l_j u_j| over all directions


def _as_floats(lv: LengthVector) -> tuple[np.ndarray, float]:
    """Side lengths and perimeter as floats, divided by 2^max(0, bits - 500)
    for the largest entry's bit length: entries below 2^500 cast unchanged,
    and squared norms of larger ones stay finite, measured in that scale."""
    scale = 1 << max(0, max(lv.entries).bit_length() - 500)
    return np.array([e / scale for e in lv.entries]), lv.total / scale


def _check_units(u: np.ndarray) -> None:
    norms = np.linalg.norm(u, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise NonUnitInput(f"rows must be unit vectors within {UNIT_NORM_TOL}")


def energy(lv: LengthVector, config: PolygonConfiguration) -> float:
    """-|sum l_j u_j|^2; zero exactly on closed polygons."""
    u = config.u
    if u.shape[0] != lv.n:
        raise ValueError(f"expected {lv.n} direction rows, got {u.shape[0]}")
    _check_units(u)
    s = _as_floats(lv)[0] @ u
    return -float(s @ s)


def find_polygon(
    lv: LengthVector, d: int, seed: int = 0
) -> PolygonConfiguration | EmptySpaceCertificate:
    """Close the polygon numerically, or certify that none exists.

    Each step replaces one direction by the exact minimizer against the
    rest, so the residual never increases; random restarts escape the
    collinear saddles.  When the largest side is long on its own the
    space is empty and the exact deficit is returned instead; when it is
    exactly median the space is the single collinear closure, returned
    as is.  Entries of 2^500 or more are rescaled first, see
    ``_as_floats``.  A d whose n x d float array numpy cannot index raises
    OutOfRange before anything of size d is allocated.
    """
    if d < 2:
        raise UnsupportedDimension(f"directions need d >= 2, got {d}")
    n = lv.n
    top = max(range(n), key=lambda i: lv.entries[i])
    deficit = excess(lv, 1 << top)
    if deficit > 0:
        return EmptySpaceCertificate(witness=1 << top, min_residual=deficit)
    if n * d * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise OutOfRange(f"the {n} x d array of directions exceeds numpy's largest array")

    lengths, perimeter = _as_floats(lv)
    if deficit == 0:  # the top side balances all others: one collinear point
        u = np.zeros((n, d))
        u[:, 0] = -1.0
        u[top, 0] = 1.0
        res = float(np.linalg.norm(lengths @ u))
        return PolygonConfiguration(d, u, res)
    target = RESIDUAL_TOL * perimeter
    rng = np.random.default_rng(seed)
    best = math.inf
    total_sweeps = 0
    for restart in range(MAX_RESTARTS):
        u = rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        checkpoint = math.inf
        for sweep in range(1, MAX_SWEEPS + 1):
            total = lengths @ u  # refreshed once a sweep against drift
            for j in range(n):
                s = total - lengths[j] * u[j]
                ns = float(np.linalg.norm(s))
                if ns > 0.0:
                    u[j] = -s / ns
                    total = s + lengths[j] * u[j]
            res = float(np.linalg.norm(lengths @ u))
            total_sweeps += 1
            if res < target:
                return PolygonConfiguration(d, u.copy(), res, total_sweeps, restart)
            if sweep % 50 == 0:  # stalled near a saddle: restart
                if res * 1.5 > checkpoint:
                    break
                checkpoint = res
        best = min(best, res)
    raise ConvergenceFailure(
        f"no closure below {target:.3g} in {MAX_RESTARTS} restarts "
        f"(best residual {best:.3g})",
        best_residual=best,
    )


# ---------------------------------------------------------------------------
# critical submanifolds and their exact Hessian data


@dataclass(frozen=True)
class HessianMatrix:
    """Reduced transverse form at an aligned configuration: D - E with E the
    all-ones matrix and D_jj = eps_J(j) L_J / l_j = L_J / kernel_vector[j],
    stored as those O(n) integers."""

    excess: int  # L_J, the excess of the long subset J
    kernel_vector: tuple[int, ...]  # eps_J(j) * l_j

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The n x n matrix D - E, built on demand."""
        n = len(self.kernel_vector)
        rows = []
        for i, k in enumerate(self.kernel_vector):
            row = [Fraction(-1)] * n
            row[i] += Fraction(self.excess, k)
            rows.append(tuple(row))
        return tuple(rows)

    def multiply(self, vec: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """Exact product (D - E) vec = L_J v_j / k_j - sum(v) in O(n): the
        vector's denominators are cleared by their lcm, so the sum is an int."""
        vden = math.lcm(*(v.denominator for v in vec))
        vnum = [v.numerator * (vden // v.denominator) for v in vec]
        total = sum(vnum)
        return tuple(
            Fraction(self.excess * x - total * k, k * vden)
            for x, k in zip(vnum, self.kernel_vector, strict=True)
        )

    @property
    def signature(self) -> tuple[int, int, int]:
        """Exact (positive, negative, zero) inertia, certified.

        Conjugating D - E by diag(l_j) gives the congruent integer form
        M = diag(eps_i L_J l_i) - l l^T, a nonsingular diagonal minus a
        rank-one term.  Haynsworth's inertia additivity (E. V. Haynsworth,
        "Determination of the inertia of a partitioned Hermitian matrix",
        Linear Algebra Appl. 1, 1968) on the bordered matrix
        B = [[diag(eps_i L_J l_i), l], [l^T, 1]], taken both ways, gives
        In(B) = In(diagonal) + In(sigma) and In(B) = In(1) + In(M), with the
        Schur complement sigma = 1 - sum l_i^2 / (eps_i L_J l_i), which is
        (L_J - sum eps_i l_i) / L_J.  Its numerator is computed, not assumed:
        it is zero, so M has the diagonal's |J| positive and n-|J| negative
        signs less one positive, plus one zero, the (|J|-1, n-|J|, 1) law; a
        nonzero numerator raises CertificateFailure.  An L_J read off the
        subset scan is so checked against the signed sum of the sides.
        """
        long_side = tuple(j for j, k in enumerate(self.kernel_vector, 1) if k > 0)
        if self.excess != sum(self.kernel_vector):
            raise CertificateFailure(
                f"the Hessian Schur complement at {long_side} is not zero"
            )
        return len(long_side) - 1, len(self.kernel_vector) - len(long_side), 1


def _kernel_vector(lv: LengthVector, subset: int) -> tuple[int, ...]:
    """eps_J(j) l_j: l_j on the long subset J and -l_j off it."""
    return tuple(e if subset >> i & 1 else -e for i, e in enumerate(lv.entries))


def hessian_matrix(lv: LengthVector, subset: int) -> HessianMatrix:
    exc = excess(lv, subset)
    if exc <= 0:
        raise SubsetNotLong(f"{indices_of_mask(subset)} is not long")
    return HessianMatrix(exc, _kernel_vector(lv, subset))


def hessian_signature(lv: LengthVector, subset: int) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia, see ``HessianMatrix.signature``."""
    return hessian_matrix(lv, subset).signature


@dataclass(frozen=True)
class CriticalSubmanifoldData:
    subset: int  # the long representative of the pair {J, complement}
    critical_value: int  # -L_J^2, exact in the integer normal form
    index: int  # (d-1)(n-|J|)
    dim: int  # d-1, the sphere of aligned configurations
    hessian_signature: tuple[int, int, int]


def critical_data(lv: LengthVector, d: int) -> list[CriticalSubmanifoldData]:
    """One record per complementary pair, labeled by its long side.

    Generic vectors only: a median pair would sit on the zero level and
    the critical structure there is not isolated from the polygon space.
    Sorted by critical value, most negative first, ties in index-tuple
    order of the long sides.
    """
    if d < 2:
        raise UnsupportedDimension(f"directions need d >= 2, got {d}")
    exc = top_excess(lv)
    reject_median(lv, exc)
    n = lv.n
    # the long side of each pair: J union {n}, or its complement where short
    reps = np.arange(1 << (n - 1), 1 << n)
    reps[exc < 0] ^= (1 << n) - 1
    long_excess = abs(exc)
    order = np.lexsort((subset_rank(n)[reps], -long_excess))
    return [
        CriticalSubmanifoldData(
            subset=rep,
            critical_value=-e * e,
            index=(d - 1) * (n - rep.bit_count()),
            dim=d - 1,
            hessian_signature=HessianMatrix(e, _kernel_vector(lv, rep)).signature,
        )
        for rep, e in zip(reps[order].tolist(), long_excess[order].tolist())
    ]


# ---------------------------------------------------------------------------
# regular-value rank test


def jacobian_rank(lv: LengthVector, config: PolygonConfiguration) -> int:
    """Numerical rank of the side-length map's differential at a chain.

    The map sends the n-1 joint positions to the n side lengths; its
    rank is n exactly when the directions are not all collinear.
    """
    u = config.u
    n, d = lv.n, config.d
    if u.shape[0] != n:
        raise ValueError(f"expected {n} direction rows, got {u.shape[0]}")
    _check_units(u)
    lengths, scale = _as_floats(lv)
    partial = np.cumsum(lengths[:, None] * u, axis=0)[:-1]  # v_1 .. v_{n-1}
    norms = np.linalg.norm(partial, axis=1)
    if np.any(norms < RESIDUAL_TOL * scale):
        raise DegenerateConfiguration("a partial sum vanishes; the map is not smooth")
    rows = np.zeros((n, (n - 1) * d))
    rows[0, :d] = partial[0] / norms[0]
    for j in range(2, n):
        rows[j - 1, (j - 1) * d : j * d] = u[j - 1]
        rows[j - 1, (j - 2) * d : (j - 1) * d] = -u[j - 1]
    rows[n - 1, (n - 2) * d :] = partial[-1] / norms[-1]
    singular = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(singular > RANK_TOL * singular[0]))


# ---------------------------------------------------------------------------
# complement homology bookkeeping


def complement_poincare_polynomial(lv: LengthVector, d: int) -> list[int]:
    """Poincare polynomial of the off-zero region: each critical record
    contributes t^index (1 + t^dim), that is t^{(d-1)(n-|J|)} (1 + t^{d-1})
    for its long side J.  A degree (d-1)n past Python's largest list
    raises OutOfRange before any critical record is built."""
    require_dimension(d)
    terms = (d - 1) * lv.n + 1
    if terms > sys.maxsize:
        raise OutOfRange("the polynomial of degree (d-1)n exceeds Python's largest list")
    coeffs = [0] * terms
    for r in critical_data(lv, d):
        coeffs[r.index] += 1
        coeffs[r.index + r.dim] += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _lacunary(records: Sequence[CriticalSubmanifoldData], d: int) -> bool:
    """Each record's (index, dim) is d-1 times the (negative, zero) counts
    of its exact Hessian inertia."""
    return all(
        (r.index, r.dim) == tuple((d - 1) * k for k in r.hessian_signature[1:])
        for r in records
    )


def lacunary_consistency(lv: LengthVector, d: int) -> bool:
    """Check the combinatorial Morse indices against the exact Hessians.

    ``critical_data`` labels each pair by its long side J and gives it
    index (d-1)(n-|J|) on a sphere of dimension d-1; the transverse form's
    inertia, certified on its own, must carry n-|J| negative signs and one
    zero.  When it does, every exponent of the complement polynomial is a
    multiple of d-1 >= 2, the lacunary shape.
    """
    require_dimension(d)
    return _lacunary(critical_data(lv, d), d)
