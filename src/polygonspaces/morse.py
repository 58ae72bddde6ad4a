"""Analytic verification layer for the closure energy on sphere products.

The energy of a direction tuple is minus the squared length of the
weighted sum; its zero set is the polygon space.  Away from zero the
critical sets are the aligned configurations, one per complementary
subset pair, and their transverse behaviour is governed by an exact
rational n x n form whose inertia this module computes without floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateConfiguration,
    NonUnitInput,
    SubsetNotLong,
    UnsupportedDimension,
)
from .lengths import (
    LengthVector,
    complement_mask,
    excess,
    indices_of_mask,
    mask_key,
    reject_median,
    subset_sizes,
    top_excess,
)

UNIT_NORM_TOL = 1e-12
RESIDUAL_TOL = 1e-9
RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PolygonConfiguration:
    """Floating realization: unit direction rows u_1..u_n in R^d."""

    d: int
    u: np.ndarray
    residual: float
    sweeps: int = 0
    restarts: int = 0
    residual_history: tuple[float, ...] | None = None

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
    lv: LengthVector,
    d: int,
    seed: int = 0,
    tol: float = RESIDUAL_TOL,
    max_restarts: int = 8,
    max_sweeps: int = 2000,
    record_history: bool = False,
) -> PolygonConfiguration | EmptySpaceCertificate:
    """Close the polygon numerically, or certify that none exists.

    Each step replaces one direction by the exact minimizer against the
    rest, so the residual never increases; random restarts escape the
    collinear saddles.  When the largest side is long on its own the
    space is empty and the exact deficit is returned instead.  Entries of
    2^500 or more are rescaled first, see ``_as_floats``.
    """
    if d < 2:
        raise UnsupportedDimension(f"directions need d >= 2, got {d}")
    n = lv.n
    top = max(range(n), key=lambda i: lv.entries[i])
    deficit = excess(lv, 1 << top)
    if deficit > 0:
        return EmptySpaceCertificate(witness=1 << top, min_residual=deficit)

    lengths, perimeter = _as_floats(lv)
    target = tol * perimeter
    rng = np.random.default_rng(seed)
    best = math.inf
    total_sweeps = 0
    for restart in range(max_restarts):
        u = rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        history: list[float] = []
        checkpoint = math.inf
        for sweep in range(1, max_sweeps + 1):
            total = lengths @ u  # refreshed once a sweep against drift
            for j in range(n):
                s = total - lengths[j] * u[j]
                ns = float(np.linalg.norm(s))
                if ns > 0.0:
                    u[j] = -s / ns
                    total = s + lengths[j] * u[j]
            res = float(np.linalg.norm(lengths @ u))
            total_sweeps += 1
            if record_history:
                history.append(res)
            if res < target:
                return PolygonConfiguration(
                    d,
                    u.copy(),
                    res,
                    total_sweeps,
                    restart,
                    tuple(history) if record_history else None,
                )
            if sweep % 50 == 0:  # stalled near a saddle: restart
                if res * 1.5 > checkpoint:
                    break
                checkpoint = res
        best = min(best, res)
    raise ConvergenceFailure(
        f"no closure below {target:.3g} in {max_restarts} restarts "
        f"(best residual {best:.3g})",
        best_residual=best,
    )


# ---------------------------------------------------------------------------
# critical submanifolds and their exact Hessian data


@dataclass(frozen=True)
class HessianMatrix:
    """Reduced transverse form at an aligned configuration: D - E with
    D_jj = eps_J(j) L_J / l_j and E the all-ones matrix."""

    entries: tuple[tuple[Fraction, ...], ...]
    kernel_vector: tuple[int, ...]  # eps_J(j) * l_j

    def multiply(self, vec: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        return tuple(
            sum(a * Fraction(v) for a, v in zip(row, vec)) for row in self.entries
        )


def _signs(lv: LengthVector, subset: int) -> list[int]:
    return [1 if subset >> i & 1 else -1 for i in range(lv.n)]


def hessian_matrix(lv: LengthVector, subset: int) -> HessianMatrix:
    exc = excess(lv, subset)
    if exc <= 0:
        raise SubsetNotLong(f"{indices_of_mask(subset)} is not long")
    eps = _signs(lv, subset)
    rows = []
    for i in range(lv.n):
        row = [Fraction(-1)] * lv.n
        row[i] += Fraction(eps[i] * exc, lv.entries[i])
        rows.append(tuple(row))
    kernel = tuple(eps[i] * lv.entries[i] for i in range(lv.n))
    return HessianMatrix(tuple(rows), kernel)


def _integer_inertia(matrix: list[list[int]]) -> tuple[int, int, int]:
    """Sylvester inertia of a symmetric integer matrix by congruence.

    Eliminating pivot p stores sign(p) * (p*M - cc^T): the Schur complement
    M - cc^T/p times |p|, a positive rescale that keeps both the inertia and
    integral entries.  Nothing is divided back out, so entry bit lengths
    roughly double at every elimination step.
    """
    a = [row[:] for row in matrix]
    active = list(range(len(matrix)))
    pos = neg = zero = 0
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is None:
            off = next(
                ((i, j) for i in active for j in active if i < j and a[i][j] != 0),
                None,
            )
            if off is None:
                zero += len(active)
                break
            i, j = off
            # congruence v_i <- v_i + v_j puts 2 a_ij on the diagonal
            merged = {t: a[i][t] + a[j][t] for t in active}
            new_diag = a[i][i] + 2 * a[i][j] + a[j][j]
            for t in active:
                a[i][t] = a[t][i] = merged[t]
            a[i][i] = new_diag
            pivot = i
        p = a[pivot][pivot]
        if p > 0:
            pos += 1
        else:
            neg += 1
        rest = [t for t in active if t != pivot]
        c = {t: a[pivot][t] for t in rest}
        s = 1 if p > 0 else -1
        for x in rest:
            ax = a[x]
            cx = c[x]
            for y in rest:
                ax[y] = s * (p * ax[y] - cx * c[y])
        active = rest
    return pos, neg, zero


def hessian_signature(lv: LengthVector, subset: int) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia of the reduced form.

    Conjugating by diag(l_j) clears denominators, so the whole reduction
    runs over the integers: the congruent matrix has eps_i L l_i - l_i^2
    on the diagonal and -l_i l_j off it.
    """
    exc = excess(lv, subset)
    if exc <= 0:
        raise SubsetNotLong(f"{indices_of_mask(subset)} is not long")
    l = lv.entries
    eps = _signs(lv, subset)
    m = [
        [
            eps[i] * exc * l[i] - l[i] * l[i] if i == j else -l[i] * l[j]
            for j in range(lv.n)
        ]
        for i in range(lv.n)
    ]
    return _integer_inertia(m)


@dataclass(frozen=True)
class CriticalSubmanifoldData:
    subset: int  # the long representative of the pair {J, complement}
    critical_value: int  # -L_J^2, exact in the integer normal form
    index: int  # (d-1)(n-|J|)
    dim: int  # d-1, the sphere of aligned configurations
    hessian_signature: tuple[int, int, int]


def critical_data(
    lv: LengthVector, d: int, max_n: int | None = None
) -> list[CriticalSubmanifoldData]:
    """One record per complementary pair, labeled by its long side.

    Generic vectors only: a median pair would sit on the zero level and
    the critical structure there is not isolated from the polygon space.
    Sorted by critical value, most negative first.
    """
    if d < 2:
        raise UnsupportedDimension(f"directions need d >= 2, got {d}")
    exc = top_excess(lv, max_n)
    reject_median(lv, exc)
    n = lv.n
    hi = 1 << (n - 1)
    records = []
    for m, e in enumerate(exc.tolist()):
        rep = m | hi if e > 0 else complement_mask(m | hi, n)
        records.append(
            CriticalSubmanifoldData(
                subset=rep,
                critical_value=-e * e,
                index=(d - 1) * (n - rep.bit_count()),
                dim=d - 1,
                hessian_signature=hessian_signature(lv, rep),
            )
        )
    records.sort(key=lambda r: (r.critical_value, mask_key(r.subset)))
    return records


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


def _long_side_sizes(lv: LengthVector, d: int, max_n: int | None) -> list[int]:
    """Number of complementary pairs whose long side has k elements, k = 0..n."""
    if d < 3:
        raise UnsupportedDimension(f"needs d >= 3, got {d}")
    exc = top_excess(lv, max_n)
    reject_median(lv, exc)
    sizes = subset_sizes(lv.n - 1)
    long_sizes = np.where(exc > 0, sizes + 1, lv.n - 1 - sizes)
    return np.bincount(long_sizes, minlength=lv.n + 1).tolist()


def _complement_polynomial(n: int, d: int, by_size: list[int]) -> list[int]:
    coeffs = [0] * ((d - 1) * n + 1)
    for size, count in enumerate(by_size):
        if count:
            base = (d - 1) * (n - size)
            coeffs[base] += count
            coeffs[base + d - 1] += count
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def complement_poincare_polynomial(
    lv: LengthVector, d: int, max_n: int | None = None
) -> list[int]:
    """Poincare polynomial of the off-zero region: each long subset
    contributes t^{(d-1)(n-|J|)} (1 + t^{d-1})."""
    return _complement_polynomial(lv.n, d, _long_side_sizes(lv, d, max_n))


def lacunary_consistency(lv: LengthVector, d: int, max_n: int | None = None) -> bool:
    """Check the complement polynomial against direct size counts.

    The t^{(d-1)k} coefficient must equal the number of long subsets of
    n-k+1 elements plus the number with n-k elements, and nothing may
    appear in degrees not divisible by d-1.
    """
    n = lv.n
    by_size = _long_side_sizes(lv, d, max_n)
    poly = _complement_polynomial(n, d, by_size)
    by_size = by_size + [0]
    padded = poly + [0] * ((d - 1) * n + 1 - len(poly))
    return all(
        padded[(d - 1) * k] == by_size[n - k + 1] + by_size[n - k] for k in range(n + 1)
    ) and all(v == 0 for i, v in enumerate(poly) if i % (d - 1))
