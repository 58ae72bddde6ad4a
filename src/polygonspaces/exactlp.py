"""Exact linear programming on integer rows: dense two-phase simplex.

Coefficients, right-hand sides and objectives are integers; the optimum
and its vertex come back as exact rationals.  The tableau is held as
integer rows over one shared positive denominator d, and pivots are
fraction-free (Bareiss 1968, Edmonds).  Slack and artificial entries are
+-1, so the starting basis is the identity and d = 1.  Every later
tableau is then +-adj(B) A over d = |det B| for the current basis B.  A
pivot divides an integer combination of two rows by the previous d, and
the quotient is an entry of +-adj(B') A for the next basis B', so by
Sylvester's identity the division is exact.  Dropping a redundant row
keeps this: its artificial would stay basic, and the row would take no
part in later pivots.  Feasibility, infeasibility and optimality are thus
certified exactly without a single gcd inside the pivot loop.  Bland's
rule guarantees termination.  Intended for the small strict-feasibility
systems of the chamber module, not for large programs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[int, ...]
    relation: str
    rhs: int


def constraint(coeffs: Sequence[int], relation: str, rhs: int) -> Constraint:
    """An integer row; a Fraction or float coefficient raises TypeError."""
    if relation not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
        raise ValueError(f"unknown relation {relation!r}")
    return Constraint(tuple(map(operator.index, coeffs)), relation, operator.index(rhs))


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None


def _pivot(rows: list[list[int]], d: int, r: int, c: int) -> int:
    """Pivot the tableau rows/d on entry (r, c); return the new denominator.

    Row r stays as it is over the new denominator p = rows[r][c]; every
    other row becomes (p*row - row[c]*rows[r]) / d.  The division is exact
    by Sylvester's identity.  A negative p negates the tableau, so the
    denominator stays positive.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        elif p != d:
            rows[i] = [p * v // d for v in row]
    if p < 0:
        rows[:] = [[-v for v in row] for row in rows]
        p = -p
    return p


def _simplex(
    rows: list[list[int]], basis: list[int], d: int, cost: list[int], ncols: int
) -> tuple[str, int]:
    """Maximize cost.x on the canonical tableau rows/d; Bland's rule
    throughout.  Returns the status and the final denominator."""
    while True:
        priced = [(cost[b], row) for b, row in zip(basis, rows) if cost[b]]
        entering = next(
            (j for j in range(ncols) if d * cost[j] > sum(y * row[j] for y, row in priced)),
            -1,
        )
        if entering < 0:
            return OPTIMAL, d
        # least ratio rhs/a over a > 0, compared by cross-multiplying;
        # ties go to the smallest basic index
        leaving = -1
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                lhs = row[-1] * rows[leaving][entering]
                rhs = rows[leaving][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, d
        d = _pivot(rows, d, leaving, entering)
        basis[leaving] = entering


def maximize(objective: Sequence[int], constraints: Sequence[Constraint]) -> LPResult:
    """Solve max objective.x subject to the constraints and x >= 0."""
    obj = list(map(operator.index, objective))
    nvars = len(obj)
    rows = []
    for con in constraints:
        if len(con.coeffs) != nvars:
            raise ValueError("constraint width does not match the objective")
        coeffs, rel, rhs = list(con.coeffs), con.relation, con.rhs
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}[rel]
        rows.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in rows if rel != EQUAL)
    n_art = sum(1 for _, rel, _ in rows if rel != LESS_EQUAL)
    ncols = nvars + n_slack + n_art
    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_at = nvars
    art_at = nvars + n_slack
    for coeffs, rel, rhs in rows:
        row = coeffs + [0] * (n_slack + n_art) + [rhs]
        if rel == LESS_EQUAL:
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif rel == GREATER_EQUAL:
            row[slack_at] = -1
            slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        tableau.append(row)
    d = 1

    art_start = nvars + n_slack
    if n_art:
        phase1 = [0] * art_start + [-1] * n_art
        _, d = _simplex(tableau, basis, d, phase1, ncols)
        if any(row[-1] > 0 for row, b in zip(tableau, basis) if b >= art_start):
            return LPResult(INFEASIBLE)
        # pivot lingering degenerate artificials out, dropping redundant rows
        for i in range(len(tableau) - 1, -1, -1):
            if basis[i] >= art_start:
                col = next(
                    (j for j in range(art_start) if tableau[i][j] != 0), None
                )
                if col is None:
                    del tableau[i]
                    del basis[i]
                else:
                    d = _pivot(tableau, d, i, col)
                    basis[i] = col
        tableau = [row[:art_start] + row[-1:] for row in tableau]
        ncols = art_start

    cost = obj + [0] * (ncols - nvars)
    status, d = _simplex(tableau, basis, d, cost, ncols)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * nvars
    for row, b in zip(tableau, basis):
        if b < nvars:
            x[b] = Fraction(row[-1], d)
    value = sum(c * v for c, v in zip(obj, x))
    return LPResult(OPTIMAL, value, tuple(x))
