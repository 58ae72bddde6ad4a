"""Exact linear programming on integer rows: dense two-phase simplex.

Coefficients, right-hand sides and objectives are integers; the optimum
and its vertex come back as exact rationals.  A row with a negative
right-hand side is negated first, which swaps <= and >=.  The tableau's
columns are then four blocks, each in row order:

- the variables;
- one slack per inequality: +1 on a <= row, -1 on a >= row;
- one artificial per row that is not <=: +1 on its row;
- the right-hand side.

The starting basis is the slack of every <= row and the artificial of
every other row.  Phase 1 always runs: it maximizes minus the sum of the
artificials, and with no artificials its cost is zero, so it stops before
any pivot.  Phase 2 drops the artificial block.  Bland's rule enters the
lowest eligible column index, so this order fixes the pivot sequence.

The tableau is held as integer rows over one shared positive
denominator d, and pivots are fraction-free (Bareiss 1968, Edmonds).
The starting basis is the identity, so d = 1 at first.  Every later
tableau is +-adj(B) A over d = |det B| for the current basis B.  A pivot
divides an integer combination of two rows by the previous d, and the
quotient is an entry of +-adj(B') A for the next basis B', so by
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
    rows: list[list[int]], basis: list[int], d: int, cost: list[int]
) -> tuple[str, int]:
    """Maximize cost.x on the canonical tableau rows/d, whose columns are
    those of cost and then the right-hand side; Bland's rule throughout.
    Returns the status and the final denominator."""
    while True:
        priced = [(cost[b], row) for b, row in zip(basis, rows) if cost[b]]
        entering = next(
            (j for j in range(len(cost)) if d * cost[j] > sum(y * row[j] for y, row in priced)),
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
    rows = []  # (coeffs, slack entry: +1 on <=, -1 on >=, 0 on =; rhs >= 0)
    for con in constraints:
        if len(con.coeffs) != nvars:
            raise ValueError("constraint width does not match the objective")
        flip = -1 if con.rhs < 0 else 1
        sign = {LESS_EQUAL: flip, GREATER_EQUAL: -flip, EQUAL: 0}[con.relation]
        rows.append(([flip * c for c in con.coeffs], sign, flip * con.rhs))

    slacks = [i for i, (_, sign, _) in enumerate(rows) if sign]
    arts = [i for i, (_, sign, _) in enumerate(rows) if sign != 1]
    art_start = nvars + len(slacks)
    tableau = [coeffs + [0] * (len(slacks) + len(arts)) + [rhs] for coeffs, _, rhs in rows]
    basis = [0] * len(rows)
    for j, i in enumerate(slacks, nvars):
        tableau[i][j] = rows[i][1]
        basis[i] = j
    for j, i in enumerate(arts, art_start):  # a >= row's artificial replaces its slack
        tableau[i][j] = 1
        basis[i] = j

    phase1 = [0] * art_start + [-1] * len(arts)
    _, d = _simplex(tableau, basis, 1, phase1)
    if any(row[-1] > 0 for row, b in zip(tableau, basis) if b >= art_start):
        return LPResult(INFEASIBLE)
    # pivot lingering degenerate artificials out, dropping redundant rows
    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] >= art_start:
            col = next((j for j in range(art_start) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i]
                del basis[i]
            else:
                d = _pivot(tableau, d, i, col)
                basis[i] = col
    tableau = [row[:art_start] + row[-1:] for row in tableau]

    cost = obj + [0] * (art_start - nvars)
    status, d = _simplex(tableau, basis, d, cost)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * nvars
    for row, b in zip(tableau, basis):
        if b < nvars:
            x[b] = Fraction(row[-1], d)
    value = sum(c * v for c, v in zip(obj, x))
    return LPResult(OPTIMAL, value, tuple(x))
