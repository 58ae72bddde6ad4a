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

Each row is packed into one Python int of signed w-bit fields, the row's
value being sum(v_k << k*w): field 0 is the right-hand side and field
j + 1 is column j.  The reduced costs d*c - sum(c_b * row_b) are one more
such row, carried through the pivots like the others, so pricing is one
addition and one mask: a field is positive exactly when its top bit is set
after adding 2^(w-1) - 1 to every field, and Bland's column is the lowest
such bit.  Field 0 of that row is -d times the objective at the current
basis, so at the end it holds the optimum, and after phase 1 its sign
decides feasibility.  The width comes from Hadamard's bound on the
starting rows, the right-hand side included, stacked on one cost row (the
larger of the two phases'): every entry of every tableau and reduced-cost
row is +- a minor of that matrix, so |v| < 2^(w-1) holds throughout for
any integer input.  Then the fields below field k sum to less than
2^(k*w-1) in absolute value, and rounding the row at bit k*w reads field
k exactly.  A pivot is (p*R - f*P) // d on whole rows: every field of
p*R - f*P is a multiple of d, so the packed quotient is exact too.
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


def _pack(values: Sequence[int], w: int) -> int:
    """The row whose field k is values[k]."""
    return sum(v << k * w for k, v in enumerate(values))


def _field(row: int, k: int, w: int) -> int:
    """Field k of a packed row: round off the fields below it, then read
    the low w bits as a signed value."""
    half = 1 << (w - 1)
    if k:
        row = ((row >> (k * w - 1)) + 1) >> 1
    return ((row + half) & ((half << 1) - 1)) - half


def _pivot(rows: list[int], d: int, r: int, col: list[int]) -> int:
    """Pivot the packed rows/d on row r, where col holds every row's entry
    in the entering column; return the new denominator.

    Row r stays as it is over the new denominator p = col[r]; every other
    row R becomes (p*R - f*rows[r]) / d for its entry f.  The division is
    exact by Sylvester's identity.  A negative p negates the tableau, so
    the denominator stays positive.
    """
    prow = rows[r]
    p = col[r]
    for i, f in enumerate(col):
        if i != r and (f or p != d):
            rows[i] = (p * rows[i] - f * prow) // d
    if p < 0:
        rows[:] = [-row for row in rows]
        p = -p
    return p


def _simplex(
    rows: list[int], basis: list[int], d: int, w: int, cost: list[int]
) -> tuple[str, int, int]:
    """Maximize cost.x on the canonical packed tableau rows/d; Bland's rule
    throughout.  Prices with one more row, d*c - sum(c_b * row_b), which is
    popped at the end.  Returns the status, the final denominator and minus
    field 0 of that row: d times the objective at the final basis."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    ones = ((1 << (len(cost) + 1) * w) - 1) // mask  # a 1 in every field
    bias = (half - 1) * ones
    signs = half * ones ^ half  # the top bit of every field but the rhs
    rows.append(d * _pack([0] + cost, w) - sum(cost[b] * row for b, row in zip(basis, rows)))
    while True:
        positive = (rows[-1] + bias) & signs
        if not positive:
            return OPTIMAL, d, -_field(rows.pop(), 0, w)
        k = ((positive & -positive).bit_length() - 1) // w
        shift = k * w - 1  # _field(row, k, w), inlined
        col = [((((row >> shift) + 1) >> 1) + half & mask) - half for row in rows]
        # least ratio rhs/a over a > 0, compared by cross-multiplying;
        # ties go to the smallest basic index
        leaving = -1
        for i, a in enumerate(col[:-1]):
            if a > 0:
                rhs = _field(rows[i], 0, w)
                if leaving < 0:
                    leaving, least_rhs, least_a = i, rhs, a
                    continue
                lhs, bound = rhs * least_a, least_rhs * a
                if lhs < bound or (lhs == bound and basis[i] < basis[leaving]):
                    leaving, least_rhs, least_a = i, rhs, a
        if leaving < 0:
            return UNBOUNDED, d, -_field(rows.pop(), 0, w)
        d = _pivot(rows, d, leaving, col)
        basis[leaving] = k - 1


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
    # Hadamard: a minor is at most the root of the product of the squared
    # norms of its matrix's rows, so |v| < 2^(w-1) for every field v
    squares = max(1, len(arts), sum(c * c for c in obj))
    for coeffs, sign, rhs in rows:  # every row has a slack or an artificial
        squares *= rhs * rhs + sum(c * c for c in coeffs) + (sign != 0) + (sign != 1)
    w = (squares.bit_length() + 1) // 2 + 1

    tableau = [_pack([rhs] + coeffs, w) for coeffs, _, rhs in rows]
    basis = [0] * len(rows)
    for j, i in enumerate(slacks, nvars):
        tableau[i] += rows[i][1] << (j + 1) * w
        basis[i] = j
    for j, i in enumerate(arts, art_start):  # a >= row's artificial replaces its slack
        tableau[i] += 1 << (j + 1) * w
        basis[i] = j

    # below zero, some artificial stays positive: no point satisfies every row
    _, d, value = _simplex(tableau, basis, 1, w, [0] * art_start + [-1] * len(arts))
    if value < 0:
        return LPResult(INFEASIBLE)
    # pivot lingering degenerate artificials out, dropping redundant rows
    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] >= art_start:
            # the lowest nonzero field past the rhs holds the lowest set bit
            rest = tableau[i] - _field(tableau[i], 0, w)
            k = ((rest & -rest).bit_length() - 1) // w
            if not 0 < k <= art_start:
                del tableau[i]
                del basis[i]
            else:
                d = _pivot(tableau, d, i, [_field(row, k, w) for row in tableau])
                basis[i] = k - 1
    # keep fields 0..art_start: the signed value of the low bits
    top = 1 << ((art_start + 1) * w - 1)
    tableau = [((row + top) & ((top << 1) - 1)) - top for row in tableau]

    status, d, value = _simplex(tableau, basis, d, w, obj + [0] * (art_start - nvars))
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * nvars
    for row, b in zip(tableau, basis):
        if b < nvars:
            x[b] = Fraction(_field(row, 0, w), d)
    return LPResult(OPTIMAL, Fraction(value, d), tuple(x))
