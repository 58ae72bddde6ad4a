"""Shared strategies and independent oracles for the test suite."""

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from hypothesis import assume
from hypothesis import strategies as st

from polygonspaces import (
    LengthVector,
    PairVerdict,
    betti_table,
    chamber_signature,
    indices_of_mask,
    is_generic,
)
from polygonspaces.errors import DimensionMismatch, UnsupportedDimension
from polygonspaces.exactlp import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    Constraint,
    LPResult,
)


@st.composite
def length_vectors(draw, min_n=3, max_n=7, max_entry=30, ordered=False, generic=False):
    n = draw(st.integers(min_n, max_n))
    entries = draw(st.lists(st.integers(1, max_entry), min_size=n, max_size=n))
    if ordered:
        entries = sorted(entries)
    lv = LengthVector(tuple(entries))
    if generic:
        assume(is_generic(lv))
    return lv


def oracle_excess(entries, indices):
    """Direct sum comparison, no bit tricks: for cross-checking."""
    inside = sum(entries[i - 1] for i in indices)
    return inside - (sum(entries) - inside)


def brute_force_signatures(n, bound):
    """Every chamber signature hit by ordered generic integer vectors
    with entries up to `bound`: the census ground truth at small n."""
    found = set()
    for entries in combinations_with_replacement(range(1, bound + 1), n):
        lv = LengthVector(entries)
        if is_generic(lv):
            found.add(chamber_signature(lv))
    return found


#: ordered generic vectors on both sides of the int64/object boundary of
#: the subset scan: 2L = 2^63 - 2 for the first two, 2^63 + 2 for the
#: last two; the second and the fourth have a huge last side
BOUNDARY_VECTORS = [
    (2**59 - 1, 2**59 + 1, 2**59 + 3, 2**60 + 1, 3 * 2**59 - 5),
    (1, 2, 3, 2**62 - 7),
    (2**59 - 1, 2**59 + 1, 2**59 + 3, 2**60 + 1, 3 * 2**59 - 3),
    (1, 2, 3, 2**62 - 5),
]


def oracle_top_excess(entries):
    """Excess of J union {n} for every J inside {1..n-1}, listed by mask."""
    n = len(entries)
    return [
        oracle_excess(entries, [j + 1 for j in range(n - 1) if mask >> j & 1] + [n])
        for mask in range(1 << (n - 1))
    ]


def _index_sets(width, family):
    return {frozenset(j + 1 for j in range(width) if m >> j & 1) for m in family}


def oracle_downward_closed(n, family):
    """Member by member: every deletion of one index and every slide of an
    index down into a free slot just below it stays in the family."""
    width = n - 1
    if any(not 0 <= m < 1 << width for m in family):
        return False
    sets = _index_sets(width, family)
    for s in sets:
        for i in s:
            if s - {i} not in sets:
                return False
            if i > 1 and i - 1 not in s and (s - {i}) | {i - 1} not in sets:
                return False
    return True


def downward_closure(n, masks):
    """Smallest family containing ``masks`` that the oracle accepts."""
    width = n - 1
    found = set()
    todo = list(masks)
    while todo:
        m = todo.pop()
        if m in found:
            continue
        found.add(m)
        for j in range(width):
            if m >> j & 1:
                todo.append(m ^ 1 << j)
                if j and not m >> (j - 1) & 1:
                    todo.append(m ^ 1 << j | 1 << (j - 1))
    return found


def oracle_classify_pair(first, second, d):
    """The pair verdict as computed before per-vector records: both
    signatures and both Betti tables per call, witness by a key per mask."""
    if d < 3:
        raise UnsupportedDimension(f"the classification needs d >= 3, got {d}")
    if first.n != second.n:
        raise DimensionMismatch(f"n={first.n} vs n={second.n}")
    s1 = first.ordered()
    s2 = second.ordered()
    a = set(chamber_signature(s1).masks())
    b = set(chamber_signature(s2).masks())
    same = a == b
    witness = None if same else min(a ^ b, key=indices_of_mask) | 1 << (first.n - 1)
    betti_equal = betti_table(s1, d).dims == betti_table(s2, d).dims
    if same:
        notes = "same chamber after sorting"
    elif betti_equal:
        notes = "different chambers despite identical Betti tables"
    else:
        notes = "different chambers"
    return PairVerdict(same, betti_equal, witness, notes)


def _oracle_pivot(tableau: list[list[Fraction]], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col]:
            factor = r[col]
            prow = tableau[row]
            tableau[i] = [v - factor * p for v, p in zip(r, prow)]


def _oracle_simplex(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> str:
    """Maximize cost.x on a canonical tableau; Bland's rule throughout."""
    m = len(tableau)
    ncols = len(tableau[0]) - 1
    while True:
        duals = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(ncols):
            reduced = cost[j] - sum(duals[i] * tableau[i][j] for i in range(m))
            if reduced > 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        _oracle_pivot(tableau, leaving, entering)
        basis[leaving] = entering


def oracle_maximize(objective: Sequence, constraints: Sequence[Constraint]) -> LPResult:
    """The Fraction-tableau simplex that exactlp.maximize replaced, kept
    verbatim but for reading the integer rows as Fractions: every entry is
    a Fraction and every update pays a gcd.  It
    reads the column count from row 0, so it needs a row to survive phase 1
    (any inequality row does)."""
    obj = [Fraction(c) for c in objective]
    nvars = len(obj)
    rows = []
    for con in constraints:
        if len(con.coeffs) != nvars:
            raise ValueError("constraint width does not match the objective")
        coeffs, rel, rhs = [Fraction(c) for c in con.coeffs], con.relation, Fraction(con.rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}[rel]
        rows.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in rows if rel != EQUAL)
    n_art = sum(1 for _, rel, _ in rows if rel != LESS_EQUAL)
    ncols = nvars + n_slack + n_art
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = nvars
    art_at = nvars + n_slack
    for coeffs, rel, rhs in rows:
        row = coeffs + [Fraction(0)] * (n_slack + n_art) + [rhs]
        if rel == LESS_EQUAL:
            row[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == GREATER_EQUAL:
            row[slack_at] = Fraction(-1)
            slack_at += 1
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        tableau.append(row)

    art_start = nvars + n_slack
    if n_art:
        phase1 = [Fraction(0)] * ncols
        for j in range(art_start, ncols):
            phase1[j] = Fraction(-1)
        _oracle_simplex(tableau, basis, phase1)
        value = sum(tableau[i][-1] for i in range(len(tableau)) if basis[i] >= art_start)
        if value > 0:
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
                    _oracle_pivot(tableau, i, col)
                    basis[i] = col
        tableau = [row[:art_start] + row[-1:] for row in tableau]
        ncols = art_start

    cost = obj + [Fraction(0)] * (ncols - nvars)
    status = _oracle_simplex(tableau, basis, cost)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = tableau[i][-1]
    value = sum(c * v for c, v in zip(obj, x))
    return LPResult(OPTIMAL, value, tuple(x))


# ---------------------------------------------------------------------------
# the congruence eliminator that morse.hessian_signature replaced


def oracle_integer_inertia(matrix: list[list[int]]) -> tuple[int, int, int]:
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


def oracle_hessian_form(entries, subset):
    """The integer form congruent to the reduced Hessian, built entry by
    entry as the old hessian_signature did: eps_i L_J l_i - l_i^2 on the
    diagonal and -l_i l_j off it."""
    n = len(entries)
    exc = oracle_excess(entries, [i + 1 for i in range(n) if subset >> i & 1])
    eps = [1 if subset >> i & 1 else -1 for i in range(n)]
    l = entries
    return [
        [eps[i] * exc * l[i] - l[i] * l[i] if i == j else -l[i] * l[j] for j in range(n)]
        for i in range(n)
    ]
