import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import oracle_maximize
from polygonspaces import exactlp
from polygonspaces.exactlp import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    constraint,
    maximize,
)


def test_simple_optimum():
    res = maximize([1, 1], [constraint([1, 1], LESS_EQUAL, 1)])
    assert res.status == OPTIMAL
    assert res.objective == 1
    assert sum(res.solution) == 1


def test_vertex_solution_is_exact():
    res = maximize(
        [3, 5],
        [
            constraint([1, 0], LESS_EQUAL, 4),
            constraint([0, 2], LESS_EQUAL, 12),
            constraint([3, 2], LESS_EQUAL, 18),
        ],
    )
    assert res.status == OPTIMAL
    assert res.objective == Fraction(36)
    assert res.solution == (Fraction(2), Fraction(6))


def test_infeasible():
    res = maximize(
        [1],
        [constraint([1], LESS_EQUAL, 1), constraint([1], GREATER_EQUAL, 2)],
    )
    assert res.status == INFEASIBLE


def test_unbounded():
    res = maximize([1], [constraint([1], GREATER_EQUAL, 1)])
    assert res.status == UNBOUNDED


def test_equality_and_fractions():
    # max z st x + y = 1, x - z >= 1/2, x <= 3/4: optimum z = 1/4 at x = 3/4
    res = maximize(
        [0, 0, 1],
        [
            constraint([1, 1, 0], EQUAL, 1),
            constraint([2, 0, -2], GREATER_EQUAL, 1),
            constraint([4, 0, 0], LESS_EQUAL, 3),
        ],
    )
    assert res.status == OPTIMAL
    assert res.objective == Fraction(1, 4)
    assert res.solution[0] == Fraction(3, 4)


def test_forced_slack_zero():
    # max z st x + y = 1, x - y - z >= 0, x + z <= 1/2 forces z = 0
    res = maximize(
        [0, 0, 1],
        [
            constraint([1, 1, 0], EQUAL, 1),
            constraint([1, -1, -1], GREATER_EQUAL, 0),
            constraint([2, 0, 2], LESS_EQUAL, 1),
        ],
    )
    assert res.status == OPTIMAL
    assert res.objective == 0


def test_degenerate_cycling_guard():
    # Beale's example cycles under the naive most-negative rule; its
    # objective is scaled by 100 and its rows by 100 and 50
    res = maximize(
        [75, -15000, 2, -600],
        [
            constraint([25, -6000, -4, 900], LESS_EQUAL, 0),
            constraint([25, -4500, -1, 150], LESS_EQUAL, 0),
            constraint([0, 0, 1, 0], LESS_EQUAL, 1),
        ],
    )
    assert res.status == OPTIMAL
    assert res.objective == 5


def test_redundant_equalities():
    res = maximize(
        [1, 1],
        [
            constraint([1, 1], EQUAL, 1),
            constraint([2, 2], EQUAL, 2),
            constraint([3, 0], LESS_EQUAL, 1),
        ],
    )
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_negative_rhs_normalization():
    res = maximize([1], [constraint([-1], LESS_EQUAL, -2), constraint([1], LESS_EQUAL, 5)])
    assert res.status == OPTIMAL
    assert res.objective == 5
    # and the lower bound really is active
    res2 = maximize([-1], [constraint([-1], LESS_EQUAL, -2)])
    assert res2.objective == -2


@pytest.mark.parametrize("trial", range(40))
def test_random_against_scipy(trial):
    rng = np.random.default_rng(991 + trial)
    nvars = int(rng.integers(2, 5))
    ncons = int(rng.integers(2, 6))
    obj = rng.integers(-5, 6, size=nvars)
    rows = rng.integers(-4, 5, size=(ncons, nvars))
    rhs = rng.integers(0, 9, size=ncons)
    cons = [constraint(list(map(int, rows[i])), LESS_EQUAL, int(rhs[i])) for i in range(ncons)]
    # cap every variable so the instance is never unbounded
    cons += [
        constraint([1 if j == i else 0 for j in range(nvars)], LESS_EQUAL, 10)
        for i in range(nvars)
    ]
    exact = maximize([int(c) for c in obj], cons)
    ref = linprog(
        -obj,
        A_ub=np.vstack([rows, np.eye(nvars)]),
        b_ub=np.concatenate([rhs, np.full(nvars, 10)]),
        bounds=[(0, None)] * nvars,
        method="highs",
    )
    assert exact.status == OPTIMAL
    assert ref.status == 0
    assert abs(float(exact.objective) - (-ref.fun)) < 1e-9


def test_solution_satisfies_all_constraints():
    cons = [
        constraint([1, 2, 3], LESS_EQUAL, 7),
        constraint([1, -1, 0], GREATER_EQUAL, 1),
        constraint([0, 1, 1], EQUAL, 2),
    ]
    res = maximize([2, 1, -1], cons)
    assert res.status == OPTIMAL
    x = res.solution
    assert x[0] + 2 * x[1] + 3 * x[2] <= 7
    assert x[0] - x[1] >= 1
    assert x[1] + x[2] == 2
    assert all(v >= 0 for v in x)


@pytest.mark.parametrize(
    "objective,constraints,status",
    [
        ([1], [], UNBOUNDED),
        ([0], [], OPTIMAL),
        ([1], [constraint([0], EQUAL, 0)], UNBOUNDED),
        ([-1], [constraint([0], EQUAL, 0)], OPTIMAL),
    ],
    ids=["no-rows-up", "no-rows-flat", "dropped-row-up", "dropped-row-down"],
)
def test_no_rows_left(objective, constraints, status):
    # phase 1 drops a redundant 0 = 0 row, leaving an empty tableau
    res = maximize(objective, constraints)
    assert res.status == status
    if status == OPTIMAL:
        assert res.objective == 0
        assert res.solution == (0,)


def _integral(values):
    """The values times the lcm of their denominators."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    return [int(v * scale) for v in values]


def _random_lp(rng):
    """Mixed <=, >=, = rows drawn with fractional coefficients, mostly
    feasible at a random point x0 (often tightly, so degenerate), with
    redundant scaled copies of equalities and right-hand sides of either
    sign; each row and the objective are then cleared of denominators."""

    # half the programs are 0/1-like, as in the census, where ratio ties
    # are common
    small = rng.random() < 0.5

    def frac():
        if small:
            return Fraction(rng.randint(-1, 1), rng.choice([1, 1, 2]))
        if rng.random() < 0.5:
            return Fraction(rng.randint(-2, 2))
        return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6]))

    nvars = rng.randint(1, 5)
    x0 = [max(frac(), Fraction(0)) for _ in range(nvars)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [frac() for _ in range(nvars)]
        rel = rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL])
        at_x0 = sum(c * v for c, v in zip(coeffs, x0))
        if rng.random() < 0.15:
            rhs = frac()
        elif rel == EQUAL or rng.random() < 0.4:
            rhs = at_x0
        else:
            margin = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            rhs = at_x0 + margin if rel == LESS_EQUAL else at_x0 - margin
        rows.append((coeffs, rel, rhs))
    for coeffs, rel, rhs in list(rows):
        if rel == EQUAL and rng.random() < 0.5:
            k = Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.randint(1, 3))
            rows.append(([k * c for c in coeffs], EQUAL, k * rhs))
    if rng.random() < 0.7:
        rows += [
            ([Fraction(int(j == i)) for j in range(nvars)], LESS_EQUAL, 5)
            for i in range(nvars)
        ]
    # the oracle needs a row that survives phase 1
    rows.append(([Fraction(0)] * nvars, LESS_EQUAL, 1))
    rng.shuffle(rows)
    # a zero objective returns the phase 1 vertex and one parallel to a row
    # has a whole optimal face, so either exposes a different pivot path
    pick = rng.random()
    if pick < 0.25:
        objective = [0] * nvars
    elif pick < 0.5:
        coeffs, rel, _ = rng.choice(rows)
        sign = -1 if rel == GREATER_EQUAL else 1
        objective = [sign * c for c in coeffs]
    else:
        objective = [frac() for _ in range(nvars)]
    cons = []
    for coeffs, rel, rhs in rows:
        *coeffs, rhs = _integral(coeffs + [rhs])
        cons.append(constraint(coeffs, rel, rhs))
    return _integral(objective), cons


def test_matches_fraction_oracle():
    # the integer tableau must take every decision of the Fraction one:
    # same status, objective and vertex.  A different ratio-test tie-break
    # changes the vertex of only a few programs in 1,500, hence the count.
    rng = random.Random(7)
    statuses = set()
    for _ in range(1500):
        objective, constraints = _random_lp(rng)
        res = maximize(objective, constraints)
        assert res == oracle_maximize(objective, constraints)
        statuses.add(res.status)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 1.0])
def test_rows_are_integers(bad):
    with pytest.raises(TypeError):
        constraint([1, bad], LESS_EQUAL, 1)
    with pytest.raises(TypeError):
        constraint([1, 1], LESS_EQUAL, bad)
    with pytest.raises(TypeError):
        maximize([1, bad], [constraint([1, 1], LESS_EQUAL, 1)])


@pytest.mark.parametrize("w", [3, 4, 8, 31, 61, 64, 200])
def test_packed_fields_round_trip(w):
    # the widest fields the Hadamard width admits, next to negative
    # neighbours, so every field below borrows from the one above
    top = (1 << (w - 1)) - 1
    values = [top - 1, -1, -(top - 1), top, -top, -1, 0, top - 1, -1, 1, -(top - 1)]
    row = exactlp._pack(values, w)
    assert [exactlp._field(row, k, w) for k in range(len(values))] == values
    assert [exactlp._field(-row, k, w) for k in range(len(values))] == [-v for v in values]


@pytest.mark.parametrize("scale", [2**61 - 1, 10**30])
def test_scaled_rows_match_oracle(scale):
    # rows scaled up by a large factor of either sign, the relation flipped
    # with the sign, describe the same program; the field width grows with
    # the entries, and both the oracle and the unscaled program agree
    flipped = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}
    rng = random.Random(scale % 1009)
    for _ in range(150):
        objective, constraints = _random_lp(rng)
        scaled = []
        for con in constraints:
            k = rng.choice([1, scale, -scale])
            rel = flipped[con.relation] if k < 0 else con.relation
            scaled.append(constraint([k * c for c in con.coeffs], rel, k * con.rhs))
        if rng.random() < 0.3:
            objective = [scale * c for c in objective]
        res = maximize(objective, scaled)
        assert res == oracle_maximize(objective, scaled)
        plain = maximize(objective, constraints)
        assert (res.status, res.objective) == (plain.status, plain.objective)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: constraint([1], "<", 1), "unknown relation '<'"),
        (lambda: maximize([1, 1], [constraint([1], LESS_EQUAL, 1)]),
         "constraint width does not match the objective"),
    ],
    ids=["relation", "width"],
)
def test_argument_guards(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
