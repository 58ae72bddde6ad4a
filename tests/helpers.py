"""Shared strategies and independent oracles for the test suite."""

from itertools import combinations_with_replacement

from hypothesis import assume
from hypothesis import strategies as st

from polygonspaces import LengthVector, chamber_signature, is_generic


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
