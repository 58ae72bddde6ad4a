"""Seeded workload generator.

Each workload is a list of CLI invocations of ``python -m polygonspaces.cli``.
The inputs (vector files and ``--l`` arguments) are drawn from
``random.Random(seed)`` only, so the same seed gives byte-identical inputs,
and the program under test sees nothing but these generated inputs.

Every drawn vector is generic (no subset sums to half the perimeter) and
has a nonempty polygon space, so every invocation is expected to exit 0.
Genericity is decided here with an independent subset-sum bitset, not by
the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 3

#: scaled from the 200-vector file of the ROADMAP baseline so that several
#: passes fit in one run; the O(k^2) pair loop and its per-call overhead stay
CLASSIFY_VECTORS = 80
WIDE_N = 21  # the compare pair: 2^20 masks per scan
WIDE_SMALL_N = 20  # the betti and ring vectors
CENSUS_N = 7
CENSUS_COUNT = 135  # Hausmann-Rodriguez chamber count for n = 7


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and what the checker should expect."""

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def is_generic(entries: list[int]) -> bool:
    """True when no subset of ``entries`` sums to exactly half the total."""
    total = sum(entries)
    if total % 2:
        return True
    reach = 1  # bit s set <=> some subset sums to s
    for e in entries:
        reach |= reach << e
    return not reach >> (total // 2) & 1


def draw_vector(rng: random.Random, n: int, high: int) -> list[int]:
    """A generic vector of n entries in 1..high with a nonempty space."""
    while True:
        v = [rng.randint(1, high) for _ in range(n)]
        if 2 * max(v) < sum(v) and is_generic(v):
            return v


def _fmt(v: list[int]) -> str:
    return ",".join(str(e) for e in v)


def classify200(rng: random.Random, workdir: Path) -> list[Invocation]:
    # Many narrow scans: every pair recomputes both 9-gon signatures and
    # Betti tables, so per-call overhead and the O(k^2) recompute dominate.
    # exactlp and morse stay idle.
    lines = [_fmt(draw_vector(rng, 9, 60)) for _ in range(CLASSIFY_VECTORS)]
    path = workdir / "classify200.txt"
    path.write_text("# generated 9-gons, one per line\n" + "\n".join(lines) + "\n")
    return [
        Invocation(
            ("classify-file", "--file", str(path), "--d", "3", "--json"),
            {"vectors": len(lines)},
        )
    ]


def census7(rng: random.Random, workdir: Path) -> list[Invocation]:
    # The exact LP is nearly all of the time (161 LPs, 135 feasible); the
    # subset scans are almost idle.  There is nothing to seed.  n = 8 takes
    # minutes and is too long to repeat.
    return [
        Invocation(
            ("census", "--n", str(CENSUS_N), "--json"), {"count": CENSUS_COUNT}
        )
    ]


def wide_scan(rng: random.Random, workdir: Path) -> list[Invocation]:
    # A few huge scans instead of many narrow ones: the same layers as
    # classify200 used the opposite way, plus the peak memory of the scan
    # tables.  The text-mode betti path also runs recognize_special.
    a = draw_vector(rng, WIDE_N, 10**6)
    b = draw_vector(rng, WIDE_N, 10**6)
    c = draw_vector(rng, WIDE_SMALL_N, 10**6)
    r = draw_vector(rng, WIDE_SMALL_N, 10**6)
    return [
        Invocation(("compare", "--d", "3", "--json", "--l", _fmt(a), "--l2", _fmt(b))),
        Invocation(("betti", "--d", "3", "--l", _fmt(c))),
        Invocation(("ring", "--d", "3", "--json", "--l", _fmt(r))),
    ]


def verify_inertia(rng: random.Random, workdir: Path) -> list[Invocation]:
    # Exact Hessian inertia over every long subset (3,584 signatures);
    # the 10^6 entries of the n = 11 vector make the entries' bit growth
    # visible.  The only workload that measures the morse layer.
    specs = [(10, 60, 3), (11, 10**6, 3), (12, 60, 4)]
    return [
        Invocation(
            ("verify", "--json", "--d", str(d), "--l", _fmt(draw_vector(rng, n, high)))
        )
        for n, high, d in specs
    ]


WORKLOADS = {
    "classify200": classify200,
    "census7": census7,
    "wide_scan": wide_scan,
    "verify_inertia": verify_inertia,
}


def generate(name: str, seed: int, workdir: Path) -> list[Invocation]:
    """The invocations of workload ``name`` for ``seed``; files go in workdir."""
    return WORKLOADS[name](random.Random(seed), workdir)
