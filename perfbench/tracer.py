"""Outside-in tracer: spans around the package's public functions.

Run as a script, it stands in for ``python -m polygonspaces.cli``::

    python3 perfbench/tracer.py SPANS_OUT RUN_ID -- betti --d 3 --l 1,2,2

It wraps the functions in ``TRACED`` in every ``polygonspaces`` namespace
that holds them (``cli`` and ``cohomology`` import names directly, so
patching only the defining module would miss their calls), runs
``polygonspaces.cli.run`` on the remaining arguments, and writes the
spans and counts it kept in memory to SPANS_OUT when the run ends.  The
package source is not touched, and stdout is exactly what the CLI prints.

Each span is ``[id, name, start, end, parent, run_id]``; counts are derived
from the traced calls' arguments and return values only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "lengths": ("subset_sums", "excess"),
    "chambers": (
        "chamber_signature",
        "same_chamber_up_to_permutation",
        "realize_signature",
        "enumerate_chambers",
    ),
    "exactlp": ("maximize",),
    "cohomology": (
        "classify_pair",
        "betti_table",
        "short_median_counts",
        "ring_presentation",
        "recognize_special",
    ),
    "morse": (
        "hessian_signature",
        "critical_data",
        "find_polygon",
        "jacobian_rank",
        "lacunary_consistency",
    ),
    "cli": ("run",),
}

ROOT_SPAN = "cli.run"


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _count_subset_sums(args, kwargs, result) -> dict:
    return {"entries": len(result)}


def _count_maximize(args, kwargs, result) -> dict:
    constraints = args[1] if len(args) > 1 else kwargs["constraints"]
    bits = max((_bits(q) for q in result.solution), default=0) if result.solution else 0
    return {"rows": len(constraints), "solution_bits_max": bits}


def _count_realize(args, kwargs, result) -> dict:
    return {"feasible": int(result is not None)}


def _count_find_polygon(args, kwargs, result) -> dict:
    # an EmptySpaceCertificate has neither field
    return {
        "sweeps": getattr(result, "sweeps", 0),
        "restarts": getattr(result, "restarts", 0),
    }


#: per-call counts, merged by merge_counts
COUNTERS = {
    "lengths.subset_sums": _count_subset_sums,
    "exactlp.maximize": _count_maximize,
    "chambers.realize_signature": _count_realize,
    "morse.find_polygon": _count_find_polygon,
}


def merge_counts(into: dict[str, int], new: dict[str, int]) -> None:
    """Add counts into a total: "*_max" keys keep the maximum, others sum."""
    for key, value in new.items():
        into[key] = max(into[key], value) if key.endswith("_max") else into[key] + value


class Tracer:
    """Keeps spans and counts in memory for one traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run_id]
            self.spans.append(span)
            self._stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            counts = self.counts[name]
            counts["calls"] += 1
            if counter is not None:
                merge_counts(counts, counter(args, kwargs, result))
            return result

        return traced

    def install(self, package: str = "polygonspaces") -> None:
        """Replace every traced function in every namespace of the package."""
        wrappers = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"{package}.{module}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self.wrap(f"{module}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


# ---------------------------------------------------------------------------
# span arithmetic, used by the benchmark on the dumped spans


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the child intervals cover."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _name, start, end, parent, _run in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered((start, end), children[sid])
        for sid, _name, start, end, _parent, _run in spans
    }


def summarize(spans: list[list]) -> tuple[dict[str, float], float]:
    """Self time per span name, and the total time under root spans."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span[1]] += own[span[0]]
    traced = sum(end - start for _sid, name, start, end, parent, _run in spans if parent is None)
    return dict(by_name), traced


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write("usage: tracer.py SPANS_OUT RUN_ID -- CLI ARGS...\n")
        return 64
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    from polygonspaces import cli

    try:
        code = cli.run(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
