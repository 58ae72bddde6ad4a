"""Benchmark of the polygonspaces CLI on four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload classify200 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                    # every workload in turn
    python3 perfbench/run.py --record-golden    # rewrite golden.json

Every invocation runs the working tree's CLI, ``python -m polygonspaces.cli``
with ``PYTHONPATH=src``, in a fresh subprocess.  Load is one closed-loop
client: one CLI subprocess at a time, the next started when the last exits.

With ``--trace 0`` it repeats full passes over the workload's invocations,
each after two timed ``--version`` calls (``setup_s``), until the next
pass would overrun ``--seconds``, and reports medians over the passes.  With
``--trace 1`` it alternates untraced passes with passes run under
``tracer.py``, and reports the per-layer breakdown instead.

The speed of a shared virtual CPU drifts by up to 2x over minutes, so the
headline time ``wall_rel`` is the median pass wall divided by the median
time of a fixed pure-Python computation (``reference_s``) timed between the
invocations on the same, pinned CPU.  The seconds themselves are printed as
``wall_s`` and reported by the traced run.

Every output is checked (see ``checks.py``).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from checks import check, digest
from tracer import ROOT_SPAN, TRACED, merge_counts, summarize
from workloads import DEFAULT_SEED, WORKLOADS, Invocation, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"
TRACER = HERE / "tracer.py"

SETUP_SAMPLES_PER_PASS = 2
LAYERS = tuple(m for m in TRACED if m != "cli")

#: end-to-end metrics (--trace 0): name -> unit
END_TO_END = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

_SELF_S = [
    "lengths.subset_sums",
    "chambers.chamber_signature",
    "chambers.same_chamber_up_to_permutation",
    "chambers.realize_signature",
    "chambers.enumerate_chambers",
    "exactlp.maximize",
    "cohomology.classify_pair",
    "cohomology.betti_table",
    "cohomology.short_median_counts",
    "cohomology.ring_presentation",
    "cohomology.recognize_special",
    "morse.hessian_signature",
    "morse.critical_data",
    "morse.find_polygon",
    "morse.jacobian_rank",
    "morse.lacunary_consistency",
]
_COUNTS = {
    "lengths.subset_sums": ("calls", "entries"),
    "lengths.excess": ("calls",),
    "chambers.chamber_signature": ("calls",),
    "chambers.realize_signature": ("calls",),
    "exactlp.maximize": ("calls", "rows"),
    "cohomology.short_median_counts": ("calls",),
    "morse.hessian_signature": ("calls",),
    "morse.find_polygon": ("calls", "sweeps", "restarts"),
}

#: per-layer metrics (--trace 1): name -> unit
PER_LAYER = {
    **{f"{name}.{key}": "count" for name, keys in _COUNTS.items() for key in keys},
    **{f"{name}.self_s": "s" for name in _SELF_S},
    "chambers.realize_signature.feasible_ratio": "ratio",
    "exactlp.maximize.solution_bits_max": "bits",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.child_cpu_s": "s",
    "traced_s": "s",
    "trace_overhead_ratio": "ratio",
    "wall_s": "s",
    "ref_s": "s",
}


@dataclass
class Outcome:
    """One finished CLI subprocess."""

    inv: Invocation
    returncode: int
    maxrss_kb: int
    cpu_s: float
    stdout: str = ""
    stderr: str = ""


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[tuple[list, dict]] = field(default_factory=list)  # (spans, counts)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.maxrss_kb for o in self.outcomes) / 1024

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def output_bytes(self) -> int:
        return sum(len(o.stdout.encode()) for o in self.outcomes)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], out_path: Path, err_path: Path, env: dict) -> tuple[int, float, int, float]:
    """Run argv to completion; (exit code, wall s, max RSS KB, CPU s)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def reference_s() -> float:
    """Wall time of a fixed pure-Python computation in this process.

    It mixes what the CLI's hot paths do: exact rational sums, products of
    big integers, and integer loops.  Timed on the same CPU as the CLI all
    through a run, it tells how fast the host let the benchmark run then.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    big = 1
    for i in range(1, 3000):
        acc += Fraction(i % 97, i % 89 + 1)
        big = big * (i | 1) % (1 << 2048)
    total = 0
    for i in range(80_000):
        total += i * i % 7
    return time.perf_counter() - start


def run_pass(
    invocations: list[Invocation],
    workdir: Path,
    env: dict,
    golden: list[str] | None,
    traced: bool = False,
    between=lambda: None,
) -> Pass:
    """Run every invocation once, in order; check outputs after the clock stops.

    The pass wall is the sum of the invocations' walls; ``between`` runs
    before each invocation, outside them.
    """
    files = []
    outcomes = []
    wall_s = 0.0
    for k, inv in enumerate(invocations):
        out, err, spans = (workdir / f"{k}.{ext}" for ext in ("out", "err", "spans"))
        if traced:
            argv = [sys.executable, str(TRACER), str(spans), str(k), "--", *inv.argv]
        else:
            argv = [sys.executable, "-m", "polygonspaces.cli", *inv.argv]
        between()
        code, wall, rss, cpu = spawn(argv, out, err, env)
        wall_s += wall
        outcomes.append(Outcome(inv, code, rss, cpu))
        files.append((out, err, spans))
    result = Pass(wall_s, outcomes)
    for k, (outcome, (out, err, spans)) in enumerate(zip(outcomes, files)):
        outcome.stdout = out.read_text(encoding="utf-8", errors="replace")
        outcome.stderr = err.read_text(encoding="utf-8", errors="replace")
        expected = golden[k] if golden else None
        found = check(outcome.inv, outcome.returncode, outcome.stdout, outcome.stderr, expected)
        if traced:
            if spans.is_file():
                doc = json.loads(spans.read_text(encoding="utf-8"))
                result.spans.append((doc["spans"], doc["counts"]))
            else:
                found.append("the tracer wrote no spans")
        result.failed += bool(found)
        result.problems += [f"{outcome.inv.command} #{k}: {p}" for p in found]
    return result


def time_version(workdir: Path, env: dict) -> tuple[float, list[str]]:
    """Wall time of ``--version``: interpreter start, package import, parser."""
    out, err = workdir / "version.out", workdir / "version.err"
    code, wall, _, _ = spawn([sys.executable, "-m", "polygonspaces.cli", "--version"], out, err, env)
    if code != 0 or not out.read_text().strip():
        return wall, [f"--version: exit {code}, {err.read_text().strip()[:200]}"]
    return wall, []


def repeat_passes(seconds: float, one_cycle) -> None:
    """Call one_cycle() until the next call would end after the deadline."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        one_cycle()
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return


def layer_metrics(traced: list[Pass], plain: list[Pass]) -> dict[str, float]:
    """Per-layer numbers: medians of times over traced passes, counts of one."""
    per_pass = []
    for p in traced:
        self_s: dict[str, float] = defaultdict(float)
        total = 0.0
        for spans, _counts in p.spans:
            by_name, covered = summarize(spans)
            for name, value in by_name.items():
                self_s[name] += value
            total += covered
        per_pass.append((self_s, total))

    def med(get) -> float:
        return statistics.median(get(s, t) for s, t in per_pass)

    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for _spans, doc in traced[-1].spans:
        for name, new in doc.items():
            merge_counts(counts[name], new)

    metrics: dict[str, float] = {}
    for name, keys in _COUNTS.items():
        for key in keys:
            metrics[f"{name}.{key}"] = counts[name][key]
    for name in _SELF_S:
        metrics[f"{name}.self_s"] = med(lambda s, t: s[name])
    realize = counts["chambers.realize_signature"]
    metrics["chambers.realize_signature.feasible_ratio"] = (
        realize["feasible"] / realize["calls"] if realize["calls"] else 0.0
    )
    metrics["exactlp.maximize.solution_bits_max"] = counts["exactlp.maximize"]["solution_bits_max"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = med(
            lambda s, t: sum(v for k, v in s.items() if k.startswith(layer + "."))
        )
    metrics["cli.self_s"] = med(lambda s, t: s[ROOT_SPAN])
    metrics["cli.output_bytes"] = plain[-1].output_bytes
    metrics["cli.child_cpu_s"] = statistics.median(p.cpu_s for p in plain)
    metrics["traced_s"] = med(lambda s, t: t)
    metrics["trace_overhead_ratio"] = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in plain
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload: correct, attempted, failed, metrics and details."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        env = cli_env()
        invocations = generate(name, seed, workdir)
        golden = None
        if seed == DEFAULT_SEED and GOLDEN.is_file():
            golden = json.loads(GOLDEN.read_text())["digests"][name]
        plain: list[Pass] = []
        traced: list[Pass] = []
        setup: list[float] = []
        refs: list[float] = []
        # the first call fills the bytecode cache and is left out of setup_s
        _, problems = time_version(workdir, env)

        def probe() -> None:
            refs.append(reference_s())

        def cycle() -> None:
            # set-up samples and reference timings are spread over the run
            for _ in range(0 if trace else SETUP_SAMPLES_PER_PASS):
                probe()
                wall, found = time_version(workdir, env)
                setup.append(wall)
                problems.extend(found)
            plain.append(run_pass(invocations, workdir, env, golden, between=probe))
            if trace:
                traced.append(run_pass(invocations, workdir, env, golden, True, probe))
            probe()

        repeat_passes(seconds, cycle)
        failed = len(problems)
        attempted = 1 + len(setup)
        for p in plain + traced:
            problems += p.problems
            attempted += len(p.outcomes)
            failed += p.failed
        wall_s = statistics.median(p.wall_s for p in plain)
        ref_s = statistics.median(refs)
        if trace:
            metrics = layer_metrics(traced, plain)
            metrics.update(wall_s=wall_s, ref_s=ref_s)
            units = PER_LAYER
        else:
            metrics = {
                "wall_rel": wall_s / ref_s,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
                "ok_ratio": 1 - failed / attempted,
            }
            units = END_TO_END
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "passes": len(plain) + len(traced),
            "walls": [p.wall_s for p in plain],
            "ref_s": ref_s,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def report(name: str, result: dict) -> None:
    """Human-readable lines; the JSON line follows them."""
    walls = sorted(result["walls"])
    print(
        f"# {name}: {result['passes']} passes; untraced pass wall over {len(walls)}: "
        f"min {walls[0]:.3f} s, median {statistics.median(walls):.3f} s, max {walls[-1]:.3f} s"
    )
    for problem in result["problems"][:20]:
        print(f"# {name} FAILED {problem}")
    if "wall_s" not in result["metrics"]:
        print(f"{name} wall_s {statistics.median(walls):.6g} s")
        print(f"{name} ref_s {result['ref_s']:.6g} s")
    print(f"{name} failed_ratio {result['failed'] / result['attempted']:.4f} ratio")
    for metric, value in result["metrics"].items():
        print(f"{name} {metric} {value['value']:.6g} {value['unit']}")


def record_golden() -> None:
    """Write the stdout digests of every invocation at the default seed."""
    digests = {}
    WORK.mkdir(exist_ok=True)
    env = cli_env()
    for name in WORKLOADS:
        workdir = WORK / f"golden-{name}"
        workdir.mkdir(exist_ok=True)
        try:
            p = run_pass(generate(name, DEFAULT_SEED, workdir), workdir, env, None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if p.problems:
            raise SystemExit("refusing to record a failing pass: " + "; ".join(p.problems))
        digests[name] = [digest(o.inv.command, o.stdout) for o in p.outcomes]
    WORK.rmdir()
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args()
    # on SIGTERM, unwind: the running child is killed and the work files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the CLI children inherit this one CPU, so the reference computation
    # (see reference_s) and the program under test share it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "polygonspaces" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'polygonspaces'}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    for name, result in results.items():
        report(name, result)
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
