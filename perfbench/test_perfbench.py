"""Tests of the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import self_times, summarize
from workloads import Invocation, generate


def cli(*argv: str) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "polygonspaces.cli", *argv],
        capture_output=True,
        text=True,
        env=run.cli_env(),
        cwd=run.ROOT,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# span arithmetic

# root [0,10] holds a [1,4] and b [5,9]; a holds c [2,3]; b holds d [5,6]
# and e [5.5,7], which overlap; f [8,12] runs past the end of b
TREE = [
    [0, "cli.run", 0.0, 10.0, None, "r"],
    [1, "mod.a", 1.0, 4.0, 0, "r"],
    [2, "mod.c", 2.0, 3.0, 1, "r"],
    [3, "mod.b", 5.0, 9.0, 0, "r"],
    [4, "mod.d", 5.0, 6.0, 3, "r"],
    [5, "mod.e", 5.5, 7.0, 3, "r"],
    [6, "mod.f", 8.0, 12.0, 3, "r"],
]


def test_self_time_subtracts_covered_child_time():
    own = self_times(TREE)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.5, 6: 4.0})


def test_summarize_groups_by_name_and_sums_roots():
    second_root = [[7, "cli.run", 20.0, 21.0, None, "s"], [8, "mod.a", 20.25, 20.5, 7, "s"]]
    by_name, traced = summarize(TREE + second_root)
    assert by_name["cli.run"] == pytest.approx(3.75)
    assert by_name["mod.a"] == pytest.approx(2.25)
    assert traced == pytest.approx(11.0)


def test_tracer_patches_every_namespace(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(run.TRACER), str(spans_path), "7", "--",
         "compare", "--d", "3", "--json", "--l", "1,2,2,2,4,4", "--l2", "1,1,3,4,8,8"],
        capture_output=True, text=True, env=run.cli_env(), cwd=run.ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["witness"] == [1, 4, 6]
    doc = json.loads(spans_path.read_text())
    names = {s[0]: s[1] for s in doc["spans"]}
    parent_of = {s[1]: names.get(s[4]) for s in doc["spans"]}
    # classify_pair is looked up in cli, chamber_signature in chambers
    assert parent_of["cohomology.classify_pair"] == "cli.run"
    assert parent_of["chambers.chamber_signature"] == "chambers.same_chamber_up_to_permutation"
    assert parent_of["cohomology.short_median_counts"] == "cohomology.betti_table"
    assert {s[5] for s in doc["spans"]} == {"7"}
    assert doc["counts"]["lengths.subset_sums"] == {"calls": 4, "entries": 4 * 32}


# ---------------------------------------------------------------------------
# generator


def _inputs(name: str, seed: int, workdir: Path) -> list:
    workdir.mkdir()
    out = []
    for inv in generate(name, seed, workdir):
        out.append([Path(a).read_text() if a.startswith(str(workdir)) else a for a in inv.argv])
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    assert _inputs(name, 5, tmp_path / "a") == _inputs(name, 5, tmp_path / "b")


@pytest.mark.parametrize("name", ["classify200", "wide_scan", "verify_inertia"])
def test_generator_differs_across_seeds(tmp_path, name):
    assert _inputs(name, 5, tmp_path / "a") != _inputs(name, 6, tmp_path / "b")


def test_is_generic_matches_brute_force():
    rng = workloads.random.Random(1)
    for _ in range(300):
        v = [rng.randint(1, 9) for _ in range(rng.randint(3, 7))]
        half = sum(v) / 2
        median = any(
            sum(c) == half for k in range(len(v) + 1) for c in combinations(v, k)
        )
        assert workloads.is_generic(v) is not median


# ---------------------------------------------------------------------------
# checker

VECTORS = ["1,2,2,2,4,4", "1,1,3,4,8,8", "2,4,4,4,8,8", "1,2,3,5,6,8"]


@pytest.fixture(scope="module")
def classify_output(tmp_path_factory):
    path = tmp_path_factory.mktemp("classify") / "vectors.txt"
    path.write_text("\n".join(VECTORS) + "\n")
    inv = Invocation(("classify-file", "--file", str(path), "--d", "3", "--json"), {"vectors": 4})
    code, out, err = cli(*inv.argv)
    assert code == 0, err
    return inv, out


@pytest.fixture(scope="module")
def verify_output():
    inv = Invocation(("verify", "--json", "--d", "3", "--l", "1,2,2,2,4,4"))
    code, out, err = cli(*inv.argv)
    assert code == 0, err
    return inv, out


def test_checker_accepts_real_outputs(classify_output, verify_output):
    for inv, out in (classify_output, verify_output):
        assert checks.check(inv, 0, out, "", checks.digest(inv.command, out)) == []


def test_checker_accepts_census_and_text_betti():
    inv = Invocation(("census", "--n", "5", "--json"), {"count": 7})
    code, out, _ = cli(*inv.argv)
    assert checks.check(inv, code, out, "") == []
    inv = Invocation(("betti", "--d", "3", "--l", "1,2,2,2,4,4"))
    code, out, _ = cli(*inv.argv)
    assert checks.check(inv, code, out, "") == []


def test_checker_rejects_nonzero_exit_and_traceback(verify_output):
    inv, out = verify_output
    assert checks.check(inv, 1, out, "error: bad input\n")
    assert checks.check(inv, 0, out, "Traceback (most recent call last):\n  ...\nKeyError: 1\n")


def test_checker_rejects_tampered_matrix(classify_output):
    inv, out = classify_output
    doc = json.loads(out)
    doc["diffeomorphic"][0][1] = not doc["diffeomorphic"][0][1]
    assert checks.check(inv, 0, json.dumps(doc), "")


def test_checker_rejects_tampered_signature(verify_output):
    inv, out = verify_output
    doc = json.loads(out)
    doc["critical"][0]["signature"][0] += 1
    assert checks.check(inv, 0, json.dumps(doc), "")


def test_checker_rejects_golden_mismatch(classify_output):
    inv, out = classify_output
    golden = checks.digest(inv.command, out)
    tampered = out.replace('"d": 3', '"d": 4')
    assert tampered != out
    assert checks.check(inv, 0, tampered, "", golden) == ["stdout differs from the golden digest"]


def test_verify_digest_ignores_residual(verify_output):
    inv, out = verify_output
    doc = json.loads(out)
    doc["realization"]["residual"] = 0.0
    assert checks.digest("verify", json.dumps(doc)) == checks.digest("verify", out)


# ---------------------------------------------------------------------------
# BENCHMARK.json and baseline.json


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert json.loads(run.GOLDEN.read_text())["seed"] == workloads.DEFAULT_SEED


def test_layer_map_covers_every_per_layer_metric():
    rows = json.loads((run.HERE / "baseline.json").read_text())["layer_to_end_to_end"]
    named = [m for row in rows for m in row["layer_metrics"]]
    assert sorted(named) == sorted(run.PER_LAYER)
    for row in rows:
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert set(row["on"] + row["no_change_on"]) <= set(workloads.WORKLOADS)
