"""Output checks for one CLI invocation.

An invocation fails when it exits with another code than 0, prints a
traceback, breaks an invariant that must hold at any seed, or, at the
default seed, differs from the recorded golden digest of its stdout.
"""

from __future__ import annotations

import hashlib
import json
import re

from workloads import Invocation

RESIDUAL_TOL = 1e-9


def digest(command: str, stdout: str) -> str:
    """sha256 of stdout; verify's float residual is left out of the hash."""
    if command == "verify":
        doc = json.loads(stdout)
        doc.get("realization", {}).pop("residual", None)
        stdout = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(stdout.encode()).hexdigest()


def _check_census(doc: dict, expect: dict) -> list[str]:
    count = expect["count"]
    problems = []
    if doc["count"] != count or len(doc["chambers"]) != count:
        problems.append(f"census reports {doc['count']} chambers, expected {count}")
    sigs = {json.dumps(c["signature"]) for c in doc["chambers"]}
    if len(sigs) != len(doc["chambers"]):
        problems.append("census lists a chamber twice")
    return problems


def _check_classify(doc: dict, expect: dict) -> list[str]:
    k = len(doc["vectors"])
    if k != expect["vectors"]:
        return [f"classify-file read {k} vectors, expected {expect['vectors']}"]
    diffeo, betti = doc["diffeomorphic"], doc["betti_equal"]
    problems = []
    for name, mat in (("diffeomorphic", diffeo), ("betti_equal", betti)):
        if len(mat) != k or any(len(row) != k for row in mat):
            return [f"{name} matrix is not {k}x{k}"]
        if not all(mat[i][i] is True for i in range(k)):
            problems.append(f"{name} matrix has a false diagonal entry")
        if any(mat[i][j] != mat[j][i] for i in range(k) for j in range(i)):
            problems.append(f"{name} matrix is not symmetric")
    if len(doc["witnesses"]) != k * (k - 1) // 2:
        problems.append("classify-file does not list every pair")
    for w in doc["witnesses"]:
        same = diffeo[w["i"]][w["j"]]
        if (w["witness"] is None) != same:
            problems.append(f"pair {w['i']},{w['j']}: witness null iff diffeomorphic fails")
            break
        if same and not betti[w["i"]][w["j"]]:
            problems.append(f"pair {w['i']},{w['j']}: diffeomorphic with other Betti numbers")
            break
    return problems


def _check_compare(doc: dict, expect: dict) -> list[str]:
    if (doc["witness"] is None) != doc["diffeomorphic"]:
        return ["compare: witness null iff diffeomorphic fails"]
    if doc["diffeomorphic"] and not doc["betti_equal"]:
        return ["compare: diffeomorphic with other Betti numbers"]
    return []


def _check_duality(betti: dict[int, int], dim: int) -> list[str]:
    if betti.get(0) != 1:
        return [f"betti[0] is {betti.get(0)}, expected 1"]
    if any(betti.get(dim - deg) != v for deg, v in betti.items()):
        return ["Betti numbers break Poincare duality"]
    return []


def _check_ring(doc: dict, expect: dict) -> list[str]:
    betti = {int(k): v for k, v in doc["betti"].items()}
    problems = _check_duality(betti, doc["manifold_dim"])
    if any(doc["b"]):
        problems.append("a generic vector reports median subsets")
    return problems


def _check_betti_text(stdout: str) -> list[str]:
    dim = re.search(r"manifold dim (\d+)", stdout)
    betti = {int(k): int(v) for k, v in re.findall(r"^betti\[(\d+)\] = (\d+)$", stdout, re.M)}
    if dim is None or not betti:
        return ["betti text output lacks the manifold dimension or the table"]
    return _check_duality(betti, int(dim.group(1)))


def _check_verify(doc: dict, expect: dict) -> list[str]:
    n = doc["n"]
    problems = []
    if doc["lacunary_consistent"] is not True:
        problems.append("verify: lacunary consistency failed")
    if len(doc["critical"]) != 2 ** (n - 1):
        problems.append(f"verify: {len(doc['critical'])} critical records, expected {2 ** (n - 1)}")
    for rec in doc["critical"]:
        size = len(rec["subset"])
        if rec["signature"] != [size - 1, n - size, 1]:
            problems.append(f"verify: Hessian signature {rec['signature']} at J={rec['subset']}")
            break
    real = doc["realization"]
    if real["empty"]:
        problems.append("verify: generated vector has a nonempty space but none was found")
    else:
        perimeter = sum(int(e) for e in doc["vector"])
        if doc["jacobian_rank"] != n:
            problems.append(f"verify: jacobian rank {doc['jacobian_rank']}, expected {n}")
        if not real["residual"] < RESIDUAL_TOL * perimeter:
            problems.append(f"verify: residual {real['residual']} too large")
    return problems


_JSON_CHECKS = {
    "census": _check_census,
    "classify-file": _check_classify,
    "compare": _check_compare,
    "ring": _check_ring,
    "verify": _check_verify,
}


def check(
    inv: Invocation,
    returncode: int,
    stdout: str,
    stderr: str,
    golden: str | None = None,
) -> list[str]:
    """Problems found in one invocation's result; empty when it passed."""
    if "Traceback (most recent call last)" in stderr:
        return ["traceback on stderr: " + stderr.strip().splitlines()[-1]]
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[:200]}"]
    try:
        if inv.command == "betti":
            problems = _check_betti_text(stdout)
        else:
            problems = _JSON_CHECKS[inv.command](json.loads(stdout), inv.expect)
        if golden is not None and digest(inv.command, stdout) != golden:
            problems.append("stdout differs from the golden digest")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return problems
