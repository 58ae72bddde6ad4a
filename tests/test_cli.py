import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import length_vectors, oracle_classify_pair, oracle_top_excess
from polygonspaces import (
    chamber_signature,
    cli,
    cohomology,
    errors,
    indices_of_mask,
    lengths,
    morse,
    parse_length_vector,
)
from polygonspaces.cli import run
from polygonspaces.errors import DegenerateConfiguration


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestBetti:
    def test_json_matches_expected_map(self):
        code, out, _ = invoke("betti", "--l", "1,2,2,2,4,4", "--d", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["betti"] == {
            "0": 1,
            "2": 5,
            "3": 3,
            "4": 7,
            "5": 7,
            "6": 3,
            "7": 5,
            "9": 1,
        }
        assert doc["a"] == [1, 4, 3, 0, 0, 0]
        assert doc["euler"] == 0
        assert doc["ring"]["pruned"] == [5]

    def test_human_output(self):
        code, out, _ = invoke("betti", "--l", "3/20,3/20,3/20,3/20,2/5", "--d", "3")
        assert code == 0
        assert "betti[0] = 1" in out
        assert "sphere_product" in out

    def test_empty_space_exit_code(self):
        code, out, _ = invoke("betti", "--l", "1,1,3", "--d", "3", "--json")
        assert code == 2
        assert json.loads(out)["betti"] == {}

    def test_empty_space_text(self):
        assert invoke("betti", "--d", "3", "--l", "1,1,5") == (
            2,
            "vector (1, 1, 5)  n=3 d=3  manifold dim 3\n"
            "a = [0, 0, 0]\n"
            "b = [0, 0, 0]\n"
            "all Betti numbers vanish: the space is empty\n"
            "euler = 0\n",
            "",
        )

    def test_low_dimension_rejected(self):
        code, _, err = invoke("betti", "--l", "1,1,1", "--d", "2")
        assert code == 1
        assert "usage error" in err

    def test_unsorted_input_is_sorted(self):
        code, out, _ = invoke("betti", "--l", "4,1,2,4,2,2", "--d", "3", "--json")
        assert code == 0
        assert json.loads(out)["a"] == [1, 4, 3, 0, 0, 0]


    def test_nongeneric_text_skips_the_special_tag(self, monkeypatch):
        # the note marks a median subset, where recognize_special would
        # raise NotGeneric, so no chamber scan is made
        calls = []
        scan = cohomology.chamber_signature

        def counted(lv):
            calls.append(lv)
            return scan(lv)

        monkeypatch.setattr(cohomology, "chamber_signature", counted)
        code, out, _ = invoke("betti", "--l", "1,1,1,1", "--d", "3")
        assert code == 0
        assert "note: nongeneric: the space may be singular\n" in out
        assert "special chamber:" not in out
        assert calls == []

    @pytest.mark.parametrize("entries", ["1,2,2,2,4,4", "3/20,3/20,3/20,3/20,2/5", "1,1,1,1"])
    def test_one_scan_per_text_betti(self, monkeypatch, entries):
        # the special tag is read off the a_k of the printed table
        calls = []
        subset_sums = lengths.subset_sums

        def counted(*args, **kwargs):
            calls.append(args)
            return subset_sums(*args, **kwargs)

        monkeypatch.setattr(lengths, "subset_sums", counted)
        code, out, _ = invoke("betti", "--d", "3", "--l", entries)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("entries", ["1,2,2,2,4,4", "1,1,3", "1,1,1,1"])
    def test_json_is_the_ring_document(self, entries):
        betti = invoke("betti", "--l", entries, "--d", "3", "--json")
        ring = invoke("ring", "--l", entries, "--d", "3", "--json")
        assert betti == ring


class TestRing:
    def test_json_generators(self):
        code, out, _ = invoke("ring", "--l", "1,2,2,2,4,4", "--d", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ring"]["generators"] == [[2, 3], [2, 4], [3, 4], [5]]

    def test_zero_ring_flagged(self):
        code, out, _ = invoke("ring", "--l", "1,1,3", "--d", "3")
        assert code == 2
        assert "zero ring" in out

    def test_nongeneric_note(self):
        code, out, _ = invoke("ring", "--l", "1,1,1,1", "--d", "3")
        assert code == 0
        assert out.endswith("note: nongeneric: the space may be singular\n")
        code, out, _ = invoke("ring", "--l", "1,2,2,2,4,4", "--d", "3")
        assert "note:" not in out


class TestCompare:
    def test_example_pair_text(self):
        code, out, _ = invoke(
            "compare", "--l", "1,2,2,2,4,4", "--l2", "1,1,3,4,8,8", "--d", "3"
        )
        assert code == 0
        assert (
            out.strip()
            == "NOT diffeomorphic; Betti numbers identical; witness subset {1,4,6}"
        )
        # J = (1,), (1, 2) and (2,) distinguish these; the witness is ranked
        # before n is adjoined, so (1,) wins although {1,2,5} prints first
        code, out, _ = invoke(
            "compare", "--l", "4,5,11,16,17", "--l2", "3,5,6,6,17", "--d", "3"
        )
        assert code == 0
        assert out == "NOT diffeomorphic; Betti numbers differ; witness subset {1,5}\n"

    def test_permuted_pair(self):
        code, out, _ = invoke(
            "compare", "--l", "2,4,1,2,4,2", "--l2", "1,2,2,2,4,4", "--d", "3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diffeomorphic"] is True
        assert doc["witness"] is None

    def test_json_fields(self):
        code, out, _ = invoke(
            "compare", "--l", "1,2,2,2,4,4", "--l2", "1,1,3,4,8,8", "--d", "3", "--json"
        )
        doc = json.loads(out)
        assert doc["diffeomorphic"] is False
        assert doc["betti_equal"] is True
        assert doc["witness"] == [1, 4, 6]

    def test_nongeneric_is_input_error(self):
        code, _, err = invoke("compare", "--l", "1,1,2", "--l2", "1,1,1", "--d", "3")
        assert code == 1
        assert "error" in err


class TestCensus:
    def test_counts(self):
        code, out, _ = invoke("census", "--n", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3
        assert len(doc["chambers"]) == 3

    def test_out_of_range(self):
        code, _, err = invoke("census", "--n", "9")
        assert code == 3
        assert "limit" in err

    @pytest.mark.parametrize("n", ["2", "0", "-5"])
    def test_too_few_sides(self, n):
        # no cap: a census below three sides has too few sides, as betti says
        code, out, err = invoke("census", "--n", n)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_byte_identical_runs(self):
        first = invoke("census", "--n", "5", "--json")
        second = invoke("census", "--n", "5", "--json")
        assert first == second

    def test_ignored_flags_rejected(self):
        # census caps n itself and has nothing to seed
        code, _, err = invoke("census", "--n", "4", "--max-n", "2")
        assert code == 1
        assert "usage error" in err
        assert invoke("census", "--n", "4", "--seed", "1")[0] == 1

    def test_representatives_round_trip(self):
        _, out, _ = invoke("census", "--n", "4", "--json")
        doc = json.loads(out)
        for chamber in doc["chambers"]:
            rep = parse_length_vector(",".join(chamber["representative"]))
            sig = chamber_signature(rep)
            assert sig.family_indices() == chamber["signature"]


class TestVerify:
    def test_nonempty_report(self):
        code, out, _ = invoke(
            "verify", "--l", "1,2,2,2,4,4", "--d", "3", "--seed", "1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["critical"]) == 32
        assert doc["jacobian_rank"] == 6
        assert doc["lacunary_consistent"] is True
        assert doc["realization"]["empty"] is False
        assert doc["realization"]["residual"] < 1e-9 * 15

    def test_empty_report(self):
        code, out, _ = invoke("verify", "--l", "1,1,3", "--d", "3", "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["realization"] == {
            "empty": True,
            "witness": [3],
            "min_residual": "1",
        }
        assert doc["jacobian_rank"] is None

    def test_empty_report_text(self):
        assert invoke("verify", "--d", "3", "--l", "1,1,5") == (
            2,
            "vector (1, 1, 5)  n=3 d=3\n"
            "critical records (4):\n"
            "  J={1,2,3} value=-49 index=0 signature=(2, 0, 1)\n"
            "  J={1,3} value=-25 index=2 signature=(1, 1, 1)\n"
            "  J={2,3} value=-25 index=2 signature=(1, 1, 1)\n"
            "  J={3} value=-9 index=4 signature=(0, 2, 1)\n"
            "empty space: witness {3}, exact min residual 3\n"
            "lacunary consistency: ok\n",
            "",
        )

    def test_deterministic_for_seed(self):
        first = invoke("verify", "--l", "1,2,2,3,5", "--d", "3", "--seed", "9", "--json")
        second = invoke("verify", "--l", "1,2,2,3,5", "--d", "3", "--seed", "9", "--json")
        assert first == second

    def test_nongeneric_rejected(self):
        code, _, err = invoke("verify", "--l", "1,1,2", "--d", "3")
        assert code == 1

    def test_collinear_space_rejected_before_realization(self):
        # find_polygon closes (1,2,3,6) collinearly, but the median top side
        # stops verify in critical_data first
        code, out, err = invoke("verify", "--l", "1,2,3,6", "--d", "3", "--json")
        assert code == 1
        assert out == ""
        assert "median" in err

    def test_huge_entries(self):
        big = 10**400
        code, out, err = invoke(
            "verify", "--d", "3", "--json", "--l", f"{big},{big + 1},{big + 2}"
        )
        assert code == 0
        assert "Traceback" not in err
        doc = json.loads(out)
        assert doc["lacunary_consistent"] is True
        assert doc["jacobian_rank"] == 3

    def test_unallocatable_dimension_is_a_limit(self):
        # 10^15 * n * 8 bytes exceeds any 64-bit address space, so
        # find_polygon's direction array fails at once; past 10^18 the byte
        # count, and past 2^63 d itself, no longer fits numpy's index type
        for d in (10**15, 10**18, 10**20):
            for vector in ("1,1,1", "1,2,2,2,4,4"):
                code, out, err = invoke("verify", "--d", str(d), "--l", vector)
                assert code == 3, (d, vector)
                assert out == ""
                assert err.startswith("limit: ")
                assert "Traceback" not in err
            # the empty triangle allocates nothing of size d: it is answered
            code, out, err = invoke("verify", "--d", str(d), "--l", "1,1,5", "--json")
            assert (code, err) == (2, "")
            doc = json.loads(out)
            assert doc["realization"] == {"empty": True, "witness": [3], "min_residual": "3"}
            assert doc["lacunary_consistent"] is True

    def test_one_scan_per_verify(self, monkeypatch):
        calls = []
        subset_sums = lengths.subset_sums

        def counted(*args, **kwargs):
            calls.append(args)
            return subset_sums(*args, **kwargs)

        monkeypatch.setattr(lengths, "subset_sums", counted)
        code, _, _ = invoke("verify", "--d", "3", "--l", "1,2,2,2,4,4", "--json")
        assert code == 0
        assert len(calls) == 1

    def test_one_excess_per_verify(self, monkeypatch):
        # each L_J comes from the scan; only find_polygon's deficit is summed
        calls = []
        excess = morse.excess

        def counted(lv, mask):
            calls.append(mask)
            return excess(lv, mask)

        monkeypatch.setattr(morse, "excess", counted)
        code, _, _ = invoke("verify", "--d", "3", "--l", "1,2,2,2,4,4")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.slow
    def test_json_is_written_in_slices(self, monkeypatch):
        # about a million tokens; joining them all at once peaks near 30 MB
        # above the document, slices of 2^16 tokens near 4 MB
        peaks = []
        emit = cli._emit_json

        def traced(doc, out):
            tracemalloc.start()
            try:
                emit(doc, out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        written = []  # lengths only: the sink holds no text
        sink = SimpleNamespace(write=lambda text: written.append(len(text)), flush=lambda: None)
        monkeypatch.setattr(cli, "_emit_json", traced)
        vector = ",".join(map(str, range(3, 32, 2)))
        code = run(["verify", "--d", "3", "--json", "--l", vector], out=sink, err=io.StringIO())
        assert code == 0
        assert sum(written) > 4 * 10**6
        assert peaks[0] < 15 * 2**20

    def test_degenerate_configuration_is_a_limit(self, monkeypatch):
        def degenerate(lv, config):
            raise DegenerateConfiguration("a partial sum vanishes")

        monkeypatch.setattr(cli, "jacobian_rank", degenerate)
        code, _, err = invoke("verify", "--l", "1,1,1", "--d", "3")
        assert code == 3
        assert "limit" in err

    @staticmethod
    def _scan_off_by(monkeypatch, mask, delta):
        """Make the subset scan's excess of J union {n}, J = mask, off by delta."""
        top_excess = morse.top_excess

        def off(lv):
            exc = top_excess(lv)
            exc[mask] += delta
            return exc

        monkeypatch.setattr(morse, "top_excess", off)

    def test_failed_certificate_is_a_fault(self, monkeypatch):
        # {6} is short: its excess -7 reads -6, and L of its complement 6
        self._scan_off_by(monkeypatch, 0, 1)
        code, out, err = invoke("verify", "--d", "3", "--l", "1,2,2,2,4,4")
        assert (code, out) == (3, "")
        assert err == "fault: the Hessian Schur complement at (1, 2, 3, 4, 5) is not zero\n"

    def test_failed_certificate_on_a_long_scan_entry(self, monkeypatch):
        # the full set is long: its excess 15 reads 17
        self._scan_off_by(monkeypatch, -1, 2)
        for extra in ((), ("--json",)):
            code, out, err = invoke("verify", "--d", "3", "--l", "1,2,2,2,4,4", *extra)
            assert (code, out) == (3, "")
            assert err == (
                "fault: the Hessian Schur complement at (1, 2, 3, 4, 5, 6) is not zero\n"
            )


class TestClassifyFile:
    def test_pairwise_matrix(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text(
            "# the worked pair\n"
            "1,2,2,2,4,4\n"
            "1,1,3,4,8,8   # twin\n"
            "2 4 4 4 8 8\n"
        )
        code, out, _ = invoke("classify-file", "--file", str(path), "--d", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["diffeomorphic"][0][1] is False
        assert doc["diffeomorphic"][0][2] is True
        assert doc["betti_equal"][0][1] is True
        assert doc["diffeomorphic"][1][2] is False

    def test_human_lines(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1,2,2,2,4,4\n1,1,3,4,8,8\n")
        code, out, _ = invoke("classify-file", "--file", str(path), "--d", "3")
        assert code == 0
        assert "0 vs 1: NOT diffeomorphic" in out

    def test_mixed_sizes_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1,1,1\n1,2,2,2,4,4\n")
        code, _, err = invoke("classify-file", "--file", str(path), "--d", "3")
        assert code == 1

    def test_missing_file(self):
        assert invoke("classify-file", "--file", "/nonexistent", "--d", "3") == (
            1,
            "",
            "error: [Errno 2] No such file or directory: '/nonexistent'\n",
        )

    def test_file_without_vectors(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("# only a comment\n\n")
        assert invoke("classify-file", "--file", str(path), "--d", "3") == (
            1,
            "",
            f"usage error: no vectors found in {path}\n",
        )

    def test_non_utf8_file_is_input_error(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"\xff\xfe1,2,2,2,4,4\n")
        code, out, err = invoke("classify-file", "--file", str(path), "--d", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "utf-8" in err

    def test_non_utf8_line_rejected_on_its_own(self, tmp_path):
        argv = ("classify-file", "--d", "3", "--file")
        good = invoke(*argv, _write(tmp_path, ["1,2,2,2,4,4", "1,1,3,4,8,8"], "good.txt"))
        assert good[0] == 0
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"1,2,2,2,4,4\n\xff,1\n1,1,3,4,8,8\r\n")
        assert invoke(*argv, str(path)) == (1, good[1], "error: line 2: byte 0xff is not utf-8\n")
        # undecodable bytes in a comment are ignored
        path.write_bytes(b"1,2,2,2,4,4 # caf\xe9\n1,1,3,4,8,8\n")
        assert invoke(*argv, str(path)) == good

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # editors such as Notepad save UTF-8 with a leading BOM
        text = "1,2,2,2,4,4\n1,1,3,4,8,8\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = invoke("classify-file", "--file", str(plain), "--d", "3")
        assert expected[0] == 0
        assert invoke("classify-file", "--file", str(marked), "--d", "3") == expected


def _seeded_lines(n, high, seed, k=10, dups=3):
    """k generic n-gons with entries 1..high, then a permuted and a
    rescaled copy of each of the first ``dups``."""
    rng = random.Random(seed)
    base = []
    while len(base) < k:
        v = [rng.randint(1, high) for _ in range(n)]
        if all(oracle_top_excess(sorted(v))):
            base.append(v)
    lines = [",".join(map(str, v)) for v in base]
    for v in base[:dups]:
        lines.append(" ".join(map(str, rng.sample(v, n))))
        p, q = rng.randint(2, 9), rng.randint(2, 9)
        lines.append(",".join(f"{p * e}/{q}" for e in v))
    return lines


def _oracle_outputs(lines, d):
    """classify-file's JSON and text stdout, assembled from the oracle."""
    vectors = [parse_length_vector(line) for line in lines]
    k = len(vectors)
    diffeo = [[True] * k for _ in range(k)]
    betti = [[True] * k for _ in range(k)]
    witnesses, text = [], [f"{i}: {v}\n" for i, v in enumerate(vectors)]
    for i in range(k):
        for j in range(i + 1, k):
            v = oracle_classify_pair(vectors[i], vectors[j], d)
            diffeo[i][j] = diffeo[j][i] = v.diffeomorphic
            betti[i][j] = betti[j][i] = v.betti_equal
            w = None if v.witness is None else list(indices_of_mask(v.witness))
            witnesses.append({"i": i, "j": j, "witness": w})
            if v.diffeomorphic:
                line = "Diffeomorphic (same chamber up to permutation); Betti numbers identical"
            else:
                same = "identical" if v.betti_equal else "differ"
                line = (
                    f"NOT diffeomorphic; Betti numbers {same}; "
                    "witness subset {" + ",".join(map(str, w)) + "}"
                )
            text.append(f"{i} vs {j}: {line}\n")
    doc = {
        "d": d,
        "n": vectors[0].n,
        "vectors": [[str(e) for e in v.entries] for v in vectors],
        "diffeomorphic": diffeo,
        "betti_equal": betti,
        "witnesses": witnesses,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", "".join(text), diffeo, betti


def _write(tmp_path, lines, name="vectors.txt"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestClassifyFileOracle:
    """Per-vector records against the pair-by-pair oracle."""

    # seeds whose draws hold a pair with equal Betti tables in other chambers
    @pytest.mark.parametrize("n, high, seed", [(7, 4, 4), (8, 4, 1), (9, 5, 0)])
    def test_stdout_matches_oracle(self, tmp_path, n, high, seed):
        lines = _seeded_lines(n, high, seed)
        path = _write(tmp_path, ["# seeded"] + lines)
        want_json, want_text, diffeo, betti = _oracle_outputs(lines, 3)
        k = len(lines)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        assert any(diffeo[i][j] for i, j in pairs)
        assert any(betti[i][j] and not diffeo[i][j] for i, j in pairs)
        assert invoke("classify-file", "--file", path, "--d", "3", "--json") == (
            0, want_json, ""
        )
        assert invoke("classify-file", "--file", path, "--d", "3") == (0, want_text, "")

    def test_one_scan_per_vector(self, tmp_path, monkeypatch):
        calls = {"chamber_signature": 0, "subset_sums": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "chamber_signature")
        counted(lengths, "subset_sums")
        lines = _seeded_lines(7, 4, 4)
        code, _, _ = invoke(
            "classify-file", "--file", _write(tmp_path, lines), "--d", "3", "--json"
        )
        assert code == 0
        # the chamber's scan is the only one: the Betti comparison reads
        # the signature's short counts
        assert calls == {"chamber_signature": len(lines), "subset_sums": len(lines)}


#: 5,000 digits, past Python's 4,300-digit int-from-str limit
LONG_DIGITS = "9" * 5000
LONG_DIGITS_LIMIT = "limit: a token of 5000 digits exceeds Python's int-from-str digit limit\n"


class TestClassifyFileBadLines:
    """A bad line is reported on its own; the accepted lines are classified
    exactly as a file holding only them."""

    GOOD = ["1,1,1,2", "2,3,3,5", "1,2,3,5"]

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    @pytest.mark.parametrize(
        "bad, err_line",
        [
            ("1,2,2,3", "(1, 2, 2, 3) has the median subset (1, 4)"),
            ("1,2,2,2,4,4", "n=6 vs n=4 of the first accepted line"),
            ("1,2,x,3", "cannot parse 'x' as a rational"),
            ("1,0,2,3", "side lengths must be positive: (1, 0, 2, 3)"),
            ("1,2", "need at least 3 sides, got 2"),
            # a megabyte token is repeated only in part
            pytest.param(
                "1,2," + "x" * 10**6 + ",3",
                f"cannot parse {'x' * 40!r}... (1000000 characters) as a rational",
                id="megabyte-token",
            ),
        ],
    )
    def test_middle_line_rejected(self, tmp_path, bad, err_line, json_flag):
        lines = [self.GOOD[0], "# a comment", bad] + self.GOOD[1:]
        argv = ("classify-file", "--d", "3", *json_flag, "--file")
        _, want, _ = invoke(*argv, _write(tmp_path, self.GOOD, "good.txt"))
        code, out, err = invoke(*argv, _write(tmp_path, lines))
        assert code == 1
        assert err == f"error: line 3: {err_line}\n"
        assert out == want

    def test_first_accepted_line_sets_n(self, tmp_path):
        # the nongeneric first line does not fix n = 3
        lines = ["1,1,2", "1,2,2,2,4,4", "1,1,1", "1,1,3,4,8,8"]
        code, out, err = invoke("classify-file", "--d", "3", "--file", _write(tmp_path, lines))
        assert code == 1
        assert err == (
            "error: line 1: (1, 1, 2) has the median subset (3,)\n"
            "error: line 3: n=3 vs n=6 of the first accepted line\n"
        )
        assert out.splitlines()[:2] == ["0: (1, 2, 2, 2, 4, 4)", "1: (1, 1, 3, 4, 8, 8)"]

    def test_every_line_bad(self, tmp_path):
        lines = ["1,2,2,3", "nope", "1,1"]
        code, out, err = invoke("classify-file", "--d", "3", "--file", _write(tmp_path, lines))
        assert code == 1
        assert out == ""
        assert err == (
            "error: line 1: (1, 2, 2, 3) has the median subset (1, 4)\n"
            "error: line 2: cannot parse 'nope' as a rational\n"
            "error: line 3: need at least 3 sides, got 2\n"
        )

    def test_one_vector_file_is_validated(self, tmp_path):
        path = _write(tmp_path, ["1,1,2"])
        for json_flag in ((), ("--json",)):
            code, out, err = invoke("classify-file", "--d", "3", *json_flag, "--file", path)
            assert code == 1
            assert out == ""
            assert err == "error: line 1: (1, 1, 2) has the median subset (3,)\n"

    def test_limit_aborts_the_file(self, tmp_path):
        # a bad line and an oversized one: only the limit is reported
        lines = ["1,2,2,3", ",".join(["1"] * 24 + ["2"])]
        code, out, err = invoke("classify-file", "--d", "3", "--file", _write(tmp_path, lines))
        assert code == 3
        assert out == ""
        assert err == "limit: n=25 exceeds the subset-enumeration cap 24\n"

    def test_long_literal_aborts_the_file(self, tmp_path):
        lines = ["1,2,2,3", f"{LONG_DIGITS},1,1", "1,1,1"]
        code, out, err = invoke("classify-file", "--d", "3", "--file", _write(tmp_path, lines))
        assert code == 3
        assert out == ""
        assert err == LONG_DIGITS_LIMIT


#: the flags each subcommand reads, in the order --help lists them
ROWS = {
    "betti": ("--l", "--d", "--json"),
    "ring": ("--l", "--d", "--json"),
    "compare": ("--l", "--l2", "--d", "--json"),
    "census": ("--n", "--json"),
    "verify": ("--l", "--d", "--json", "--seed"),
    "classify-file": ("--file", "--d", "--json"),
}
#: a valid value for every flag that takes one; {file} is a file of two vectors
FLAG_VALUES = {
    "--l": "1,1,1",
    "--l2": "1,2,2",
    "--n": "4",
    "--file": "{file}",
    "--d": "3",
    "--seed": "1",
}


def _row_argv(command, tmp_path):
    """A valid invocation of ``command`` with every flag of its row."""
    file = _write(tmp_path, ["1,1,1", "1,2,2"])
    argv = [command]
    for flag in ROWS[command]:
        argv.append(flag)
        if flag in FLAG_VALUES:
            argv.append(FLAG_VALUES[flag].format(file=file))
    return argv, file


class TestUsage:
    def test_no_command(self):
        code, _, err = invoke()
        assert code == 1
        assert "usage error" in err

    def test_unknown_command(self):
        assert invoke("frobnicate")[0] == 1

    def test_missing_required_flag(self):
        assert invoke("betti", "--l", "1,1,1")[0] == 1

    def test_seed_only_on_verify(self):
        for argv in (
            ("betti", "--l", "1,1,1", "--d", "3"),
            ("ring", "--l", "1,1,1", "--d", "3"),
            ("compare", "--l", "1,1,1", "--l2", "1,1,1", "--d", "3"),
        ):
            assert invoke(*argv)[0] == 0
            assert invoke(*argv, "--seed", "1")[0] == 1

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in ROWS for f in FLAG_VALUES if f not in ROWS[c]],
    )
    def test_flag_outside_the_row(self, tmp_path, command, flag):
        argv, file = _row_argv(command, tmp_path)
        assert invoke(*argv)[0] == 0
        code, out, err = invoke(*argv, flag, FLAG_VALUES[flag].format(file=file))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: unrecognized arguments: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_flags_spelled_in_full(self, tmp_path):
        # argparse would read a prefix of a flag in the row as that flag
        file = _write(tmp_path, ["1,1,1", "1,2,2"])
        for argv in (
            ("betti", "--l", "1,1,1", "--d", "3", "--js"),
            ("census", "--n", "3", "--js"),
            ("verify", "--l", "1,1,1", "--d", "3", "--se", "1"),
            ("classify-file", "--fi", str(file), "--d", "3"),
            ("--vers",),
        ):
            code, out, err = invoke(*argv)
            assert code == 1
            assert out == ""
            assert err.startswith("usage error: ")
            assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", ROWS)
    def test_help_lists_the_row(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            invoke(command, "--help")
        assert exit_.value.code == 0
        listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert tuple(listed) == ROWS[command]

    def test_readme_table_lists_the_rows(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w-]+)` +\| (.*) \|$", readme, re.M)
        assert {c: tuple(re.findall(r"`(--[\w-]+)`", f)) for c, f in rows} == ROWS

    def test_bad_vector(self):
        assert invoke("betti", "--l", "0,1,1", "--d", "3")[0] == 1

    def test_max_n_guard(self):
        # the cap n <= 24 is fixed: 25 sides with an even total are a limit
        code, out, err = invoke("betti", "--l", ",".join(["1"] * 24 + ["2"]), "--d", "3")
        assert code == 3
        assert out == ""
        assert err == "limit: n=25 exceeds the subset-enumeration cap 24\n"

    def test_no_cap_override(self):
        for argv in (
            ("betti", "--l", "1,1,1", "--d", "3"),
            ("ring", "--l", "1,1,1", "--d", "3"),
            ("compare", "--l", "1,1,1", "--l2", "1,1,1", "--d", "3"),
            ("census", "--n", "4"),
            ("verify", "--l", "1,1,1", "--d", "3"),
            ("classify-file", "--file", "/nonexistent", "--d", "3"),
        ):
            code, out, err = invoke(*argv, "--max-n", "30")
            assert code == 1
            assert out == ""
            assert "usage error" in err


#: entries whose decimal form passes Python's 4,300-digit int-to-str limit
HUGE = "1e5000,1e5000,1"
HUGE_LIMIT = (
    "limit: an exact integer of 16610 bits exceeds Python's int-to-str digit limit\n"
)
#: how an error message names an entry of HUGE
HUGE_SHOWN = "<16610-bit integer>"
#: the largest --d argparse reads; degrees and Morse indices (d-1)k pass the
#: int-to-str limit
HUGE_D = "9" * 4300
HUGE_D_LIMIT = (
    "limit: an exact integer of 14286 bits exceeds Python's int-to-str digit limit\n"
)
#: how an error message quotes a megabyte token of y's
MEGA_SHOWN = f"{'y' * 40!r}... (1000000 characters)"


class TestNoTraceback:
    """Inputs that once died with a traceback: each now gets its documented
    exit code and one stderr line, or its unchanged success."""

    @pytest.mark.parametrize(
        "argv, code, err_line",
        [
            (
                ("verify", "--d", "3", "--l", "1,1,1", "--seed", "-1"),
                1,
                "usage error: --seed must be non-negative, got -1\n",
            ),
            (("betti", "--d", "3", "--l", HUGE), 3, HUGE_LIMIT),
            (("ring", "--d", "3", "--l", HUGE), 3, HUGE_LIMIT),
            (("verify", "--d", "3", "--json", "--l", HUGE), 3, HUGE_LIMIT),
            (("classify-file", "--d", "3", "--file", "{file}"), 3, HUGE_LIMIT),
            # the median subset's message names huge entries by bit length
            (
                ("compare", "--d", "3", "--l", "1e5000,1e5000,1,1", "--l2", "1,2,2,4"),
                1,
                f"error: (1, 1, {HUGE_SHOWN}, {HUGE_SHOWN}) has the median subset (1, 4)\n",
            ),
            # unchanged: nothing here prints the entries
            (("betti", "--d", "3", "--json", "--l", HUGE), 0, None),
            (("compare", "--d", "3", "--l", HUGE, "--l2", "1,2,2"), 0, None),
            # refused before Fraction builds 10**(3*10**7)
            (
                ("betti", "--d", "3", "--l", "1e30000000,1,1"),
                3,
                "limit: |exponent| of '1e30000000' exceeds 100000\n",
            ),
            (
                ("betti", "--d", "3", "--l", "1,1,1e-30000000"),
                3,
                "limit: |exponent| of '1e-30000000' exceeds 100000\n",
            ),
            # the magnitude of HUGE, spelled past Python's int-from-str limit
            (("betti", "--d", "3", "--json", "--l", f"{LONG_DIGITS},1,1"), 3, LONG_DIGITS_LIMIT),
            (
                ("betti", "--d", "3", "--json", "--l", f"1/{LONG_DIGITS},1,1"),
                3,
                "limit: a token of 5001 digits exceeds Python's int-from-str digit limit\n",
            ),
            # a megabyte token is repeated only in part
            (
                ("betti", "--d", "3", "--l", "y" * 10**6 + ",1,1"),
                1,
                f"error: cannot parse {MEGA_SHOWN} as a rational\n",
            ),
            # a long vector is repeated only in part
            (
                ("betti", "--d", "3", "--l", ",".join(["0"] * 3000)),
                1,
                f"error: side lengths must be positive: ({'0, ' * 60}... 3000 entries)\n",
            ),
            (
                ("compare", "--d", "3", "--l", "1e5000,3,1e5000,3", "--l2", "1,2,3,5"),
                1,
                f"error: (3, 3, {HUGE_SHOWN}, {HUGE_SHOWN}) has the median subset (1, 4)\n",
            ),
            # a degree, the manifold dimension or a Morse index too long to print
            (("betti", "--d", HUGE_D, "--l", "1,2,2,2,4,4"), 3, HUGE_D_LIMIT),
            (("betti", "--d", HUGE_D, "--json", "--l", "1,2,2,2,4,4"), 3, HUGE_D_LIMIT),
            (("ring", "--d", HUGE_D, "--json", "--l", "1,2,2,2,4,4"), 3, HUGE_D_LIMIT),
            (("betti", "--d", HUGE_D, "--l", "1,1,1,1"), 3, HUGE_D_LIMIT),
            (("betti", "--d", HUGE_D, "--l", "1,1,5"), 3, HUGE_D_LIMIT),
            (("ring", "--d", HUGE_D, "--json", "--l", "1,1,5"), 3, HUGE_D_LIMIT),
            (("verify", "--d", HUGE_D, "--l", "1,1,5"), 3, HUGE_D_LIMIT),
            (("verify", "--d", HUGE_D, "--json", "--l", "1,1,5"), 3, HUGE_D_LIMIT),
            # nothing here prints a degree
            (("ring", "--d", HUGE_D, "--l", "1,1,5"), 2, None),
            (("ring", "--d", HUGE_D, "--l", "1,2,2,2,4,4"), 0, None),
            (("ring", "--d", HUGE_D, "--l", "1,1,1,1"), 0, None),  # nongeneric: its note
            (("compare", "--d", HUGE_D, "--l", "1,2,2,2,4,4", "--l2", "1,1,3,4,8,8"), 0, None),
            (("classify-file", "--d", HUGE_D, "--file", "{pair}"), 0, None),
            # an integer flag is read as a vector token is
            (("verify", "--d", LONG_DIGITS, "--l", "1,1,1"), 3, LONG_DIGITS_LIMIT),
            (("verify", "--d", "3", "--seed", LONG_DIGITS, "--l", "1,1,1"), 3, LONG_DIGITS_LIMIT),
            (("census", "--n", LONG_DIGITS), 3, LONG_DIGITS_LIMIT),
            (
                ("verify", "--d", "y" * 10**6, "--l", "1,1,1"),
                1,
                f"usage error: argument --d: invalid int value: {MEGA_SHOWN}\n",
            ),
            (
                ("verify", "--d", "3", "--seed", "y" * 10**6, "--l", "1,1,1"),
                1,
                f"usage error: argument --seed: invalid int value: {MEGA_SHOWN}\n",
            ),
            (
                ("census", "--n", "y" * 10**6),
                1,
                f"usage error: argument --n: invalid int value: {MEGA_SHOWN}\n",
            ),
            # of several median subsets, the first in index-tuple order is
            # named, not (2, 3, 5, 8) of lowest mask
            (
                ("verify", "--d", "3", "--l", "2,5,6,7,8,10,10,10"),
                1,
                "error: (2, 5, 6, 7, 8, 10, 10, 10) has the median subset (1, 4, 6, 8)\n",
            ),
        ],
    )
    def test_documented_exit(self, tmp_path, argv, code, err_line):
        path = tmp_path / "vectors.txt"
        path.write_text(f"1,2,2\n{HUGE}\n")
        pair = tmp_path / "pair.txt"
        pair.write_text("1,2,2,2,4,4\n1,1,3,4,8,8\n")
        files = {"{file}": str(path), "{pair}": str(pair)}
        argv = [files.get(a, a) for a in argv]
        got, out, err = invoke(*argv)
        assert got == code
        if err_line is None:
            assert out and err == ""
        else:
            assert out == ""
            assert err == err_line
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", [" 4", "+4", "0_4", "\uff14"])
    def test_integer_flag_reads_as_int(self, token):
        # every token int() takes keeps its value
        for argv in (
            ("betti", "--l", "1,1,1", "--d"),
            ("verify", "--d", "3", "--l", "1,1,1", "--seed"),
            ("census", "--n"),
        ):
            assert invoke(*argv, token) == invoke(*argv, "4")


#: the input errors (exit 1); every other typed error is a limit (exit 3)
_INPUT_ERROR_NAMES = {
    "MalformedNumber",
    "EntryNotPositive",
    "TooFewEntries",
    "NotOrdered",
    "NotGeneric",
    "DimensionMismatch",
    "UnsupportedDimension",
    "MalformedCandidate",
}
_TYPED_ERRORS = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type)
    and issubclass(cls, errors.PolygonSpacesError)
    and cls not in (errors.PolygonSpacesError, errors.InputError)
]


class TestExitClasses:
    def test_input_errors_are_exactly_these(self):
        inputs = {cls.__name__ for cls in _TYPED_ERRORS if issubclass(cls, errors.InputError)}
        assert inputs == _INPUT_ERROR_NAMES

    @pytest.mark.parametrize("cls", _TYPED_ERRORS, ids=lambda cls: cls.__name__)
    def test_exit_code_follows_the_class(self, monkeypatch, cls):
        def fail(args, out, err):
            raise cls("boom")

        monkeypatch.setattr(cli, "_cmd_census", fail)
        code, out, err = invoke("census", "--n", "4")
        if cls.__name__ in _INPUT_ERROR_NAMES:
            assert (code, err) == (1, "error: boom\n")
        elif cls is errors.CertificateFailure:
            assert (code, err) == (3, "fault: boom\n")
        else:
            assert (code, err) == (3, "limit: boom\n")
        assert out == ""

    def test_closed_output_is_a_limit(self):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        code = run(["verify", "--d", "3", "--l", "1,2,2,2,4,4"], out=ClosedPipe(), err=err)
        assert (code, err.getvalue()) == (3, "limit: [Errno 32] Broken pipe\n")

    def test_reader_closing_the_pipe_is_a_limit(self):
        # a 13-gon's 4,096 critical records print far more than a pipe holds
        entries = ",".join(str(k) for k in range(3, 29, 2))
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        argv = [sys.executable, "-m", "polygonspaces.cli", "verify", "--d", "3", "--l", entries]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline().startswith(b"vector (3, 5, 7,")
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (3, b"limit: [Errno 32] Broken pipe\n")


def _scaled(entries, scale) -> str:
    """The vector c * entries for c = p/q, as exact unreduced "num/q" strings."""
    p, q = scale
    return ",".join(f"{p * e}/{q}" for e in entries)


#: c = p/q with p and q up to 10^400
_SCALES = st.tuples(st.integers(1, 10**400), st.integers(1, 10**400))


class TestScaleInvariance:
    @given(st.data(), _SCALES, _SCALES, st.sampled_from([3, 4]))
    @settings(max_examples=30)
    def test_stdout_identical_under_rational_scaling(self, data, c, c2, d):
        lv = data.draw(length_vectors(max_n=6, max_entry=60))
        other = data.draw(length_vectors(min_n=lv.n, max_n=lv.n, max_entry=60))
        plain = ",".join(map(str, lv.entries))
        plain2 = ",".join(map(str, other.entries))
        scaled, scaled2 = _scaled(lv.entries, c), _scaled(other.entries, c2)
        for cmd in ("betti", "ring", "verify"):
            args = (cmd, "--d", str(d), "--json", "--l")
            assert invoke(*args, plain) == invoke(*args, scaled)
        args = ("compare", "--d", str(d), "--json")
        assert invoke(*args, "--l", plain, "--l2", plain2) == invoke(
            *args, "--l", scaled, "--l2", scaled2
        )

    @given(
        st.integers(0, 400),
        st.lists(st.integers(1, 60), min_size=3, max_size=7),
        st.lists(st.integers(1, 60), min_size=7, max_size=7),
    )
    @settings(max_examples=30)
    def test_huge_entries_never_fail(self, k, offsets, offsets2):
        first = [10**k + o for o in offsets]
        second = [10**k + o for o in offsets2[: len(offsets)]]
        code, _, err = invoke("betti", "--d", "3", "--l", ",".join(map(str, first)))
        assert code in (0, 2) and err == ""
        # compare rejects median subsets, so it needs two generic vectors
        if all(e != 0 for v in (first, second) for e in oracle_top_excess(v)):
            code, _, err = invoke(
                "compare", "--d", "3", "--json",
                "--l", ",".join(map(str, first)),
                "--l2", ",".join(map(str, second)),
            )
            assert code == 0 and err == ""
