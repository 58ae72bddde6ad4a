import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import length_vectors, oracle_top_excess
from polygonspaces import chamber_signature, cli, parse_length_vector
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

    def test_low_dimension_rejected(self):
        code, _, err = invoke("betti", "--l", "1,1,1", "--d", "2")
        assert code == 1
        assert "usage error" in err

    def test_unsorted_input_is_sorted(self):
        code, out, _ = invoke("betti", "--l", "4,1,2,4,2,2", "--d", "3", "--json")
        assert code == 0
        assert json.loads(out)["a"] == [1, 4, 3, 0, 0, 0]


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
        # 10^15 * n * 8 bytes exceeds any 64-bit address space, so the
        # allocation fails at once: in find_polygon's direction array for
        # the hexagon, in the complement polynomial for the empty triangle
        for entries in ("1,2,2,2,4,4", "1,1,5"):
            code, out, err = invoke("verify", "--d", str(10**15), "--l", entries)
            assert code == 3
            assert out == ""
            assert err.startswith("limit: ")
            assert "Traceback" not in err

    def test_degenerate_configuration_is_a_limit(self, monkeypatch):
        def degenerate(lv, config):
            raise DegenerateConfiguration("a partial sum vanishes")

        monkeypatch.setattr(cli, "jacobian_rank", degenerate)
        code, _, err = invoke("verify", "--l", "1,1,1", "--d", "3")
        assert code == 3
        assert "limit" in err


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
        code, _, err = invoke("classify-file", "--file", "/nonexistent", "--d", "3")
        assert code == 1

    def test_non_utf8_file_is_input_error(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"\xff\xfe1,2,2,2,4,4\n")
        code, out, err = invoke("classify-file", "--file", str(path), "--d", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "utf-8" in err


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
            # the median subset's message names the vector
            (
                ("compare", "--d", "3", "--l", "1e5000,1e5000,1,1", "--l2", "1,2,2,4"),
                3,
                HUGE_LIMIT,
            ),
            # unchanged: nothing here prints the entries
            (("betti", "--d", "3", "--json", "--l", HUGE), 0, None),
            (("compare", "--d", "3", "--l", HUGE, "--l2", "1,2,2"), 0, None),
        ],
    )
    def test_documented_exit(self, tmp_path, argv, code, err_line):
        path = tmp_path / "vectors.txt"
        path.write_text(f"1,2,2\n{HUGE}\n")
        argv = [str(path) if a == "{file}" else a for a in argv]
        got, out, err = invoke(*argv)
        assert got == code
        if err_line is None:
            assert out and err == ""
        else:
            assert out == ""
            assert err == err_line
        assert "Traceback" not in err


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
