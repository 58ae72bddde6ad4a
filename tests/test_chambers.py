import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BOUNDARY_VECTORS,
    brute_force_signatures,
    downward_closure,
    length_vectors,
    oracle_closed_below,
    oracle_downward_closed,
    oracle_top_excess,
    oracle_walls,
)
from polygonspaces import chambers, exactlp, lengths
from polygonspaces import (
    ChamberSignature,
    LengthVector,
    chamber_signature,
    enumerate_chambers,
    is_generic,
    mask_from_indices,
    parse_length_vector,
    realize_signature,
    same_chamber_up_to_permutation,
)
from polygonspaces.errors import (
    CertificateFailure,
    DimensionMismatch,
    MalformedCandidate,
    NotGeneric,
    NotOrdered,
    OutOfRange,
    TooFewEntries,
)
from polygonspaces.lengths import subset_rank, subset_sizes


class TestSignature:
    def test_equilateral_triangle(self):
        sig = chamber_signature(parse_length_vector("1,1,1"))
        assert sig.masks() == [0]

    def test_empty_space(self):
        sig = chamber_signature(parse_length_vector("1,1,3"))
        assert sig.masks() == []
        assert sig.is_empty_space

    def test_example_hexagon(self):
        sig = chamber_signature(parse_length_vector("1,2,2,2,4,4"))
        expected = {
            (),
            (1,),
            (2,),
            (3,),
            (4,),
            (1, 2),
            (1, 3),
            (1, 4),
        }
        assert {tuple(ix) for ix in map(tuple, sig.family_indices())} == expected

    def test_requires_ordered(self):
        with pytest.raises(NotOrdered):
            chamber_signature(parse_length_vector("2,1,1"))

    def test_requires_generic(self):
        with pytest.raises(NotGeneric):
            chamber_signature(parse_length_vector("1,1,2"))

    def test_closure_validation(self):
        # {1,2} without {1} breaks inclusion closure
        with pytest.raises(MalformedCandidate):
            ChamberSignature.from_masks(4, {0, mask_from_indices((1, 2))})
        # {2} without {1} breaks dominance closure
        with pytest.raises(MalformedCandidate):
            ChamberSignature.from_masks(4, {0, mask_from_indices((2,))})
        # member outside 1..n-1
        with pytest.raises(MalformedCandidate):
            ChamberSignature.from_masks(3, {mask_from_indices((3,)), 0, 1, 2})

    def test_closure_error_names_member_and_gap(self):
        # (1, 3) loses 1 and 3 to members, but sliding 3 down gives (1, 2)
        fam = frozenset({0, 0b001, 0b010, 0b100, mask_from_indices((1, 3))})
        with pytest.raises(MalformedCandidate) as info:
            ChamberSignature.from_masks(4, fam)
        assert str(info.value) == (
            "family not downward closed: (1, 3) is a member but (1, 2) is not"
        )

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_boundary_vectors(self, entries):
        lv = LengthVector(entries)
        short = {m for m, e in enumerate(oracle_top_excess(entries)) if e < 0}
        assert chamber_signature(lv).masks() == sorted(short)

    def test_median_named_across_the_boundary(self):
        lv = LengthVector((1, 2**62 - 1, 2**62))
        with pytest.raises(NotGeneric, match=r"median subset \(3,\)"):
            chamber_signature(lv)

    def test_canonical_bytes_deterministic(self):
        a = chamber_signature(parse_length_vector("1,2,2,2,4,4"))
        b = chamber_signature(parse_length_vector("2,4,4,4,8,8"))
        assert a == b


class TestFormat:
    @pytest.mark.parametrize("n", range(3, 23))
    def test_masks_round_trip(self, n):
        rnd = random.Random(n)
        while True:
            lv = LengthVector(tuple(sorted(rnd.randint(1, 10**6) for _ in range(n))))
            if is_generic(lv):
                break
        sig = chamber_signature(lv)
        assert ChamberSignature.from_masks(n, sig.masks()) == sig
        assert sig.bitmap >> 2 ** (n - 1) == 0

    @pytest.mark.parametrize(
        "n, bitmap",
        [(3, b""), (4, b"\x01\x00"), (6, b"\x01"), (3, "1"), (3, 1.0), (3, -1), (3, True)],
    )
    def test_not_an_int_bitmap(self, n, bitmap):
        # the bitmap is a non-negative int: bytes, text, floats, negative
        # ints and bools are refused
        with pytest.raises(MalformedCandidate, match="not a packed bitmap"):
            ChamberSignature(n, bitmap)

    def test_padding_bit(self):
        # n = 3 has four masks, so bit 4 and above are past the family
        assert ChamberSignature(3, 0b1111).masks() == [0, 1, 2, 3]
        with pytest.raises(MalformedCandidate, match="not a packed bitmap of 4 masks"):
            ChamberSignature(3, 0b11111)

    @pytest.mark.parametrize("mask", [True, np.True_, False, 1.0, "1", None])
    def test_mask_not_an_integer(self, mask):
        # numpy reads a bool (or None) as an index of its own kind, so
        # [0, True] meant all masks; a float or text failed untyped
        with pytest.raises(MalformedCandidate, match="is not an integer"):
            ChamberSignature.from_masks(4, [0, mask])

    def test_numpy_integer_mask(self):
        assert ChamberSignature.from_masks(4, [0, np.int64(1)]).masks() == [0, 1]

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_too_few_sides(self, n):
        with pytest.raises(TooFewEntries):
            ChamberSignature(n, 0)
        with pytest.raises(TooFewEntries):
            ChamberSignature.from_masks(n, ())

    @pytest.mark.parametrize("n", [25, 64, 10**9])
    def test_past_the_scan_cap(self, n):
        # refused on n alone, before a bitmap of that width is built
        with pytest.raises(OutOfRange, match="subset-enumeration cap"):
            ChamberSignature(n, 0)
        with pytest.raises(OutOfRange, match="subset-enumeration cap"):
            ChamberSignature.from_masks(n, ())

    @pytest.mark.parametrize("n", [3, 24])
    def test_bounds_accepted(self, n):
        sig = ChamberSignature.from_masks(n, [0])
        assert sig.masks() == [0] and not sig.is_empty_space


class TestComparison:
    def test_example_pair_witness(self):
        first = parse_length_vector("1,2,2,2,4,4")
        second = parse_length_vector("1,1,3,4,8,8")
        verdict = same_chamber_up_to_permutation(first, second)
        assert not verdict.same
        assert verdict.witness == mask_from_indices((1, 4, 6))

    def test_scaling(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        tripled = LengthVector(tuple(3 * e for e in lv.entries))
        assert same_chamber_up_to_permutation(lv, tripled).same

    def test_two_triangles(self):
        assert same_chamber_up_to_permutation(
            parse_length_vector("1,1,1"), parse_length_vector("2,2,3")
        ).same

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            same_chamber_up_to_permutation(
                parse_length_vector("1,1,1"), parse_length_vector("1,1,1,1,3")
            )

    def test_up_to_permutation(self):
        assert same_chamber_up_to_permutation(
            parse_length_vector("2,4,1,2,4,2"), parse_length_vector("1,2,2,2,4,4")
        ).same
        assert not same_chamber_up_to_permutation(
            parse_length_vector("1,2,2,2,4,4"), parse_length_vector("1,1,3,4,8,8")
        ).same

    @pytest.mark.parametrize("n", [22, 24])
    def test_wide_witness_is_the_rank_argmin(self, n):
        # the descent on the bitmap against the differing mask of lowest
        # rank in the subset_rank table
        rnd = random.Random(n)
        signatures = []
        while len(signatures) < 3:
            lv = LengthVector(tuple(sorted(rnd.randint(1, 10**9) for _ in range(n))))
            if is_generic(lv):
                signatures.append(chamber_signature(lv))
        rank = subset_rank(n - 1)
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            first, second = signatures[a], signatures[b]
            differ = np.flatnonzero(chambers._unpack(first.bitmap ^ second.bitmap, n - 1))
            want = int(differ[rank[differ].argmin()]) | 1 << (n - 1)
            assert chambers._compare_families(first, second).witness == want

    def test_nonempty_vs_empty_witness(self):
        verdict = same_chamber_up_to_permutation(
            parse_length_vector("1,1,1"), parse_length_vector("1,1,3")
        )
        assert not verdict.same
        assert verdict.witness == mask_from_indices((3,))


class TestRealize:
    def test_triangle_family(self):
        rep = realize_signature(ChamberSignature.from_masks(3, {0}))
        assert rep is not None
        assert chamber_signature(rep).masks() == [0]

    def test_infeasible_family(self):
        # l1 + l3 > l2 is forced by the ordering, so {1,3} cannot be short
        assert realize_signature(ChamberSignature.from_masks(3, {0, 1})) is None

    def test_square_like_family(self):
        rep = realize_signature(ChamberSignature.from_masks(4, {0, 1}))
        assert rep is not None
        assert rep.is_ordered and is_generic(rep)
        assert chamber_signature(rep).masks() == [0, 1]

    def test_empty_family_always_realizable(self):
        for n in (3, 5, 7):
            rep = realize_signature(ChamberSignature.from_masks(n, ()))
            assert rep is not None
            assert chamber_signature(rep).is_empty_space

    def test_round_trip_mismatch_is_a_typed_error(self, monkeypatch):
        # a vertex off the candidate's walls must not pass silently, also
        # under python -O; the n = 3 family {()} has the walls () and {1}:
        # (1, 1, 3) is off a wall, (2, 1, 1) unordered, (1, 1, 2) on a wall
        for vertex in [(1, 1, 3), (2, 1, 1), (1, 1, 2)]:
            solution = tuple(map(Fraction, vertex)) + (Fraction(1),)
            monkeypatch.setattr(
                exactlp,
                "maximize",
                lambda *a, x=solution: exactlp.LPResult(exactlp.OPTIMAL, Fraction(1), x),
            )
            with pytest.raises(CertificateFailure):
                realize_signature(ChamberSignature.from_masks(3, {0}))

    def test_census_needs_the_empty_family(self, monkeypatch):
        monkeypatch.setattr(chambers, "realize_signature", lambda sig: None)
        with pytest.raises(CertificateFailure) as raised:
            enumerate_chambers(4)
        assert str(raised.value) == "the LP found no vector with an empty polygon space"


#: sha256 of the ``census --n N --json`` stdout
_CENSUS_DIGESTS = {
    3: "efdc9c0ee4aff999848744b519f6fa899b4a4118cd412fceccdbb77b903efe92",
    4: "ac3215ae3960fe82c08160a4065c510a9a52e325efb25dfec6f8669fc81b232b",
    5: "1404afe5fad70115339646c2a50df96f5dcaf3710b5b7f20381cd62a2f2ef396",
    6: "2a38ca881030763c4bae7fe17ebf65cca6d8edbb16a1e8aa28bbff963cd242cf",
    7: "b98548fd6c8e4b7b5cc21a3d8e976f01ca61f2dcbcde8db8357d08bec33a569d",
    8: "1287cf615ce201db5eacac7ccde3592328d99054e03b63ff542f3ea181bd18ad",
}


def _census_digest(census):
    text = json.dumps(census.to_json_obj(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


class TestCensus:
    # Hausmann-Rodriguez, Experiment. Math. 2004
    @pytest.mark.parametrize("n,count", [(3, 2), (4, 3), (5, 7), (6, 21), (7, 135)])
    def test_counts(self, n, count):
        assert enumerate_chambers(n).count == count

    @pytest.mark.slow
    def test_count_n8(self):
        census = enumerate_chambers(8)
        assert census.count == 2470
        assert _census_digest(census) == _CENSUS_DIGESTS[8]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_json_digest(self, n):
        # pins the representatives too, which follow the LP row order
        assert _census_digest(enumerate_chambers(n)) == _CENSUS_DIGESTS[n]

    @staticmethod
    def _check_round_trip(n):
        # the census certifies each chamber on its walls; the subset scan
        # of every representative is the independent oracle
        census = enumerate_chambers(n)
        seen = set()
        for sig, rep in census.chambers:
            assert rep.is_ordered
            assert is_generic(rep)
            assert chamber_signature(rep) == sig
            seen.add(sig)
        assert len(seen) == census.count

    def test_round_trip_and_invariants(self):
        for n in range(3, 8):
            self._check_round_trip(n)

    @pytest.mark.slow
    def test_round_trip_and_invariants_n8(self):
        self._check_round_trip(8)

    def test_census_runs_no_scan(self, monkeypatch):
        # each chamber is certified on its walls by integer sums, so the
        # census makes no 2^(n-1) subset scan and builds no signature of a
        # vector
        calls = []
        scan, signature = lengths.subset_sums, chambers.chamber_signature
        monkeypatch.setattr(lengths, "subset_sums", lambda *a: calls.append(1) or scan(*a))
        monkeypatch.setattr(
            chambers, "chamber_signature", lambda *a: calls.append(2) or signature(*a)
        )
        assert enumerate_chambers(7).count == 135
        assert calls == []

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_force(self, n):
        assert brute_force_signatures(n, 8) == enumerate_chambers(n).signatures()

    # LP-free: every sorted generic integer vector with bounded entries
    # (3,003 of them at n = 6, 116,280 at n = 7) lands in a census chamber,
    # and every census chamber is hit
    def test_lp_free_oracle_n6(self):
        assert brute_force_signatures(6, 9) == enumerate_chambers(6).signatures()

    @pytest.mark.slow
    def test_lp_free_oracle_n7(self):
        assert brute_force_signatures(7, 15) == enumerate_chambers(7).signatures()

    def test_sampling_is_subset_at_small_bound(self):
        assert brute_force_signatures(5, 4) <= enumerate_chambers(5).signatures()

    def test_json_shape(self):
        doc = enumerate_chambers(4).to_json_obj()
        assert doc["n"] == 4 and doc["count"] == 3
        for chamber in doc["chambers"]:
            assert all(isinstance(e, str) for e in chamber["representative"])

    def test_deterministic(self):
        assert enumerate_chambers(4).to_json_obj() == enumerate_chambers(4).to_json_obj()

    @pytest.mark.parametrize(
        "n, error", [pytest.param(2, TooFewEntries, id="2"), pytest.param(9, OutOfRange, id="9")]
    )
    def test_out_of_range(self, n, error):
        # below three sides there is no polygon to count; above eight, a cap
        with pytest.raises(error):
            enumerate_chambers(n)

    def test_walls_found_once_per_candidate(self, monkeypatch):
        # n = 7 runs 161 LPs, 135 of them feasible: each candidate costs one
        # closure check, and its walls two more, one on the family and one
        # on its dual; a chamber taken from the walk flips its cached walls
        checks = []
        closed_below = chambers._closed_below
        monkeypatch.setattr(
            chambers, "_closed_below", lambda *a: checks.append(1) or closed_below(*a)
        )
        assert enumerate_chambers(7).count == 135
        assert len(checks) == 3 * 161

    @pytest.mark.parametrize("n", [6, 7])
    def test_walk_is_breadth_first(self, monkeypatch, n):
        # a chamber with k members is k flips from the empty family, so a
        # breadth-first walk realizes the chambers by member count
        counts = []
        realize = chambers.realize_signature

        def recording(cand):
            rep = realize(cand)
            if rep is not None:
                counts.append(len(cand.masks()))
            return rep

        monkeypatch.setattr(chambers, "realize_signature", recording)
        assert enumerate_chambers(n).count == len(counts)
        assert counts == sorted(counts)

    @pytest.mark.parametrize(
        "n, lps, pivots",
        [
            pytest.param(6, 26, 393, id="6"),
            pytest.param(7, 161, 2804, id="7"),
            pytest.param(8, 3119, 71836, id="8", marks=pytest.mark.slow),
        ],
    )
    def test_lp_pivot_path(self, monkeypatch, n, lps, pivots):
        # the pivot count pins Bland's path through every LP, not only the
        # vertices it ends on
        lp_calls, pivot_calls = [], []
        maximize, pivot = exactlp.maximize, exactlp._pivot
        monkeypatch.setattr(exactlp, "maximize", lambda *a: lp_calls.append(1) or maximize(*a))
        monkeypatch.setattr(exactlp, "_pivot", lambda *a: pivot_calls.append(1) or pivot(*a))
        enumerate_chambers(n)
        assert (len(lp_calls), len(pivot_calls)) == (lps, pivots)


@st.composite
def candidate_families(draw):
    n = draw(st.integers(2, 6))
    width = n - 1
    masks = st.integers(0, (1 << width) - 1)
    if draw(st.booleans()):
        return n, draw(st.sets(masks))
    fam = downward_closure(n, draw(st.lists(masks, max_size=3)))
    if fam and draw(st.booleans()):
        fam.discard(draw(st.sampled_from(sorted(fam))))
    if draw(st.integers(0, 9)) == 0:
        fam.add(draw(st.sampled_from([-1, 1 << width, 5 << width])))
    return n, fam


class TestClosureProperty:
    @given(candidate_families())
    @settings(max_examples=300)
    def test_accepts_exactly_the_closed_families(self, case):
        n, fam = case
        try:
            ChamberSignature.from_masks(n, fam)
            accepted = True
        except (MalformedCandidate, TooFewEntries):
            accepted = False
        assert accepted == (n >= 3 and oracle_downward_closed(n, fam))

    @given(st.integers(3, 6), st.data())
    @settings(max_examples=100)
    def test_walls_are_the_closed_flips(self, n, data):
        masks = st.integers(0, (1 << (n - 1)) - 1)
        fam = downward_closure(n, data.draw(st.lists(masks, max_size=3)))
        flips = [m for m in range(1 << (n - 1)) if oracle_downward_closed(n, fam ^ {m})]
        expected = [m for m in flips if m in fam] + [m for m in flips if m not in fam]
        assert ChamberSignature.from_masks(n, fam).walls == tuple(expected)


def _as_array(bits: int, width: int) -> np.ndarray:
    nbytes = max(1, (1 << width) // 8)
    packed = np.frombuffer(bits.to_bytes(nbytes, "little"), np.uint8)
    return np.unpackbits(packed, count=1 << width, bitorder="little").view(bool)


def _check_against_oracle(member: np.ndarray) -> None:
    """The packed closure check agrees with the boolean oracle on any
    family, and the walls on a closed one."""
    width = member.size.bit_length() - 1
    bits = int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little")
    closed = oracle_closed_below(member)
    assert np.array_equal(_as_array(chambers._closed_below(bits, width), width), closed)
    if width >= 2 and not (member & ~closed).any():
        assert ChamberSignature(width + 1, bits).walls == oracle_walls(member)


@st.composite
def bool_families(draw):
    """A width 1..10 and a family over its masks: random bits, or the
    closure of a few masks with a few masks flipped."""
    width = draw(st.integers(1, 10))
    size = 1 << width
    if draw(st.booleans()):
        bits = draw(st.integers(0, (1 << size) - 1))
    else:
        fam = downward_closure(width + 1, draw(st.lists(st.integers(0, size - 1), max_size=4)))
        bits = sum(1 << m for m in fam)
        for m in draw(st.lists(st.integers(0, size - 1), max_size=2)):
            bits ^= 1 << m
    return _as_array(bits, width)


class TestClosureOracle:
    @given(bool_families())
    @settings(max_examples=300)
    def test_small_widths(self, member):
        _check_against_oracle(member)

    @pytest.mark.parametrize("width", [20, 21, 22, 23])
    def test_wide_families(self, width):
        # a closed family (sets of at most width/2 elements) with a few
        # members flipped, and a dense random family
        rng = np.random.default_rng(width)
        closed = subset_sizes(width) <= width // 2
        _check_against_oracle(closed)
        flipped = closed.copy()
        flipped[rng.integers(0, closed.size, 40)] ^= True
        _check_against_oracle(flipped)
        _check_against_oracle(rng.random(closed.size) < 0.9)


class TestEquivalenceProperties:
    @given(length_vectors(ordered=True, generic=True, max_n=6))
    def test_reflexive(self, lv):
        assert same_chamber_up_to_permutation(lv, lv).same

    @given(
        length_vectors(ordered=True, generic=True, max_n=5),
        length_vectors(ordered=True, generic=True, max_n=5),
    )
    @settings(max_examples=60)
    def test_symmetric(self, a, b):
        if a.n != b.n:
            return
        ab = same_chamber_up_to_permutation(a, b)
        assert ab.same == same_chamber_up_to_permutation(b, a).same

    @given(
        st.integers(3, 5),
        st.data(),
    )
    @settings(max_examples=40)
    def test_transitive(self, n, data):
        triple = []
        while len(triple) < 3:
            entries = tuple(
                sorted(data.draw(st.integers(1, 20)) for _ in range(n))
            )
            lv = LengthVector(entries)
            from polygonspaces import is_generic as generic

            if generic(lv):
                triple.append(lv)
        a, b, c = triple
        same = same_chamber_up_to_permutation
        if same(a, b).same and same(b, c).same:
            assert same(a, c).same

    @given(length_vectors(generic=True, max_n=6), st.randoms())
    def test_permutation_invariance(self, lv, rnd):
        entries = list(lv.entries)
        rnd.shuffle(entries)
        shuffled = LengthVector(tuple(entries))
        assert same_chamber_up_to_permutation(lv, shuffled).same

    @given(length_vectors(ordered=True, generic=True, max_n=6))
    def test_emptiness_criterion(self, lv):
        # nonempty family iff the empty set is a member iff {n} is short
        sig = chamber_signature(lv)
        from polygonspaces import Kind, classify_subset

        top_short = classify_subset(lv, 1 << (lv.n - 1)).kind is Kind.SHORT
        assert (0 in sig.masks()) == top_short
        assert bool(sig.masks()) == top_short
