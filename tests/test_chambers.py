import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BOUNDARY_VECTORS,
    brute_force_signatures,
    downward_closure,
    length_vectors,
    oracle_downward_closed,
    oracle_top_excess,
)
from polygonspaces import chambers
from polygonspaces import (
    ChamberSignature,
    LengthVector,
    chamber_signature,
    enumerate_chambers,
    is_generic,
    mask_from_indices,
    parse_length_vector,
    realize_signature,
    same_chamber,
    same_chamber_up_to_permutation,
    same_stratum,
    stratum_signature,
)
from polygonspaces.errors import (
    CertificateFailure,
    DimensionMismatch,
    MalformedCandidate,
    NotGeneric,
    NotOrdered,
    OutOfRange,
)


class TestSignature:
    def test_equilateral_triangle(self):
        sig = chamber_signature(parse_length_vector("1,1,1"))
        assert sig.short_family == frozenset({0})

    def test_empty_space(self):
        sig = chamber_signature(parse_length_vector("1,1,3"))
        assert sig.short_family == frozenset()
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
            ChamberSignature(4, frozenset({0, mask_from_indices((1, 2))}))
        # {2} without {1} breaks dominance closure
        with pytest.raises(MalformedCandidate):
            ChamberSignature(4, frozenset({0, mask_from_indices((2,))}))
        # member outside 1..n-1
        with pytest.raises(MalformedCandidate):
            ChamberSignature(3, frozenset({mask_from_indices((3,)), 0, 1, 2}))

    def test_closure_error_names_member_and_gap(self):
        # (1, 3) loses 1 and 3 to members, but sliding 3 down gives (1, 2)
        fam = frozenset({0, 0b001, 0b010, 0b100, mask_from_indices((1, 3))})
        with pytest.raises(MalformedCandidate) as info:
            ChamberSignature(4, fam)
        assert str(info.value) == (
            "family not downward closed: (1, 3) is a member but (1, 2) is not"
        )

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_boundary_vectors(self, entries):
        lv = LengthVector(entries)
        short = {m for m, e in enumerate(oracle_top_excess(entries)) if e < 0}
        assert chamber_signature(lv).short_family == short
        strat = stratum_signature(lv)
        assert strat.short_family == short
        assert strat.median_family == frozenset()

    def test_median_named_across_the_boundary(self):
        lv = LengthVector((1, 2**62 - 1, 2**62))
        with pytest.raises(NotGeneric, match=r"median subset \(3,\)"):
            chamber_signature(lv)
        assert stratum_signature(lv).median_family == {0}

    def test_canonical_bytes_deterministic(self):
        a = chamber_signature(parse_length_vector("1,2,2,2,4,4"))
        b = chamber_signature(parse_length_vector("2,4,4,4,8,8"))
        assert a == b
        assert a.canonical_bytes == b.canonical_bytes


class TestComparison:
    def test_example_pair_witness(self):
        first = parse_length_vector("1,2,2,2,4,4")
        second = parse_length_vector("1,1,3,4,8,8")
        verdict = same_chamber(first, second)
        assert not verdict.same
        assert verdict.witness == mask_from_indices((1, 4, 6))

    def test_scaling(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        tripled = LengthVector(tuple(3 * e for e in lv.entries))
        assert same_chamber(lv, tripled).same

    def test_two_triangles(self):
        assert same_chamber(
            parse_length_vector("1,1,1"), parse_length_vector("2,2,3")
        ).same

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            same_chamber(parse_length_vector("1,1,1"), parse_length_vector("1,1,1,1,3"))

    def test_up_to_permutation(self):
        assert same_chamber_up_to_permutation(
            parse_length_vector("2,4,1,2,4,2"), parse_length_vector("1,2,2,2,4,4")
        ).same
        assert not same_chamber_up_to_permutation(
            parse_length_vector("1,2,2,2,4,4"), parse_length_vector("1,1,3,4,8,8")
        ).same

    def test_nonempty_vs_empty_witness(self):
        verdict = same_chamber_up_to_permutation(
            parse_length_vector("1,1,1"), parse_length_vector("1,1,3")
        )
        assert not verdict.same
        assert verdict.witness == mask_from_indices((3,))


class TestStratum:
    def test_scaling(self):
        assert same_stratum(parse_length_vector("1,1,2"), parse_length_vector("2,2,4"))

    def test_distinct_vectors_same_stratum(self):
        assert same_stratum(parse_length_vector("1,1,2"), parse_length_vector("1,2,3"))

    def test_median_versus_generic(self):
        assert not same_stratum(
            parse_length_vector("1,1,2"), parse_length_vector("1,1,1")
        )

    def test_reduces_to_chamber_when_generic(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        strat = stratum_signature(lv)
        assert strat.median_family == frozenset()
        assert strat.to_chamber_signature() == chamber_signature(lv)


class TestRealize:
    def test_triangle_family(self):
        rep = realize_signature(ChamberSignature(3, frozenset({0})))
        assert rep is not None
        assert chamber_signature(rep).short_family == frozenset({0})

    def test_infeasible_family(self):
        # l1 + l3 > l2 is forced by the ordering, so {1,3} cannot be short
        assert realize_signature(ChamberSignature(3, frozenset({0, 1}))) is None

    def test_square_like_family(self):
        rep = realize_signature(ChamberSignature(4, frozenset({0, 1})))
        assert rep is not None
        assert rep.is_ordered and is_generic(rep)
        assert chamber_signature(rep).short_family == frozenset({0, 1})

    def test_empty_family_always_realizable(self):
        for n in (3, 5, 7):
            rep = realize_signature(ChamberSignature(n, frozenset()))
            assert rep is not None
            assert chamber_signature(rep).is_empty_space

    def test_round_trip_mismatch_is_a_typed_error(self, monkeypatch):
        # a signature check that disagrees with the LP must not pass silently,
        # also under python -O
        monkeypatch.setattr(
            chambers,
            "chamber_signature",
            lambda lv, max_n=None: ChamberSignature(lv.n, frozenset()),
        )
        with pytest.raises(CertificateFailure):
            realize_signature(ChamberSignature(3, frozenset({0})))


class TestCensus:
    # Hausmann-Rodriguez, Experiment. Math. 2004
    @pytest.mark.parametrize("n,count", [(3, 2), (4, 3), (5, 7), (6, 21), (7, 135)])
    def test_counts(self, n, count):
        assert enumerate_chambers(n).count == count

    @pytest.mark.slow
    def test_count_n8(self):
        assert enumerate_chambers(8).count == 2470

    def test_round_trip_and_invariants(self):
        census = enumerate_chambers(5)
        seen = set()
        for sig, rep in census.chambers:
            assert rep.is_ordered
            assert is_generic(rep)
            assert chamber_signature(rep) == sig
            seen.add(sig)
        assert len(seen) == census.count

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_force(self, n):
        assert brute_force_signatures(n, 8) == enumerate_chambers(n).signatures()

    def test_sampling_is_subset_at_small_bound(self):
        assert brute_force_signatures(5, 4) <= enumerate_chambers(5).signatures()

    def test_json_shape(self):
        doc = enumerate_chambers(4).to_json_obj()
        assert doc["n"] == 4 and doc["count"] == 3
        for chamber in doc["chambers"]:
            assert all(isinstance(e, str) for e in chamber["representative"])

    def test_deterministic(self):
        assert enumerate_chambers(4).to_json_obj() == enumerate_chambers(4).to_json_obj()

    @pytest.mark.parametrize("n", [2, 9])
    def test_out_of_range(self, n):
        with pytest.raises(OutOfRange):
            enumerate_chambers(n)


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
            ChamberSignature(n, frozenset(fam))
            accepted = True
        except MalformedCandidate:
            accepted = False
        assert accepted == oracle_downward_closed(n, fam)


class TestEquivalenceProperties:
    @given(length_vectors(ordered=True, generic=True, max_n=6))
    def test_reflexive(self, lv):
        assert same_chamber(lv, lv).same

    @given(
        length_vectors(ordered=True, generic=True, max_n=5),
        length_vectors(ordered=True, generic=True, max_n=5),
    )
    @settings(max_examples=60)
    def test_symmetric(self, a, b):
        if a.n != b.n:
            return
        assert same_chamber(a, b).same == same_chamber(b, a).same

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
        if same_chamber(a, b).same and same_chamber(b, c).same:
            assert same_chamber(a, c).same

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
        assert (0 in sig.short_family) == top_short
        assert bool(sig.short_family) == top_short
