import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BOUNDARY_VECTORS,
    length_vectors,
    oracle_classify_pair,
    oracle_top_excess,
)
from polygonspaces import (
    Kind,
    LengthVector,
    classify_subset,
    betti_table,
    chamber_signature,
    classify_pair,
    enumerate_chambers,
    indices_of_mask,
    is_generic,
    mask_from_indices,
    parse_length_vector,
    quotient_basis_dimensions,
    recognize_special,
    ring_presentation,
    rings_isomorphic_bruteforce,
    short_median_counts,
    signature_verdict,
)
from polygonspaces.cohomology import RingPresentation
from polygonspaces.errors import (
    DimensionMismatch,
    NotGeneric,
    NotOrdered,
    SearchTooLarge,
    UnsupportedDimension,
)

EXAMPLE = parse_length_vector("1,2,2,2,4,4")
TWIN = parse_length_vector("1,1,3,4,8,8")
PENTAGON = parse_length_vector("3/20,3/20,3/20,3/20,2/5")


class TestCounts:
    def test_example(self):
        a, b = short_median_counts(EXAMPLE)
        assert a == (1, 4, 3, 0, 0, 0)
        assert b == (0,) * 6

    def test_twin_shares_counts(self):
        assert short_median_counts(TWIN)[0] == (1, 4, 3, 0, 0, 0)

    def test_triangle(self):
        a, b = short_median_counts(parse_length_vector("1,1,1"))
        assert a == (1, 0, 0)
        assert b == (0, 0, 0)

    def test_median_counted(self):
        a, b = short_median_counts(parse_length_vector("1,1,2"))
        assert b == (1, 0, 0)

    def test_requires_ordered(self):
        with pytest.raises(NotOrdered):
            short_median_counts(parse_length_vector("2,1,1"))


class TestBoundaryVectors:
    """Size counts and ring data across the int64/object scan boundary."""

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_counts_match_oracle(self, entries):
        n = len(entries)
        exc = oracle_top_excess(entries)
        a, b = [0] * n, [0] * n
        for m, e in enumerate(exc):
            if e <= 0:
                (a if e < 0 else b)[m.bit_count()] += 1
        assert short_median_counts(LengthVector(entries)) == (tuple(a), tuple(b))

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_quotient_basis_matches_oracle(self, entries):
        counts = {}
        for m, e in enumerate(oracle_top_excess(entries)):
            if e <= 0:
                for k in (m.bit_count(), m.bit_count() + 1):
                    counts[k] = counts.get(k, 0) + 1
        assert quotient_basis_dimensions(LengthVector(entries), 3) == counts

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_ring_matches_oracle(self, entries):
        n = len(entries)
        long = {m for m, e in enumerate(oracle_top_excess(entries)) if e > 0}
        minimal = {
            m
            for m in long
            if not any(m & 1 << j and m ^ 1 << j in long for j in range(n))
        }
        pres = ring_presentation(LengthVector(entries), 3)
        assert set(pres.minimal_generators) == minimal
        assert pres.pruned == tuple(j for j in range(1, n) if 1 << (j - 1) in long)


class TestBetti:
    def test_example_dims(self):
        table = betti_table(EXAMPLE, 3)
        assert table.dims == {0: 1, 2: 5, 3: 3, 4: 7, 5: 7, 6: 3, 7: 5, 9: 1}
        assert table.manifold_dim == 9
        assert table.note is None

    def test_pentagon_product_of_spheres(self):
        assert betti_table(PENTAGON, 3).dims == {0: 1, 2: 1, 5: 1, 7: 1}

    def test_empty_space_vanishes(self):
        table = betti_table(parse_length_vector("1,1,1,10"), 3)
        assert table.dims == {}

    def test_rejects_low_dimension(self):
        with pytest.raises(UnsupportedDimension):
            betti_table(EXAMPLE, 2)

    def test_nongeneric_flagged(self):
        table = betti_table(parse_length_vector("1,1,2"), 3)
        assert table.note is not None
        assert table.dims[0] == 1

    def test_poincare_polynomial_triangle(self):
        table = betti_table(parse_length_vector("1,1,1"), 3)
        assert [table.dim(i) for i in range(table.manifold_dim + 1)] == [1, 1, 1, 1]

    def test_euler_example(self):
        assert betti_table(EXAMPLE, 3).euler == 0

    @given(length_vectors(ordered=True, generic=True, max_n=6), st.sampled_from([3, 5, 7]))
    def test_euler_vanishes_in_odd_d(self, lv, d):
        assert betti_table(lv, d).euler == 0

    @given(length_vectors(ordered=True, generic=True, max_n=6), st.sampled_from([3, 4, 5]))
    def test_poincare_duality(self, lv, d):
        table = betti_table(lv, d)
        top = table.manifold_dim
        for i in range(top + 1):
            assert table.dim(i) == table.dim(top - i)

    @given(length_vectors(ordered=True, generic=True, max_n=6), st.sampled_from([3, 4]))
    def test_total_rank_is_four_a_total(self, lv, d):
        table = betti_table(lv, d)
        assert sum(table.dims.values()) == 4 * sum(table.a)

    @given(length_vectors(ordered=True, max_n=6))
    def test_degree_zero_detects_emptiness(self, lv):
        table = betti_table(lv, 3)
        assert table.dim(0) in (0, 1)
        assert (table.dim(0) == 1) == (table.a[0] + table.b[0] == 1)

    @given(length_vectors(ordered=True, max_n=6), st.sampled_from([3, 4, 5]))
    def test_degree_d_minus_2_at_most_one(self, lv, d):
        assert betti_table(lv, d).dim(d - 2) <= 1


class TestQuotientOracle:
    def test_example(self):
        assert quotient_basis_dimensions(EXAMPLE, 3) == {0: 1, 1: 5, 2: 7, 3: 3}

    def test_zero_ring(self):
        assert quotient_basis_dimensions(parse_length_vector("1,1,3"), 3) == {}

    def test_triangle(self):
        assert quotient_basis_dimensions(parse_length_vector("1,1,1"), 3) == {0: 1, 1: 1}

    @given(length_vectors(ordered=True, max_n=7), st.sampled_from([3, 4, 5]))
    def test_matches_betti_in_generator_degrees(self, lv, d):
        table = betti_table(lv, d)
        oracle = quotient_basis_dimensions(lv, d)
        for k in range(lv.n + 1):
            assert oracle.get(k, 0) == table.dim((d - 1) * k)


class TestRingPresentation:
    def test_triangle_prunes_everything(self):
        pres = ring_presentation(parse_length_vector("1,1,1"), 3)
        assert pres.pruned == (1, 2)
        assert pres.minimal_generators == (mask_from_indices((1,)), mask_from_indices((2,)))
        assert pres.kept_variables() == (3,)
        assert pres.pruned_generators() == ()

    def test_example_generators(self):
        pres = ring_presentation(EXAMPLE, 3)
        gens = {indices_of_mask(m) for m in pres.minimal_generators}
        assert gens == {(5,), (2, 3), (2, 4), (3, 4)}
        assert pres.pruned == (5,)
        assert not pres.is_zero_ring

    def test_zero_ring(self):
        pres = ring_presentation(parse_length_vector("1,1,3"), 3)
        assert pres.is_zero_ring

    def test_generators_form_antichain(self):
        pres = ring_presentation(TWIN, 3)
        gens = list(pres.minimal_generators)
        for g in gens:
            for h in gens:
                if g != h:
                    assert g & h != g  # no containment


def _quadrics(*edges: str) -> RingPresentation:
    """A presentation on Z1..Z7, nothing pruned, with the generator Z_i Z_j
    for every edge "ij"."""
    gens = sorted(mask_from_indices((int(e[0]), int(e[1]))) for e in edges)
    return RingPresentation(7, 3, (), tuple(gens))


HEXAGON = _quadrics("12", "23", "34", "45", "56", "61")


class TestRingIsomorphism:
    def test_same_normal_form(self):
        assert rings_isomorphic_bruteforce(
            ring_presentation(EXAMPLE, 3),
            ring_presentation(parse_length_vector("2,4,4,4,8,8"), 3),
        )

    def test_example_pair_differs(self):
        assert not rings_isomorphic_bruteforce(
            ring_presentation(EXAMPLE, 3), ring_presentation(TWIN, 3)
        )

    def test_relabelled_variables(self):
        pres = ring_presentation(EXAMPLE, 3)
        # swap variables 1 and 2 everywhere in the generator list
        swap = {1: 2, 2: 1}
        relabelled = tuple(
            sorted(
                mask_from_indices(tuple(swap.get(i, i) for i in indices_of_mask(m)))
                for m in pres.minimal_generators
            )
        )
        twin = RingPresentation(pres.n, pres.d, pres.pruned, relabelled)
        assert rings_isomorphic_bruteforce(pres, twin)

    def test_search_refutes_what_the_prefilters_pass(self):
        # six quadratic generators on Z1..Z6, every variable in two of them:
        # only the backtracking search tells a hexagon from two triangles
        triangles = _quadrics("12", "23", "31", "45", "56", "64")
        assert not rings_isomorphic_bruteforce(HEXAGON, triangles)

    def test_search_finds_a_relabelled_hexagon(self):
        relabelled = _quadrics("13", "35", "52", "24", "46", "61")
        assert rings_isomorphic_bruteforce(HEXAGON, relabelled)

    @pytest.mark.parametrize(
        "first, second",
        [
            (("12", "34", "15"), ("1", "23", "345")),  # generator degrees differ
            (("12", "23", "34"), ("12", "13", "14")),  # a path and a star
        ],
        ids=["degrees", "profiles"],
    )
    def test_prefilters_refute(self, first, second):
        # both rejected before the search: the star's Z1 is in all three
        # generators, no variable of the path is in more than two
        a, b = (
            RingPresentation(6, 3, (), tuple(mask_from_indices(map(int, g)) for g in gens))
            for gens in (first, second)
        )
        assert not rings_isomorphic_bruteforce(a, b)

    def test_zero_rings_isomorphic(self):
        a = ring_presentation(parse_length_vector("1,1,3"), 3)
        b = ring_presentation(parse_length_vector("1,2,3,7"), 3)
        assert rings_isomorphic_bruteforce(a, b)
        assert not rings_isomorphic_bruteforce(a, ring_presentation(EXAMPLE, 3))

    def test_search_cap(self):
        wide = parse_length_vector(",".join(["1"] * 13 + ["2"]))
        pres = ring_presentation(wide, 3)
        assert len(pres.kept_variables()) == 14
        with pytest.raises(SearchTooLarge):
            rings_isomorphic_bruteforce(pres, pres)


class TestClassifyPair:
    def test_example_pair(self):
        verdict = classify_pair(EXAMPLE, TWIN, 3)
        assert not verdict.diffeomorphic
        assert verdict.betti_equal
        assert verdict.witness == mask_from_indices((1, 4, 6))

    def test_permuted_self(self):
        verdict = classify_pair(parse_length_vector("2,4,1,2,4,2"), EXAMPLE, 3)
        assert verdict.diffeomorphic
        assert verdict.betti_equal

    def test_empty_vs_triangle(self):
        verdict = classify_pair(
            parse_length_vector("1,1,1"), parse_length_vector("1,1,3"), 3
        )
        assert not verdict.diffeomorphic

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            classify_pair(EXAMPLE, parse_length_vector("1,1,1"), 3)
        with pytest.raises(UnsupportedDimension):
            classify_pair(EXAMPLE, TWIN, 2)
        with pytest.raises(NotGeneric):
            classify_pair(parse_length_vector("1,1,2"), parse_length_vector("1,1,1"), 3)

    @given(
        length_vectors(ordered=True, generic=True, max_n=5),
        length_vectors(ordered=True, generic=True, max_n=5),
        st.sampled_from([3, 4]),
    )
    @settings(max_examples=60)
    def test_diffeomorphic_implies_betti_equal(self, a, b, d):
        if a.n != b.n:
            return
        verdict = classify_pair(a, b, d)
        if verdict.diffeomorphic:
            assert verdict.betti_equal


class TestVectorRecord:
    """A generic vector's record is the chamber signature of its sorted
    form; ``signature_verdict`` compares two of them."""

    @given(length_vectors(ordered=True, generic=True, max_n=9))
    def test_short_counts_match_short_median_counts(self, lv):
        assert chamber_signature(lv).short_counts == short_median_counts(lv)[0]

    def test_example_pair(self):
        verdict = signature_verdict(chamber_signature(EXAMPLE), chamber_signature(TWIN))
        assert verdict == classify_pair(EXAMPLE, TWIN, 3)
        assert verdict.witness == mask_from_indices((1, 4, 6))

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            signature_verdict(
                chamber_signature(EXAMPLE), chamber_signature(parse_length_vector("1,1,1"))
            )
        with pytest.raises(NotGeneric):
            chamber_signature(parse_length_vector("1,2,2,3"))

    @given(st.data(), st.sampled_from([3, 4]))
    @settings(max_examples=60)
    def test_matches_classify_pair_and_oracle(self, data, d):
        a = data.draw(length_vectors(generic=True, max_n=7, max_entry=12))
        b = data.draw(length_vectors(generic=True, min_n=a.n, max_n=a.n, max_entry=12))
        verdict = signature_verdict(
            chamber_signature(a.ordered()), chamber_signature(b.ordered())
        )
        assert verdict == classify_pair(a, b, d) == oracle_classify_pair(a, b, d)

    @pytest.mark.slow
    def test_wide_witnesses_match_oracle(self):
        # 22-gons: 2^21 masks per signature, so the witness runs on the
        # bitmap descent, not on a key call per differing mask
        rnd = random.Random(22)
        vectors = []
        while len(vectors) < 4:
            lv = LengthVector(tuple(rnd.randint(1, 10**6) for _ in range(22)))
            if is_generic(lv):
                vectors.append(lv)
        signatures = [chamber_signature(lv.ordered()) for lv in vectors]
        for i, j in itertools.combinations(range(4), 2):
            verdict = signature_verdict(signatures[i], signatures[j])
            assert verdict.witness is not None
            assert verdict == oracle_classify_pair(vectors[i], vectors[j], 3)


class TestRecognizeSpecial:
    def test_triangle_is_stiefel(self):
        assert recognize_special(parse_length_vector("1,1,1"), 3) == "stiefel_times_spheres"

    def test_pentagon_is_sphere_product(self):
        assert recognize_special(PENTAGON, 3) == "sphere_product"

    def test_example_is_neither(self):
        assert recognize_special(EXAMPLE, 3) is None

    def test_empty_is_none(self):
        assert recognize_special(parse_length_vector("1,1,3"), 3) is None

    @given(length_vectors(ordered=True, generic=True, max_n=6), st.sampled_from([3, 4, 5]))
    @settings(max_examples=60)
    def test_stiefel_tag_matches_low_degree_betti(self, lv, d):
        # the tagged chamber is exactly the one with a class in degree d-2
        table = betti_table(lv, d)
        tag = recognize_special(lv, d)
        if table.dim(0) and table.dim(d - 2) == 1:
            assert tag == "stiefel_times_spheres"
        else:
            assert tag != "stiefel_times_spheres"

    @pytest.mark.parametrize("n", range(3, 8))
    def test_census_tags(self, n):
        # every chamber once: each tag names one chamber, by its family
        tagged = {"stiefel_times_spheres": [], "sphere_product": []}
        for signature, rep in enumerate_chambers(n).chambers:
            tag = recognize_special(rep, 3)
            if tag:
                tagged[tag].append(signature.masks())
        assert tagged["stiefel_times_spheres"] == [list(range(1 << (n - 3)))]
        assert tagged["sphere_product"] == ([[0]] if n >= 4 else [])

    @given(length_vectors(ordered=True, generic=True, max_n=7))
    @settings(max_examples=100)
    def test_sphere_product_tag_matches_the_family(self, lv):
        # only {n} short: the family of J with J union {n} short is {empty}
        n = lv.n
        stiefel = classify_subset(lv, mask_from_indices((n - 2, n - 1))).kind is Kind.LONG
        expected = n >= 4 and not stiefel and chamber_signature(lv).masks() == [0]
        assert (recognize_special(lv, 3) == "sphere_product") == expected


class TestCountingIdentity:
    @given(length_vectors(ordered=True, max_n=7))
    def test_size_partition(self, lv):
        n = lv.n
        by_size = {"long": [0] * (n + 1), "other": [0] * (n + 1)}
        hi = 1 << (n - 1)
        for m in range(hi):
            mask = m | hi
            kind = classify_subset(lv, mask).kind
            key = "long" if kind is Kind.LONG else "other"
            by_size[key][mask.bit_count()] += 1

        def at(counts, size):
            return counts[size] if 0 <= size <= n else 0

        for k in range(n + 1):
            total = (
                at(by_size["long"], n - k + 1)
                + at(by_size["long"], n - k)
                + at(by_size["other"], n - k + 1)
                + at(by_size["other"], n - k)
            )
            assert total == math.comb(n, k)


def test_desk_scale_ring_chamber_agreement():
    # every pair of distinct census chambers at n = 5 must disagree in ring
    census = enumerate_chambers(5)
    reps = [rep for _, rep in census.chambers]
    pres = [ring_presentation(rep, 3) for rep in reps]
    from polygonspaces import same_chamber_up_to_permutation

    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            rings_agree = rings_isomorphic_bruteforce(pres[i], pres[j])
            chambers_agree = same_chamber_up_to_permutation(reps[i], reps[j]).same
            assert rings_agree == chambers_agree
