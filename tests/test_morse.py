import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BOUNDARY_VECTORS,
    length_vectors,
    oracle_excess,
    oracle_hessian_form,
    oracle_integer_inertia,
    oracle_top_excess,
)
from polygonspaces import morse
from polygonspaces import (
    EmptySpaceCertificate,
    LengthVector,
    PolygonConfiguration,
    complement_poincare_polynomial,
    critical_data,
    energy,
    enumerate_chambers,
    find_polygon,
    hessian_matrix,
    hessian_signature,
    indices_of_mask,
    is_generic,
    jacobian_rank,
    lacunary_consistency,
    mask_from_indices,
    parse_length_vector,
)
from polygonspaces.errors import (
    CertificateFailure,
    ConvergenceFailure,
    DegenerateConfiguration,
    NonUnitInput,
    NotGeneric,
    OutOfRange,
    SubsetNotLong,
    UnsupportedDimension,
)
from polygonspaces.morse import _as_floats

#: three seeded vectors per n = 3..9 with entries up to 60 and up to 10^6
ORACLE_VECTORS = [
    tuple(sorted(random.Random(100 * n + seed).randint(1, high) for _ in range(n)))
    for n in range(3, 10)
    for high in (60, 10**6)
    for seed in range(3)
] + BOUNDARY_VECTORS


#: the 15-gon (3, 5, ..., 31): 2^14 critical records, generic since its total is odd
FIFTEEN_GON = LengthVector(tuple(range(3, 32, 2)))


def triangle_config():
    u = np.array(
        [
            [1.0, 0.0, 0.0],
            [-0.5, math.sqrt(3) / 2, 0.0],
            [-0.5, -math.sqrt(3) / 2, 0.0],
        ]
    )
    return PolygonConfiguration(3, u, 0.0)


class TestEnergy:
    def test_equilateral_closes(self):
        lv = parse_length_vector("1,1,1")
        assert abs(energy(lv, triangle_config())) <= 1e-18

    def test_aligned_directions(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        u = np.tile(np.array([[0.0, 0.0, 1.0]]), (6, 1))
        cfg = PolygonConfiguration(3, u, float(lv.total))
        assert energy(lv, cfg) == -float(lv.total) ** 2

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_long_singleton_bounds_energy(self, seed):
        # min |sum| is the deficit 1, so the energy never exceeds -1
        lv = parse_length_vector("1,1,3")
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(3, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        assert energy(lv, PolygonConfiguration(3, u, 0.0)) <= -1 + 1e-9

    def test_non_unit_rejected(self):
        lv = parse_length_vector("1,1,1")
        u = np.eye(3) * 1.5
        with pytest.raises(NonUnitInput):
            energy(lv, PolygonConfiguration(3, u, 0.0))


class TestFindPolygon:
    def test_triangle(self):
        lv = parse_length_vector("1,1,1")
        cfg = find_polygon(lv, 3, seed=0)
        assert cfg.residual < 1e-9 * lv.total

    def test_empty_space_certificate(self):
        cert = find_polygon(parse_length_vector("1,1,3"), 3)
        assert isinstance(cert, EmptySpaceCertificate)
        assert cert.witness == mask_from_indices((3,))
        assert cert.min_residual == 1

    def test_hexagon(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        cfg = find_polygon(lv, 3, seed=0)
        assert cfg.residual < 1e-9 * lv.total
        assert abs(energy(lv, cfg)) < (1e-9 * lv.total) ** 2

    def test_deterministic_given_seed(self):
        lv = parse_length_vector("1,2,2,3,5")
        a = find_polygon(lv, 3, seed=11)
        b = find_polygon(lv, 3, seed=11)
        assert a.residual == b.residual and a.sweeps == b.sweeps
        assert np.array_equal(a.u, b.u)

    def test_monotone_residual_history(self, monkeypatch):
        # a zero tolerance is never met, so each run stops after exactly k
        # sweeps of one start and reports the residual it reached there
        monkeypatch.setattr(morse, "RESIDUAL_TOL", 0.0)
        monkeypatch.setattr(morse, "MAX_RESTARTS", 1)
        lv = parse_length_vector("1,2,2,3,5")
        hist = []
        for k in range(1, 41):
            monkeypatch.setattr(morse, "MAX_SWEEPS", k)
            with pytest.raises(ConvergenceFailure) as info:
                find_polygon(lv, 4, seed=3)
            hist.append(info.value.best_residual)
        for earlier, later in zip(hist, hist[1:]):
            assert later <= earlier * (1 + 1e-12) + 1e-15 * lv.total

    @given(length_vectors(ordered=True, generic=True, max_n=6), st.sampled_from([2, 3, 4]))
    @settings(max_examples=25)
    def test_random_generic_always_resolves(self, lv, d):
        out = find_polygon(lv, d, seed=5)
        from polygonspaces import Kind, classify_subset

        if classify_subset(lv, 1 << (lv.n - 1)).kind is Kind.LONG:
            assert isinstance(out, EmptySpaceCertificate)
        else:
            assert out.residual < 1e-9 * lv.total

    @pytest.mark.parametrize("text", ["1,1,2", "1,2,3,6"])
    def test_degenerate_closure_is_collinear(self, text):
        # the top side is exactly median: the space is one collinear closure
        lv = parse_length_vector(text)
        cfg = find_polygon(lv, 3, seed=0)
        assert isinstance(cfg, PolygonConfiguration)
        expected = np.zeros((lv.n, 3))
        expected[:, 0] = -1.0
        expected[-1, 0] = 1.0
        assert np.array_equal(cfg.u, expected)
        assert cfg.residual == 0.0
        assert (cfg.sweeps, cfg.restarts) == (0, 0)
        assert energy(lv, cfg) == 0.0

    def test_convergence_failure_reports_best_residual(self, monkeypatch):
        # a zero target is never met: descent must give up and say how close
        monkeypatch.setattr(morse, "RESIDUAL_TOL", 0.0)
        monkeypatch.setattr(morse, "MAX_RESTARTS", 2)
        with pytest.raises(ConvergenceFailure) as info:
            find_polygon(parse_length_vector("1,2,2,3,5"), 3)
        assert info.value.best_residual is not None
        assert 0.0 <= info.value.best_residual < 1e-9 * 13

    def test_huge_entries_are_rescaled(self):
        # 10^400 overflows a float; the solver works on an exact 2^-k rescale
        big = 10**400
        lv = LengthVector((big, big + 1, big + 2))
        cfg = find_polygon(lv, 3, seed=0)
        assert cfg.residual < 1e-9 * _as_floats(lv)[1]
        assert jacobian_rank(lv, cfg) == 3

    @given(length_vectors(max_entry=2**499))
    @settings(max_examples=30)
    def test_float_cast_unchanged_below_the_threshold(self, lv):
        lengths, perimeter = _as_floats(lv)
        assert np.array_equal(lengths, np.asarray(lv.entries, dtype=float))
        assert perimeter == float(lv.total)

    def test_unordered_empty_detection(self):
        # the dominating side need not sit last for library calls
        cert = find_polygon(parse_length_vector("3,1,1"), 3)
        assert isinstance(cert, EmptySpaceCertificate)
        assert cert.witness == mask_from_indices((1,))
        assert cert.min_residual == 1


class TestHessian:
    def test_explicit_three_gon_matrix(self):
        lv = parse_length_vector("1,1,3")
        H = hessian_matrix(lv, mask_from_indices((3,)))
        assert H.entries == (
            (Fraction(-2), Fraction(-1), Fraction(-1)),
            (Fraction(-1), Fraction(-2), Fraction(-1)),
            (Fraction(-1), Fraction(-1), Fraction(-2, 3)),
        )
        assert H.kernel_vector == (-1, -1, 3)
        assert H.multiply(H.kernel_vector) == (0, 0, 0)

    def test_three_gon_signature(self):
        lv = parse_length_vector("1,1,3")
        assert hessian_signature(lv, mask_from_indices((3,))) == (0, 2, 1)

    def test_full_set_is_minimum(self):
        for text in ("1,1,3", "1,2,2,2,4,4", "1,1,1"):
            lv = parse_length_vector(text)
            sig = hessian_signature(lv, (1 << lv.n) - 1)
            assert sig == (lv.n - 1, 0, 1)

    def test_hexagon_pair(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        assert hessian_signature(lv, mask_from_indices((5, 6))) == (1, 4, 1)

    def test_short_subset_rejected(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        with pytest.raises(SubsetNotLong):
            hessian_signature(lv, mask_from_indices((1, 4, 6)))
        with pytest.raises(SubsetNotLong):
            hessian_matrix(lv, mask_from_indices((1,)))

    @given(length_vectors(ordered=True, generic=True, max_n=6), st.data())
    @settings(max_examples=60)
    def test_index_law(self, lv, data):
        from polygonspaces import Kind, classify_subset

        mask = data.draw(st.integers(1, (1 << lv.n) - 1))
        if classify_subset(lv, mask).kind is not Kind.LONG:
            return
        size = mask.bit_count()
        assert hessian_signature(lv, mask) == (size - 1, lv.n - size, 1)
        H = hessian_matrix(lv, mask)
        assert all(v == 0 for v in H.multiply(H.kernel_vector))

    @pytest.mark.parametrize("trial", range(25))
    def test_integer_inertia_against_eigenvalues(self, trial):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(1, 7))
        m = rng.integers(-6, 7, size=(k, k))
        m = m + m.T
        pos, neg, zero = oracle_integer_inertia([[int(v) for v in row] for row in m])
        eig = np.linalg.eigvalsh(m.astype(float))
        assert pos == int(np.sum(eig > 1e-9))
        assert neg == int(np.sum(eig < -1e-9))
        assert zero == k - pos - neg


    @pytest.mark.parametrize("entries", ORACLE_VECTORS)
    def test_matches_eliminator_oracle(self, entries):
        lv = LengthVector(entries)
        for subset in range(1, 1 << lv.n):
            if oracle_excess(entries, indices_of_mask(subset)) > 0:
                expected = oracle_integer_inertia(oracle_hessian_form(entries, subset))
                assert hessian_signature(lv, subset) == expected

    def test_nonzero_schur_complement_fails_the_certificate(self):
        H = hessian_matrix(parse_length_vector("1,2,2,2,4,4"), mask_from_indices((5, 6)))
        assert H.signature == (1, 4, 1)
        with pytest.raises(CertificateFailure, match=r"at \(5, 6\) is not zero"):
            morse.HessianMatrix(H.excess + 1, H.kernel_vector).signature

    def test_stores_linear_data(self):
        H = hessian_matrix(parse_length_vector("1,2,2,3,5,9"), mask_from_indices((5, 6)))
        assert [f.name for f in dataclasses.fields(H)] == ["excess", "kernel_vector"]
        assert (H.excess, H.kernel_vector) == (6, (-1, -2, -2, -3, 5, 9))

    @pytest.mark.parametrize("entries", ORACLE_VECTORS)
    def test_entries_congruent_to_integer_form(self, entries):
        # diag(l) (D - E) diag(l) is the oracle's integer form, entry by entry,
        # and multiply agrees with the row products of the built matrix
        lv = LengthVector(entries)
        n = lv.n
        vec = [Fraction(random.Random(n).randint(-9, 9), j + 1) for j in range(n)]
        for subset in range(1, 1 << n):
            if oracle_excess(entries, indices_of_mask(subset)) <= 0:
                continue
            H = hessian_matrix(lv, subset)
            rows = H.entries
            form = oracle_hessian_form(entries, subset)
            assert all(
                rows[i][j] * entries[i] * entries[j] == form[i][j]
                for i in range(n)
                for j in range(n)
            )
            assert H.multiply(vec) == tuple(
                sum(a * v for a, v in zip(row, vec)) for row in rows
            )

    def test_multiply_rejects_wrong_length(self):
        H = hessian_matrix(parse_length_vector("1,1,3"), mask_from_indices((3,)))
        with pytest.raises(ValueError):
            H.multiply([1, 1])

    def test_multiply_matches_fraction_products(self):
        rng = random.Random(5)
        lv = parse_length_vector("1,2,2,3,5,9")
        for subset in (mask_from_indices((5, 6)), mask_from_indices((2, 3, 6)), 63):
            H = hessian_matrix(lv, subset)
            for _ in range(20):
                vec = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(6)]
                vec[rng.randrange(6)] = rng.randint(-9, 9)
                expected = tuple(
                    sum(a * Fraction(v) for a, v in zip(row, vec)) for row in H.entries
                )
                got = H.multiply(vec)
                assert got == expected
                assert all(type(x) is Fraction for x in got)


class TestCriticalData:
    def test_degenerate_three_gon(self):
        lv = parse_length_vector("1,1,3")
        recs = critical_data(lv, 3)
        got = [(indices_of_mask(r.subset), r.critical_value, r.index) for r in recs]
        assert got == [
            ((1, 2, 3), -25, 0),
            ((1, 3), -9, 2),
            ((2, 3), -9, 2),
            ((3,), -1, 4),
        ]
        # one zero each: every record is a (d-1)-sphere of aligned configurations
        assert all(r.hessian_signature[2] == 1 for r in recs)

    def test_equilateral(self):
        recs = critical_data(parse_length_vector("1,1,1"), 3)
        assert len(recs) == 4
        assert sorted(r.index for r in recs) == [0, 2, 2, 2]
        subsets = {indices_of_mask(r.subset) for r in recs}
        assert subsets == {(1, 2, 3), (1, 2), (1, 3), (2, 3)}

    def test_dominant_side(self):
        recs = critical_data(parse_length_vector("1,1,1,10"), 3)
        assert len(recs) == 8
        assert all(4 in indices_of_mask(r.subset) for r in recs)

    def test_one_record_per_pair(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        recs = critical_data(lv, 3)
        assert len(recs) == 2 ** (lv.n - 1)

    def test_sorted_by_value(self):
        recs = critical_data(parse_length_vector("1,2,2,2,4,4"), 3)
        values = [r.critical_value for r in recs]
        assert values == sorted(values)

    def test_nongeneric_rejected(self):
        with pytest.raises(NotGeneric):
            critical_data(parse_length_vector("1,1,2"), 3)

    def test_index_law_at_sixteen_sides(self):
        rng = random.Random(16)
        while True:
            entries = tuple(sorted(rng.randint(1, 10**6) for _ in range(16)))
            lv = LengthVector(entries)
            if is_generic(lv):
                break
        recs = critical_data(lv, 3)
        assert len(recs) == 2**15
        for r in recs:
            size = r.subset.bit_count()
            assert r.hessian_signature == (size - 1, 16 - size, 1)

    def test_one_tuple_object_per_inertia(self):
        recs = critical_data(FIFTEEN_GON, 3)
        shared = {id(r.hessian_signature) for r in recs}
        assert len(shared) == len({r.hessian_signature for r in recs})

    def test_retained_bytes_per_record(self):
        # a record holds its subset, value, index and a shared inertia tuple
        critical_data(FIFTEEN_GON, 3)  # first call fills the rank table's cache
        tracemalloc.start()
        try:
            recs = critical_data(FIFTEEN_GON, 3)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / len(recs) <= 200

    def test_energy_at_aligned_configuration_matches(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        for rec in critical_data(lv, 3)[:6]:
            signs = [
                1.0 if rec.subset >> i & 1 else -1.0 for i in range(lv.n)
            ]
            u = np.zeros((lv.n, 3))
            u[:, 0] = signs
            value = energy(lv, PolygonConfiguration(3, u, 0.0))
            assert abs(value - rec.critical_value) <= 1e-12 * abs(rec.critical_value)


class TestBoundaryVectors:
    """Critical data and complement counts across the int64/object boundary."""

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_critical_data_matches_oracle(self, entries):
        lv = LengthVector(entries)
        n = lv.n
        recs = critical_data(lv, 3)
        assert len(recs) == 2 ** (n - 1)
        for r in recs:
            exc = oracle_excess(entries, indices_of_mask(r.subset))
            assert exc > 0
            assert type(r.critical_value) is int
            assert r.critical_value == -exc * exc
            assert r.index == 2 * (n - r.subset.bit_count())
        # far beyond int64: a wrapped square would show here
        assert min(r.critical_value for r in recs) < -(2**63)

    def test_record_order_with_ties_on_the_object_path(self):
        # 2L = 10 * 2^62 + 2 takes the object scan; four equal sides give
        # 16 records with 5 distinct values, so the ties decide the order
        entries = (2**62,) * 4 + (2**62 + 1,)
        lv = LengthVector(entries)
        assert morse.top_excess(lv).dtype == object
        long_sides = [
            indices_of_mask(m)
            for m in range(1 << lv.n)
            if oracle_excess(entries, indices_of_mask(m)) > 0
        ]
        want = sorted(long_sides, key=lambda s: (-oracle_excess(entries, s) ** 2, s))
        recs = critical_data(lv, 3)
        assert [indices_of_mask(r.subset) for r in recs] == want
        assert len(recs) == 16
        assert len({r.critical_value for r in recs}) == 5

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_scan_error_fails_the_certificate(self, monkeypatch, entries):
        # each record's L_J is read off the scan, on its int64 path and on its
        # object path, and checked against the signed sum of the sides
        lv = LengthVector(entries)
        scan = morse.top_excess(lv)
        assert (scan.dtype == object) == (2 * lv.total >= 2**63)
        full, top = (1 << lv.n) - 1, 1 << (lv.n - 1)
        for mask, e in enumerate(scan.tolist()):
            wrong = scan.copy()
            wrong[mask] += 1 if e > 0 else -1  # away from zero: still generic
            monkeypatch.setattr(morse, "top_excess", lambda lv: wrong)
            rep = mask | top if e > 0 else full ^ (mask | top)
            with pytest.raises(CertificateFailure) as failure:
                critical_data(lv, 3)
            assert str(failure.value) == (
                f"the Hessian Schur complement at {indices_of_mask(rep)} is not zero"
            )

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_complement_polynomial_matches_oracle(self, entries):
        n = len(entries)
        hi = 1 << (n - 1)
        coeffs = [0] * (2 * n + 1)
        for m, e in enumerate(oracle_top_excess(entries)):
            size = (m | hi).bit_count() if e > 0 else n - (m | hi).bit_count()
            coeffs[2 * (n - size)] += 1
            coeffs[2 * (n - size) + 2] += 1
        while coeffs[-1] == 0:
            coeffs.pop()
        lv = LengthVector(entries)
        assert complement_poincare_polynomial(lv, 3) == coeffs
        assert lacunary_consistency(lv, 3)


class TestJacobianRank:
    def test_triangle_regular(self):
        lv = parse_length_vector("1,1,1")
        assert jacobian_rank(lv, triangle_config()) == 3

    def test_collinear_rank_drop(self):
        lv = parse_length_vector("1,1,2")
        u = np.array([[1.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
        cfg = PolygonConfiguration(3, u, 0.0)
        assert jacobian_rank(lv, cfg) < 3

    def test_degenerate_partial_sum(self):
        lv = parse_length_vector("1,1,1,1")
        u = np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
        with pytest.raises(DegenerateConfiguration):
            jacobian_rank(lv, PolygonConfiguration(3, u, 0.0))

    def test_realized_hexagon_full_rank(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        cfg = find_polygon(lv, 3, seed=2)
        assert jacobian_rank(lv, cfg) == 6


class TestComplementHomology:
    def test_three_gon_polynomial(self):
        assert complement_poincare_polynomial(parse_length_vector("1,1,3"), 3) == [
            1,
            0,
            3,
            0,
            3,
            0,
            1,
        ]

    def test_dominant_side_total(self):
        poly = complement_poincare_polynomial(parse_length_vector("1,1,1,10"), 3)
        assert sum(poly) == 16  # 8 long pairs, two classes each

    def test_lacunary_consistency_examples(self):
        for text in ("1,1,3", "1,1,1,10", "1,2,2,2,4,4"):
            assert lacunary_consistency(parse_length_vector(text), 3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_census_representatives_consistent(self, n):
        for _, rep in enumerate_chambers(n).chambers:
            assert lacunary_consistency(rep, 3)

    def test_nongeneric_rejected(self):
        with pytest.raises(NotGeneric):
            complement_poincare_polynomial(parse_length_vector("1,1,2"), 3)

    # past 2^63 the length overflows; below it the list outgrows any
    # 64-bit address space, so the allocation fails at once
    @pytest.mark.parametrize("d", [10**17, 10**18, 10**20], ids=["1e17", "1e18", "1e20"])
    def test_degree_past_the_largest_list(self, monkeypatch, d):
        # refused on the degree alone, before any critical record is built
        monkeypatch.setattr(morse, "critical_data", lambda *a: pytest.fail("scanned"))
        with pytest.raises(OutOfRange, match="largest list"):
            complement_poincare_polynomial(parse_length_vector("1,2,2,2,4,4"), d)

    def test_wrong_inertia_fails_the_check(self, monkeypatch):
        # the check reads the exact Hessians, not the counts it was built from
        signature = morse.HessianMatrix.signature.fget

        def one_sign_flipped(form):
            pos, neg, zero = signature(form)
            return (pos + 1, neg - 1, zero) if neg else (pos, neg, zero)

        monkeypatch.setattr(morse.HessianMatrix, "signature", property(one_sign_flipped))
        assert not lacunary_consistency(parse_length_vector("1,2,2,2,4,4"), 3)

    @given(length_vectors(ordered=True, generic=True, max_n=6), st.sampled_from([3, 4, 5]))
    @settings(max_examples=40)
    def test_consistency_property(self, lv, d):
        assert lacunary_consistency(lv, d)


EXAMPLE = parse_length_vector("1,2,2,2,4,4")
FIVE_ROWS = PolygonConfiguration(3, np.tile([1.0, 0.0, 0.0], (5, 1)), 0.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PolygonConfiguration(3, np.zeros((6, 2)), 0.0), ValueError,
         "direction array must be (n, 3)"),
        (lambda: energy(EXAMPLE, FIVE_ROWS), ValueError, "expected 6 direction rows, got 5"),
        (lambda: jacobian_rank(EXAMPLE, FIVE_ROWS), ValueError,
         "expected 6 direction rows, got 5"),
        (lambda: find_polygon(EXAMPLE, 1), UnsupportedDimension, "directions need d >= 2, got 1"),
        (lambda: critical_data(EXAMPLE, 1), UnsupportedDimension,
         "directions need d >= 2, got 1"),
    ],
    ids=["config_width", "energy_rows", "rank_rows", "solver_d", "critical_d"],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
