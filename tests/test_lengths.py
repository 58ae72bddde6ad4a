import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import BOUNDARY_VECTORS, length_vectors, oracle_excess, oracle_top_excess
from polygonspaces import (
    Kind,
    LengthVector,
    classify_subset,
    complement_mask,
    excess,
    indices_of_mask,
    is_generic,
    mask_from_indices,
    parse_length_vector,
)
from polygonspaces.errors import (
    EntryNotPositive,
    MalformedNumber,
    OutOfRange,
    TooFewEntries,
)
from polygonspaces.lengths import (
    MAX_ENUM_N,
    MAX_SHOWN_VECTOR,
    exact_str,
    first_in_index_order,
    shown_vector,
    subset_rank,
    subset_sizes,
    subset_sums,
    top_excess,
)


#: small entries, and entries whose decimal form passes any cap
_ENTRIES = st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**700), 10**700))


def _plain(entries) -> str:
    return "(" + ", ".join(map(str, entries)) + ")"


class TestParse:
    def test_example_vector(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        assert lv.n == 6
        assert lv.entries == (1, 2, 2, 2, 4, 4)

    def test_gcd_normalization(self):
        assert parse_length_vector("2,4,4,4,8,8") == parse_length_vector("1,2,2,2,4,4")

    def test_zero_entry_rejected(self):
        with pytest.raises(EntryNotPositive):
            parse_length_vector("0,1,1")

    def test_negative_entry_rejected(self):
        with pytest.raises(EntryNotPositive):
            parse_length_vector("1,-1,1")

    def test_too_few(self):
        with pytest.raises(TooFewEntries):
            parse_length_vector("1,2")

    def test_garbage_token(self):
        with pytest.raises(MalformedNumber):
            parse_length_vector("1,two,3")

    def test_decimals_are_exact(self):
        # 0.15 must be 3/20, never a binary float
        lv = parse_length_vector("0.15 0.15 0.15 0.15 0.4")
        assert lv == LengthVector.from_rationals(
            [Fraction(3, 20)] * 4 + [Fraction(2, 5)]
        )
        assert lv.entries == (3, 3, 3, 3, 8)

    def test_binary_floats_rejected(self):
        with pytest.raises(MalformedNumber):
            LengthVector.from_rationals([0.15, 0.15, 0.7])

    @pytest.mark.parametrize(
        "entries", [(Fraction(3, 2), 2, 2), (1.5, 2, 2), (Fraction(2), 2, 2), ("1", 2, 2)]
    )
    def test_constructor_takes_only_integers(self, entries):
        # int() used to truncate 3/2 and 1.5 to 1; rationals go through
        # from_rationals, which keeps them exact
        with pytest.raises(MalformedNumber):
            LengthVector(entries)

    def test_integer_types_accepted(self):
        lv = LengthVector((np.int64(1), 1, 2))
        assert lv.entries == (1, 1, 2)
        assert all(type(e) is int for e in lv.entries)
        assert LengthVector.from_rationals([Fraction(3, 2), 2, 2]).entries == (3, 4, 4)

    def test_nonpositive_message_is_exact(self):
        with pytest.raises(EntryNotPositive, match=r"positive: \(0, 3, 4\)$"):
            LengthVector.from_rationals(["0", "3/2", 2])

    def test_undecimal_entries_are_a_limit(self):
        # Python refuses int -> str beyond 4,300 digits; the vector still
        # exists and computes, only its printed form is a typed limit
        lv = parse_length_vector("1e5000,1e5000,1")
        assert lv.entries == (10**5000, 10**5000, 1)
        with pytest.raises(OutOfRange, match="16610 bits"):
            str(lv)
        assert exact_str(-(10**4000)) == "-1" + "0" * 4000

    def test_exponent_bound(self):
        assert parse_length_vector("1e100000,1E-1_00_000,1").n == 3
        for tok in ("1e100001", "-.5E-100001", "1.e+100_001"):
            with pytest.raises(OutOfRange, match="exceeds 100000"):
                parse_length_vector(f"{tok},1,1")
        # past the bound, a token Fraction would refuse is still malformed
        for tok in ("1/2e100001", "x1e100001", "1e2e100001"):
            with pytest.raises(MalformedNumber):
                parse_length_vector(f"{tok},1,1")

    def test_digit_limit_is_a_limit(self):
        # Python refuses str -> int beyond 4,300 digits in any digit run
        long_tokens = (("9" * 5000, 5000), ("1/" + "7" * 5000, 5001), ("1e" + "1" * 4400, 4401))
        for tok, digits in long_tokens:
            with pytest.raises(OutOfRange, match=f"^a token of {digits} digits"):
                parse_length_vector(f"{tok},1,1")
        # a malformed or zero-denominator token stays malformed at any length
        for tok in ("9" * 5000 + "x", "1/" + "0" * 5000, "1//" + "7" * 5000):
            with pytest.raises(MalformedNumber, match=rf"\.\.\. \({len(tok)} characters\)"):
                parse_length_vector(f"{tok},1,1")

    def test_strings_are_parsed_as_tokens(self):
        # from_rationals reads a string as parse_length_vector does
        assert LengthVector.from_rationals(["0.15", "3/20", 1]).entries == (3, 3, 20)
        with pytest.raises(OutOfRange, match="exceeds 100000"):
            LengthVector.from_rationals(["1e999999999", 1, 1])
        with pytest.raises(MalformedNumber, match=r"^cannot parse '1/0' as a rational$"):
            LengthVector.from_rationals(["1/0", 1, 1])

    @pytest.mark.parametrize("value", [Decimal("Infinity"), Decimal("-Infinity"), None])
    def test_non_rationals_are_malformed(self, value):
        with pytest.raises(MalformedNumber, match="^not a rational: "):
            LengthVector.from_rationals([value, 1, 1])

    def test_messages_name_long_vectors_in_part(self):
        for entries in [(0,) * 300_000, (1,) * 299_999 + (-1,), (10**5000, 0, 1)]:
            with pytest.raises(EntryNotPositive) as info:
                LengthVector(entries)
            shown = str(info.value).removeprefix("side lengths must be positive: ")
            assert len(shown) <= MAX_SHOWN_VECTOR
        assert str(info.value).endswith("(<16610-bit integer>, 0, 1)")

    @given(st.lists(_ENTRIES, min_size=1, max_size=120))
    def test_shown_vector_is_bounded(self, entries):
        shown = shown_vector(entries)
        assert len(shown) <= MAX_SHOWN_VECTOR
        if max(map(abs, entries)) < 10**180:  # each entry shown in decimal
            if len(_plain(entries)) <= MAX_SHOWN_VECTOR:
                assert shown == _plain(entries)
            else:
                assert shown.endswith(f"... {len(entries)} entries)")

    def test_whitespace_and_commas_mix(self):
        assert parse_length_vector(" 1, 2\t2  2,4 ,4 ").entries == (1, 2, 2, 2, 4, 4)

    def test_ordered_permutation(self):
        lv = parse_length_vector("2,4,1,2,4,2")
        assert lv.ordered().entries == (1, 2, 2, 2, 4, 4)


class TestMasks:
    def test_round_trip(self):
        mask = mask_from_indices((1, 4, 6))
        assert mask == 0b101001
        assert indices_of_mask(mask) == (1, 4, 6)

    def test_complement_involution(self):
        mask = mask_from_indices((2, 3))
        assert complement_mask(complement_mask(mask, 5), 5) == mask
        assert indices_of_mask(complement_mask(mask, 5)) == (1, 4, 5)

    def test_complement_of_the_ends(self):
        assert complement_mask(0, 3) == 7
        assert complement_mask(7, 3) == 0

    @pytest.mark.parametrize("mask", [-1, -8, 8, 1 << 70])
    def test_complement_refuses_masks_outside_the_subsets(self, mask):
        with pytest.raises(ValueError, match=f"mask {mask} outside subsets of 1..3"):
            complement_mask(mask, 3)

    @pytest.mark.parametrize("mask", [-1, -6, -(1 << 70)])
    def test_negative_mask_has_no_indices(self, mask):
        # a negative mask once shifted right forever
        with pytest.raises(ValueError, match=f"masks are non-negative, got {mask}"):
            indices_of_mask(mask)

    @given(st.integers(0, (1 << 200) - 1))
    def test_indices_are_the_set_bits(self, mask):
        assert indices_of_mask(mask) == tuple(i + 1 for i in range(200) if mask >> i & 1)

    def test_mask_key_orders_by_index_tuple(self):
        masks = [mask_from_indices(t) for t in [(2, 3), (1, 4), (1,), (1, 2, 3)]]
        assert [indices_of_mask(m) for m in sorted(masks, key=indices_of_mask)] == [
            (1,),
            (1, 2, 3),
            (1, 4),
            (2, 3),
        ]

    def test_subset_sums_against_direct(self):
        entries = (3, 5, 11, 21)
        sums = subset_sums(entries, np.int64)
        for mask in range(16):
            assert sums[mask] == sum(e for i, e in enumerate(entries) if mask >> i & 1)

    def test_subset_sums_big_integers(self):
        huge = 10**30
        sums = subset_sums((huge, 1, huge), object)
        assert sums[0b101] == 2 * huge

    def test_subset_sums_dtype_boundary(self):
        assert subset_sums((1, 2), dtype=object).dtype == object

    def test_subset_sizes_are_popcounts(self):
        sizes = subset_sizes(7)
        assert sizes.tolist() == [m.bit_count() for m in range(1 << 7)]
        assert not sizes.flags.writeable


class TestSubsetRank:
    def test_sort_matches_key_order(self):
        for width in range(13):
            rank = subset_rank(width)
            key_order = sorted(range(1 << width), key=indices_of_mask)
            assert np.argsort(rank).tolist() == key_order
            assert sorted(rank.tolist()) == list(range(1 << width))

    def test_read_only_int32(self):
        rank = subset_rank(23)
        assert rank.dtype == np.int32 and not rank.flags.writeable
        assert rank[(1 << 23) - 1] == 23 and rank[1 << 22] == (1 << 23) - 1

    def test_prefix_beats_its_extensions(self):
        # (1, 2) < (1, 2, 5) < (1, 3) < (2,) in index-tuple order
        rank = subset_rank(5)
        chain = [mask_from_indices(s) for s in [(1, 2), (1, 2, 5), (1, 3), (2,)]]
        assert [rank[m] for m in chain] == sorted(rank[m] for m in chain)


def _rank_argmin(bitmap: int, width: int) -> int:
    """The set bit of lowest subset_rank, read off the rank table."""
    differ = np.flatnonzero([bitmap >> m & 1 for m in range(1 << width)])
    return int(differ[subset_rank(width)[differ].argmin()])


class TestFirstInIndexOrder:
    @pytest.mark.parametrize("width", range(11))
    def test_matches_the_rank_table(self, width):
        rng = random.Random(width)
        size = 1 << width
        # every single mask, dense bitmaps, and sparse ones whose first bit
        # may lie deep in the trie
        bitmaps = [1 << m for m in range(size)]
        bitmaps += [rng.getrandbits(size) or 1 for _ in range(150)]
        for _ in range(150):
            bitmaps.append(sum(1 << m for m in {rng.randrange(size) for _ in range(3)}))
        for bitmap in bitmaps:
            assert first_in_index_order(bitmap, width) == _rank_argmin(bitmap, width)

    @pytest.mark.parametrize("bitmap", [0, -1, 1 << 8, (1 << 9) - 1])
    def test_refuses_what_is_not_a_nonzero_bitmap(self, bitmap):
        with pytest.raises(ValueError, match="not a nonzero bitmap of 8 masks"):
            first_in_index_order(bitmap, 3)


class TestTopExcess:
    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_matches_oracle_across_the_int64_boundary(self, entries):
        lv = LengthVector(entries)
        assert lv.entries == entries and lv.is_ordered
        exc = top_excess(lv)
        assert exc.dtype == (np.int64 if 2 * lv.total < 2**63 else object)
        assert exc.tolist() == oracle_top_excess(entries)

    def test_boundary_vectors_straddle_the_boundary(self):
        doubled = [2 * sum(e) for e in BOUNDARY_VECTORS]
        assert doubled == [2**63 - 2] * 2 + [2**63 + 2] * 2

    @given(length_vectors(ordered=True, max_n=7))
    def test_matches_oracle(self, lv):
        assert top_excess(lv).tolist() == oracle_top_excess(lv.entries)

    def test_cap_guard(self):
        # 25 sides with an even total: refused before the 2^24-entry table
        lv = LengthVector((1,) * 24 + (2,))
        assert lv.total % 2 == 0
        with pytest.raises(OutOfRange, match="^n=25 exceeds the subset-enumeration cap 24$"):
            top_excess(lv)

    def test_cap_admits_twenty_four_sides(self):
        assert MAX_ENUM_N == 24
        exc = top_excess(LengthVector((1,) * 23 + (3,)))
        assert exc.size == 1 << 23
        assert int(exc[0]) == 2 * 3 - 26 and int(exc[-1]) == 26


class TestExcess:
    def test_example_short(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        assert excess(lv, mask_from_indices((1, 4, 6))) == -1

    def test_full_set(self):
        lv = parse_length_vector("1,2,2,2,4,4")
        assert excess(lv, (1 << lv.n) - 1) == lv.total

    def test_example_long(self):
        lv = parse_length_vector("1,1,3,4,8,8")
        assert excess(lv, mask_from_indices((1, 4, 6))) == 1

    def test_classify_examples(self):
        assert (
            classify_subset(parse_length_vector("1,2,2,2,4,4"), mask_from_indices((1, 4, 6))).kind
            is Kind.SHORT
        )
        assert (
            classify_subset(parse_length_vector("1,1,2"), mask_from_indices((3,))).kind
            is Kind.MEDIAN
        )

    def test_empty_subset_always_short(self):
        for text in ("1,1,2", "1,2,3", "5,6,7,8"):
            assert classify_subset(parse_length_vector(text), 0).kind is Kind.SHORT


class TestGenericity:
    def test_examples(self):
        assert is_generic(parse_length_vector("1,2,2,2,4,4"))
        assert not is_generic(parse_length_vector("1,1,2"))

    def test_equal_length_pentagon_variant(self):
        # exhaustive scan of all subsets agrees with the containing-n scan
        lv = parse_length_vector("3/20,3/20,3/20,3/20,2/5")
        assert is_generic(lv)
        assert all(excess(lv, m) != 0 for m in range(1 << lv.n))

    def test_cap_guard(self):
        # even total, so the subset scan (and with it the cap) is reached
        lv = LengthVector((1,) * 24 + (2,))
        assert lv.total % 2 == 0
        with pytest.raises(OutOfRange):
            is_generic(lv)

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_boundary_vectors(self, entries):
        lv = LengthVector(entries)
        assert is_generic(lv) == all(e != 0 for e in oracle_top_excess(entries))

    def test_median_across_the_boundary(self):
        # 1 + (2^62 - 1) = 2^62: {1, 2} and {3} are median, 2L = 2^64
        lv = LengthVector((1, 2**62 - 1, 2**62))
        assert not is_generic(lv)

    def test_odd_total_skips_the_scan(self):
        # no subset of an odd-total vector can be median, at any n
        lv = LengthVector(tuple(range(1, 7)))
        assert lv.total % 2 == 1
        assert is_generic(lv)
        # beyond the cap too: 26 sides with an odd total need no scan
        wide = LengthVector((1,) * 25 + (2,))
        assert wide.total % 2 == 1
        assert is_generic(wide)


class TestLongSubsetStream:
    """Long subsets J union {n}, read off ``top_excess(lv) > 0`` by the mask of J."""

    def test_equilateral(self):
        lv = parse_length_vector("1,1,1")
        assert np.flatnonzero(top_excess(lv) > 0).tolist() == [0b01, 0b10, 0b11]

    def test_long_singleton(self):
        lv = parse_length_vector("1,1,3")
        assert np.flatnonzero(top_excess(lv) > 0).tolist() == [0b00, 0b01, 0b10, 0b11]

    def test_dominant_last_entry(self):
        lv = parse_length_vector("1,1,1,10")
        assert np.count_nonzero(top_excess(lv) > 0) == 8

    @pytest.mark.parametrize("entries", BOUNDARY_VECTORS)
    def test_boundary_vectors(self, entries):
        expected = [m for m, e in enumerate(oracle_top_excess(entries)) if e > 0]
        got = np.flatnonzero(top_excess(LengthVector(entries)) > 0).tolist()
        assert got == expected


class TestProperties:
    @given(length_vectors(), st.data())
    def test_antisymmetry(self, lv, data):
        mask = data.draw(st.integers(0, (1 << lv.n) - 1))
        comp = complement_mask(mask, lv.n)
        assert excess(lv, mask) + excess(lv, comp) == 0
        had = classify_subset(lv, mask).kind
        dual = classify_subset(lv, comp).kind
        if had is Kind.LONG:
            assert dual is Kind.SHORT
        if had is Kind.MEDIAN:
            assert dual is Kind.MEDIAN

    @given(length_vectors(max_n=6), st.integers(1, 7), st.integers(1, 7), st.data())
    def test_scale_invariance(self, lv, num, den, data):
        mask = data.draw(st.integers(0, (1 << lv.n) - 1))
        scaled = LengthVector.from_rationals(
            [Fraction(e * num, den) for e in lv.entries]
        )
        assert classify_subset(scaled, mask).kind is classify_subset(lv, mask).kind

    @given(length_vectors(ordered=True, max_n=6), st.data())
    def test_ordered_monotonicity(self, lv, data):
        mask = data.draw(st.integers(0, (1 << lv.n) - 1))
        inside = indices_of_mask(mask)
        outside = [i for i in range(1, lv.n + 1) if i not in inside]
        if classify_subset(lv, mask).kind is not Kind.SHORT:
            return
        for j in inside:
            for i in outside:
                if i < j:
                    swapped = (mask ^ (1 << (j - 1))) | 1 << (i - 1)
                    assert classify_subset(lv, swapped).kind is Kind.SHORT

    @given(length_vectors(max_n=6))
    def test_generic_matches_full_scan(self, lv):
        full = all(excess(lv, m) != 0 for m in range(1 << lv.n))
        assert is_generic(lv) == full

    @given(length_vectors(max_n=6), st.data())
    def test_excess_matches_direct_oracle(self, lv, data):
        mask = data.draw(st.integers(0, (1 << lv.n) - 1))
        assert excess(lv, mask) == oracle_excess(lv.entries, indices_of_mask(mask))

    @given(length_vectors())
    def test_normal_form_is_coprime(self, lv):
        import math

        assert math.gcd(*lv.entries) == 1


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: mask_from_indices([0]), ValueError, "subset indices are 1-based, got 0"),
        (lambda: excess(parse_length_vector("1,2,2,2,4,4"), 1 << 6), ValueError,
         "mask 64 outside subsets of 1..6"),
        (lambda: parse_length_vector(" , , "), TooFewEntries, "no entries found"),
    ],
    ids=["zero_index", "wide_mask", "no_entries"],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
