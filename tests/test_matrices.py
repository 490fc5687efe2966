"""Countdown matrices: recurrences, closed forms, queries, serialization."""

import json
import re
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    UNWINNABLE,
    AuctionVariant,
    DomainError,
    ResourceError,
    ValueModel,
    build_matrix,
    closed_form,
    countdown_for,
    handicap_obr,
    obr,
    optimal_bid_fraction,
    verify_matrix,
)
from multibattle import core, matrices
from multibattle.core import ceil_div
from multibattle.matrices import (
    MAX_EXACT_SIDE,
    MAX_FLOAT_SIDE,
    MatrixVerifyReport,
    _binomial_pair,
    _pair_rows,
    entry_pair,
)

F = Fraction

ALL_VARIANTS = [FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1]
# Fractional alpha: no O(1) closed form, only the binomial sums.
FRACTIONAL_VARIANTS = [
    AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)),
    AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)),
]
REFERENCE_VARIANTS = [
    pytest.param(v, id=name)
    for v, name in zip(
        ALL_VARIANTS + FRACTIONAL_VARIANTS + [AuctionVariant.all_pay(ValueModel.SET01, F(2, 7))],
        ["fp-set", "fp-fixed", "ap-set", "ap-fixed", "ap-set-third", "ap-fixed-half", "ap-set-two-sevenths"],
    )
]
# Both value models at six alphas, a large denominator among them.
BINOMIAL_VARIANTS = [
    AuctionVariant.all_pay(values, alpha)
    for alpha in (F(0), F(1, 3), F(1, 2), F(2, 7), F(12345, 65536), F(1))
    for values in (ValueModel.SET01, ValueModel.FIXED1)
]
FRACTIONAL_BINOMIAL = [v for v in BINOMIAL_VARIANTS if not v.has_closed_form]


def _alpha_id(variant):
    return f"{variant.short_name}-{variant.alpha}"


# ---------------------------------------------------------------- spot values


def test_set01_first_price_spot_values():
    m = build_matrix(FP_SET01, 3, exact=True)
    assert m.entry(1, 3) == F(1, 3)
    assert m.entry(2, 2) == F(3, 2)
    assert m.entry(2, 3) == F(4, 5)
    assert m.entry(3, 3) == F(9, 5)


def test_fixed1_first_price_spot_values():
    m = build_matrix(FP_FIXED1, 3, exact=True)
    assert m.entry(2, 3) == F(2, 3)
    assert m.entry(3, 1) == F(3)


def test_set01_all_pay_spot_values():
    m = build_matrix(AP_SET01, 2, exact=True)
    assert m.entry(1, 2) == F(1)
    assert m.entry(2, 2) == F(2)


def test_closed_form_spot_values():
    assert closed_form(FP_SET01, 2, 3, exact=True) == F(4, 5)
    for j in range(1, 9):
        assert closed_form(AP_SET01, 1, j, exact=True) == 1
    assert closed_form(AP_FIXED1, 3, 2, exact=True) == F(2)
    for i in (1, 4, 17):
        assert closed_form(FP_FIXED1, i, i, exact=True) == 1


def test_virtual_row_zero_is_zero():
    for variant in ALL_VARIANTS:
        m = build_matrix(variant, 4, exact=True)
        assert all(m.entry(0, j) == 0 for j in range(1, 5))


def test_triangular_states_below_diagonal_are_unwinnable():
    m = build_matrix(FP_SET01, 4, exact=True)
    assert m.entry(3, 2) is UNWINNABLE
    assert closed_form(AP_SET01, 4, 1, exact=True) is UNWINNABLE
    # full-grid variants define everything
    l = build_matrix(FP_FIXED1, 4, exact=True)
    assert l.entry(4, 1) == 4


# ------------------------------------------------------- recurrences vs forms


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
def test_dp_matches_closed_form(variant):
    m = build_matrix(variant, 40, exact=True)
    for i, j, value in m.defined_entries():
        assert value == closed_form(variant, i, j, exact=True), (i, j)


def test_alpha_zero_all_pay_collapses_to_first_price():
    for values, fp in ((ValueModel.SET01, FP_SET01), (ValueModel.FIXED1, FP_FIXED1)):
        ap0 = AuctionVariant.all_pay(values, 0)
        a = build_matrix(ap0, 25, exact=True)
        b = build_matrix(fp, 25, exact=True)
        for i, j, value in a.defined_entries():
            assert value == b.entry(i, j)


def test_all_pay_set01_is_first_price_shifted_by_one():
    n = build_matrix(AP_SET01, 30, exact=True)
    m = build_matrix(FP_SET01, 30, exact=True)
    for i in range(1, 31):
        for j in range(i, 31):
            shifted = F(0) if i == 1 else m.entry(i - 1, j - 1)
            assert n.entry(i, j) == 1 + shifted


def test_diagonal_direction_monotonicity():
    m = build_matrix(FP_SET01, 30, exact=True)
    for i in range(1, 30):
        for j in range(i, 30):
            assert m.entry(i, j) <= m.entry(i + 1, j + 1)


@settings(deadline=None)
@given(
    values=st.sampled_from([ValueModel.SET01, ValueModel.FIXED1]),
    alpha=st.fractions(0, 1, max_denominator=6),
    i=st.integers(1, 14),
    j=st.integers(1, 14),
)
def test_all_pay_entries_satisfy_their_recurrence(values, alpha, i, j):
    """Any all-pay entry is pinned by its left and upper neighbours.

    Covers the general-alpha grid that has no closed form to compare with.
    """
    variant = AuctionVariant.all_pay(values, alpha)
    if values is ValueModel.SET01 and i > j:
        return
    m = build_matrix(variant, 14, exact=True)
    x = m.entry(i, j)
    if values is ValueModel.SET01 and i == j:
        up = m.entry(i - 1, j) if i > 1 else F(0)
        assert x == 1 + up
        return
    if j == 1:
        assert x == i
        return
    left = m.entry(i, j - 1)
    up = m.entry(i - 1, j)
    assert x == up + (left - up) / (left + 1 - alpha)


@settings(deadline=None)
@given(
    variant=st.sampled_from([FP_SET01, FP_FIXED1]),
    i=st.integers(1, 14),
    j=st.integers(2, 14),
)
def test_first_price_entries_satisfy_their_recurrence(variant, i, j):
    if variant.is_triangular and i >= j:
        return
    m = build_matrix(variant, 14, exact=True)
    left = m.entry(i, j - 1)
    up = m.entry(i - 1, j)
    assert m.entry(i, j) == left * (1 + up) / (1 + left)


def test_float_mode_tracks_exact_mode():
    # At alpha in {0, 1} a float entry is the exact one rounded once. At a
    # fractional alpha the float recurrence stays within a few ulps of the
    # exact fill: measured at most 8.0e-16 relative (ap-set alpha=1/3 at
    # n=150); its exact fill is slower, so those sides stop at 150.
    sides = [(v, 250) for v in ALL_VARIANTS] + [(v, 150) for v in FRACTIONAL_VARIANTS]
    for variant, n in sides:
        exact = build_matrix(variant, n, exact=True)
        approx = build_matrix(variant, n, exact=False)
        for i, j, value in exact.defined_entries():
            got = approx.entry(i, j)
            assert abs(got - float(value)) <= 1e-13 * float(value), (variant.short_name, n, i, j)


@pytest.mark.parametrize("variant", FRACTIONAL_VARIANTS, ids=["ap-set-third", "ap-fixed-half"])
def test_obr_without_closed_form_runs_in_linear_memory(variant):
    # The binomial sums at h = 400 hold a few big ints; the full 400 x 400 float matrix would peak at 3-5 MB.
    tracemalloc.start()
    try:
        obr(variant, 800)
        handicap_obr(variant, 800, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_exact_obr_without_closed_form_runs_in_linear_memory():
    # The binomial sums at h = 80 hold a few big ints; the full 80 x 80
    # matrix at ap-set alpha=1/3 would peak near 400 kB.
    variant = FRACTIONAL_VARIANTS[0]
    tracemalloc.start()
    try:
        obr(variant, 160, exact=True)
        handicap_obr(variant, 160, 3, exact=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_a_stored_float_matrix_holds_packed_doubles():
    # 513 rows of 513 doubles are 2.1 MB packed; lists of float objects took over 8 MB.
    tracemalloc.start()
    try:
        build_matrix(FP_FIXED1, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_500_000


# ------------------------------------------- Fraction reference recurrence


def _fraction_rows(variant, n):
    """Rows 0..n of the recurrence in Fraction arithmetic: the reference for the pair fill."""
    keep = 1 - variant.alpha
    above = [F(0)] * (n + 1)
    yield above
    for i in range(1, n + 1):
        row = [F(0)] * (n + 1)
        if variant.is_triangular:
            start, left = i, 1 + above[i]
        else:
            start, left = 1, F(i)
        row[start] = left
        for j in range(start + 1, n + 1):
            up = above[j]
            left = up + (left - up) / (left + keep)
            row[j] = left
        yield row
        above = row


def _reference_cells(variant, rows, n):
    """Rows 1..n as the Fraction matrix printed them: str(entry), None below a triangle."""
    return [
        [None if variant.is_triangular and i > j else str(rows[i][j]) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


@pytest.mark.parametrize("variant", REFERENCE_VARIANTS)
def test_pair_fill_matches_the_fraction_reference(variant):
    for n in (1, 2, 5, 17, 40):
        rows = list(_fraction_rows(variant, n))
        m = build_matrix(variant, n, exact=True)
        for i in range(0, n + 1):
            for j in range(1, n + 1):
                got = m.entry(i, j)
                if variant.is_triangular and i > j:
                    assert got is UNWINNABLE
                else:
                    assert type(got) is F and got == rows[i][j], (n, i, j)
        defined = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                   if not (variant.is_triangular and i > j)]
        assert list(m.defined_entries()) == [(i, j, rows[i][j]) for i, j in defined]

        cells = _reference_cells(variant, rows, n)
        csv = "i\\j," + ",".join(str(j) for j in range(1, n + 1)) + "\n" + "".join(
            f"{i}," + ",".join("inf" if c is None else c for c in row) + "\n"
            for i, row in enumerate(cells, 1)
        )
        assert m.to_csv() == csv
        doc = {"variant": variant.short_name, "alpha": float(variant.alpha), "n": n, "entries": cells}
        assert json.dumps(m.to_json_dict()) == json.dumps(doc)


@pytest.mark.parametrize("variant", REFERENCE_VARIANTS)
def test_exact_ratios_match_the_fraction_reference(variant):
    rows = list(_fraction_rows(variant, 42))
    for turns in range(1, 82):
        h = -(-turns // 2)
        assert obr(variant, turns, exact=True) == rows[h][h], turns
        for k in range(4):
            i, j = -(-(turns - k) // 2), -(-(turns + k) // 2)
            got = handicap_obr(variant, turns, k, exact=True)
            assert type(got) is F and got == (rows[i][j] if i > 0 else 0), (turns, k)


READ_SIDE = 12
# The reference variants plus two more at a fractional alpha: five read through the memo.
READ_REFERENCE = [
    (v, build_matrix(v, READ_SIDE, exact=True))
    for v in [p.values[0] for p in REFERENCE_VARIANTS]
    + [AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 3)), AuctionVariant.all_pay(ValueModel.SET01, F(3, 4))]
]


@settings(deadline=None, max_examples=60)
@given(
    reads=st.lists(
        st.tuples(
            st.integers(0, len(READ_REFERENCE) - 1), st.integers(0, READ_SIDE), st.integers(1, READ_SIDE)
        ),
        min_size=1,
        max_size=30,
    )
)
# All five fractional variants, each read again; row 0 reads stay out of the memo.
@example(reads=[(4, 1, 3), (5, 3, 2), (6, 2, 4), (7, 5, 1), (8, 3, 3), (4, 6, 6), (4, 1, 3), (5, 1, 1), (8, 0, 2)])
def test_entry_reads_in_any_order_equal_the_built_matrix(reads):
    """Reads in any order over nine variants give build_matrix's pairs.

    Only fractional-alpha reads with i >= 1 enter the memo, one entry per
    distinct (value model, alpha, i, j).
    """
    memo = matrices._binomial_memo
    assert memo.cache_info().maxsize == 1 << 14
    memo.cache_clear()
    memoized = set()
    for k, i, j in reads:
        variant, ref = READ_REFERENCE[k]
        if variant.is_triangular and i > j:
            continue
        want = ref.entry(i, j)
        assert entry_pair(variant, i, j) == (want.numerator, want.denominator), (variant, i, j)
        if i and not variant.has_closed_form:
            memoized.add((k, i, j))
        assert memo.cache_info().currsize == len(memoized)


@pytest.mark.parametrize("variant", REFERENCE_VARIANTS)
def test_bid_fraction_matches_the_fraction_reference(variant):
    n = 30
    rows = list(_fraction_rows(variant, n))
    for i in range(1, n + 1):
        for j in range(i if variant.is_triangular else 1, n + 1):
            if (variant.is_triangular and i == j) or (not variant.is_triangular and j == 1):
                want = F(1)
            else:
                lose, win = rows[i][j - 1], rows[i - 1][j]
                want = (lose - win) / (lose + 1 - variant.alpha)
            assert optimal_bid_fraction(variant, i, j) == want, (i, j)


@pytest.mark.parametrize(
    "variant", ALL_VARIANTS + FRACTIONAL_BINOMIAL, ids=lambda v: v.short_name if v.has_closed_form else _alpha_id(v)
)
def test_float_closed_form_rounds_the_exact_one(variant):
    # At a fractional alpha the side-512 pair runs to thousands of bits, far past a float.
    for i, j in [(i, j) for i in range(1, 41) for j in range(1, 41)] + [(MAX_EXACT_SIDE, MAX_EXACT_SIDE)]:
        exact = closed_form(variant, i, j, exact=True)
        if exact is UNWINNABLE:
            assert closed_form(variant, i, j) is UNWINNABLE
        else:
            assert type(exact) is F and closed_form(variant, i, j) == float(exact), (i, j)


# ------------------------------------------------ closed forms at every alpha


@pytest.mark.parametrize("variant", BINOMIAL_VARIANTS, ids=_alpha_id)
def test_binomial_sums_equal_the_pair_fill(variant):
    """Every defined cell up to side 60; at alpha in {0, 1} too, where the four O(1) forms are their special cases."""
    n = 60
    rows = list(_pair_rows(variant, n))
    for i in range(1, n + 1):
        nums, dens = rows[i]
        for j in range(i if variant.is_triangular else 1, n + 1):
            assert _binomial_pair(variant.is_triangular, *variant.alpha_pair, i, j) == (nums[j], dens[j]), (i, j)


@pytest.mark.parametrize("variant", BINOMIAL_VARIANTS, ids=_alpha_id)
def test_exact_obr_is_nondecreasing_and_bounded_up_to_400_turns(variant):
    """Checked bounds, not theorems: below 3 + alpha on value-set variants, at
    most 1 + alpha on fixed-value ones, with equality only at alpha = 0, where
    the ratio is exactly 1."""
    alpha = variant.alpha
    ratios = [obr(variant, turns, exact=True) for turns in range(1, 401)]
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    if variant.is_triangular:
        assert all(x < 3 + alpha for x in ratios)
    elif alpha == 0:
        assert set(ratios) == {1}
    else:
        assert all(x < 1 + alpha for x in ratios)


# ------------------------------------------- row-at-a-time float reference


def _rounded_once_rows(variant, n):
    """Rows 0..n of the Fraction recurrence, each entry rounded once: the float fill's reference at alpha in {0, 1}."""
    for row in _fraction_rows(variant, n):
        yield [float(x) for x in row]


def _float_reference_rows(variant, n):
    """Rows 0..n of the float recurrence one row at a time: the float fill's reference at a fractional alpha."""
    keep = 1 - float(variant.alpha)
    above = [0.0] * (n + 1)
    yield above
    for i in range(1, n + 1):
        row = [0.0] * (n + 1)
        if variant.is_triangular:
            start, left = i, 1 + above[i]
        else:
            start, left = 1, 0.0 + i
        row[start] = left
        for j in range(start + 1, n + 1):
            up = above[j]
            left = up + (left - up) / (left + keep)
            row[j] = left
        yield row
        above = row


FLOAT_ROW_VARIANTS = [
    pytest.param(v, id=name)
    for v, name in zip(
        ALL_VARIANTS + FRACTIONAL_VARIANTS + [
            AuctionVariant.all_pay(ValueModel.FIXED1, F(2, 7)),
            AuctionVariant.all_pay(ValueModel.SET01, F(1, 2)),
        ],
        ["fp-set", "fp-fixed", "ap-set", "ap-fixed", "ap-set-third", "ap-fixed-half",
         "ap-fixed-two-sevenths", "ap-set-half"],
    )
]


@pytest.mark.parametrize("variant", FLOAT_ROW_VARIANTS)
def test_stored_float_matrix_matches_the_row_at_a_time_fill(variant):
    reference = _rounded_once_rows if variant.has_closed_form else _float_reference_rows
    for n in [*range(1, 42), 97, 128]:
        m = build_matrix(variant, n)
        rows = list(reference(variant, n))
        starts = [max(i, 1) if variant.is_triangular else 1 for i in range(n + 1)]
        for i, (want, start) in enumerate(zip(rows, starts)):
            cols = range(start, n + 1)
            assert [m.entry(i, j).hex() for j in cols] == [want[j].hex() for j in cols], (n, i)
        csv = "i\\j," + ",".join(map(str, range(1, n + 1))) + "\n" + "".join(
            f"{i}," + ",".join(["inf"] * (starts[i] - 1) + [format(x, ".17g") for x in rows[i][starts[i]:]]) + "\n"
            for i in range(1, n + 1)
        )
        assert m.to_csv() == csv, n
        doc = {
            "variant": variant.short_name,
            "alpha": float(variant.alpha),
            "n": n,
            "entries": [[None] * (starts[i] - 1) + rows[i][starts[i]:] for i in range(1, n + 1)],
        }
        assert json.dumps(m.to_json_dict()) == json.dumps(doc), n


# ------------------------------------------- closed-form fills at alpha in {0, 1}


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
def test_every_float_entry_is_the_exact_entry_rounded_once(variant):
    for n in (1, 2, 3, 7, 200):
        m = build_matrix(variant, n)
        for i, j, value in m.defined_entries():
            assert value.hex() == float(closed_form(variant, i, j, exact=True)).hex(), (n, i, j)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
def test_the_float_diagonal_is_the_float_obr(variant):
    # An entry does not depend on the side, so one side-600 fill holds x[h][h] for every h <= 600.
    m = build_matrix(variant, 600)
    for h in range(1, 601):
        assert m.entry(h, h).hex() == obr(variant, 2 * h - 1).hex(), h
    for h in (1, 2, 7, 300):
        assert build_matrix(variant, h).entry(h, h).hex() == obr(variant, 2 * h - 1).hex(), h


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
def test_the_exact_closed_form_fill_equals_the_recurrence(variant):
    # Row i of a side-n fill is row i of the side-150 fill cut to n + 1 columns.
    recurrence = list(_pair_rows(variant, 150))
    for n in range(1, 151):
        want = [(nums[:n + 1], dens[:n + 1]) for nums, dens in recurrence[:n + 1]]
        assert list(matrices._rows(variant, n, True)) == want, n


def _largest_term(variant, n):
    """The largest unreduced numerator or denominator of _closed_terms's formulas at side n, row by row at j = n."""
    an = variant.alpha_pair[0]
    terms = []
    for i in range(1, n + 1):
        k = n - i + 1
        if not variant.is_triangular:
            terms += [i + an * (n - 1), n]
        elif an == 0:
            terms += [i * (k + 2), k * (n + 2)]
        else:
            terms += [k * (n + 1) + (i - 1) * (k + 2), k * (n + 1)]
    return max(terms)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
def test_the_float_fill_is_exact_up_to_its_division_at_the_float_ceiling(variant, monkeypatch):
    # With max in place of the division, each float entry is the larger of its two
    # accumulated terms: all below 2**53, so every sum and the table itself are exact.
    n = MAX_FLOAT_SIDE
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "truediv", max)
        largest = max(max(row) for row in matrices._closed_rows(variant, n, False))
    assert largest == _largest_term(variant, n) <= 4 * n * n + 4 * n < 2**53
    for i, row in enumerate(islice(matrices._closed_rows(variant, n, False), 2008, None), 2008):
        for j in range(i if variant.is_triangular else 1, n + 1, 7):
            assert row[j].hex() == float(closed_form(variant, i, j, exact=True)).hex(), (i, j)


# FLOAT_ROW_VARIANTS, plus both value models at a 17-bit denominator.
FLOAT_OBR_VARIANTS = FLOAT_ROW_VARIANTS + [
    pytest.param(AuctionVariant.all_pay(values, F(12345, 65536)), id=f"{name}-12345/65536")
    for values, name in ((ValueModel.SET01, "ap-set"), (ValueModel.FIXED1, "ap-fixed"))
]
# Turns whose O(1) terms pass 2**53, where a float of each term would round before the division.
HUGE_TURNS = [10**18 + 1, 10**300 + 1]


@pytest.mark.parametrize("variant", FLOAT_OBR_VARIANTS)
def test_float_obr_rounds_the_exact_one(variant):
    for turns in [*range(1, 202), *range(209, 1025, 8), *(HUGE_TURNS if variant.has_closed_form else ())]:
        assert obr(variant, turns).hex() == float(obr(variant, turns, exact=True)).hex(), turns
        for k in range(6):
            want = float(handicap_obr(variant, turns, k, exact=True))
            assert handicap_obr(variant, turns, k).hex() == want.hex(), (turns, k)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
def test_an_exact_read_returns_the_reduced_closed_form_pair(variant):
    """obr, handicap_obr and closed_form hold entry_pair's reduced pair in their slots."""
    for turns in [*range(1, 120), *HUGE_TURNS, 10**300]:
        for k in range(min(turns, 10)):
            i, j = ceil_div(turns - k, 2), ceil_div(turns + k, 2)
            want = entry_pair(variant, i, j)
            assert want[1] > 0 and gcd(*want) == 1 and F(*want) == F(*matrices._closed_terms(variant, i, j))
            reads = [handicap_obr(variant, turns, k, True), closed_form(variant, i, j, True)]
            if k == 0:
                reads.append(obr(variant, turns, True))
            for got in reads:
                assert type(got) is F and (got.numerator, got.denominator) == want, (turns, k)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
def test_a_float_read_reduces_nothing_and_an_exact_read_once(variant, monkeypatch):
    calls = []

    def counted_gcd(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(matrices, "gcd", counted_gcd)
    monkeypatch.setattr(core, "gcd", counted_gcd)
    for exact, want in ((False, 0), (True, 1)):
        for read in (lambda: obr(variant, 41, exact), lambda: handicap_obr(variant, 41, 3, exact),
                     lambda: closed_form(variant, 20, 22, exact)):
            calls.clear()
            read()
            assert len(calls) == want, (exact, calls)


@pytest.mark.parametrize("alpha", [F(1, 3), F(0.3), F(12345, 65536)], ids=["third", "float-0.3", "12345/65536"])
def test_float_closed_form_answers_at_the_float_ceiling(alpha):
    for values in (ValueModel.SET01, ValueModel.FIXED1):
        variant = AuctionVariant.all_pay(values, alpha)
        num, den = _binomial_pair(variant.is_triangular, *variant.alpha_pair, MAX_FLOAT_SIDE, MAX_FLOAT_SIDE)
        assert closed_form(variant, MAX_FLOAT_SIDE, MAX_FLOAT_SIDE).hex() == (num / den).hex()


# ------------------------------------------------------------------- ceiling


def _no_work(call):
    """Run a call that must raise ResourceError before it allocates; return the error."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError) as err:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50_000
    return err.value


@pytest.mark.parametrize("n", [2.5, 2.0, True])
def test_fills_refuse_a_side_that_is_not_an_int(n):
    # 2.5 used to fail with a TypeError from inside the fill.
    for exact in (False, True):
        with pytest.raises(DomainError, match="^matrix size must be an int, got "):
            build_matrix(FP_SET01, n, exact=exact)


def test_fills_refuse_a_side_above_the_ceiling():
    third = FRACTIONAL_VARIANTS[0]
    assert "exceeds the float ceiling" in str(_no_work(lambda: build_matrix(FP_SET01, MAX_FLOAT_SIDE + 1)))
    assert "exceeds the exact ceiling" in str(
        _no_work(lambda: build_matrix(FP_SET01, MAX_EXACT_SIDE + 1, exact=True))
    )
    _no_work(lambda: verify_matrix(AP_FIXED1, MAX_EXACT_SIDE + 1))
    _no_work(lambda: obr(third, 2 * MAX_FLOAT_SIDE + 1))
    _no_work(lambda: obr(third, 2 * MAX_EXACT_SIDE + 1, exact=True))
    _no_work(lambda: handicap_obr(third, 2 * MAX_FLOAT_SIDE - 1, 3))
    # At the ceiling the float closed form still answers; the O(1) ones have none.
    assert obr(third, 2 * MAX_FLOAT_SIDE) > 0
    assert obr(FP_SET01, 10**6, exact=True) == closed_form(FP_SET01, 5 * 10**5, 5 * 10**5, exact=True)


# -------------------------------------------------------------------- queries


def test_obr_values():
    assert obr(FP_SET01, 3, exact=True) == F(3, 2)
    assert obr(FP_FIXED1, 999, exact=True) == 1
    for n in (1, 2, 7, 50):
        assert obr(AP_FIXED1, 2 * n, exact=True) == F(2 * n - 1, n)
    assert obr(AP_SET01, 1000, exact=True) == 1 + F(3 * 499, 501)
    assert obr(FP_SET01, 3) == 1.5
    with pytest.raises(DomainError):
        obr(FP_SET01, 0)


def test_obr_with_general_alpha_falls_back_to_the_dp():
    variant = AuctionVariant.all_pay(ValueModel.SET01, F(1, 2))
    value = obr(variant, 6, exact=True)
    assert value == build_matrix(variant, 3, exact=True).entry(3, 3)


def test_handicap_obr():
    assert handicap_obr(FP_SET01, 5, 1, exact=True) == F(4, 5)
    assert handicap_obr(FP_SET01, 5, 0, exact=True) == obr(FP_SET01, 5, exact=True)
    assert handicap_obr(FP_SET01, 3, 3, exact=True) == 0
    assert handicap_obr(FP_SET01, 3, 7, exact=True) == 0
    with pytest.raises(DomainError):
        handicap_obr(FP_SET01, 3, -1)


@pytest.mark.parametrize("variant", ALL_VARIANTS + FRACTIONAL_VARIANTS)
def test_a_handicap_game_is_the_tail_of_a_longer_game(variant):
    """Handicap k over T turns prices the last T turns of a (T + k)-turn game P1 leads k-0 after k turns.

    So the start pair is an ordinary countdown pair: ``countdown_for``
    needs no new formula for it.
    """
    for turns in range(1, 41):
        for k in range(45):
            pair = entry_pair(variant, *countdown_for(turns + k, k, k, 0))
            assert handicap_obr(variant, turns, k, exact=True) == F(*pair), (turns, k)


def test_handicap_obr_general_alpha_uses_the_dp():
    variant = AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 3))
    value = handicap_obr(variant, 5, 1, exact=True)
    assert value == build_matrix(variant, 3, exact=True).entry(2, 3)


@pytest.mark.parametrize(
    "variant, turns",
    [(FP_SET01, 3.5), (FP_SET01, True), (FRACTIONAL_VARIANTS[0], 3.5), (FRACTIONAL_VARIANTS[0], True)],
    ids=["closed-form-3.5", "closed-form-True", "third-3.5", "third-True"],
)
def test_obr_rejects_turns_that_are_not_an_int(variant, turns):
    # These used to raise a TypeError from gcd, return obr(1), or name the derived side 2.0.
    for exact in (False, True):
        for call in (lambda: obr(variant, turns, exact), lambda: handicap_obr(variant, turns, 1, exact)):
            with pytest.raises(DomainError, match=f"^turns must be an int, got {re.escape(repr(turns))}$"):
                call()


@pytest.mark.parametrize("k", [1.5, True])
def test_handicap_obr_rejects_a_handicap_that_is_not_an_int(k):
    for variant in (FP_SET01, FRACTIONAL_VARIANTS[0]):
        for exact in (False, True):
            with pytest.raises(DomainError, match=f"^handicap must be an int, got {re.escape(repr(k))}$"):
                handicap_obr(variant, 5, k, exact)


def test_handicap_obr_rejects_a_negative_handicap():
    # It used to read "handicap must be nonnegative, got -1", apart from every other count's message.
    for variant in (FP_SET01, FRACTIONAL_VARIANTS[0]):
        for exact in (False, True):
            with pytest.raises(DomainError, match="^handicap must be >= 0, got -1$"):
                handicap_obr(variant, 5, -1, exact)


# -------------------------------------------------------------- verify report


def test_verify_matrix_success():
    report = verify_matrix(FP_SET01, 100)
    assert report.ok
    assert report.entries_checked == 100 * 101 // 2
    assert "5050 entries match" in report.summary()

    report = verify_matrix(AP_FIXED1, 50)
    assert report.ok
    assert report.entries_checked == 2500


@pytest.mark.parametrize("variant", FRACTIONAL_BINOMIAL, ids=_alpha_id)
def test_verify_matrix_at_a_fractional_alpha(variant):
    # The binomial sums are checked exactly at side 60; the memo is bypassed.
    before = matrices._binomial_memo.cache_info().currsize
    report = verify_matrix(variant, 60)
    assert report.ok, report.summary()
    assert report.entries_checked == (60 * 61 // 2 if variant.is_triangular else 3600)
    assert report.summary().endswith(f"{report.entries_checked} entries match closed form")
    assert matrices._binomial_memo.cache_info().currsize == before


@pytest.mark.parametrize("variant", [FP_SET01, AP_FIXED1, FRACTIONAL_VARIANTS[0]], ids=_alpha_id)
def test_verify_matrix_names_an_entry_the_recurrence_got_wrong(variant, monkeypatch):
    recurrence = matrices._pair_rows

    def off_by_one_at_5_7(v, n):
        for i, (nums, dens) in enumerate(recurrence(v, n)):
            if i == 5:
                nums = nums[:]
                nums[7] += dens[7]
            yield nums, dens

    monkeypatch.setattr(matrices, "_pair_rows", off_by_one_at_5_7)
    report = verify_matrix(variant, 12)
    assert not report.ok
    i, j, dp, cf = report.first_mismatch
    assert (i, j, dp) == (5, 7, cf + 1)
    assert report.entries_checked == (12 + 11 + 10 + 9 + 3 if variant.is_triangular else 4 * 12 + 7)
    assert "mismatch at (5, 7)" in report.summary()


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
def test_verify_matrix_runs_the_recurrence_the_fills_skip(variant, monkeypatch):
    def broken(v, n):
        raise RuntimeError("the recurrence ran")
        yield

    monkeypatch.setattr(matrices, "_pair_rows", broken)
    with pytest.raises(RuntimeError, match="the recurrence ran"):
        verify_matrix(variant, 12)
    assert build_matrix(variant, 12, exact=True).entry(1, 12) == closed_form(variant, 1, 12, exact=True)


def test_verify_report_mismatch_summary():
    report = MatrixVerifyReport(FP_SET01, 5, False, 3, (2, 3, F(1), F(4, 5)))
    assert not report.ok
    assert "mismatch at (2, 3)" in report.summary()


# -------------------------------------------------------------- serialization


def test_csv_output_exact():
    m = build_matrix(FP_SET01, 3, exact=True)
    assert m.to_csv() == (
        "i\\j,1,2,3\n"
        "1,1,1/2,1/3\n"
        "2,inf,3/2,4/5\n"
        "3,inf,inf,9/5\n"
    )


def test_csv_output_float_round_trips():
    m = build_matrix(FP_SET01, 3, exact=False)
    rows = m.to_csv().splitlines()
    assert rows[0] == "i\\j,1,2,3"
    cells = rows[2].split(",")
    assert cells[1] == "inf"
    assert float(cells[2]) == m.entry(2, 2)
    assert float(cells[3]) == m.entry(2, 3)


def test_json_output():
    m = build_matrix(AP_SET01, 2, exact=True)
    assert m.to_json_dict() == {
        "variant": "ap-set",
        "alpha": 1.0,
        "n": 2,
        "entries": [["1", "1"], [None, "2"]],
    }
    approx = build_matrix(FP_FIXED1, 2, exact=False)
    doc = approx.to_json_dict()
    assert doc["entries"] == [[1.0, 0.5], [2.0, 1.0]]


# ------------------------------------------------------------------ bad input


def test_build_matrix_rejects_bad_sizes():
    with pytest.raises(DomainError):
        build_matrix(FP_SET01, 0)
    m = build_matrix(FP_SET01, 3)
    with pytest.raises(DomainError):
        m.entry(4, 1)
    with pytest.raises(DomainError):
        m.entry(1, 0)


@pytest.mark.parametrize("i, j", [(1.0, 2), (True, 2), (1, 2.0), (1, True)])
def test_entry_rejects_countdowns_that_are_not_ints(i, j):
    # 1.0 used to raise a TypeError from a list index; True read as row 1.
    for exact in (False, True):
        with pytest.raises(DomainError, match=r"^countdowns must be ints, got \("):
            build_matrix(FP_SET01, 3, exact=exact).entry(i, j)


def test_closed_form_rejects_bad_states():
    with pytest.raises(DomainError):
        closed_form(FP_SET01, 0, 3)
    two_thirds = AuctionVariant.all_pay(ValueModel.FIXED1, F(2, 3))
    with pytest.raises(DomainError):
        closed_form(two_thirds, 2, 0)
    # A fractional alpha answers up to the exact ceiling, and refuses past it before any work.
    assert closed_form(two_thirds, MAX_EXACT_SIDE, MAX_EXACT_SIDE) > 0
    err = _no_work(lambda: closed_form(two_thirds, 1, MAX_EXACT_SIDE + 1, exact=True))
    assert str(err) == "matrix side 513 exceeds the exact ceiling of 512"
    # Floats answer up to the float ceiling, and refuse past it the same way.
    err = _no_work(lambda: closed_form(two_thirds, 1, MAX_FLOAT_SIDE + 1))
    assert str(err) == "matrix side 2049 exceeds the float ceiling of 2048"


@pytest.mark.parametrize("i, j", [(1.5, 2), (True, 2), (1, 2.0), (1, True)])
def test_closed_form_rejects_countdowns_that_are_not_ints(i, j):
    # 1.5 used to raise a TypeError from gcd; True read as 1.
    for variant in ALL_VARIANTS:
        for exact in (False, True):
            with pytest.raises(DomainError, match=r"^countdowns must be ints, got \("):
                closed_form(variant, i, j, exact=exact)
