"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single "criterion NN PASS/FAIL: ..." line (run pytest
with -s to see them all) and then asserts. The module is also runnable
directly: ``python3 tests/test_acceptance.py`` executes every criterion
in order and exits nonzero if any fail.

Everything numeric here is checked in exact rational arithmetic unless a
criterion is explicitly about float-mode behavior; "equal" means equal,
with no tolerance.
"""

import sys
import time
from fractions import Fraction

from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    AuctionVariant,
    GameConfig,
    Player,
    RandomSeededAdversary,
    StrategyPolicy,
    ValueModel,
    build_matrix,
    exhaustive_adversary_check,
    handicap_obr,
    min_winning_budget,
    obr,
    optimal_bid_fraction,
    run_game,
    verify_matrix,
)

F = Fraction

ALL_VARIANTS = [FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1]


def check(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_dp_equals_closed_form_at_200():
    t0 = time.perf_counter()
    reports = [verify_matrix(variant, 200) for variant in ALL_VARIANTS]
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for r in reports) and elapsed < 5.0
    entries = sum(r.entries_checked for r in reports)
    check(
        1,
        ok,
        f"exact DP matches closed form on all {entries} entries at n=200 "
        f"across 4 variants in {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_02_optimal_ratio_sequence():
    values = [obr(FP_SET01, t, exact=True) for t in range(1, 1001)]
    formula_ok = all(
        v == F(3 * ((t + 1) // 2), ((t + 1) // 2) + 2)
        for t, v in zip(range(1, 1001), values)
    )
    spots_ok = (
        values[3 - 1] == F(3, 2)
        and values[7 - 1] == F(2)
        and values[1000 - 1] == F(750, 251)
    )
    monotone_ok = all(a <= b for a, b in zip(values, values[1:]))
    gap_ok = 3 - values[-1] == F(3, 251)
    check(
        2,
        formula_ok and spots_ok and monotone_ok and gap_ok,
        "value-set first-price ratios follow 3h/(h+2) for T=1..1000, "
        "nondecreasing, obr(3)=3/2, obr(7)=2, obr(1000)=750/251, "
        "limit gap 3/251",
    )


def test_criterion_03_limit_properties():
    n_matrix = build_matrix(AP_SET01, 500, exact=True)
    n_diag = [n_matrix.entry(i, i) for i in range(1, 501)]
    set_ok = (
        all(v < 4 for v in n_diag)
        and all(a < b for a, b in zip(n_diag, n_diag[1:]))
        and n_diag[-1] == 1 + F(1497, 501)
    )
    q_matrix = build_matrix(AP_FIXED1, 500, exact=True)
    fixed_ok = all(
        q_matrix.entry(i, i) == F(2 * i - 1, i) and q_matrix.entry(i, i) < 2
        for i in range(1, 501)
    )
    fp_fixed_ok = all(obr(FP_FIXED1, t, exact=True) == 1 for t in range(1, 1001))
    check(
        3,
        set_ok and fixed_ok and fp_fixed_ok,
        "all-pay diagonals stay below their limits (4 and 2) with the "
        "expected exact values; fixed-value first-price ratio is 1 for "
        "every T up to 1000",
    )


def test_criterion_04_alpha_zero_reduction():
    ap0 = build_matrix(AuctionVariant.all_pay(ValueModel.SET01, 0), 100, exact=True)
    fp = build_matrix(FP_SET01, 100, exact=True)
    ok = all(value == fp.entry(i, j) for i, j, value in ap0.defined_entries())
    check(4, ok, "all-pay at alpha=0 equals first-price entrywise at n=100")


def test_criterion_05_cross_matrix_identity():
    n_matrix = build_matrix(AP_SET01, 100, exact=True)
    m_matrix = build_matrix(FP_SET01, 100, exact=True)
    ok = True
    for i in range(1, 101):
        for j in range(i, 101):
            shifted = F(0) if i == 1 else m_matrix.entry(i - 1, j - 1)
            if n_matrix.entry(i, j) != 1 + shifted:
                ok = False
    check(
        5,
        ok,
        "all-pay entries equal 1 plus the first-price entry one step up "
        "the diagonal, for all i <= j <= 100",
    )


def test_criterion_06_oracle_agreement():
    cases = [
        (FP_SET01, 3, 4, 6),
        (FP_SET01, 1, 1, 1),
        (FP_FIXED1, 3, 4, 4),
    ]
    ok = True
    details = []
    for variant, turns, b2, expected in cases:
        t0 = time.perf_counter()
        res = min_winning_budget(variant, turns, b2)
        elapsed = time.perf_counter() - t0
        target = obr(variant, turns, exact=True)
        case_ok = (
            res.b_star == expected
            and abs(res.ratio - target) <= F(1, b2)
            and elapsed < 10.0
        )
        ok = ok and case_ok
        details.append(f"{variant.short_name} T={turns} b2={b2} -> {res.b_star} ({elapsed:.2f}s)")
    check(6, ok, "grid searches match the frozen minima: " + ", ".join(details))


def test_criterion_07_exhaustive_strategy_guarantee():
    ok = True
    details = []
    for turns in (1, 3, 5):
        ratio = obr(FP_SET01, turns, exact=True)
        cfg = GameConfig(FP_SET01, turns=turns)
        t0 = time.perf_counter()
        at = exhaustive_adversary_check(cfg, ratio, denominator_bound=8)
        below = exhaustive_adversary_check(cfg, ratio - F(1, 8), denominator_bound=8)
        elapsed = time.perf_counter() - t0
        case_ok = (
            at.win_all
            and not below.win_all
            and below.counterexample is not None
            and below.counterexample.winner is Player.P2
            and elapsed < 60.0
        )
        ok = ok and case_ok
        details.append(f"T={turns} ({elapsed:.2f}s)")
    check(
        7,
        ok,
        "policy wins every denominator-8 adversary line at the optimal "
        "ratio and loses one just 1/8 below it: " + ", ".join(details),
    )


def test_criterion_08_handicap_values():
    ok = (
        handicap_obr(FP_SET01, 5, 1, exact=True) == F(4, 5)
        and handicap_obr(FP_SET01, 5, 0, exact=True) == obr(FP_SET01, 5, exact=True)
        and all(handicap_obr(FP_SET01, t, k, exact=True) == 0
                for t in (1, 2, 3, 5) for k in (t, t + 1, t + 5))
    )
    check(
        8,
        ok,
        "handicapped ratios: T=5 k=1 gives 4/5, k=0 reduces to the plain "
        "ratio, and k >= T costs nothing",
    )


def test_criterion_09_indifference_identity():
    ok = True
    for variant in ALL_VARIANTS:
        matrix = build_matrix(variant, 100, exact=True)
        alpha = variant.alpha
        first_price = variant.pricing.value == "first-price"
        for i in range(1, 101):
            lo = i + 1 if variant.is_triangular else 2
            for j in range(lo, 101):
                r = optimal_bid_fraction(variant, i, j)
                entry = matrix.entry(i, j)
                win_branch = r + matrix.entry(i - 1, j)
                if first_price:
                    lose_branch = (1 - r) * matrix.entry(i, j - 1)
                else:
                    lose_branch = alpha * r + (1 - r) * matrix.entry(i, j - 1)
                if win_branch != entry or lose_branch != entry:
                    ok = False
    check(
        9,
        ok,
        "winning and losing a turn at the optimal bid fraction both cost "
        "exactly the state's budget ratio, for all states up to 100 in "
        "all four variants",
    )


def test_criterion_10_performance_and_determinism():
    t0 = time.perf_counter()
    build_matrix(FP_SET01, 2000, exact=False)
    elapsed = time.perf_counter() - t0
    cfg = GameConfig(FP_SET01, turns=11)
    runs = [
        run_game(cfg, F(2), StrategyPolicy(), RandomSeededAdversary(), seed=2024).to_json()
        for _ in range(2)
    ]
    ok = elapsed < 1.0 and runs[0] == runs[1]
    check(
        10,
        ok,
        f"float n=2000 matrix built in {elapsed:.3f}s (limit 1s); "
        "identical seeds give byte-identical traces",
    )


_CRITERIA = [
    test_criterion_01_dp_equals_closed_form_at_200,
    test_criterion_02_optimal_ratio_sequence,
    test_criterion_03_limit_properties,
    test_criterion_04_alpha_zero_reduction,
    test_criterion_05_cross_matrix_identity,
    test_criterion_06_oracle_agreement,
    test_criterion_07_exhaustive_strategy_guarantee,
    test_criterion_08_handicap_values,
    test_criterion_09_indifference_identity,
    test_criterion_10_performance_and_determinism,
]


def main():
    failures = 0
    for criterion in _CRITERIA:
        try:
            criterion()
        except AssertionError:
            failures += 1
    if failures:
        print(f"{failures} criterion(s) failed", flush=True)
        return 1
    print("all criteria passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
