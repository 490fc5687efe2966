"""Bid fractions, the online bidding policy, and budget tracking."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    AllInAdversary,
    AuctionVariant,
    CountdownPair,
    DomainError,
    GameConfig,
    ResourceError,
    StrategyPolicy,
    StrategyState,
    ValueModel,
    build_matrix,
    next_bid,
    obr,
    observe_outcome,
    optimal_bid_fraction,
    run_game,
)
from multibattle import matrices
from multibattle.core import GameDecidedError, UnwinnableStateError
from multibattle.matrices import MAX_EXACT_SIDE

F = Fraction

ALL_VARIANTS = [FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1]


def test_bid_fraction_spot_values():
    assert optimal_bid_fraction(FP_SET01, 2, 3) == F(7, 15)
    assert optimal_bid_fraction(FP_SET01, 2, 2) == 1
    assert optimal_bid_fraction(AP_FIXED1, 2, 2) == F(1, 2)


def test_bid_fraction_all_in_states():
    # Triangular diagonal and the last-chance column of the full grids
    # both demand the opponent's entire tracked budget.
    assert optimal_bid_fraction(AP_SET01, 5, 5) == 1
    assert optimal_bid_fraction(FP_FIXED1, 3, 1) == 1
    assert optimal_bid_fraction(AP_FIXED1, 1, 1) == 1


def test_bid_fraction_rejects_decided_and_unwinnable_states():
    with pytest.raises(GameDecidedError):
        optimal_bid_fraction(FP_SET01, 0, 3)
    with pytest.raises(GameDecidedError):
        optimal_bid_fraction(FP_SET01, 2, 0)
    with pytest.raises(UnwinnableStateError):
        optimal_bid_fraction(FP_SET01, 3, 2)


@pytest.mark.parametrize(
    "variant", [FP_SET01, AuctionVariant.all_pay(ValueModel.SET01, F(1, 3))], ids=["fp-set", "ap-set@1/3"]
)
@pytest.mark.parametrize("i, j", [(2.0, 3), (True, 3), (2, 3.0), (2, True)])
def test_bid_fraction_rejects_countdowns_that_are_not_ints(variant, i, j):
    # 2.0 used to raise a TypeError from gcd or from a list index; True read as 1.
    with pytest.raises(DomainError, match=r"^countdowns must be ints, got \("):
        optimal_bid_fraction(variant, i, j)


def test_bid_fraction_general_alpha_needs_a_matrix():
    variant = AuctionVariant.all_pay(ValueModel.SET01, F(1, 2))
    matrix = build_matrix(variant, 4, exact=True)
    r = optimal_bid_fraction(variant, 2, 4)
    lose = matrix.entry(2, 3)
    win = matrix.entry(1, 4)
    assert r == (lose - win) / (lose + 1 - F(1, 2))


def test_bid_fraction_without_a_matrix_builds_one():
    variant = AuctionVariant.all_pay(ValueModel.SET01, F(1, 3))
    matrix = build_matrix(variant, 3, exact=True)
    r = optimal_bid_fraction(variant, 2, 3)
    lose, win = matrix.entry(2, 2), matrix.entry(1, 3)
    assert r == (lose - win) / (lose + 1 - F(1, 3))
    assert r == F(321, 646)


def test_next_bid_values():
    s = StrategyState(FP_SET01, F(1), CountdownPair(2, 3))
    assert next_bid(s, 1) == F(7, 15)
    assert next_bid(s, 0) == 0

    fresh = StrategyState.fresh(FP_SET01, 3, 1)
    assert fresh.countdown == CountdownPair(2, 2)
    assert next_bid(fresh, 1) == 1


def test_next_bid_scales_with_tracked_budget():
    s = StrategyState(FP_SET01, F(5), CountdownPair(2, 3))
    assert next_bid(s, 1) == F(7, 15) * 5


def test_next_bid_rejects_bad_value():
    s = StrategyState.fresh(FP_SET01, 3, 1)
    with pytest.raises(DomainError):
        next_bid(s, 2)


@pytest.mark.parametrize("value", [True, False, 1.0])
def test_next_bid_rejects_a_turn_value_that_is_not_an_int(value):
    with pytest.raises(DomainError, match="^turn value must be 0 or 1, got "):
        next_bid(StrategyState.fresh(FP_SET01, 3, 1), value)
    # Value 0 stays legal on a fixed-value variant: the policy bids nothing.
    assert next_bid(StrategyState.fresh(FP_FIXED1, 3, 1), 0) == 0


def test_fresh_state_builds_matrix_only_when_needed():
    """A state holds no matrix; only a variant with no closed form fills a table, sized by the game."""
    assert StrategyState._fields == ("variant", "tracked_opponent_budget", "countdown")
    matrices._TABLES.clear()
    StrategyState.fresh(FP_SET01, 9, 1)
    StrategyState.fresh(AP_SET01, 9, 1)
    assert matrices._TABLES == {}
    half = AuctionVariant.all_pay(ValueModel.SET01, F(1, 2))
    StrategyState.fresh(half, 9, 1)
    assert {key: len(rows) - 1 for key, rows in matrices._TABLES.items()} == {(True, 1, 2): 5}
    with pytest.raises(ResourceError, match="^matrix side 513 exceeds the exact ceiling of 512$"):
        StrategyState.fresh(half, 2 * MAX_EXACT_SIDE + 1, 1)
    with pytest.raises(DomainError):
        StrategyState.fresh(FP_SET01, 0, 1)


def test_a_small_game_leaves_no_large_table():
    """A T=5 game at an alpha nothing else reads keeps one side-3 table, a few kB."""
    variant = AuctionVariant.all_pay(ValueModel.FIXED1, F(3, 11))
    config = GameConfig(variant, 5)
    budget = obr(variant, 5, exact=True)
    tracemalloc.start()
    try:
        run_game(config, budget, StrategyPolicy(), AllInAdversary())
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matrices._TABLES[False, 3, 11]) - 1 == 3
    assert kept < 20_000, kept


def test_observe_first_price_loss_charges_my_bid():
    s = StrategyState(FP_SET01, F(1), CountdownPair(2, 3))
    after = observe_outcome(s, 1, F(7, 15), i_won=False)
    assert after.countdown == CountdownPair(2, 2)
    assert after.tracked_opponent_budget == 1 - F(7, 15)


def test_observe_first_price_win_charges_nothing():
    s = StrategyState(FP_SET01, F(1), CountdownPair(2, 3))
    after = observe_outcome(s, 1, F(7, 15), i_won=True)
    assert after.countdown == CountdownPair(1, 3)
    assert after.tracked_opponent_budget == 1


def test_observe_value_zero_leaves_countdown_alone():
    s = StrategyState(FP_SET01, F(1), CountdownPair(2, 3))
    after = observe_outcome(s, 0, F(0), i_won=True)
    assert after.countdown == CountdownPair(2, 3)
    assert after.tracked_opponent_budget == 1


def test_observe_all_pay_losses():
    half = AuctionVariant.all_pay(ValueModel.SET01, F(1, 2))
    s = StrategyState(half, F(1), CountdownPair(2, 2))
    lost = observe_outcome(s, 1, F(1, 4), i_won=False)
    assert lost.tracked_opponent_budget == F(3, 4)
    # P1 won: P2's losing bid is unseen and may have been zero, so the
    # tracked budget must not move.
    won = observe_outcome(s, 1, F(1, 4), i_won=True)
    assert won.tracked_opponent_budget == 1


def test_observe_clamps_tracking_at_zero():
    s = StrategyState(FP_SET01, F(1, 10), CountdownPair(2, 3))
    after = observe_outcome(s, 1, F(1, 2), i_won=False)
    assert after.tracked_opponent_budget == 0


@pytest.mark.parametrize(
    "variant",
    [pytest.param(v, id=v.short_name) for v in ALL_VARIANTS]
    + [
        pytest.param(AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)), id="ap-set-third"),
        pytest.param(AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)), id="ap-fixed-half"),
    ],
)
def test_indifference_identity(variant):
    """Winning and losing a turn at r* require exactly the entry's budget."""
    n = 25
    m = build_matrix(variant, n, exact=True)
    alpha = variant.alpha
    for i in range(1, n + 1):
        lo = i + 1 if variant.is_triangular else 2
        for j in range(lo, n + 1):
            r = optimal_bid_fraction(variant, i, j)
            win_branch = r + m.entry(i - 1, j)
            lose_branch = alpha * r + (1 - r) * m.entry(i, j - 1)
            assert win_branch == m.entry(i, j), (i, j)
            assert lose_branch == m.entry(i, j), (i, j)


@settings(deadline=None)
@given(
    variant=st.sampled_from(ALL_VARIANTS),
    i=st.integers(1, 12),
    j=st.integers(1, 12),
    scale=st.fractions(F(1, 50), 100, max_denominator=50),
)
def test_bids_scale_linearly_with_budgets(variant, i, j, scale):
    if variant.is_triangular and i > j:
        return
    base = StrategyState(variant, F(1), CountdownPair(i, j))
    scaled = StrategyState(variant, scale, CountdownPair(i, j))
    assert next_bid(scaled, 1) == scale * next_bid(base, 1)


@settings(deadline=None)
@given(
    variant=st.sampled_from(ALL_VARIANTS),
    i=st.integers(1, 12),
    j=st.integers(1, 12),
)
def test_bid_fraction_stays_in_unit_interval(variant, i, j):
    if variant.is_triangular and i > j:
        return
    r = optimal_bid_fraction(variant, i, j)
    assert 0 <= r <= 1


def test_full_game_walkthrough_spends_exactly_the_optimal_budget():
    """Play the hardest three-turn line at the exact optimal budget.

    The opening bid matches the opponent's full budget, so she cannot
    afford to beat it; she then takes the middle turn, and the policy
    must still afford the all-in finish. Total spend is exactly 3/2
    (the middle bid is lost and costs nothing under first-price rules).
    """
    s = StrategyState.fresh(FP_SET01, 3, 1)
    remaining = F(3, 2)

    b1 = next_bid(s, 1)
    assert b1 == 1  # unbeatable: a winning counterbid would exceed her budget
    assert b1 <= remaining
    remaining -= b1  # won, paid
    s = observe_outcome(s, 1, b1, i_won=True)
    assert s.countdown == CountdownPair(1, 2)
    assert s.tracked_opponent_budget == 1

    b2 = next_bid(s, 1)
    assert b2 == F(1, 2)
    assert b2 <= remaining
    s = observe_outcome(s, 1, b2, i_won=False)  # she pays just over 1/2
    assert s.countdown == CountdownPair(1, 1)
    assert s.tracked_opponent_budget == F(1, 2)

    b3 = next_bid(s, 1)
    assert b3 == F(1, 2)  # ties anything she can still afford
    assert b3 <= remaining
    assert remaining - b3 == 0
