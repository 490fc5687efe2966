"""Playouts, adversaries, trace invariants, and the exhaustive sweep."""

import itertools
import re
import time
import tracemalloc
from bisect import bisect_right
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
    DomainError,
    GameConfig,
    MatchPlusEpsilonAdversary,
    OmnipotentAdversary,
    Player,
    Pricing,
    RandomSeededAdversary,
    ResourceError,
    StrategyPolicy,
    StrategyState,
    ValueModel,
    build_matrix,
    countdown_for,
    exhaustive_adversary_check,
    initial_state,
    obr,
    observe_outcome,
    run_game,
)
from multibattle import simulate
from multibattle.core import GameDecidedError, UnwinnableStateError
from multibattle.simulate import _bid_unit, _least_above, _policy_bid, _ScriptedAdversary

F = Fraction

# The four base variants and two without a closed form.
SIX_VARIANTS = [
    FP_SET01,
    FP_FIXED1,
    AP_SET01,
    AP_FIXED1,
    AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)),
    AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)),
]


def test_strategy_beats_the_all_in_adversary_at_the_optimal_ratio():
    cfg = GameConfig(FP_SET01, turns=3)
    trace = run_game(cfg, F(3, 2), StrategyPolicy(), AllInAdversary())
    assert trace.winner is Player.P1
    assert trace.reason == "exhausted"
    assert len(trace.turns) == 3


@pytest.mark.parametrize("b2", [F(1, 4), F(1), F(4)], ids=str)
def test_omnipotent_adversary_punishes_a_short_budget(b2):
    # Its default grid is b2/8 at every b2; a grid of 1/(8*b2) left P2 0 units at b2 = 1/4, and P1 won.
    cfg = GameConfig(FP_SET01, turns=3, budget_p2=b2)
    trace = run_game(cfg, F(149, 100) * b2, StrategyPolicy(), OmnipotentAdversary())
    assert trace.winner is Player.P2
    # The known killing line: take the opening bid, then outbid twice.
    assert [t.winner for t in trace.turns].count(Player.P2) >= 2


def test_omnipotent_adversary_cannot_beat_the_optimal_budget():
    cfg = GameConfig(FP_SET01, turns=3)
    trace = run_game(cfg, F(3, 2), StrategyPolicy(), OmnipotentAdversary())
    assert trace.winner is Player.P1


@pytest.mark.parametrize(
    "variant",
    [
        pytest.param(AP_SET01, id="ap-set"),
        pytest.param(AP_FIXED1, id="ap-fixed"),
        pytest.param(AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)), id="ap-set-third"),
        pytest.param(AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)), id="ap-fixed-half"),
    ],
)
@pytest.mark.parametrize("turns", [3, 5])
def test_omnipotent_adversary_on_all_pay_variants(variant, turns):
    # Below the optimal ratio she must beat P1's bids, paying for them
    # while P1's losing bids cost alpha times their size.
    cfg = GameConfig(variant, turns)
    ratio = obr(variant, turns, exact=True)
    held = run_game(cfg, ratio, StrategyPolicy(), OmnipotentAdversary(F(1, 24)))
    assert (held.winner, held.reason) == (Player.P1, "countdown")
    short = run_game(cfg, ratio * F(9, 10), StrategyPolicy(), OmnipotentAdversary(F(1, 24)))
    assert (short.winner, short.reason) == (Player.P2, "exhausted")


@pytest.mark.parametrize("variant", [FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1], ids=lambda v: v.short_name)
def test_the_policy_at_obr_beats_the_omnipotent_adversary_at_41_turns(variant):
    # A node search ran out of nodes here on ap-set, after seconds; the threshold table takes milliseconds.
    cfg = GameConfig(variant, 41)
    trace = run_game(cfg, obr(variant, 41, exact=True), StrategyPolicy(), OmnipotentAdversary(F(1, 40)))
    assert (trace.winner, trace.reason) == (Player.P1, "countdown")


def test_the_omnipotent_adversary_beats_one_percent_below_obr_up_to_41_turns():
    # One adversary, so one threshold table, serves all three lengths.
    adversary = OmnipotentAdversary(F(1, 40))
    for turns in (11, 21, 41):
        short = obr(FP_SET01, turns, exact=True) * F(99, 100)
        trace = run_game(GameConfig(FP_SET01, turns), short, StrategyPolicy(), adversary)
        assert (trace.winner, trace.reason) == (Player.P2, "exhausted"), turns


def test_fixed_value_games_need_no_more_than_matching_budgets():
    cfg = GameConfig(FP_FIXED1, turns=5)
    trace = run_game(cfg, F(1), StrategyPolicy(), OmnipotentAdversary())
    assert trace.winner is Player.P1
    assert trace.reason == "countdown"


def test_strategy_beats_the_match_plus_epsilon_adversary():
    cfg = GameConfig(FP_SET01, turns=3)
    trace = run_game(cfg, F(3, 2), StrategyPolicy(), MatchPlusEpsilonAdversary())
    assert trace.winner is Player.P1


def test_winning_set01_traces_never_let_the_adversary_lead():
    for turns in (1, 3, 5, 7):
        cfg = GameConfig(FP_SET01, turns=turns)
        b1 = obr(FP_SET01, turns, exact=True)
        for adversary in (AllInAdversary(), MatchPlusEpsilonAdversary(), OmnipotentAdversary()):
            trace = run_game(cfg, b1, StrategyPolicy(), adversary)
            assert trace.winner is Player.P1, (turns, type(adversary).__name__)
            for rec in trace.turns:
                assert rec.score_p1 >= rec.score_p2


def test_traces_are_deterministic():
    cfg = GameConfig(FP_SET01, turns=9)
    kwargs = dict(seed=1234)
    a = run_game(cfg, F(2), StrategyPolicy(), RandomSeededAdversary(), **kwargs)
    b = run_game(cfg, F(2), StrategyPolicy(), RandomSeededAdversary(), **kwargs)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("variant", [FP_SET01, AP_SET01], ids=lambda v: v.short_name)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_trace_budgets_follow_the_pricing_rule(variant, seed):
    cfg = GameConfig(variant, turns=7)
    trace = run_game(cfg, F(2), StrategyPolicy(), RandomSeededAdversary(), seed=seed)
    alpha = variant.alpha
    b1, b2 = F(2), F(1)
    for rec in trace.turns:
        if rec.winner is Player.P1:
            pay1, pay2 = rec.bid_p1, alpha * rec.bid_p2
        else:
            pay1, pay2 = (alpha * rec.bid_p1, rec.bid_p2)
        if variant.pricing is Pricing.FIRST_PRICE:
            pay1 = rec.bid_p1 if rec.winner is Player.P1 else F(0)
            pay2 = rec.bid_p2 if rec.winner is Player.P2 else F(0)
        b1 -= pay1
        b2 -= pay2
        assert (rec.budget_p1, rec.budget_p2) == (b1, b2)
        assert b1 >= 0 and b2 >= 0


@settings(deadline=None)
@given(
    variant=st.sampled_from(SIX_VARIANTS),
    turns=st.integers(1, 11),
    adversary=st.sampled_from([RandomSeededAdversary, AllInAdversary, MatchPlusEpsilonAdversary]),
    surplus=st.fractions(0, 1, max_denominator=20),
    seed=st.integers(0, 2**16),
)
def test_policy_keeps_its_margin_over_the_matrix(variant, turns, adversary, surplus, seed):
    """From at or above obr, P1's budget covers x[i][j] tracked P2 budgets after every turn."""
    cfg = GameConfig(variant, turns)
    b1 = obr(variant, turns, exact=True) * (1 + surplus)
    trace = run_game(cfg, b1, StrategyPolicy(), adversary(), seed=seed)
    assert trace.winner is Player.P1
    s = StrategyState.fresh(variant, turns, cfg.budget_p2)
    matrix = build_matrix(variant, s.countdown.i, exact=True)
    for rec in trace.turns:
        s = observe_outcome(s, rec.value, rec.bid_p1, rec.winner is Player.P1)
        i, j = s.countdown.i, s.countdown.j
        if i == 0 or j == 0:
            continue
        assert not (variant.is_triangular and i > j)
        assert rec.budget_p1 - matrix.entry(i, j) * s.tracked_opponent_budget >= 0, (rec.index, i, j)


@settings(deadline=None)
@given(
    variant=st.sampled_from(SIX_VARIANTS),
    turns=st.integers(1, 21),
    adversary=st.sampled_from([RandomSeededAdversary, AllInAdversary, MatchPlusEpsilonAdversary]),
    scale=st.fractions(F(1, 2), 2, max_denominator=20),
    seed=st.integers(0, 2**16),
)
def test_budget_drops_equal_payments(variant, turns, adversary, scale, seed):
    """Each turn a player's budget falls by her payment: her bid on a win, alpha times it on a loss."""
    cfg = GameConfig(variant, turns)
    b1 = obr(variant, turns, exact=True) * scale
    trace = run_game(cfg, b1, StrategyPolicy(), adversary(), seed=seed)
    assert trace.reason != "fault"
    alpha = variant.alpha
    b2 = cfg.budget_p2
    for rec in trace.turns:
        p1_won = rec.winner is Player.P1
        assert p1_won == (rec.bid_p1 >= rec.bid_p2)
        pay1 = rec.bid_p1 if p1_won else alpha * rec.bid_p1
        pay2 = alpha * rec.bid_p2 if p1_won else rec.bid_p2
        assert (b1 - rec.budget_p1, b2 - rec.budget_p2) == (pay1, pay2), rec.index
        b1, b2 = rec.budget_p1, rec.budget_p2


@settings(deadline=None, max_examples=100)
@given(
    variant=st.sampled_from(SIX_VARIANTS),
    turns=st.integers(1, 5),
    surplus=st.fractions(0, 1, max_denominator=20),
)
def test_policy_never_loses_to_the_omnipotent_adversary_at_or_above_obr(variant, turns, surplus):
    cfg = GameConfig(variant, turns)
    b1 = obr(variant, turns, exact=True) * (1 + surplus)
    trace = run_game(cfg, b1, StrategyPolicy(), OmnipotentAdversary(F(1, 24)))
    assert trace.winner is Player.P1, (trace.reason, len(trace.turns))


class FixedBidsPolicy:
    """Scripted P1 that plays a fixed bid sequence, then zeros."""

    def __init__(self, bids):
        self._bids = list(bids)

    def begin(self, config, budget_p1):
        self._at = 0

    def bid(self, state, value):
        if self._at >= len(self._bids):
            return F(0)
        self._at += 1
        return self._bids[self._at - 1]

    def observe(self, value, my_bid, i_won):
        pass


def test_p1_overbid_is_a_fault():
    cfg = GameConfig(FP_SET01, turns=2)
    trace = run_game(cfg, F(1), FixedBidsPolicy([F(2)]), AllInAdversary())
    assert trace.winner is Player.P2
    assert trace.reason == "fault"
    assert trace.fault.player is Player.P1
    assert trace.fault.attempted_bid == 2
    assert trace.fault.budget == 1
    assert trace.turns == ()
    doc = trace.to_json_dict()
    assert doc["reason"] == "fault"
    assert doc["fault"]["player"] == "P1"


class _OverbiddingAdversary:
    def begin(self, config, budget_p1):
        pass

    def choose_value(self, state, rng):
        return 1

    def choose_bid(self, state, value, p1_bid, rng):
        return state.budget_p2 * 2


def test_adversary_overbid_is_a_fault_too():
    cfg = GameConfig(FP_SET01, turns=2)
    trace = run_game(cfg, F(1), StrategyPolicy(), _OverbiddingAdversary())
    assert trace.winner is Player.P1
    assert trace.reason == "fault"
    assert trace.fault.player is Player.P2


class _FixedBidAdversary:
    """Plays value 1 and the given bid every turn."""

    def __init__(self, bid):
        self._bid = bid

    def begin(self, config, budget_p1):
        pass

    def choose_value(self, state, rng):
        return 1

    def choose_bid(self, state, value, p1_bid, rng):
        return self._bid


@pytest.mark.parametrize("bid", [2, 1.1], ids=["int", "float"])
def test_int_and_float_overbids_fault_with_their_exact_value(bid):
    cfg = GameConfig(FP_SET01, turns=3)
    by_p1 = run_game(cfg, F(1), FixedBidsPolicy([bid]), AllInAdversary())
    by_p2 = run_game(cfg, F(1), FixedBidsPolicy([F(0)]), _FixedBidAdversary(bid))
    for trace, player, other in ((by_p1, Player.P1, Player.P2), (by_p2, Player.P2, Player.P1)):
        assert (trace.reason, trace.fault.player, trace.winner) == ("fault", player, other)
        assert type(trace.fault.attempted_bid) is Fraction
        assert trace.fault.attempted_bid == F(bid)
        assert trace.fault.budget == 1


def test_a_float_bid_plays_like_its_exact_fraction():
    cfg = GameConfig(AP_SET01, turns=3)
    as_float = run_game(cfg, F(2), FixedBidsPolicy([0.1, 0.7]), _FixedBidAdversary(0.3))
    exact = run_game(cfg, F(2), FixedBidsPolicy([F(0.1), F(0.7)]), _FixedBidAdversary(F(0.3)))
    assert as_float.turns == exact.turns
    assert as_float.to_json() == exact.to_json()
    assert all(type(t.bid_p1) is Fraction and type(t.budget_p1) is Fraction for t in as_float.turns)
    assert as_float.turns[0].budget_p1 == 2 - F(0.1)  # not 1.9: the float's exact value


def _grid_bids(b2, denominator_bound):
    """All rationals in [0, b2] with denominator at most bound * b2, sorted.

    The sweep's bid grid as it once built it in full; kept here as the
    reference for ``_least_above`` and for ``reference_sweep``.
    """
    bound_frac = denominator_bound * b2
    assert bound_frac.denominator == 1 and bound_frac >= 1
    bound = bound_frac.numerator
    out = set()
    for q in range(1, bound + 1):
        top = (b2.numerator * q) // b2.denominator
        for p in range(top + 1):
            f = Fraction(p, q)
            if f <= b2:
                out.add(f)
    return sorted(out)


def test_grid_bids_enumerate_all_coarse_rationals():
    bids = _grid_bids(F(1), 2)
    assert bids == [F(0), F(1, 2), F(1)]
    bids = _grid_bids(F(3, 2), 2)
    assert bids[0] == 0 and bids[-1] == F(3, 2)
    assert all(b.denominator <= 3 for b in bids)
    assert sorted(set(bids)) == bids
    assert [_least_above(b, 3) for b in bids[:-1]] == bids[1:]
    cfg = GameConfig(FP_SET01, turns=3, budget_p2=F(1, 3))
    with pytest.raises(DomainError, match=r"denominator bound 1 times b2=1/3 must be a positive integer"):
        exhaustive_adversary_check(cfg, F(1, 2), denominator_bound=1)


@pytest.mark.parametrize("bound", [2.5, 8.0, True])
def test_the_sweep_rejects_a_bound_that_is_neither_an_int_nor_a_fraction(bound, monkeypatch):
    def explored(*args):
        raise AssertionError("a state was explored")

    monkeypatch.setattr(simulate, "initial_state", explored)
    with pytest.raises(DomainError, match="^denominator bound must be an int or a Fraction, got "):
        exhaustive_adversary_check(GameConfig(FP_SET01, turns=3), F(3, 2), bound)


@pytest.mark.parametrize("denominator", [2.5, 16.0, True, 0])
def test_random_adversary_rejects_a_denominator_that_is_no_int_of_at_least_one(denominator):
    rule = ">= 1" if denominator.__class__ is int else "an int"
    with pytest.raises(DomainError, match=f"^{re.escape(f'bid denominator must be {rule}, got {denominator!r}')}$"):
        RandomSeededAdversary(denominator)


def _least_above_by_scan(p, bound):
    """The least rational above p >= 0 with denominator at most bound, one denominator at a time.

    For each q <= bound the least multiple of 1/q above p is
    (floor(p*q) + 1)/q; the answer is the smallest of these. O(bound)
    steps: the reference for ``_least_above``'s O(log bound) descent.
    """
    pn, pd = p.numerator, p.denominator
    best_n, best_q = pn // pd + 1, 1
    for q in range(2, bound + 1):
        n = pn * q // pd + 1
        if n * best_q < best_n * q:
            best_n, best_q = n, q
    return Fraction(best_n, best_q)


@settings(deadline=None, max_examples=120)
@given(bound=st.integers(1, 40), data=st.data())
def test_least_above_is_the_next_grid_bid(bound, data):
    """The least grid element above p, for p on the grid and off it, below 1 and above."""
    bids = _grid_bids(F(2), bound)  # denominators up to 2 * bound
    p = data.draw(st.one_of(st.sampled_from(bids[:-1]), st.fractions(0, F(399, 200), max_denominator=200)))
    want = bids[bisect_right(bids, p)]
    assert _least_above_by_scan(p, 2 * bound) == want
    assert _least_above(p, 2 * bound) == want


@settings(deadline=None, max_examples=200)
@given(bound=st.integers(1, 3000), p=st.fractions(0, 50, max_denominator=10**6))
def test_least_above_matches_the_scan_at_large_bounds(bound, p):
    assert _least_above(p, bound) == _least_above_by_scan(p, bound)


@pytest.mark.parametrize("p", [F(0), F(1, 3), F(355, 113), F(2**61 - 1, 2**61), F(7)])
def test_least_above_takes_logarithmic_steps_in_the_bound(p):
    bound = 10**6
    t0 = time.perf_counter()
    q = _least_above(p, bound)
    elapsed = time.perf_counter() - t0
    assert q > p and q.denominator <= bound
    assert elapsed < 0.005  # the scan over a million denominators takes ~0.1 s
    assert q == _least_above_by_scan(p, bound)


def test_a_fine_bid_grid_costs_no_grid_sized_time_or_memory():
    # At bound 512 the full grid holds ~80k rationals; the sweep never builds it.
    cfg = GameConfig(FP_SET01, turns=5)
    ratio = obr(FP_SET01, 5, exact=True)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        verdict = exhaustive_adversary_check(cfg, ratio, denominator_bound=512)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.win_all
    assert elapsed < 1.0
    assert peak < 1_000_000


def test_exhaustive_check_certifies_the_optimal_budget():
    cfg = GameConfig(FP_SET01, turns=3)
    verdict = exhaustive_adversary_check(cfg, F(3, 2), denominator_bound=8)
    assert verdict.win_all
    assert verdict.counterexample is None
    assert verdict.states_explored > 0


def test_exhaustive_check_finds_the_killing_line_below_the_optimum():
    cfg = GameConfig(FP_SET01, turns=3)
    verdict = exhaustive_adversary_check(cfg, F(3, 2) - F(1, 8), denominator_bound=8)
    assert not verdict.win_all
    trace = verdict.counterexample
    assert trace is not None
    assert trace.winner is Player.P2
    # The returned trace is a real playout, not just a claim.
    assert len(trace.turns) <= 3
    assert trace.config.turns == 3


def test_exhaustive_check_all_pay_variant():
    cfg = GameConfig(AP_SET01, turns=3)
    verdict = exhaustive_adversary_check(cfg, F(2), denominator_bound=8)
    assert verdict.win_all


def test_exhaustive_check_at_a_fractional_alpha():
    # No closed form: the sweep runs the policy on its exact DP matrix.
    variant = AuctionVariant.all_pay(ValueModel.SET01, F(1, 3))
    cfg = GameConfig(variant, turns=5)
    ratio = obr(variant, 5, exact=True)
    assert exhaustive_adversary_check(cfg, ratio, denominator_bound=8).win_all
    below = exhaustive_adversary_check(cfg, ratio * F(9, 10), denominator_bound=8)
    assert not below.win_all
    assert below.counterexample.winner is Player.P2


@pytest.mark.parametrize(
    "variant",
    [
        pytest.param(FP_SET01, id="fp-set"),
        pytest.param(AP_SET01, id="ap-set"),
        pytest.param(AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)), id="ap-set-third"),
        pytest.param(AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)), id="ap-fixed-half"),
    ],
)
def test_exhaustive_check_at_eleven_turns(variant):
    cfg = GameConfig(variant, turns=11)
    ratio = obr(variant, 11, exact=True)
    at = exhaustive_adversary_check(cfg, ratio, denominator_bound=8)
    assert at.win_all
    # One beat reply per contested turn keeps the sweep small (807 at most here).
    assert at.states_explored <= 807
    below = exhaustive_adversary_check(cfg, ratio * F(9, 10), denominator_bound=8)
    assert not below.win_all
    assert below.counterexample.winner is Player.P2


def reference_sweep(config, budget_p1, denominator_bound):
    """The sweep as it was before it played ``settle_turn``'s successors.

    It does its own turn arithmetic and tries every affordable winning
    grid bid, cheapest first. Kept here only as the differential reference.
    Returns (win_all, counterexample JSON or None, states explored).
    """
    turns = config.turns
    b2 = config.budget_p2
    b1 = F(budget_p1)
    bids = _grid_bids(b2, denominator_bound)
    alpha = config.variant.alpha
    set01 = config.variant.values is ValueModel.SET01
    unit = _bid_unit(config, b1)  # the policy's own bid rule, not the grid enumeration under test
    memo = {}

    def explore(remaining, s1, s2, rem, policy, adv_budget):
        cd = countdown_for(turns, turns - remaining, s1, s2)
        if cd.i == 0:
            return None
        if cd.j == 0:
            return ()
        key = (remaining, s1, s2, rem, policy.tracked_opponent_budget, adv_budget)
        if key in memo:
            return memo[key]
        line = None
        if set01:
            sub = explore(remaining - 1, s1, s2, rem, policy, adv_budget)
            if sub is not None:
                line = ((0, F(0)),) + sub
        if line is None:
            p = _policy_bid(policy, 1, rem, unit)
            won = observe_outcome(policy, 1, p, True)
            sub = explore(remaining - 1, s1 + 1, s2, rem - p, won, adv_budget)
            if sub is not None:
                line = ((1, F(0)),) + sub
            else:
                lost = observe_outcome(policy, 1, p, False)
                for q in bids[bisect_right(bids, p):bisect_right(bids, adv_budget)]:
                    sub = explore(remaining - 1, s1, s2 + 1, rem - alpha * p, lost, adv_budget - q)
                    if sub is not None:
                        line = ((1, q),) + sub
                        break
        memo[key] = line
        return line

    line = explore(turns, 0, 0, b1, StrategyState.fresh(config.variant, turns, b2), b2)
    if line is None:
        return True, None, len(memo)
    trace = run_game(config, b1, StrategyPolicy(), _ScriptedAdversary(line))
    return False, trace.to_json(), len(memo)


@pytest.mark.parametrize(
    "variant",
    [
        pytest.param(FP_SET01, id="fp-set"),
        pytest.param(FP_FIXED1, id="fp-fixed"),
        pytest.param(AP_SET01, id="ap-set"),
        pytest.param(AP_FIXED1, id="ap-fixed"),
        pytest.param(AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)), id="ap-set-third"),
        pytest.param(AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)), id="ap-fixed-half"),
    ],
)
def test_exhaustive_check_matches_the_full_bid_reference(variant):
    """Only the cheapest winning bid is tried; verdicts and traces must not move."""
    losses = 0
    for turns, b2, d, scale in itertools.product(
        range(1, 8), (F(1), F(3, 2)), (4, 8), (F(1, 2), F(9, 10), F(1), F(11, 10))
    ):
        cfg = GameConfig(variant, turns, b2)
        b1 = obr(variant, turns, exact=True) * b2 * scale
        new = exhaustive_adversary_check(cfg, b1, d)
        win_all, counterexample, states = reference_sweep(cfg, b1, d)
        case = (turns, b2, d, scale)
        assert new.win_all == win_all, case
        assert (new.counterexample and new.counterexample.to_json()) == counterexample, case
        assert new.states_explored <= states, case
        losses += not win_all
    assert losses > 0


def test_exhaustive_check_respects_its_state_budget(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_SWEEP_STATES", 10)
    cfg = GameConfig(FP_SET01, turns=5)
    with pytest.raises(ResourceError, match=r"^exhaustive sweep exceeded 10 states \(remaining="):
        exhaustive_adversary_check(cfg, F(9, 5), denominator_bound=8)


def test_exhaustive_check_has_a_depth_ceiling():
    with pytest.raises(ResourceError, match=f"depth ceiling of {simulate.MAX_SWEEP_TURNS} turns"):
        exhaustive_adversary_check(GameConfig(FP_FIXED1, 2001), 2, 1)
    assert exhaustive_adversary_check(GameConfig(FP_FIXED1, simulate.MAX_SWEEP_TURNS), 2, 1).win_all


def test_the_sweep_takes_zero_value_bids_from_the_policy(monkeypatch):
    """A policy that spends on zero-value turns loses, and the sweep finds that line."""
    cfg = GameConfig(FP_SET01, turns=3)
    assert exhaustive_adversary_check(cfg, F(3, 2), denominator_bound=8).win_all
    bid = simulate.next_bid
    monkeypatch.setattr(simulate, "next_bid", lambda state, value: bid(state, 1))
    verdict = exhaustive_adversary_check(cfg, F(3, 2), denominator_bound=8)
    assert not verdict.win_all
    assert [(t.value, t.bid_p1, t.bid_p2) for t in verdict.counterexample.turns] == [
        (0, F(1), F(0)), (0, F(1, 2), F(0)), (1, F(0), F(1, 8)),
    ]


@pytest.mark.parametrize("error", [UnwinnableStateError, GameDecidedError])
def test_policy_and_sweep_bid_zero_where_next_bid_cannot_plan(monkeypatch, error):
    """Which states are unplannable is the strategy's rule: its error becomes a zero bid."""
    cfg = GameConfig(FP_SET01, turns=3)

    def unplannable(state, value):
        raise error(f"countdown {tuple(state.countdown)} cannot be planned")

    monkeypatch.setattr(simulate, "next_bid", unplannable)
    policy = StrategyPolicy()
    policy.begin(cfg, F(3, 2))
    state = initial_state(cfg, F(3, 2))  # countdown (2, 2): plannable, so the error is the patch's
    assert policy.bid(state, 1) == 0 and policy.bid(state, 0) == 0
    verdict = exhaustive_adversary_check(cfg, F(3, 2), denominator_bound=8)
    assert not verdict.win_all
    assert [t.bid_p1 for t in verdict.counterexample.turns] == [0] * len(verdict.counterexample.turns)


def test_omnipotent_adversary_grid_unit_is_configurable():
    cfg = GameConfig(FP_SET01, turns=3)
    coarse = OmnipotentAdversary(grid_unit=F(1, 4))
    trace = run_game(cfg, F(149, 100), StrategyPolicy(), coarse)
    assert trace.winner in (Player.P1, Player.P2)
    with pytest.raises(DomainError):
        OmnipotentAdversary(grid_unit=0)


def test_match_adversary_epsilon_validation():
    with pytest.raises(DomainError):
        MatchPlusEpsilonAdversary(epsilon=0)


def test_random_adversary_bids_stay_on_its_grid():
    # Each bid is a quarter-multiple of whatever she still holds.
    cfg = GameConfig(FP_SET01, turns=9)
    trace = run_game(cfg, F(3), StrategyPolicy(), RandomSeededAdversary(bid_denominator=4), seed=5)
    held = F(1)
    for rec in trace.turns:
        assert (rec.bid_p2 * 4 / held).denominator == 1 or held == 0
        assert 0 <= rec.bid_p2 <= held
        held = rec.budget_p2
