"""The policy's rounded bids at a fractional alpha.

At an alpha outside {0, 1}, a game that starts P1 at or above
x[h][h]*b2 + T*u, u = b2 / 2**64 and (h, h) the opening countdown, rounds
each nonzero value-1 bid up to a multiple of u (``simulate._bid_unit``);
the ``strategy`` docstring proves that the margin of one u per turn pays
for it. Each game here starts at exactly that budget, with b2 = 1. Below
it the policy bids ``next_bid``'s exact amounts.

At alpha in {0, 1} the policy never rounds. Besides the test below, the
pinned digests in ``trace_digests.json`` hold those bytes: the ``x3/2``
cases of fp-set, fp-fixed, ap-set and ap-fixed at T = 5 and T = 21,
which start at 3/2 times ``obr``, and their ``T=5 fault`` cases, at
twice ``obr``.
"""

import functools
from fractions import Fraction

import pytest

from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    AllInAdversary,
    AuctionVariant,
    GameConfig,
    MatchPlusEpsilonAdversary,
    Player,
    RandomSeededAdversary,
    StrategyPolicy,
    StrategyState,
    ValueModel,
    countdown_for,
    exhaustive_adversary_check,
    next_bid,
    obr,
    observe_outcome,
    run_game,
)
from multibattle import matrices, simulate
from multibattle.matrices import entry_pair
from multibattle.simulate import _bid_unit

F = Fraction
U = F(1, 2**64)  # the bid unit at b2 = 1

VARIANTS = {
    "ap-set@1/3": AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)),
    "ap-fixed@1/3": AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 3)),
    "ap-fixed@1/2": AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)),
    "ap-set@12345/65536": AuctionVariant.all_pay(ValueModel.SET01, F(12345, 65536)),
}
ADVERSARIES = {
    "random": RandomSeededAdversary,
    "allin": AllInAdversary,
    "match": MatchPlusEpsilonAdversary,
}
# Every (variant, T, adversary) at T = 101 and 1001, but only the match game
# at 12345/65536 and T = 1001, which bounds the time (about 2 s alone).
GAMES = [
    pytest.param(name, turns, adversary, id=f"{name}-T{turns}-{adversary}")
    for name in VARIANTS
    for turns in (101, 1001)
    for adversary in ADVERSARIES
    if not (name == "ap-set@12345/65536" and turns == 1001 and adversary != "match")
]


def threshold(variant, turns):
    """x[h][h] + T*u: the least start budget, at b2 = 1, at which the policy rounds."""
    h = countdown_for(turns, 0, 0, 0).i
    num, den = entry_pair(variant, h, h)
    return F(num, den) + turns * U


@functools.cache
def play(name, turns, adversary, below=0):
    """The trace of one game started ``below`` units under the threshold; each runs once per session."""
    variant = VARIANTS[name]
    budget = threshold(variant, turns) - below * U
    return run_game(GameConfig(variant, turns), budget, StrategyPolicy(), ADVERSARIES[adversary](), seed=turns)


def replay(trace):
    """(P1's budget, the policy's state, value-1 turns played before it) before each turn of ``trace``."""
    config = trace.config
    state = StrategyState.fresh(config.variant, config.turns, config.budget_p2)
    budget, played = trace.budget_p1, 0
    for turn in trace.turns:
        yield turn, budget, state, played
        played += turn.value
        state = observe_outcome(state, turn.value, turn.bid_p1, turn.winner is Player.P1)
        budget = turn.budget_p1


@pytest.mark.parametrize("name, turns, adversary", GAMES)
def test_the_rounded_policy_wins_from_the_threshold(name, turns, adversary):
    config = GameConfig(VARIANTS[name], turns)
    assert _bid_unit(config, threshold(config.variant, turns)) == U
    trace = play(name, turns, adversary)
    assert trace.winner is Player.P1 and trace.reason == "countdown"
    value1 = [(turn.bid_p1, next_bid(state, 1)) for turn, _, state, _ in replay(trace) if turn.value == 1]
    for bid, exact in value1:  # the least multiple of u at or above the exact bid
        assert (bid / U).denominator == 1 and exact <= bid < exact + U
    assert any(bid != exact for bid, exact in value1)


@pytest.mark.parametrize("name, turns, adversary", GAMES)
def test_the_margin_pays_for_every_turn_left(name, turns, adversary):
    """Before every value-1 turn, P1 holds x[i][j] times the tracked budget plus one u per turn left."""
    trace = play(name, turns, adversary)
    variant = trace.config.variant
    checked = 0
    for turn, budget, state, played in replay(trace):
        if turn.value == 1:
            num, den = entry_pair(variant, *state.countdown)
            assert budget - F(num, den) * state.tracked_opponent_budget >= (turns - played) * U, turn.turn_index
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name, turns, adversary", [game for game in GAMES if game.values[1] == 101])
def test_one_unit_below_the_threshold_bids_exactly(name, turns, adversary):
    config = GameConfig(VARIANTS[name], turns)
    assert _bid_unit(config, threshold(config.variant, turns) - U) is None
    trace = play(name, turns, adversary, below=1)
    assert trace.winner is Player.P1
    for turn, _, state, _ in replay(trace):
        assert turn.bid_p1 == next_bid(state, turn.value), turn.turn_index


def test_the_policy_decides_once_from_the_entry_fresh_reads():
    variant = VARIANTS["ap-set@1/3"]
    config, start = GameConfig(variant, 101), threshold(variant, 101)
    memo = matrices._binomial_memo
    memo.cache_clear()
    StrategyPolicy().begin(config, start)
    assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)


@pytest.mark.parametrize("variant", [FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1], ids=lambda v: v.short_name)
def test_a_closed_form_alpha_never_rounds(variant):
    for turns in (5, 21, 101):
        config = GameConfig(variant, turns)
        assert _bid_unit(config, obr(variant, turns, exact=True) * F(3, 2)) is None


# (variant, T, states): the sweep at d = 8 explores as many states from obr + T*u,
# where the policy rounds, as from obr, where it bids exactly; the counts at obr
# are those of the exact policy before rounding existed.
SWEEPS = [("ap-set@1/3", 7, 46), ("ap-set@1/3", 9, 124), ("ap-fixed@1/2", 9, 232)]


@pytest.mark.parametrize("name, turns, states", SWEEPS)
def test_the_sweep_shares_the_rounding_rule(name, turns, states, monkeypatch):
    variant = VARIANTS[name]
    config = GameConfig(variant, turns)
    start = threshold(variant, turns)
    assert start == obr(variant, turns, exact=True) + turns * U
    for budget in (start, start - turns * U):
        verdict = exhaustive_adversary_check(config, budget, 8)
        assert verdict.win_all and verdict.counterexample is None
        assert verdict.states_explored == states
    # A unit of b2/8 overspends the slack, and the sweep finds the loss: it rounds
    # by _bid_unit, and its losing line replays through StrategyPolicy's rounding.
    rule = simulate._bid_unit
    monkeypatch.setattr(simulate, "_bid_unit", lambda config, budget_p1: rule(config, budget_p1) and F(1, 8))
    verdict = exhaustive_adversary_check(config, start, 8)
    assert not verdict.win_all and verdict.counterexample.winner is Player.P2
    assert exhaustive_adversary_check(config, start - U, 8).win_all
