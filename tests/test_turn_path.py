"""The turn path on integer pairs against its Fraction-operator reference.

``settle_turn``, ``next_bid``, ``observe_outcome`` and ``_policy_bid``
compare, pay and scale through ``numerator``/``denominator`` pairs. The
``ref_*`` functions below are the same rules written with ``Fraction``
operators, as the package had them before; they are kept here only as
the differential reference, as are ``ref_match_bid`` and
``ref_random_bid`` for the two adversaries that now build their bids
from pairs. ``run_game`` checks each turn once and settles it through
``core._settle``; its traces are replayed through ``settle_turn`` here.

``countdown_for``, ``observe_outcome`` and ``run_game`` build their
records with ``tuple.__new__``, skipping a ``__new__`` whose check cannot
fail there; the tests at the end hold those records to their reference
values and exact types, and check that ``_replace`` still validates.
"""

import random
import re
from decimal import Decimal
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
    ContestError,
    DomainError,
    GameConfig,
    GameState,
    GridEvaluator,
    MatchPlusEpsilonAdversary,
    OmnipotentAdversary,
    Player,
    RandomSeededAdversary,
    StrategyPolicy,
    StrategyState,
    ValueModel,
    countdown_for,
    initial_state,
    min_winning_budget,
    next_bid,
    obr,
    observe_outcome,
    optimal_bid_fraction,
    run_game,
    settle_turn,
    winner_if_decided,
)
from multibattle.core import CountdownPair, GameDecidedError, OverbidError, TurnRecord, ceil_div
from multibattle.simulate import _policy_bid, _ScriptedAdversary

F = Fraction

VARIANTS = [
    FP_SET01,
    FP_FIXED1,
    AP_SET01,
    AP_FIXED1,
    AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)),
    AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)),
    AuctionVariant.all_pay(ValueModel.SET01, F(2, 7)),
]


def ref_settle_turn(config, state, value, bid_p1, bid_p2):
    if value.__class__ is not int or value not in (0, 1):
        raise DomainError(f"turn value must be 0 or 1, got {value!r}")
    if config.variant.values is ValueModel.FIXED1 and value != 1:
        raise DomainError("fixed-value contests only auction value-1 objects")
    if state.turn_index >= config.turns:
        raise GameDecidedError("all turns already played")
    bid_p1 = Fraction(bid_p1)
    bid_p2 = Fraction(bid_p2)
    if not 0 <= bid_p1 <= state.budget_p1:
        raise OverbidError(f"P1 bid {bid_p1} outside [0, {state.budget_p1}]")
    if not 0 <= bid_p2 <= state.budget_p2:
        raise OverbidError(f"P2 bid {bid_p2} outside [0, {state.budget_p2}]")
    p1_wins = bid_p1 >= bid_p2
    alpha = config.variant.alpha
    pay1 = bid_p1 if p1_wins else alpha * bid_p1
    pay2 = alpha * bid_p2 if p1_wins else bid_p2
    s1 = state.score_p1 + (value if p1_wins else 0)
    s2 = state.score_p2 + (value if not p1_wins else 0)
    idx = state.turn_index + 1
    return GameState(
        budget_p1=state.budget_p1 - pay1,
        budget_p2=state.budget_p2 - pay2,
        score_p1=s1,
        score_p2=s2,
        turn_index=idx,
        countdown=countdown_for(config.turns, idx, s1, s2),
    )


def ref_next_bid(state, turn_value):
    if turn_value.__class__ is not int or turn_value not in (0, 1):
        raise DomainError(f"turn value must be 0 or 1, got {turn_value!r}")
    if turn_value == 0:
        return Fraction(0)
    i, j = state.countdown.i, state.countdown.j
    fraction = optimal_bid_fraction(state.variant, i, j)
    return fraction * state.tracked_opponent_budget


def ref_observe_outcome(state, turn_value, my_bid, i_won):
    cd = state.countdown
    if turn_value == 1 and i_won:
        cd = CountdownPair(max(0, cd.i - 1), cd.j)
    elif turn_value == 1:
        cd = CountdownPair(cd.i, max(0, cd.j - 1))
    b = state.tracked_opponent_budget
    if not i_won:
        b -= Fraction(my_bid)
        if b < 0:
            b = Fraction(0)
    return StrategyState(state.variant, b, cd)


def ref_policy_bid(s, value, budget):
    """Zero from unplannable states, once the value itself is valid."""
    if value.__class__ is not int or value not in (0, 1):
        raise DomainError(f"turn value must be 0 or 1, got {value!r}")
    cd = s.countdown
    if cd.i <= 0 or cd.j <= 0 or (s.variant.is_triangular and cd.i > cd.j):
        return Fraction(0)
    return min(ref_next_bid(s, value), budget)


def outcome(fn, *args):
    """``fn``'s result, or the class and message of the package error it raised."""
    try:
        return fn(*args)
    except ContestError as exc:
        return type(exc), str(exc)


# Budgets: hand-built ints or Fractions. Bids and amounts: ints, floats or
# Fractions, in range and out of it.
budgets = st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=30))
numbers = st.one_of(
    st.integers(-2, 6),
    st.floats(-1, 6, allow_nan=False, allow_infinity=False),
    st.fractions(-1, 6, max_denominator=40),
)


def bid_near(data, budget, other=None):
    """A bid of any type: free, the budget itself, or a tie with ``other``."""
    kind = data.draw(st.sampled_from(["free", "budget", "float-budget", "tie", "tie-float"]))
    if kind == "budget":
        return budget
    if kind == "float-budget":
        return float(budget)
    if kind.startswith("tie") and other is not None:
        return float(other) if kind == "tie-float" else other
    return data.draw(numbers)


@settings(deadline=None, max_examples=400)
@given(variant=st.sampled_from(VARIANTS), turns=st.integers(1, 15), data=st.data())
def test_settle_turn_matches_the_fraction_reference(variant, turns, data):
    cfg = GameConfig(variant, turns)
    s1 = data.draw(st.integers(0, turns))
    s2 = data.draw(st.integers(0, turns))
    idx = data.draw(st.integers(0, turns + 1))
    b1, b2 = data.draw(budgets), data.draw(budgets)
    state = GameState(b1, b2, s1, s2, idx, countdown_for(turns, idx, s1, s2))
    value = data.draw(st.sampled_from([0, 1, 1, 2, True]))
    p = bid_near(data, b1)
    q = bid_near(data, b2, p)
    new = outcome(settle_turn, cfg, state, value, p, q)
    assert new == outcome(ref_settle_turn, cfg, state, value, p, q)
    if isinstance(new, GameState):
        assert type(new.budget_p1) is Fraction and type(new.budget_p2) is Fraction


@settings(deadline=None, max_examples=200)
@given(
    variant=st.sampled_from(VARIANTS),
    turns=st.integers(1, 15),
    opponent_budget=budgets.filter(lambda b: b > 0),
    data=st.data(),
)
def test_policy_matches_the_fraction_reference(variant, turns, opponent_budget, data):
    new = ref = StrategyState.fresh(variant, turns, opponent_budget)
    for _ in range(data.draw(st.integers(0, 6))):
        value = data.draw(st.sampled_from([0, 1]))
        my_bid = data.draw(numbers)
        i_won = data.draw(st.booleans())
        new = observe_outcome(new, value, my_bid, i_won)
        ref = ref_observe_outcome(ref, value, my_bid, i_won)
        assert new == ref
        assert type(new.tracked_opponent_budget) is Fraction
    value = data.draw(st.sampled_from([0, 1, 1, 2, True]))
    assert outcome(next_bid, new, value) == outcome(ref_next_bid, ref, value)
    budget = data.draw(st.one_of(budgets, st.floats(0, 6, allow_nan=False, allow_infinity=False)))
    assert outcome(_policy_bid, new, value, budget) == outcome(ref_policy_bid, ref, value, budget)



REPLAY_ADVERSARIES = [RandomSeededAdversary, AllInAdversary, MatchPlusEpsilonAdversary]


@settings(deadline=None, max_examples=150)
@given(
    variant=st.sampled_from(VARIANTS),
    turns=st.integers(1, 21),
    adversary=st.sampled_from(REPLAY_ADVERSARIES),
    scale=st.fractions(F(1, 2), 2, max_denominator=20),
    seed=st.integers(0, 2**16),
)
def test_run_game_turns_replay_through_settle_turn(variant, turns, adversary, scale, seed):
    """``run_game`` checks a turn once and settles it by ``_settle``; ``settle_turn`` must agree."""
    cfg = GameConfig(variant, turns)
    b1 = obr(variant, turns, exact=True) * scale
    trace = run_game(cfg, b1, StrategyPolicy(), adversary(), seed=seed)
    state = initial_state(cfg, b1)
    for rec in trace.turns:
        nxt = settle_turn(cfg, state, rec.value, rec.bid_p1, rec.bid_p2)
        assert rec.index == state.turn_index
        assert rec.winner is (Player.P1 if rec.bid_p1 >= rec.bid_p2 else Player.P2)
        assert (rec.budget_p1, rec.budget_p2, rec.score_p1, rec.score_p2) == (
            nxt.budget_p1,
            nxt.budget_p2,
            nxt.score_p1,
            nxt.score_p2,
        )
        state = nxt
    assert trace.reason != "fault"
    assert winner_if_decided(cfg, state) is trace.winner


def ref_match_bid(adversary, state, value, p1_bid):
    """``MatchPlusEpsilonAdversary.choose_bid`` on Fraction operators."""
    if value == 0:
        return Fraction(0)
    raised = Fraction(p1_bid) + adversary.epsilon
    return raised if raised <= state.budget_p2 else Fraction(0)


def ref_random_bid(adversary, state, rng):
    """``RandomSeededAdversary.choose_bid`` on Fraction operators."""
    d = adversary.bid_denominator
    return Fraction(rng.randint(0, d), d) * state.budget_p2


@settings(deadline=None, max_examples=150)
@given(
    b1=budgets,
    b2=budgets,
    value=st.sampled_from([0, 1]),
    p1_bid=st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=30), st.floats(0, 4)),
    epsilon=st.fractions(F(1, 100), 2, max_denominator=100),
    denominator=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    raise_to_budget=st.booleans(),
)
def test_adversary_bids_match_the_fraction_reference(
    b1, b2, value, p1_bid, epsilon, denominator, seed, raise_to_budget
):
    if raise_to_budget and b2 >= epsilon:
        p1_bid = b2 - epsilon  # the match adversary's raise lands exactly on her budget
    state = GameState(b1, b2, 0, 0, 0, CountdownPair(1, 1))
    match = MatchPlusEpsilonAdversary(epsilon)
    new = match.choose_bid(state, value, p1_bid, None)
    ref = ref_match_bid(match, state, value, p1_bid)
    assert (new, type(new)) == (ref, Fraction)
    rand = RandomSeededAdversary(denominator)
    new = rand.choose_bid(state, value, p1_bid, random.Random(seed))
    ref = ref_random_bid(rand, state, random.Random(seed))
    assert (new, type(new)) == (ref, Fraction)


def ref_countdown_for(turns, turn_index, score_p1, score_p2):
    """``countdown_for`` through ``ceil_div``, ``max`` and the checking constructor."""
    achievable = score_p1 + score_p2 + (turns - turn_index)
    h = ceil_div(achievable, 2) if achievable > 0 else 0
    return CountdownPair(max(0, h - score_p1), max(0, h - score_p2))


def test_countdown_for_matches_the_ceil_div_reference():
    for turns in range(1, 41):
        for idx in range(turns + 2):  # one past the end: nothing achievable is left to split
            for s1 in range(turns + 1):
                for s2 in range(turns + 1):
                    new = countdown_for(turns, idx, s1, s2)
                    assert type(new) is CountdownPair
                    assert new == ref_countdown_for(turns, idx, s1, s2), (turns, idx, s1, s2)


class RecordingPolicy(StrategyPolicy):
    """The strategy policy, keeping the game state and strategy state of every bid."""

    def __init__(self):
        self.seen = []

    def bid(self, state, value):
        self.seen.append((state, self._state))
        return super().bid(state, value)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: f"{v.short_name}@{v.alpha}")
def test_run_game_records_have_exactly_their_types(variant):
    for adversary in REPLAY_ADVERSARIES:
        for turns, scale in ((9, 1), (10, F(1, 2))):
            policy = RecordingPolicy()
            trace = run_game(GameConfig(variant, turns), obr(variant, turns, exact=True) * scale,
                             policy, adversary(), seed=turns)
            assert trace.turns and len(policy.seen) == len(trace.turns)
            assert all(type(rec) is TurnRecord for rec in trace.turns)
            for state, plan in policy.seen:
                assert type(state) is GameState and type(state.countdown) is CountdownPair
                assert type(plan) is StrategyState and type(plan.countdown) is CountdownPair
                assert type(state.budget_p1) is Fraction and type(plan.tracked_opponent_budget) is Fraction


def test_replace_on_fast_built_records_still_checks():
    cfg = GameConfig(AP_SET01, 5)
    state = settle_turn(cfg, initial_state(cfg, 2), 1, F(1, 2), F(1, 3))
    plan = observe_outcome(StrategyState.fresh(AP_SET01, 5, 1), 1, F(1, 3), True)
    for cd in (countdown_for(5, 1, 1, 0), state.countdown, plan.countdown):
        with pytest.raises(DomainError, match="^countdown values must be nonnegative"):
            cd._replace(i=-1)
        with pytest.raises(DomainError, match="^countdown values must be nonnegative"):
            cd._replace(j=-1)
    for field in ("budget_p1", "budget_p2"):
        with pytest.raises(DomainError, match="^budgets must be nonnegative$"):
            state._replace(**{field: F(-1, 3)})
    with pytest.raises(DomainError, match="^scores must be nonnegative$"):
        state._replace(score_p2=-1)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
GAME = GameConfig(FP_SET01, 3)

# Each entry point that takes an amount, with the name its DomainError gives.
# A non-finite float used to escape as a bare ValueError (nan) or
# OverflowError (inf), and GameState held a nan budget outright.
AMOUNT_ENTRY_POINTS = {
    "settle_turn P1": ("P1 bid", lambda x: settle_turn(GAME, initial_state(GAME, 2), 1, x, 0)),
    "settle_turn P2": ("P2 bid", lambda x: settle_turn(GAME, initial_state(GAME, 2), 1, 0, x)),
    "initial_state": ("budget_p1", lambda x: initial_state(GAME, x)),
    "run_game": ("budget_p1", lambda x: run_game(GAME, x, StrategyPolicy(), AllInAdversary())),
    "run_game P2 bid": ("P2 bid", lambda x: run_game(GAME, 2, StrategyPolicy(), _ScriptedAdversary([(1, x)]))),
    "GameConfig": ("budget_p2", lambda x: GameConfig(FP_SET01, 3, budget_p2=x)),
    "GameState p1": ("budget", lambda x: GameState(x, 1, 0, 0, 0, CountdownPair(2, 2))),
    "GameState p2": ("budget", lambda x: GameState(1, x, 0, 0, 0, CountdownPair(2, 2))),
    "StrategyState.fresh": ("opponent_budget", lambda x: StrategyState.fresh(FP_SET01, 3, x)),
    "observe_outcome": ("my_bid", lambda x: observe_outcome(StrategyState.fresh(FP_SET01, 3, 1), 1, x, False)),
    "MatchPlusEpsilonAdversary": ("epsilon", lambda x: MatchPlusEpsilonAdversary(x)),
    "OmnipotentAdversary": ("grid_unit", lambda x: OmnipotentAdversary(x)),
    "min_winning_budget ceiling": ("ceiling", lambda x: min_winning_budget(FP_SET01, 3, 4, ceiling=x)),
    "GridEvaluator.win": ("P1 budget", lambda x: GridEvaluator(FP_SET01).win(3, 2, 2, x, 4)),
}


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("entry", list(AMOUNT_ENTRY_POINTS))
def test_amounts_that_are_not_finite_raise_domain_error(entry, bad):
    name, call = AMOUNT_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=f"^{name} must be finite, got {bad!r}$"):
        call(bad)


NOT_AMOUNTS = ["1/2", Decimal("0.5"), None, True]

# Each entry point that converts an amount through ``finite_fraction``. A
# string or Decimal used to parse and a bool to count as 1 (None raised a
# bare TypeError); GameState kept a Decimal or bool budget as given, and
# the search ceiling parsed a string ('8' searched up to 8).
CONVERTING_ENTRY_POINTS = {
    **AMOUNT_ENTRY_POINTS,
    "AuctionVariant": ("alpha", lambda x: AuctionVariant.all_pay(ValueModel.SET01, x)),
}
# OmnipotentAdversary takes grid_unit=None as "no grid", min_winning_budget ceiling=None as 4 * b2.
NONE_MEANS_DEFAULT = ("OmnipotentAdversary", "min_winning_budget ceiling")


@pytest.mark.parametrize(
    "entry, bad",
    [(e, x) for e in CONVERTING_ENTRY_POINTS for x in NOT_AMOUNTS if x is not None or e not in NONE_MEANS_DEFAULT],
    ids=repr,
)
def test_amounts_that_are_not_numbers_raise_domain_error(entry, bad):
    name, call = CONVERTING_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=f"^{re.escape(f'{name} must be an int, Fraction or float, got {bad!r}')}$"):
        call(bad)


@pytest.mark.parametrize("value", [True, False, 2, -1, 1.0, F(1, 3)], ids=repr)
def test_observe_outcome_refuses_the_turn_values_next_bid_refuses(value):
    # It used to drop P2's countdown for True or 1/3, as for a value of 1.
    s = StrategyState.fresh(FP_SET01, 3, 1)
    for fn in (lambda: next_bid(s, value), lambda: observe_outcome(s, value, F(1, 3), False)):
        with pytest.raises(DomainError, match=re.escape(f"turn value must be 0 or 1, got {value!r}")):
            fn()
