"""The turn path on integer pairs against its Fraction-operator reference.

``settle_turn``, ``next_bid``, ``observe_outcome`` and ``_policy_bid``
compare, pay and scale through ``numerator``/``denominator`` pairs. The
``ref_*`` functions below are the same rules written with ``Fraction``
operators, as the package had them before; they are kept here only as
the differential reference, as are ``ref_match_bid`` and
``ref_random_bid`` for the two adversaries that now build their bids
from pairs. ``run_game`` checks each turn once and settles it through
``core._settle``; its traces are replayed through ``settle_turn`` here.
"""

import random
from fractions import Fraction

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
    MatchPlusEpsilonAdversary,
    Player,
    RandomSeededAdversary,
    StrategyPolicy,
    StrategyState,
    ValueModel,
    countdown_for,
    initial_state,
    next_bid,
    obr,
    observe_outcome,
    optimal_bid_fraction,
    run_game,
    settle_turn,
    winner_if_decided,
)
from multibattle.core import CountdownPair, GameDecidedError, OverbidError
from multibattle.simulate import _policy_bid

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
