"""``GameTrace.to_json`` writes exactly the bytes ``json.dumps(to_json_dict())`` writes."""

import json
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
    RandomSeededAdversary,
    StrategyPolicy,
    ValueModel,
    obr,
    run_game,
)

F = Fraction

# The six variants of the trace digests, plus one more fractional alpha.
VARIANTS = [
    FP_SET01,
    FP_FIXED1,
    AP_SET01,
    AP_FIXED1,
    AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)),
    AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)),
    AuctionVariant.all_pay(ValueModel.SET01, F(2, 7)),
]
INDENTS = [None, 0, 1, 2, 4]


def assert_writes_json_dumps(trace, indents=INDENTS):
    for indent in indents:
        assert trace.to_json(indent) == json.dumps(trace.to_json_dict(), indent=indent), indent


@settings(deadline=None, max_examples=150)
@given(
    variant=st.sampled_from(VARIANTS),
    turns=st.integers(1, 21),
    adversary=st.sampled_from([RandomSeededAdversary, AllInAdversary, MatchPlusEpsilonAdversary, OmnipotentAdversary]),
    scale=st.fractions(F(1, 2), 2, max_denominator=20),
    seed=st.integers(0, 2**16),
    indent=st.sampled_from(INDENTS),
)
def test_to_json_writes_what_json_dumps_writes(variant, turns, adversary, scale, seed, indent):
    trace = run_game(GameConfig(variant, turns), obr(variant, turns, exact=True) * scale,
                     StrategyPolicy(), adversary(), seed=seed)
    assert trace.to_json(indent) == json.dumps(trace.to_json_dict(), indent=indent)


class _Overbidder:
    """A P1 policy that bids one more than it holds on its first turn."""

    def begin(self, config, budget_p1):
        pass

    def bid(self, state, value):
        return state.budget_p1 + 1

    def observe(self, value, my_bid, i_won):
        pass


class _LateOverbidder:
    """Plays value 1 and bids nothing, then more than it holds on the third turn."""

    def begin(self, config, budget_p1):
        pass

    def choose_value(self, state, rng):
        return 1

    def choose_bid(self, state, value, p1_bid, rng):
        return state.budget_p2 + 1 if state.turn_index == 2 else F(0)


class _BoolValues(RandomSeededAdversary):
    """Picks each turn's value as a bool, which compares equal to 0 or 1 but is not an int value."""

    def choose_value(self, state, rng):
        return bool(rng.randrange(2))


def test_a_p1_fault_at_turn_zero_writes_an_empty_turn_list():
    trace = run_game(GameConfig(FP_SET01, 5), F(2), _Overbidder(), AllInAdversary())
    assert (trace.turns, trace.winner, trace.reason) == ((), Player.P2, "fault")
    assert_writes_json_dumps(trace, INDENTS + ["\t"])
    assert '"turns": [],' in trace.to_json(2)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: f"{v.short_name}-{v.alpha}")
def test_a_p2_fault_writes_its_fault_object(variant):
    trace = run_game(GameConfig(variant, 7), 2 * obr(variant, 7, exact=True), StrategyPolicy(), _LateOverbidder())
    assert (trace.winner, trace.reason, trace.fault.player) == (Player.P1, "fault", Player.P2)
    assert_writes_json_dumps(trace, INDENTS + ["\t"])


def test_run_game_rejects_bool_turn_values():
    with pytest.raises(DomainError, match="^adversary value must be 0 or 1, got True$"):
        run_game(GameConfig(AP_SET01, 21), F(3), StrategyPolicy(), _BoolValues(), seed=5)


def test_an_amount_beyond_float_range_raises_overflow_error():
    trace = run_game(GameConfig(FP_SET01, 3), F(10) ** 400, StrategyPolicy(), AllInAdversary())
    for indent in INDENTS:
        with pytest.raises(OverflowError):
            trace.to_json_dict()
        with pytest.raises(OverflowError):
            trace.to_json(indent)
