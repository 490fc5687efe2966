"""Game rules: turn settlement, countdowns, win detection, traces."""

import copy
import dataclasses
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    UNWINNABLE,
    AuctionVariant,
    CountdownPair,
    DomainError,
    GameConfig,
    GameState,
    GameTrace,
    Player,
    Pricing,
    StrategyState,
    ValueModel,
    countdown_for,
    initial_state,
    settle_turn,
    winner_if_decided,
)
from multibattle.core import (
    GameDecidedError,
    OverbidError,
    TurnRecord,
    Unwinnable,
    ceil_div,
    check_count,
    check_value,
)

F = Fraction


def state(config, b1, b2, s1=0, s2=0, idx=0):
    return GameState(
        budget_p1=F(b1),
        budget_p2=F(b2),
        score_p1=s1,
        score_p2=s2,
        turn_index=idx,
        countdown=countdown_for(config.turns, idx, s1, s2),
    )


def test_settle_first_price_tie_goes_to_dealer():
    cfg = GameConfig(FP_SET01, turns=3)
    s = state(cfg, F(3, 2), 1)
    out = settle_turn(cfg, s, 1, F(1, 2), F(1, 2))
    assert out.score_p1 == 1 and out.score_p2 == 0
    assert out.budget_p1 == F(1) and out.budget_p2 == F(1)


def test_settle_all_pay_both_pay_full_bids():
    cfg = GameConfig(AP_SET01, turns=3)
    s = state(cfg, 2, 1)
    out = settle_turn(cfg, s, 1, F(2, 5), F(3, 5))
    assert out.score_p2 == 1 and out.score_p1 == 0
    assert out.budget_p1 == F(8, 5)
    assert out.budget_p2 == F(2, 5)


def test_settle_all_pay_half_alpha_value_zero():
    cfg = GameConfig(AuctionVariant.all_pay(ValueModel.SET01, F(1, 2)), turns=3)
    s = state(cfg, 1, 1)
    out = settle_turn(cfg, s, 0, F(1, 5), F(3, 10))
    # P2 takes the turn but it is worth nothing; loser forfeits half her bid.
    assert out.score_p1 == 0 and out.score_p2 == 0
    assert out.budget_p1 == F(9, 10)
    assert out.budget_p2 == F(7, 10)


def test_settle_rejects_overbids():
    cfg = GameConfig(FP_SET01, turns=2)
    s = state(cfg, 1, 1)
    with pytest.raises(OverbidError):
        settle_turn(cfg, s, 1, F(3, 2), 0)
    with pytest.raises(OverbidError):
        settle_turn(cfg, s, 1, 0, 2)
    with pytest.raises(OverbidError):
        settle_turn(cfg, s, 1, F(-1, 2), 0)


def test_settle_rejects_bad_values():
    cfg = GameConfig(FP_SET01, turns=2)
    s = state(cfg, 1, 1)
    with pytest.raises(DomainError):
        settle_turn(cfg, s, 2, 0, 0)
    fixed = GameConfig(FP_FIXED1, turns=2)
    with pytest.raises(DomainError):
        settle_turn(fixed, state(fixed, 1, 1), 0, 0, 0)


@pytest.mark.parametrize("value", [True, False, 1.0])
def test_settle_rejects_a_turn_value_that_is_not_an_int(value):
    cfg = GameConfig(FP_SET01, turns=3)
    with pytest.raises(DomainError, match=f"^turn value must be 0 or 1, got {re.escape(repr(value))}$"):
        settle_turn(cfg, state(cfg, 1, 1), value, 1, 0)


@pytest.mark.parametrize("variant, turns, message", [
    ("fp-set", 3, "^variant must be an AuctionVariant, got 'fp-set'$"),
    (FP_SET01, 3.5, "^turns must be an int, got 3.5$"),
    (FP_SET01, True, "^turns must be an int, got True$"),
    (FP_SET01, 0, "^turns must be >= 1, got 0$"),
])
def test_game_config_rejects_a_game_that_cannot_exist(variant, turns, message):
    # The first three used to construct and fail later inside run_game.
    with pytest.raises(DomainError, match=message):
        GameConfig(variant, turns)


@pytest.mark.parametrize("n, least, message", [
    (3.0, 1, "count must be an int, got 3.0"),
    (True, 0, "count must be an int, got True"),
    ("3", 1, "count must be an int, got '3'"),
    (0, 1, "count must be >= 1, got 0"),
    (-1, 0, "count must be >= 0, got -1"),
])
def test_check_count_names_the_count_and_the_rule_it_breaks(n, least, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        check_count(n, "count", least)
    check_count(least, "count", least)


@pytest.mark.parametrize("value", [2, -1, True, False, 1.0, None, "1"], ids=repr)
def test_check_value_refuses_all_but_the_ints_zero_and_one(value):
    for name in ("turn value", "pending value"):
        with pytest.raises(DomainError, match=f"^{re.escape(f'{name} must be 0 or 1, got {value!r}')}$"):
            check_value(value, name)
    for variant in (None, FP_SET01, AP_SET01, FP_FIXED1, AP_FIXED1):
        check_value(1, "turn value", variant)
        if variant is None or variant.is_triangular:
            check_value(0, "turn value", variant)
        else:
            with pytest.raises(DomainError, match="^fixed-value contests only auction value-1 objects$"):
                check_value(0, "turn value", variant)


def test_settle_after_last_turn_is_an_error():
    cfg = GameConfig(FP_SET01, turns=1)
    done = state(cfg, 1, 1, s1=1, idx=1)
    with pytest.raises(GameDecidedError):
        settle_turn(cfg, done, 1, 0, 0)


def test_winner_from_countdowns():
    cfg = GameConfig(FP_SET01, turns=5)
    won = GameState(F(1), F(1), 3, 0, 3, CountdownPair(0, 2))
    assert winner_if_decided(cfg, won) is Player.P1
    lost = GameState(F(1), F(1), 0, 3, 3, CountdownPair(2, 0))
    assert winner_if_decided(cfg, lost) is Player.P2
    open_game = GameState(F(1), F(1), 2, 2, 4, CountdownPair(1, 1))
    assert winner_if_decided(cfg, open_game) is None


def test_exhausted_score_tie_goes_to_dealer():
    cfg = GameConfig(FP_SET01, turns=2)
    s = state(cfg, 1, 1, s1=1, s2=1, idx=2)
    # The tie is already encoded in the countdown: nobody can score again,
    # so the dealer's need is rounded down to zero first.
    assert s.countdown == CountdownPair(0, 0)
    assert winner_if_decided(cfg, s) is Player.P1


def test_fresh_countdown_is_half_the_turns_rounded_up():
    assert CountdownPair.fresh(1) == CountdownPair(1, 1)
    assert CountdownPair.fresh(3) == CountdownPair(2, 2)
    assert CountdownPair.fresh(1000) == CountdownPair(500, 500)


def test_countdown_pair_rejects_negative_values():
    with pytest.raises(DomainError):
        CountdownPair(-1, 0)


def test_config_validation():
    with pytest.raises(DomainError):
        GameConfig(FP_SET01, turns=0)
    with pytest.raises(DomainError):
        GameConfig(FP_SET01, turns=3, budget_p2=0)


def test_variant_validation():
    with pytest.raises(DomainError):
        AuctionVariant(Pricing.FIRST_PRICE, ValueModel.SET01, F(1, 2))
    with pytest.raises(DomainError):
        AuctionVariant.all_pay(ValueModel.SET01, 2)
    assert AP_SET01.alpha == 1
    assert FP_SET01.short_name == "fp-set"
    assert AP_FIXED1.short_name == "ap-fixed"
    assert FP_SET01.is_triangular and AP_SET01.is_triangular
    assert not FP_FIXED1.is_triangular


@pytest.mark.parametrize("pricing, values, message", [
    # Taken as fixed-value before: obr(v, 5, exact=True) gave 5/3, where ap-set gives 5/2.
    (Pricing.ALL_PAY, "set01", "got <Pricing.ALL_PAY: 'all-pay'> and 'set01'"),
    # Named itself ap-set before, and GameTrace.to_json then raised AttributeError.
    ("first-price", ValueModel.SET01, "got 'first-price' and <ValueModel.SET01: 'set01'>"),
    (Pricing.FIRST_PRICE, None, "got <Pricing.FIRST_PRICE: 'first-price'> and None"),
])
def test_variant_rejects_a_pricing_or_value_model_of_another_type(pricing, values, message):
    with pytest.raises(DomainError, match=re.escape("need a Pricing and a ValueModel, " + message)):
        AuctionVariant(pricing, values)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")], ids=repr)
def test_variant_rejects_an_alpha_that_is_not_finite(alpha):
    # nan used to escape as "cannot convert NaN to integer ratio", a bare ValueError.
    for make in (lambda: AuctionVariant.all_pay(ValueModel.SET01, alpha),
                 lambda: AuctionVariant(Pricing.ALL_PAY, ValueModel.FIXED1, alpha)):
        with pytest.raises(DomainError, match=f"^alpha must be finite, got {alpha!r}$"):
            make()


_DERIVED_VARIANTS = [
    FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1,
    AuctionVariant.all_pay(ValueModel.SET01, 0),
    AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)),
    AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)),
    AuctionVariant.all_pay(ValueModel.SET01, F(7, 9)),
]


@pytest.mark.parametrize("variant", _DERIVED_VARIANTS, ids=lambda v: f"{v.short_name}:{v.alpha}")
def test_derived_attributes_follow_the_fields_through_every_copy(variant):
    other = ValueModel.FIXED1 if variant.values is ValueModel.SET01 else ValueModel.SET01
    copies = [
        variant,
        dataclasses.replace(variant),
        dataclasses.replace(variant, values=other),
        copy.deepcopy(variant),
        pickle.loads(pickle.dumps(variant)),
    ]
    for v in copies:
        assert v.is_triangular is (v.values is ValueModel.SET01)
        assert v.has_closed_form is (v.alpha.denominator == 1)
        assert v.alpha_pair == (v.alpha.numerator, v.alpha.denominator)
        assert all(type(x) is int for x in v.alpha_pair)
        # The derived attributes are no fields: everything dataclass-made sees the fields alone.
        same = AuctionVariant(v.pricing, v.values, v.alpha)
        assert v == same and hash(v) == hash(same) == hash((v.pricing, v.values, v.alpha))
        assert repr(v) == f"AuctionVariant(pricing={v.pricing!r}, values={v.values!r}, alpha={v.alpha!r})"
        assert [f.name for f in dataclasses.fields(v)] == ["pricing", "values", "alpha"]
        assert dataclasses.asdict(v) == {"pricing": v.pricing, "values": v.values, "alpha": v.alpha}
    assert copies[1] == variant and copies[3] == variant and copies[4] == variant
    assert copies[2] != variant and copies[2].is_triangular is not variant.is_triangular


def test_unwinnable_orders_above_everything():
    assert UNWINNABLE > 10**12
    assert UNWINNABLE > F(10**9)
    assert not UNWINNABLE < F(1, 2)
    assert UNWINNABLE >= UNWINNABLE
    assert not UNWINNABLE > UNWINNABLE
    assert Unwinnable() is UNWINNABLE


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4
    assert ceil_div(1, 3) == 1


@given(
    turns=st.integers(1, 9),
    plays=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 4)), max_size=9),
)
def test_random_walk_keeps_state_consistent(turns, plays):
    """Drive settle_turn with arbitrary legal bids and check the bookkeeping.

    Budgets never go negative, scores never exceed the turn count, and
    the stored countdown always equals a recomputation from scratch.
    """
    cfg = GameConfig(FP_SET01, turns=turns, budget_p2=4)
    s = initial_state(cfg, 4)
    for value, p_part, q_part in plays:
        if s.turn_index >= turns:
            break
        bid_p1 = s.budget_p1 * p_part / 4
        bid_p2 = s.budget_p2 * q_part / 4
        s = settle_turn(cfg, s, value, bid_p1, bid_p2)
        assert s.budget_p1 >= 0 and s.budget_p2 >= 0
        assert s.score_p1 + s.score_p2 <= s.turn_index <= turns
        assert s.countdown == countdown_for(turns, s.turn_index, s.score_p1, s.score_p2)


@given(
    turns=st.integers(1, 9),
    bids=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=9),
    alpha_num=st.integers(0, 4),
)
def test_all_pay_budget_deductions_follow_the_rule(turns, bids, alpha_num):
    alpha = F(alpha_num, 4)
    variant = AuctionVariant.all_pay(ValueModel.FIXED1, alpha)
    cfg = GameConfig(variant, turns=turns, budget_p2=8)
    s = initial_state(cfg, 8)
    for p_part, q_part in bids:
        if s.turn_index >= turns:
            break
        p = s.budget_p1 * p_part / 8
        q = s.budget_p2 * q_part / 8
        nxt = settle_turn(cfg, s, 1, p, q)
        if p >= q:
            assert s.budget_p1 - nxt.budget_p1 == p
            assert s.budget_p2 - nxt.budget_p2 == alpha * q
        else:
            assert s.budget_p1 - nxt.budget_p1 == alpha * p
            assert s.budget_p2 - nxt.budget_p2 == q
        s = nxt


def test_trace_json_shape():
    cfg = GameConfig(FP_SET01, turns=2)
    rec = TurnRecord(
        index=0,
        value=1,
        bid_p1=F(1, 2),
        bid_p2=F(1, 4),
        winner=Player.P1,
        budget_p1=F(1, 2),
        budget_p2=F(1),
        score_p1=1,
        score_p2=0,
    )
    trace = GameTrace(cfg, F(1), (rec,), Player.P1, "countdown")
    doc = trace.to_json_dict()
    assert set(doc) == {"config", "turns", "winner", "reason"}
    assert doc["config"] == {
        "pricing": "first-price",
        "alpha": 0.0,
        "values": "set01",
        "turns": 2,
        "b1": 1.0,
        "b2": 1.0,
    }
    assert doc["turns"] == [
        {
            "index": 0,
            "value": 1,
            "bid_p1": 0.5,
            "bid_p2": 0.25,
            "winner": "P1",
            "budget_p1": 0.5,
            "budget_p2": 1.0,
            "score_p1": 1,
            "score_p2": 0,
        }
    ]
    assert doc["winner"] == "P1"
    assert doc["reason"] == "countdown"


def _records():
    """One of each turn-loop record, with the repr the package has always printed."""
    cd = CountdownPair(1, 2)
    return [
        (cd, "CountdownPair(i=1, j=2)"),
        (
            GameState(F(1, 2), F(1), 1, 0, 1, cd),
            "GameState(budget_p1=Fraction(1, 2), budget_p2=Fraction(1, 1), score_p1=1, "
            "score_p2=0, turn_index=1, countdown=CountdownPair(i=1, j=2))",
        ),
        (
            TurnRecord(0, 1, F(1, 2), F(1, 4), Player.P1, F(1, 2), F(1), 1, 0),
            "TurnRecord(index=0, value=1, bid_p1=Fraction(1, 2), bid_p2=Fraction(1, 4), "
            "winner=<Player.P1: 'P1'>, budget_p1=Fraction(1, 2), budget_p2=Fraction(1, 1), "
            "score_p1=1, score_p2=0)",
        ),
        (
            StrategyState(FP_SET01, F(1), cd),
            "StrategyState(variant=AuctionVariant(pricing=<Pricing.FIRST_PRICE: 'first-price'>, "
            "values=<ValueModel.SET01: 'set01'>, alpha=Fraction(0, 1)), "
            "tracked_opponent_budget=Fraction(1, 1), countdown=CountdownPair(i=1, j=2))",
        ),
    ]


@pytest.mark.parametrize("index", range(4), ids=["countdown", "state", "turn", "strategy"])
def test_records_are_immutable_hashable_and_print_as_before(index):
    record, text = _records()[index]
    assert repr(record) == text
    twin, _ = _records()[index]
    assert twin is not record and twin == record and hash(twin) == hash(record)
    # A frozen dataclass raised FrozenInstanceError, an AttributeError.
    for name in ("i", "budget_p1", "index", "countdown", "extra"):
        if name == "extra" or hasattr(record, name):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_records_reject_negative_values_with_the_same_messages():
    cd = CountdownPair(1, 1)
    message = r"^countdown values must be nonnegative: CountdownPair\(i=-1, j=0\)$"
    with pytest.raises(DomainError, match=message):
        CountdownPair(-1, 0)
    with pytest.raises(DomainError, match="^budgets must be nonnegative$"):
        GameState(F(1), F(-1, 2), 0, 0, 0, cd)
    with pytest.raises(DomainError, match="^budgets must be nonnegative$"):
        GameState(-1, 1, 0, 0, 0, cd)
    with pytest.raises(DomainError, match="^scores must be nonnegative$"):
        GameState(F(1), F(1), 0, -1, 0, cd)


def test_replacing_a_field_keeps_the_checks():
    cd = CountdownPair(1, 1)
    assert cd._replace(j=0) == CountdownPair(1, 0)
    with pytest.raises(DomainError):
        cd._replace(i=-1)
    state = GameState(F(1), F(1), 0, 0, 0, cd)
    assert state._replace(score_p1=1).score_p1 == 1
    with pytest.raises(DomainError):
        state._replace(budget_p2=F(-1))
