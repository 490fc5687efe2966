"""Grid oracle: exact win/loss evaluation and minimum-budget search.

The expected values here were frozen from the naive reference solver at
the bottom of this file: it plays out all T turns with no early
termination, no countdown bookkeeping, and no dominance reasoning, and
decides the winner from final scores only. The fast oracle must agree
with it everywhere the reference can reach.
"""

import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibattle import oracle as oracle_module
from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    AuctionVariant,
    DomainError,
    GameConfig,
    GameState,
    GridEvaluator,
    OracleInstance,
    ResourceError,
    ValueModel,
    evaluate,
    initial_state,
    min_winning_budget,
    obr,
    settle_turn,
)
from multibattle.core import countdown_for
from multibattle.oracle import ThresholdTable

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"
AP_SET_HALF = AuctionVariant.all_pay(ValueModel.SET01, F(1, 2))
AP_FIXED_HALF = AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2))
AP_SET_THIRD = AuctionVariant.all_pay(ValueModel.SET01, F(1, 3))
ALL_VARIANTS = [FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1, AP_SET_THIRD, AP_FIXED_HALF]
# The node search and the threshold table answer the same win queries.
EVALUATORS = [GridEvaluator, ThresholdTable]
each_evaluator = pytest.mark.parametrize("evaluator", EVALUATORS, ids=lambda cls: cls.__name__)


def _work(ev):
    """Nodes a node search expanded, or cells a threshold table stored."""
    return ev.cells if isinstance(ev, ThresholdTable) else ev.nodes_expanded


def variant_id(v):
    return v.short_name if v.alpha in (0, 1) else f"{v.short_name}@{v.alpha}"


def naive_solve(variant, turns, b1, b2):
    """Reference min-max over integer bids; see the module docstring."""
    alpha = variant.alpha
    all_pay = variant.pricing.value == "all-pay"
    set01 = variant.values.value == "set01"
    memo = {}

    def play(t, s1, s2, a, b):
        if t == turns:
            return s1 >= s2
        key = (t, s1, s2, a, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if set01:
            res = turn(t, s1, s2, a, b, 1) and turn(t, s1, s2, a, b, 0)
        else:
            res = turn(t, s1, s2, a, b, 1)
        memo[key] = res
        return res

    def turn(t, s1, s2, a, b, v):
        for p in range(int(a) + 1):
            ok = True
            for q in range(int(b) + 1):
                if q > p:
                    w1, w2 = s1, s2 + v
                    na, nb = (a - alpha * p, b - q) if all_pay else (a, b - q)
                else:
                    w1, w2 = s1 + v, s2
                    na, nb = (a - p, b - alpha * q) if all_pay else (a - p, b)
                if not play(t + 1, w1, w2, na, nb):
                    ok = False
                    break
            if ok:
                return True
        return False

    return play(0, 0, 0, F(b1), F(b2))


# (variant, turns, b2) -> smallest winning integer b1, from the reference.
FROZEN_MIN_BUDGETS = [
    (FP_SET01, 3, 4, 6),
    (FP_SET01, 1, 1, 1),
    (FP_FIXED1, 3, 4, 4),
    (FP_SET01, 5, 4, 7),
    (FP_SET01, 3, 1, 1),
    (FP_SET01, 5, 8, 14),
    (AP_SET01, 3, 4, 7),
    (AP_FIXED1, 3, 4, 5),
    (AP_SET_HALF, 3, 4, 6),
    (AP_FIXED_HALF, 3, 4, 4),
    (FP_FIXED1, 5, 4, 3),
]


@pytest.mark.parametrize(
    "variant,turns,b2,expected",
    FROZEN_MIN_BUDGETS,
    ids=lambda v: v.short_name if isinstance(v, AuctionVariant) else str(v),
)
def test_min_winning_budget_matches_reference(variant, turns, b2, expected):
    res = min_winning_budget(variant, turns, b2)
    assert res.b_star == expected
    assert res.budget == expected
    assert res.ratio == F(expected, b2)
    assert res.nodes_expanded > 0


@pytest.mark.parametrize(
    "variant,turns,b2,expected",
    [case for case in FROZEN_MIN_BUDGETS if case[1] <= 3 and case[2] <= 4],
    ids=lambda v: v.short_name if isinstance(v, AuctionVariant) else str(v),
)
def test_reference_still_agrees_on_small_cases(variant, turns, b2, expected):
    """Recompute the frozen values instead of trusting this file's history."""
    for b1 in range(expected + 1):
        assert naive_solve(variant, turns, b1, b2) == (b1 == expected) or b1 > expected


def test_ratios_approach_the_continuous_answer():
    # One grid unit of slack per the discretization argument.
    for variant, turns, b2, expected in FROZEN_MIN_BUDGETS:
        target = obr(variant, turns, exact=True)
        assert abs(F(expected, b2) - target) <= F(2, b2)


def test_spot_evaluations():
    assert evaluate(OracleInstance(FP_SET01, 1, F(1), F(1))).can_win
    assert not evaluate(OracleInstance(FP_SET01, 3, F(5), F(4))).can_win
    assert evaluate(OracleInstance(FP_SET01, 3, F(6), F(4))).can_win


def test_evaluation_agrees_with_reference_everywhere_small():
    """Sweep every small instance where the two scoring models coincide.

    Value-set games agree at every length (the adversary can always cash
    a countdown of zero by zeroing the rest). Fixed-value games agree at
    odd lengths only; even ones are scored by the countdown convention,
    covered by the test below instead.
    """
    sweeps = [
        (FP_SET01, (1, 2, 3)),
        (AP_SET01, (1, 2, 3)),
        (AP_SET_HALF, (1, 2, 3)),
        (FP_FIXED1, (1, 3)),
        (AP_FIXED_HALF, (1, 3)),
    ]
    for variant, lengths in sweeps:
        for turns, b1, b2 in itertools.product(lengths, range(5), range(1, 4)):
            inst = OracleInstance(variant, turns, F(b1), F(b2))
            assert evaluate(inst).can_win == naive_solve(variant, turns, b1, b2), (
                variant.short_name,
                turns,
                b1,
                b2,
            )


def test_even_length_fixed_games_use_the_countdown_convention():
    # Two fixed-value turns, no P1 budget: raw score-counting would let
    # P1 tie 1-1 on free turns, but the adversary clinches at one point.
    assert not evaluate(OracleInstance(FP_FIXED1, 2, F(0), F(1))).can_win
    assert naive_solve(FP_FIXED1, 2, 0, 1)  # the raw-score model disagrees
    # With the budget to deny her every turn, P1 still wins outright.
    assert evaluate(OracleInstance(FP_FIXED1, 2, F(1), F(1))).can_win


def test_winnability_is_monotone_in_budget():
    for variant in (FP_SET01, AP_FIXED1):
        prior = False
        for b1 in range(13):
            now = evaluate(OracleInstance(variant, 3, F(b1), F(3))).can_win
            assert now or not prior
            prior = now


def test_evaluate_from_mid_game_state():
    cfg = GameConfig(FP_SET01, turns=3, budget_p2=4)
    inst = OracleInstance(FP_SET01, 3, F(6), F(4))
    # P1 ties the opening all-in and takes the turn as dealer; the
    # adversary is broke and the rest of the game is free.
    s = initial_state(cfg, F(6))
    s = settle_turn(cfg, s, 1, F(4), F(4))
    assert countdown_for(3, s.turn_index, s.score_p1, s.score_p2) == (1, 2)
    assert evaluate(inst, state=s).can_win
    # Losing any value-1 turn of a three-turn game is fatal no matter how
    # much budget remains: the adversary zeroes the last two turns.
    t = initial_state(cfg, F(6))
    t = settle_turn(cfg, t, 1, F(0), F(1))
    assert countdown_for(3, t.turn_index, t.score_p1, t.score_p2) == (2, 1)
    assert not evaluate(inst, state=t).can_win


def test_evaluate_from_a_fresh_state_is_evaluate_from_the_start():
    # A stored countdown of (9, 9) made this search a game three turns cannot have.
    inst = OracleInstance(FP_SET01, 3, 5, 4)
    res = evaluate(inst, GameState(5, 4, 0, 0, 0))
    assert res == evaluate(inst)
    assert (res.can_win, res.nodes_expanded) == (False, 25)


def test_evaluate_takes_p1_budgets_on_the_alpha_grid():
    """A lost all-pay turn at alpha = 1/3 leaves P1's budget on the 1/3 grid."""
    cfg = GameConfig(AP_SET_THIRD, turns=5, budget_p2=4)
    inst = OracleInstance(AP_SET_THIRD, 5, F(8), F(4))
    s = settle_turn(cfg, initial_state(cfg, F(8)), 1, F(1), F(2))
    assert (s.budget_p1, s.budget_p2) == (F(23, 3), F(2))
    assert countdown_for(5, s.turn_index, s.score_p1, s.score_p2) == (3, 2)
    res = evaluate(inst, state=s)
    assert (res.can_win, res.nodes_expanded) == (False, 51)
    assert not GridEvaluator(AP_SET_THIRD).win(4, 3, 2, F(23, 3), 2)
    with pytest.raises(DomainError, match="23/4"):
        evaluate(inst, state=s._replace(budget_p1=F(23, 4)))


def test_evaluate_with_pending_value():
    inst = OracleInstance(FP_SET01, 3, F(6), F(4))
    assert evaluate(inst, pending_value=1).can_win
    assert evaluate(inst, pending_value=0).can_win
    losing = OracleInstance(FP_SET01, 3, F(5), F(4))
    assert not (
        evaluate(losing, pending_value=1).can_win and evaluate(losing, pending_value=0).can_win
    )
    with pytest.raises(DomainError):
        evaluate(OracleInstance(FP_FIXED1, 3, F(4), F(4)), pending_value=0)
    with pytest.raises(DomainError):
        evaluate(inst, pending_value=2)


@pytest.mark.parametrize("value", [True, False, 1.0])
def test_evaluate_rejects_a_pending_value_that_is_not_an_int(value):
    with pytest.raises(DomainError, match="^pending value must be 0 or 1, got "):
        evaluate(OracleInstance(FP_SET01, 3, F(6), F(4)), pending_value=value)


@pytest.mark.parametrize("variant", [FP_SET01, FP_FIXED1, AP_SET_HALF], ids=lambda v: f"{v.short_name}-{v.alpha}")
@pytest.mark.parametrize("value", [0, 1])
@each_evaluator
def test_win_refuses_a_value_with_no_turn_left(evaluator, variant, value):
    # win(0, 1, 1, 0, 0, value) used to answer True, scoring a turn that does not exist by the tie rule.
    ev = evaluator(variant)
    with pytest.raises(DomainError, match="^no turn left to evaluate a pending value for$"):
        ev.win(0, 1, 1, 0, 0, value)
    assert _work(ev) == 0
    assert ev.win(0, 1, 1, 0, 0) is True  # without a value, the tie rule settles the position
    cfg = GameConfig(variant, 1)
    last = settle_turn(cfg, initial_state(cfg, F(6)), 1, F(0), F(0))
    with pytest.raises(DomainError, match="^no turn left to evaluate a pending value for$"):
        evaluate(OracleInstance(variant, 1, 6, 4), last, pending_value=1)


@pytest.mark.parametrize("value", [2, -1, True, False, 1.0])
@each_evaluator
def test_win_rejects_a_value_outside_none_zero_and_one(evaluator, value):
    ev = evaluator(FP_FIXED1)
    with pytest.raises(DomainError, match="^turn value must be 0 or 1, got "):
        ev.win(3, 2, 2, 3, 4, value)
    with pytest.raises(DomainError, match="^turn value must be 0 or 1, got "):
        ev.win(3, 0, 2, 3, 4, value)  # even where the countdown has decided the game


@pytest.mark.parametrize("variant", [FP_FIXED1, AP_FIXED_HALF], ids=variant_id)
@each_evaluator
def test_win_refuses_value_0_on_a_fixed_value_variant(evaluator, variant):
    # win(3, 2, 2, 5, 4, 0) on fp-fixed used to answer True, while settle_turn and evaluate refused the same turn.
    ev = evaluator(variant)
    for i, j in ((2, 2), (0, 2), (2, 0)):  # decided positions too
        with pytest.raises(DomainError, match="^fixed-value contests only auction value-1 objects$"):
            ev.win(3, i, j, 5, 4, 0)
    assert _work(ev) == 0
    assert ev.win(3, 2, 2, 5, 4, 1) is ev.win(3, 2, 2, 5, 4)


@pytest.mark.parametrize("a, b", [(6, -4), (-6, 4), (F(-1, 2), 4), (6, True), (6, 4.0), (6, F(4))])
@each_evaluator
def test_win_rejects_a_negative_budget_or_a_p2_budget_that_is_not_an_int(evaluator, a, b):
    # (6, -4) used to answer True and (-6, 4) False.
    ev = evaluator(AP_SET_HALF)
    message = "^(P[12] budget must be >= 0, got -.*|P2 budget must be an int, got .*)$"
    with pytest.raises(DomainError, match=message):
        ev.win(3, 2, 2, a, b)
    assert _work(ev) == 0


@pytest.mark.parametrize(
    "remaining, i, j, a, message",
    [(-1, 2, 2, 6, "turns left must be >= 0"), (3.5, 2, 2, 6, "turns left must be an int"),
     (True, 2, 2, 6, "turns left must be an int"), (3, 2.0, 2, 6, "countdowns must be ints"),
     (3, True, 2, 6, "countdowns must be ints"), (3, 2, 2.0, 6, "countdowns must be ints"),
     (3, 2, False, 6, "countdowns must be ints"), (3, 2, 2, True, "P1 budget must be an int, Fraction or float"),
     (3, 2, 2, False, "P1 budget must be an int, Fraction or float")],
)
@each_evaluator
def test_win_rejects_turns_left_or_countdowns_that_are_no_ints_and_a_bool_budget(evaluator, remaining, i, j, a,
                                                                                  message):
    # (-1, 2, 2, 6) and (3.5, 2, 2, 6) used to answer True, and a = True read as a budget of 1.
    ev = evaluator(FP_SET01)
    with pytest.raises(DomainError, match=f"^{message}, got "):
        ev.win(remaining, i, j, a, 4)
    assert _work(ev) == 0


@pytest.mark.parametrize("a", ["6", "5", None, Decimal(6)])
@each_evaluator
def test_win_rejects_a_p1_budget_that_is_not_a_number(evaluator, a):
    # '6' used to parse as a budget and answer True, and '5' False.
    ev = evaluator(FP_SET01)
    with pytest.raises(DomainError, match="^P1 budget must be an int, Fraction or float, got "):
        ev.win(3, 2, 2, a, 4)
    assert _work(ev) == 0
    assert ev.win(3, 2, 2, 6.0, 4) and ev.win(3, 2, 2, F(6), 4) and not ev.win(3, 2, 2, 5.0, 4)


@pytest.mark.parametrize("bad", ["6", True, None, Decimal(6)])
@pytest.mark.parametrize("field", ["b1", "b2", "grid_unit"])
def test_oracle_instance_rejects_amounts_that_are_not_numbers(field, bad):
    # b1='6' used to construct with b1 = 6, and b1=True with b1 = 1.
    amounts = {"b1": 6, "b2": 4, "grid_unit": 1, field: bad}
    with pytest.raises(DomainError, match=f"^{field} must be an int, Fraction or float, got "):
        OracleInstance(FP_SET01, 3, **amounts)
    inst = OracleInstance(FP_SET01, 3, 6.0, F(4), 0.5)
    assert (inst.b1, inst.b2, inst.grid_unit) == (6, 4, F(1, 2))
    assert all(type(x) is F for x in (inst.b1, inst.b2, inst.grid_unit))


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("a", NON_FINITE, ids=repr)
@each_evaluator
def test_win_rejects_a_p1_budget_that_is_not_finite(evaluator, a):
    # nan used to escape as a bare ValueError, and inf as an OverflowError.
    ev = evaluator(FP_SET01)
    with pytest.raises(DomainError, match=f"^P1 budget must be finite, got {a!r}$"):
        ev.win(3, 2, 2, a, 4)
    assert _work(ev) == 0


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["b1", "b2", "grid_unit"])
def test_oracle_instance_rejects_amounts_that_are_not_finite(field, bad):
    amounts = {"b1": 6, "b2": 4, "grid_unit": 1, field: bad}
    with pytest.raises(DomainError, match=f"^{field} must be finite, got {bad!r}$"):
        OracleInstance(FP_SET01, 3, **amounts)


def test_instance_validation():
    with pytest.raises(DomainError):
        OracleInstance(FP_SET01, 0, F(1), F(1))
    with pytest.raises(DomainError):
        OracleInstance(FP_SET01, 3, F(3, 2), F(1))
    with pytest.raises(DomainError):
        OracleInstance(FP_SET01, 3, F(3), F(1), grid_unit=F(-1, 2))
    # Fractional budgets are fine when the grid divides them.
    OracleInstance(FP_SET01, 3, F(3, 2), F(1), grid_unit=F(1, 2))


def test_fractional_grid_unit_scales_the_search():
    res = min_winning_budget(FP_SET01, 3, 1, grid_unit=F(1, 4))
    assert res.b_star == 6
    assert res.budget == F(3, 2)
    assert res.ratio == F(3, 2)


def test_linear_and_bisect_methods_agree():
    # Both methods run the one scan: the whole result, node count included, is the same.
    for variant, turns, b2 in itertools.product(ALL_VARIANTS, (3, 5, 7), (4, 6)):
        linear = min_winning_budget(variant, turns, b2, method="linear")
        bisect = min_winning_budget(variant, turns, b2, method="bisect")
        assert bisect == linear, (variant_id(variant), turns, b2)
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 3, 4, method="newton")


def test_search_ceiling_raises_resource_error(monkeypatch):
    # b* = 6 at b2 = 4 lies past a scan capped at 1 * b2; at 0 * b2 only the budget 0 is tried.
    for ratio, cap in ((1, 4), (0, 0)):
        monkeypatch.setattr(oracle_module, "MAX_RATIO", ratio)
        message = f"^no winning budget up to {cap} grid units \\({cap} at unit 1\\)$"
        with pytest.raises(ResourceError, match=message):
            min_winning_budget(FP_SET01, 3, 4)
        with pytest.raises(ResourceError, match=message):
            min_winning_budget(FP_SET01, 3, 4, method="bisect")


def test_search_input_validation():
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 0, 4)
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 3, 0)
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 3, F(3, 2), grid_unit=1)
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 3, 4, grid_unit=0)
    with pytest.raises(DomainError, match="^b2 must be > 0, got -2$"):
        min_winning_budget(FP_SET01, 3, -2)


@pytest.mark.parametrize("turns", [3.5, 3.0, True])
def test_search_rejects_turns_that_are_not_an_int(turns):
    # 3.5 turns used to get b_star = 6, as if the game existed.
    with pytest.raises(DomainError, match="^turns must be an int, got "):
        min_winning_budget(FP_SET01, turns, 4)


@pytest.mark.parametrize("turns", [3.5, 3.0, True])
def test_oracle_instance_rejects_turns_that_are_not_an_int(turns):
    # 3.5 turns used to evaluate to can_win=True after 55 nodes.
    with pytest.raises(DomainError, match="^turns must be an int, got "):
        evaluate(OracleInstance(FP_SET01, turns, 6, 4))
    with pytest.raises(DomainError, match="^turns must be >= 1, got 0$"):
        OracleInstance(FP_SET01, 0, 6, 4)


def test_evaluator_memo_persists_across_queries():
    ev = GridEvaluator(FP_SET01)
    assert ev.win(3, 2, 2, 6, 4)
    first = ev.nodes_expanded
    assert ev.win(3, 2, 2, 6, 4)
    assert ev.nodes_expanded == first


def test_bisect_tries_the_ceiling_past_the_last_power_of_two(monkeypatch):
    # b* = 6 lies between 4 and the cap 2 * 4 = 8, and b* = 3 at one turn is the cap 1 * 3: the scan reaches both.
    monkeypatch.setattr(oracle_module, "MAX_RATIO", 2)
    assert min_winning_budget(FP_SET01, 3, 4).b_star == 6
    assert min_winning_budget(FP_SET01, 3, 4, method="bisect").b_star == 6
    monkeypatch.setattr(oracle_module, "MAX_RATIO", 1)
    assert min_winning_budget(FP_SET01, 1, 3, method="bisect").b_star == 3


def test_bisect_finds_b_star_between_64_and_the_default_ceiling():
    # Default ceiling 4 * 24 = 96; the scan reaches b* = 67 below it.
    assert min_winning_budget(AP_SET01, 9, 24, method="bisect").b_star == 67


class FractionGridEvaluator:
    """The evaluator as it was before budgets were scaled to integers.

    P1's budget stays in grid units, so under all-pay every budget and
    memo key is a Fraction. Kept here only as the differential reference.
    """

    def __init__(self, variant):
        self.variant = variant
        self._alpha = variant.alpha
        self._all_pay = variant.pricing.value == "all-pay"
        self._set01 = variant.values is ValueModel.SET01
        self._memo = {}
        self.nodes_expanded = 0

    def win(self, remaining, i, j, a, b, value=None):
        if value is not None:
            return self.win_given_value(remaining, i, j, a, b, value)
        if i <= 0:
            return True
        if j <= 0:
            return False
        if remaining <= 0:
            return i <= j
        key = (remaining, i, j, a, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self.nodes_expanded += 1
        res = self._value_one_turn(remaining, i, j, a, b)
        if self._set01:
            if res:
                res = self._zero_value_turn(remaining, i, j, a, b)
        self._memo[key] = res
        return res

    def _zero_value_turn(self, remaining, i, j, a, b):
        if i + j == remaining + 1:
            return self.win(remaining - 1, i - 1, j - 1, a, b)
        return self.win(remaining - 1, i, j, a, b)

    def _value_one_turn(self, remaining, i, j, a, b):
        for p in range(int(a) + 1):
            if not self.win(remaining - 1, i - 1, j, a - p, b):
                continue
            q = p + 1
            if q <= b:
                loss = a - self._alpha * p if self._all_pay else a
                if not self.win(remaining - 1, i, j - 1, loss, b - q):
                    continue
            return True
        return False

    def win_given_value(self, remaining, i, j, a, b, value):
        if i <= 0:
            return True
        if j <= 0:
            return False
        if value == 0:
            return self._zero_value_turn(remaining, i, j, a, b)
        return self._value_one_turn(remaining, i, j, a, b)


@pytest.fixture
def with_reference(monkeypatch):
    """Run a call through the module's search code on the reference evaluator."""

    def call(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(oracle_module, "GridEvaluator", FractionGridEvaluator)
            return fn(*args, **kwargs)

    return call


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return type(exc)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_searches_match_the_fraction_reference(variant, with_reference):
    for turns, b2 in itertools.product(range(1, 8), (1, 2, 3, 5, 8, 12)):
        if turns >= 6 and b2 > 8:
            continue  # the reference needs seconds here; T=7 b2=8 covers the depth
        new = min_winning_budget(variant, turns, b2)
        old = with_reference(min_winning_budget, variant, turns, b2)
        assert (new.b_star, new.nodes_expanded) == (old.b_star, old.nodes_expanded), (
            variant_id(variant), turns, b2)
        b_star = new.b_star
        for b1 in {max(b_star - 1, 0), b_star}:
            for pending in (None, 0, 1):
                inst = OracleInstance(variant, turns, b1, b2)
                new = _outcome(evaluate, inst, pending_value=pending)
                old = _outcome(with_reference, evaluate, inst, pending_value=pending)
                assert new == old, (variant_id(variant), turns, b2, b1, pending)
                if pending is None:
                    assert new.can_win == (b1 >= b_star)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_mid_game_evaluation_matches_the_fraction_reference(variant, with_reference):
    """Random integer-bid openings, then exact evaluation of where they lead."""
    rng = random.Random(f"mid-game {variant_id(variant)}")
    cfg = GameConfig(variant, turns=7, budget_p2=6)
    for _ in range(40):
        b1 = rng.randint(6, 16)
        inst = OracleInstance(variant, 7, b1, 6)
        state = initial_state(cfg, b1)
        for _ in range(rng.randint(1, 3)):
            i, j = countdown_for(7, state.turn_index, state.score_p1, state.score_p2)
            if i <= 0 or j <= 0:
                break
            value = 1 if variant.values is ValueModel.FIXED1 else rng.randint(0, 1)
            bid1 = rng.randint(0, int(state.budget_p1)) if value else 0
            bid2 = rng.randint(0, int(state.budget_p2)) if value else 0
            state = settle_turn(cfg, state, value, bid1, bid2)
        new = _outcome(evaluate, inst, state=state)
        old = _outcome(with_reference, evaluate, inst, state=state)
        assert new == old, (variant_id(variant), state)


@pytest.mark.parametrize("variant", [AP_SET_THIRD, AP_FIXED_HALF], ids=variant_id)
def test_budgets_on_the_alpha_grid_match_the_fraction_reference(variant):
    """Losing all-pay turns leave P1 with fractions of a grid unit."""
    d = variant.alpha.denominator
    new, old = GridEvaluator(variant), FractionGridEvaluator(variant)
    for remaining, i, j in ((3, 2, 2), (4, 2, 3), (5, 3, 3), (5, 2, 2)):
        for k, b in itertools.product(range(0, 10 * d), range(0, 6)):
            a = F(k, d)
            assert new.win(remaining, i, j, a, b) == old.win(remaining, i, j, a, b), (remaining, i, j, a, b)
            for value in (0, 1) if variant.is_triangular else (1,):  # fixed-value: value-1 objects only
                assert new.win(remaining, i, j, a, b, value) == old.win_given_value(
                    remaining, i, j, a, b, value
                )
            assert new.nodes_expanded == old.nodes_expanded
    with pytest.raises(DomainError):
        new.win(3, 2, 2, F(1, 2 * d), 4)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_a_shared_evaluator_matches_the_fraction_reference_across_queries(variant):
    """One evaluator, many queries: large budgets, then smaller, then larger.

    Later queries land among rows and tables filled by earlier ones, at
    other budgets and countdown pairs; pending values are mixed in.
    """
    d = variant.alpha.denominator
    new, old = GridEvaluator(variant), FractionGridEvaluator(variant)
    budgets = [(16, 8), (12, 6), (F(25, d), 5), (6, 3), (2, 1), (0, 2), (9, 7), (F(61, d), 9), (20, 8)]
    positions = [(6, 3, 3), (5, 3, 3), (5, 2, 3), (4, 2, 2), (3, 2, 2), (3, 1, 2), (2, 1, 1)]
    values = (None, 1, 0) if variant.is_triangular else (None, 1, 1)  # fixed-value: value-1 objects only
    for step, (a, b) in enumerate(budgets):
        for remaining, i, j in positions:
            value = values[(step + remaining) % 3]
            if value is None:
                got, want = new.win(remaining, i, j, a, b), old.win(remaining, i, j, a, b)
            else:
                got = new.win(remaining, i, j, a, b, value)
                want = old.win_given_value(remaining, i, j, a, b, value)
            assert (got, new.nodes_expanded) == (want, old.nodes_expanded), (remaining, i, j, a, b, value)


def _stored_verdicts(ev):
    """Verdicts in an evaluator's memo rows; their negative keys hold watermarks."""
    return sum(key >= 0 for table in ev._memo.values() for row in table.values() for key in row)


QUERY_ORDERS = {
    "descending": lambda ks: ks[::-1],
    "ascending": lambda ks: ks,
    "interleaved": lambda ks: [k for pair in zip(ks[::-1], ks) for k in pair][: len(ks)],  # top, bottom, ...
}


@pytest.mark.parametrize("order", list(QUERY_ORDERS))
@pytest.mark.parametrize("variant", [AP_SET_THIRD, AP_FIXED_HALF], ids=variant_id)
def test_every_residue_in_any_order_matches_the_fraction_reference(variant, order):
    """P1 budgets of every residue mod d, queried within one row in one order.

    A lost node stops its bid loop at its first losing concede child and
    expands the rest of that child's residue only above the row's
    watermark for that residue. Each query order fills the rows below in
    another pattern; the counts must stay the full loop's, query by query.
    """
    d = variant.alpha.denominator
    new, old = GridEvaluator(variant), FractionGridEvaluator(variant)
    for remaining, i, j, b in ((6, 3, 3, 5), (5, 2, 3, 4), (7, 4, 4, 3)):
        for k in QUERY_ORDERS[order](list(range(8 * d))):
            a = F(k, d)
            got, want = new.win(remaining, i, j, a, b), old.win(remaining, i, j, a, b)
            assert (got, new.nodes_expanded) == (want, old.nodes_expanded), (remaining, i, j, a, b)
    assert _stored_verdicts(new) == new.nodes_expanded


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_a_search_stores_each_expanded_node_once(variant):
    """The budget scan of ``min_winning_budget``: one stored verdict per counted node."""
    ev = GridEvaluator(variant)
    i, j = countdown_for(9, 0, 0, 0)
    k = 0
    while not ev.win(9, i, j, k, 12):
        k += 1
    assert k == min_winning_budget(variant, 9, 12).b_star
    assert _stored_verdicts(ev) == ev.nodes_expanded


def test_the_memo_of_a_search_stays_small():
    """The memo is nested by countdown pair, then budgets: no key tuple per position.

    Measured at ~265 KB; a flat memo keyed by 5-tuples peaks at ~860 KB.
    """
    min_winning_budget(FP_SET01, 3, 4)  # first-call allocations, outside the traced region
    tracemalloc.start()
    try:
        min_winning_budget(FP_SET01, 7, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


@settings(max_examples=60, deadline=None)
@given(
    evaluator=st.sampled_from(EVALUATORS),
    variant=st.sampled_from(ALL_VARIANTS),
    remaining=st.integers(1, 6),
    data=st.data(),
)
def test_winnability_is_monotone_in_both_budgets(evaluator, variant, remaining, data):
    """More P1 budget never hurts P1; more P2 budget never helps P1.

    The budget search relies on this: it makes the scan's first winning
    budget the least one (the threshold property of Richman games). The
    omnipotent adversary's threshold table relies on it too.
    """
    i = data.draw(st.integers(1, remaining), label="i")
    j = data.draw(st.integers(1, remaining + 1 - i), label="j")
    d = variant.alpha.denominator
    a = F(data.draw(st.integers(0, 10 * d), label="a units of 1/d"), d)
    b = data.draw(st.integers(0, 8), label="b")
    ev = evaluator(variant)
    if ev.win(remaining, i, j, a, b):
        assert ev.win(remaining, i, j, a + F(1, d), b)
    if ev.win(remaining, i, j, a, b + 1):
        assert ev.win(remaining, i, j, a, b)


def test_node_ceiling_raises_resource_error(monkeypatch):
    """An evaluator stops when its counted nodes reach MAX_NODES, naming turns and b2."""
    assert min_winning_budget(FP_SET01, 3, 4).nodes_expanded == 50
    monkeypatch.setattr(oracle_module, "MAX_NODES", 51)
    assert min_winning_budget(FP_SET01, 3, 4).b_star == 6
    monkeypatch.setattr(oracle_module, "MAX_NODES", 50)
    with pytest.raises(ResourceError, match="ceiling of 50 expanded nodes at turns=3, b2=4 grid units"):
        min_winning_budget(FP_SET01, 3, 4)
    monkeypatch.setattr(oracle_module, "MAX_NODES", 10)
    with pytest.raises(ResourceError, match="at turns=5, b2=8 grid units"):
        evaluate(OracleInstance(AP_SET_THIRD, 5, 12, 8))
    ev = GridEvaluator(FP_FIXED1)
    with pytest.raises(ResourceError, match="at turns=4, b2=6 grid units"):
        ev.win(4, 2, 2, 9, 6, 1)
    assert ev.nodes_expanded == 10


@each_evaluator
def test_depth_ceiling_raises_before_any_work(evaluator):
    ev = evaluator(FP_SET01)
    over = oracle_module.MAX_TURNS + 1
    for query in (ev.win, lambda *args: ev.win(*args, 0)):
        with pytest.raises(ResourceError, match=f"^grid oracle depth ceiling is {oracle_module.MAX_TURNS} turns, "
                                                f"asked for {over}$"):
            query(over, 0, 1, 0, 0)  # P1 needs nothing, yet the depth is checked first
    assert _work(ev) == 0
    # At the ceiling the deepest query still fits under the default limit:
    # the node search recurses one frame a turn on a value-set variant.
    h = oracle_module.MAX_TURNS // 2
    assert not ev.win(oracle_module.MAX_TURNS, h, h, 0, 1)


def _run_bare(code):
    """Run ``code`` in a fresh interpreter with the package importable: its exit code, stdout and stderr.

    Under CPython 3.11 the C calls in pytest's own stack count toward the
    recursion limit too, beyond the frames a test can see, so a test of
    the frames a query needs runs outside it.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_the_search_recurses_one_frame_per_remaining_turn():
    """MAX_TURNS frames and a small slack hold the deepest query at the ceiling.

    The slack covers ``win``, the node search's ``_solve`` and, under the
    last node, the memo's row factory: in a fresh interpreter the query
    needs 4 of the 10 (3 while ``win`` called the first node itself), as a
    node fetches its row's successors inline. A zero-value step that took
    a second frame, as through a lookup helper, needs about MAX_TURNS more.
    """
    code = """
import sys
from multibattle import FP_SET01, GridEvaluator
from multibattle.oracle import MAX_TURNS
h, ev = MAX_TURNS // 2, GridEvaluator(FP_SET01)
sys.setrecursionlimit(1 + MAX_TURNS + 10)  # the module's own frame, one a turn and the slack
print(ev.win(MAX_TURNS, h, h, 0, 1))
"""
    returncode, stdout, stderr = _run_bare(code)
    assert (returncode, stdout) == (0, "False\n"), stderr


def test_the_threshold_table_fills_without_recursion():
    """A query at MAX_TURNS fills from an explicit stack, under the node search's slack of 10 frames.

    The query needs seven levels. A fill that recursed would need about MAX_TURNS more.
    """
    code = """
import sys
from multibattle import FP_SET01
from multibattle.oracle import MAX_TURNS, ThresholdTable
h, table = MAX_TURNS // 2, ThresholdTable(FP_SET01)
sys.setrecursionlimit(1 + 10)  # the module's own frame and the slack
print(table.win(MAX_TURNS, h, h, 0, 1), table.win(MAX_TURNS, h, h, 6, 4, 1), table.cells > MAX_TURNS)
"""
    returncode, stdout, stderr = _run_bare(code)
    assert (returncode, stdout) == (0, "False False True\n"), stderr


def test_cell_ceiling_raises_resource_error(monkeypatch):
    """A table stops when its stored cells reach MAX_CELLS, naming cells, the query's turns and b2."""
    table = ThresholdTable(FP_SET01)
    won = table.win(5, 3, 3, 7, 5)
    monkeypatch.setattr(oracle_module, "MAX_CELLS", table.cells + 1)
    assert ThresholdTable(FP_SET01).win(5, 3, 3, 7, 5) is won
    for ceiling, values in ((table.cells, [None]), (3, [None, 0, 1])):
        monkeypatch.setattr(oracle_module, "MAX_CELLS", ceiling)
        for value in values:
            with pytest.raises(ResourceError, match=f"^threshold table reached its ceiling of {ceiling} cells at "
                                                    "turns=5, b2=5 grid units; use fewer turns or a smaller b2$") as err:
                ThresholdTable(FP_SET01).win(5, 3, 3, 7, 5, value)
            # Raised after the fill's StopIteration is handled, so it chains none.
            assert err.value.__context__ is None and err.value.__cause__ is None, repr(err.value.__context__)


def test_both_engines_answer_through_one_checked_win():
    """The node search and the threshold table share one ``win`` and one P1 budget scaling."""
    assert ThresholdTable.win is GridEvaluator.win
    assert ThresholdTable._scaled is GridEvaluator._scaled


@pytest.mark.parametrize("variant", [AP_SET01, FP_FIXED1], ids=variant_id)
def test_each_stored_cell_is_computed_once(variant):
    """A cell that meets a missing child resumes with its tau instead of starting over.

    Counted as distinct ``cell`` frames over a query with the value free and
    one with the value 1 at the same position. On a value-set variant the
    value-1 query's own tau1 is computed and returned, not stored: one frame
    more than the stored cells. On a fixed-value variant tau is tau1, and
    the second query reads it.
    """
    frames = set()  # held, so no frame is freed and its identity reused

    def trace(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "cell" and frame.f_code.co_filename == oracle_module.__file__:
            frames.add(frame)

    table, (i, j) = ThresholdTable(variant), countdown_for(11, 0, 0, 0)
    gc.collect()  # a fill stopped by an error leaves suspended cells, which run again as they are closed
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        table.win(11, i, j, 80, 40)
        table.win(11, i, j, 80, 40, 1)
    finally:
        sys.settrace(previous)
    assert table.cells > 400
    assert len(frames) == table.cells + variant.is_triangular, (len(frames), table.cells)


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from(ALL_VARIANTS),
    remaining=st.integers(0, 7),
    data=st.data(),
)
def test_the_threshold_table_answers_as_the_node_search(variant, remaining, data):
    """ThresholdTable.win gives GridEvaluator.win's verdict, with or without the turn's value, at any a on 1/d."""
    # A fixed-value variant auctions only value-1 objects.
    value = data.draw(st.sampled_from([None, 0, 1] if variant.is_triangular else [None, 1]), label="value")
    if not remaining:
        value = None
    i = data.draw(st.integers(0, remaining + 1), label="i")
    j = data.draw(st.integers(0, remaining + 1), label="j")
    d = variant.alpha.denominator
    a = F(data.draw(st.integers(0, 24 * d), label="a units of 1/d"), d)
    b = data.draw(st.integers(0, 12), label="b")
    table = ThresholdTable(variant)
    assert table.win(remaining, i, j, a, b, value) == GridEvaluator(variant).win(remaining, i, j, a, b, value)
    # A second query on the same table reads the cells the first one stored.
    a2 = F(data.draw(st.integers(0, 24 * d), label="a2 units of 1/d"), d)
    assert table.win(remaining, i, j, a2, b, value) == GridEvaluator(variant).win(remaining, i, j, a2, b, value)


def _least_winning(win, top):
    """The least k in [0, top] with win(k), else top + 1, by bisection: win is monotone in k."""
    lo, hi = 0, top + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if win(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_the_threshold_table_finds_the_node_search_threshold_at_every_small_position(variant):
    """Every position with r <= 5 turns left, countdowns up to r + 1 and b <= 14, the value free, 0 (value-set) or 1.

    The table's least winning P1 budget on the 1/d grid wins in the node
    search and one 1/d step less loses there. A threshold the inner
    minimum gets wrong is often off by one 1/d step at a few positions,
    which verdicts at random budgets rarely meet: scanning at most two
    bids up from the crossing first errs at b = 13 on all-pay.
    """
    d = variant.alpha.denominator
    table, ev = ThresholdTable(variant), GridEvaluator(variant)
    values = (None, 0, 1) if variant.is_triangular else (None, 1)  # fixed-value variants auction value 1 only
    for r, b, value in itertools.product(range(1, 6), range(15), values):
        top = (r + 1) * (b + 1) * d  # above every finite threshold: a bid of b + 1 units wins each turn
        for i, j in itertools.product(range(1, r + 2), repeat=2):
            k = _least_winning(lambda k: table.win(r, i, j, F(k, d), b, value), top)
            assert k > top or ev.win(r, i, j, F(k, d), b, value), (r, i, j, b, value, k)
            assert k == 0 or not ev.win(r, i, j, F(k - 1, d), b, value), (r, i, j, b, value, k)


def test_a_dropped_evaluator_and_its_memo_are_freed_at_once():
    """No cycle keeps a dropped evaluator or its memo for the collector.

    The search's closures hold the evaluator's constants, not the
    evaluator, and the node closure's reference to itself goes with it.
    """
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ev = GridEvaluator(AP_SET_THIRD)
        ev.win(6, 3, 3, F(25, 3), 5)
        held = tracemalloc.get_traced_memory()[0] - before
        ref = weakref.ref(ev)
        del ev
        assert ref() is None
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert held > 20_000 and left < held // 10, (held, left)


def test_rows_hold_their_successors_and_a_given_value_stores_none():
    """A row holds its concede row, beat table and shifted zero-value row, fetched at its first expansion.

    A query with its value given solves its turn without a row: nothing
    is stored at its own position, neither a verdict nor successors.
    After a search, every row that holds a key (a verdict or a watermark,
    written only by node calls on it) holds the successors the
    GridEvaluator docstring names.
    """
    ev = GridEvaluator(FP_SET01)
    ev.win(5, 3, 3, 7, 5, 1)
    assert (5, 3, 3) not in ev._memo
    ev.win(5, 3, 3, 7, 5)
    memo = ev._memo
    row = memo[5, 3, 3][5]
    # i + j = remaining + 1: the zero-value turn shifts the countdown pair to (2, 2).
    assert row.concede is memo[4, 2, 3][5] and row.beat is memo[4, 3, 2] and row.zero is memo[4, 2, 2][5]

    for variant in (FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1):
        ev, (h1, h2) = GridEvaluator(variant), countdown_for(5, 0, 0, 0)
        assert any(ev.win(5, h1, h2, k, 8) for k in range(32))
        memo, checked = ev._memo, 0
        for (remaining, i, j), table in list(memo.items()):
            r, s = remaining - 1, 1 if i + j == remaining + 1 else 0
            for b, row in table.items():
                if not row:
                    continue
                assert all(hasattr(row, slot) for slot in ("concede", "beat", "zero")), (remaining, i, j, b)
                assert row.concede is (memo.get((r, i - 1, j), {}).get(b) if r and i > 1 else None)
                assert row.beat is (memo.get((r, i, j - 1)) if r and j > 1 else None)
                if not variant.is_triangular:
                    assert row.zero is None
                elif i - s <= 0 or j - s <= 0 or not r:  # decided, or left to the tie rule
                    assert row.zero is (i - s <= 0 or (j - s > 0 and i <= j))
                else:
                    assert row.zero is memo.get((r, i - s, j - s), {}).get(b)
                checked += 1
        assert checked > 20, variant


def test_no_search_frame_raises_an_exception():
    """A search and a value-1 query run without raising, and catching, an exception in the oracle.

    A row finds its first expansion by holding no position, not by a
    missing successor slot, which would raise once per memo row.
    """
    events = []

    def local(frame, event, arg):
        if event == "exception":
            events.append((frame.f_code.co_name, arg[0].__name__))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename == oracle_module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = min_winning_budget(FP_SET01, 5, 8)
        won = GridEvaluator(FP_SET01).win(5, 3, 3, 7, 5, 1)
    finally:
        sys.settrace(previous)
    assert result.nodes_expanded > 100 and isinstance(won, bool)
    assert events == []
