"""Grid oracle: exact win/loss evaluation and minimum-budget search.

The expected values here were frozen from the naive reference solver at
the bottom of this file: it plays out all T turns with no early
termination, no countdown bookkeeping, and no dominance reasoning, and
decides the winner from final scores only. The fast oracle must agree
with it everywhere the reference can reach.
"""

import itertools
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

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
    GridEvaluator,
    OracleInstance,
    ResourceError,
    ValueModel,
    evaluate,
    initial_state,
    min_winning_budget,
    obr,
    p1_can_win,
    settle_turn,
)
from multibattle.core import CountdownPair

F = Fraction
AP_SET_HALF = AuctionVariant.all_pay(ValueModel.SET01, F(1, 2))
AP_FIXED_HALF = AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2))
AP_SET_THIRD = AuctionVariant.all_pay(ValueModel.SET01, F(1, 3))
ALL_VARIANTS = [FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1, AP_SET_THIRD, AP_FIXED_HALF]


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
    assert p1_can_win(OracleInstance(FP_SET01, 1, F(1), F(1)))
    assert not p1_can_win(OracleInstance(FP_SET01, 3, F(5), F(4)))
    assert p1_can_win(OracleInstance(FP_SET01, 3, F(6), F(4)))


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
            assert p1_can_win(inst) == naive_solve(variant, turns, b1, b2), (
                variant.short_name,
                turns,
                b1,
                b2,
            )


def test_even_length_fixed_games_use_the_countdown_convention():
    # Two fixed-value turns, no P1 budget: raw score-counting would let
    # P1 tie 1-1 on free turns, but the adversary clinches at one point.
    assert not p1_can_win(OracleInstance(FP_FIXED1, 2, F(0), F(1)))
    assert naive_solve(FP_FIXED1, 2, 0, 1)  # the raw-score model disagrees
    # With the budget to deny her every turn, P1 still wins outright.
    assert p1_can_win(OracleInstance(FP_FIXED1, 2, F(1), F(1)))


def test_winnability_is_monotone_in_budget():
    for variant in (FP_SET01, AP_FIXED1):
        prior = False
        for b1 in range(13):
            now = p1_can_win(OracleInstance(variant, 3, F(b1), F(3)))
            assert now or not prior
            prior = now


def test_evaluate_from_mid_game_state():
    cfg = GameConfig(FP_SET01, turns=3, budget_p2=4)
    inst = OracleInstance(FP_SET01, 3, F(6), F(4))
    # P1 ties the opening all-in and takes the turn as dealer; the
    # adversary is broke and the rest of the game is free.
    s = initial_state(cfg, F(6))
    s = settle_turn(cfg, s, 1, F(4), F(4))
    assert (s.countdown.i, s.countdown.j) == (1, 2)
    assert p1_can_win(inst, state=s)
    # Losing any value-1 turn of a three-turn game is fatal no matter how
    # much budget remains: the adversary zeroes the last two turns.
    t = initial_state(cfg, F(6))
    t = settle_turn(cfg, t, 1, F(0), F(1))
    assert (t.countdown.i, t.countdown.j) == (2, 1)
    assert not p1_can_win(inst, state=t)


def test_evaluate_takes_p1_budgets_on_the_alpha_grid():
    """A lost all-pay turn at alpha = 1/3 leaves P1's budget on the 1/3 grid."""
    cfg = GameConfig(AP_SET_THIRD, turns=5, budget_p2=4)
    inst = OracleInstance(AP_SET_THIRD, 5, F(8), F(4))
    s = settle_turn(cfg, initial_state(cfg, F(8)), 1, F(1), F(2))
    assert (s.budget_p1, s.budget_p2, s.countdown) == (F(23, 3), F(2), (3, 2))
    res = evaluate(inst, state=s)
    assert (res.can_win, res.nodes_expanded) == (False, 51)
    assert not GridEvaluator(AP_SET_THIRD).win(4, 3, 2, F(23, 3), 2)
    with pytest.raises(DomainError, match="23/4"):
        evaluate(inst, state=s._replace(budget_p1=F(23, 4)))


def test_evaluate_with_pending_value():
    inst = OracleInstance(FP_SET01, 3, F(6), F(4))
    assert p1_can_win(inst, pending_value=1)
    assert p1_can_win(inst, pending_value=0)
    losing = OracleInstance(FP_SET01, 3, F(5), F(4))
    assert not (
        p1_can_win(losing, pending_value=1) and p1_can_win(losing, pending_value=0)
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
def test_win_refuses_a_value_with_no_turn_left(variant, value):
    # win(0, 1, 1, 0, 0, value) used to answer True, scoring a turn that does not exist by the tie rule.
    ev = GridEvaluator(variant)
    with pytest.raises(DomainError, match="^no turn left to evaluate a pending value for$"):
        ev.win(0, 1, 1, 0, 0, value)
    assert ev.nodes_expanded == 0
    assert ev.win(0, 1, 1, 0, 0) is True  # without a value, the tie rule settles the position
    cfg = GameConfig(variant, 1)
    last = settle_turn(cfg, initial_state(cfg, F(6)), 1, F(0), F(0))
    with pytest.raises(DomainError, match="^no turn left to evaluate a pending value for$"):
        evaluate(OracleInstance(variant, 1, 6, 4), last, pending_value=1)


@pytest.mark.parametrize("value", [2, -1, True, False, 1.0])
def test_win_rejects_a_value_outside_none_zero_and_one(value):
    ev = GridEvaluator(FP_FIXED1)
    with pytest.raises(DomainError, match="^turn value must be 0 or 1, got "):
        ev.win(3, 2, 2, 3, 4, value)
    with pytest.raises(DomainError, match="^turn value must be 0 or 1, got "):
        ev.win(3, 0, 2, 3, 4, value)  # even where the countdown has decided the game
    # Value 0 stays a legal query on a fixed-value variant.
    assert ev.win(3, 2, 2, 3, 4, 0) == ev.win(2, 1, 1, 3, 4)


@pytest.mark.parametrize("a, b", [(6, -4), (-6, 4), (F(-1, 2), 4), (6, True), (6, 4.0), (6, F(4))])
def test_win_rejects_a_negative_budget_or_a_p2_budget_that_is_not_an_int(a, b):
    # (6, -4) used to answer True and (-6, 4) False.
    ev = GridEvaluator(AP_SET_HALF)
    message = "^(budgets must be nonnegative|P2 budget must be an int of grid units, got .*)$"
    with pytest.raises(DomainError, match=message):
        ev.win(3, 2, 2, a, b)
    assert ev.nodes_expanded == 0


@pytest.mark.parametrize(
    "remaining, i, j, a, message",
    [(-1, 2, 2, 6, "turns left must be >= 0"), (3.5, 2, 2, 6, "turns left must be an int"),
     (True, 2, 2, 6, "turns left must be an int"), (3, 2.0, 2, 6, "countdowns must be ints"),
     (3, True, 2, 6, "countdowns must be ints"), (3, 2, 2.0, 6, "countdowns must be ints"),
     (3, 2, False, 6, "countdowns must be ints"), (3, 2, 2, True, "P1 budget must be an int, Fraction or float"),
     (3, 2, 2, False, "P1 budget must be an int, Fraction or float")],
)
def test_win_rejects_turns_left_or_countdowns_that_are_no_ints_and_a_bool_budget(remaining, i, j, a, message):
    # (-1, 2, 2, 6) and (3.5, 2, 2, 6) used to answer True, and a = True read as a budget of 1.
    ev = GridEvaluator(FP_SET01)
    with pytest.raises(DomainError, match=f"^{message}, got "):
        ev.win(remaining, i, j, a, 4)
    assert ev.nodes_expanded == 0


@pytest.mark.parametrize("a", ["6", "5", None, Decimal(6)])
def test_win_rejects_a_p1_budget_that_is_not_a_number(a):
    # '6' used to parse as a budget and answer True, and '5' False.
    ev = GridEvaluator(FP_SET01)
    with pytest.raises(DomainError, match="^P1 budget must be an int, Fraction or float, got "):
        ev.win(3, 2, 2, a, 4)
    assert ev.nodes_expanded == 0
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
def test_win_rejects_a_p1_budget_that_is_not_finite(a):
    # nan used to escape as a bare ValueError, and inf as an OverflowError.
    ev = GridEvaluator(FP_SET01)
    with pytest.raises(DomainError, match=f"^P1 budget must be finite, got {a!r}$"):
        ev.win(3, 2, 2, a, 4)
    assert ev.nodes_expanded == 0


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["b1", "b2", "grid_unit"])
def test_oracle_instance_rejects_amounts_that_are_not_finite(field, bad):
    amounts = {"b1": 6, "b2": 4, "grid_unit": 1, field: bad}
    with pytest.raises(DomainError, match=f"^{field} must be finite, got {bad!r}$"):
        OracleInstance(FP_SET01, 3, **amounts)


def test_search_rejects_a_negative_ceiling():
    # A negative ceiling used to raise ResourceError ("raise the ceiling"), the exit-2 class.
    for ceiling in (-1, F(-1, 2)):
        with pytest.raises(DomainError, match="^ceiling must be nonnegative, got "):
            min_winning_budget(FP_SET01, 3, 4, ceiling=ceiling)
    with pytest.raises(ResourceError):
        min_winning_budget(FP_SET01, 3, 4, ceiling=0)


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


def test_search_ceiling_raises_resource_error():
    with pytest.raises(ResourceError):
        min_winning_budget(FP_SET01, 3, 4, ceiling=5)
    with pytest.raises(ResourceError):
        min_winning_budget(FP_SET01, 3, 4, ceiling=5, method="bisect")


def test_search_input_validation():
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 0, 4)
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 3, 0)
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 3, F(3, 2), grid_unit=1)
    with pytest.raises(DomainError):
        min_winning_budget(FP_SET01, 3, 4, grid_unit=0)
    with pytest.raises(DomainError, match="^budgets must be nonnegative$"):
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


def test_bisect_tries_the_ceiling_past_the_last_power_of_two():
    # b* = 6 lies between 4 and the ceiling 7, and at the ceiling 6: the scan reaches it.
    assert min_winning_budget(FP_SET01, 3, 4, ceiling=7).b_star == 6
    assert min_winning_budget(FP_SET01, 3, 4, ceiling=7, method="bisect").b_star == 6
    assert min_winning_budget(FP_SET01, 3, 4, ceiling=6, method="bisect").b_star == 6


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
            if state.countdown.i <= 0 or state.countdown.j <= 0:
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
            for value in (0, 1):
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
    for step, (a, b) in enumerate(budgets):
        for remaining, i, j in positions:
            value = (None, 1, 0)[(step + remaining) % 3]
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
    cd = CountdownPair.fresh(9)
    k = 0
    while not ev.win(9, cd.i, cd.j, k, 12):
        k += 1
    assert k == min_winning_budget(variant, 9, 12).b_star
    assert _stored_verdicts(ev) == ev.nodes_expanded


def test_the_memo_of_a_search_stays_small():
    """The memo is nested by countdown pair, then budgets: no key tuple per position.

    Measured at ~250 KB; a flat memo keyed by 5-tuples peaks at ~860 KB.
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
    variant=st.sampled_from(ALL_VARIANTS),
    remaining=st.integers(1, 6),
    data=st.data(),
)
def test_winnability_is_monotone_in_both_budgets(variant, remaining, data):
    """More P1 budget never hurts P1; more P2 budget never helps P1.

    The budget search relies on this: it makes the scan's first winning
    budget the least one (the threshold property of Richman games). The
    omnipotent adversary relies on it too.
    """
    i = data.draw(st.integers(1, remaining), label="i")
    j = data.draw(st.integers(1, remaining + 1 - i), label="j")
    d = variant.alpha.denominator
    a = F(data.draw(st.integers(0, 10 * d), label="a units of 1/d"), d)
    b = data.draw(st.integers(0, 8), label="b")
    ev = GridEvaluator(variant)
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


def test_depth_ceiling_raises_before_any_work():
    ev = GridEvaluator(FP_SET01)
    over = oracle_module.MAX_TURNS + 1
    for query in (ev.win, lambda *args: ev.win(*args, 0)):
        with pytest.raises(ResourceError, match=f"depth ceiling is {oracle_module.MAX_TURNS} turns"):
            query(over, 0, 1, 0, 0)  # P1 needs nothing, yet the depth is checked first
    assert ev.nodes_expanded == 0
    # At the ceiling the deepest recursion, two frames a turn on a value-set
    # variant, still fits under the default limit.
    h = oracle_module.MAX_TURNS // 2
    assert not ev.win(oracle_module.MAX_TURNS, h, h, 0, 1)
