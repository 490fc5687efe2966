"""``core._fraction``, the one constructor of amounts from integer pairs.

It writes ``fractions.Fraction``'s two slots itself, so these tests hold
it to ``Fraction(n, d)`` on every value it can be given, pin the slot
names it relies on, check that no other module writes those slots, and
check that every amount a game or a sweep makes through it is a reduced
``Fraction`` with a positive denominator.
"""

import ast
import pickle
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multibattle import (
    AllInAdversary,
    AuctionVariant,
    GameConfig,
    MatchPlusEpsilonAdversary,
    OmnipotentAdversary,
    Player,
    RandomSeededAdversary,
    StrategyPolicy,
    ValueModel,
    build_matrix,
    closed_form,
    exhaustive_adversary_check,
    obr,
    optimal_bid_fraction,
    run_game,
)
from multibattle.core import _fraction
from multibattle.simulate import _ScriptedAdversary

F = Fraction

# Ints of every size, past 2**200 on both sides of zero.
integers = st.one_of(st.integers(), st.integers(-(2**260), 2**260))
positive = st.one_of(st.integers(min_value=1), st.integers(1, 2**260))


def test_fraction_slots_are_the_two_the_constructor_writes():
    # A CPython whose Fraction keeps its value elsewhere must fail here, not build broken amounts.
    assert Fraction.__slots__ == ("_numerator", "_denominator")


SRC = Path(__file__).resolve().parent.parent / "src" / "multibattle"
SLOTS = ("_numerator", "_denominator")


def _slot_writes(source, filename):
    """Lines that assign or delete a Fraction slot, name one as a string, or call ``object.__new__(Fraction)``."""
    lines = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute) and node.attr in SLOTS and not isinstance(node.ctx, ast.Load):
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value in SLOTS:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
              and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "Fraction"):
            lines.append(node.lineno)
    return lines


def test_only_core_writes_fraction_slots():
    # core._fraction is the one writer; a slot write elsewhere skips its gcd and the pinned slot names.
    for path in sorted(SRC.glob("*.py")):
        lines = _slot_writes(path.read_text(encoding="utf-8"), path.name)
        assert bool(lines) is (path.name == "core.py"), (path.name, lines)


@pytest.mark.parametrize("source", [
    "f._numerator = n",
    "f._denominator //= g",
    "a, f._denominator = 1, d",
    'setattr(f, "_numerator", n)',
    "object.__setattr__(f, '_denominator', d)",
    "f = object.__new__(Fraction)",
    "del f._numerator",
])
def test_the_slot_write_check_finds_a_write(source):
    assert _slot_writes(source, "copy.py")


def test_the_slot_write_check_passes_slot_reads():
    source = "n = f._numerator * g._denominator\nok = f._numerator == 0\ng = object.__new__(Other)"
    assert _slot_writes(source, "reads.py") == []


@given(n=integers, d=positive, common=st.integers(1, 2**70))
def test_the_constructor_matches_fraction_of_the_pair(n, d, common):
    for pair in ((n, d), (n * common, d * common)):
        new, ref = _fraction(*pair), Fraction(*pair)
        assert type(new) is Fraction
        assert new == ref
        assert (new.numerator, new.denominator) == (ref.numerator, ref.denominator)
        assert type(new.numerator) is int and type(new.denominator) is int
        assert hash(new) == hash(ref)
        assert repr(new) == repr(ref)
        assert float(new) == float(ref)
        back = pickle.loads(pickle.dumps(new))
        assert type(back) is Fraction and back == ref


VARIANTS = [
    AuctionVariant.first_price(ValueModel.SET01),
    AuctionVariant.first_price(ValueModel.FIXED1),
    *(
        AuctionVariant.all_pay(values, alpha)
        for values in ValueModel
        for alpha in (F(0), F(1), F(1, 3), F(12345, 65536))
    ),
]
VARIANT_IDS = [f"{v.short_name}@{v.alpha}" for v in VARIANTS]


def assert_reduced(x, where):
    assert type(x) is Fraction, (where, x)
    n, d = x.numerator, x.denominator
    assert d > 0 and gcd(n, d) == 1, (where, n, d)


class TrackingPolicy(StrategyPolicy):
    """The strategy policy, keeping its tracked P2 budget before each bid and after each turn."""

    def __init__(self):
        self.tracked = []

    def begin(self, config, budget_p1):
        super().begin(config, budget_p1)
        self.tracked.append(self._state.tracked_opponent_budget)

    def observe(self, value, my_bid, i_won):
        super().observe(value, my_bid, i_won)
        self.tracked.append(self._state.tracked_opponent_budget)


def assert_trace_reduced(trace, policy):
    assert trace.turns
    for rec in trace.turns:
        for field in ("bid_p1", "bid_p2", "budget_p1", "budget_p2"):
            assert_reduced(getattr(rec, field), (rec.index, field))
    assert len(policy.tracked) == len(trace.turns) + 1
    for k, tracked in enumerate(policy.tracked):
        assert_reduced(tracked, (k, "tracked"))


ADVERSARIES = [
    lambda: RandomSeededAdversary(7),
    AllInAdversary,
    lambda: MatchPlusEpsilonAdversary(F(1, 37)),
    OmnipotentAdversary,
]


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
def test_every_amount_a_game_makes_is_a_reduced_fraction(variant):
    for adversary in ADVERSARIES:
        for turns in (3, 4, 5):
            ratio = obr(variant, turns, exact=True)
            for budget in (ratio, ratio * F(5, 7)):
                policy = TrackingPolicy()
                trace = run_game(GameConfig(variant, turns, F(3, 2)), budget * F(3, 2), policy, adversary(), seed=turns)
                assert_trace_reduced(trace, policy)


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
def test_every_amount_a_sweep_counterexample_makes_is_a_reduced_fraction(variant):
    cfg = GameConfig(variant, 5)
    verdict = exhaustive_adversary_check(cfg, obr(variant, 5, exact=True) * F(3, 4), denominator_bound=8)
    trace = verdict.counterexample
    assert not verdict.win_all and trace.winner is Player.P2
    policy = TrackingPolicy()
    line = [(rec.value, rec.bid_p2) for rec in trace.turns]
    replay = run_game(cfg, trace.budget_p1, policy, _ScriptedAdversary(line))
    assert replay.turns == trace.turns
    assert_trace_reduced(replay, policy)


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
def test_every_exact_entry_and_bid_fraction_is_a_reduced_fraction(variant):
    m = build_matrix(variant, 6, exact=True)
    for i, j, x in m.defined_entries():
        assert_reduced(x, (i, j, "entry"))
        assert_reduced(closed_form(variant, i, j, exact=True), (i, j, "closed_form"))
        assert_reduced(optimal_bid_fraction(variant, i, j), (i, j, "bid fraction"))
