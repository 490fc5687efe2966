"""The amount boundary: one converter, Fraction-holding records, slot-reading helpers.

``core.finite_fraction`` is the one place an amount becomes a ``Fraction``.
``GameState`` converts its budgets through it, so every record holds
Fractions, and ``affordable``, ``at_least`` and ``paid`` read their
operands' slots without taking ints. These tests hold the records to
exact Fraction budgets, the helpers to ``Fraction`` operators, and the
modules past the boundary to making no conversion of their own. Every
entry point that takes a variant refuses a non-variant with
``DomainError``, and every one that takes an amount with a sign rule
refuses one below it through ``core.amount``, with one message.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multibattle import (
    FP_SET01,
    AllInAdversary,
    DomainError,
    GameConfig,
    GameState,
    GridEvaluator,
    MatchPlusEpsilonAdversary,
    OmnipotentAdversary,
    OracleInstance,
    StrategyPolicy,
    StrategyState,
    build_matrix,
    closed_form,
    handicap_obr,
    initial_state,
    min_winning_budget,
    obr,
    optimal_bid_fraction,
    run_game,
    verify_matrix,
)
from multibattle import cli, core
from multibattle.core import affordable, at_least, paid
from multibattle.matrices import matrix_csv_lines, matrix_json_chunks
from multibattle.oracle import ThresholdTable

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "multibattle"


class SubFraction(Fraction):
    pass


@pytest.mark.parametrize("budget", [0, 3, 2.5, F(7, 3), SubFraction(7, 3)], ids=repr)
def test_game_state_holds_budgets_that_are_exactly_fractions(budget):
    # An int or float budget used to be kept as given, and a subclass as its own type.
    built = GameState(budget, budget, 0, 0, 0)
    replaced = GameState(F(1), F(1), 0, 0, 0)._replace(budget_p1=budget, budget_p2=budget)
    for state in (built, replaced, built._replace(score_p1=1, turn_index=1)):
        assert type(state.budget_p1) is Fraction and type(state.budget_p2) is Fraction
        assert state.budget_p1 == budget and state.budget_p2 == budget


# Numerators past 2**260 on both sides of zero, denominators past it too.
numerators = st.one_of(st.integers(-50, 50), st.integers(-(2**270), 2**270))
denominators = st.one_of(st.integers(1, 50), st.integers(1, 2**270))
fractions = st.builds(Fraction, numerators, denominators)
# (an, ad) of alpha in {0, 1, 1/3, 12345/65536}.
alpha_pairs = st.sampled_from([(0, 1), (1, 1), (1, 3), (12345, 65536)])


@given(bid=fractions, budget=fractions)
def test_affordable_matches_the_fraction_operators(bid, budget):
    assert affordable(bid, budget) is (0 <= bid <= budget)
    assert affordable(-abs(bid) - F(1, 7), abs(budget)) is False  # a negative bid is never affordable


@given(a=fractions, b=fractions)
def test_at_least_matches_the_fraction_operators(a, b):
    assert at_least(a, b) is (a >= b)
    assert at_least(a, a) is True


@given(budget=fractions, amount=fractions, alpha=alpha_pairs)
def test_paid_matches_the_fraction_operators(budget, amount, alpha):
    an, ad = alpha
    for new, expected in ((paid(budget, amount, an, ad), budget - F(an, ad) * amount),
                          (paid(budget, amount), budget - amount)):
        assert type(new) is Fraction and new == expected
        assert (new.numerator, new.denominator) == (expected.numerator, expected.denominator)
    if an == 0 or amount == 0:
        assert paid(budget, amount, an, ad) is budget


def test_only_core_and_cli_convert_amounts():
    # oracle.py used to wrap state.budget_p1 and OracleInstance's amounts in Fraction(...) again.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name != "as_fraction", path.name
            elif isinstance(node, ast.ImportFrom):
                assert "as_fraction" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.Name):
                assert node.id != "as_fraction", (path.name, node.lineno)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                  and path.name not in ("core.py", "cli.py")):
                assert not node.keywords, (path.name, node.lineno)
                for arg in node.args:
                    assert isinstance(arg, ast.Constant) and type(arg.value) is int, (path.name, node.lineno)


# The messages of core's rule helpers: check_value's 0/1 and fixed-value rules, check_count's "at least"
# rule and amount's two sign rules, and the sign rule's old wordings, which no raise may use.
RULE_MESSAGES = ("must be 0 or 1", "only auction value-1 objects", "must be >= ", "must be > ",
                 "nonnegative", "must be positive")
DOMAIN_ERRORS = {name for name, obj in vars(core).items() if isinstance(obj, type) and issubclass(obj, DomainError)}


def _rule_raises(source: str, filename: str) -> list:
    """Lines that raise a DomainError (or subclass) whose message text holds a rule helper's message."""
    lines = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func = node.exc.func
        if getattr(func, "id", getattr(func, "attr", None)) not in DOMAIN_ERRORS:
            continue
        texts = [n.value for arg in node.exc.args for n in ast.walk(arg)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        if any(rule in text for text in texts for rule in RULE_MESSAGES):
            lines.append(node.lineno)
    return lines


def test_only_core_raises_the_rule_messages():
    # settle_turn, next_bid, observe_outcome, win, evaluate and run_game each restated the 0/1 rule,
    # settle_turn and evaluate the fixed-value rule, and _check_side, handicap_obr, RandomSeededAdversary
    # and the sweep's max_states the count rule; GameState, OracleInstance, win, min_winning_budget, the
    # epsilon and omnipotent adversaries and the CLI's bid the sign rule, in four wordings.
    for path in sorted(SRC.glob("*.py")):
        lines = _rule_raises(path.read_text(encoding="utf-8"), path.name)
        assert len(lines) == (5 if path.name == "core.py" else 0), (path.name, lines)  # one raise per rule


@pytest.mark.parametrize("source", [
    'raise DomainError(f"turn value must be 0 or 1, got {value!r}")',
    'raise core.DomainError("max_states must be >= 1")',
    'raise OverbidError(f"{name} must be >= {least}, got {n}")',
    'raise DomainError("fixed-value contests only auction value-1 objects")',
    'raise DomainError(f"epsilon must be > 0, got {x}")',
    'raise DomainError("budgets must be nonnegative")',
    'raise DomainError("grid_unit must be positive")',
    'if k < 0:\n    raise UnwinnableStateError(name + " must be >= 0")',
])
def test_the_rule_message_check_finds_a_copy(source):
    assert _rule_raises(source, "copy.py")


def test_the_rule_message_check_passes_other_messages():
    source = 'raise DomainError("alpha must lie in [0, 1]")\nraise ValueError("x must be >= 1")\nraise exc'
    assert _rule_raises(source, "other.py") == []


# Each entry point that takes a variant. Only GameConfig checked it: the
# others raised a bare AttributeError, and OracleInstance constructed.
VARIANT_ENTRY_POINTS = {
    "GameConfig": lambda v: GameConfig(v, 3),
    "OracleInstance": lambda v: OracleInstance(v, 3, 6, 4),
    "min_winning_budget": lambda v: min_winning_budget(v, 3, 4),
    "GridEvaluator": lambda v: GridEvaluator(v),
    "ThresholdTable": lambda v: ThresholdTable(v),
    "StrategyState.fresh": lambda v: StrategyState.fresh(v, 3, 1),
    "build_matrix": lambda v: build_matrix(v, 3),
    "build_matrix exact": lambda v: build_matrix(v, 3, exact=True),
    "matrix_csv_lines": lambda v: matrix_csv_lines(v, 3),
    "matrix_json_chunks": lambda v: matrix_json_chunks(v, 3, exact=True),
    "verify_matrix": lambda v: verify_matrix(v, 3),
    "obr": lambda v: obr(v, 3),
    "handicap_obr": lambda v: handicap_obr(v, 5, 1),
    "handicap_obr k >= T": lambda v: handicap_obr(v, 3, 3),
    "closed_form": lambda v: closed_form(v, 2, 3),
    "optimal_bid_fraction": lambda v: optimal_bid_fraction(v, 2, 3),
}


@pytest.mark.parametrize("bad", ["fp-set", None, 1], ids=repr)
@pytest.mark.parametrize("entry", list(VARIANT_ENTRY_POINTS))
def test_a_variant_that_is_no_auction_variant_raises_domain_error(entry, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(f'variant must be an AuctionVariant, got {bad!r}')}$") as err:
        VARIANT_ENTRY_POINTS[entry](bad)
    assert err.value.__context__ is None


def _bid(opponent_budget):
    ns = cli._parser().parse_args(["bid", "--variant", "fp-set", "--i", "2", "--j", "3",
                                   "--opponent-budget", str(opponent_budget)])
    return cli._cmd_bid(ns, FP_SET01)


# Each entry point that takes an amount with a sign rule: (name, positive, call). Each restated the rule
# in its own words, and StrategyState.fresh had none: it took -1, and next_bid then bid -1.
SIGN_ENTRY_POINTS = {
    "GameConfig": ("budget_p2", True, lambda x: GameConfig(FP_SET01, 3, budget_p2=x)),
    "GameState p1": ("budget_p1", False, lambda x: GameState(x, 1, 0, 0, 0)),
    "GameState p2": ("budget_p2", False, lambda x: GameState(1, x, 0, 0, 0)),
    "initial_state": ("budget_p1", False, lambda x: initial_state(GameConfig(FP_SET01, 3), x)),
    "run_game": ("budget_p1", False, lambda x: run_game(GameConfig(FP_SET01, 3), x, StrategyPolicy(),
                                                         AllInAdversary())),
    "OracleInstance b1": ("b1", False, lambda x: OracleInstance(FP_SET01, 3, x, 4)),
    "OracleInstance b2": ("b2", False, lambda x: OracleInstance(FP_SET01, 3, 6, x)),
    "OracleInstance grid_unit": ("grid_unit", True, lambda x: OracleInstance(FP_SET01, 3, 6, 4, x)),
    "min_winning_budget b2": ("b2", True, lambda x: min_winning_budget(FP_SET01, 3, x)),
    "min_winning_budget grid_unit": ("grid_unit", True, lambda x: min_winning_budget(FP_SET01, 3, 4, x)),
    "win P1 budget": ("P1 budget", False, lambda x: GridEvaluator(FP_SET01).win(3, 2, 2, x, 4)),
    "win P1 budget Fraction": ("P1 budget", False, lambda x: GridEvaluator(FP_SET01).win(3, 2, 2, F(x), 4)),
    "win P2 budget": ("P2 budget", False, lambda x: GridEvaluator(FP_SET01).win(3, 2, 2, 6, x)),
    "MatchPlusEpsilonAdversary": ("epsilon", True, lambda x: MatchPlusEpsilonAdversary(x)),
    "OmnipotentAdversary": ("grid_unit", True, lambda x: OmnipotentAdversary(x)),
    "StrategyState.fresh": ("opponent_budget", False, lambda x: StrategyState.fresh(FP_SET01, 3, x)),
    "cli bid": ("opponent budget", False, _bid),
}


@pytest.mark.parametrize(
    "entry, bad",
    [(e, x) for e, (_, positive, _) in SIGN_ENTRY_POINTS.items() for x in ((-1, 0) if positive else (-1,))],
    ids=repr,
)
def test_an_amount_below_its_sign_rule_raises_one_message(entry, bad):
    name, positive, call = SIGN_ENTRY_POINTS[entry]
    message = f"{name} must be {'>' if positive else '>='} 0, got {bad}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(bad)
