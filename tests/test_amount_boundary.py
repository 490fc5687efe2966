"""The amount boundary: one converter, Fraction-holding records, slot-reading helpers.

``core.finite_fraction`` is the one place an amount becomes a ``Fraction``.
``GameState`` converts its budgets through it, so every record holds
Fractions, and ``affordable``, ``at_least`` and ``paid`` read their
operands' slots without taking ints. These tests hold the records to
exact Fraction budgets, the helpers to ``Fraction`` operators, and the
modules past the boundary to making no conversion of their own. Every
entry point that takes a variant refuses a non-variant with
``DomainError``.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multibattle import (
    DomainError,
    GameConfig,
    GameState,
    GridEvaluator,
    OracleInstance,
    StrategyState,
    build_matrix,
    min_winning_budget,
    verify_matrix,
)
from multibattle import core
from multibattle.core import CountdownPair, affordable, at_least, paid
from multibattle.matrices import matrix_csv_lines, matrix_json_chunks

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "multibattle"


class SubFraction(Fraction):
    pass


@pytest.mark.parametrize("budget", [0, 3, 2.5, F(7, 3), SubFraction(7, 3)], ids=repr)
def test_game_state_holds_budgets_that_are_exactly_fractions(budget):
    # An int or float budget used to be kept as given, and a subclass as its own type.
    cd = CountdownPair(2, 2)
    built = GameState(budget, budget, 0, 0, 0, cd)
    replaced = GameState(F(1), F(1), 0, 0, 0, cd)._replace(budget_p1=budget, budget_p2=budget)
    for state in (built, replaced, built._replace(score_p1=1)):
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


# The messages of core's rule helpers: check_value's 0/1 and fixed-value rules, check_count's "at least" rule.
RULE_MESSAGES = ("must be 0 or 1", "only auction value-1 objects", "must be >= ")
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
    # and the sweep's max_states the count rule.
    for path in sorted(SRC.glob("*.py")):
        lines = _rule_raises(path.read_text(encoding="utf-8"), path.name)
        assert len(lines) == (3 if path.name == "core.py" else 0), (path.name, lines)  # one raise per rule


@pytest.mark.parametrize("source", [
    'raise DomainError(f"turn value must be 0 or 1, got {value!r}")',
    'raise core.DomainError("max_states must be >= 1")',
    'raise OverbidError(f"{name} must be >= {least}, got {n}")',
    'raise DomainError("fixed-value contests only auction value-1 objects")',
    'if k < 0:\n    raise UnwinnableStateError(name + " must be >= 0")',
])
def test_the_rule_message_check_finds_a_copy(source):
    assert _rule_raises(source, "copy.py")


def test_the_rule_message_check_passes_other_messages():
    source = 'raise DomainError("budgets must be nonnegative")\nraise ValueError("x must be >= 1")\nraise exc'
    assert _rule_raises(source, "other.py") == []


# Each entry point that takes a variant. Only GameConfig checked it: the
# others raised a bare AttributeError, and OracleInstance constructed.
VARIANT_ENTRY_POINTS = {
    "GameConfig": lambda v: GameConfig(v, 3),
    "OracleInstance": lambda v: OracleInstance(v, 3, 6, 4),
    "min_winning_budget": lambda v: min_winning_budget(v, 3, 4),
    "GridEvaluator": lambda v: GridEvaluator(v),
    "StrategyState.fresh": lambda v: StrategyState.fresh(v, 3, 1),
    "build_matrix": lambda v: build_matrix(v, 3),
    "build_matrix exact": lambda v: build_matrix(v, 3, exact=True),
    "matrix_csv_lines": lambda v: matrix_csv_lines(v, 3),
    "matrix_json_chunks": lambda v: matrix_json_chunks(v, 3, exact=True),
    "verify_matrix": lambda v: verify_matrix(v, 3),
}


@pytest.mark.parametrize("bad", ["fp-set", None, 1], ids=repr)
@pytest.mark.parametrize("entry", list(VARIANT_ENTRY_POINTS))
def test_a_variant_that_is_no_auction_variant_raises_domain_error(entry, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(f'variant must be an AuctionVariant, got {bad!r}')}$"):
        VARIANT_ENTRY_POINTS[entry](bad)
