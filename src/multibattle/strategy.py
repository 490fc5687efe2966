"""The online bidding policy that realizes the matrix guarantee.

P1 observes only its own bids, never P2's. The policy tracks P2's budget
pessimistically from them (it never assumes P2 spent more than they
prove) and, on every value-1 turn at countdown pair (i, j), bids the
fraction

    r* = x[i][j] - x[i-1][j]

of the tracked budget, where x is the variant's countdown matrix: the
step the recurrence adds to row i - 1. At r* the two outcomes of the turn
cost exactly the same in matrix terms, which is what makes the guarantee
inductive: winning leaves a state needing x[i-1][j] per tracked unit,
losing leaves x[i][j-1] per unit of what the opponent keeps after paying
for her win.

The boundary rules x[i][i] = 1 + x[i-1][i] and x[i][1] = i make r* = 1
on triangular diagonals and fixed-value column 1: P1 bids the whole
tracked budget there.

Every entry of x comes from ``matrices.entry_pair``: a closed form at
every alpha, memoized where it costs O(j) terms, shared by every game.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import (
    AuctionVariant,
    CountdownPair,
    GameDecidedError,
    Numeric,
    UnwinnableStateError,
    ZERO,
    _fraction,
    check_count,
    check_countdowns,
    check_value,
    check_variant,
    finite_fraction,
    paid,
)
from .matrices import entry_pair

# perfbench/tracing.py wraps build_matrix and closed_form under this
# module's name, so they stay imported although the policy reads entry_pair.
from .matrices import build_matrix, closed_form  # noqa: F401


def _bid_fraction_pair(variant: AuctionVariant, i: int, j: int) -> tuple[int, int]:
    """The bid fraction x[i][j] - x[i-1][j] as an integer pair, not reduced."""
    if i <= 0 or j <= 0:
        raise GameDecidedError(f"countdown ({i}, {j}) already decides the game")
    if variant.is_triangular and i > j:
        raise UnwinnableStateError(f"state ({i}, {j}) cannot be won under {variant.short_name}")
    xn, xd = entry_pair(variant, i, j)
    wn, wd = entry_pair(variant, i - 1, j)
    return xn * wd - wn * xd, xd * wd


def optimal_bid_fraction(variant: AuctionVariant, i: int, j: int) -> Fraction:
    """Exact fraction r* = x[i][j] - x[i-1][j] of the tracked opponent budget at countdown (i, j).

    Both entries are integer pairs from ``matrices.entry_pair``; the one
    Fraction made is the result. Raises DomainError when a countdown is not
    an int (a bool included), GameDecidedError when either countdown is
    zero and UnwinnableStateError for triangular i > j.
    """
    if i.__class__ is not int or j.__class__ is not int:  # inline: solve's hot path
        check_countdowns(i, j)
    num, den = _bid_fraction_pair(variant, i, j)
    return _fraction(num, den)


class StrategyState(NamedTuple):
    """What the policy knows between turns.

    ``tracked_opponent_budget`` starts at P2's true budget and only ever
    decreases; pessimistic updates keep it an upper bound on the truth,
    which is the safe side for every bid computed from it.
    """

    variant: AuctionVariant
    tracked_opponent_budget: Fraction
    countdown: CountdownPair

    @classmethod
    def fresh(cls, variant: AuctionVariant, turns: int, opponent_budget: Numeric) -> "StrategyState":
        """Start-of-game state; reading entry (h, h) raises ResourceError above the exact ceiling."""
        check_variant(variant)
        check_count(turns, "turns")
        countdown = CountdownPair.fresh(turns)
        entry_pair(variant, countdown.i, countdown.j)
        return cls(variant, finite_fraction(opponent_budget, "opponent_budget"), countdown)


def next_bid(state: StrategyState, turn_value: int) -> Fraction:
    """The policy's bid for a turn of the given value.

    Zero-value turns get a zero bid (the shared ``ZERO``); there is nothing
    at stake and spending would only erode the guarantee.
    """
    check_value(turn_value)
    if turn_value == 0:
        return ZERO
    variant, b, (i, j) = state
    num, den = _bid_fraction_pair(variant, i, j)
    if type(b) is not Fraction:
        b = finite_fraction(b, "amount")
    return _fraction(num * b._numerator, den * b._denominator)


def observe_outcome(state: StrategyState, turn_value: int, my_bid: Numeric, i_won: bool) -> StrategyState:
    """Advance the policy state after a settled turn.

    The winner's countdown drops on value-1 turns; zero-value turns leave
    the pair alone (the matrix indices already encode remaining need, and
    planning for the unshrunk pair is the conservative side).

    P1 observes only its own bid, so tracking takes the opponent's bid at
    the least it could have been: zero after a P1 win (she may have bid
    nothing), so the tracked budget stays; P1's own bid after a P1 loss
    (she had to beat it and pays it in full), so the tracked budget drops
    by it, clamped at zero, whatever P2 actually bid.

    The turn value is checked as in ``next_bid``. Both records skip
    ``__new__`` (see ``core``): the countdown dropped is clamped at zero.
    """
    check_value(turn_value)
    variant, b, cd = state
    if turn_value:
        i, j = cd
        cd = tuple.__new__(CountdownPair, (i - 1 if i > 0 else 0, j) if i_won else (i, j - 1 if j > 0 else 0))
    if type(b) is not Fraction:
        b = finite_fraction(b, "amount")
    if not i_won:
        b = paid(b, finite_fraction(my_bid, "my_bid"))
        if b._numerator < 0:
            b = ZERO
    return tuple.__new__(StrategyState, (variant, b, cd))
