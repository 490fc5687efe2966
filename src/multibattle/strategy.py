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

At alpha in {0, 1} r* has its own O(1) closed form, the difference of
two of ``matrices.closed_form``'s. With k = j - i + 1:

    value-set, alpha = 0:  (2i + k(k+3)) / (k(k+1)(j+2))
    value-set, alpha = 1:  1 at i = 1, else (2i - 2 + k(k+3)) / (k(k+1)(j+1))
    fixed-value, alpha = 0:  1/j
    fixed-value, alpha = 1:  1 at i = 1, else 1/j

On value-set variants x[i][j] = i(k+2) / (k(j+2)) at alpha = 0 and
1 + (i-1)(k+2) / (k(j+1)) at alpha = 1, and row i - 1 has k + 1 in place
of k; over the common denominator k(k+1)(j+2) (or (j+1)) the numerators
differ by i(k+2)(k+1) - (i-1)(k+3)k = 2i + k(k+3), with i - 1 in place
of i at alpha = 1. On fixed-value ones x[i][j] = i/j and (i+j-1)/j, one
1/j per row. Row 0 is the virtual all-zero row, not a formula at i = 0,
which is why alpha = 1 treats i = 1 apart: there r* is all of x[1][j] = 1.

At every other alpha both entries of x come from ``matrices.entry_pair``:
binomial closed forms of O(j) terms, memoized and shared by every game.
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
    _Checked,
    _fraction,
    amount,
    check_count,
    check_countdowns,
    check_value,
    check_variant,
    countdown_for,
    finite_fraction,
    paid,
)
from .matrices import entry_pair

# perfbench/tracing.py wraps build_matrix and closed_form under this
# module's name, so they stay imported although the policy calls neither.
from .matrices import build_matrix, closed_form  # noqa: F401


def _bid_fraction_pair(variant: AuctionVariant, i: int, j: int) -> tuple[int, int]:
    """The bid fraction x[i][j] - x[i-1][j] as an integer pair, not reduced."""
    if i <= 0 or j <= 0:
        raise GameDecidedError(f"countdown ({i}, {j}) already decides the game")
    if variant.is_triangular and i > j:
        raise UnwinnableStateError(f"state ({i}, {j}) cannot be won under {variant.short_name}")
    if variant.has_closed_form:  # the module docstring's four forms; a is alpha, 0 or 1
        a = variant.alpha_pair[0]
        if a and i == 1:
            return 1, 1
        if not variant.is_triangular:
            return 1, j
        k = j - i + 1
        return 2 * (i - a) + k * (k + 3), k * (k + 1) * (j + 2 - a)
    xn, xd = entry_pair(variant, i, j)
    wn, wd = entry_pair(variant, i - 1, j)
    return xn * wd - wn * xd, xd * wd


def optimal_bid_fraction(variant: AuctionVariant, i: int, j: int) -> Fraction:
    """Exact fraction r* = x[i][j] - x[i-1][j] of the tracked opponent budget at countdown (i, j).

    At alpha in {0, 1} one O(1) closed form (see the module docstring)
    gives the unreduced pair; at other alphas it is the difference of two
    integer pairs from ``matrices.entry_pair``. The one Fraction made is
    the result, reduced by ``_fraction``. Raises DomainError when a
    countdown is not an int (a bool included), GameDecidedError when
    either countdown is zero and UnwinnableStateError for triangular i > j.
    """
    if i.__class__ is not int or j.__class__ is not int:  # inline: solve's hot path
        check_countdowns(i, j)
    num, den = _bid_fraction_pair(variant, i, j)
    return _fraction(num, den)


class _StrategyState(NamedTuple):
    variant: AuctionVariant
    tracked_opponent_budget: Fraction
    countdown: CountdownPair


class StrategyState(_Checked, _StrategyState):
    """What the policy knows between turns; ``__new__`` makes the tracked budget a Fraction.

    ``tracked_opponent_budget`` starts at P2's true budget and only ever
    decreases; pessimistic updates keep it an upper bound on the truth,
    which is the safe side for every bid computed from it. An int or float
    budget is stored as its ``Fraction``, and a negative one raises
    DomainError ("opponent_budget must be >= 0, got …").
    """

    __slots__ = ()

    def __new__(cls, variant, tracked_opponent_budget, countdown):
        return tuple.__new__(cls, (variant, amount(tracked_opponent_budget, "opponent_budget"), countdown))

    @classmethod
    def fresh(cls, variant: AuctionVariant, turns: int, opponent_budget: Numeric) -> "StrategyState":
        """Start-of-game state; reading entry (h, h) raises ResourceError above the exact ceiling."""
        check_variant(variant)
        check_count(turns, "turns")
        countdown = countdown_for(turns, 0, 0, 0)
        entry_pair(variant, countdown.i, countdown.j)
        return cls(variant, opponent_budget, countdown)


def next_bid(state: StrategyState, turn_value: int) -> Fraction:
    """The policy's bid for a turn of the given value.

    Zero-value turns get a zero bid (the shared ``ZERO``); there is nothing
    at stake and spending would only erode the guarantee. A fixed-value
    variant has no zero-value turns, so there value 0 raises DomainError.
    """
    if turn_value.__class__ is not int or turn_value not in (0, 1):  # inline: the turn's hot path
        check_value(turn_value)
    if turn_value == 0:
        check_value(turn_value, "turn value", state.variant)
        return ZERO
    variant, b, (i, j) = state
    num, den = _bid_fraction_pair(variant, i, j)
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

    The turn value is checked as in ``next_bid``, value 0 against the
    variant on the zero-value branch only. Both records skip
    ``__new__`` (see ``core``): the countdown dropped is clamped at zero,
    and the tracked budget, a Fraction already, is clamped at zero too.
    """
    if turn_value.__class__ is not int or turn_value not in (0, 1):  # inline: the turn's hot path
        check_value(turn_value)
    variant, b, cd = state
    if turn_value:
        i, j = cd
        cd = tuple.__new__(CountdownPair, (i - 1 if i > 0 else 0, j) if i_won else (i, j - 1 if j > 0 else 0))
    else:
        check_value(turn_value, "turn value", variant)
    if not i_won:
        b = paid(b, finite_fraction(my_bid, "my_bid"))
        if b._numerator < 0:
            b = ZERO
    return tuple.__new__(StrategyState, (variant, b, cd))
