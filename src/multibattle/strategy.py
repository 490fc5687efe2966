"""The online bidding policy that realizes the matrix guarantee.

P1 observes only its own bids, never P2's. The policy tracks P2's budget
pessimistically from them (it never assumes P2 spent more than they
prove) and, on every value-1 turn at countdown pair (i, j), bids the
fraction

    r* = (x[i][j-1] - x[i-1][j]) / (x[i][j-1] + 1 - alpha)

of the tracked budget, where x is the variant's countdown matrix and
first-price is alpha = 0. The two outcomes of the turn then cost exactly
the same in matrix terms, which is what makes the guarantee inductive:
winning leaves a state needing x[i-1][j] per tracked unit, losing leaves
x[i][j-1] per unit of what the opponent keeps after paying for her win.

Two families of states bid the whole tracked budget instead: triangular
diagonals (P1 cannot afford to lose the next contested turn, and the
dealer tie rule makes a full-budget bid unbeatable) and fixed-value states
with j = 1 (P2 could take any turn P1 does not fully defend).

Every entry of x comes from ``matrices.entry_pair``: the closed form, or
else the variant's one exact table, shared by every game and call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import (
    AuctionVariant,
    CountdownPair,
    DomainError,
    GameDecidedError,
    Numeric,
    UnwinnableStateError,
    as_fraction,
    paid,
)
from .matrices import entry_pair

# perfbench/tracing.py wraps build_matrix and closed_form under this
# module's name, so they stay imported although the policy reads entry_pair.
from .matrices import build_matrix, closed_form  # noqa: F401


def _bid_fraction_pair(variant: AuctionVariant, i: int, j: int) -> tuple[int, int]:
    """The bid fraction at countdown (i, j) as an integer pair, not reduced."""
    if i <= 0 or j <= 0:
        raise GameDecidedError(f"countdown ({i}, {j}) already decides the game")
    triangular = variant.is_triangular
    if triangular and i > j:
        raise UnwinnableStateError(f"state ({i}, {j}) cannot be won under {variant.short_name}")
    if j == (i if triangular else 1):  # a diagonal, or fixed-value j = 1: bid it all
        return 1, 1
    ln, ld = entry_pair(variant, i, j - 1)
    wn, wd = entry_pair(variant, i - 1, j)
    # (lose - win) / (lose + 1 - alpha) with lose = ln/ld, win = wn/wd, alpha = an/ad
    an, ad = variant.alpha.numerator, variant.alpha.denominator
    return (ln * wd - wn * ld) * ad, wd * (ln * ad + (ad - an) * ld)


def optimal_bid_fraction(variant: AuctionVariant, i: int, j: int) -> Fraction:
    """Exact fraction of the tracked opponent budget to bid at countdown (i, j).

    Entries are read as integer pairs from ``matrices.entry_pair`` (the
    closed form, or the variant's exact table), and the one Fraction made
    is the result.
    Raises GameDecidedError when either countdown is zero and
    UnwinnableStateError for triangular i > j.
    """
    num, den = _bid_fraction_pair(variant, i, j)
    return Fraction(num, den)


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
        """Start-of-game state; reading entry (h, h) sizes the variant's table or raises ResourceError."""
        if turns < 1:
            raise DomainError(f"turns must be >= 1, got {turns}")
        countdown = CountdownPair.fresh(turns)
        entry_pair(variant, countdown.i, countdown.j)
        return cls(variant, Fraction(opponent_budget), countdown)


def next_bid(state: StrategyState, turn_value: int) -> Fraction:
    """The policy's bid for a turn of the given value.

    Zero-value turns get a zero bid; there is nothing at stake and
    spending would only erode the guarantee.
    """
    if turn_value not in (0, 1):
        raise DomainError(f"turn value must be 0 or 1, got {turn_value!r}")
    if turn_value == 0:
        return Fraction(0)
    num, den = _bid_fraction_pair(state.variant, state.countdown.i, state.countdown.j)
    b = as_fraction(state.tracked_opponent_budget)
    return Fraction(num * b.numerator, den * b.denominator)


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
    """
    cd = state.countdown
    if turn_value == 1 and i_won:
        cd = CountdownPair(max(0, cd.i - 1), cd.j)
    elif turn_value == 1:
        cd = CountdownPair(cd.i, max(0, cd.j - 1))
    b = as_fraction(state.tracked_opponent_budget)
    if not i_won:
        b = paid(b, as_fraction(my_bid))
        if b.numerator < 0:
            b = Fraction(0)
    return StrategyState(state.variant, b, cd)
