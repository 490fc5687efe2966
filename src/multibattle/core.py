"""Domain types and game rules shared by every other module.

A contest is a sequence of T turns. Each turn an object worth 0 or 1 point
is put up for auction: both players bid simultaneously from their remaining
budgets, the higher bid takes the object, and ties go to P1 (the dealer).
The winner pays her bid and the loser pays ``alpha`` times hers: all-pay
rules take ``alpha`` in [0, 1], and first-price (only the winner pays) is
the case ``alpha = 0``.
P1 also wins final score ties.

Win detection uses countdown values: with T' the maximum combined score
still achievable, player P1 needs ``ceil(T'/2) - score_p1`` more points to
clinch the game, and symmetrically for P2. A countdown of zero means that
player has already won (P1 checked first, consistent with the tie rules).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction


Numeric = int | float | Fraction


class ContestError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ContestError):
    """Invalid argument or unsatisfiable request (CLI exit code 1)."""


class ResourceError(ContestError):
    """A bounded search or enumeration ran out of budget (CLI exit code 2)."""


class OverbidError(DomainError):
    """A bid fell outside [0, remaining budget]."""


class GameDecidedError(DomainError):
    """An operation was asked about a game that already has a winner."""


class UnwinnableStateError(DomainError):
    """The requested state cannot be won by P1 with any budget."""


class NoClosedFormError(DomainError):
    """No closed form exists for this variant (all-pay with alpha not in {0, 1})."""


class Unwinnable:
    """Sentinel for matrix entries where no P1 budget suffices.

    Compares greater than every finite number and equal only to itself.
    Deliberately not convertible to float so it can never leak into
    numeric output as an accidental infinity.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNWINNABLE"

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __hash__(self):
        return hash("multibattle.UNWINNABLE")


UNWINNABLE = Unwinnable()

Ratio = Numeric | Unwinnable


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Player(Enum):
    P1 = "P1"
    P2 = "P2"

    def other(self) -> "Player":
        return Player.P2 if self is Player.P1 else Player.P1


class Pricing(Enum):
    FIRST_PRICE = "first-price"
    ALL_PAY = "all-pay"


class ValueModel(Enum):
    FIXED1 = "fixed"
    SET01 = "set01"


@dataclass(frozen=True)
class AuctionVariant:
    """Pricing rule plus value model, with the all-pay ratio ``alpha``.

    ``alpha`` is the fraction of a losing bid the loser forfeits, and it
    alone carries the pricing rule: first-price is alpha = 0, so
    ``pricing`` only names the variant (a first-price one takes no alpha).
    """

    pricing: Pricing
    values: ValueModel
    alpha: Fraction = Fraction(0)

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not 0 <= alpha <= 1:
            raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
        if self.pricing is Pricing.FIRST_PRICE and alpha != 0:
            raise DomainError("first-price variants take no alpha")

    @classmethod
    def first_price(cls, values: ValueModel) -> "AuctionVariant":
        return cls(Pricing.FIRST_PRICE, values)

    @classmethod
    def all_pay(cls, values: ValueModel, alpha: Numeric = 1) -> "AuctionVariant":
        return cls(Pricing.ALL_PAY, values, Fraction(alpha))

    @property
    def short_name(self) -> str:
        p = "fp" if self.pricing is Pricing.FIRST_PRICE else "ap"
        v = "set" if self.values is ValueModel.SET01 else "fixed"
        return f"{p}-{v}"

    @property
    def has_closed_form(self) -> bool:
        """Whether matrix entries have a closed form: alpha in {0, 1}, its only integers."""
        return self.alpha.denominator == 1

    @property
    def is_triangular(self) -> bool:
        """Whether matrix states with i > j are unwinnable for this variant."""
        return self.values is ValueModel.SET01


FP_SET01 = AuctionVariant.first_price(ValueModel.SET01)
FP_FIXED1 = AuctionVariant.first_price(ValueModel.FIXED1)
AP_SET01 = AuctionVariant.all_pay(ValueModel.SET01, 1)
AP_FIXED1 = AuctionVariant.all_pay(ValueModel.FIXED1, 1)


@dataclass(frozen=True)
class GameConfig:
    """Static parameters of one contest."""

    variant: AuctionVariant
    turns: int
    budget_p2: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "budget_p2", Fraction(self.budget_p2))
        if self.turns < 1:
            raise DomainError(f"turns must be >= 1, got {self.turns}")
        if self.budget_p2 <= 0:
            raise DomainError("budget_p2 must be positive")


@dataclass(frozen=True)
class CountdownPair:
    """How many more value-1 wins each player needs to clinch the game."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 0 or self.j < 0:
            raise DomainError(f"countdown values must be nonnegative: {self}")

    @classmethod
    def fresh(cls, turns: int) -> "CountdownPair":
        h = ceil_div(turns, 2)
        return cls(h, h)


def countdown_for(turns: int, turn_index: int, score_p1: int, score_p2: int) -> CountdownPair:
    """Countdown pair for the given scores with ``turns - turn_index`` turns left.

    The maximum combined score still achievable is the points already scored
    plus one per remaining turn; each player needs the majority of that.
    Values are clamped at zero (a negative need means the game is over).
    """
    achievable = score_p1 + score_p2 + (turns - turn_index)
    h = ceil_div(achievable, 2) if achievable > 0 else 0
    return CountdownPair(max(0, h - score_p1), max(0, h - score_p2))


@dataclass(frozen=True)
class GameState:
    """Live contest state between turns."""

    budget_p1: Fraction
    budget_p2: Fraction
    score_p1: int
    score_p2: int
    turn_index: int
    countdown: CountdownPair

    def __post_init__(self):
        if self.budget_p1 < 0 or self.budget_p2 < 0:
            raise DomainError("budgets must be nonnegative")
        if self.score_p1 < 0 or self.score_p2 < 0:
            raise DomainError("scores must be nonnegative")


def initial_state(config: GameConfig, budget_p1: Numeric) -> GameState:
    b1 = Fraction(budget_p1)
    if b1 < 0:
        raise DomainError("budget_p1 must be nonnegative")
    return GameState(
        budget_p1=b1,
        budget_p2=config.budget_p2,
        score_p1=0,
        score_p2=0,
        turn_index=0,
        countdown=CountdownPair.fresh(config.turns),
    )


def settle_turn(
    config: GameConfig,
    state: GameState,
    value: int,
    bid_p1: Numeric,
    bid_p2: Numeric,
) -> GameState:
    """Resolve one auction turn and return the successor state.

    The higher bid wins the object; P1 wins ties. The winner pays her bid
    and the loser pays ``alpha`` times her own (nothing under first-price).
    """
    if value not in (0, 1):
        raise DomainError(f"turn value must be 0 or 1, got {value!r}")
    if config.variant.values is ValueModel.FIXED1 and value != 1:
        raise DomainError("fixed-value contests only auction value-1 objects")
    if state.turn_index >= config.turns:
        raise GameDecidedError("all turns already played")
    bid_p1 = Fraction(bid_p1)
    bid_p2 = Fraction(bid_p2)
    if not 0 <= bid_p1 <= state.budget_p1:
        raise OverbidError(f"P1 bid {bid_p1} outside [0, {state.budget_p1}]")
    if not 0 <= bid_p2 <= state.budget_p2:
        raise OverbidError(f"P2 bid {bid_p2} outside [0, {state.budget_p2}]")

    p1_wins = bid_p1 >= bid_p2
    alpha = config.variant.alpha
    pay1 = bid_p1 if p1_wins else alpha * bid_p1
    pay2 = alpha * bid_p2 if p1_wins else bid_p2

    s1 = state.score_p1 + (value if p1_wins else 0)
    s2 = state.score_p2 + (value if not p1_wins else 0)
    idx = state.turn_index + 1
    return GameState(
        budget_p1=state.budget_p1 - pay1,
        budget_p2=state.budget_p2 - pay2,
        score_p1=s1,
        score_p2=s2,
        turn_index=idx,
        countdown=countdown_for(config.turns, idx, s1, s2),
    )


def winner_if_decided(config: GameConfig, state: GameState) -> Player | None:
    """The winner if the game is already decided, else None.

    P1's countdown is checked first, so a double zero (an exact split of
    the achievable score) goes to the dealer, matching the tie rule.

    Reaching a countdown of zero is decisive by convention, everywhere.
    For value-set contests this is also exact: an adversary at her
    threshold zeroes every remaining turn and finishes strictly ahead.
    In a fixed-value contest with an even turn count she cannot do that,
    and raw score-counting would let P1 pull the final scores level; the
    countdown model still scores that game for P2. All win guarantees in
    this package are with respect to this (conservative for P1) rule.
    """
    if state.countdown.i == 0:
        return Player.P1
    if state.countdown.j == 0:
        return Player.P2
    if state.turn_index >= config.turns:
        # Unreachable given the countdown checks above, kept as a backstop.
        return Player.P1 if state.score_p1 >= state.score_p2 else Player.P2
    return None


@dataclass(frozen=True)
class TurnRecord:
    """One settled turn, with budgets and scores as of after the turn."""

    index: int
    value: int
    bid_p1: Fraction
    bid_p2: Fraction
    winner: Player
    budget_p1: Fraction
    budget_p2: Fraction
    score_p1: int
    score_p2: int


@dataclass(frozen=True)
class FaultRecord:
    """Details of an illegal bid that aborted a game."""

    turn_index: int
    player: Player
    attempted_bid: Fraction
    budget: Fraction


@dataclass(frozen=True)
class GameTrace:
    """Complete record of one contest, serializable to a stable JSON form.

    ``reason`` is "countdown" when the game ended before the final turn,
    "exhausted" when all turns were played, and "fault" when a policy
    emitted an illegal bid (an extension to the base schema; the ``fault``
    field then carries the details and the non-faulting player wins).
    """

    config: GameConfig
    budget_p1: Fraction
    turns: tuple[TurnRecord, ...]
    winner: Player
    reason: str
    fault: FaultRecord | None = field(default=None)

    def to_json_dict(self) -> dict:
        cfg = self.config
        doc = {
            "config": {
                "pricing": cfg.variant.pricing.value,
                "alpha": float(cfg.variant.alpha),
                "values": cfg.variant.values.value,
                "turns": cfg.turns,
                "b1": float(self.budget_p1),
                "b2": float(cfg.budget_p2),
            },
            "turns": [
                {
                    "index": t.index,
                    "value": t.value,
                    "bid_p1": float(t.bid_p1),
                    "bid_p2": float(t.bid_p2),
                    "winner": t.winner.value,
                    "budget_p1": float(t.budget_p1),
                    "budget_p2": float(t.budget_p2),
                    "score_p1": t.score_p1,
                    "score_p2": t.score_p2,
                }
                for t in self.turns
            ],
            "winner": self.winner.value,
            "reason": self.reason,
        }
        if self.fault is not None:
            doc["fault"] = {
                "turn_index": self.fault.turn_index,
                "player": self.fault.player.value,
                "attempted_bid": float(self.fault.attempted_bid),
                "budget": float(self.fault.budget),
            }
        return doc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)
