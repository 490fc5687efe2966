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

Turn arithmetic runs on integer pairs behind one amount boundary: an
amount enters through ``finite_fraction``, the one converter (a
``Fraction`` passes through, an int or a finite float is wrapped once,
anything else is refused), records hold Fractions, and nothing past the
boundary converts one again. The pair helpers below take Fractions only
and read their slots, ``_numerator`` and ``_denominator`` (``numerator``
and ``denominator`` are a Python property each): ``affordable`` and
``at_least`` compare by cross-multiplying, and ``paid`` takes a payment
n/d off a budget bn/bd as the pair (bn*d - n*bd, bd*d). A new
``Fraction`` is made only for a value that leaves a function: ``paid``
makes each new budget, and the strategy its bid from the bid-fraction
pair times the tracked budget; a zero bid or clamped budget is the
shared ``ZERO``. Every ``Fraction`` the package makes from an integer
pair, here and in the strategy, matrices and simulator, comes from
``_fraction``: one ``gcd`` and the two slot writes, skipping
``Fraction.__new__``'s type dispatch. It depends on CPython's
``fractions.Fraction.__slots__`` (the same on 3.10-3.13; a test pins
them), and no other module writes them.
``Fraction`` operators dispatch through the ``numbers`` ABCs and
re-normalise every result; at the sizes a game reaches, that costs more
than the integer work.

The records a turn makes (``CountdownPair``, ``GameState``,
``TurnRecord``, and the strategy's ``StrategyState``) are
``typing.NamedTuple``s: immutable, hashable, and cheaper to build than
frozen dataclasses, whose ``__init__`` sets each field through
``object.__setattr__``. Being tuples, they also compare equal to plain
tuples of the same fields. The two validating ones check their fields
in ``__new__`` on a thin subclass (``_replace`` included). Where that
check cannot fail, a record is built with ``tuple.__new__``: the
countdown pairs of ``countdown_for`` and ``observe_outcome``, clamped at
zero, and ``TurnRecord`` and ``StrategyState``, which check nothing.

Each argument rule is one helper here with one message: ``check_value``
(an int 0 or 1, never a bool; only 1 under a fixed-value variant),
``check_count`` (an int of at least ``least``), ``check_countdowns``,
``check_variant`` and ``finite_fraction``. Only ``closed_form``,
``optimal_bid_fraction`` and ``handicap_obr`` guard the call with an
inline class test: they are solve's hot path, where plain calls cost
``obr`` a sixth of its time. Each turn is checked once: ``settle_turn``
checks the value, the turn count and both bids, then calls ``_settle``,
the one step of payments, scores and countdowns; ``run_game`` makes the
same checks and calls ``_settle`` directly, as does the sweep.

``GameTrace.to_json(indent)`` writes the same bytes as
``json.dumps(trace.to_json_dict(), indent=indent)`` without building the
dict or running the generic encoder (whose indented form is pure
Python): it lays out the turn object once per call as a %-template and
fills it per turn. ``to_json_dict`` stays as the dict form and as the
reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, isfinite
from typing import NamedTuple


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


def check_count(n: int, name: str, least: int = 1) -> None:
    """Raise DomainError, naming ``name``, unless ``n`` is an int (a bool is not) and at least ``least``."""
    if n.__class__ is not int:
        raise DomainError(f"{name} must be an int, got {n!r}")
    if n < least:
        raise DomainError(f"{name} must be >= {least}, got {n}")


def check_value(value: int, name: str = "turn value", variant: AuctionVariant | None = None) -> None:
    """Raise DomainError naming ``name`` unless ``value`` is the int 0 or 1 (1 under a fixed-value ``variant``)."""
    if value.__class__ is not int or value not in (0, 1):
        raise DomainError(f"{name} must be 0 or 1, got {value!r}")
    if not value and variant is not None and not variant.is_triangular:
        raise DomainError("fixed-value contests only auction value-1 objects")


def check_countdowns(i: int, j: int) -> None:
    """Raise DomainError unless the countdowns ``i`` and ``j`` are both ints (a bool is not)."""
    if i.__class__ is not int or j.__class__ is not int:
        raise DomainError(f"countdowns must be ints, got ({i!r}, {j!r})")


def finite_fraction(x: Numeric, name: str) -> Fraction:
    """The one amount converter: ``x`` itself if exactly a Fraction, else ``Fraction(x)``.

    DomainError, naming ``name``, for a float nan or infinity, which no
    Fraction holds, and for anything but an int, a Fraction or a float: a
    bool, or a string or Decimal that ``Fraction`` would parse.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        if not isfinite(x):
            raise DomainError(f"{name} must be finite, got {x!r}")
    elif x.__class__ is bool or not isinstance(x, (int, Fraction)):
        raise DomainError(f"{name} must be an int, Fraction or float, got {x!r}")
    return Fraction(x)


ZERO = Fraction(0)  # Fractions are immutable, so every zero bid can be this one


def _fraction(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` of ints n and d > 0, built on its two slots.

    One ``gcd`` and two slot writes, without ``Fraction.__new__``'s type
    dispatch and keyword-only ``_normalize``. ``_numerator`` and
    ``_denominator`` are ``fractions.Fraction.__slots__`` on CPython
    3.10-3.13 (a test pins them); this is the one place that writes them.
    """
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def affordable(bid: Fraction, budget: Fraction) -> bool:
    """Whether ``0 <= bid <= budget``; both are Fractions."""
    n = bid._numerator
    return n >= 0 and n * budget._denominator <= budget._numerator * bid._denominator


def at_least(a: Fraction, b: Fraction) -> bool:
    """Whether ``a >= b``; both are Fractions."""
    return a._numerator * b._denominator >= b._numerator * a._denominator


def paid(budget: Fraction, amount: Fraction, an: int = 1, ad: int = 1) -> Fraction:
    """``budget - (an/ad) * amount`` as one Fraction; ``budget`` itself when nothing is paid."""
    n = amount._numerator * an
    if not n:
        return budget
    d, bd = amount._denominator * ad, budget._denominator
    return _fraction(budget._numerator * d - n * bd, bd * d)


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

    ``__post_init__`` sets ``is_triangular`` (value-set model), ``has_closed_form``
    (alpha in {0, 1}, where the O(1) closed forms apply; every alpha has the
    binomial ones) and ``alpha_pair`` (alpha's numerator, denominator) once as
    attributes, not fields: ~10 ns a read against ~100 for a property, while
    ``==``, ``hash`` and ``repr`` still see the fields alone.
    """

    pricing: Pricing
    values: ValueModel
    alpha: Fraction = Fraction(0)

    def __post_init__(self):
        if not (isinstance(self.pricing, Pricing) and isinstance(self.values, ValueModel)):
            raise DomainError(f"need a Pricing and a ValueModel, got {self.pricing!r} and {self.values!r}")
        alpha = finite_fraction(self.alpha, "alpha")
        object.__setattr__(self, "alpha", alpha)
        if not 0 <= alpha <= 1:
            raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
        if self.pricing is Pricing.FIRST_PRICE and alpha != 0:
            raise DomainError("first-price variants take no alpha")
        object.__setattr__(self, "is_triangular", self.values is ValueModel.SET01)
        object.__setattr__(self, "has_closed_form", alpha.denominator == 1)
        object.__setattr__(self, "alpha_pair", (alpha.numerator, alpha.denominator))

    @classmethod
    def first_price(cls, values: ValueModel) -> "AuctionVariant":
        return cls(Pricing.FIRST_PRICE, values)

    @classmethod
    def all_pay(cls, values: ValueModel, alpha: Numeric = 1) -> "AuctionVariant":
        return cls(Pricing.ALL_PAY, values, alpha)

    @property
    def short_name(self) -> str:
        p = "fp" if self.pricing is Pricing.FIRST_PRICE else "ap"
        v = "set" if self.is_triangular else "fixed"
        return f"{p}-{v}"


FP_SET01 = AuctionVariant.first_price(ValueModel.SET01)
FP_FIXED1 = AuctionVariant.first_price(ValueModel.FIXED1)
AP_SET01 = AuctionVariant.all_pay(ValueModel.SET01, 1)
AP_FIXED1 = AuctionVariant.all_pay(ValueModel.FIXED1, 1)


def check_variant(variant: AuctionVariant) -> None:
    """Raise DomainError unless ``variant`` is an AuctionVariant."""
    if not isinstance(variant, AuctionVariant):
        raise DomainError(f"variant must be an AuctionVariant, got {variant!r}")


@dataclass(frozen=True)
class GameConfig:
    """Static parameters of one contest."""

    variant: AuctionVariant
    turns: int
    budget_p2: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "budget_p2", finite_fraction(self.budget_p2, "budget_p2"))
        check_variant(self.variant)
        check_count(self.turns, "turns")
        if self.budget_p2 <= 0:
            raise DomainError("budget_p2 must be positive")


class _CountdownPair(NamedTuple):
    i: int
    j: int


class CountdownPair(_CountdownPair):
    """How many more value-1 wins each player needs to clinch the game."""

    __slots__ = ()

    def __new__(cls, i: int, j: int):
        self = tuple.__new__(cls, (i, j))
        if i < 0 or j < 0:
            raise DomainError(f"countdown values must be nonnegative: {self}")
        return self

    @classmethod
    def _make(cls, fields) -> "CountdownPair":
        # NamedTuple's _make, which _replace calls, skips __new__.
        return cls(*fields)

    @classmethod
    def fresh(cls, turns: int) -> "CountdownPair":
        return countdown_for(turns, 0, 0, 0)


def countdown_for(turns: int, turn_index: int, score_p1: int, score_p2: int) -> CountdownPair:
    """Countdown pair for the given scores with ``turns - turn_index`` turns left.

    The maximum combined score still achievable is the points already scored
    plus one per remaining turn; each player needs the majority of that.
    Values are clamped at zero (a negative need means the game is over),
    so the pair skips ``CountdownPair.__new__``, whose one check is that.
    """
    achievable = score_p1 + score_p2 + (turns - turn_index)
    h = (achievable + 1) // 2 if achievable > 0 else 0
    i, j = h - score_p1, h - score_p2
    return tuple.__new__(CountdownPair, (i if i > 0 else 0, j if j > 0 else 0))


class _GameState(NamedTuple):
    budget_p1: Fraction
    budget_p2: Fraction
    score_p1: int
    score_p2: int
    turn_index: int
    countdown: CountdownPair


class GameState(_GameState):
    """Live contest state between turns; ``__new__`` makes both budgets Fractions."""

    __slots__ = ()

    def __new__(cls, budget_p1, budget_p2, score_p1, score_p2, turn_index, countdown):
        budget_p1 = finite_fraction(budget_p1, "budget")
        budget_p2 = finite_fraction(budget_p2, "budget")
        if budget_p1._numerator < 0 or budget_p2._numerator < 0:
            raise DomainError("budgets must be nonnegative")
        if score_p1 < 0 or score_p2 < 0:
            raise DomainError("scores must be nonnegative")
        return tuple.__new__(cls, (budget_p1, budget_p2, score_p1, score_p2, turn_index, countdown))

    @classmethod
    def _make(cls, fields) -> "GameState":
        # NamedTuple's _make, which _replace calls, skips __new__.
        return cls(*fields)


def initial_state(config: GameConfig, budget_p1: Numeric) -> GameState:
    b1 = finite_fraction(budget_p1, "budget_p1")
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
    Checks the value, the turn count and both bids, then settles through
    ``_settle``.
    """
    check_value(value, "turn value", config.variant)
    if state.turn_index >= config.turns:
        raise GameDecidedError("all turns already played")
    bid_p1 = finite_fraction(bid_p1, "P1 bid")
    bid_p2 = finite_fraction(bid_p2, "P2 bid")
    if not affordable(bid_p1, state.budget_p1):
        raise OverbidError(f"P1 bid {bid_p1} outside [0, {state.budget_p1}]")
    if not affordable(bid_p2, state.budget_p2):
        raise OverbidError(f"P2 bid {bid_p2} outside [0, {state.budget_p2}]")
    return _settle(config, state, value, bid_p1, bid_p2, at_least(bid_p1, bid_p2))


def _settle(
    config: GameConfig,
    state: GameState,
    value: int,
    bid_p1: Fraction,
    bid_p2: Fraction,
    p1_wins: bool,
) -> GameState:
    """The successor state of a turn whose value and bids are already checked.

    The one copy of the payment, score and countdown step. ``p1_wins``
    must be ``at_least(bid_p1, bid_p2)``. ``settle_turn`` and ``run_game``
    call it after making ``settle_turn``'s checks; the exhaustive sweep
    builds its moves legal (legal values, decided states return first,
    bids capped at P1's budget or checked against P2's).
    """
    an, ad = config.variant.alpha_pair
    b1, b2, s1, s2, idx, _ = state
    if p1_wins:
        b1, b2 = paid(b1, bid_p1), paid(b2, bid_p2, an, ad)
        s1 += value
    else:
        b1, b2 = paid(b1, bid_p1, an, ad), paid(b2, bid_p2)
        s2 += value
    idx += 1
    return GameState(b1, b2, s1, s2, idx, countdown_for(config.turns, idx, s1, s2))


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


class TurnRecord(NamedTuple):
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


def _float(x: Fraction) -> float:
    """The float ``float(x)`` gives, without ``numbers.Rational.__float__``'s dispatch."""
    return x.numerator / x.denominator


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
                "alpha": _float(cfg.variant.alpha),
                "values": cfg.variant.values.value,
                "turns": cfg.turns,
                "b1": _float(self.budget_p1),
                "b2": _float(cfg.budget_p2),
            },
            "turns": [
                {
                    "index": t.index,
                    "value": t.value,
                    "bid_p1": _float(t.bid_p1),
                    "bid_p2": _float(t.bid_p2),
                    "winner": t.winner.value,
                    "budget_p1": _float(t.budget_p1),
                    "budget_p2": _float(t.budget_p2),
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
                "attempted_bid": _float(self.fault.attempted_bid),
                "budget": _float(self.fault.budget),
            }
        return doc

    def to_json(self, indent: int | str | None = None) -> str:
        """``json.dumps(self.to_json_dict(), indent=indent)``, written directly.

        The same bytes for ``indent=None`` and for every int (or string)
        indent: compact objects use ``", "`` and ``": "``, indented ones
        ``","`` and a newline. The turn layout is made once per call as a
        %-template; each amount goes in as ``%r`` of ``_float(x)``, which is
        ``float.__repr__``, as ``json`` writes a float. A turn's four
        amounts are Fractions (``run_game`` records no other kind), so they
        are divided from their slots. An amount beyond float range raises
        ``OverflowError``, as ``to_json_dict`` does.
        """
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent
        cfg, variant, fault = self.config, self.config.variant, self.fault
        config = _json_layout("{", "}", [
            '"pricing": ' + _json_str(variant.pricing.value),
            '"alpha": %r' % _float(variant.alpha),
            '"values": ' + _json_str(variant.values.value),
            '"turns": %d' % cfg.turns,
            '"b1": %r' % _float(self.budget_p1),
            '"b2": %r' % _float(cfg.budget_p2),
        ], 1, indent)
        template = _json_layout("{", "}", _TURN_FIELDS, 2, indent)
        p1, p1_text, p2_text = Player.P1, _json_str(Player.P1.value), _json_str(Player.P2.value)
        turns = _json_layout("[", "]", [
            template % (
                index,
                value,
                bid1._numerator / bid1._denominator,
                bid2._numerator / bid2._denominator,
                p1_text if winner is p1 else p2_text,
                left1._numerator / left1._denominator,
                left2._numerator / left2._denominator,
                score1,
                score2,
            )
            for index, value, bid1, bid2, winner, left1, left2, score1, score2 in self.turns
        ], 1, indent)
        members = [
            '"config": ' + config,
            '"turns": ' + turns,
            '"winner": ' + _json_str(self.winner.value),
            '"reason": ' + _json_str(self.reason),
        ]
        if fault is not None:
            members.append('"fault": ' + _json_layout("{", "}", [
                '"turn_index": %d' % fault.turn_index,
                '"player": ' + _json_str(fault.player.value),
                '"attempted_bid": %r' % _float(fault.attempted_bid),
                '"budget": %r' % _float(fault.budget),
            ], 1, indent))
        return _json_layout("{", "}", members, 0, indent)


# TurnRecord's fields as JSON members, in order: amounts are %r of a float, the winner is JSON text.
_TURN_FIELDS = [
    '"index": %d', '"value": %d', '"bid_p1": %r', '"bid_p2": %r', '"winner": %s',
    '"budget_p1": %r', '"budget_p2": %r', '"score_p1": %d', '"score_p2": %d',
]


def _json_layout(opener: str, closer: str, members: list, level: int, indent: str | None) -> str:
    """A JSON object or array of member texts, laid out as ``json.dumps`` does at this depth."""
    if not members:
        return opener + closer
    if indent is None:
        return opener + ", ".join(members) + closer
    inner = "\n" + indent * (level + 1)
    return opener + inner + ("," + inner).join(members) + "\n" + indent * level + closer
