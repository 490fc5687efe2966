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
tuples of the same fields. A ``GameState`` holds no countdown pair:
readers derive it from the turn count, the turn index and the scores, so
the two cannot disagree. ``_countdown`` states that rule once and returns
a plain tuple; ``countdown_for`` wraps it in a ``CountdownPair``, while
the decided test, ``winner_if_decided``, and the omnipotent adversary
unpack it and build no pair. The three validating
records (``CountdownPair``, ``GameState`` and ``StrategyState``) check
their fields in ``__new__`` on a thin subclass, and ``_replace`` re-checks
through the one ``_make`` of their shared first base, ``_Checked``.
Where that check cannot fail, a record is built with ``tuple.__new__``:
``_settle``'s ``GameState`` (budgets stay >= 0 after checked bids,
counts only grow, and a turn adds at most one to the score sum and one
to the index), the countdown pairs of ``countdown_for`` and
``observe_outcome`` and its ``StrategyState`` (clamped at zero), and
``TurnRecord``, which checks nothing.

Each argument rule is one helper here with one message: ``check_value``
(an int 0 or 1, never a bool; only 1 under a fixed-value variant),
``check_count`` (an int of at least ``least``), ``check_countdowns``,
``check_variant``, ``finite_fraction`` and ``amount``, the sign rule
("must be >= 0", or "must be > 0" if ``positive``, on
``finite_fraction``'s result). ``closed_form``,
``optimal_bid_fraction`` and ``handicap_obr`` guard the call with an
inline class test: they are solve's hot path, where plain calls cost
``obr`` a sixth of its time. Each ratio read is checked once:
``handicap_obr`` checks T and k, then hands the countdown pair it derives
from them, ints with 1 <= i <= j, to the unchecked reader that
``closed_form`` calls after its own checks. No variant is tested on the
way in: that reader and ``matrices.bid_fraction_pair`` catch a
non-variant's AttributeError and refuse it through ``check_variant`` once
the handler ends, so the DomainError chains no context. ``next_bid`` and
``observe_outcome`` guard the turn value the same way, on every playout
and sweep turn, and call ``check_value`` with the variant only for value
0, which a fixed-value variant refuses. Each turn is
checked once: ``settle_turn`` checks the value, the turn count and both
bids, then calls ``_settle``, the one step of payments and scores;
``run_game`` makes the same checks and calls ``_settle`` directly, as
does the sweep.

``GameTrace.to_json(indent)`` writes the same bytes as
``json.dumps(trace.to_json_dict(), indent=indent)`` without building the
dict or running the generic encoder (whose indented form is pure
Python): it lays out the turn object once per call as a %-template and
fills it per turn, writing any amount equal in value to the previous
turn's from that turn's text. ``to_json_dict`` stays as the dict form and
as the reference the tests compare against.
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

    ``UNWINNABLE`` is its one instance, and readers test an entry with
    ``is``. It defines no ordering and no conversion to float, so it can
    never leak into a comparison or into numeric output as an accidental
    infinity.
    """

    __slots__ = ()

    def __repr__(self):
        return "UNWINNABLE"


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


def amount(x: Numeric, name: str, positive: bool = False) -> Fraction:
    """``finite_fraction(x, name)``, with DomainError naming ``name`` unless it is >= 0 (> 0 if ``positive``)."""
    f = x if type(x) is Fraction else finite_fraction(x, name)
    if positive:
        if f._numerator <= 0:
            raise DomainError(f"{name} must be > 0, got {x}")
    elif f._numerator < 0:
        raise DomainError(f"{name} must be >= 0, got {x}")
    return f


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
        object.__setattr__(self, "budget_p2", amount(self.budget_p2, "budget_p2", positive=True))
        check_variant(self.variant)
        check_count(self.turns, "turns")


class _Checked:
    """First base of a checked record: ``_make`` (so ``_replace``) goes through ``__new__``, as NamedTuple's does not."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _CountdownPair(NamedTuple):
    i: int
    j: int


class CountdownPair(_Checked, _CountdownPair):
    """How many more value-1 wins each player needs to clinch the game."""

    __slots__ = ()

    def __new__(cls, i: int, j: int):
        check_count(i, "countdown i", 0)
        check_count(j, "countdown j", 0)
        return tuple.__new__(cls, (i, j))


def _countdown(turns: int, turn_index: int, score_p1: int, score_p2: int) -> tuple[int, int]:
    """The countdown rule: the clamped (i, j) for these scores with ``turns - turn_index`` turns left.

    The maximum combined score still achievable is the points already scored
    plus one per remaining turn; each player needs the majority of that.
    Values are clamped at zero (a negative need means the game is over).
    A plain tuple, for readers that only unpack it.
    """
    achievable = score_p1 + score_p2 + (turns - turn_index)
    h = (achievable + 1) // 2 if achievable > 0 else 0
    i, j = h - score_p1, h - score_p2
    return i if i > 0 else 0, j if j > 0 else 0


def countdown_for(turns: int, turn_index: int, score_p1: int, score_p2: int) -> CountdownPair:
    """Countdown pair for the given scores with ``turns - turn_index`` turns left.

    ``_countdown``'s clamped (i, j) as a ``CountdownPair``. Both are clamped
    at zero, so the pair skips ``CountdownPair.__new__``, whose one check
    is that.
    """
    return tuple.__new__(CountdownPair, _countdown(turns, turn_index, score_p1, score_p2))


class _GameState(NamedTuple):
    budget_p1: Fraction
    budget_p2: Fraction
    score_p1: int
    score_p2: int
    turn_index: int


class GameState(_Checked, _GameState):
    """Live contest state between turns, countdown not stored; ``__new__`` makes both budgets Fractions."""

    __slots__ = ()

    def __new__(cls, budget_p1, budget_p2, score_p1, score_p2, turn_index):
        budget_p1 = amount(budget_p1, "budget_p1")
        budget_p2 = amount(budget_p2, "budget_p2")
        check_count(score_p1, "score_p1", 0)
        check_count(score_p2, "score_p2", 0)
        check_count(turn_index, "turn_index", 0)
        if score_p1 + score_p2 > turn_index:  # no game reaches it: a turn scores at most one point
            raise DomainError(f"scores must sum to at most turn_index {turn_index}, got {score_p1} + {score_p2}")
        return tuple.__new__(cls, (budget_p1, budget_p2, score_p1, score_p2, turn_index))


def initial_state(config: GameConfig, budget_p1: Numeric) -> GameState:
    return GameState(budget_p1, config.budget_p2, 0, 0, 0)


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

    The one copy of the payment and score step. ``p1_wins`` must be
    ``at_least(bid_p1, bid_p2)``. ``settle_turn`` and ``run_game`` call it
    after making ``settle_turn``'s checks; the exhaustive sweep builds its
    moves legal (legal values, decided states return first, bids capped at
    P1's budget or checked against P2's). So budgets stay >= 0, counts only
    grow, and the score sum, which gains at most one, stays within the
    index, which gains one: the successor skips ``GameState.__new__``'s checks.
    """
    an, ad = config.variant.alpha_pair
    b1, b2, s1, s2, idx = state
    if p1_wins:
        b1, b2 = paid(b1, bid_p1), paid(b2, bid_p2, an, ad)
        s1 += value
    else:
        b1, b2 = paid(b1, bid_p1, an, ad), paid(b2, bid_p2)
        s2 += value
    return tuple.__new__(GameState, (b1, b2, s1, s2, idx + 1))


def winner_if_decided(config: GameConfig, state: GameState) -> Player | None:
    """The winner if the game is already decided, else None.

    P1's countdown is checked first, so a double zero (an exact split of
    the achievable score) goes to the dealer, matching the tie rule; once
    the turns run out, one is zero. The pair is ``countdown_for``'s,
    unpacked from ``_countdown`` without building a ``CountdownPair``.

    Reaching a countdown of zero is decisive by convention, everywhere.
    For value-set contests this is also exact: an adversary at her
    threshold zeroes every remaining turn and finishes strictly ahead.
    In a fixed-value contest with an even turn count she cannot do that,
    and raw score-counting would let P1 pull the final scores level; the
    countdown model still scores that game for P2. All win guarantees in
    this package are with respect to this (conservative for P1) rule.
    """
    _, _, s1, s2, idx = state
    i, j = _countdown(config.turns, idx, s1, s2)
    if i == 0:
        return Player.P1
    return Player.P2 if j == 0 else None


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
        %-template; each amount goes in as ``float.__repr__`` of
        ``_float(x)``, as ``json`` writes a float. A turn's four amounts are
        Fractions (``run_game`` records no other kind), so they are divided
        from their slots. Each amount field keeps the previous turn's slots
        and text, and divides and formats again only when either slot
        differs: equal slots are the same number, so the same text. The
        slots are compared as ints, not through ``Fraction.__eq__``; every
        Fraction the package makes is reduced, so an equal value has equal
        slots. An amount beyond float range raises ``OverflowError``, as
        ``to_json_dict`` does.
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
        rows = []
        # Per amount field, the previous turn's slots (n, d) and their text.
        bn1 = bd1 = bn2 = bd2 = ln1 = ld1 = ln2 = ld2 = bt1 = bt2 = lt1 = lt2 = None
        for index, value, bid1, bid2, winner, left1, left2, score1, score2 in self.turns:
            n, d = bid1._numerator, bid1._denominator
            if n != bn1 or d != bd1:
                bn1, bd1, bt1 = n, d, repr(n / d)
            n, d = bid2._numerator, bid2._denominator
            if n != bn2 or d != bd2:
                bn2, bd2, bt2 = n, d, repr(n / d)
            n, d = left1._numerator, left1._denominator
            if n != ln1 or d != ld1:
                ln1, ld1, lt1 = n, d, repr(n / d)
            n, d = left2._numerator, left2._denominator
            if n != ln2 or d != ld2:
                ln2, ld2, lt2 = n, d, repr(n / d)
            rows.append(template % (
                index, value, bt1, bt2, p1_text if winner is p1 else p2_text, lt1, lt2, score1, score2,
            ))
        turns = _json_layout("[", "]", rows, 1, indent)
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


# TurnRecord's fields as JSON members, in order: the winner, and the four
# amounts as float.__repr__ text, go in as %s.
_TURN_FIELDS = [
    '"index": %d', '"value": %d', '"bid_p1": %s', '"bid_p2": %s', '"winner": %s',
    '"budget_p1": %s', '"budget_p2": %s', '"score_p1": %d', '"score_p2": %d',
]


def _json_layout(opener: str, closer: str, members: list, level: int, indent: str | None) -> str:
    """A JSON object or array of member texts, laid out as ``json.dumps`` does at this depth."""
    if not members:
        return opener + closer
    if indent is None:
        return opener + ", ".join(members) + closer
    inner = "\n" + indent * (level + 1)
    return opener + inner + ("," + inner).join(members) + "\n" + indent * level + closer
