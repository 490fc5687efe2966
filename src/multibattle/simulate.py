"""Game playouts: policies, adversaries, traces, and the exhaustive sweep.

``run_game`` drives one contest between a P1 policy and an adversary and
returns a schema-stable GameTrace; identical inputs and seed give a
byte-identical JSON trace. ``exhaustive_adversary_check`` plays the
strategy policy against an adversary that picks any value, then concedes
or plays the cheapest winning grid bid (dearer bids are dominated), and
either certifies a win in all lines or returns one losing trace.

Adversaries see the full public state, including P1's remaining budget,
and all of them except the seeded-random one also see P1's bid for the
current turn before bidding (the omniscient worst-case model). P1
observes only its own bids: a policy's ``observe`` never gets P2's bid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ContestError,
    DomainError,
    FaultRecord,
    GameConfig,
    GameDecidedError,
    GameState,
    GameTrace,
    Numeric,
    Player,
    ResourceError,
    TurnRecord,
    UnwinnableStateError,
    ZERO,
    _fraction,
    _settle,
    affordable,
    at_least,
    check_count,
    check_value,
    finite_fraction,
    initial_state,
    settle_turn,
    winner_if_decided,
)
# This module calls neither build_matrix nor optimal_bid_fraction, but
# perfbench/tracing.py wraps both under this module's names, so they stay.
from .matrices import build_matrix  # noqa: F401
from .oracle import GridEvaluator
from .strategy import StrategyState, next_bid, observe_outcome, optimal_bid_fraction  # noqa: F401

# run_game keeps one TurnRecord per turn played: about 0.35 KB with its amounts.
MAX_GAME_TURNS = 100_000
# The sweep recurses one frame per turn; this leaves its callers room under
# CPython's default limit of 1000 frames.
MAX_SWEEP_TURNS = 800


def _policy_bid(s: StrategyState, value: int, budget: Fraction) -> Fraction:
    """The strategy's bid, capped at the budget P1 holds.

    Where the strategy cannot plan (``next_bid`` raises GameDecidedError
    or UnwinnableStateError, by the strategy's own rule) it bids zero.
    """
    try:
        bid = next_bid(s, value)
    except (GameDecidedError, UnwinnableStateError):
        return ZERO
    if type(budget) is not Fraction:
        budget = finite_fraction(budget, "amount")
    return bid if at_least(budget, bid) else budget


class StrategyPolicy:
    """P1 policy wrapping the matrix-guided bidding strategy.

    Bids are capped at the remaining budget; with a starting budget at or
    above the variant's optimal ratio the cap never binds, below it the
    policy degrades gracefully instead of overbidding (see ``_policy_bid``).
    """

    _state: StrategyState | None = None

    def begin(self, config: GameConfig, budget_p1: Fraction) -> None:
        self._state = StrategyState.fresh(config.variant, config.turns, config.budget_p2)

    def bid(self, state: GameState, value: int) -> Fraction:
        return _policy_bid(self._state, value, state.budget_p1)

    def observe(self, value: int, my_bid: Fraction, i_won: bool) -> None:
        self._state = observe_outcome(self._state, value, my_bid, i_won)


class AllInAdversary:
    """Always plays value 1 and bids the whole remaining budget on it."""

    def begin(self, config: GameConfig, budget_p1: Fraction) -> None:
        pass

    def choose_value(self, state: GameState, rng: random.Random) -> int:
        return 1

    def choose_bid(self, state: GameState, value: int, p1_bid: Fraction, rng) -> Fraction:
        return state.budget_p2 if value == 1 else ZERO


class MatchPlusEpsilonAdversary:
    """Outbids P1 by a fixed epsilon whenever it can afford to."""

    def __init__(self, epsilon: Numeric = Fraction(1, 100)):
        self.epsilon = finite_fraction(epsilon, "epsilon")
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")

    def begin(self, config: GameConfig, budget_p1: Fraction) -> None:
        pass

    def choose_value(self, state: GameState, rng: random.Random) -> int:
        return 1

    def choose_bid(self, state: GameState, value: int, p1_bid: Fraction, rng) -> Fraction:
        if value == 0:
            return ZERO
        p, e = finite_fraction(p1_bid, "amount"), self.epsilon
        pd, ed = p._denominator, e._denominator
        raised = _fraction(p._numerator * ed + e._numerator * pd, pd * ed)
        return raised if at_least(state.budget_p2, raised) else ZERO


class RandomSeededAdversary:
    """Uniform random values and grid-random bids from a seeded generator.

    Uses Python's Mersenne Twister (``random.Random``) seeded by
    ``run_game``, so traces are reproducible across platforms. Bids are a
    uniform random multiple of budget/denominator, keeping every trace
    number rational.
    """

    def __init__(self, bid_denominator: int = 16):
        check_count(bid_denominator, "bid denominator")
        self.bid_denominator = bid_denominator

    def begin(self, config: GameConfig, budget_p1: Fraction) -> None:
        pass

    def choose_value(self, state: GameState, rng: random.Random) -> int:
        return rng.randrange(2)

    def choose_bid(self, state: GameState, value: int, p1_bid: Fraction, rng) -> Fraction:
        d, b = self.bid_denominator, state.budget_p2
        return _fraction(rng.randint(0, d) * b._numerator, d * b._denominator)


class OmnipotentAdversary:
    """Best response computed by the exact grid oracle at each turn.

    Oracle queries floor both budgets onto the bid grid (the adversary's
    aggressive reading of off-grid amounts). Against P1's bid it settles
    the turn with ``settle_turn`` and concedes if that leaves P1 lost,
    else bids one grid step above P1 if affordable and that leaves P1
    lost, else concedes. Values: it prefers a value it can win under,
    trying 1 first, and plays value 1 when the oracle sees no win anywhere.
    """

    def __init__(self, grid_unit: Numeric | None = None):
        self.grid_unit = None if grid_unit is None else finite_fraction(grid_unit, "grid_unit")
        if self.grid_unit is not None and self.grid_unit <= 0:
            raise DomainError("grid_unit must be positive")
        self._ev: GridEvaluator | None = None
        self._config: GameConfig | None = None
        self._grid: Fraction | None = None

    def begin(self, config: GameConfig, budget_p1: Fraction) -> None:
        self._config = config
        self._grid = self.grid_unit or 1 / (8 * config.budget_p2)
        if self._ev is None or self._ev.variant != config.variant:
            self._ev = GridEvaluator(config.variant)

    def _grid_steps(self, amount: Fraction) -> int:
        """How many whole grid units a nonnegative ``amount`` holds."""
        g = self._grid
        return (amount.numerator * g.denominator) // (amount.denominator * g.numerator)

    def _p1_wins(self, state: GameState, value: int | None = None) -> bool:
        """The oracle's verdict on ``state``, with this turn's value fixed if given."""
        cd, steps = state.countdown, self._grid_steps
        return self._ev.win(self._config.turns - state.turn_index, cd.i, cd.j,
                            steps(state.budget_p1), steps(state.budget_p2), value)

    def choose_value(self, state: GameState, rng: random.Random) -> int:
        for value in (1, 0):
            if not self._p1_wins(state, value):
                return value
        return 1

    def choose_bid(self, state: GameState, value: int, p1_bid: Fraction, rng) -> Fraction:
        if value == 0:
            return ZERO
        if not self._p1_wins(settle_turn(self._config, state, 1, p1_bid, ZERO)):
            return ZERO
        q = self._grid * (self._grid_steps(finite_fraction(p1_bid, "amount")) + 1)
        if at_least(state.budget_p2, q) and not self._p1_wins(
            settle_turn(self._config, state, 1, p1_bid, q)
        ):
            return q
        return ZERO


class _ScriptedAdversary:
    """Replays a fixed (value, bid) line; used to materialize traces."""

    def __init__(self, moves):
        self._moves = list(moves)
        self._at = 0

    def begin(self, config: GameConfig, budget_p1: Fraction) -> None:
        self._at = 0

    def choose_value(self, state: GameState, rng: random.Random) -> int:
        return self._moves[self._at][0] if self._at < len(self._moves) else 1

    def choose_bid(self, state: GameState, value: int, p1_bid: Fraction, rng) -> Fraction:
        q = self._moves[self._at][1] if self._at < len(self._moves) else ZERO
        self._at += 1
        return q


def run_game(config: GameConfig, budget_p1: Numeric, p1, p2, seed: int = 0) -> GameTrace:
    """Play one contest to its decision and return the trace.

    Deterministic given (config, budget_p1, policies, seed). A policy
    emitting a bid outside [0, its remaining budget] ends the game with a
    fault attributed to it; the other player wins. A game longer than
    ``MAX_GAME_TURNS`` raises ResourceError before any turn is played.
    """
    if config.turns > MAX_GAME_TURNS:
        raise ResourceError(f"game of {config.turns} turns exceeds the playout ceiling of {MAX_GAME_TURNS} turns")
    b1 = finite_fraction(budget_p1, "budget_p1")
    rng = random.Random(seed)
    state = initial_state(config, b1)
    p1.begin(config, b1)
    p2.begin(config, b1)
    fixed_value = not config.variant.is_triangular
    P1, P2 = Player.P1, Player.P2  # an Enum member lookup costs more than a local
    records: list[TurnRecord] = []
    fault = None
    while True:
        decided = winner_if_decided(config, state)
        if decided is not None:
            winner = decided
            reason = "countdown" if state.turn_index < config.turns else "exhausted"
            break
        if fixed_value:
            value = 1
        else:
            value = p2.choose_value(state, rng)
            check_value(value, "adversary value")
        p_bid = p1.bid(state, value)
        if type(p_bid) is not Fraction:
            p_bid = finite_fraction(p_bid, "P1 bid")
        if not affordable(p_bid, state.budget_p1):
            fault = FaultRecord(state.turn_index, P1, p_bid, state.budget_p1)
            winner, reason = P2, "fault"
            break
        q_bid = p2.choose_bid(state, value, p_bid, rng)
        if type(q_bid) is not Fraction:
            q_bid = finite_fraction(q_bid, "P2 bid")
        if not affordable(q_bid, state.budget_p2):
            fault = FaultRecord(state.turn_index, P2, q_bid, state.budget_p2)
            winner, reason = P1, "fault"
            break
        # run_game has now made every check settle_turn makes: the value
        # above, the turn count in winner_if_decided, both bids here.
        # TurnRecord checks nothing, so it is built without its __new__.
        p1_wins = at_least(p_bid, q_bid)
        new_state = _settle(config, state, value, p_bid, q_bid, p1_wins)
        left1, left2, score1, score2, _, _ = new_state
        records.append(tuple.__new__(TurnRecord, (
            state.turn_index, value, p_bid, q_bid, P1 if p1_wins else P2, left1, left2, score1, score2,
        )))
        p1.observe(value, p_bid, p1_wins)
        state = new_state
    return GameTrace(
        config=config,
        budget_p1=b1,
        turns=tuple(records),
        winner=winner,
        reason=reason,
        fault=fault,
    )


@dataclass(frozen=True)
class AdversarySweepVerdict:
    """Result of the exhaustive adversary enumeration."""

    win_all: bool
    counterexample: GameTrace | None
    states_explored: int


def _least_above(p: Fraction, bound: int) -> Fraction:
    """The least rational above ``p >= 0`` whose denominator is at most ``bound``.

    A Stern-Brocot descent: lo = ln/ld <= p < hi = hn/hd are Farey
    neighbours, so no rational between them has a denominator below
    ld + hd; once that exceeds ``bound``, hi is the answer. Each step takes
    every mediant step toward p that p and the bound allow: O(log bound).
    """
    pn, pd = p.numerator, p.denominator
    ln, ld, hn, hd = pn // pd, 1, pn // pd + 1, 1
    while ld + hd <= bound:
        below, above = pn * ld - ln * pd, hn * pd - pn * hd  # p - lo >= 0 and hi - p > 0, scaled
        if below >= above:  # the mediant is at most p: raise lo
            k = min(below // above, (bound - ld) // hd)
            ln, ld = ln + k * hn, ld + k * hd
        else:  # the mediant is above p: lower hi
            k = min((above - 1) // below if below else bound, (bound - hd) // ld)
            hn, hd = hn + k * ln, hd + k * ld
    return _fraction(hn, hd)


def exhaustive_adversary_check(
    config: GameConfig,
    budget_p1: Numeric,
    denominator_bound: int,
    max_states: int = 2_000_000,
) -> AdversarySweepVerdict:
    """Check the strategy policy against every adversary line on a bid grid.

    Each turn the adversary plays any value; on value 1 it concedes or
    plays the cheapest winning bid on its grid (rationals with denominator
    at most ``denominator_bound * b2``) that it can afford. Returns a
    win-all verdict or one losing trace. P1 takes every move, zero-value
    turns included, from ``_policy_bid`` and ``observe_outcome``, like
    ``StrategyPolicy``. Successors come from ``core._settle``, as in
    ``run_game``: each move is built legal (see the comment in ``explore``).

    Other adversary moves are dominated. Nonzero bids that lose, or on a
    zero-value turn, only waste adversary budget. After any winning bid
    P1's budget, scores and strategy state are the same (P1 observes only
    its own bids); only the adversary's budget differs, and a poorer
    adversary's lines are a subset of a richer one's. So if the cheapest
    winning bid has no losing line, no dearer one has. That bid is
    computed, not looked up in a built grid: O(log(``denominator_bound *
    b2``)) integer steps per contested state.

    Measured at the optimal ratio with a bound of 8 on fp-set, fp-fixed,
    ap-set, ap-fixed, ap-set alpha=1/3 and ap-fixed alpha=1/2 (2-vCPU
    Xeon, CPython 3.11): at most 232 states at T = 9, 807 at T = 11 and
    3.0k at T = 13, each under 0.3 s. The memo is capped at
    ``max_states``; overruns raise ResourceError with progress counts. A
    game above ``MAX_SWEEP_TURNS`` turns raises ResourceError, and a
    ``denominator_bound`` that is neither an int nor a Fraction (a bool
    included), a ``max_states`` that is no int (a bool included) or below
    1, or a ``denominator_bound * b2`` that is no positive integer,
    DomainError, before any state is explored.
    """
    if config.turns > MAX_SWEEP_TURNS:
        raise ResourceError(f"sweep of {config.turns} turns exceeds the depth ceiling of {MAX_SWEEP_TURNS} turns")
    if denominator_bound.__class__ not in (int, Fraction):
        raise DomainError(f"denominator bound must be an int or a Fraction, got {denominator_bound!r}")
    check_count(max_states, "max_states")
    bound_frac = denominator_bound * config.budget_p2
    if bound_frac.denominator != 1 or bound_frac < 1:
        raise DomainError(
            f"denominator bound {denominator_bound} times b2={config.budget_p2} "
            "must be a positive integer"
        )
    bound = bound_frac.numerator
    values = (0, 1) if config.variant.is_triangular else (1,)

    MISS = object()
    memo: dict = {}

    def explore(state, policy):
        """None when P1 wins every line below ``state``; else the losing line.

        The memo key holds the state's budgets and P1's tracked budget as
        integer pairs, plus the scores and turn index. Both countdowns
        follow from the scores and turn index, so they are left out.
        """
        decided = winner_if_decided(config, state)
        if decided is not None:
            return None if decided is Player.P1 else ()
        b1, b2, s1, s2, idx, _ = state
        b = policy.tracked_opponent_budget
        key = (b1._numerator, b1._denominator, b2._numerator, b2._denominator, s1, s2, idx,
               b._numerator, b._denominator)
        hit = memo.get(key, MISS)
        if hit is not MISS:
            return hit
        if len(memo) >= max_states:
            raise ResourceError(
                f"exhaustive sweep exceeded {max_states} states "
                f"(remaining={config.turns - idx}, scores {s1}-{s2})"
            )
        # Settled by _settle, as in run_game, not re-checked by settle_turn: each
        # value is legal, a decided state has returned above, _policy_bid caps
        # P1's bid at its budget, and a beat bid q passes at_least(budget_p2, q).
        line = None
        for value in values:
            p = _policy_bid(policy, value, b1)
            conceded = _settle(config, state, value, p, ZERO, True)
            sub = explore(conceded, observe_outcome(policy, value, p, True))
            if sub is not None:
                line = ((value, ZERO),) + sub
                break
            if value:
                # Beat P1 with the cheapest grid bid above its own; dearer ones are dominated.
                q = _least_above(p, bound)
                if at_least(b2, q):
                    sub = explore(_settle(config, state, 1, p, q, False), observe_outcome(policy, 1, p, False))
                    if sub is not None:
                        line = ((1, q),) + sub
        memo[key] = line
        return line

    line = explore(
        initial_state(config, budget_p1), StrategyState.fresh(config.variant, config.turns, config.budget_p2)
    )
    if line is None:
        return AdversarySweepVerdict(True, None, len(memo))
    trace = run_game(config, budget_p1, StrategyPolicy(), _ScriptedAdversary(line), seed=0)
    if trace.winner is not Player.P2:
        raise ContestError(
            "internal inconsistency: enumerated losing line did not replay to a P2 win"
        )
    return AdversarySweepVerdict(False, trace, len(memo))
