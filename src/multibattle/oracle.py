"""Exact min-max decision procedure over grid-restricted bids.

Every bid is an integer multiple of a grid unit. Each turn the adversary
picks the value (value-set games), P1 bids knowing the value, then P2 bids
knowing P1's bid; she needs one grid unit more than P1 to take the turn,
which realizes the "epsilon more" of the continuous analysis exactly.

The search memoizes on (remaining turns, countdown pair, budgets): scores
influence the rest of the game only through the countdown pair, so these
decide a position. The memo is nested in that order, first by remaining
turns and countdown pair, then by P2's and P1's budgets as integers (see
GridEvaluator), so the inner loop over P1's bids looks budgets up in rows
it fetched once and hands to the children it expands, which store into
them. Two reductions keep the tree small without giving up exactness:

* Zero-value turns are settled without bids. Winning one changes no score
  and the countdown shift does not depend on the winner, so any nonzero
  bid strictly wastes the bidder's own budget.
* P2's responses collapse to two: concede (bid 0) or beat P1's bid by one
  unit. Losing bids above zero and winning bids above the minimum only
  cost her more, and winnability is monotone in budgets.

Monotonicity also ends a lost node early: once the concede child of one
bid loses, so does that of every dearer bid, and no beat child is asked
after it. The node stops there and only expands the concede children of
the dearer bids that its row still lacks, so the nodes expanded, and the
order they are expanded in, stay those of the full bid loop.

This module is the ground truth the matrices and the strategy are checked
against on small instances, and the brain of the simulator's omnipotent
adversary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    AuctionVariant,
    CountdownPair,
    DomainError,
    GameState,
    Numeric,
    ResourceError,
    check_count,
    check_countdowns,
    check_value,
    check_variant,
    finite_fraction,
)


# An evaluator raises ResourceError when its expanded (stored) nodes reach
# this: about 100 MB of memo at ~50 bytes a node.
MAX_NODES = 2_000_000
# The search recurses up to two frames per remaining turn; this leaves its
# callers room under CPython's default limit of 1000 frames.
MAX_TURNS = 400


class GridEvaluator:
    """Reusable memoized evaluator for one variant, in grid units.

    Budgets and bids are integers of grid units, except that under all-pay
    with fractional alpha = an/d a lost turn costs P1 ``an/d`` of its bid,
    so its budget lives on the finer grid of 1/d units. Internally P1's
    budget is held scaled by d, as the integer ``A = a * d``: conceding a
    bid p leaves ``A - p * d``, losing an all-pay turn leaves ``A - an * p``
    (an = 0 under first-price, where d = 1), and P1 can bid at most
    ``A // d``. A budget off the 1/d grid raises DomainError.

    The memo is nested: ``(remaining, i, j)`` maps to P2's budget ``b``,
    which maps to a row, a dict from ``A`` to the verdict. Scores enter a
    position only through the countdown pair, so these five integers
    decide it, and no key tuple is kept per position. An expanded node
    fetches, or makes, its concede row ``(remaining - 1, i - 1, j)[b]``
    and its beat table ``(remaining - 1, i, j - 1)`` once; each bid then
    costs integer-keyed lookups, with no key tuple built per bid, and a
    child it expands is handed its row and stores its verdict there. A
    child with no turns left is settled by the tie rule and never stored.

    The concede children of a node's bids run down one residue of ``A``
    mod d: ``A``, ``A - d``, ... A node is lost once one of them loses,
    and then expands the rest of that run, its monotone tail, down to the
    bottom of the residue. So a row keeps, under the negative key
    ``-1 - (A mod d)``, a watermark per residue: every position of the
    residue at or below it is in the row, and a later tail stops there.

    ``win`` is the one query. The memo persists across calls, so a single
    evaluator can serve a whole budget search or a whole simulated game, up
    to ``MAX_NODES`` nodes.
    """

    def __init__(self, variant: AuctionVariant):
        check_variant(variant)
        self.variant = variant
        self._an, self._d = variant.alpha_pair  # first-price variants carry alpha = 0: an = 0, d = 1
        self._set01 = variant.is_triangular
        # (remaining, i, j) -> b -> row; a lookup makes a missing table or row.
        self._memo: defaultdict = defaultdict(lambda: defaultdict(dict))
        self._query = (0, 0)  # (remaining, b) of the current win call, for the node-ceiling message
        self.nodes_expanded = 0

    def _scaled(self, a) -> int:
        """P1's budget ``a`` (grid units) as an integer count of 1/d units."""
        if a.__class__ is int:
            return a * self._d
        scaled = finite_fraction(a, "P1 budget") * self._d
        if scaled.denominator != 1:
            raise DomainError(f"P1 budget {a} is not a multiple of 1/{self._d} grid unit")
        return scaled.numerator

    def win(self, remaining: int, i: int, j: int, a, b: int, value: int | None = None) -> bool:
        """True iff P1 forces a win with ``remaining`` turns left.

        ``a`` and ``b`` are the players' budgets in grid units, ``b`` an int;
        ``value``, if given, fixes this turn's value (an int, 0 or 1) before
        P1 bids. A negative budget or ``remaining``, a ``remaining``, ``i``,
        ``j`` or ``b`` that is not an int (a bool included), a bool ``a``, any
        other value or one with no turn left raises DomainError. More than
        ``MAX_TURNS`` remaining turns raise ResourceError.
        """
        if b.__class__ is not int:
            raise DomainError(f"P2 budget must be an int of grid units, got {b!r}")
        check_countdowns(i, j)
        check_count(remaining, "turns left", 0)
        if value is not None:
            check_value(value)
            if not remaining:
                raise DomainError("no turn left to evaluate a pending value for")
        if remaining > MAX_TURNS:
            raise ResourceError(f"grid oracle depth ceiling is {MAX_TURNS} turns, asked for {remaining}")
        A = self._scaled(a)
        if A < 0 or b < 0:
            raise DomainError("budgets must be nonnegative")
        self._query = (remaining, b)
        if value is None or i <= 0 or j <= 0:
            return self._win(remaining, i, j, A, b)
        if value == 0:
            shift = 1 if i + j == remaining + 1 else 0
            return self._win(remaining - 1, i - shift, j - shift, A, b)
        return self._expand(remaining, i, j, A, b, None)

    def _win(self, remaining: int, i: int, j: int, A: int, b: int) -> bool:
        if i <= 0:
            return True
        if j <= 0:
            return False
        if remaining <= 0:
            # Unreachable from consistent states; fall back to the score
            # tie rules (i <= j means P1 is not behind).
            return i <= j
        row = self._memo[remaining, i, j][b]
        won = row.get(A)
        if won is None:
            won = self._expand(remaining, i, j, A, b, row)
        return won

    def _expand(self, remaining: int, i: int, j: int, A: int, b: int, row: dict | None) -> bool:
        """Solve, count and store in ``row`` a position with i, j >= 1 not in it.

        ``row`` is the position's memo row ``(remaining, i, j)[b]``, made by
        the caller. ``row=None`` solves only a turn whose value is already
        1, uncounted and unstored (for ``win`` with ``value=1``).
        """
        # The hot loop. Children are queried in the order concede, beat,
        # with P1's bid p ascending. Every concede child lives in the row
        # (r, i - 1, j)[b] and every beat child in the table (r, i, j - 1),
        # so both are fetched (or made) once and handed to the children,
        # which store into them.
        top = A // self._d  # P1's largest bid
        r = remaining - 1
        if r <= 0:
            # Every child is settled by the tie rule: P1 wins a conceded
            # turn iff i - 1 <= j and a beaten one iff i <= j - 1.
            won = i <= j + 1 and (top >= b or i < j)
        else:
            won = False
            memo, expand, d, an = self._memo, self._expand, self._d, self._an
            i1, j1 = i - 1, j - 1
            # No child to query: a concede at i = 1 hands P1 the game, a beat at j = 1 P2.
            concede = memo[r, i1, j][b] if i1 else None
            beat = memo[r, i, j1] if j1 else None
            for p in range(top + 1):
                if concede is not None:
                    # P2 concedes: P1 pays its bid, P2 pays nothing.
                    a1 = A - p * d
                    child = concede.get(a1)
                    if child is None:
                        child = expand(r, i1, j, a1, b, concede)
                    if not child:
                        # Lost: every dearer bid's concede child has less
                        # budget, so it loses too. The full loop would still
                        # expand those children, so expand, in its order, the
                        # ones the row lacks: a1 - d, a1 - 2d, ... down to the
                        # row's watermark for this residue of A mod d, kept
                        # under key -1 - (A mod d). Their subtrees lie below
                        # remaining r, so only this walk adds to the row.
                        mark = -1 - a1 % d
                        low = concede.get(mark, -1)
                        for a2 in range(a1 - d, low, -d):
                            if a2 not in concede:
                                expand(r, i1, j, a2, b, concede)
                        if A > low:  # bids 0..p stored A down to a1, the walk the rest
                            concede[mark] = A
                        break
                if p < b:
                    # P2 beats the bid by one unit.
                    if beat is None:
                        continue
                    a1, b1 = A - an * p, b - p - 1
                    child_row = beat[b1]
                    child = child_row.get(a1)
                    if child is None:
                        child = expand(r, i, j1, a1, b1, child_row)
                    if not child:
                        continue
                won = True
                break
        if row is None:
            return won
        self.nodes_expanded += 1
        if self.nodes_expanded >= MAX_NODES:
            raise ResourceError("grid oracle reached its ceiling of %d expanded nodes at turns=%d, b2=%d grid "
                                "units; use fewer turns or a smaller b2" % (MAX_NODES, *self._query))
        if won and self._set01:
            # The zero-value turn: no bids, and the countdown shift does
            # not depend on who takes it.
            shift = 1 if i + j == remaining + 1 else 0
            won = self._win(r, i - shift, j - shift, A, b)
        row[A] = won
        return won


@dataclass(frozen=True)
class OracleInstance:
    """A grid-bid game: budgets must be integer multiples of grid_unit."""

    variant: AuctionVariant
    turns: int
    b1: Fraction
    b2: Fraction
    grid_unit: Fraction = Fraction(1)

    def __post_init__(self):
        check_variant(self.variant)
        for name in ("b1", "b2", "grid_unit"):
            object.__setattr__(self, name, finite_fraction(getattr(self, name), name))
        check_count(self.turns, "turns")
        if self.grid_unit <= 0:
            raise DomainError("grid_unit must be positive")
        if self.b1 < 0 or self.b2 < 0:
            raise DomainError("budgets must be nonnegative")
        self._units(self.b1)
        self._units(self.b2)

    def _units(self, amount: Fraction) -> int:
        q = amount / self.grid_unit
        if q.denominator != 1:
            raise DomainError(f"{amount} is not a multiple of grid unit {self.grid_unit}")
        return q.numerator


@dataclass(frozen=True)
class OracleResult:
    can_win: bool
    nodes_expanded: int


def evaluate(
    inst: OracleInstance,
    state: GameState | None = None,
    pending_value: int | None = None,
) -> OracleResult:
    """Exact win/loss evaluation from the start or from a mid-game state.

    ``pending_value`` evaluates the position where this turn's value is
    already fixed and P1 is about to bid: one ``GridEvaluator.win`` query,
    which needs a turn left. A fixed-value variant takes only a value of 1.
    """
    if state is None:
        state = GameState(inst.b1, inst.b2, 0, 0, 0, CountdownPair.fresh(inst.turns))
    if state.turn_index > inst.turns:
        raise DomainError("state has more turns than the instance")
    remaining, (i, j) = inst.turns - state.turn_index, state.countdown
    # After a lost all-pay turn P1's budget may sit on the finer 1/d grid,
    # which the evaluator checks; P2's stays on the unit grid.
    a, b = state.budget_p1 / inst.grid_unit, inst._units(state.budget_p2)
    if pending_value is not None:
        check_value(pending_value, "pending value", inst.variant)
    ev = GridEvaluator(inst.variant)
    won = ev.win(remaining, i, j, a, b, pending_value)
    return OracleResult(won, ev.nodes_expanded)


def p1_can_win(
    inst: OracleInstance,
    state: GameState | None = None,
    pending_value: int | None = None,
) -> bool:
    return evaluate(inst, state, pending_value).can_win


@dataclass(frozen=True)
class MinBudgetResult:
    """Smallest winning P1 budget, in grid units and as a ratio to b2."""

    b_star: int
    budget: Fraction
    ratio: Fraction
    nodes_expanded: int


def min_winning_budget(
    variant: AuctionVariant,
    turns: int,
    b2: Numeric,
    grid_unit: Numeric = 1,
    ceiling: Numeric | None = None,
    method: str = "linear",
) -> MinBudgetResult:
    """Search the smallest P1 budget (in grid units) that wins.

    The scan starts at zero: against weak enough opponents even an
    all-zero-bids P1 can win on ties, so the corner is real. Winnability is
    monotone in P1's budget, so the first win is the least winning budget,
    and the queries share one evaluator's memo. The scan is capped at
    ``ceiling`` (budget amount, default 4 * b2, above every variant's
    limiting ratio); running past it raises ResourceError, and a negative
    ceiling raises DomainError before any search. ``method`` is
    validated: both ``"linear"`` and ``"bisect"`` run this scan.

    Practical sizing guidance, at grid unit 1 on a 2-vCPU x86 host under
    CPython 3.11 (best of 2): turns <= 9 with b2 <= 30 takes at most
    ~0.06 s on every variant; turns = 11 with b2 = 40 takes 0.10-0.12 s
    on fp-set and ap-set and 0.22 s on ap-set at alpha = 1/3 (fixed-value
    variants stay under 0.02 s). Cost grows quickly with both.
    """
    inst = OracleInstance(variant, turns, 0, b2, grid_unit)
    g, b2, b_units = inst.grid_unit, inst.b2, inst._units(inst.b2)
    if b2 <= 0:
        raise DomainError("b2 must be positive")
    cap_units = 4 * b_units if ceiling is None else finite_fraction(ceiling, "ceiling") // g  # an int floor
    if cap_units < 0:
        raise DomainError(f"ceiling must be nonnegative, got {ceiling}")
    if method not in ("linear", "bisect"):
        raise DomainError(f"unknown search method {method!r}")

    cd = CountdownPair.fresh(turns)
    ev = GridEvaluator(variant)
    for k in range(cap_units + 1):
        if ev.win(turns, cd.i, cd.j, k, b_units):
            return MinBudgetResult(k, k * g, k * g / b2, ev.nodes_expanded)
    raise ResourceError(
        f"no winning budget up to {cap_units} grid units "
        f"({cap_units * g} at unit {g}); raise the ceiling"
    )
