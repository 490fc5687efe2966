"""Exact min-max decision procedure over grid-restricted bids.

Every bid is an integer multiple of a grid unit. Each turn the adversary
picks the value (value-set games), P1 bids knowing the value, then P2 bids
knowing P1's bid; she needs one grid unit more than P1 to take the turn,
which realizes the "epsilon more" of the continuous analysis exactly.

The search memoizes on (remaining turns, countdown pair, budgets): scores
influence the rest of the game only through the countdown pair, so these
decide a position. The memo is nested in that order, first by remaining
turns and countdown pair, then by P2's and P1's budgets as integers (see
GridEvaluator); a row holds its successor rows, fetched at its first
expansion while it holds no position, and the bid loop looks budgets up
in them and hands them to the children it expands. Two reductions keep
the tree small without giving up exactness:

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
against on small instances. ``ThresholdTable`` answers the same grid game
without a search, from the least winning P1 budget of each position, and
is the brain of the simulator's omnipotent adversary; it fills at most
``MAX_CELLS`` cells, about 85 MB of memo. Both take queries through one
checked ``win``. ``evaluate`` and ``min_winning_budget`` keep the node
search, whose node counts they report.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    AuctionVariant,
    DomainError,
    GameState,
    Numeric,
    ResourceError,
    amount,
    check_count,
    check_countdowns,
    check_value,
    check_variant,
    countdown_for,
)


# An evaluator raises ResourceError when its expanded (stored) nodes reach
# this: about 100 MB of memo at ~50 bytes a node.
MAX_NODES = 2_000_000
# The search recurses one frame per remaining turn; this leaves its callers
# room under CPython's default limit of 1000 frames.
MAX_TURNS = 400
# A threshold table raises ResourceError when its stored cells reach this:
# about 85 MB of memo at ~65 bytes a cell.
MAX_CELLS = 1_300_000
# min_winning_budget scans P1's budget up to this many times b2, above every
# variant's limiting ratio.
MAX_RATIO = 4


class _Row(dict):
    """A memo row, P1's scaled budget -> verdict, holding the successors its positions share, set while it was empty."""

    __slots__ = ("concede", "beat", "zero")


class _GridGame:
    """The grid game of one variant, in grid units: the query both engines answer.

    Budgets and bids are integers of grid units, except that under all-pay
    with fractional alpha = an/d a lost turn costs P1 ``an/d`` of its bid,
    so its budget lives on the finer grid of 1/d units. Internally P1's
    budget is held scaled by d, as the integer ``A = a * d``: conceding a
    bid p leaves ``A - p * d``, losing an all-pay turn leaves ``A - an * p``
    (an = 0 under first-price, where d = 1), and P1 can bid at most
    ``A // d``. A budget off the 1/d grid raises DomainError.

    ``win``, the one query, checks it, settles a zero-value turn and a
    decided position, and hands the rest to the engine's ``_solve``.
    """

    def __init__(self, variant: AuctionVariant):
        check_variant(variant)
        self.variant = variant
        self._d = variant.alpha_pair[1]

    def _scaled(self, a) -> int:
        """P1's budget ``a`` (grid units) as an integer count of 1/d units."""
        if a.__class__ is int:
            check_count(a, "P1 budget", 0)
            return a * self._d
        scaled = amount(a, "P1 budget") * self._d
        if scaled.denominator != 1:
            raise DomainError(f"P1 budget {a} is not a multiple of 1/{self._d} grid unit")
        return scaled.numerator

    def win(self, remaining: int, i: int, j: int, a, b: int, value: int | None = None) -> bool:
        """True iff P1 forces a win with ``remaining`` turns left.

        ``a`` and ``b`` are the players' budgets in grid units, ``b`` an int;
        ``value``, if given, fixes this turn's value (an int, 0 or 1) before
        P1 bids. A negative budget or ``remaining``, a ``remaining``, ``i``,
        ``j`` or ``b`` that is not an int (a bool included), a bool ``a``, any
        other value, one with no turn left, or a value 0 that a fixed-value
        variant cannot auction raises DomainError. More than ``MAX_TURNS``
        remaining turns raise ResourceError before any work.
        """
        check_count(b, "P2 budget", 0)
        check_countdowns(i, j)
        check_count(remaining, "turns left", 0)
        if value is not None:
            check_value(value)
            if not remaining:
                raise DomainError("no turn left to evaluate a pending value for")
        if remaining > MAX_TURNS:
            raise ResourceError(f"grid oracle depth ceiling is {MAX_TURNS} turns, asked for {remaining}")
        A = self._scaled(a)
        query = remaining, b
        if value == 0:
            check_value(value, variant=self.variant)  # last, so every other refusal keeps its message
            if i > 0 and j > 0:
                shift = 1 if i + j == remaining + 1 else 0
                remaining, i, j, value = remaining - 1, i - shift, j - shift, None
        if i <= 0 or j <= 0 or remaining <= 0:
            # Decided, or (unreachable from consistent states) no turn left:
            # the score tie rules (i <= j means P1 is not behind).
            return i <= 0 or i <= j
        return self._solve(remaining, i, j, A, b, value, query)


class GridEvaluator(_GridGame):
    """Reusable memoized node search for one variant.

    The memo is nested: ``(remaining, i, j)`` maps to P2's budget ``b``,
    which maps to a row, a dict from ``A`` to the verdict. Scores enter a
    position only through the countdown pair, so these five integers
    decide it, and no key tuple is kept per position. The positions of a
    row share their successors, which the row fetches (or makes) at its
    first expansion, while it is empty, and holds: with r = remaining - 1,
    the concede row ``(r, i - 1, j)[b]``, the beat table ``(r, i, j - 1)``
    and, on value-set variants, the zero-value row ``(r, i - s, j - s)[b]``
    for the countdown shift s, or its verdict if settled; a query with its
    turn value given fetches them with no row to keep them. So each bid
    costs integer-keyed lookups, and a child is handed its row and stores
    its verdict there. A child with no turns left is settled by the tie rule.

    The concede children of a node's bids run down one residue of ``A``
    mod d: ``A``, ``A - d``, ... A node is lost once one of them loses,
    and then expands the rest of that run, its monotone tail, down to the
    bottom of the residue. So a row keeps, under the negative key
    ``-1 - (A mod d)``, a watermark per residue: every position of the
    residue at or below it is in the row, and a later tail stops there.

    The memo persists across ``win`` calls, so a single evaluator can serve
    a whole budget search, up to ``MAX_NODES`` nodes.
    """

    def __init__(self, variant: AuctionVariant):
        super().__init__(variant)
        an, d = variant.alpha_pair  # first-price variants carry alpha = 0: an = 0, d = 1
        set01 = variant.is_triangular
        # (remaining, i, j) -> b -> row; a lookup makes a missing table or row.
        memo = self._memo = defaultdict(lambda: defaultdict(_Row))
        query = self._query = [0, 0]  # (remaining, b) of the current win call, for the node-ceiling message
        count = 0

        # The search: a closure over the evaluator's constants, not over the evaluator. Few locals:
        # CPython 3.11 maps a new 16 KiB frame chunk each time the recursion crosses into one, and
        # two more locals cost the 41-turn node-ceiling search 2.6x the page faults and ~7 % in time.
        def node(remaining: int, i: int, j: int, A: int, b: int, row: _Row | None) -> bool:
            """Solve, count and store in its memo row ``row`` a position with i, j >= 1 not in it."""
            nonlocal count
            # The hot loop: children are queried concede, then beat, with P1's bid p ascending.
            r = remaining - 1
            if row:  # a row gains its first key at the end of a node call on it, so it holds its successors
                concede, beat, zero = row.concede, row.beat, row.zero
            else:  # the row's first expansion, while it holds no position, or a value-1 query (no row)
                # No child to query: a concede at i = 1 hands P1 the game, a beat at j = 1 P2.
                concede = memo[r, i - 1, j][b] if r and i > 1 else None
                beat = memo[r, i, j - 1] if r and j > 1 else None
                zero = None
                if set01:  # the zero-value turn's countdown shift s does not depend on who takes it
                    s = 1 if i + j == remaining + 1 else 0
                    # Its row, or its verdict if decided (i - s <= 0: won, j - s <= 0: lost) or left to the tie rule.
                    zero = True if i <= s else False if j <= s else memo[r, i - s, j - s][b] if r else i <= j
                if row is not None:  # a turn whose value is already 1 is solved, neither counted nor stored
                    row.concede, row.beat, row.zero = concede, beat, zero
            if r <= 0:
                # Every child is settled by the tie rule: P1 wins a conceded
                # turn iff i - 1 <= j and a beaten one iff i <= j - 1.
                won = i <= j + 1 and (A // d >= b or i < j)
            else:
                won = False
                for p in range(A // d + 1):  # P1 bids up to its whole budget
                    if concede is not None:
                        # P2 concedes: P1 pays its bid, P2 pays nothing.
                        a1 = A - p * d
                        child = concede.get(a1)
                        if child is None:
                            child = node(r, i - 1, j, a1, b, concede)
                        if not child:
                            # Lost: every dearer bid's concede child has less budget, so it
                            # loses too. The full loop would still expand those children, so
                            # expand, in its order, the ones the row lacks: a1 - d, a1 - 2d, ...
                            # down to the row's watermark for this residue of A mod d, kept under
                            # key -1 - (A mod d). Only this walk adds to the row: their subtrees lie below r.
                            mark = -1 - a1 % d
                            low = concede.get(mark, -1)
                            for a2 in range(a1 - d, low, -d):
                                if a2 not in concede:
                                    node(r, i - 1, j, a2, b, concede)
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
                            child = node(r, i, j - 1, a1, b1, child_row)
                        if not child:
                            continue
                    won = True
                    break
            if row is None:
                return won
            count += 1
            if count >= MAX_NODES:
                raise ResourceError("grid oracle reached its ceiling of %d expanded nodes at turns=%d, b2=%d grid "
                                    "units; use fewer turns or a smaller b2" % (MAX_NODES, *query))
            if won and zero is not None:  # the zero-value turn, without bids
                won = zero if zero.__class__ is bool else zero.get(A)
                if won is None:
                    s = 1 if i + j == remaining + 1 else 0
                    won = node(r, i - s, j - s, A, b, zero)
            row[A] = won
            return won

        def release():  # node calls itself through its closure, a cycle: break it, freeing the memo
            nonlocal node
            node = None

        self._node, self._count = node, lambda: count
        weakref.finalize(self, release)

    nodes_expanded = property(lambda self: self._count(), doc="Positions solved and stored, over all queries.")

    def _solve(self, remaining: int, i: int, j: int, A: int, b: int, value: int | None, query: tuple) -> bool:
        """The verdict at remaining, i, j >= 1, from the row of the memo, or its one node if the value is 1."""
        self._query[:] = query
        if value:
            return self._node(remaining, i, j, A, b, None)
        row = self._memo[remaining, i, j][b]
        won = row.get(A)
        return self._node(remaining, i, j, A, b, row) if won is None else won


class ThresholdTable(_GridGame):
    """The grid game of ``GridEvaluator``, answered from the least winning P1 budget of each position.

    Winnability is monotone in P1's budget, so a position (r turns left,
    countdown pair (i, j), P2 budget b grid units) has one threshold
    tau(r, i, j, b): the least scaled P1 budget ``A = a * d`` that wins,
    infinite if none does (the threshold view of discrete Richman games,
    Develin and Payne 2010). With alpha = an/d (an = 0, d = 1 under
    first-price), c = tau(r - 1, i - 1, j, b) the threshold after P2
    concedes, and h(p) = tau(r - 1, i, j - 1, b - p - 1) the one after she
    beats a bid of p units by one unit:

    * i <= 0 gives 0, j <= 0 gives infinity, and with no turn left the tie
      rule gives 0 if i <= j, else infinity;
    * the value-1 turn gives tau1 = min(b*d + c, min over p < b of
      max(p*d + c, an*p + h(p))): a bid of b units is never beaten;
    * on value-set variants tau = max(tau1, tau(r - 1, i - s, j - s, b)),
      the zero-value turn with the countdown shift s = 1 if i + j = r + 1,
      else 0; on fixed-value variants tau = tau1.

    The inner minimum bisects the crossing p0, the least p with
    p*d + c >= h(p) (p*d + c rises with p, and h does not, as tau never
    falls as b grows), then scans up from p0 while p*d + c, and down from
    p0 - 1 while h(p), stays below the best so far. Both are lower bounds
    of the max term that grow away from p0, so the scan is exact for every
    alpha; under first-price it stops within two reads.

    The memo persists across queries: ``(r, i, j)`` maps to a dict from b
    to tau. A query fills the cells it needs from an explicit stack of
    cells, not by recursion: a cell that meets a missing child pushes it
    and resumes with its tau once it is stored, so each cell is computed
    once. A table stops at ``MAX_CELLS`` stored cells with ResourceError.
    """

    def __init__(self, variant: AuctionVariant):
        super().__init__(variant)
        an, d = variant.alpha_pair
        set01 = variant.is_triangular
        memo = self._memo = defaultdict(dict)  # (r, i, j) -> b -> tau; a lookup makes a missing row
        inf = float("inf")
        count = 0

        def cell(r: int, i: int, j: int, b: int, zeroed: bool):
            """tau at r, i, j >= 1 (tau1 unless ``zeroed``): yields each missing child's key, is sent its tau."""
            r1 = r - 1
            if not r1:  # every child is settled by the tie rule
                t1 = 0 if i < j else b * d if i <= j + 1 else inf
                return max(t1, 0 if i <= j else inf) if set01 and zeroed else t1
            if i == 1:
                c = 0
            else:
                c = memo[r1, i - 1, j].get(b)
                if c is None:
                    c = yield r1, i - 1, j, b
            best = b * d + c
            zero = 0
            if set01 and zeroed:
                s = 1 if i + j == r + 1 else 0
                if i > s:  # i <= s: the zero-value turn wins the game
                    if j <= s:
                        return inf
                    zero = memo[r1, i - s, j - s].get(b)
                    if zero is None:
                        zero = yield r1, i - s, j - s, b
                    if zero >= best:  # tau1 <= b*d + c: the zero-value turn decides
                        return zero
            if j > 1 and c != inf:  # a beat at j = 1 takes P2's last point; c = inf loses every bid
                row = memo[r1, i, j - 1]
                lo, hi = 0, b
                while lo < hi:
                    p = (lo + hi) >> 1
                    h = row.get(b - p - 1)
                    if h is None:
                        h = yield r1, i, j - 1, b - p - 1
                    if p * d + c >= h:
                        hi = p
                    else:
                        lo = p + 1
                for p in range(lo, b):
                    f = p * d + c
                    if f >= best:
                        break
                    h = row.get(b - p - 1)
                    if h is None:
                        h = yield r1, i, j - 1, b - p - 1
                    h += an * p
                    if h < best:
                        best = h if h > f else f
                for p in range(lo - 1, -1, -1):
                    h = row.get(b - p - 1)
                    if h is None:
                        h = yield r1, i, j - 1, b - p - 1
                    if h >= best:
                        break
                    h += an * p
                    if h < best:
                        best = h
            return best if best > zero else zero

        def tau(remaining: int, i: int, j: int, b: int, zeroed: bool, query: tuple):
            """tau (tau1 unless ``zeroed``) at remaining, i, j >= 1, filling and storing every cell it needs.

            A tau1 of a value-set variant is not a memo cell: it is returned, not stored.
            """
            nonlocal count
            if zeroed or not set01:
                t = memo[remaining, i, j].get(b)
                if t is not None:
                    return t
            key = remaining, i, j, b
            stack, gen, t = [], cell(*key, zeroed), None
            while True:
                try:
                    child = gen.send(t)
                except StopIteration as done:
                    t = done.value
                else:  # a missing child: fill it first, then send its tau to this cell
                    stack.append((key, gen))
                    key, gen, t = child, cell(*child, True), None
                    continue
                if stack or zeroed or not set01:
                    count += 1
                    if count >= MAX_CELLS:
                        raise ResourceError("threshold table reached its ceiling of %d cells at turns=%d, b2=%d "
                                            "grid units; use fewer turns or a smaller b2" % (MAX_CELLS, *query))
                    r, i, j, b = key
                    memo[r, i, j][b] = t
                if not stack:
                    return t
                key, gen = stack.pop()

        self._tau, self._count = tau, lambda: count

    cells = property(lambda self: self._count(), doc="Thresholds computed and stored, over all queries.")

    def _solve(self, remaining: int, i: int, j: int, A: int, b: int, value: int | None, query: tuple) -> bool:
        """Whether ``A`` reaches tau, or tau1 if the value is 1; ``MAX_CELLS`` cells raise ResourceError."""
        return A >= self._tau(remaining, i, j, b, not value, query)


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
        for name, positive in (("b1", False), ("b2", False), ("grid_unit", True)):
            object.__setattr__(self, name, amount(getattr(self, name), name, positive))
        check_count(self.turns, "turns")
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
        state = GameState(inst.b1, inst.b2, 0, 0, 0)
    if state.turn_index > inst.turns:
        raise DomainError("state has more turns than the instance")
    remaining = inst.turns - state.turn_index
    i, j = countdown_for(inst.turns, state.turn_index, state.score_p1, state.score_p2)
    # After a lost all-pay turn P1's budget may sit on the finer 1/d grid,
    # which the evaluator checks; P2's stays on the unit grid.
    a, b = state.budget_p1 / inst.grid_unit, inst._units(state.budget_p2)
    if pending_value is not None:
        check_value(pending_value, "pending value", inst.variant)
    ev = GridEvaluator(inst.variant)
    won = ev.win(remaining, i, j, a, b, pending_value)
    return OracleResult(won, ev.nodes_expanded)


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
    method: str = "linear",
) -> MinBudgetResult:
    """Search the smallest P1 budget (in grid units) that wins.

    The scan starts at zero: against weak enough opponents even an
    all-zero-bids P1 can win on ties, so the corner is real. Winnability is
    monotone in P1's budget, so the first win is the least winning budget,
    and the queries share one evaluator's memo. The scan stops at
    ``MAX_RATIO * b2``; running past it raises ResourceError. ``method``
    is validated: both ``"linear"`` and ``"bisect"`` run this scan.

    Practical sizing guidance, at grid unit 1 on a 2-vCPU x86 host under
    CPython 3.11 (best of 2): turns <= 9 with b2 <= 30 takes at most
    ~0.05 s on every variant; turns = 11 with b2 = 40 takes about 0.10 s
    on fp-set and ap-set and 0.20 s on ap-set at alpha = 1/3 (fixed-value
    variants stay under 0.02 s). Cost grows quickly with both.
    """
    b2 = amount(b2, "b2", positive=True)
    inst = OracleInstance(variant, turns, 0, b2, grid_unit)
    g, b_units = inst.grid_unit, inst._units(b2)
    cap_units = MAX_RATIO * b_units
    if method not in ("linear", "bisect"):
        raise DomainError(f"unknown search method {method!r}")

    i, j = countdown_for(turns, 0, 0, 0)
    ev = GridEvaluator(variant)
    for k in range(cap_units + 1):
        if ev.win(turns, i, j, k, b_units):
            return MinBudgetResult(k, k * g, k * g / b2, ev.nodes_expanded)
    raise ResourceError(f"no winning budget up to {cap_units} grid units ({cap_units * g} at unit {g})")
