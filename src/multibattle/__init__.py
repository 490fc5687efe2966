"""Solver and simulator for two-player budget-constrained bidding contests.

Over T turns, objects worth 0 or 1 points are auctioned between a player
P1 (the dealer, who wins all ties) and an adversary who may control which
objects appear and can react to P1's bids. The package answers, exactly:

* how large P1's budget must be relative to the adversary's to guarantee
  winning (countdown matrices, closed forms, ``obr``),
* how to bid so the guarantee is realized online (``strategy``),
* what the truth is on small discretized instances (``oracle``),
* and how games actually play out (``simulate``), with reproducible
  JSON traces that record amounts as floats.

The strategy, the oracle and the simulator compute in exact rational
arithmetic (``fractions.Fraction``). Only the matrix reads
(``build_matrix``, ``closed_form``, ``obr`` and ``handicap_obr``) have
a float mode, their default, for speed at large sizes; ``exact=True``
makes them exact.
"""

from .core import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    UNWINNABLE,
    AuctionVariant,
    ContestError,
    CountdownPair,
    DomainError,
    GameConfig,
    GameState,
    GameTrace,
    NoClosedFormError,
    OverbidError,
    Player,
    Pricing,
    ResourceError,
    ValueModel,
    countdown_for,
    initial_state,
    settle_turn,
    winner_if_decided,
)
from .matrices import (
    CountdownMatrix,
    build_matrix,
    closed_form,
    handicap_obr,
    obr,
    verify_matrix,
)
from .oracle import (
    GridEvaluator,
    MinBudgetResult,
    OracleInstance,
    evaluate,
    min_winning_budget,
    p1_can_win,
)
from .simulate import (
    AdversarySweepVerdict,
    AllInAdversary,
    MatchPlusEpsilonAdversary,
    OmnipotentAdversary,
    RandomSeededAdversary,
    StrategyPolicy,
    exhaustive_adversary_check,
    run_game,
)
from .strategy import StrategyState, next_bid, observe_outcome, optimal_bid_fraction

__version__ = "0.1.0"
