"""Byte-stability guard for ``run_game`` traces.

``trace_digests.json`` pins a sha256 of each case's JSON trace and
``repr``, recorded before the turn loop moved to tuple-backed records.
A faster turn loop must leave every byte alone. The cases are the six
variants, each at T in {5, 21} against the all-in, match-plus-epsilon
and seeded-random adversaries at 1/2, 1 and 3/2 times ``obr``, plus an
omnipotent game and a P2 fault per variant.

Re-record (only for an intended output change) with
``PYTHONPATH=src python tests/test_trace_bytes.py > tests/trace_digests.json``.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    AllInAdversary,
    AuctionVariant,
    GameConfig,
    MatchPlusEpsilonAdversary,
    OmnipotentAdversary,
    RandomSeededAdversary,
    StrategyPolicy,
    ValueModel,
    obr,
    run_game,
)

F = Fraction
DIGESTS = Path(__file__).with_name("trace_digests.json")

VARIANTS = [
    FP_SET01,
    FP_FIXED1,
    AP_SET01,
    AP_FIXED1,
    AuctionVariant.all_pay(ValueModel.SET01, F(1, 3)),
    AuctionVariant.all_pay(ValueModel.FIXED1, F(1, 2)),
]

ADVERSARIES = {
    "allin": AllInAdversary,
    "match": MatchPlusEpsilonAdversary,
    "random": RandomSeededAdversary,
}


class _LateOverbidder:
    """Plays value 1 and bids nothing, then more than it holds on the third turn."""

    def begin(self, config, budget_p1):
        pass

    def choose_value(self, state, rng):
        return 1

    def choose_bid(self, state, value, p1_bid, rng):
        return state.budget_p2 + 1 if state.turn_index == 2 else F(0)


def cases():
    """(name, trace) for every pinned case, in a fixed order."""
    for v, variant in enumerate(VARIANTS):
        tag = f"{variant.short_name} alpha={variant.alpha}"
        for turns in (5, 21):
            ratio = obr(variant, turns, exact=True)
            for adv_name, adversary in ADVERSARIES.items():
                for scale in (F(1, 2), F(1), F(3, 2)):
                    seed = 100 * v + turns + int(4 * scale)
                    name = f"{tag} T={turns} {adv_name} x{scale} seed={seed}"
                    cfg = GameConfig(variant, turns)
                    yield name, run_game(cfg, ratio * scale, StrategyPolicy(), adversary(), seed)
        cfg = GameConfig(variant, 5)
        ratio = obr(variant, 5, exact=True)
        omnipotent = OmnipotentAdversary(F(1, 24))
        yield f"{tag} T=5 omnipotent", run_game(cfg, ratio, StrategyPolicy(), omnipotent)
        yield f"{tag} T=5 fault", run_game(cfg, 2 * ratio, StrategyPolicy(), _LateOverbidder())


def digest(trace) -> str:
    return hashlib.sha256(f"{trace.to_json()}\n{trace!r}".encode()).hexdigest()


def test_trace_bytes_match_the_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    seen = {name: digest(trace) for name, trace in cases()}
    assert list(seen) == list(pinned), "the case list changed; the digests no longer apply"
    for name, got in seen.items():
        assert got == pinned[name], f"first differing case: {name}"


if __name__ == "__main__":
    json.dump({name: digest(trace) for name, trace in cases()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
