"""Pinned oracle node counts on instances past the Fraction reference's reach.

``oracle_counts.json`` records, for each instance, ``b_star`` and
``nodes_expanded`` of the search under both ``method`` values (which run
the same scan), and ``can_win`` and ``nodes_expanded`` of ``evaluate`` at
``b_star - 1`` and ``b_star``.
The differential tests in ``test_oracle.py`` stop at T = 7; these cases go
to T = 11, so a faster oracle must expand exactly the same nodes there too.

The instances are the benchmark's search instances, copied here so the
test does not depend on the benchmark, plus fp-set T=11 b2=24, and
ap-set@1/3 T=9 b2=12 and ap-fixed@1/2 T=11 b2=12 for deeper trees where
P1's budget runs on a finer grid (d = 3 and 2) than the bids.

Re-record (only for an intended change of the search) with
``PYTHONPATH=src python tests/test_oracle_counts.py > tests/oracle_counts.json``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    AuctionVariant,
    OracleInstance,
    ValueModel,
    evaluate,
    min_winning_budget,
)

COUNTS = Path(__file__).with_name("oracle_counts.json")

VARIANTS = {
    "fp-set": FP_SET01,
    "fp-fixed": FP_FIXED1,
    "ap-set": AP_SET01,
    "ap-fixed": AP_FIXED1,
    "ap-set@1/3": AuctionVariant.all_pay(ValueModel.SET01, Fraction(1, 3)),
    "ap-fixed@1/2": AuctionVariant.all_pay(ValueModel.FIXED1, Fraction(1, 2)),
}

# (variant, turns, b2)
INSTANCES = [
    ("fp-set", 5, 16), ("fp-set", 7, 16), ("fp-set", 9, 8), ("fp-set", 5, 24), ("fp-set", 7, 8),
    ("fp-fixed", 7, 24), ("fp-fixed", 9, 24), ("fp-fixed", 5, 32), ("fp-fixed", 9, 16),
    ("ap-set", 3, 16), ("ap-set", 5, 8), ("ap-set", 7, 8), ("ap-set", 3, 8),
    ("ap-fixed", 5, 12), ("ap-fixed", 7, 12), ("ap-fixed", 9, 12),
    ("ap-set@1/3", 5, 8), ("ap-set@1/3", 7, 6), ("ap-set@1/3", 3, 12),
    ("ap-fixed@1/2", 7, 16), ("ap-fixed@1/2", 9, 12), ("ap-fixed@1/2", 5, 16),
    ("fp-set", 11, 24), ("ap-set@1/3", 9, 12), ("ap-fixed@1/2", 11, 12),
]


def cases():
    """(name, [result, nodes_expanded]) for every pinned case, in a fixed order."""
    for name, turns, b2 in INSTANCES:
        variant = VARIANTS[name]
        tag = f"{name} T={turns} b2={b2}"
        b_star = None
        for method in ("linear", "bisect"):
            res = min_winning_budget(variant, turns, b2, method=method)
            b_star = res.b_star
            yield f"{tag} {method}", [res.b_star, res.nodes_expanded]
        for b1 in (b_star - 1, b_star):
            res = evaluate(OracleInstance(variant, turns, b1, b2))
            yield f"{tag} evaluate b1={b1}", [res.can_win, res.nodes_expanded]


def test_node_counts_match_the_pinned_counts():
    pinned = json.loads(COUNTS.read_text())
    seen = dict(cases())
    assert list(seen) == list(pinned), "the case list changed; the counts no longer apply"
    for name, got in seen.items():
        assert got == pinned[name], f"first differing case: {name}: {got} != {pinned[name]}"


if __name__ == "__main__":
    json.dump(dict(cases()), sys.stdout, indent=1)
    sys.stdout.write("\n")
