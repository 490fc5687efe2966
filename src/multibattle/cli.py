"""Command-line interface.

Subcommands: obr (budget ratios), matrix (dump a countdown matrix), bid
(optimal bid for a state), oracle (grid min-max search), simulate (play a
game against an adversary), verify (exact DP vs closed form). Exit codes:
0 success, 1 domain/usage/file error, 2 resource-budget error, 3
verification mismatch. ``main`` builds its parser on its first call and
reuses it for the rest of the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from fractions import Fraction

from .core import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    AuctionVariant,
    DomainError,
    GameConfig,
    Pricing,
    ResourceError,
    amount,
)
from .matrices import handicap_obr, matrix_csv_lines, matrix_json_chunks, obr, verify_matrix

# perfbench/tracing.py wraps build_matrix under this module's name, so it
# stays imported although matrix output streams through the row fills.
from .matrices import build_matrix  # noqa: F401
from .oracle import OracleInstance, evaluate, min_winning_budget
from .simulate import (
    AllInAdversary,
    MatchPlusEpsilonAdversary,
    OmnipotentAdversary,
    RandomSeededAdversary,
    StrategyPolicy,
    run_game,
)
from .strategy import optimal_bid_fraction

_VARIANTS = {v.short_name: v for v in (FP_SET01, FP_FIXED1, AP_SET01, AP_FIXED1)}

_ADVERSARIES = {
    "omnipotent": OmnipotentAdversary,
    "allin": AllInAdversary,
    "match": MatchPlusEpsilonAdversary,
    "random": RandomSeededAdversary,
}


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a number: {text!r}") from exc


def _variant_from(ns) -> AuctionVariant:
    base = _VARIANTS[ns.variant]
    if ns.alpha is None:
        return base
    if base.pricing is Pricing.FIRST_PRICE:  # core takes alpha = 0 here; the CLI refuses any --alpha
        raise DomainError("--alpha only applies to all-pay variants")
    return AuctionVariant.all_pay(base.values, _parse_fraction(ns.alpha))


def _fmt(value, exact: bool) -> str:
    if exact:
        return str(Fraction(value))
    x = float(value)
    return str(int(x)) if x == int(x) else repr(x)


_TURNS_HELP = "number of turns T in the game"


def _add_variant_arg(p):
    p.add_argument(
        "--variant",
        required=True,
        choices=sorted(_VARIANTS),
        help="fp = first-price, ap = all-pay; set = the adversary picks each turn's value in {0, 1}, "
        "fixed = every turn is worth 1",
    )
    p.add_argument("--alpha", help="all-pay ratio (default 1 for ap variants)")


def build_parser() -> _Parser:
    parser = _Parser(prog="multibattle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("obr", help="optimal budget ratio for a T-turn game")
    _add_variant_arg(p)
    p.add_argument("--turns", type=int, required=True, help=_TURNS_HELP)
    p.add_argument("--handicap", type=int, default=None, help="allowed final score deficit")
    p.add_argument("--exact", action="store_true", help="print an exact fraction")

    p = sub.add_parser("matrix", help="dump a countdown matrix")
    _add_variant_arg(p)
    p.add_argument("--size", type=int, required=True, help="matrix side n: countdowns 1..n for each player")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")
    p.add_argument("--exact", action="store_true", help="print exact fractions instead of floats")

    p = sub.add_parser("bid", help="optimal bid fraction and bid for a state")
    _add_variant_arg(p)
    p.add_argument("--i", type=int, required=True, help="wins P1 still needs")
    p.add_argument("--j", type=int, required=True, help="wins P2 still needs")
    p.add_argument("--opponent-budget", default="1", help="tracked P2 budget (default 1)")
    p.add_argument("--exact", action="store_true", help="print exact fractions instead of floats")

    p = sub.add_parser("oracle", help="exact grid-bid search")
    _add_variant_arg(p)
    p.add_argument("--turns", type=int, required=True, help=_TURNS_HELP)
    p.add_argument("--b2", type=int, required=True, help="P2 budget: an integer amount, a multiple of --grid-unit")
    p.add_argument(
        "--b1",
        type=int,
        default=None,
        help="evaluate this P1 budget (an integer amount, a multiple of --grid-unit) instead of searching",
    )
    p.add_argument("--grid-unit", default="1", help="bid grid unit (rational); b_star counts these units")

    p = sub.add_parser("simulate", help="play one game against an adversary")
    _add_variant_arg(p)
    p.add_argument("--turns", type=int, required=True, help=_TURNS_HELP)
    p.add_argument("--ratio", required=True, help="P1 budget as a multiple of b2=1")
    p.add_argument(
        "--adversary",
        required=True,
        choices=sorted(_ADVERSARIES),
        help="P2's play: omnipotent = best reply from an exact threshold table on a grid of b2/8, allin = its whole budget "
        "on value 1, match = P1's bid plus 1/100 when affordable, random = seeded random values and bids",
    )
    p.add_argument("--seed", type=int, default=0, help="seed of the random adversary (default 0; others ignore it)")
    p.add_argument(
        "--trace", metavar="PATH", help="write the JSON trace here; an existing file is overwritten in place"
    )

    p = sub.add_parser("verify", help="check DP entries against the closed form (exact)")
    _add_variant_arg(p)
    p.add_argument("--size", type=int, required=True, help="check every defined entry of the n x n matrix")

    return parser


def _cmd_obr(ns, variant: AuctionVariant) -> int:
    if ns.handicap is not None:
        value = handicap_obr(variant, ns.turns, ns.handicap, exact=ns.exact)
    else:
        value = obr(variant, ns.turns, exact=ns.exact)
    print(_fmt(value, ns.exact))
    return 0


def _cmd_matrix(ns, variant: AuctionVariant) -> int:
    encode = matrix_csv_lines if ns.format == "csv" else matrix_json_chunks
    for chunk in encode(variant, ns.size, exact=ns.exact):
        sys.stdout.write(chunk)
    return 0


def _cmd_bid(ns, variant: AuctionVariant) -> int:
    fraction = optimal_bid_fraction(variant, ns.i, ns.j)
    budget = amount(_parse_fraction(ns.opponent_budget), "opponent budget")
    try:
        text = f"r* = {_fmt(fraction, ns.exact)}\nbid = {_fmt(fraction * budget, ns.exact)}"
    except OverflowError:
        raise DomainError("the bid is too large for a float; use --exact to print it exactly") from None
    print(text)
    return 0


def _cmd_oracle(ns, variant: AuctionVariant) -> int:
    grid = _parse_fraction(ns.grid_unit)
    if ns.b1 is None:
        res = min_winning_budget(variant, ns.turns, ns.b2, grid_unit=grid)
        doc = {"b_star": res.b_star, "ratio": float(res.ratio)}
    else:
        inst = OracleInstance(variant, ns.turns, ns.b1, ns.b2, grid)
        res = evaluate(inst)
        doc = {"b1": ns.b1, "p1_can_win": res.can_win}
    doc["nodes_expanded"] = res.nodes_expanded
    print(json.dumps(doc))
    return 0


def _cmd_simulate(ns, variant: AuctionVariant) -> int:
    config = GameConfig(variant, ns.turns)
    b1 = _parse_fraction(ns.ratio)
    trace = run_game(config, b1, StrategyPolicy(), _ADVERSARIES[ns.adversary](), seed=ns.seed)
    try:
        text = None if ns.trace is None else trace.to_json(indent=2) + "\n"
    except OverflowError:
        raise DomainError("a trace amount is too large for a float; the trace was not written") from None
    print(f"winner={trace.winner.value} reason={trace.reason} turns={len(trace.turns)}")
    if text is not None:
        _write_in_place(ns.trace, text)
    return 0


def _write_in_place(path: str, text: str) -> None:
    """Overwrite ``path`` in place: truncating to zero first makes ext4 flush at close (~45 ms a 31 KB trace)."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # /dev/null, FIFOs and ttys are not cut
            fh.truncate()


def _cmd_verify(ns, variant: AuctionVariant) -> int:
    report = verify_matrix(variant, ns.size)
    print(report.summary())
    return 0 if report.ok else 3


_COMMANDS = {
    "obr": _cmd_obr,
    "matrix": _cmd_matrix,
    "bid": _cmd_bid,
    "oracle": _cmd_oracle,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> _Parser:
    """``build_parser()``, built on the first ``main`` call and reused by every later one.

    Building it takes about a millisecond; parsing leaves it unchanged,
    so one parser serves every call in the process. It is built on first
    use, not at import, so importing the module stays as cheap as before.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        return _COMMANDS[ns.command](ns, _variant_from(ns))
    except (_UsageError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
