"""Expectations that job outputs are checked against.

Nothing here calls into ``multibattle``: the closed forms and the
all-pay recurrence are written out from the paper, the CLI transcripts
are copied from the README, and trace conservation is recomputed from
the pricing rule. A job passes only when the library agrees with these.
"""

from __future__ import annotations

from fractions import Fraction

# Relative tolerance for float results against exact references. Float
# fills measured at n=2000 stay within 2e-14 of the closed forms.
FLOAT_RTOL = 1e-9


class Mismatch(Exception):
    """A job's output disagrees with its expectation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def ceil_half(n: int) -> int:
    return -(-n // 2)


def closed_form(set01: bool, alpha: Fraction, i: int, j: int) -> Fraction | None:
    """Matrix entry x[i][j] for alpha in {0, 1}; None where P1 cannot win.

    set01 first-price:        i (j - i + 3) / ((j - i + 1)(j + 2))
    set01 all-pay, alpha=1:   1 + (i - 1)(j - i + 3) / ((j - i + 1)(j + 1))
    fixed first-price:        i / j
    fixed all-pay, alpha=1:   (i + j - 1) / j
    Row 0 is all zero: a player who needs nothing has won.
    """
    if alpha not in (0, 1):
        raise ValueError(f"no closed form at alpha={alpha}")
    if i == 0:
        return Fraction(0)
    if set01:
        if i > j:
            return None
        if alpha == 0:
            return Fraction(i * (j - i + 3), (j - i + 1) * (j + 2))
        return 1 + Fraction((i - 1) * (j - i + 3), (j - i + 1) * (j + 1))
    return Fraction(i, j) if alpha == 0 else Fraction(i + j - 1, j)


def obr(set01: bool, alpha: Fraction, turns: int) -> Fraction:
    """Optimal budget ratio of a fresh game: x[h][h] with h = ceil(T/2)."""
    h = ceil_half(turns)
    return closed_form(set01, alpha, h, h)


def handicap_obr(set01: bool, alpha: Fraction, turns: int, k: int) -> Fraction:
    """Ratio for finishing at most k behind: x[ceil((T-k)/2)][ceil((T+k)/2)]."""
    i, j = ceil_half(turns - k), ceil_half(turns + k)
    return Fraction(0) if i <= 0 else closed_form(set01, alpha, i, j)


def diagonal(set01: bool, alpha, h: int):
    """x[h][h] from the all-pay recurrence, two rows at a time.

    x[i][j] = x[i-1][j] + (x[i][j-1] - x[i-1][j]) / (x[i][j-1] + 1 - alpha),
    with x[i][i] = 1 + x[i-1][i] on set01 diagonals and x[i][1] = i in
    fixed-value games; first-price is alpha = 0. Exact for a Fraction
    alpha, floats for a float one.
    """
    zero = alpha * 0
    keep = 1 - alpha
    above = [zero] * (h + 1)
    for i in range(1, h + 1):
        row = [zero] * (h + 1)
        if set01:
            start = i
            row[i] = 1 + above[i]
        else:
            start = 1
            row[1] = zero + i
        for j in range(start + 1, h + 1):
            up, left = above[j], row[j - 1]
            row[j] = up + (left - up) / (left + keep)
        above = row
    return above[h]


def close(x: float, ref: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def payments(alpha: Fraction, bid_p1: Fraction, bid_p2: Fraction) -> tuple[Fraction, Fraction]:
    """What each player pays for one turn. P1 wins ties; the loser pays alpha times her bid."""
    if bid_p1 >= bid_p2:
        return bid_p1, alpha * bid_p2
    return alpha * bid_p1, bid_p2


def check_conservation(trace) -> None:
    """Every turn's budget drops equal its payments, and scores follow the winner."""
    alpha = trace.config.variant.alpha
    b1, b2 = trace.budget_p1, trace.config.budget_p2
    s1 = s2 = 0
    for t in trace.turns:
        expect(0 <= t.bid_p1 <= b1 and 0 <= t.bid_p2 <= b2, f"turn {t.index}: bid outside budget")
        pay1, pay2 = payments(alpha, t.bid_p1, t.bid_p2)
        p1_won = t.bid_p1 >= t.bid_p2
        expect((t.winner.value == "P1") == p1_won, f"turn {t.index}: winner disagrees with bids")
        s1 += t.value if p1_won else 0
        s2 += 0 if p1_won else t.value
        expect(b1 - t.budget_p1 == pay1 and b2 - t.budget_p2 == pay2,
               f"turn {t.index}: budget drops differ from payments")
        expect((t.score_p1, t.score_p2) == (s1, s2), f"turn {t.index}: scores do not follow the winner")
        b1, b2 = t.budget_p1, t.budget_p2


# (argv, stdout) pairs copied byte for byte from the README; all exit 0.
README_SOLVE = [
    (["obr", "--variant", "fp-set", "--turns", "3", "--exact"], "3/2\n"),
    (["obr", "--variant", "fp-set", "--turns", "1000", "--handicap", "0"], "2.9880478087649402\n"),
    (
        ["matrix", "--variant", "ap-set", "--size", "3", "--exact"],
        "i\\j,1,2,3\n1,1,1,1\n2,inf,2,3/2\n3,inf,inf,5/2\n",
    ),
    (["bid", "--variant", "fp-set", "--i", "2", "--j", "3", "--exact"], "r* = 7/15\nbid = 7/15\n"),
    (
        ["bid", "--variant", "fp-set", "--i", "2", "--j", "3", "--opponent-budget", "3"],
        "r* = 0.4666666666666667\nbid = 1.4\n",
    ),
    (["verify", "--variant", "fp-set", "--size", "30"], "fp-set n=30: 465 entries match closed form\n"),
]
README_SEARCH = [
    (
        ["oracle", "--variant", "fp-set", "--turns", "3", "--b2", "4"],
        '{"b_star": 6, "ratio": 1.5, "nodes_expanded": 50}\n',
    ),
    (
        ["oracle", "--variant", "fp-set", "--turns", "3", "--b2", "4", "--b1", "5"],
        '{"b1": 5, "p1_can_win": false, "nodes_expanded": 25}\n',
    ),
]
README_PLAY = [
    (
        ["simulate", "--variant", "fp-set", "--turns", "3", "--ratio", "3/2", "--adversary", "omnipotent"],
        "winner=P1 reason=countdown turns=2\n",
    ),
]
