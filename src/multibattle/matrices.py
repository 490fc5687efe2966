"""Countdown matrices: minimum budget ratios indexed by countdown pairs.

Entry (i, j) is the smallest ratio of P1's budget to P2's budget that
guarantees P1 the win from a state where P1 still needs i value-1 wins and
P2 needs j. The two value-set variants are upper triangular (with i > j
the adversary can zero out every turn P1 could take, so no budget
suffices); the two fixed-value variants are full grids.

Every variant fills by one recurrence. First-price pricing is all-pay
with alpha = 0 (the loser pays alpha times her bid), so the pricing rule
enters only through alpha. Row 0 is all zero (a player who needs nothing
has won), and each row starts from its boundary: the diagonal
``x[i][i] = 1 + x[i-1][i]`` on value-set matrices (P1 must take the next
contested turn at P2's full budget), column 1 ``x[i][1] = i`` on
fixed-value ones. Every other entry is fixed by the indifference between
winning and losing the turn at the optimal bid fraction:

    x[i][j] = x[i-1][j] + (x[i][j-1] - x[i-1][j]) / (x[i][j-1] + 1 - alpha)

At alpha = 0 this is ``x[i][j-1] * (1 + x[i-1][j]) / (1 + x[i][j-1])``.
Closed forms exist at alpha in {0, 1}; ``verify_matrix`` checks the
recurrence against them entry by entry in exact arithmetic. At other
alphas ``obr`` and ``handicap_obr`` run the recurrence two rows at a
time, in O(n) memory.

The fixed-value all-pay matrix at general alpha is an extension derived
from the same indifference argument; it is only closed-form-verified at
its alpha in {0, 1} endpoints and is flagged accordingly in reports.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .core import (
    UNWINNABLE,
    AuctionVariant,
    DomainError,
    NoClosedFormError,
    Ratio,
    Unwinnable,
    ceil_div,
)


class CountdownMatrix:
    """Filled grid of budget ratios for one variant.

    Rows are indexed 1..n with a virtual all-zero row 0 (a player who
    needs nothing wins for free). For triangular variants, entries with
    i > j read as the UNWINNABLE sentinel.
    """

    def __init__(self, variant: AuctionVariant, n: int, rows: list[list], exact: bool):
        self.variant = variant
        self.n = n
        self.exact = exact
        self._rows = rows

    def entry(self, i: int, j: int) -> Ratio:
        if not (0 <= i <= self.n and 1 <= j <= self.n):
            raise DomainError(f"entry ({i}, {j}) outside matrix of size {self.n}")
        if i == 0:
            return self._rows[0][j]
        if self.variant.is_triangular and i > j:
            return UNWINNABLE
        return self._rows[i][j]

    def defined_entries(self):
        """Yield (i, j, value) over all defined entries, row-major."""
        for i in range(1, self.n + 1):
            start = i if self.variant.is_triangular else 1
            row = self._rows[i]
            for j in range(start, self.n + 1):
                yield i, j, row[j]

    def _cell_text(self, i: int, j: int) -> str:
        v = self.entry(i, j)
        if isinstance(v, Unwinnable):
            return "inf"
        if self.exact:
            return str(v)
        return format(v, ".17g")

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("i\\j," + ",".join(str(j) for j in range(1, self.n + 1)) + "\n")
        for i in range(1, self.n + 1):
            cells = [self._cell_text(i, j) for j in range(1, self.n + 1)]
            out.write(f"{i}," + ",".join(cells) + "\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        def cell(i, j):
            v = self.entry(i, j)
            if isinstance(v, Unwinnable):
                return None
            if self.exact:
                return str(v)
            return v

        return {
            "variant": self.variant.short_name,
            "alpha": float(self.variant.alpha),
            "n": self.n,
            "entries": [
                [cell(i, j) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)
            ],
        }


def _rows(variant: AuctionVariant, n: int, exact: bool):
    """Yield rows 0..n of the n-column countdown matrix, one list each.

    Only the row above is kept, so a caller that needs one row holds O(n)
    numbers. Value-set rows start on the diagonal; their entries left of
    it are zero placeholders.
    """
    zero = Fraction(0) if exact else 0.0
    keep = 1 - (variant.alpha if exact else float(variant.alpha))  # loser keeps this share of a bid
    above = [zero] * (n + 1)
    yield above
    for i in range(1, n + 1):
        row = [zero] * (n + 1)
        if variant.is_triangular:
            start, left = i, 1 + above[i]
        else:
            start, left = 1, zero + i
        row[start] = left
        for j in range(start + 1, n + 1):
            up = above[j]
            left = up + (left - up) / (left + keep)
            row[j] = left
        yield row
        above = row


def build_matrix(variant: AuctionVariant, n: int, exact: bool = False) -> CountdownMatrix:
    """Build the countdown matrix of size n for the given variant.

    O(n^2) entry computations; fill is row-major from each row's boundary
    (each entry needs only its left and upper neighbours).
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    return CountdownMatrix(variant, n, list(_rows(variant, n, exact)), exact)


def closed_form(variant: AuctionVariant, i: int, j: int, exact: bool = False) -> Ratio:
    """Closed-form matrix entry, where one exists.

    set01, alpha=0:   i * (j - i + 3) / ((j - i + 1) * (j + 2))
    set01, alpha=1:   1 + (i - 1) * (j - i + 3) / ((j - i + 1) * (j + 1))
    fixed, alpha=0:   i / j
    fixed, alpha=1:   (i + j - 1) / j

    First-price is alpha = 0. Other alphas have no closed form and raise
    NoClosedFormError. Triangular variants return UNWINNABLE for i > j.
    """
    if i < 1 or j < 1:
        raise DomainError(f"closed form needs i, j >= 1, got ({i}, {j})")
    if not variant.has_closed_form:
        raise NoClosedFormError(
            f"no closed form for all-pay with alpha={variant.alpha}; build the matrix instead"
        )
    if variant.is_triangular:
        if i > j:
            return UNWINNABLE
        if variant.alpha == 0:
            val = Fraction(i * (j - i + 3), (j - i + 1) * (j + 2))
        else:
            val = 1 + Fraction((i - 1) * (j - i + 3), (j - i + 1) * (j + 1))
    elif variant.alpha == 0:
        val = Fraction(i, j)
    else:
        val = Fraction(i + j - 1, j)
    return val if exact else float(val)


def _entry(variant: AuctionVariant, i: int, j: int, exact: bool) -> Ratio:
    """x[i][j] from the closed form, or else from rolling rows of the recurrence."""
    if variant.has_closed_form:
        return closed_form(variant, i, j, exact=exact)
    return next(islice(_rows(variant, j, exact), i, None))[j]


def obr(variant: AuctionVariant, turns: int, exact: bool = False) -> Ratio:
    """Optimal budget ratio for a fresh game of the given length.

    A fresh T-turn game sits at countdown pair (ceil(T/2), ceil(T/2)).
    """
    if turns < 1:
        raise DomainError(f"turns must be >= 1, got {turns}")
    h = ceil_div(turns, 2)
    return _entry(variant, h, h, exact)


def handicap_obr(variant: AuctionVariant, turns: int, k: int, exact: bool = False) -> Ratio:
    """Budget ratio guaranteeing P1 finishes at most k points behind.

    The relaxed objective shifts the start to countdown pair
    (ceil((T-k)/2), ceil((T+k)/2)); a nonpositive first index means P1
    needs nothing, so the ratio is 0.
    """
    if turns < 1:
        raise DomainError(f"turns must be >= 1, got {turns}")
    if k < 0:
        raise DomainError(f"handicap must be nonnegative, got {k}")
    i = ceil_div(turns - k, 2)
    j = ceil_div(turns + k, 2)
    if i <= 0:
        return Fraction(0) if exact else 0.0
    return _entry(variant, i, j, exact)


@dataclass(frozen=True)
class MatrixVerifyReport:
    """Outcome of an exact DP-versus-closed-form sweep."""

    variant: AuctionVariant
    n: int
    ok: bool
    entries_checked: int
    first_mismatch: tuple[int, int, Fraction, Fraction] | None = None

    def summary(self) -> str:
        name = self.variant.short_name
        if self.ok:
            return f"{name} n={self.n}: {self.entries_checked} entries match closed form"
        i, j, dp, cf = self.first_mismatch
        return f"{name} n={self.n}: mismatch at ({i}, {j}): dp={dp} closed={cf}"


def verify_matrix(variant: AuctionVariant, n: int) -> MatrixVerifyReport:
    """Check every defined DP entry against the closed form, exactly.

    Raises NoClosedFormError for variants without one (all-pay with
    alpha outside {0, 1}).
    """
    closed_form(variant, 1, 1, exact=True)  # fail fast if no closed form
    matrix = build_matrix(variant, n, exact=True)
    checked = 0
    for i, j, value in matrix.defined_entries():
        expect = closed_form(variant, i, j, exact=True)
        checked += 1
        if value != expect:
            return MatrixVerifyReport(variant, n, False, checked, (i, j, value, expect))
    return MatrixVerifyReport(variant, n, True, checked)
