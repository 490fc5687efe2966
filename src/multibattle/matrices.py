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
alphas ``obr`` and ``handicap_obr`` run the recurrence in O(n) memory.
The exact read keeps two rows at a time. The float read advances four
rows per pass over the columns and keeps one row plus four running
values.

Exact values are computed on reduced integer pairs ``(num, den)``, not
on ``Fraction`` objects. With left = ln/ld, up = un/ud and alpha = an/ad,
one entry is

    dp  = ln*ad + (ad - an)*ld
    num = un*dp + (ln*ud - un*ld)*ad
    den = ud*dp

divided by their gcd, so every stored pair is in lowest terms with a
positive denominator, the form ``Fraction`` keeps. An exact
``CountdownMatrix`` holds each row as a list of numerators and a list of
denominators. A value becomes a ``Fraction`` only where it leaves this
module: ``CountdownMatrix.entry`` and ``defined_entries``, exact
``closed_form``, ``obr`` and ``handicap_obr``, and a mismatch in a
``verify_matrix`` report. CSV and JSON format the pair directly
(``matrix_csv_lines`` and ``matrix_json_chunks`` format each row as it
is filled). The float recurrence runs on floats throughout.

``entry_pair`` is the strategy's one reader of x: the closed form, else
one exact table per variant, grown on demand; the four most recently
read variants keep theirs.

A matrix fill is O(n^2) entries, so ``build_matrix`` and the fills behind
``matrix_csv_lines``, ``matrix_json_chunks``, ``entry_pair``, ``obr``,
``handicap_obr`` and ``verify_matrix`` refuse a side above
``MAX_EXACT_SIDE`` (exact) or ``MAX_FLOAT_SIDE`` (float) with
ResourceError, before allocating anything.

The fixed-value all-pay matrix at general alpha is an extension derived
from the same indifference argument. ``verify_matrix`` has a closed form
to check it against only at alpha in {0, 1}, and no report marks it. At
alpha = 1/2 the tests play it: the strategy reading it wins the sweep
(T = 11) and omnipotent-adversary games (T = 3, 5) at its ratio, and
loses those games at 9/10 of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

from .core import (
    UNWINNABLE,
    AuctionVariant,
    DomainError,
    NoClosedFormError,
    Ratio,
    ResourceError,
    ceil_div,
    check_countdowns,
    check_turns,
)

# Largest matrix side a fill accepts. Exact entries at a fractional alpha
# grow by about one digit per row, so the exact fill's time grows faster
# than n^2; a float matrix holds n^2 Python floats.
MAX_EXACT_SIDE = 512
MAX_FLOAT_SIDE = 2048

# entry_pair's exact tables (rows 0..n) for variants with no closed form,
# least recently read first, at most _MAX_TABLES of them.
_MAX_TABLES = 4
_TABLES: dict = {}


def _check_side(n: int, exact: bool) -> None:
    if n.__class__ is not int:
        raise DomainError(f"matrix size must be an int, got {n!r}")
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    limit = MAX_EXACT_SIDE if exact else MAX_FLOAT_SIDE
    if n > limit:
        kind = "exact" if exact else "float"
        raise ResourceError(f"matrix side {n} exceeds the {kind} ceiling of {limit}")


class CountdownMatrix:
    """Filled grid of budget ratios for one variant.

    Rows are indexed 1..n with a virtual all-zero row 0 (a player who
    needs nothing wins for free). For triangular variants, entries with
    i > j read as the UNWINNABLE sentinel. An exact matrix stores row i as
    ``(numerators, denominators)``; a float matrix as a list of floats.
    """

    def __init__(self, variant: AuctionVariant, n: int, rows: list, exact: bool):
        self.variant = variant
        self.n = n
        self.exact = exact
        self._rows = rows

    def entry(self, i: int, j: int) -> Ratio:
        check_countdowns(i, j)
        if not (0 <= i <= self.n and 1 <= j <= self.n):
            raise DomainError(f"entry ({i}, {j}) outside matrix of size {self.n}")
        row = self._rows[i]
        if self.variant.is_triangular and i > j:
            return UNWINNABLE
        if self.exact:
            return Fraction(row[0][j], row[1][j])
        return row[j]

    def defined_entries(self):
        """Yield (i, j, value) over all defined entries, row-major."""
        for i in range(1, self.n + 1):
            for j in range(i if self.variant.is_triangular else 1, self.n + 1):
                yield i, j, self.entry(i, j)

    def to_csv(self) -> str:
        return "".join(_csv_lines(self.variant, self.n, self._rows, self.exact))

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant.short_name,
            "alpha": float(self.variant.alpha),
            "n": self.n,
            "entries": [
                _cells(self.variant, i, row, self.exact, text=False)
                for i, row in enumerate(islice(self._rows, 1, None), 1)
            ],
        }


def _cells(variant: AuctionVariant, i: int, row, exact: bool, text: bool) -> list:
    """Row i's cells, columns 1..n: CSV text, or else JSON values."""
    start = i if variant.is_triangular else 1
    cells = ["inf" if text else None] * (start - 1)
    if exact:
        nums, dens = row
        cells += [str(n) if d == 1 else f"{n}/{d}" for n, d in zip(nums[start:], dens[start:])]
    elif text:
        cells += [format(v, ".17g") for v in row[start:]]
    else:
        cells += row[start:]
    return cells


def _csv_lines(variant: AuctionVariant, n: int, rows, exact: bool):
    """Yield the CSV header, then one line per row of ``rows`` (rows 0..n; row 0 is skipped)."""
    yield "i\\j," + ",".join(str(j) for j in range(1, n + 1)) + "\n"
    for i, row in enumerate(islice(rows, 1, None), 1):
        yield f"{i}," + ",".join(_cells(variant, i, row, exact, text=True)) + "\n"


def _json_chunks(variant: AuctionVariant, n: int, rows, exact: bool):
    """Yield ``json.dumps`` of the matrix's JSON dict in pieces: the head, one row each, the close and a newline."""
    yield '{"variant": %s, "alpha": %s, "n": %d, "entries": [' % (
        json.dumps(variant.short_name), json.dumps(float(variant.alpha)), n
    )
    sep = ""
    for i, row in enumerate(islice(rows, 1, None), 1):
        yield sep + json.dumps(_cells(variant, i, row, exact, text=False))
        sep = ", "
    yield "]}\n"


def _float_rows(variant: AuctionVariant, n: int):
    """Yield rows 0..n of the n-column countdown matrix in floats, one list each.

    Only the row above is kept, so a caller that needs one row holds O(n)
    numbers. Value-set rows start on the diagonal; their entries left of
    it are zero placeholders.
    """
    keep = 1 - float(variant.alpha)  # loser keeps this share of a bid
    above = [0.0] * (n + 1)
    yield above
    for i in range(1, n + 1):
        row = [0.0] * (n + 1)
        if variant.is_triangular:
            start, left = i, 1 + above[i]
        else:
            start, left = 1, 0.0 + i
        row[start] = left
        for j in range(start + 1, n + 1):
            up = above[j]
            left = up + (left - up) / (left + keep)
            row[j] = left
        yield row
        above = row


def _float_row(variant: AuctionVariant, n: int, i: int) -> list:
    """Row i of the n-column float matrix: the list ``_float_rows`` yields at index i.

    Advances four rows per pass over the columns and keeps only the last
    of them as a list: the other three live in the running values l0..l2,
    each row's entry computed from the one above it exactly as in
    ``_float_rows``, so every float is the same. The first i % 4 rows
    come from ``_float_rows`` itself.
    """
    keep = 1 - float(variant.alpha)  # loser keeps this share of a bid
    above = next(islice(_float_rows(variant, n), i % 4, None))
    for r in range(i % 4 + 1, i + 1, 4):  # rows r..r+3; this row becomes r+3
        if variant.is_triangular:
            # Row r+m starts on its diagonal, 1 + (row r+m-1)[r+m]: each column
            # r..r+3 advances the rows started so far, then starts the next.
            started = []
            for up in above[r:r + 4]:
                for m, left in enumerate(started):
                    up = started[m] = up + (left - up) / (left + keep)
                started.append(1 + up)
            l0, l1, l2, l3 = started
            row = [0.0] * (r + 3)
            row.append(l3)
            start = r + 4
        else:
            l0, l1, l2, l3 = 0.0 + r, 0.0 + (r + 1), 0.0 + (r + 2), 0.0 + (r + 3)
            row = [0.0, l3]
            start = 2
        append = row.append
        for up in islice(above, start, None):
            l0 = up + (l0 - up) / (l0 + keep)
            l1 = l0 + (l1 - l0) / (l1 + keep)
            l2 = l1 + (l2 - l1) / (l2 + keep)
            l3 = l2 + (l3 - l2) / (l3 + keep)
            append(l3)
        above = row
    return above


def _pair_rows(variant: AuctionVariant, n: int):
    """Yield rows 0..n exactly, each as (numerators, denominators) of reduced pairs.

    The same recurrence and row order as ``_float_rows``; placeholders
    left of a value-set diagonal are (0, 1).
    """
    an, ad = variant.alpha_pair
    kn = ad - an  # the loser keeps kn/ad of a bid
    above_n, above_d = [0] * (n + 1), [1] * (n + 1)
    yield above_n, above_d
    for i in range(1, n + 1):
        nums, dens = [0] * (n + 1), [1] * (n + 1)
        if variant.is_triangular:
            start, ln, ld = i, above_n[i] + above_d[i], above_d[i]
        else:
            start, ln, ld = 1, i, 1
        nums[start], dens[start] = ln, ld
        for j in range(start + 1, n + 1):
            un, ud = above_n[j], above_d[j]
            dp = ln * ad + kn * ld
            num = un * dp + (ln * ud - un * ld) * ad
            den = ud * dp
            g = gcd(num, den)
            ln, ld = num // g, den // g
            nums[j], dens[j] = ln, ld
        yield nums, dens
        above_n, above_d = nums, dens


def _rows(variant: AuctionVariant, n: int, exact: bool):
    """The exact or float fill of rows 0..n; checks n's ceiling on the call, not on the first row."""
    _check_side(n, exact)
    return _pair_rows(variant, n) if exact else _float_rows(variant, n)


def build_matrix(variant: AuctionVariant, n: int, exact: bool = False) -> CountdownMatrix:
    """Build the countdown matrix of size n for the given variant.

    O(n^2) entry computations; fill is row-major from each row's boundary
    (each entry needs only its left and upper neighbours). Raises
    ResourceError above ``MAX_EXACT_SIDE``/``MAX_FLOAT_SIDE``.
    """
    return CountdownMatrix(variant, n, list(_rows(variant, n, exact)), exact)


def matrix_csv_lines(variant: AuctionVariant, n: int, exact: bool = False):
    """``build_matrix(variant, n, exact).to_csv()`` one line at a time.

    Each line is formatted as its row is filled, and only the row above
    is kept, so the text streams out in O(n) memory. Raises ResourceError
    above the same ceilings as ``build_matrix``, before any line.
    """
    return _csv_lines(variant, n, _rows(variant, n, exact), exact)


def matrix_json_chunks(variant: AuctionVariant, n: int, exact: bool = False):
    """``json.dumps(build_matrix(variant, n, exact).to_json_dict())`` and a newline, a row at a time.

    Streams like ``matrix_csv_lines``: each row is encoded as it is
    filled, with only the row above kept. Raises ResourceError above the
    same ceilings as ``build_matrix``, before any text.
    """
    return _json_chunks(variant, n, _rows(variant, n, exact), exact)


def closed_form_pair(variant: AuctionVariant, i: int, j: int) -> tuple[int, int]:
    """Closed-form entry (i, j) as a reduced (numerator, denominator) pair.

    Needs ``variant.has_closed_form``, i, j >= 1 and, on a triangular
    variant, i <= j; ``closed_form`` checks all three.
    """
    if variant.is_triangular:
        if variant.alpha_pair[0] == 0:
            num, den = i * (j - i + 3), (j - i + 1) * (j + 2)
        else:
            den = (j - i + 1) * (j + 1)
            num = den + (i - 1) * (j - i + 3)
    elif variant.alpha_pair[0] == 0:
        num, den = i, j
    else:
        num, den = i + j - 1, j
    g = gcd(num, den)
    return num // g, den // g


def entry_pair(variant: AuctionVariant, i: int, j: int) -> tuple[int, int]:
    """Exact defined entry (i, j), i >= 0 and j >= 1, as a reduced (numerator, denominator) pair.

    Where no closed form exists, the variant's table is refilled at side
    max(i, j) when a read needs a larger one (entries do not depend on the
    side); ResourceError above ``MAX_EXACT_SIDE``, as in ``build_matrix``.
    """
    if variant.has_closed_form:
        return closed_form_pair(variant, i, j) if i else (0, 1)
    # Entries depend on the value model and alpha alone; hashing these
    # ints is far cheaper than hashing the variant.
    key = (variant.is_triangular,) + variant.alpha_pair
    rows = _TABLES.pop(key, ())
    if len(rows) <= max(i, j):
        rows = list(_rows(variant, max(i, j), True))
    _TABLES[key] = rows  # now the most recently read
    if len(_TABLES) > _MAX_TABLES:
        del _TABLES[next(iter(_TABLES))]
    nums, dens = rows[i]
    return nums[j], dens[j]


def closed_form(variant: AuctionVariant, i: int, j: int, exact: bool = False) -> Ratio:
    """Closed-form matrix entry, where one exists.

    set01, alpha=0:   i * (j - i + 3) / ((j - i + 1) * (j + 2))
    set01, alpha=1:   1 + (i - 1) * (j - i + 3) / ((j - i + 1) * (j + 1))
    fixed, alpha=0:   i / j
    fixed, alpha=1:   (i + j - 1) / j

    First-price is alpha = 0. Other alphas have no closed form and raise
    NoClosedFormError. Triangular variants return UNWINNABLE for i > j.
    Countdowns that are not ints (bools included) raise DomainError.
    """
    if i.__class__ is not int or j.__class__ is not int:  # inline: solve's hot path
        check_countdowns(i, j)
    if i < 1 or j < 1:
        raise DomainError(f"closed form needs i, j >= 1, got ({i}, {j})")
    if not variant.has_closed_form:
        raise NoClosedFormError(
            f"no closed form for all-pay with alpha={variant.alpha}; build the matrix instead"
        )
    if variant.is_triangular and i > j:
        return UNWINNABLE
    num, den = closed_form_pair(variant, i, j)
    return Fraction(num, den) if exact else num / den


def obr(variant: AuctionVariant, turns: int, exact: bool = False) -> Ratio:
    """Optimal budget ratio for a fresh game of the given length: ``handicap_obr`` at k = 0."""
    return handicap_obr(variant, turns, 0, exact)


def handicap_obr(variant: AuctionVariant, turns: int, k: int, exact: bool = False) -> Ratio:
    """Budget ratio guaranteeing P1 finishes at most k points behind.

    The relaxed objective shifts the start to countdown pair
    (ceil((T-k)/2), ceil((T+k)/2)); a nonpositive first index means P1
    needs nothing, so the ratio is 0.
    """
    if turns.__class__ is not int or turns < 1:  # inline: this is solve's hot path
        check_turns(turns)
    if k.__class__ is not int:
        raise DomainError(f"handicap must be an int, got {k!r}")
    if k < 0:
        raise DomainError(f"handicap must be nonnegative, got {k}")
    i = ceil_div(turns - k, 2)
    j = ceil_div(turns + k, 2)
    if i <= 0:
        return Fraction(0) if exact else 0.0
    if variant.has_closed_form:
        return closed_form(variant, i, j, exact=exact)
    if exact:  # rolling rows of the recurrence
        nums, dens = next(islice(_rows(variant, j, True), i, None))
        return Fraction(nums[j], dens[j])
    _check_side(j, False)
    return _float_row(variant, j, i)[j]


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

    Compares reduced integer pairs row by row, holding two rows at a time.
    Raises NoClosedFormError for variants without one (all-pay with
    alpha outside {0, 1}).
    """
    closed_form(variant, 1, 1, exact=True)  # fail fast if no closed form
    rows = _rows(variant, n, exact=True)
    checked = 0
    for i, (nums, dens) in enumerate(islice(rows, 1, None), 1):
        for j in range(i if variant.is_triangular else 1, n + 1):
            checked += 1
            dp, cf = (nums[j], dens[j]), closed_form_pair(variant, i, j)
            if dp != cf:
                return MatrixVerifyReport(variant, n, False, checked, (i, j, Fraction(*dp), Fraction(*cf)))
    return MatrixVerifyReport(variant, n, True, checked)
