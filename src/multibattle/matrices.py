"""Countdown matrices: minimum budget ratios indexed by countdown pairs.

Entry (i, j) is the smallest ratio of P1's budget to P2's budget that
guarantees P1 the win from a state where P1 still needs i value-1 wins and
P2 needs j. The two value-set variants are upper triangular (with i > j
the adversary can zero out every turn P1 could take, so no budget
suffices); the two fixed-value variants are full grids.

Every variant obeys one recurrence. First-price pricing is all-pay
with alpha = 0 (the loser pays alpha times her bid), so the pricing rule
enters only through alpha. Row 0 is all zero (a player who needs nothing
has won), and each row starts from its boundary: the diagonal
``x[i][i] = 1 + x[i-1][i]`` on value-set matrices (P1 must take the next
contested turn at P2's full budget), column 1 ``x[i][1] = i`` on
fixed-value ones. Every other entry is fixed by the indifference between
winning and losing the turn at the optimal bid fraction:

    x[i][j] = x[i-1][j] + (x[i][j-1] - x[i-1][j]) / (x[i][j-1] + 1 - alpha)

Closed forms exist at every alpha. At alpha = a in {0, 1} they are O(1):
a + (i - a)(j - i + 3) / ((j - i + 1)(j + 2 - a)) on value-set matrices
(i <= j) and (i + a(j - 1)) / j on fixed-value ones. Elsewhere they are
binomial sums of O(j) terms (``_binomial_pair``). ``verify_matrix``
checks the recurrence against them exactly. Fills at alpha in {0, 1}
read the O(1) form row by row (``_closed_rows``), so a float entry is the
exact value rounded once; elsewhere the recurrence fills, and only float
reads (``closed_form``, ``obr``) divide the exact pair once.

``obr``, ``handicap_obr`` and ``closed_form`` check their arguments once,
then read one entry through ``_read``: ``_closed_terms``, the O(1) forms
unreduced, which only an exact read reduces (see ``_read``).

The policy's bid fraction is the row step r* = x[i][j] - x[i-1][j], and
``bid_fraction_pair`` is its one reader. At alpha = a in {0, 1} it is O(1):
with k = j - i + 1, 1 at a = i = 1, else 1/j on fixed-value matrices and
(2(i - a) + k(k + 3)) / (k(k + 1)(j + 2 - a)) on value-set ones, whose row
i - 1 has k + 1 in place of k: over that common denominator the numerators
differ by (i - a)(k + 2)(k + 1) - (i - 1 - a)(k + 3)k. Row 0 is the virtual
all-zero row, not the form at i = 0, which is why a = 1 treats i = 1 apart:
there r* is all of x[1][j] = 1.

Exact values are reduced integer pairs ``(num, den)`` with a positive
denominator, not ``Fraction`` objects. With left = ln/ld, up = un/ud and
alpha = an/ad, one entry is

    dp  = ln*ad + (ad - an)*ld
    num = un*dp + (ln*ud - un*ld)*ad
    den = ud*dp

divided by their gcd. A value becomes a ``Fraction`` only where it
leaves this module; CSV and JSON format each row as it is filled.

``entry_pair`` is the one reduced reader of x: ``_closed_terms`` reduced at
alpha in {0, 1}, else the binomial sums behind a memo of at most 16384
entries, where ``bid_fraction_pair`` is the difference of two of its reads.

A fill is O(n^2) entries, so ``build_matrix``, the CSV and JSON streams
and ``verify_matrix`` refuse a side above ``MAX_EXACT_SIDE`` (exact) or
``MAX_FLOAT_SIDE`` (float) with ResourceError, before allocating
anything; the binomial sums refuse max(i, j) above the same ceilings the
same way.

The fixed-value all-pay matrix at general alpha extends the same
indifference argument; ``verify_matrix`` checks it exactly. At alpha =
1/2 the strategy reading it wins the sweep (T = 11) and omnipotent games
(T = 3, 5) at its ratio, and loses those games at 9/10 of it.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat, starmap
from math import comb, gcd
from operator import floordiv, truediv
from struct import Struct

from .core import (
    UNWINNABLE,
    AuctionVariant,
    DomainError,
    GameDecidedError,
    Ratio,
    ResourceError,
    UnwinnableStateError,
    _fraction,
    check_count,
    check_countdowns,
    check_variant,
)

# Largest matrix side a fill accepts. Exact entries at a fractional alpha
# grow by about one digit per row, so the exact fill's time grows faster
# than n^2; a float matrix holds (n + 1)^2 packed doubles, 34 MB at 2048.
MAX_EXACT_SIDE = 512
MAX_FLOAT_SIDE = 2048


def _check_side(n: int, exact: bool) -> None:
    check_count(n, "matrix size")
    limit = MAX_EXACT_SIDE if exact else MAX_FLOAT_SIDE
    if n > limit:
        kind = "exact" if exact else "float"
        raise ResourceError(f"matrix side {n} exceeds the {kind} ceiling of {limit}")


class CountdownMatrix:
    """Filled grid of budget ratios for one variant.

    Rows are indexed 1..n with a virtual all-zero row 0 (a player who
    needs nothing wins for free). For triangular variants, entries with
    i > j read as the UNWINNABLE sentinel. An exact matrix stores row i as
    ``(numerators, denominators)``; a float matrix as an ``array("d")`` of
    n + 1 doubles, packed from the list that ``_rows`` yields.
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
            return _fraction(row[0][j], row[1][j])
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
    it are zero placeholders. Only a fractional alpha fills this way, until
    a correctly rounded fill exists there.
    """
    keep = 1 - float(variant.alpha)  # loser keeps this share of a bid
    above = [0.0] * (n + 1)
    yield above
    for i in range(1, n + 1):
        if variant.is_triangular:
            start, left = i, 1 + above[i]
        else:
            start, left = 1, 0.0 + i
        row = [0.0] * start + [left]
        row += [left := up + (left - up) / (left + keep) for up in above[start + 1:]]
        yield row
        above = row


def _pair_rows(variant: AuctionVariant, n: int):
    """Yield rows 0..n exactly, each as (numerators, denominators) of reduced pairs.

    Row i starts at its boundary as in ``_float_rows`` and holds n + 1
    pairs; placeholders left of a value-set diagonal are (0, 1).
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


def _closed_rows(variant: AuctionVariant, n: int, exact: bool):
    """Yield rows 0..n at alpha = a in {0, 1} in the layout of ``_pair_rows`` (exact) or of ``_float_rows``.

    ``_closed_terms``'s unreduced forms come from a table ``t[k] == k`` of ints or of whole-number
    floats, exact since every term is below 4n^2 + 4n < 2**53 at ``MAX_FLOAT_SIDE``: one true division
    rounds a float entry once. A fixed-value row is (i + a(j - 1)) / j: i / j, or (i + j - 1) / j. A value-set
    row, with k = j - i + 1, is [a k(k + i + 1 - a) + (i - a)(k + 2)] / k(k + i + 1 - a): i(k + 2) / k(k + i + 1),
    or [k(k + i) + (i - 1)(k + 2)] / k(k + i). Its terms accumulate their steps, 2k + i + 2 - a below and i or
    2k + 2i above, the latter picked on a as a C-level iterator: a per-entry product would slow the fills.
    """
    t = range(2 * n + 2) if exact else list(map(float, range(2 * n + 2)))
    a = variant.alpha_pair[0]
    yield ([0] * (n + 1), [1] * (n + 1)) if exact else [0.0] * (n + 1)
    for i in range(1, n + 1):
        if variant.is_triangular:
            start, den = i, accumulate(t[i + 4 - a:2 * n - i + 3 - a:2], initial=t[i] + 2 - a)
            num = accumulate(t[2 * i + 2:2 * n + 1:2] if a else repeat(t[i], n - i), initial=(3 + a) * t[i] - 2 * a)
        else:
            start, den, num = 1, t[1:n + 1], (t[i:i + n] if a else repeat(t[i], n))
        if exact:
            num, den = list(num), list(den)
            g = list(map(gcd, num, den))
            yield [0] * start + list(map(floordiv, num, g)), [1] * start + list(map(floordiv, den, g))
        else:
            row = [0.0] * start
            row += map(truediv, num, den)
            yield row


def _rows(variant: AuctionVariant, n: int, exact: bool):
    """Rows 0..n of the closed form at alpha in {0, 1}, else of the recurrence; checks on the call, not on row 0."""
    check_variant(variant)
    _check_side(n, exact)
    if variant.has_closed_form:
        return _closed_rows(variant, n, exact)
    return _pair_rows(variant, n) if exact else _float_rows(variant, n)


def build_matrix(variant: AuctionVariant, n: int, exact: bool = False) -> CountdownMatrix:
    """Build the countdown matrix of size n, row-major from each row's boundary: O(n^2) entries.

    At alpha in {0, 1} each float entry is ``closed_form``'s exact value rounded once (fp-set
    x[7][7] reads 2.3333333333333335 for 7/3); at a fractional alpha a float fill runs the
    recurrence in floats, so an entry can differ from it in its last digits.
    Raises ResourceError above ``MAX_EXACT_SIDE``/``MAX_FLOAT_SIDE``.
    """
    rows = _rows(variant, n, exact)
    if not exact:  # each row as n + 1 packed doubles, 8 bytes an entry
        rows = (array("d", b) for b in starmap(Struct("%dd" % (n + 1)).pack, rows))
    return CountdownMatrix(variant, n, list(rows), exact)


def matrix_csv_lines(variant: AuctionVariant, n: int, exact: bool = False):
    """``build_matrix(variant, n, exact).to_csv()`` one line at a time, in O(n) memory.

    Each line is formatted as its row is filled. Raises ResourceError
    above ``build_matrix``'s ceilings, before any line.
    """
    return _csv_lines(variant, n, _rows(variant, n, exact), exact)


def matrix_json_chunks(variant: AuctionVariant, n: int, exact: bool = False):
    """``json.dumps(build_matrix(variant, n, exact).to_json_dict())`` and a newline, streamed like the CSV."""
    return _json_chunks(variant, n, _rows(variant, n, exact), exact)


def _series(n: int, terms: int, cut: int, kn: int, ad: int) -> int:
    """Sum over m < terms of [C(n+m, m) - C(n+m, m-cut)] * kn**(terms-1-m) * ad**m, by Horner's rule."""
    # C(n, k) is 0 for k < 0; each binomial times ad**m advances from the last.
    acc, c, d = 0, 1, 0  # the sum so far, C(n+m, m) * ad**m, C(n+m, m-cut) * ad**m
    for m in range(terms):
        if m:
            c = c * (ad * (n + m)) // m
        if m == cut:
            d = ad**m
        elif m > cut:
            d = d * (ad * (n + m)) // (m - cut)
        acc = acc * kn + c - d
    return acc


def _binomial_pair(is_triangular: bool, an: int, ad: int, i: int, j: int) -> tuple[int, int]:
    """Entry (i, j) at alpha = an/ad, i, j >= 1, as a reduced pair: binomial sums in q = 1 - alpha = kn/ad.

        fixed:  C(i+j-1, i-1) / sum_{m<j} C(i-1+m, m) q^(j-1-m)
        set01:  sum_{m<i} [C(j-1+m, m) - C(j-1+m, m-2)] q^(i-1-m)
                / sum_{m<j} [C(i-1+m, m) - C(i-1+m, m-(j-i+1))] q^(j-1-m),  i <= j

    The subtracted terms are ballot-problem reflections (Feller, vol. 1, ch. III).
    """
    kn = ad - an
    if is_triangular:
        num = _series(j - 1, i, 2, kn, ad) * ad ** (j - i)
        den = _series(i - 1, j, j - i + 1, kn, ad)
    else:
        num = comb(i + j - 1, i - 1) * ad ** (j - 1)
        den = _series(i - 1, j, j, kn, ad)
    g = gcd(num, den)
    return num // g, den // g


# entry_pair's memo, keyed by ints: hashing them beats hashing the variant.
_binomial_memo = lru_cache(maxsize=1 << 14)(_binomial_pair)


def _closed_terms(variant: AuctionVariant, i: int, j: int) -> tuple[int, int]:
    """Entry (i, j), i, j >= 1 (i <= j if triangular), as an unchecked pair with a positive denominator.

    At alpha = a in {0, 1} ``closed_form``'s two O(1) forms in a, not reduced; ``_binomial_pair``'s
    reduced pair elsewhere.
    """
    if not variant.has_closed_form:
        return _binomial_pair(variant.is_triangular, *variant.alpha_pair, i, j)
    a = variant.alpha_pair[0]
    if variant.is_triangular:
        den = (j - i + 1) * (j + 2 - a)
        return a * den + (i - a) * (j - i + 3), den
    return i + a * (j - 1), j


def entry_pair(variant: AuctionVariant, i: int, j: int) -> tuple[int, int]:
    """Exact defined entry (i, j), i >= 0 and j >= 1, as a reduced (numerator, denominator) pair.

    ``_closed_terms`` reduced, else the binomial sums memoized for the last
    16384 distinct reads; ResourceError for max(i, j) above ``MAX_EXACT_SIDE``.
    """
    if variant.has_closed_form:
        num, den = _closed_terms(variant, i, j) if i else (0, 1)
        g = gcd(num, den)
        return num // g, den // g
    _check_side(max(i, j), True)
    return _binomial_memo(variant.is_triangular, *variant.alpha_pair, i, j) if i else (0, 1)


def bid_fraction_pair(variant: AuctionVariant, i: int, j: int) -> tuple[int, int]:
    """The bid fraction r* = x[i][j] - x[i-1][j] at int countdowns (i, j), unreduced (see the module docstring).

    Raises GameDecidedError at a zero countdown, UnwinnableStateError at triangular i > j, DomainError on a non-variant.
    """
    if i <= 0 or j <= 0:
        raise GameDecidedError(f"countdown ({i}, {j}) already decides the game")
    try:
        if variant.is_triangular and i > j:
            raise UnwinnableStateError(f"state ({i}, {j}) cannot be won under {variant.short_name}")
        if variant.has_closed_form:  # a is alpha, 0 or 1
            a = variant.alpha_pair[0]
            if a and i == 1:
                return 1, 1
            if not variant.is_triangular:
                return 1, j
            k = j - i + 1
            return 2 * (i - a) + k * (k + 3), k * (k + 1) * (j + 2 - a)
        xn, xd = entry_pair(variant, i, j)
        wn, wd = entry_pair(variant, i - 1, j)
        return xn * wd - wn * xd, xd * wd
    except AttributeError:  # a variant attribute read on a non-variant
        if isinstance(variant, AuctionVariant):
            raise
    check_variant(variant)  # outside the handler, so its DomainError chains no AttributeError


def closed_form(variant: AuctionVariant, i: int, j: int, exact: bool = False) -> Ratio:
    """Closed-form matrix entry; O(1) at alpha = a in {0, 1}, where it reads the paper's form at a = 0 and a = 1:

    set01:  a + (i - a) * (j - i + 3) / ((j - i + 1) * (j + 2 - a))
            a = 0: i * (j - i + 3) / ((j - i + 1) * (j + 2))
            a = 1: 1 + (i - 1) * (j - i + 3) / ((j - i + 1) * (j + 1))
    fixed:  (i + a * (j - 1)) / j
            a = 0: i / j
            a = 1: (i + j - 1) / j

    First-price is alpha = 0. Other alphas take ``_binomial_pair``'s sums
    and raise ResourceError for max(i, j) above ``MAX_EXACT_SIDE`` (exact) or
    ``MAX_FLOAT_SIDE`` (float). Floats round the exact value once, at every
    alpha, and an exact read is reduced once (see ``_read``). Triangular
    variants return UNWINNABLE for i > j.
    Countdowns that are not ints (bools included) raise DomainError.
    """
    if i.__class__ is not int or j.__class__ is not int:  # inline: solve's hot path
        check_countdowns(i, j)
    if i < 1 or j < 1:
        raise DomainError(f"closed form needs i, j >= 1, got ({i}, {j})")
    return _read(variant, i, j, exact)


def _read(variant: AuctionVariant, i: int, j: int, exact: bool) -> Ratio:
    """``closed_form`` of int countdowns i, j >= 1, checked by the caller.

    The one reduction of an exact read is ``_fraction``'s gcd. A float read
    reduces nothing: true division of two Python ints is correctly rounded at
    any size, so ``num / den`` is the exact value rounded once.
    """
    try:
        if not variant.has_closed_form:
            _check_side(max(i, j), exact)
        if variant.is_triangular and i > j:
            return UNWINNABLE
        num, den = _closed_terms(variant, i, j)
        return _fraction(num, den) if exact else num / den
    except AttributeError:  # as in ``bid_fraction_pair``
        if isinstance(variant, AuctionVariant):
            raise
    check_variant(variant)


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
        check_count(turns, "turns")
    if k.__class__ is not int or k < 0:  # inline, as above
        check_count(k, "handicap", 0)
    i = (turns - k + 1) // 2  # ceil((T - k) / 2); j below is ceil((T + k) / 2)
    if i <= 0:
        check_variant(variant)
        return Fraction(0) if exact else 0.0
    return _read(variant, i, (turns + k + 1) // 2, exact)  # 1 <= i <= j, ints


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
    """Check the recurrence (``_pair_rows``) against the closed forms exactly, two rows at a time.

    At alpha in {0, 1} a row is compared whole with its ``_closed_rows`` row, and walked only to name
    its first mismatch; elsewhere entry by entry with ``_closed_terms``, bypassing ``entry_pair``'s memo.
    """
    check_variant(variant)
    _check_side(n, True)
    closed = _closed_rows(variant, n, True) if variant.has_closed_form else repeat(None)
    checked = 0
    rows = zip(islice(_pair_rows(variant, n), 1, None), islice(closed, 1, None))
    for i, ((nums, dens), want) in enumerate(rows, 1):
        start = i if variant.is_triangular else 1
        if want == (nums, dens):
            checked += n + 1 - start
            continue
        for j in range(start, n + 1):
            checked += 1
            dp, cf = (nums[j], dens[j]), (want[0][j], want[1][j]) if want else _closed_terms(variant, i, j)
            if dp != cf:
                return MatrixVerifyReport(variant, n, False, checked, (i, j, _fraction(*dp), _fraction(*cf)))
    return MatrixVerifyReport(variant, n, True, checked)
