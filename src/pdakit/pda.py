"""Placement delivery arrays: the array type, its validator, and reference constructions.

An array over ``{*} ∪ {1..S}`` with F rows (packet indices) and K columns
(users) encodes a whole coded caching scheme: stars say what each user
caches, and every integer names one coded broadcast.  Validity means:

  * every column carries the same number of stars (``z``), and
  * two equal integers always sit in distinct rows and columns with stars
    at both cross positions (the 2x2 subarray they span is star-crossed).

Grids are stored as integer matrices with ``STAR == 0``; real colors are
the positive integers.  Colors are kept in canonical form: renumbered
``1..s`` by first occurrence in column-major order, so equal schemes
compare equal byte for byte.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter, InvalidPda, MalformedGrid, ParseError, allocating, index, int64s

STAR = 0

# Violation condition identifiers.
COND_COLUMN_STARS = "column-stars"   # a column's star count differs from z
COND_PAIR_DISTINCT = "pair-distinct" # equal integers share a row or column
COND_PAIR_CROSS = "pair-cross"       # a cross position of an equal pair is not a star
COND_COLOR_RANGE = "color-range"     # a text header's S differs from the colors 1..S used


@dataclass(frozen=True)
class Violation:
    """One failed validity condition.

    ``cells`` holds ``(j,)`` (the column index) for ``column-stars``, the
    offending cell pair ``((i1, j1), (i2, j2))`` for the pair conditions, else ``()``.
    """

    condition: str
    cells: tuple

    def __str__(self):
        return f"{self.condition} at {self.cells}"


@dataclass(frozen=True, eq=False)
class VerifyReport:
    """The verdict of ``verify``, with ``violations`` built on first request.

    ``valid`` and ``z`` are worked out at once; a caller that reads only
    them, such as the training reward, never builds a record.
    """

    valid: bool
    z: int
    _records: Callable[[], tuple[Violation, ...]] = field(repr=False)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        return self._records()

    def __bool__(self):
        return self.valid


def as_grid(raw) -> np.ndarray:
    """Normalize raw input into an int matrix with 0 marking stars.

    Accepts a Pda, whose read-only grid comes back with no scan, or a 2-D
    collection whose entries are positive integers (colors) or one of
    ``0``, ``None``, ``"*"`` (stars), read by errors.int64s.  Raises
    MalformedGrid for input that is not rows of entries, ragged rows, empty
    grids, or any other entry, one past int64 included.  An int64 ndarray comes back as itself, not a copy:
    callers that keep the grid must copy it.
    """
    if isinstance(raw, Pda):
        return raw.grid
    if isinstance(raw, np.ndarray) and (raw.ndim != 2 or raw.size == 0):
        raise MalformedGrid(f"expected a non-empty 2-D grid, got shape {raw.shape}")
    try:
        if isinstance(raw, np.ndarray) and np.issubdtype(raw.dtype, np.number):
            return int64s(raw, "grid entry", start=0)
        try:
            rows = [[STAR if v is None or isinstance(v, str) and v == "*" else v for v in row]
                    for row in raw]
        except TypeError:
            raise MalformedGrid(f"expected a 2-D grid of rows, got {reprlib.repr(raw)}") from None
        widths = set(map(len, rows))
        if len(widths) != 1 or 0 in widths:
            raise MalformedGrid(f"expected rows of one length above 0, got lengths {sorted(widths)}")
        return int64s([v for row in rows for v in row], "grid entry", start=0).reshape(len(rows), -1)
    except InvalidParameter as exc:
        raise MalformedGrid(str(exc)) from None


def canonicalize_colors(grid: np.ndarray) -> np.ndarray:
    """Renumber colors 1..s by first occurrence in column-major order."""
    cols = grid.T
    colored = cols != STAR
    _, first, inverse = np.unique(cols[colored], return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(1, first.size + 1)
    out = np.zeros_like(grid)
    out.T[colored] = rank[inverse.ravel()]
    return out


def _pair_kernel(grid: np.ndarray) -> tuple[bool, Callable[[], list[Violation]]]:
    """Test every equal-integer cell pair: (all pairs hold, their Violation records).

    Cells are grouped by color class and all within-class pairs are tested
    in one vectorized pass, which gives the answer.  The second item builds
    the broken pairs' records when called.  Order: colors by first
    row-major occurrence, cells row-major within a color, pairs in
    ``itertools.combinations`` order; a pair sharing a row or column is
    reported as ``pair-distinct`` even when a cross position is also filled.
    """
    flat = grid.ravel()
    cells = np.flatnonzero(flat != STAR)
    cells = cells[np.argsort(flat[cells], kind="stable")]
    color = flat[cells]
    # Pair each cell (a) with every later cell (b) of its own color class.
    later = np.searchsorted(color, color, side="right") - np.arange(cells.size) - 1
    a = np.repeat(np.arange(cells.size), later)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(later) - later, later)
    r, c = np.divmod(cells, grid.shape[1])
    ra, ca, rb, cb = r[a], c[a], r[b], c[b]
    distinct = (ra == rb) | (ca == cb)
    broken = distinct | (grid[ra, cb] != STAR) | (grid[rb, ca] != STAR)

    def records() -> list[Violation]:
        bad = np.flatnonzero(broken)
        # Classes are sorted by value so far; report them by their first row-major cell.
        first = cells[np.searchsorted(color, color[a[bad]])]
        bad = bad[np.argsort(first, kind="stable")]
        return [
            Violation(COND_PAIR_DISTINCT if d else COND_PAIR_CROSS, ((i1, j1), (i2, j2)))
            for d, i1, j1, i2, j2 in zip(*(x[bad].tolist() for x in (distinct, ra, ca, rb, cb)))
        ]

    return not broken.any(), records


def verify(raw, z: Optional[int] = None) -> VerifyReport:
    """Check the two validity conditions on a raw grid.

    ``z`` defaults to the star count of column 0.  A declared ``z`` that
    disagrees with any column is reported as a violation, not an error.
    Column-star violations come first, then those of the pair kernel.
    Runs in O(cells log cells + sum of squared color-class sizes) in numpy;
    the violation records are built only when the report's ``violations``
    are read.
    """
    grid = as_grid(raw)
    stars_per_col = (grid == STAR).sum(axis=0)
    z = int(stars_per_col[0]) if z is None else index(z, "z")
    off = np.flatnonzero(stars_per_col != z)
    pairs_ok, pair_records = _pair_kernel(grid)

    def records() -> tuple[Violation, ...]:
        return (*(Violation(COND_COLUMN_STARS, (j,)) for j in off.tolist()), *pair_records())

    return VerifyReport(valid=pairs_ok and not off.size, z=z, _records=records)


@dataclass(frozen=True)
class Pda:
    """A validated placement delivery array in canonical color form.

    Construct through :meth:`from_grid`, which canonicalizes colors and
    rejects invalid arrays.  Instances are immutable and safe to share.
    """

    grid: np.ndarray
    z: int

    def __post_init__(self):
        self.grid.setflags(write=False)

    @classmethod
    def from_grid(cls, raw, z: Optional[int] = None) -> "Pda":
        grid = canonicalize_colors(as_grid(raw))
        report = verify(grid, z)
        if not report.valid:
            raise InvalidPda(
                f"array fails validation ({len(report.violations)} violations)",
                report.violations,
            )
        return cls(grid=grid, z=report.z)

    @property
    def f(self) -> int:
        """Rows: packets per file."""
        return self.grid.shape[0]

    @property
    def k(self) -> int:
        """Columns: users."""
        return self.grid.shape[1]

    @property
    def s(self) -> int:
        """Distinct colors (broadcast slots)."""
        return int(self.grid.max(initial=0))

    def star_rows(self, col: int) -> tuple[int, ...]:
        """Rows cached by user ``col``."""
        return tuple(np.nonzero(self.grid[:, col] == STAR)[0].tolist())

    def __eq__(self, other):
        if not isinstance(other, Pda):
            return NotImplemented
        return self.z == other.z and np.array_equal(self.grid, other.grid)

    def __hash__(self):
        return hash((self.z, self.grid.tobytes()))

    def __repr__(self):
        return f"Pda(k={self.k}, f={self.f}, z={self.z}, s={self.s})"


@dataclass(frozen=True)
class RateReport:
    delivery_rate: Fraction
    memory_ratio: Fraction


def rate(p: Pda) -> RateReport:
    """Exact broadcast load (colors per packet row) and cache fraction."""
    return RateReport(
        delivery_rate=Fraction(p.s, p.f),
        memory_ratio=Fraction(p.z, p.f),
    )


def _binom_up_to(n: int, r: int, limit: int) -> Optional[int]:
    """C(n, r) for 0 < r < n if it is at most ``limit``, else None.

    C(n, r) >= (n/m)^m for m = min(r, n-r), so one far past the limit is
    refused before it is computed, which takes minutes at n in the millions.
    """
    m = min(r, n - r)
    if m * math.log2(n / m) > math.log2(limit):
        return None
    c = math.comb(n, r)
    return c if c <= limit else None


def _t_subset_stars(k: int, t: int, out: np.ndarray) -> None:
    """Row i of the (C(k, t), k) bool out: True at the i-th t-subset of range(k), lexicographically.

    At column j the rows form blocks of C(k-j, m) that still need m
    members from columns j.. ; the first C(k-j-1, m-1) rows of a block take
    j.  Blocks of one column that need the same m continue alike, so one of
    them is built and the others copy it at the end, deepest first: O(k·t)
    numpy calls, and no memory beyond out.
    """
    out[:] = False
    level = {t: (0, len(out))} if t else {}  # members still needed -> rows built for it
    copies = []
    for j in range(k):
        nxt: dict[int, tuple[int, int]] = {}
        for m, (lo, hi) in level.items():
            take = lo + math.comb(k - j - 1, m - 1)
            out[lo:take, j] = True
            for need, rows in ((m - 1, (lo, take)), (m, (take, hi))):
                if need and rows[0] < rows[1]:
                    if need in nxt:
                        copies.append((j + 1, nxt[need], rows))
                    else:
                        nxt[need] = rows
        level = nxt
    for j, (lo, hi), (to, end) in reversed(copies):
        out[to:end, j:] = out[lo:hi, j:]


def construct_mn_pda(k_users: int, t: int) -> Pda:
    """The classical Maddah-Ali--Niesen array for K users at cache level t/K.

    Rows are the t-subsets of users in lexicographic order; a cell (T, k) is
    a star when k is in T, else the lexicographic index of T ∪ {k} among
    (t+1)-subsets.  Shape: F = C(K,t), Z = C(K-1,t-1), S = C(K,t+1).
    """
    k_users, t = index(k_users, "k_users"), index(t, "t")
    if k_users < 2:
        raise InvalidParameter(f"need at least 2 users, got {k_users}")
    if not 1 <= t <= k_users - 1:
        raise InvalidParameter(f"t={t} outside [1, {k_users - 1}]")
    # The grid first: a shape too large for memory fails before the subsets are built.
    too_large = f"the C({k_users}, {t}) x {k_users} array's cells do not fit in memory"
    f = _binom_up_to(k_users, t, 2**63)
    if f is None:
        raise InvalidParameter(too_large)
    with allocating(too_large):
        grid = np.empty((f, k_users), dtype=np.int64)
        stars = np.empty((f, k_users), dtype=bool)
    _t_subset_stars(k_users, t, stars)
    rows = np.nonzero(stars)[1].reshape(f, t)
    # Combinatorial number system: c_0 < ... < c_t has lexicographic index
    # C(K, t+1) - 1 - sum_i C(K-1-c_i, t+1-i) among the (t+1)-subsets.
    binom = np.array([[math.comb(n, r) for r in range(t + 2)] for n in range(k_users)])
    for k in range(k_users):
        after = rows > k  # members past k move one place up in T ∪ {k}
        members = binom[k_users - 1 - rows, t + 1 - np.arange(t) - after].sum(axis=1)
        own = binom[k_users - 1 - k, t + 1 - (~after).sum(axis=1)]
        grid[:, k] = math.comb(k_users, t + 1) - members - own
    grid[stars] = STAR
    return Pda(grid=grid, z=math.comb(k_users - 1, t - 1))


# --- text format ---------------------------------------------------------
#
# Line 1: `K F Z S`; then F lines of K whitespace-separated tokens, each
# `*` or a decimal color.  Lines starting with `#` are comments (used for
# embedded seed/config metadata) and are skipped by the parser.  Anything
# after the F rows other than comments or blank lines is rejected.


def pda_to_text(p, comments: Sequence[str] = ()) -> str:
    """Text of a Pda, or of an unvalidated raw grid (Z: column 0's stars)."""
    grid = as_grid(p)
    z = p.z if isinstance(p, Pda) else int((grid[:, 0] == STAR).sum())
    f, k = grid.shape
    lines = [f"# {c}" for c in comments]
    lines.append(f"{k} {f} {z} {int(grid.max(initial=0))}")
    for row in grid.tolist():
        lines.append(" ".join("*" if v == STAR else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _is_decimal(tok: str) -> bool:
    """ASCII digits only: ``str.isdigit`` alone also admits tokens like ``²``."""
    return tok.isascii() and tok.isdigit()


def parse_pda_text(text: str) -> tuple[np.ndarray, int, int, int, int]:
    """Parse the text format into (grid, k, f, z, s) without validation.

    Raises ParseError with the position of the first bad token.
    """
    lines, values = [], []  # each row's line number; the rows' colors, stars as 0, row after row
    f_expected = k_expected = z_decl = s_decl = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if f_expected is None:
            if len(tokens) != 4:
                raise ParseError(
                    f"line {lineno}: header must be 'K F Z S', got {len(tokens)} tokens",
                    line=lineno, token=0,
                )
            if not all(_is_decimal(t) for t in tokens):
                raise ParseError(f"line {lineno}: non-integer header token", line=lineno, token=0)
            k_expected, f_expected, z_decl, s_decl = (int(t) for t in tokens)
            if k_expected < 1 or f_expected < 1:
                raise ParseError(f"line {lineno}: header values out of range", line=lineno, token=0)
            continue
        if len(lines) >= f_expected:
            raise ParseError(
                f"line {lineno}: trailing garbage after {f_expected} rows", line=lineno, token=0
            )
        if len(tokens) != k_expected:
            raise ParseError(
                f"line {lineno}: expected {k_expected} tokens, got {len(tokens)}",
                line=lineno, token=min(len(tokens), k_expected),
            )
        for pos, tok in enumerate(tokens):
            if tok == "*":
                values.append(STAR)
            elif _is_decimal(tok) and not tok.startswith("0"):
                values.append(int(tok))
            else:
                raise ParseError(f"line {lineno}: bad token {tok!r}", line=lineno, token=pos)
        lines.append(lineno)
    if f_expected is None:
        raise ParseError("missing header line", line=1, token=0)
    if len(lines) != f_expected:
        raise ParseError(f"expected {f_expected} rows, got {len(lines)}")
    try:
        grid = int64s(values, "color").reshape(f_expected, k_expected)
    except InvalidParameter:  # only a token past int64 is refused here: name the first
        for n, v in enumerate(values):
            try:
                int64s((v,), "color")
            except InvalidParameter as exc:
                lineno, pos = lines[n // k_expected], n % k_expected
                raise ParseError(f"line {lineno}: {exc}: {v}", line=lineno, token=pos) from None
    return grid, k_expected, f_expected, z_decl, s_decl


def pda_from_text(text: str) -> Pda:
    """Parse and validate: ``verify`` against the header's Z, and its S must be
    exactly the colors used (``color-range``, listed after verify's violations)."""
    grid, _, _, z_decl, s_decl = parse_pda_text(text)
    try:
        p, violations = Pda.from_grid(grid, z=z_decl), []
    except InvalidPda as exc:
        violations = exc.violations
    # Distinct colors, all >= 1, are exactly 1..S iff S of them end at S;
    # nothing is sized by the header's S, which may be any decimal.
    colors = np.unique(grid[grid != STAR])
    if len(colors) != s_decl or (s_decl and int(colors[-1]) != s_decl):
        violations.append(Violation(COND_COLOR_RANGE, ()))
    if violations:
        raise InvalidPda(f"array fails validation ({len(violations)} violations)", violations)
    return p
