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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameter, InvalidPda, MalformedGrid, ParseError

STAR = 0

# Violation condition identifiers.
COND_COLUMN_STARS = "column-stars"   # a column's star count differs from z
COND_PAIR_DISTINCT = "pair-distinct" # equal integers share a row or column
COND_PAIR_CROSS = "pair-cross"       # a cross position of an equal pair is not a star


@dataclass(frozen=True)
class Violation:
    """One failed validity condition.

    ``cells`` holds ``(j,)`` (the column index) for ``column-stars`` and the
    offending cell pair ``((i1, j1), (i2, j2))`` for the pair conditions.
    """

    condition: str
    cells: tuple

    def __str__(self):
        return f"{self.condition} at {self.cells}"


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...]
    z: int

    def __bool__(self):
        return self.valid


def as_grid(raw) -> np.ndarray:
    """Normalize raw input into an int matrix with 0 marking stars.

    Accepts a 2-D collection whose entries are positive integers (colors)
    or one of ``0``, ``None``, ``"*"`` (stars).  Raises MalformedGrid for
    ragged rows, empty grids, or any other entry.
    """
    if isinstance(raw, np.ndarray):
        if raw.ndim != 2 or raw.size == 0:
            raise MalformedGrid(f"expected a non-empty 2-D grid, got shape {raw.shape}")
        if not np.issubdtype(raw.dtype, np.integer):
            raw = raw.tolist()
        else:
            if (raw < 0).any():
                raise MalformedGrid("negative entry in grid")
            return raw.astype(np.int64, copy=True)
    rows = list(raw)
    if not rows:
        raise MalformedGrid("empty grid")
    width = None
    out = []
    for i, row in enumerate(rows):
        cells = list(row)
        if width is None:
            width = len(cells)
            if width == 0:
                raise MalformedGrid("empty row")
        elif len(cells) != width:
            raise MalformedGrid(f"row {i} has {len(cells)} entries, expected {width}")
        line = []
        for j, v in enumerate(cells):
            if v is None or (isinstance(v, str) and v == "*"):
                line.append(STAR)
            elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                if v < 0:
                    raise MalformedGrid(f"negative entry at ({i}, {j})")
                line.append(int(v))
            else:
                raise MalformedGrid(f"entry at ({i}, {j}) is not a star or positive integer: {v!r}")
        out.append(line)
    return np.array(out, dtype=np.int64)


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


def _pair_violations(grid: np.ndarray) -> list[Violation]:
    """Every equal-integer cell pair that breaks the pair condition.

    Cells are grouped by color class and all within-class pairs are tested
    in one vectorized pass.  Order: colors by first row-major occurrence,
    cells row-major within a color, pairs in ``itertools.combinations``
    order; a pair sharing a row or column is reported as ``pair-distinct``
    even when a cross position is also filled.
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
    bad = np.flatnonzero(distinct | (grid[ra, cb] != STAR) | (grid[rb, ca] != STAR))
    # Classes are sorted by value so far; report them by their first row-major cell.
    first = cells[np.searchsorted(color, color[a[bad]])]
    bad = bad[np.argsort(first, kind="stable")]
    return [
        Violation(COND_PAIR_DISTINCT if d else COND_PAIR_CROSS, ((i1, j1), (i2, j2)))
        for d, i1, j1, i2, j2 in zip(*(x[bad].tolist() for x in (distinct, ra, ca, rb, cb)))
    ]


def verify(raw, z: Optional[int] = None) -> VerifyReport:
    """Check the two validity conditions on a raw grid.

    ``z`` defaults to the star count of column 0.  A declared ``z`` that
    disagrees with any column is reported as a violation, not an error.
    Column-star violations come first, then those of the pair kernel.
    Runs in O(cells log cells + sum of squared color-class sizes) in numpy.
    """
    grid = as_grid(raw)
    stars_per_col = (grid == STAR).sum(axis=0)
    if z is None:
        z = int(stars_per_col[0])
    violations = [
        Violation(COND_COLUMN_STARS, (j,)) for j in np.flatnonzero(stars_per_col != z).tolist()
    ]
    violations += _pair_violations(grid)
    return VerifyReport(valid=not violations, violations=tuple(violations), z=z)


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


def construct_mn_pda(k_users: int, t: int) -> Pda:
    """The classical Maddah-Ali--Niesen array for K users at cache level t/K.

    Rows are the t-subsets of users in lexicographic order; a cell (T, k) is
    a star when k is in T, else the lexicographic index of T ∪ {k} among
    (t+1)-subsets.  Shape: F = C(K,t), Z = C(K-1,t-1), S = C(K,t+1).
    """
    if k_users < 2:
        raise InvalidParameter(f"need at least 2 users, got {k_users}")
    if not 1 <= t <= k_users - 1:
        raise InvalidParameter(f"t={t} outside [1, {k_users - 1}]")
    subsets = list(itertools.combinations(range(k_users), t))
    color_of = {
        u: idx + 1
        for idx, u in enumerate(itertools.combinations(range(k_users), t + 1))
    }
    f = len(subsets)
    grid = np.zeros((f, k_users), dtype=np.int64)
    for i, subset in enumerate(subsets):
        members = set(subset)
        for k in range(k_users):
            if k in members:
                grid[i, k] = STAR
            else:
                grid[i, k] = color_of[tuple(sorted(members | {k}))]
    p = Pda(grid=grid, z=math.comb(k_users - 1, t - 1))
    assert verify(p.grid, p.z).valid
    return p


# --- text format ---------------------------------------------------------
#
# Line 1: `K F Z S`; then F lines of K whitespace-separated tokens, each
# `*` or a decimal color.  Lines starting with `#` are comments (used for
# embedded seed/config metadata) and are skipped by the parser.  Anything
# after the F rows other than comments or blank lines is rejected.


def pda_to_text(p, comments: Sequence[str] = ()) -> str:
    """Text of a Pda, or of an unvalidated raw grid (Z: column 0's stars)."""
    if isinstance(p, Pda):
        grid, z = p.grid, p.z
    else:
        grid = as_grid(p)
        z = int((grid[:, 0] == STAR).sum())
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
    header = None
    rows: list[list[int]] = []
    f_expected = k_expected = z_decl = s_decl = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
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
            header = tokens
            continue
        if len(rows) >= f_expected:
            raise ParseError(
                f"line {lineno}: trailing garbage after {f_expected} rows", line=lineno, token=0
            )
        if len(tokens) != k_expected:
            raise ParseError(
                f"line {lineno}: expected {k_expected} tokens, got {len(tokens)}",
                line=lineno, token=min(len(tokens), k_expected),
            )
        row = []
        for pos, tok in enumerate(tokens):
            if tok == "*":
                row.append(STAR)
            elif _is_decimal(tok) and not tok.startswith("0"):
                row.append(int(tok))
            else:
                raise ParseError(f"line {lineno}: bad token {tok!r}", line=lineno, token=pos)
        rows.append(row)
    if header is None:
        raise ParseError("missing header line", line=1, token=0)
    if len(rows) != f_expected:
        raise ParseError(f"expected {f_expected} rows, got {len(rows)}")
    return np.array(rows, dtype=np.int64), k_expected, f_expected, z_decl, s_decl


def header_violations(grid: np.ndarray, z_decl: int, s_decl: int) -> list[Violation]:
    """Color-alphabet checks against a declared header.

    The declared color count must equal the set of integers actually used,
    with no gaps: every value in 1..s appears and nothing larger does.
    """
    values = set(int(v) for v in np.unique(grid)) - {STAR}
    out = []
    if values != set(range(1, s_decl + 1)):
        out.append(Violation("color-range", ()))
    return out


def pda_from_text(text: str) -> Pda:
    grid, _, _, z_decl, _ = parse_pda_text(text)
    return Pda.from_grid(grid, z=z_decl)
