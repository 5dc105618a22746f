"""Correctness checks that share no code with pdakit.

Every array the benchmark produces is parsed from its text form and
checked pair by pair here, and every simulated round is compared byte
for byte with the files it served.  Nothing in this module imports
pdakit, so a broken fast path in the library cannot also break the check
that is meant to catch it.
"""

from __future__ import annotations

import itertools
import math

STAR = 0


def parse_text(text):
    """Read the `.pda` text format: (rows, (k, f, z, s)).

    Raises ValueError on any token that is neither `*` nor an integer.
    """
    header = None
    rows = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if header is None:
            header = tuple(int(t) for t in tokens)
            if len(header) != 4:
                raise ValueError(f"header has {len(header)} fields")
            continue
        rows.append([STAR if t == "*" else int(t) for t in tokens])
    if header is None:
        raise ValueError("no header")
    return rows, header


def pair_violations(grid, z=None):
    """Count broken conditions of a rectangular grid (list of rows, 0 = star).

    One per column whose star count differs from z (default: column 0's),
    and one per pair of equal integers that shares a row or a column or
    lacks a star at either cross cell.
    """
    k = len(grid[0])
    stars = [sum(1 for row in grid if row[j] == STAR) for j in range(k)]
    want = stars[0] if z is None else z
    bad = sum(1 for s in stars if s != want)
    cells = {}
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            if v != STAR:
                cells.setdefault(v, []).append((i, j))
    for members in cells.values():
        for (i1, j1), (i2, j2) in itertools.combinations(members, 2):
            if i1 == i2 or j1 == j2 or grid[i1][j2] != STAR or grid[i2][j1] != STAR:
                bad += 1
    return bad


def expected_stars(k, f, z):
    """Star cells of the (k, f, z) placement, as a set of (row, column).

    The t-subset placement (rows are the t-subsets of users in
    lexicographic order) when the shape is exactly that one, otherwise the
    cyclic one where column j caches rows (j + m) mod f for m < z.
    """
    if z * k % f == 0:
        t = z * k // f
        if 1 <= t <= k - 1 and f == math.comb(k, t) and z == math.comb(k - 1, t - 1):
            return {
                (i, j)
                for i, subset in enumerate(itertools.combinations(range(k), t))
                for j in subset
            }
    return {((j + m) % f, j) for j in range(k) for m in range(z)}


def grid_slots(grid, k, f, z, stars=None):
    """Color count S of a valid array on the (k, f, z) placement, else None.

    Checks the shape, that stars sit exactly on the placement (when
    ``stars`` is given), that colors are exactly 1..S, and every pair.
    """
    if len(grid) != f or any(len(row) != k for row in grid):
        return None
    if stars is not None:
        found = {(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v == STAR}
        if found != stars:
            return None
    colors = {v for row in grid for v in row if v != STAR}
    if any(v < 1 for v in colors) or colors != set(range(1, len(colors) + 1)):
        return None
    if pair_violations(grid, z):
        return None
    return len(colors)


def text_slots(text, k, f, z, stars=None):
    """Color count S of an array in text form, or None when it fails a check.

    The header must match the placement and declare the color count used.
    """
    try:
        rows, header = parse_text(text)
    except ValueError:
        return None
    if header[:3] != (k, f, z):
        return None
    s = grid_slots(rows, k, f, z, stars)
    return s if s == header[3] else None


def round_ok(decoded, files, demand):
    """True when every user's decoded bytes equal its requested file.

    files[n] is the list of packets of file n + 1, as placed in the
    library before the round.
    """
    if len(decoded) != len(demand):
        return False
    return all(out == b"".join(files[d - 1]) for out, d in zip(decoded, demand))


# The t=1 array for three users: valid, and a copy with one broken pair.
_GOOD = [[STAR, 1, 2], [1, STAR, 3], [2, 3, STAR]]
_BROKEN = [[STAR, 1, 2], [1, STAR, 3], [1, 3, STAR]]


def self_test():
    """Raise AssertionError unless the checks catch a broken pair and a bad packet."""
    stars = expected_stars(3, 3, 1)
    if grid_slots(_GOOD, 3, 3, 1, stars) != 3:
        raise AssertionError("a valid array fails the pair check")
    if grid_slots(_BROKEN, 3, 3, 1, stars) is not None or not pair_violations(_BROKEN):
        raise AssertionError("the pair check passes a broken pair")
    files = [[b"ab", b"cd"], [b"ef", b"gh"]]
    if not round_ok([b"efgh", b"abcd"], files, (2, 1)):
        raise AssertionError("a correct round fails the decode check")
    if round_ok([b"efgh", b"abcX"], files, (2, 1)):
        raise AssertionError("the decode check passes a corrupted packet")
