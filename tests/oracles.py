"""Independent brute-force oracles used to cross-check the library.

Everything here is written directly from first principles, avoiding the
library's own data structures and shortcuts, so the two routes stay
independent: literal pair enumeration for array validity, restricted
growth strings for exhaustive colorings, backtracking for minimum strong
colorings, and central differences for gradients.
"""

import itertools

STAR = 0


def oracle_verify(grid, z=None):
    """Literal check of the array conditions by enumerating all cell pairs.

    grid: list of lists (or array) with 0 for star, positive ints for colors.
    Returns True iff every column has exactly z stars and every pair of
    equal integers sits in distinct rows/columns with stars at both cross
    cells.
    """
    rows = [list(r) for r in grid]
    f = len(rows)
    k = len(rows[0])
    if z is None:
        z = sum(1 for i in range(f) if rows[i][0] == STAR)
    for j in range(k):
        if sum(1 for i in range(f) if rows[i][j] == STAR) != z:
            return False
    cells = [(i, j) for i in range(f) for j in range(k)]
    for (i1, j1), (i2, j2) in itertools.combinations(cells, 2):
        a, b = rows[i1][j1], rows[i2][j2]
        if a == STAR or b == STAR or a != b:
            continue
        if i1 == i2 or j1 == j2:
            return False
        if rows[i1][j2] != STAR or rows[i2][j1] != STAR:
            return False
    return True


def oracle_violations(grid, z=None):
    """Every violated condition, listed literally, as (condition, cells) tuples.

    Column star counts come first, by column.  Then, for each color in order
    of its first row-major occurrence, every pair of its cells (row-major,
    earlier cell first) whose rows or columns coincide ("pair-distinct") or
    whose cross cells are not both stars ("pair-cross").
    """
    rows = [list(r) for r in grid]
    f = len(rows)
    k = len(rows[0])
    if z is None:
        z = sum(1 for i in range(f) if rows[i][0] == STAR)
    out = []
    for j in range(k):
        if sum(1 for i in range(f) if rows[i][j] == STAR) != z:
            out.append(("column-stars", (j,)))
    cells = [(i, j) for i in range(f) for j in range(k) if rows[i][j] != STAR]
    colors = []
    for i, j in cells:
        if rows[i][j] not in colors:
            colors.append(rows[i][j])
    for color in colors:
        members = [(i, j) for i, j in cells if rows[i][j] == color]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                (i1, j1), (i2, j2) = members[a], members[b]
                if i1 == i2 or j1 == j2:
                    out.append(("pair-distinct", ((i1, j1), (i2, j2))))
                elif rows[i1][j2] != STAR or rows[i2][j1] != STAR:
                    out.append(("pair-cross", ((i1, j1), (i2, j2))))
    return out


def oracle_canonical(grid):
    """Colors renumbered 1, 2, ... by first occurrence walking column by column."""
    rows = [list(r) for r in grid]
    f = len(rows)
    k = len(rows[0])
    new = {}
    for j in range(k):
        for i in range(f):
            v = rows[i][j]
            if v != STAR and v not in new:
                new[v] = len(new) + 1
    return [[STAR if v == STAR else new[v] for v in row] for row in rows]


def oracle_strong_coloring(k_count, f_count, edges):
    """Definition-level strong edge coloring check on a colored bipartite graph.

    edges: list of (k, f, color).  True iff every same-colored pair is
    non-adjacent and no third edge joins them.
    """
    edge_set = {(k, f) for k, f, _ in edges}
    for (k1, f1, c1), (k2, f2, c2) in itertools.combinations(edges, 2):
        if c1 != c2:
            continue
        if k1 == k2 or f1 == f2:
            return False
        if (k1, f2) in edge_set or (k2, f1) in edge_set:
            return False
    return True


def canonical_color_sequences(length):
    """All canonical color sequences of the given length.

    Canonical means the first use of each color is the next unused integer
    (restricted growth strings), which enumerates every distinct coloring
    exactly once.
    """
    if length == 0:
        yield ()
        return
    seq = [1]

    def rec(prefix, maxc):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for c in range(1, maxc + 2):
            yield from rec(prefix + [c], max(maxc, c))

    yield from rec([], 0)


def assemble(f, k, edges, colors):
    """Fill colors into the edge cells of an f-by-k grid, stars elsewhere."""
    grid = [[STAR] * k for _ in range(f)]
    for (i, j), c in zip(edges, colors):
        grid[i][j] = c
    return grid


def oracle_valid_colorings(f, k, edges):
    """Every canonical coloring of the edge cells that yields a valid array."""
    out = []
    for colors in canonical_color_sequences(len(edges)):
        grid = assemble(f, k, edges, colors)
        if oracle_verify(grid):
            out.append(colors)
    return out


def oracle_min_strong_colors(k_count, f_count, edges):
    """Minimum color count of a strong edge coloring, by backtracking.

    edges: list of (k, f) pairs.  Exponential; keep graphs tiny.
    """
    if not edges:
        return 0
    for n in range(1, len(edges) + 1):
        if _colorable_with(edges, n):
            return n
    raise AssertionError("unreachable: |E| colors always suffice")


def _conflicts(e1, e2, edge_set):
    (k1, f1), (k2, f2) = e1, e2
    if k1 == k2 or f1 == f2:
        return True
    return (k1, f2) in edge_set or (k2, f1) in edge_set


def _colorable_with(edges, n):
    edge_set = set(edges)
    colors = [0] * len(edges)

    def rec(idx):
        if idx == len(edges):
            return True
        used = max(colors[:idx], default=0)
        for c in range(1, min(used + 1, n) + 1):
            if all(
                not (colors[m] == c and _conflicts(edges[idx], edges[m], edge_set))
                for m in range(idx)
            ):
                colors[idx] = c
                if rec(idx + 1):
                    return True
                colors[idx] = 0
        return False

    return rec(0)


def central_difference_grad(fn, vec, eps=1e-5):
    """Central finite differences of a scalar function over a flat vector."""
    import numpy as np

    vec = np.asarray(vec, dtype=float)
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += eps
        down = vec.copy()
        down[i] -= eps
        grad[i] = (fn(up) - fn(down)) / (2.0 * eps)
    return grad


def relative_error(a, b):
    """Scale-free distance between two vectors: ||a-b|| / max(||a||, ||b||)."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def random_grid(rng, max_f=6, max_k=6, max_colors=4):
    """A random small grid mixing valid and invalid arrays.

    Three seeded regimes: fully random cells, column-star-balanced grids
    (which satisfy the star-count condition by construction and are often
    valid), and random arrays with many stars.
    """
    f = int(rng.integers(1, max_f + 1))
    k = int(rng.integers(1, max_k + 1))
    mode = int(rng.integers(0, 3))
    grid = [[STAR] * k for _ in range(f)]
    if mode == 0:
        for i in range(f):
            for j in range(k):
                v = int(rng.integers(0, max_colors + 1))
                grid[i][j] = v
    else:
        z = int(rng.integers(0, f + 1))
        for j in range(k):
            stars = rng.choice(f, size=z, replace=False)
            star_set = set(int(x) for x in stars)
            for i in range(f):
                if i in star_set:
                    grid[i][j] = STAR
                else:
                    hi = max_colors if mode == 1 else max(1, max_colors // 2)
                    grid[i][j] = int(rng.integers(1, hi + 1))
    return grid


def mn_grid(k_users, t):
    """The classical array, built independently of the library.

    Rows are t-subsets in lexicographic order; colors number the
    (t+1)-subsets.
    """
    rows = list(itertools.combinations(range(k_users), t))
    color = {u: i + 1 for i, u in enumerate(itertools.combinations(range(k_users), t + 1))}
    grid = []
    for subset in rows:
        mem = set(subset)
        grid.append(
            [
                STAR if k in mem else color[tuple(sorted(mem | {k}))]
                for k in range(k_users)
            ]
        )
    return grid
