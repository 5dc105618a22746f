"""Independent brute-force oracles used to cross-check the library.

Everything here is written directly from first principles, avoiding the
library's own data structures and shortcuts, so the two routes stay
independent: literal pair enumeration for array validity, restricted
growth strings for exhaustive colorings, backtracking for minimum strong
colorings, set-based greedy coloring, and central differences for gradients.
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


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def oracle_round(grid, packets, demand):
    """One coded caching round written out packet by packet with Python bytes.

    packets[n][j] is packet row j of file n + 1; demand[u] is user u's file.
    Returns (broadcasts, decoded).  broadcasts[s - 1] is (payload,
    contributors) for slot s in 1..max(grid): contributors are the
    (demand, row) of the cells holding s in row-major order, and payload
    is their XOR.  decoded[u] is user u's file, or ("missing", packet,
    slot) for the first packet user u needs but does not cache, scanning
    rows in column order, then each slot's other contributors in order.
    """
    rows = [list(r) for r in grid]
    f = len(rows)
    k = len(rows[0])
    size = len(packets[0][0])

    broadcasts = []
    for s in range(1, max(max(r) for r in rows) + 1):
        payload = bytes(size)
        contributors = []
        for i in range(f):
            for j in range(k):
                if rows[i][j] == s:
                    payload = _xor(payload, packets[demand[j] - 1][i])
                    contributors.append((demand[j], i))
        broadcasts.append((payload, contributors))
    return broadcasts, oracle_decode(grid, packets, demand, broadcasts)


def oracle_decode(grid, packets, demand, broadcasts):
    """Every user's file decoded pair by pair from the given broadcasts.

    broadcasts[s - 1] is (payload, contributors) for slot s, as
    oracle_round builds them, or altered: a (user, row) pair removes the
    first contributor equal to its own packet (demand, row) when the slot
    lists it, and XORs every contributor into the payload otherwise.
    Returns decoded: decoded[u] is user u's file, or ("missing", packet,
    slot) for the first packet user u needs but does not cache, scanning
    rows in column order, then each slot's other contributors in order.
    """
    rows = [list(r) for r in grid]
    f = len(rows)
    k = len(rows[0])

    decoded = []
    for u in range(k):
        want = demand[u]
        cached = {(n + 1, i) for n in range(len(packets)) for i in range(f) if rows[i][u] == STAR}
        out = b""
        for i in range(f):
            s = rows[i][u]
            if s == STAR:
                out += packets[want - 1][i]
                continue
            payload, contributors = broadcasts[s - 1]
            others = [tuple(c) for c in contributors]
            if (want, i) in others:
                others.remove((want, i))
            missing = [c for c in others if c not in cached]
            if missing:
                out = ("missing", missing[0], s)
                break
            for n, j in others:
                payload = _xor(payload, packets[n - 1][j])
            out += payload
        decoded.append(out)
    return decoded


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


def oracle_feasible(adj, members, i, j):
    """May cell (i, j) join a color whose cells are members?  The literal pair rule.

    adj[i][j] is True at edge cells.  Every member must sit in another row
    and another column, and both cells crossing it with (i, j) must be
    stars.
    """
    for i2, j2 in members:
        if i == i2 or j == j2 or adj[i][j2] or adj[i2][j]:
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


def oracle_greedy_strong_color(edges, order="lex", seed=None):
    """Greedy strong coloring with a set of colors per vertex.

    edges: list of (k, f) pairs.  Colors the edges in (k, f) order, or,
    for order "random", in that order shuffled by default_rng(seed); each
    edge takes the smallest positive color not yet on an edge at a
    neighbor of either endpoint.  Returns the (k, f, color) triples sorted
    by (k, f).
    """
    import numpy as np

    edges = sorted(edges)
    if order == "random":
        np.random.default_rng(seed).shuffle(edges)
    nbr_of_k, nbr_of_f = {}, {}
    for k, f in edges:
        nbr_of_k.setdefault(k, []).append(f)
        nbr_of_f.setdefault(f, []).append(k)
    colors_at_k = {k: set() for k in nbr_of_k}
    colors_at_f = {f: set() for f in nbr_of_f}
    assigned = {}
    for k, f in edges:
        forbidden = set()
        for f2 in nbr_of_k[k]:
            forbidden |= colors_at_f[f2]
        for k2 in nbr_of_f[f]:
            forbidden |= colors_at_k[k2]
        c = 1
        while c in forbidden:
            c += 1
        assigned[(k, f)] = c
        colors_at_k[k].add(c)
        colors_at_f[f].add(c)
    return tuple((k, f, c) for (k, f), c in sorted(assigned.items()))


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


def default_stars(k, f, z):
    """Star cells (i, j) of the default (k, f, z) placement, built independently.

    The t-subset placement when t = zk/f is a whole number in [1, k-1] and
    there are exactly f t-subsets of the k users (counted, never computed
    as a binomial, so a huge count costs f + 1 steps): row i caches the
    users of the i-th subset in lexicographic order.  Otherwise column j
    caches rows (j + m) mod f for m < z.
    """
    if z * k % f == 0 and 0 < z * k // f < k:
        subsets = list(itertools.islice(itertools.combinations(range(k), z * k // f), f + 1))
        if len(subsets) == f:
            return {(i, j) for i, subset in enumerate(subsets) for j in subset}
    return {((j + m) % f, j) for j in range(k) for m in range(z)}


def _sig(x):
    import numpy as np

    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _gru(gp, x, y):
    """One GRU step on vectors, gate blocks reset, update, candidate."""
    import numpy as np

    h = y.shape[0]
    ax, ay = gp.u @ x, gp.w @ y
    r = _sig(ax[:h] + ay[:h] + gp.b[:h])
    z = _sig(ax[h : 2 * h] + ay[h : 2 * h] + gp.b[h : 2 * h])
    c = np.tanh(ax[2 * h :] + r * ay[2 * h :] + gp.b[2 * h :])
    return z * y + (1.0 - z) * c, (x, y, r, z, c, ay)


def _gru_back(gp, dy, cache, grads, prefix):
    """One GRU step back: adds the weight gradients, returns (dx, dy_prev)."""
    import numpy as np

    x, y, r, z, c, ay = cache
    h = y.shape[0]
    dc = dy * (1.0 - z) * (1.0 - c * c)
    dr = dc * ay[2 * h :] * r * (1.0 - r)
    dz = dy * (y - c) * z * (1.0 - z)
    da = np.concatenate([dr, dz, dc])
    day = np.concatenate([dr, dz, dc * r])
    grads[prefix + ".u"] += np.outer(da, x)
    grads[prefix + ".w"] += np.outer(day, y)
    grads[prefix + ".b"] += da
    return gp.u.T @ da, dy * z + gp.w.T @ day


def _pointer_support(edges, colors, t, use_mask):
    """Positions step t may point at: all of 0..t, or with the mask on the
    first uses of every color whose cells pass the literal pair rule
    against (i, j), in color order, then t itself."""
    if not use_mask:
        return list(range(t + 1))
    cells = set(edges)
    i, j = edges[t]
    out = []
    for color in sorted(set(colors[:t])):
        members = [edges[l] for l in range(t) if colors[l] == color]
        if all(i != i2 and j != j2 and (i, j2) not in cells and (i2, j) not in cells
               for i2, j2 in members):
            out.append(colors[:t].index(color))
    return out + [t]


def oracle_sequence_grads(params, edges, choices, use_mask):
    """Log probability of one pointer sequence and its gradient, step by step.

    A literal per-sequence forward and backward pass of the pointer
    colorer: vector GRU steps, softmax attention over the support, and
    per-step outer products for every weight gradient.  params is read
    through its attributes only (embed, fwd, bwd, dec, attn_enc,
    attn_dec, attn_v, start).  Returns (logprob, grads) with grads keyed
    like the library's tensor names.  Raises ValueError for a pointer
    outside its support.
    """
    import numpy as np

    edges = [tuple(int(v) for v in e) for e in edges]
    n, h = len(edges), params.attn_v.shape[0]
    f_max = params.config.f_max
    grads = {"embed": np.zeros_like(params.embed)}
    for name in ("fwd", "bwd", "dec"):
        for part in ("u", "w", "b"):
            grads[f"{name}.{part}"] = np.zeros_like(getattr(getattr(params, name), part))
    for name in ("attn_enc", "attn_dec", "attn_v", "start"):
        grads[name] = np.zeros_like(getattr(params, name))
    if n == 0:
        return 0.0, grads
    embs = [params.embed[:, i] + params.embed[:, f_max + j] for i, j in edges]

    fwd, fwd_caches, y = [None] * n, [None] * n, np.zeros(h)
    for l in range(n):
        y, fwd_caches[l] = _gru(params.fwd, embs[l], y)
        fwd[l] = y
    bwd, bwd_caches, y = [None] * n, [None] * n, np.zeros(h)
    for l in range(n - 1, -1, -1):
        y, bwd_caches[l] = _gru(params.bwd, embs[l], y)
        bwd[l] = y
    states = np.array([np.concatenate([fwd[l], bwd[l]]) for l in range(n)])

    colors, steps, logprob = [], [], 0.0
    d, context = np.zeros(h), np.zeros(2 * h)
    for t in range(n):
        support = _pointer_support(edges, colors, t, use_mask)
        if choices[t] not in support:
            raise ValueError(f"choice {choices[t]} at step {t} is off the support")
        pos = support.index(choices[t])
        x = np.concatenate([context, params.start if t == 0 else embs[t - 1]])
        d, gcache = _gru(params.dec, x, d)
        s = states[support]
        act = np.tanh(s @ params.attn_enc.T + params.attn_dec @ d)
        u = act @ params.attn_v
        p = np.exp(u - u.max())
        p /= p.sum()
        logprob += float(u[pos] - u.max() - np.log(np.exp(u - u.max()).sum()))
        colors.append(colors[choices[t]] if choices[t] < t else max(colors, default=0) + 1)
        steps.append((support, s, p, act, pos, d, gcache))
        context = p @ s

    dstates = np.zeros_like(states)
    dd, dcontext = np.zeros(h), np.zeros(2 * h)
    dembs = [np.zeros_like(e) for e in embs]
    for t in range(n - 1, -1, -1):
        support, s, p, act, pos, d, gcache = steps[t]
        dstates[support] += np.outer(p, dcontext)
        g = s @ dcontext
        du = p * (g - p @ g)
        du[pos] += 1.0
        du -= p
        grads["attn_v"] += act.T @ du
        dpre = np.outer(du, params.attn_v) * (1.0 - act * act)
        grads["attn_enc"] += dpre.T @ s
        dstates[support] += dpre @ params.attn_enc
        dq = dpre.sum(axis=0)
        grads["attn_dec"] += np.outer(dq, d)
        dx, dd = _gru_back(params.dec, dd + params.attn_dec.T @ dq, gcache, grads, "dec")
        dcontext = dx[: 2 * h]
        if t == 0:
            grads["start"] += dx[2 * h :]
        else:
            dembs[t - 1] += dx[2 * h :]
    dy = np.zeros(h)
    for l in range(n - 1, -1, -1):
        dx, dy = _gru_back(params.fwd, dy + dstates[l, :h], fwd_caches[l], grads, "fwd")
        dembs[l] += dx
    dy = np.zeros(h)
    for l in range(n):
        dx, dy = _gru_back(params.bwd, dy + dstates[l, h:], bwd_caches[l], grads, "bwd")
        dembs[l] += dx
    for (i, j), de in zip(edges, dembs):
        grads["embed"][:, i] += de
        grads["embed"][:, f_max + j] += de
    return logprob, grads
