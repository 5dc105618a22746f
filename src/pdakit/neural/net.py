"""The attention pointer colorer and its exact gradients.

Forward model: each edge cell is embedded, a bidirectional GRU encodes
the sequence, and a decoder GRU with additive attention emits, step by
step, a pointer into the already-seen positions.  A self-pointer mints a
fresh color, a back-pointer copies the color at the pointed position, so
the output dictionary grows with the input exactly as the variable color
count demands.

Gradients are derived by hand and verified against central finite
differences in the tests; no autograd anywhere.  All math is float64.

One engine runs every pass, on a batch: B sequences padded to the
longest length L, with a per-row length mask.  The rows are sorted
longest first, so the rows still running at step t are a prefix of the
batch: every step of the encoder, the decoder GRU and the attention
computes on that (b_t, .) prefix alone, the mask never has to be
multiplied in, and no padded slot is ever read.  Per-step rows are
stacked in step order, so the inputs and gradients of every GRU are
(N, .) arrays with no padding at all.  The two encoder directions step
together as one stacked GRU: the backward direction reads each row
reversed within its own length, so both directions run the same rows at
every step.  Masked steps gather each row's feasible first occurrences,
padded to the widest row, so attention costs O(colors) per step; the
caller hands in each masked row's placement mask, and the row's
FeasibilityTracker keeps O(min(F, K) * E) state for it.  One sequence is
a batch of one.

A decode step is a few dozen numpy calls on arrays of a few rows, so
their count, not their arithmetic, sets its time.  Each position's
attention key, [attn_enc projection | encoder state], is one row of a
(B, L, 3h) table, and a masked step gathers both halves with one take.
Every step's decoder input, [context | embedding], is a row of one
stacked array whose embeddings are filled in before the loop; each step
writes its context into the next step's rows.  A masked row's support is
its tracker's screen of n_colors + 1 columns, the last one the next
color's, whose first use is the current position; the tracker holds the
row's edges, first uses and colors, so a step calls it once to screen and
once to record the pointer.  A masked step, which walks its rows for
the trackers anyway, reads each row's chosen score and pointer into two
lists that fill their arrays after the loop; an unmasked step writes its
rows' into the arrays at once.  The 2-D products go through np.dot,
which dispatches faster than @ with the same BLAS result.  The GRU and
softmax work in place, and each step's top score and partition sum
become log probabilities after the loop.

The backward pass is backpropagation through time with deferred GEMMs:
each step computes only what the recurrence needs, and every weight
gradient is formed once per batch from the stacked per-step rows.  A
row's loss weight (-1/B for likelihood, reward/B for REINFORCE) enters
at its own pointer scores, so one backward pass serves the whole batch.
A reinforce step keeps the tape of the pass that samples its episodes
and weights it by their rewards, so it runs no second forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from ..errors import (
    BadTarget,
    InvalidBatch,
    InvalidParameter,
    InvalidPointer,
    NoFeasibleAction,
    ShapeError,
    VocabularyError,
    cells,
    index,
    indices,
)
from ..pda import verify
from ..seqcodec import (
    AdjacencyMatrix,
    assemble_array,
    colors_to_pointers,
    edges_to_mask,
    extract_edge_sequence,
    pointer_to_colors,
)
from .params import ModelParams

# Value of the padded slots of the (B, L, 2h) encoder states, where rows
# shorter than L end.  No step reads one; the tests set this to nan to
# show it.
_PAD = 0.0


# 0-d constants: numpy converts a Python float operand again on every call
_HALF, _ONE = np.array(0.5), np.array(1.0)
_HALF.flags.writeable = _ONE.flags.writeable = False


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)), which cannot overflow; in place when out is x."""
    y = np.multiply(x, _HALF, out)
    np.tanh(y, y)
    y += _ONE
    y *= _HALF
    return y


# --- GRU cell -------------------------------------------------------------


def _gru_forward(ux: np.ndarray, y_prev: np.ndarray, w_t: np.ndarray, out=None):
    """One step for a block of rows on inputs already projected: x @ u.T + b.

    y_prev is (b, h) with w_t = w.T, or a stack of GRUs, (g, b, h) with
    w_t (g, h, 3h).  The new state goes to out when it is given.
    """
    h = y_prev.shape[-1]
    # np.dot dispatches faster than @ on one block, with the same BLAS result
    wy = np.dot(y_prev, w_t) if y_prev.ndim == 2 else y_prev @ w_t
    # the sigmoid runs over all three thirds; only the gates' two are read
    gates = ux + wy
    _sigmoid(gates, gates)
    r, z = gates[..., :h], gates[..., h : 2 * h]
    cand = r * wy[..., 2 * h :]
    cand += ux[..., 2 * h :]
    np.tanh(cand, cand)
    # z * y_prev + (1 - z) * cand, each product rounded as written
    y = np.multiply(z, y_prev, out)
    mix = _ONE - z
    mix *= cand
    y += mix
    return y, (y_prev, gates, wy, cand)


def _taped(cache):
    """What the backward pass keeps of a step: only the candidate's third of wy."""
    y_prev, gates, wy, cand = cache
    return y_prev, gates, wy[..., 2 * cand.shape[-1] :].copy(), cand


def _gru_backward(dy, cache, w: np.ndarray):
    """One step back for a block of rows, or a stack of GRUs: (dy_prev, da, dwy).

    da is the gradient on the gate pre-activations, which the input
    projection and the bias receive; dwy is the gradient on y_prev @ w.T.
    """
    y_prev, gates, wy_cand, cand = cache
    h = cand.shape[-1]
    r, z = gates[..., :h], gates[..., h : 2 * h]
    da_c = dy * (1.0 - z) * (1.0 - cand * cand)
    da_r = da_c * wy_cand * r * (1.0 - r)
    da_z = dy * (y_prev - cand) * z * (1.0 - z)
    da = np.concatenate([da_r, da_z, da_c], axis=-1)
    # the candidate sees y_prev @ w.T through the reset gate
    dwy = np.concatenate([da_r, da_z, da_c * r], axis=-1)
    return dy * z + dwy @ w, da, dwy


def _add_gru_grads(grads, prefix: str, da, dwy, x, y_prev) -> None:
    """Weight gradients of one GRU run from its stacked per-step rows."""
    grads[prefix + ".u"] += da.T @ x
    grads[prefix + ".w"] += dwy.T @ y_prev
    grads[prefix + ".b"] += da.sum(axis=0)


# --- the batch ----------------------------------------------------------------


class _Batch:
    """The non-empty sequences of a batch, sorted longest first.

    rows[k] is the caller's index of sorted row k; active[t] counts the
    rows still running at step t, which are rows 0..active[t]-1.  Per-step
    rows are stacked in step order, step t's at offsets[t]:offsets[t+1];
    valid is the (L, B) length mask, time-major, so X[valid] stacks a
    time-major (L, B, .) array the same way, and steps holds each stacked
    position's step.  Over stacked rows, rev maps (t, k) to
    (n_k - 1 - t, k), each row reversed within its own length, and prev
    maps each stacked row of steps 1.. to the row's position one step
    earlier, (t, k) to (t - 1, k).  embs holds each stacked position's
    embedding.
    """

    def __init__(self, edges_list, params: ModelParams):
        lengths = [len(e) for e in edges_list]
        # a stable sort, longest first; empty rows never step
        self.rows = sorted((k for k, n in enumerate(lengths) if n),
                           key=lengths.__getitem__, reverse=True)
        self.edges = [edges_list[row] for row in self.rows]
        n = np.array([lengths[row] for row in self.rows], dtype=np.int64)
        b, L = len(n), int(n[0]) if len(n) else 0
        self.lengths = n
        self.valid = np.arange(L)[:, None] < n
        self.active = self.valid.sum(axis=1).tolist()
        self.offsets = list(accumulate(self.active, initial=0))
        self.steps, ks = self.valid.nonzero()
        self.rev = np.array(self.offsets[:-1], dtype=np.int64)[n[ks] - 1 - self.steps] + ks
        # the positions of steps 0..L-2 whose row runs one step more
        self.prev = self.valid[1:][self.valid[:-1]].nonzero()[0]
        cfg = params.config
        try:  # row-major: each sorted row's cells in turn
            read = cells([e for edges in self.edges for e in edges], "edge cell",
                         (cfg.f_max, cfg.k_max))
        except InvalidParameter as exc:
            raise VocabularyError(str(exc)) from None
        packed = read[(np.cumsum(n) - n)[ks] + self.steps]  # stacked in step order
        # the two embedding table columns each position reads, gathered at once
        i, j = packed[:, 0], packed[:, 1]
        self.slots = (i, cfg.f_max + j)
        self.embs = params.embed.T[self.slots[0]] + params.embed.T[self.slots[1]]

    def pad(self, seqs, dtype) -> np.ndarray:
        """Per-row sequences of the caller's batch as a sorted (B, L) array."""
        out = np.zeros((len(self.rows), len(self.active)), dtype=dtype)
        for k, row in enumerate(self.rows):
            out[k, : self.lengths[k]] = seqs[row]
        return out


# --- encoder ----------------------------------------------------------------


def _encode(batch: _Batch, params: ModelParams, keep_caches: bool, states: np.ndarray):
    """Write the encoder states into states, (B, L, 2h); return the caches of its steps.

    Both directions step together, as one stacked GRU over (2, b, .)
    blocks.  The backward direction reads each row reversed within its
    own length, so at step s both run the same rows, and row k's backward
    state at step s belongs to position n_k - 1 - s.  Every input is
    projected in one product per direction before the first step.  The
    padded slots of states are left as they are.
    """
    h = params.config.hidden_dim
    L, B = batch.valid.shape
    off, rev, fwd, bwd = batch.offsets, batch.rev, params.fwd, params.bwd
    # (2, N, .) views of (N, 2, .) buffers, so that a step's (2, b, .) rows are one block
    xu = np.empty((off[-1], 2, 3 * h)).transpose(1, 0, 2)
    np.matmul(batch.embs, fwd.u.T, out=xu[0])
    xu[0] += fwd.b
    # permute the product, not embs: BLAS can round a moved row differently (seen at d >= 32)
    np.matmul(batch.embs, bwd.u.T, out=xu[1])
    xu[1] = xu[1][rev]
    xu[1] += bwd.b
    w_t = np.concatenate([fwd.w.T[None], bwd.w.T[None]])
    ys = np.empty((off[-1], 2, h)).transpose(1, 0, 2)
    y = np.zeros((2, B, h))
    caches = []
    for s in range(L):
        rows = slice(off[s], off[s + 1])
        y, cache = _gru_forward(xu[:, rows], y[:, : batch.active[s]], w_t, ys[:, rows])
        if keep_caches:
            caches.append(_taped(cache))
    time_major = states.transpose(1, 0, 2)
    time_major[..., :h][batch.valid] = ys[0]
    time_major[..., h:][batch.valid] = ys[1][rev]
    return caches


# --- attention pointer ------------------------------------------------------


def _activations(pre_enc, q):
    """The attention's tanh layer; the backward pass recomputes it, bit for bit."""
    a = pre_enc + q[:, None, :]
    return np.tanh(a, out=a)


def _attend(pre_enc, q, v, pad, m=None, z=None):
    """Pointer distributions of a block of rows over their (b, W) supports.

    pre_enc holds the attn_enc projections of the supported states,
    (b, W, h); q the attn_dec projections of the decoder states, (b, h).
    pad marks support columns that only fill a row to width W, or is
    None.  Returns probabilities and raw scores; each row's top score
    and partition sum go to m and z, both (b, 1), so its log partition
    sum is m + log(z).
    """
    u = _activations(pre_enc, q) @ v
    if pad is not None:
        u[pad] = -np.inf
    m = np.maximum.reduce(u, 1, None, m, True)
    p = u - m
    np.exp(p, p)
    z = np.add.reduce(p, 1, None, z, True)
    p /= z
    return p, u


def decode_step(states, d_t, mask, params: ModelParams) -> np.ndarray:
    """Pointer probabilities over all positions, zero where masked off."""
    states = np.asarray(states, dtype=float)
    d_t = np.asarray(d_t, dtype=float)
    h = params.config.hidden_dim
    if states.ndim != 2 or states.shape[1] != 2 * h:
        raise ShapeError(f"states must be (L, {2 * h}), got {states.shape}")
    if d_t.shape != (h,):
        raise ShapeError(f"decoder state must be ({h},), got {d_t.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (states.shape[0],):
        raise ShapeError(f"mask must be ({states.shape[0]},), got {mask.shape}")
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise NoFeasibleAction("every position is masked off")
    p1 = states[idx] @ params.attn_enc.T
    p, _ = _attend(p1[None], d_t[None] @ params.attn_dec.T, params.attn_v, None)
    out = np.zeros(states.shape[0])
    out[idx] = p[0]
    return out


# --- feasibility screen -------------------------------------------------------

# bit b of a packed word, for b in 0..63
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


class FeasibilityTracker:
    """Which existing colors may legally take a new cell.

    Because the adjacency fixes upfront which cells end as stars, the
    star-cross condition against a color's members is decidable during
    generation.  Color c is blocked for column j once any member's row
    has an edge in column j, and blocked for row i once any member's
    column has an edge in row i; both cover the distinct-row/column
    requirement as well, since a member is an edge in its own row and
    column.

    The tracker turns the mask, transposing it when F < K, so that its
    columns are the shorter side, S = min(F, K).  The column rule is a
    dense S-by-E table, col_open[j, c]: every member row so far has a
    star in column j.  The row rule packs S bits into ceil(S/64) words,
    word w holding columns 64w..64w+63: members[w, c] holds color c's
    member columns and row_bits[w, i] row i's edge columns, so color c is
    blocked for row i when some members[w, c] & row_bits[w, i] is nonzero.
    Memory is O(S * E).  A new member writes S flags and one word; a query
    reads n_colors flags and n_colors * ceil(S/64) words.  While a cell is
    still to be placed, n_colors < E, so column n_colors exists; it is the
    next color's, which has no members yet, so every cell passes it.

    Built with a decoder row's edge sequence, the tracker also keeps the
    row's pointer bookkeeping: first[c] is the step of color c's first
    use and color[l] the color of step l.  Its interface is support,
    record and feasible: support(t) screens step t's cell, record(t, c)
    takes in its pointer, and feasible(i, j, n) is the screen of any
    cell, which support calls.  A decode step calls support and record
    once per row.
    """

    def __init__(self, adj: np.ndarray, edges: Sequence[tuple[int, int]]):
        adj = np.asarray(adj, dtype=bool)
        self.transposed = adj.shape[0] < adj.shape[1]
        if self.transposed:
            adj = adj.T
        s = adj.shape[1]
        cap = max(np.count_nonzero(adj), 1)
        words = -(-s // 64)
        row_bits = np.zeros((len(adj), 8 * words), dtype=np.uint8)
        row_bits[:, : -(-s // 8)] = np.packbits(adj, axis=1, bitorder="little")
        # little-endian words, so column j lands on bit j % 64 of word j // 64
        self.row_bits = row_bits.view("<u8").T
        self.stars = ~adj
        self.members = np.zeros((words, cap), dtype=np.uint64)
        self.col_open = np.ones((s, cap), dtype=bool)
        self.n_colors = 0
        self.edges = edges
        self.first = np.empty(len(edges), dtype=np.int64)
        self.color: list[int] = []

    def feasible(self, i: int, j: int, n: int | None = None) -> np.ndarray:
        """Boolean vector over colors 0..n-1: may take cell (i, j).

        n defaults to n_colors; n_colors + 1 adds the next color's flag,
        which is always True.
        """
        if self.transposed:
            i, j = j, i
        if n is None:
            n = self.n_colors
        # the member columns each color shares with row i's edges, OR-ed over
        # words; row_bits[w, i, ...] is a 0-d view, which numpy takes faster than a scalar
        shared = self.members[0, :n] & self.row_bits[0, i, ...]
        for w in range(1, len(self.members)):
            shared |= self.members[w, :n] & self.row_bits[w, i, ...]
        # open where no member column is shared (shared < 1) and the column rule holds
        return np.less(shared, self.col_open[j, :n])

    def support(self, t: int) -> np.ndarray:
        """Step t's pointer support: the first uses of the colors open to its cell, then t."""
        n = self.n_colors
        self.first[n] = t  # the next color's first use, if step t takes it
        return self.first[: n + 1][self.feasible(*self.edges[t], n + 1)]

    def record(self, t: int, c: int) -> None:
        """Step t points to position c: a new color when c is t, else the color at c."""
        i, j = self.edges[t]
        if self.transposed:
            i, j = j, i
        if c == t:
            c = self.n_colors
            self.n_colors += 1
        else:
            c = self.color[c]
        self.color.append(c)
        self.col_open[:, c] &= self.stars[i]
        self.members[j >> 6, c] |= _BITS[j & 63]


# --- episodes ------------------------------------------------------------------


@dataclass(frozen=True)
class Episode:
    """One full coloring run: inputs, pointer choices, outcome."""

    f: int
    k: int
    edges: tuple[tuple[int, int], ...]
    choices: tuple[int, ...]
    colors: tuple[int, ...]
    logprob: float
    reward: int
    use_mask: bool

    def __post_init__(self):
        if self.reward not in (1, -1):
            raise InvalidParameter(f"reward must be +1 or -1, got {self.reward}")
        if self.logprob > 1e-9:
            raise InvalidParameter(f"logprob must be <= 0, got {self.logprob}")
        if len(self.choices) != len(self.edges) or len(self.colors) != len(self.edges):
            raise InvalidParameter("choices, colors, and edges must share a length")


def _run(batch: _Batch, params: ModelParams, masks, pick, keep_caches: bool):
    """Decode every row of a batch in one pass; the engine behind every entry point.

    masks gives each sorted row's placement mask when its back-pointers
    are screened for feasibility, else None.  Unmasked rows attend over
    positions 0..t, masked ones over the feasible first occurrences and t.
    pick(t, idx, p, widths) returns each running row's chosen column of
    p; idx is None when every support is the slice 0..t.  Returns the
    sorted rows' choices, (B, L), their log probabilities, and the tape
    the backward pass needs (None without caches).  The module docstring
    describes how a step is laid out.
    """
    B, L = len(batch.rows), len(batch.active)
    h = params.config.hidden_dim
    off, active = batch.offsets, batch.active
    keys = np.full((B, L, 3 * h), _PAD)
    states = keys[..., h:]
    enc_caches = _encode(batch, params, keep_caches, states)
    np.matmul(states, params.attn_enc.T, out=keys[..., :h])
    dec, v = params.dec, params.attn_v
    u_t, w_t, q_t = dec.u.T, dec.w.T, params.attn_dec.T
    # a bias row per batch row: adding a block of the same shape skips numpy's broadcasting
    bias = dec.b[None].repeat(B, 0)
    xs = np.empty((off[-1], dec.u.shape[1]))
    ds = np.empty((off[-1], h))
    if L:
        xs[: off[1], : 2 * h] = 0.0
        xs[: off[1], 2 * h :] = params.start
        # step t >= 1 reads the embedding of each running row's position t - 1
        xs[off[1] :, 2 * h :] = batch.embs[batch.prev]
    screened = any(m is not None for m in masks)
    if screened:
        trackers = [None if m is None else FeasibilityTracker(m, e)
                    for m, e in zip(masks, batch.edges)]
        flat_keys = keys.reshape(B * L, 3 * h)
        base = np.arange(B)[:, None] * L
    choices = np.zeros((B, L), dtype=np.int64)
    # each step's chosen score, top score and partition sum, made log probabilities at the end
    picked, top, zsum = np.zeros((L, B)), np.zeros((L, B, 1)), np.ones((L, B, 1))
    scores, chosen = [], []  # a screened pass's chosen scores and pointers, stacked
    ar = np.arange(B)
    d = np.zeros((B, h))
    steps = []
    for t in range(L):
        b, o, o1 = active[t], off[t], off[t + 1]
        ux = np.dot(xs[o:o1], u_t)
        ux += bias[:b]
        d, gcache = _gru_forward(ux, d[:b], w_t, ds[o:o1])
        if screened:
            sups = [np.arange(t + 1) if tracker is None else tracker.support(t)
                    for tracker in trackers[:b]]
            if b == 1:  # nothing to pad, and row 0's flat positions are its own
                idx = flat = sups[0][None]
                widths, pad = idx.shape[1], None
            else:
                widths = np.array([len(r) for r in sups])
                idx = np.full((b, widths.max()), t)
                for k, r in enumerate(sups):
                    idx[k, : len(r)] = r
                pad = np.arange(idx.shape[1]) >= widths[:, None]
                pad = pad if pad.any() else None
                flat = idx + base[:b]
            key = flat_keys.take(flat, 0)
        else:
            idx, widths, pad = None, t + 1, None
            key = keys[:b, : t + 1]
        p, u = _attend(key[..., :h], np.dot(d, q_t), v, pad, top[t, :b], zsum[t, :b])
        pos = pick(t, idx, p, widths)
        if screened:  # row by row, as each row's tracker takes in its pointer
            for k in range(b):
                q = pos[k]
                c = idx[k, q]
                scores.append(u[k, q])
                chosen.append(c)
                if trackers[k] is not None:
                    trackers[k].record(t, c)
        else:
            picked[t, :b] = u[ar[:b], pos]
            choices[:b, t] = pos
        nb = active[t + 1] if t + 1 < L else 0
        if nb:
            # context_t = p @ s_idx, the first half of step t+1's input
            np.matmul(p[:nb, None, :], key[:nb, :, h:], out=xs[o1 : o1 + nb, None, : 2 * h])
        if keep_caches:
            steps.append((idx, p, pos, _taped(gcache)))
    tape = None
    if keep_caches:
        tape = {"keys": keys, "encoder": enc_caches, "steps": steps, "x": xs, "d": ds}
    if screened:
        choices.T[batch.valid] = chosen
        picked[batch.valid] = scores
    picked -= top[..., 0] + np.log(zsum[..., 0])
    logprob = np.cumsum(picked, axis=0)[-1] if L else np.zeros(B)
    return choices, logprob, tape


def _greedy(t, idx, p, widths):
    return p.argmax(axis=1)


def _sampler(draws):
    """Inverse-CDF draws: step t of sorted row k reads the uniform draws[k, t]."""

    def pick(t, idx, p, widths):
        pos = (np.cumsum(p, axis=1) <= draws[: len(p), t, None]).sum(axis=1)
        return np.minimum(pos, widths - 1)

    return pick


def _replay(choices):
    """A pick that follows the given (B, L) pointers; InvalidPointer off the support.

    Pointers outside 0..t are rejected before the pass; masked rows
    check membership here.
    """
    rows = np.arange(len(choices))

    def pick(t, idx, p, widths):
        c = choices[: len(p), t]
        if idx is None:
            return c
        # each row's first column holding its pointer, or column 0 when none does
        q = (idx == c[:, None]).argmax(axis=1)
        found = idx[rows[: len(p)], q] == c
        if not found.all():
            k = int(np.argmin(found))
            raise InvalidPointer(f"choice {c[k]} at step {t} is not an available position")
        return q

    return pick


def _rollouts(adjs, params: ModelParams, mode: str, seeds, use_mask: bool,
              keep_caches: bool):
    """rollout_batch's pass: the episodes, its batch, and its tape with keep_caches."""
    adjs = list(adjs)
    edges_list = [extract_edge_sequence(a) for a in adjs]
    batch = _Batch(edges_list, params)
    if mode == "greedy":
        pick = _greedy
    elif mode == "sample":
        if seeds is None or len(seeds) != len(adjs):
            raise InvalidParameter("sampling needs one seed per placement")
        # each seed, or each entry of a sequence seed, read by the library's one rule
        seeds = [[index(x, "seed", start=0) for x in s] if np.ndim(s) else index(s, "seed", start=0)
                 for s in seeds]
        # one draw per step, from the row's own generator, in step order
        draws = np.zeros((len(batch.rows), len(batch.active)))
        for k, row in enumerate(batch.rows):
            draws[k, : batch.lengths[k]] = np.random.default_rng(seeds[row]).random(batch.lengths[k])
        pick = _sampler(draws)
    else:
        raise InvalidParameter(f"unknown rollout mode {mode!r}")
    masks = [adjs[row].mask if use_mask else None for row in batch.rows]
    choices, logprob, tape = _run(batch, params, masks, pick, keep_caches)
    out = [((), (), 0.0)] * len(adjs)
    for k, row in enumerate(batch.rows):
        ch = tuple(choices[k, : batch.lengths[k]].tolist())
        out[row] = (ch, pointer_to_colors(ch), float(logprob[k]))
    episodes = []
    for adj, edges, (ch, co, lp) in zip(adjs, edges_list, out):
        reward = 1 if verify(assemble_array(adj, edges, co)).valid else -1
        episodes.append(Episode(f=adj.f, k=adj.k, edges=edges, choices=ch, colors=co,
                                logprob=lp, reward=reward, use_mask=use_mask))
    return episodes, batch, tape


def rollout_batch(
    adjs: Sequence[AdjacencyMatrix],
    params: ModelParams,
    mode: str = "greedy",
    seeds=None,
    use_mask: bool = True,
) -> list[Episode]:
    """Color a batch of placements in one pass and score each result.

    mode "greedy" takes the argmax pointer each step; "sample" draws from
    the pointer distribution, row i with a generator seeded by seeds[i],
    so a fixed seed reproduces the episode exactly, whatever else is in
    the batch.  With use_mask on, back-pointers are restricted to first
    occurrences of colors that pass the feasibility screen (a fresh color
    is always allowed).  Reward is +1 if the assembled array verifies,
    else -1.
    """
    return _rollouts(adjs, params, mode, seeds, use_mask, keep_caches=False)[0]


def rollout(
    adj: AdjacencyMatrix,
    params: ModelParams,
    mode: str = "greedy",
    seed: int = 0,
    use_mask: bool = True,
) -> Episode:
    """Color one placement end to end: rollout_batch of a batch of one."""
    return rollout_batch([adj], params, mode, [seed], use_mask)[0]


# --- gradients ---------------------------------------------------------------


def _score(rows, params: ModelParams, coef=None):
    """Log probabilities of given pointer sequences, and optionally a gradient.

    rows: (shape, edges, choices, use_mask) tuples.  With coef, also
    returns the gradient of sum_i coef[i] * logprob_i; each row's
    coefficient enters at its own loss terms, so one backward pass serves
    the batch.  Masked rows get their placement mask, and so their check,
    from seqcodec.edges_to_mask before any forward work.
    """
    masks = [edges_to_mask(shape, edges) if use_mask else None
             for shape, edges, _, use_mask in rows]
    batch = _Batch([r[1] for r in rows], params)
    try:
        choices = batch.pad([r[2] for r in rows], np.int64)
    except OverflowError:
        raise InvalidPointer("a choice is outside every step's available positions") from None
    stacked = choices.T[batch.valid]
    bad = ~((0 <= stacked) & (stacked <= batch.steps))
    if bad.any():
        n = int(bad.argmax())  # stacked step by step, so the earliest step's first row
        raise InvalidPointer(
            f"choice {stacked[n]} at step {batch.steps[n]} is not an available position")
    _, logprob, tape = _run(batch, params, [masks[row] for row in batch.rows],
                            _replay(choices), coef is not None)
    out = np.zeros(len(rows))
    out[batch.rows] = logprob
    if coef is None:
        return out
    return out, _backward(batch, tape, np.asarray(coef, dtype=float)[batch.rows], params)


def sequence_logprobs(rows, params: ModelParams) -> np.ndarray:
    """Log probabilities of given pointer choices, by one forward pass.

    rows: (shape, edges, choices, use_mask) tuples.  Raises BadTarget for
    a row whose choices and edges differ in length, InvalidParameter for a
    masked row whose edges are no placement of its shape, and
    InvalidPointer for a choice outside its step's support.
    """
    for k, (_, edges, choices, _) in enumerate(rows):
        if len(choices) != len(edges):
            raise BadTarget(f"row {k} has {len(choices)} pointers for {len(edges)} edges")
    return _score([(shape, edges, indices(choices, "pointer"), use_mask)
                   for shape, edges, choices, use_mask in rows], params)


def sequence_logprob(shape, edges, choices, params: ModelParams, use_mask: bool) -> float:
    """Log probability of the given pointer choices, by the forward pass alone.

    The same number, bit for bit, that the gradient routines sum: -1 times
    supervised_loss of a one-pair batch, or an episode's reinforce
    objective over its reward.  Raises what sequence_logprobs raises.
    """
    return float(sequence_logprobs([(shape, edges, choices, use_mask)], params)[0])


def _encoder_backward(batch: _Batch, caches, dstates, params: ModelParams, grads):
    """Backpropagation through both encoder directions, stacked as they stepped.

    dstates is the loss gradient on the states, (B, L, 2h).  Adds both
    directions' weight gradients to grads and returns the gradient on
    the stacked embeddings.
    """
    h = params.config.hidden_dim
    L, B = batch.valid.shape
    rev, off, fwd, bwd = batch.rev, batch.offsets, params.fwd, params.bwd
    dst = dstates.transpose(1, 0, 2)[batch.valid]
    dys = np.empty((2, off[-1], h))
    dys[0], dys[1] = dst[:, :h], dst[rev, h:]
    w = np.concatenate([fwd.w[None], bwd.w[None]])
    da, dwy = np.empty((2, off[-1], 3 * h)), np.empty((2, off[-1], 3 * h))
    y_prev = np.concatenate([c[0] for c in caches], axis=1)
    dy = np.zeros((2, B, h))
    for s in range(L - 1, -1, -1):
        b, rows = batch.active[s], slice(off[s], off[s + 1])
        dy_prev, da[:, rows], dwy[:, rows] = _gru_backward(dy[:, :b] + dys[:, rows], caches[s], w)
        dy[:, :b] = dy_prev
        caches[s] = None  # the tape is freed as it is consumed
    _add_gru_grads(grads, "fwd", da[0], dwy[0], batch.embs, y_prev[0])
    _add_gru_grads(grads, "bwd", da[1], dwy[1], batch.embs[rev], y_prev[1])
    return da[0] @ fwd.u + (da[1] @ bwd.u)[rev]


def _decoder_backward(batch: _Batch, tape, coef, params: ModelParams, grads):
    """Backpropagation through the decoder and the attention, step by step.

    Pops the decoder's part of the tape, so that its buffers are freed
    before the encoder's backward pass allocates its own.  Returns the
    gradient on the encoder states, (B, L, 2h), and on every step's
    decoder input embedding, stacked.
    """
    keys, steps, x, d = tape["keys"], tape.pop("steps"), tape.pop("x"), tape.pop("d")
    B, L = len(batch.rows), len(batch.active)
    h = params.config.hidden_dim
    dec = params.dec
    u_context = dec.u[:, : 2 * h]
    p1, states = keys[..., :h], keys[..., h:]
    y_prev = np.concatenate([s[3][0] for s in steps])
    dstates = np.zeros_like(states)
    dp1 = np.zeros((B, L, h))
    d_dec, dcontext = np.zeros((B, h)), np.zeros((B, 2 * h))
    off = batch.offsets
    da, dwy, dq = np.empty((off[-1], 3 * h)), np.empty((off[-1], 3 * h)), np.empty((off[-1], h))
    ar = np.arange(B)
    for t in range(L - 1, -1, -1):
        b, packed = batch.active[t], slice(off[t], off[t + 1])
        rows = ar[:b]
        idx, p, pos, gcache = steps[t]
        steps[t] = None  # the tape is freed as it is consumed
        # context_t = p @ s_idx feeds step t+1; dcontext holds its gradient
        dctx = dcontext[:b]
        if idx is None:
            key = keys[:b, : t + 1]
            dstates[:b, : t + 1] += p[:, :, None] * dctx[:, None, :]
        else:
            key = keys[rows[:, None], idx]
            np.add.at(dstates, (rows[:, None], idx), p[:, :, None] * dctx[:, None, :])
        pre_enc, s_idx = key[..., :h], key[..., h:]
        t_act = _activations(pre_enc, d[packed] @ params.attn_dec.T)
        g = (s_idx @ dctx[:, :, None])[:, :, 0]
        seed = -p
        seed[rows, pos] += 1.0
        du = p * (g - (p * g).sum(axis=1, keepdims=True)) + coef[:b, None] * seed
        grads["attn_v"] += du.ravel() @ t_act.reshape(-1, h)
        dpre = du[:, :, None] * params.attn_v * (1.0 - t_act * t_act)
        if idx is None:
            dp1[:b, : t + 1] += dpre
        else:
            np.add.at(dp1, (rows[:, None], idx), dpre)
        dq[packed] = dpre.sum(axis=1)
        d_prev, da[packed], dwy[packed] = _gru_backward(
            d_dec[:b] + dq[packed] @ params.attn_dec, gcache, dec.w
        )
        d_dec[:b] = d_prev
        dcontext[:b] = da[packed] @ u_context
    # p1 = states @ attn_enc.T and q_t = d_t @ attn_dec.T, over every valid row
    valid = batch.valid.T
    dp1, s_valid = dp1[valid], states[valid]
    grads["attn_enc"] += dp1.T @ s_valid
    dstates[valid] += dp1 @ params.attn_enc
    grads["attn_dec"] += dq.T @ d
    _add_gru_grads(grads, "dec", da, dwy, x, y_prev)
    return dstates, da @ dec.u[:, 2 * h :]


def _backward(batch: _Batch, tape, coef, params: ModelParams):
    """Gradient of sum_k coef[k] * logprob_k over the sorted rows of a taped pass."""
    grads = params.zero_grads()
    if not len(batch.rows):
        return grads
    dstates, dx_emb = _decoder_backward(batch, tape, coef, params, grads)
    demb = _encoder_backward(batch, tape.pop("encoder"), dstates, params, grads)
    # the decoder input of step t holds the start at t = 0, else the embedding of t-1
    off = batch.offsets
    grads["start"] += dx_emb[: off[1]].sum(axis=0)
    demb[batch.prev] += dx_emb[off[1] :]
    table = grads["embed"].T
    for slot in batch.slots:
        np.add.at(table, slot, demb)
    return grads


def supervised_loss(batch, params: ModelParams):
    """Mean negative log likelihood of pointer targets, with gradients.

    batch: list of (edges, colors) with canonical colors.  Targets are
    the pointer encoding of the colors; the pointer support at step t is
    every position up to t.  Raises BadTarget, naming the pair, for
    colors that differ from their edges in length or break canonical
    numbering.
    """
    if not batch:
        raise InvalidBatch("empty supervised batch")
    rows = []
    for k, (edges, colors) in enumerate(batch):
        if len(colors) != len(edges):
            raise BadTarget(f"pair {k} has {len(colors)} colors for {len(edges)} edges")
        rows.append(((0, 0), edges, colors_to_pointers(colors), False))
    logp, grads = _score(rows, params, np.full(len(rows), -1.0 / len(rows)))
    return -sum(logp.tolist()) / len(batch), grads


def _reinforce_coefs(episodes) -> list[float]:
    """Each episode's weight in the reinforce objective: reward / B."""
    if not episodes:
        raise InvalidBatch("empty episode batch")
    w = 1.0 / len(episodes)
    return [w * ep.reward for ep in episodes]


def _objective(coef, logps) -> float:
    """sum_i coef[i] * logp_i, added in episode order."""
    total = 0.0
    for c, lp in zip(coef, logps):
        total += c * lp
    return total


def reinforce_objective_and_grad(episodes, params: ModelParams):
    """Mean of reward-weighted episode log likelihoods, with gradients.

    Replays the given episodes' pointers in a forward pass of its own and
    runs the backward pass on that pass's tape.
    """
    coef = _reinforce_coefs(episodes)
    logp, grads = _score(
        [((ep.f, ep.k), ep.edges, indices(ep.choices, "pointer"), ep.use_mask) for ep in episodes],
        params, coef
    )
    return _objective(coef, logp.tolist()), grads


def sample_and_reinforce(adjs: Sequence[AdjacencyMatrix], params: ModelParams, seeds,
                         use_mask: bool):
    """Sample one episode per placement and take the reinforce gradient from that pass.

    Returns (episodes, objective, grads): bit for bit the episodes of
    rollout_batch(adjs, params, "sample", seeds, use_mask), and what
    reinforce_objective_and_grad returns for them.  The backward pass
    runs on the sampling pass's own tape, so no forward pass is repeated.
    """
    adjs = list(adjs)
    if not adjs:
        raise InvalidBatch("empty episode batch")
    episodes, batch, tape = _rollouts(adjs, params, "sample", seeds, use_mask, keep_caches=True)
    coef = _reinforce_coefs(episodes)
    grads = _backward(batch, tape, np.asarray(coef)[batch.rows], params)
    return episodes, _objective(coef, [ep.logprob for ep in episodes]), grads
