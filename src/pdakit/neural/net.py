"""The attention pointer colorer and its exact gradients.

Forward model: each edge cell is embedded, a bidirectional GRU encodes
the sequence, and a decoder GRU with additive attention emits, step by
step, a pointer into the already-seen positions.  A self-pointer mints a
fresh color, a back-pointer copies the color at the pointed position, so
the output dictionary grows with the input exactly as the variable color
count demands.

Gradients are derived by hand and verified against central finite
differences in the tests; no autograd anywhere.  All math is float64.
The backward pass is backpropagation through time with deferred GEMMs:
each step computes only what the recurrence needs, and every weight
gradient is formed once per sequence from the stacked per-step rows.
Likewise the encoder projects all of its inputs in one product per
direction before it steps.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)
from ..pda import verify
from ..seqcodec import AdjacencyMatrix, assemble_array, extract_edge_sequence
from .params import GruParams, ModelParams


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# --- GRU cell -------------------------------------------------------------


def _gru_forward(ux: np.ndarray, y_prev: np.ndarray, gp: GruParams):
    """One step on an input already projected: ux is gp.u @ x."""
    h = y_prev.shape[0]
    wy = gp.w @ y_prev
    gates = _sigmoid(ux[: 2 * h] + wy[: 2 * h] + gp.b[: 2 * h])
    r, z = gates[:h], gates[h:]
    cand = np.tanh(ux[2 * h :] + r * wy[2 * h :] + gp.b[2 * h :])
    y = z * y_prev + (1.0 - z) * cand
    # whole buffers only: a cached slice would keep its base array alive
    return y, (y_prev, gates, wy, cand)


def gru_step(x, y_prev, gp: GruParams) -> np.ndarray:
    """One recurrence step: reset/update gates, candidate, convex mix.

    The new state interpolates between the previous state (weight z) and
    the candidate (weight 1 - z), so it stays in (-1, 1) whenever the
    previous state is there.
    """
    x = np.asarray(x, dtype=float)
    y_prev = np.asarray(y_prev, dtype=float)
    h, m = gp.w.shape[1], gp.u.shape[1]
    if x.shape != (m,):
        raise ShapeError(f"input has shape {x.shape}, expected ({m},)")
    if y_prev.shape != (h,):
        raise ShapeError(f"hidden has shape {y_prev.shape}, expected ({h},)")
    y, _ = _gru_forward(gp.u @ x, y_prev, gp)
    return y


def _gru_backward(dy, cache, gp: GruParams):
    """One step back: (dy_prev, da, dwy).

    da is the gradient on the gate pre-activations, which the input
    projection u @ x and the bias receive; dwy is the gradient on w @ y_prev.
    """
    y_prev, gates, wy, cand = cache
    h = cand.shape[0]
    r, z = gates[:h], gates[h:]
    da_c = dy * (1.0 - z) * (1.0 - cand * cand)
    da_r = da_c * wy[2 * h :] * r * (1.0 - r)
    da_z = dy * (y_prev - cand) * z * (1.0 - z)
    da = np.concatenate([da_r, da_z, da_c])
    # the candidate sees w @ y_prev through the reset gate
    dwy = np.concatenate([da_r, da_z, da_c * r])
    return dy * z + gp.w.T @ dwy, da, dwy


def _add_gru_grads(grads, prefix: str, da, dwy, x, y_prev) -> None:
    """Weight gradients of one GRU run from its stacked per-step rows."""
    grads[prefix + ".u"] += da.T @ x
    grads[prefix + ".w"] += dwy.T @ y_prev
    grads[prefix + ".b"] += da.sum(axis=0)


# --- encoder ----------------------------------------------------------------


def embed_edge(params: ModelParams, i: int, j: int) -> np.ndarray:
    """Row slot plus column slot of the embedding table."""
    cfg = params.config
    if not 0 <= i < cfg.f_max:
        raise VocabularyError(f"row {i} outside embedding range [0, {cfg.f_max})")
    if not 0 <= j < cfg.k_max:
        raise VocabularyError(f"column {j} outside embedding range [0, {cfg.k_max})")
    return params.embed[:, i] + params.embed[:, cfg.f_max + j]


def _encoder_forward(embs, gp: GruParams, order, keep_caches: bool):
    """Step one encoder direction over the positions in order.

    Every input is projected by u in one product before the first step.
    """
    xu = embs @ gp.u.T
    ys = np.empty((len(xu), gp.w.shape[1]))
    caches: list = [None] * len(xu)
    y = np.zeros(gp.w.shape[1])
    for l in order:
        y, cache = _gru_forward(xu[l], y, gp)
        ys[l] = y
        if keep_caches:
            caches[l] = cache
    return ys, caches


def _encode_full(edges, params: ModelParams, keep_caches: bool):
    if not edges:
        raise InvalidParameter("cannot encode an empty edge sequence")
    n, cfg = len(edges), params.config
    cells = np.asarray(edges).reshape(n, 2)
    rows, cols = cells[:, 0], cells[:, 1]
    bad = (rows < 0) | (rows >= cfg.f_max) | (cols < 0) | (cols >= cfg.k_max)
    if bad.any():
        embed_edge(params, *cells[int(np.argmax(bad))])  # raises for the first one
    # the two embedding table columns each position reads, gathered at once
    slots = (rows, cfg.f_max + cols)
    embs = params.embed.T[slots[0]] + params.embed.T[slots[1]]
    fwd_states, fwd_caches = _encoder_forward(embs, params.fwd, range(n), keep_caches)
    bwd_states, bwd_caches = _encoder_forward(
        embs, params.bwd, range(n - 1, -1, -1), keep_caches
    )
    states = np.concatenate([fwd_states, bwd_states], axis=1)
    return states, (embs, slots, fwd_caches, bwd_caches)


def encode(edges, params: ModelParams) -> np.ndarray:
    """Per-position states: forward pass state next to backward pass state.

    Row l is the concatenation [forward_l ; backward_l], width 2h.
    """
    states, _ = _encode_full(edges, params, keep_caches=False)
    return states


# --- attention pointer ------------------------------------------------------


def _attention(p1, idx, d_t, params: ModelParams):
    """Pointer distribution over the positions idx, an index array or a slice.

    p1 is the precomputed states @ attn_enc.T.  Returns probabilities,
    raw scores, the tanh activations, and log of the partition sum.
    """
    q = params.attn_dec @ d_t
    t_act = np.tanh(p1[idx] + q)
    u = t_act @ params.attn_v
    m = u.max()
    ex = np.exp(u - m)
    z = ex.sum()
    return ex / z, u, t_act, float(m + np.log(z))


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
    p1 = states @ params.attn_enc.T
    p, _, _, _ = _attention(p1, idx, d_t, params)
    out = np.zeros(states.shape[0])
    out[idx] = p
    return out


# --- pointer/color mapping ---------------------------------------------------


def pointer_to_colors(choices: Sequence[int]) -> tuple[int, ...]:
    """Self-pointer mints the next color, back-pointer copies one."""
    colors: list[int] = []
    fresh = 0
    for l, c in enumerate(choices):
        c = int(c)
        if not 0 <= c <= l:
            raise InvalidPointer(f"step {l} points to {c}")
        if c == l:
            fresh += 1
            colors.append(fresh)
        else:
            colors.append(colors[c])
    return tuple(colors)


def colors_to_pointers(colors: Sequence[int]) -> tuple[int, ...]:
    """Inverse of pointer_to_colors on canonical color sequences.

    The first use of each color points at itself, repeats point at the
    first use.  Non-canonical numbering cannot be expressed and raises
    BadTarget.
    """
    first: dict[int, int] = {}
    out: list[int] = []
    for l, c in enumerate(colors):
        c = int(c)
        if c in first:
            out.append(first[c])
        elif c == len(first) + 1:
            first[c] = l
            out.append(l)
        else:
            raise BadTarget(f"color {c} at position {l} breaks canonical numbering")
    return tuple(out)


# --- feasibility screen -------------------------------------------------------


class FeasibilityTracker:
    """Which existing colors may legally take a new cell.

    Because the adjacency fixes upfront which cells end as stars, the
    star-cross condition against a color's members is decidable during
    generation.  Color c is blocked for column j once any member's row
    has an edge in column j, and blocked for row i once any member's
    column has an edge in row i; both cover the distinct-row/column
    requirement as well, since a member is an edge in its own row and
    column.  Updates and queries are O(F + K) bitset operations.
    """

    def __init__(self, adj: np.ndarray):
        adj = np.asarray(adj, dtype=bool)
        f, k = adj.shape
        cap = max(int(adj.sum()), 1)
        self.adj = adj
        self.row_blocked = np.zeros((f, cap), dtype=bool)
        self.col_blocked = np.zeros((k, cap), dtype=bool)
        self.n_colors = 0

    def new_color(self, i: int, j: int) -> int:
        c = self.n_colors
        self.n_colors += 1
        self._mark(c, i, j)
        return c

    def add_member(self, c: int, i: int, j: int) -> None:
        self._mark(c, i, j)

    def _mark(self, c: int, i: int, j: int) -> None:
        self.col_blocked[:, c] |= self.adj[i, :]
        self.row_blocked[:, c] |= self.adj[:, j]

    def feasible(self, i: int, j: int) -> np.ndarray:
        """Boolean vector over colors 0..n_colors-1: may take cell (i, j)."""
        n = self.n_colors
        return ~(self.col_blocked[j, :n] | self.row_blocked[i, :n])


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


def _decoder_pass(shape, edges, params: ModelParams, use_mask: bool, pick, keep_caches: bool):
    """Shared decoding engine for rollouts and for replays of given choices.

    Step t attends over idx: the slice of positions 0..t when unmasked,
    else an index array of the feasible first occurrences and t.
    pick(t, idx, p) returns the chosen index INTO idx.  Returns encoder
    states and caches, the chosen positions, colors, total log
    probability, and per-step caches when requested; without caches the
    encoder keeps none either.
    """
    f, k = shape
    h = params.config.hidden_dim
    n = len(edges)
    states, enc_caches = _encode_full(edges, params, keep_caches)
    embs = enc_caches[0]
    p1 = states @ params.attn_enc.T
    tracker = None
    if use_mask:
        adj = np.zeros((f, k), dtype=bool)
        for i, j in edges:
            adj[i, j] = True
        tracker = FeasibilityTracker(adj)
    first_occ = np.empty(n, dtype=np.int64)
    n_first = 0
    colors: list[int] = []
    choices: list[int] = []
    logprob = 0.0
    d_prev = np.zeros(h)
    context = np.zeros(2 * h)
    caches = []
    for t in range(n):
        i, j = edges[t]
        if use_mask:
            feas = tracker.feasible(i, j)
            idx = np.concatenate([first_occ[:n_first][feas], [t]])
        else:
            idx = slice(0, t + 1)
        x = np.concatenate([context, params.start if t == 0 else embs[t - 1]])
        d_t, gcache = _gru_forward(params.dec.u @ x, d_prev, params.dec)
        p, u, t_act, log_z = _attention(p1, idx, d_t, params)
        pos = pick(t, idx, p)
        choice = int(idx[pos]) if use_mask else pos
        logprob += float(u[pos]) - log_z
        if choice == t:
            colors.append(n_first + 1)
            if use_mask:
                tracker.new_color(i, j)
            first_occ[n_first] = t
            n_first += 1
        else:
            c = colors[choice]
            colors.append(c)
            if use_mask:
                tracker.add_member(c - 1, i, j)
        choices.append(choice)
        context = p @ states[idx]
        if keep_caches:
            caches.append((idx, p, t_act, pos, x, d_t, gcache))
        d_prev = d_t
    return states, enc_caches, tuple(choices), tuple(colors), logprob, caches


def _replay(choices):
    """A pick that follows the given pointers; InvalidPointer off the support."""

    def pick(t, idx, p):
        c = choices[t]
        if isinstance(idx, slice):
            if 0 <= c <= t and c == int(c):
                return int(c)
        else:
            hits = np.nonzero(idx == c)[0]
            if hits.size:
                return int(hits[0])
        raise InvalidPointer(f"choice {c} at step {t} is not an available position")

    return pick


def rollout(
    adj: AdjacencyMatrix,
    params: ModelParams,
    mode: str = "greedy",
    seed: int = 0,
    use_mask: bool = True,
) -> Episode:
    """Color a placement end to end and score the result.

    mode "greedy" takes the argmax pointer each step; "sample" draws from
    the pointer distribution with a generator seeded by seed, so a fixed
    seed reproduces the episode exactly.  With use_mask on, back-pointers
    are restricted to first occurrences of colors that pass the
    feasibility screen (a fresh color is always allowed).  Reward is +1
    if the assembled array verifies, else -1.
    """
    if mode == "greedy":
        def pick(t, idx, p):
            return int(np.argmax(p))
    elif mode == "sample":
        rng = np.random.default_rng(seed)

        def pick(t, idx, p):
            pos = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
            return min(pos, len(p) - 1)
    else:
        raise InvalidParameter(f"unknown rollout mode {mode!r}")

    edges = extract_edge_sequence(adj)
    if not edges:
        reward = 1 if verify(assemble_array(adj, (), ())).valid else -1
        return Episode(
            f=adj.f, k=adj.k, edges=(), choices=(), colors=(),
            logprob=0.0, reward=reward, use_mask=use_mask,
        )
    _, _, choices, colors, logprob, _ = _decoder_pass(
        (adj.f, adj.k), edges, params, use_mask, pick, keep_caches=False
    )
    grid = assemble_array(adj, edges, colors)
    reward = 1 if verify(grid).valid else -1
    return Episode(
        f=adj.f, k=adj.k, edges=edges, choices=choices, colors=colors,
        logprob=logprob, reward=reward, use_mask=use_mask,
    )


# --- gradients ---------------------------------------------------------------


def sequence_logprob(shape, edges, choices, params: ModelParams, use_mask: bool) -> float:
    """Log probability of the given pointer choices, by the forward pass alone.

    The same number, bit for bit, that the gradient routines sum: -1 times
    supervised_loss of a one-pair batch, or an episode's reinforce
    objective over its reward.  Raises InvalidPointer for a choice
    outside its step's support.
    """
    if not edges:
        return 0.0
    _, _, _, _, logprob, _ = _decoder_pass(
        shape, edges, params, use_mask, _replay(choices), keep_caches=False
    )
    return logprob


def _encoder_backward(dys, caches, order, gp: GruParams, embs, grads, prefix: str):
    """Backpropagation through one encoder direction that stepped in order.

    dys[l] is the loss gradient on the state at position l.  Adds the
    direction's weight gradients to grads and returns the gradient on embs.
    """
    n, h = dys.shape
    da, dwy = np.empty((n, 3 * h)), np.empty((n, 3 * h))
    dy = np.zeros(h)
    for l in reversed(order):
        dy, da[l], dwy[l] = _gru_backward(dy + dys[l], caches[l], gp)
    _add_gru_grads(grads, prefix, da, dwy, embs, np.array([c[0] for c in caches]))
    return da @ gp.u


def _sequence_grads(shape, edges, choices, params: ModelParams, use_mask: bool):
    """Log probability of the given choices and its exact parameter gradient."""
    n = len(edges)
    if n == 0:
        return 0.0, params.zero_grads()
    states, enc_caches, _, _, logprob, caches = _decoder_pass(
        shape, edges, params, use_mask, _replay(choices), keep_caches=True
    )
    embs, slots, fwd_caches, bwd_caches = enc_caches
    grads = params.zero_grads()
    h = params.config.hidden_dim
    dec = params.dec
    u_context = dec.u[:, : 2 * h]
    dstates = np.zeros_like(states)
    dp1 = np.zeros((n, h))
    da, dwy, dq = np.empty((n, 3 * h)), np.empty((n, 3 * h)), np.empty((n, h))
    g_d = np.zeros(h)
    dcontext = np.zeros(2 * h)
    for t in range(n - 1, -1, -1):
        idx, p, t_act, pos, _, d_t, gcache = caches[t]
        s_idx = states[idx]
        # context_t = p @ s_idx feeds step t+1; dcontext holds its gradient
        g = s_idx @ dcontext
        dstates[idx] += np.outer(p, dcontext)
        du = -p
        du[pos] += 1.0
        du += p * (g - float(p @ g))
        grads["attn_v"] += t_act.T @ du
        dpre = np.outer(du, params.attn_v) * (1.0 - t_act * t_act)
        dp1[idx] += dpre
        dq[t] = dpre.sum(axis=0)
        g_d = g_d + params.attn_dec.T @ dq[t]
        g_d, da[t], dwy[t] = _gru_backward(g_d, gcache, dec)
        dcontext = u_context.T @ da[t]
    # p1 = states @ attn_enc.T and q_t = attn_dec @ d_t, summed over steps
    grads["attn_enc"] += dp1.T @ states
    dstates += dp1 @ params.attn_enc
    grads["attn_dec"] += dq.T @ np.array([c[5] for c in caches])
    _add_gru_grads(
        grads, "dec", da, dwy,
        np.array([c[4] for c in caches]), np.array([c[6][0] for c in caches]),
    )
    # the decoder input of step t holds the embedding of position t-1
    dx_emb = da @ dec.u[:, 2 * h :]
    grads["start"] += dx_emb[0]
    demb = np.zeros_like(embs)
    demb[:-1] = dx_emb[1:]
    # forward encoder ran l = 0..n-1, so its gradient runs back from n-1
    demb += _encoder_backward(
        dstates[:, :h], fwd_caches, range(n), params.fwd, embs, grads, "fwd"
    )
    # backward encoder ran l = n-1..0, so its gradient runs back from 0
    demb += _encoder_backward(
        dstates[:, h:], bwd_caches, range(n - 1, -1, -1), params.bwd, embs, grads, "bwd"
    )
    table = grads["embed"].T
    for slot in slots:
        np.add.at(table, slot, demb)
    return logprob, grads


def supervised_loss(batch, params: ModelParams):
    """Mean negative log likelihood of pointer targets, with gradients.

    batch: list of (edges, colors) with canonical colors.  Targets are
    the pointer encoding of the colors; the pointer support at step t is
    every position up to t.
    """
    if not batch:
        raise InvalidBatch("empty supervised batch")
    grads = params.zero_grads()
    total = 0.0
    for edges, colors in batch:
        choices = colors_to_pointers(colors)
        logp, g = _sequence_grads((0, 0), edges, choices, params, use_mask=False)
        total += logp
        for name in grads:
            grads[name] += g[name]
    scale = -1.0 / len(batch)
    for name in grads:
        grads[name] *= scale
    return -total / len(batch), grads


def reinforce_objective_and_grad(episodes, params: ModelParams):
    """Mean of reward-weighted episode log likelihoods, with gradients."""
    if not episodes:
        raise InvalidBatch("empty episode batch")
    grads = params.zero_grads()
    total = 0.0
    w = 1.0 / len(episodes)
    for ep in episodes:
        logp, g = _sequence_grads(
            (ep.f, ep.k), ep.edges, ep.choices, params, ep.use_mask
        )
        total += w * ep.reward * logp
        for name in grads:
            grads[name] += (w * ep.reward) * g[name]
    return total, grads

