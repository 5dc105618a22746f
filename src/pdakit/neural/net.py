"""The attention pointer colorer and its exact gradients.

Forward model: each edge cell is embedded, a bidirectional GRU encodes
the sequence, and a decoder GRU with additive attention emits, step by
step, a pointer into the already-seen positions.  A self-pointer mints a
fresh color, a back-pointer copies the color at the pointed position, so
the output dictionary grows with the input exactly as the variable color
count demands.

Gradients are derived by hand and verified against central finite
differences in the tests; no autograd anywhere.  All math is float64.
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
from .params import GruParams, ModelParams, clip_grads


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# --- GRU cell -------------------------------------------------------------


def _gru_forward(x: np.ndarray, y_prev: np.ndarray, gp: GruParams):
    r = _sigmoid(gp.u_reset @ x + gp.w_reset @ y_prev + gp.b_reset)
    z = _sigmoid(gp.u_update @ x + gp.w_update @ y_prev + gp.b_update)
    wsy = gp.w_cand @ y_prev
    cand = np.tanh(gp.u_cand @ x + r * wsy + gp.b_cand)
    y = z * y_prev + (1.0 - z) * cand
    return y, (x, y_prev, r, z, wsy, cand)


def gru_step(x, y_prev, gp: GruParams) -> np.ndarray:
    """One recurrence step: reset/update gates, candidate, convex mix.

    The new state interpolates between the previous state (weight z) and
    the candidate (weight 1 - z), so it stays in (-1, 1) whenever the
    previous state is there.
    """
    x = np.asarray(x, dtype=float)
    y_prev = np.asarray(y_prev, dtype=float)
    h, m = gp.u_reset.shape
    if x.shape != (m,):
        raise ShapeError(f"input has shape {x.shape}, expected ({m},)")
    if y_prev.shape != (h,):
        raise ShapeError(f"hidden has shape {y_prev.shape}, expected ({h},)")
    y, _ = _gru_forward(x, y_prev, gp)
    return y


def _gru_backward(dy, cache, gp: GruParams, grads, prefix: str):
    """Accumulate parameter gradients; return (dy_prev, dx)."""
    x, y_prev, r, z, wsy, cand = cache
    dz = dy * (y_prev - cand)
    dcand = dy * (1.0 - z)
    dy_prev = dy * z

    da_c = dcand * (1.0 - cand * cand)
    grads[prefix + ".u_cand"] += np.outer(da_c, x)
    grads[prefix + ".b_cand"] += da_c
    dr = da_c * wsy
    dwsy = da_c * r
    grads[prefix + ".w_cand"] += np.outer(dwsy, y_prev)
    dy_prev = dy_prev + gp.w_cand.T @ dwsy

    da_r = dr * r * (1.0 - r)
    grads[prefix + ".u_reset"] += np.outer(da_r, x)
    grads[prefix + ".w_reset"] += np.outer(da_r, y_prev)
    grads[prefix + ".b_reset"] += da_r
    dy_prev = dy_prev + gp.w_reset.T @ da_r

    da_z = dz * z * (1.0 - z)
    grads[prefix + ".u_update"] += np.outer(da_z, x)
    grads[prefix + ".w_update"] += np.outer(da_z, y_prev)
    grads[prefix + ".b_update"] += da_z
    dy_prev = dy_prev + gp.w_update.T @ da_z

    dx = gp.u_cand.T @ da_c + gp.u_reset.T @ da_r + gp.u_update.T @ da_z
    return dy_prev, dx


# --- encoder ----------------------------------------------------------------


def embed_edge(params: ModelParams, i: int, j: int) -> np.ndarray:
    """Row slot plus column slot of the embedding table."""
    cfg = params.config
    if not 0 <= i < cfg.f_max:
        raise VocabularyError(f"row {i} outside embedding range [0, {cfg.f_max})")
    if not 0 <= j < cfg.k_max:
        raise VocabularyError(f"column {j} outside embedding range [0, {cfg.k_max})")
    return params.embed[:, i] + params.embed[:, cfg.f_max + j]


def _encode_full(edges, params: ModelParams):
    if not edges:
        raise InvalidParameter("cannot encode an empty edge sequence")
    h = params.config.hidden_dim
    embs = [embed_edge(params, i, j) for i, j in edges]
    n = len(edges)
    fwd_states = np.zeros((n, h))
    fwd_caches = []
    y = np.zeros(h)
    for l in range(n):
        y, cache = _gru_forward(embs[l], y, params.fwd)
        fwd_states[l] = y
        fwd_caches.append(cache)
    bwd_states = np.zeros((n, h))
    bwd_caches: list = [None] * n
    y = np.zeros(h)
    for l in range(n - 1, -1, -1):
        y, cache = _gru_forward(embs[l], y, params.bwd)
        bwd_states[l] = y
        bwd_caches[l] = cache
    states = np.concatenate([fwd_states, bwd_states], axis=1)
    return states, (embs, fwd_caches, bwd_caches)


def encode(edges, params: ModelParams) -> np.ndarray:
    """Per-position states: forward pass state next to backward pass state.

    Row l is the concatenation [forward_l ; backward_l], width 2h.
    """
    states, _ = _encode_full(edges, params)
    return states


# --- attention pointer ------------------------------------------------------


def _attention(p1, states, idx, d_t, params: ModelParams):
    """Pointer distribution over the index set idx.

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
    p, _, _, _ = _attention(p1, states, idx, d_t, params)
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
    """Shared decoding engine for rollouts and gradient replays.

    pick(t, idx, p) returns the chosen index INTO idx.  Returns encoder
    states and caches, the chosen positions, colors, total log
    probability, and per-step caches when requested.
    """
    f, k = shape
    h = params.config.hidden_dim
    n = len(edges)
    states, enc_caches = _encode_full(edges, params)
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
            idx = np.arange(t + 1)
        x = np.concatenate([context, params.start if t == 0 else embs[t - 1]])
        d_t, gcache = _gru_forward(x, d_prev, params.dec)
        p, u, t_act, log_z = _attention(p1, states, idx, d_t, params)
        pos = pick(t, idx, p)
        choice = int(idx[pos])
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
            caches.append((idx, p, t_act, pos, d_t, gcache))
        d_prev = d_t
    return states, enc_caches, tuple(choices), tuple(colors), logprob, caches


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


def _sequence_grads(shape, edges, choices, params: ModelParams, use_mask: bool):
    """Log probability of the given choices and its exact parameter gradient."""
    n = len(edges)
    if n == 0:
        return 0.0, params.zero_grads()

    def pick(t, idx, p):
        hits = np.nonzero(idx == choices[t])[0]
        if hits.size == 0:
            raise InvalidPointer(
                f"choice {choices[t]} at step {t} is not an available position"
            )
        return int(hits[0])

    states, enc_caches, _, _, logprob, caches = _decoder_pass(
        shape, edges, params, use_mask, pick, keep_caches=True
    )
    embs, fwd_caches, bwd_caches = enc_caches
    grads = params.zero_grads()
    h = params.config.hidden_dim
    dstates = np.zeros_like(states)
    demb = [np.zeros(params.config.embed_dim) for _ in range(n)]
    g_d = np.zeros(h)
    dcontext = np.zeros(2 * h)
    for t in range(n - 1, -1, -1):
        idx, p, t_act, pos, d_t, gcache = caches[t]
        s_idx = states[idx]
        # context_t = p @ s_idx feeds step t+1; dcontext holds its gradient
        g = s_idx @ dcontext
        dstates[idx] += np.outer(p, dcontext)
        du = -p.copy()
        du[pos] += 1.0
        du += p * (g - float(p @ g))
        grads["attn_v"] += t_act.T @ du
        dpre = np.outer(du, params.attn_v) * (1.0 - t_act * t_act)
        grads["attn_enc"] += dpre.T @ s_idx
        dstates[idx] += dpre @ params.attn_enc
        dq = dpre.sum(axis=0)
        grads["attn_dec"] += np.outer(dq, d_t)
        g_d = g_d + params.attn_dec.T @ dq
        g_d, dx = _gru_backward(g_d, gcache, params.dec, grads, "dec")
        dcontext = dx[: 2 * h]
        if t == 0:
            grads["start"] += dx[2 * h :]
        else:
            demb[t - 1] += dx[2 * h :]
    # forward encoder ran l = 0..n-1, so its gradient runs back from n-1
    dy = np.zeros(h)
    for l in range(n - 1, -1, -1):
        dy = dy + dstates[l, :h]
        dy, dx = _gru_backward(dy, fwd_caches[l], params.fwd, grads, "fwd")
        demb[l] += dx
    # backward encoder ran l = n-1..0, so its gradient runs back from 0
    dy = np.zeros(h)
    for l in range(n):
        dy = dy + dstates[l, h:]
        dy, dx = _gru_backward(dy, bwd_caches[l], params.bwd, grads, "bwd")
        demb[l] += dx
    f_max = params.config.f_max
    for l, (i, j) in enumerate(edges):
        grads["embed"][:, i] += demb[l]
        grads["embed"][:, f_max + j] += demb[l]
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


def reinforce_update(
    episodes, params: ModelParams, learning_rate: float, clip_norm: float = 5.0
) -> ModelParams:
    """One ascent step on the reward-weighted log likelihood, in place."""
    _, grads = reinforce_objective_and_grad(episodes, params)
    clip_grads(grads, clip_norm)
    params.apply_step(grads, +learning_rate)
    return params
