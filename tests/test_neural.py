import dataclasses
import math

import numpy as np
import pytest

from pdakit.errors import (
    BadTarget,
    DimensionError,
    DivergenceError,
    InvalidBatch,
    InvalidParameter,
    InvalidPointer,
    NoFeasibleAction,
    ParseError,
    ShapeError,
    VocabularyError,
)
from pdakit.neural import (
    Episode,
    FeasibilityTracker,
    GruParams,
    ModelConfig,
    ModelParams,
    TrainConfig,
    clip_grads,
    colors_to_pointers,
    decode_step,
    embed_edge,
    encode,
    greedy_valid_rate,
    gru_step,
    load_checkpoint,
    pointer_to_colors,
    reinforce_objective_and_grad,
    rollout,
    rollout_batch,
    save_checkpoint,
    sequence_logprob,
    sequence_logprobs,
    supervised_loss,
    train,
    write_log_csv,
)
from pdakit.neural import net
from pdakit.neural.net import _sigmoid
from pdakit.pda import construct_mn_pda, verify
from pdakit.seqcodec import (
    AdjacencyMatrix,
    assemble_array,
    default_star_pattern,
    extract_edge_sequence,
    placement_to_adjacency,
    training_pair_from_pda,
)

import oracles

CROSS = AdjacencyMatrix(np.array([[True, False], [False, True]]))


def tiny_params(seed=0, d=3, h=4, f_max=4, k_max=4):
    return ModelParams.init(
        ModelConfig(f_max=f_max, k_max=k_max, embed_dim=d, hidden_dim=h), seed=seed
    )


def assert_views_of_one_vector(params):
    """Every tensor, and every zero_grads entry, sits at its layout offset in one vector."""
    fields = [params.embed]
    for gru in (params.fwd, params.bwd, params.dec):
        fields += [gru.u, gru.w, gru.b]
    fields += [params.attn_enc, params.attn_dec, params.attn_v, params.start]
    items = params.tensor_items()
    grads = params.zero_grads()
    assert list(grads) == [name for name, _ in items]
    grad_base = grads["embed"].base
    assert grad_base is not params.vector and grad_base.shape == params.vector.shape
    for vec, tensors in ((params.vector, fields), (params.vector, [t for _, t in items]),
                         (grad_base, list(grads.values()))):
        assert vec.dtype == np.float64 and vec.ndim == 1 and vec.flags.c_contiguous
        origin, pos = vec.__array_interface__["data"][0], 0
        for t in tensors:
            assert np.shares_memory(t, vec)
            assert t.__array_interface__["data"][0] == origin + 8 * pos
            pos += t.size
        assert pos == vec.size
    assert not grad_base.any()


def grads_to_vec(params, grads):
    return np.concatenate([grads[name].ravel() for name, _ in params.tensor_items()])


def random_adjacency(rng, max_f=5, max_k=5):
    f = int(rng.integers(2, max_f + 1))
    k = int(rng.integers(2, max_k + 1))
    mask = rng.random((f, k)) < 0.6
    if not mask.any():
        mask[0, 0] = True
    return AdjacencyMatrix(mask)


class TestGruStep:
    def test_zero_weights_zero_state(self):
        gp = GruParams.init(3, 2, np.random.default_rng(0))
        for gate in range(3):
            rows = slice(2 * gate, 2 * gate + 2)
            gp.u[rows] = 0.0
            gp.w[rows] = 0.0
            gp.b[rows] = 0.0
        y = gru_step(np.ones(3), np.zeros(2), gp)
        # z = 1/2, cand = tanh(0) = 0, y = 0.5*0 + 0.5*0
        assert np.array_equal(y, np.zeros(2))

    def test_scalar_cell_matches_hand_formula(self):
        gp = GruParams.init(1, 1, np.random.default_rng(0))
        # rows: reset, update, candidate
        gp.u[0], gp.w[0], gp.b[0] = 0.3, -0.2, 0.1
        gp.u[1], gp.w[1], gp.b[1] = 0.5, 0.4, -0.3
        gp.u[2], gp.w[2], gp.b[2] = 0.7, 0.2, 0.05
        x, y_prev = 0.9, -0.4

        r = 1.0 / (1.0 + math.exp(-(0.3 * x - 0.2 * y_prev + 0.1)))
        z = 1.0 / (1.0 + math.exp(-(0.5 * x + 0.4 * y_prev - 0.3)))
        cand = math.tanh(0.7 * x + r * (0.2 * y_prev) + 0.05)
        want = z * y_prev + (1.0 - z) * cand

        got = gru_step(np.array([x]), np.array([y_prev]), gp)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, abs=1e-15)

    def test_sigmoid_cannot_overflow_and_matches_piecewise_form(self):
        with np.errstate(all="raise"):
            ends = _sigmoid(np.array([-1000.0, 1000.0]))
        assert np.array_equal(ends, [0.0, 1.0])
        x = np.linspace(-40.0, 40.0, 100001)
        pos = x >= 0
        want = np.empty_like(x)
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        assert np.max(np.abs(_sigmoid(x) - want)) <= 5e-16

    def test_state_stays_bounded(self):
        rng = np.random.default_rng(7)
        gp = GruParams.init(2, 3, rng)
        y = np.zeros(3)
        for _ in range(200):
            y = gru_step(rng.normal(size=2) * 10.0, y, gp)
            assert np.all(np.abs(y) < 1.0)

    def test_rejects_wrong_shapes(self):
        gp = GruParams.init(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            gru_step(np.ones(4), np.zeros(2), gp)
        with pytest.raises(ShapeError):
            gru_step(np.ones(3), np.zeros(3), gp)


class TestEncode:
    def test_single_edge_is_one_step_each_way(self):
        params = tiny_params(seed=3)
        states = encode([(1, 2)], params)
        emb = embed_edge(params, 1, 2)
        h = params.config.hidden_dim
        fwd = gru_step(emb, np.zeros(h), params.fwd)
        bwd = gru_step(emb, np.zeros(h), params.bwd)
        assert states.shape == (1, 2 * h)
        assert np.array_equal(states[0, :h], fwd)
        assert np.array_equal(states[0, h:], bwd)

    def test_composes_like_manual_steps(self):
        params = tiny_params(seed=5)
        edges = [(0, 1), (2, 0), (1, 3)]
        states = encode(edges, params)
        h = params.config.hidden_dim
        embs = [embed_edge(params, i, j) for i, j in edges]

        y = np.zeros(h)
        for l in range(3):
            y = gru_step(embs[l], y, params.fwd)
            assert np.array_equal(states[l, :h], y)
        y = np.zeros(h)
        for l in (2, 1, 0):
            y = gru_step(embs[l], y, params.bwd)
            assert np.array_equal(states[l, h:], y)

    def test_shared_directions_make_reversal_a_swap(self):
        # with identical weights in both directions, encoding the reversed
        # sequence swaps the two halves and flips the position order
        params = tiny_params(seed=11)
        for f in dataclasses.fields(params.fwd):
            getattr(params.bwd, f.name)[...] = getattr(params.fwd, f.name)
        edges = [(0, 0), (1, 2), (3, 1), (2, 2)]
        h = params.config.hidden_dim
        fwd_view = encode(edges, params)
        rev_view = encode(edges[::-1], params)
        n = len(edges)
        for l in range(n):
            assert np.array_equal(rev_view[l, :h], fwd_view[n - 1 - l, h:])
            assert np.array_equal(rev_view[l, h:], fwd_view[n - 1 - l, :h])

    def test_rejects_out_of_vocabulary_edges(self):
        params = tiny_params(f_max=3, k_max=2)
        with pytest.raises(VocabularyError):
            encode([(3, 0)], params)
        with pytest.raises(VocabularyError):
            encode([(0, 2)], params)
        with pytest.raises(VocabularyError):
            embed_edge(params, -1, 0)
        # a vectorized gather would wrap -1 around to the last slot
        for edges in ([(-1, 0)], [(0, -1)], [(0, 0), (1, 1), (2, -1)], [(1.5, 0)]):
            with pytest.raises(VocabularyError):
                encode(edges, params)

    def test_rejects_empty_sequence(self):
        with pytest.raises(InvalidParameter):
            encode([], tiny_params())


class TestDecodeStep:
    def test_zero_scoring_vector_is_uniform(self):
        params = tiny_params(seed=2)
        params.attn_v[...] = 0.0
        h = params.config.hidden_dim
        states = np.random.default_rng(0).normal(size=(5, 2 * h))
        p = decode_step(states, np.zeros(h), np.ones(5, dtype=bool), params)
        assert np.allclose(p, 0.2, atol=1e-15)

    def test_single_feasible_position_gets_everything(self):
        params = tiny_params(seed=2)
        h = params.config.hidden_dim
        states = np.random.default_rng(1).normal(size=(4, 2 * h))
        mask = np.array([False, False, True, False])
        p = decode_step(states, np.zeros(h), mask, params)
        assert p[2] == 1.0
        assert np.array_equal(p == 0.0, ~mask)

    def test_scalar_model_matches_hand_softmax(self):
        params = tiny_params(d=2, h=1, f_max=2, k_max=2)
        params.attn_enc[...] = np.array([[0.3, -0.1]])
        params.attn_dec[...] = np.array([[0.2]])
        params.attn_v[...] = np.array([0.5])
        states = np.array([[1.0, 2.0], [0.5, -1.0]])
        d_t = np.array([0.4])

        u0 = 0.5 * math.tanh(0.3 * 1.0 - 0.1 * 2.0 + 0.2 * 0.4)
        u1 = 0.5 * math.tanh(0.3 * 0.5 - 0.1 * -1.0 + 0.2 * 0.4)
        z = math.exp(u0) + math.exp(u1)

        p = decode_step(states, d_t, np.ones(2, dtype=bool), params)
        assert p[0] == pytest.approx(math.exp(u0) / z, abs=1e-15)
        assert p[1] == pytest.approx(math.exp(u1) / z, abs=1e-15)

    def test_sums_to_one_and_respects_mask(self):
        rng = np.random.default_rng(20260814)
        for _ in range(50):
            h = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            params = tiny_params(seed=int(rng.integers(1000)), d=d, h=h)
            n = int(rng.integers(1, 9))
            states = rng.normal(size=(n, 2 * h)) * 3.0
            mask = rng.random(n) < 0.5
            if not mask.any():
                mask[int(rng.integers(n))] = True
            p = decode_step(states, rng.normal(size=h), mask, params)
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p[~mask] == 0.0)
            assert np.all(p[mask] > 0.0)
            assert np.all(np.isfinite(p))

    def test_all_masked_raises(self):
        params = tiny_params()
        h = params.config.hidden_dim
        with pytest.raises(NoFeasibleAction):
            decode_step(np.zeros((3, 2 * h)), np.zeros(h), np.zeros(3, dtype=bool), params)

    def test_rejects_wrong_widths(self):
        params = tiny_params(h=4)
        with pytest.raises(ShapeError):
            decode_step(np.zeros((3, 7)), np.zeros(4), np.ones(3, dtype=bool), params)
        with pytest.raises(ShapeError):
            decode_step(np.zeros((3, 8)), np.zeros(5), np.ones(3, dtype=bool), params)
        with pytest.raises(ShapeError):
            decode_step(np.zeros((3, 8)), np.zeros(4), np.ones(4, dtype=bool), params)


class TestPointerMapping:
    def test_examples(self):
        assert pointer_to_colors((0, 1, 2)) == (1, 2, 3)
        assert pointer_to_colors((0, 0)) == (1, 1)
        assert pointer_to_colors((0, 1, 0, 1)) == (1, 2, 1, 2)
        assert pointer_to_colors(()) == ()
        assert colors_to_pointers((1, 2, 3)) == (0, 1, 2)
        assert colors_to_pointers((1, 1)) == (0, 0)
        assert colors_to_pointers((1, 2, 1, 2)) == (0, 1, 0, 1)
        assert colors_to_pointers(()) == ()

    def test_forward_pointer_rejected(self):
        with pytest.raises(InvalidPointer):
            pointer_to_colors((1,))
        with pytest.raises(InvalidPointer):
            pointer_to_colors((0, 2))
        with pytest.raises(InvalidPointer):
            pointer_to_colors((0, -1))

    def test_non_canonical_colors_rejected(self):
        with pytest.raises(BadTarget):
            colors_to_pointers((2,))
        with pytest.raises(BadTarget):
            colors_to_pointers((1, 3))
        with pytest.raises(BadTarget):
            colors_to_pointers((1, 2, 4))

    def test_round_trip_over_every_canonical_sequence(self):
        for length in range(7):
            for colors in oracles.canonical_color_sequences(length):
                assert pointer_to_colors(colors_to_pointers(colors)) == colors

    def test_pointer_normalization_keeps_the_coloring(self):
        # many pointer tuples share a coloring; the inverse map picks the
        # first-occurrence representative, which must color identically
        import itertools

        for length in range(5):
            for choices in itertools.product(*(range(l + 1) for l in range(length))):
                colors = pointer_to_colors(choices)
                assert pointer_to_colors(colors_to_pointers(colors)) == colors


def oracle_feasible(adj, members, i, j):
    """Literal reading of the pair condition against a color's cells."""
    for i2, j2 in members:
        if i == i2 or j == j2 or adj[i, j2] or adj[i2, j]:
            return False
    return True


class TestFeasibilityTracker:
    def test_agrees_with_literal_pair_rule(self):
        rng = np.random.default_rng(20260814)
        for _ in range(200):
            adj = random_adjacency(rng).mask
            edges = extract_edge_sequence(AdjacencyMatrix(adj))
            tracker = FeasibilityTracker(adj)
            members: list[list[tuple[int, int]]] = []
            for i, j in edges:
                feas = tracker.feasible(i, j)
                want = [oracle_feasible(adj, m, i, j) for m in members]
                assert feas.tolist() == want
                open_colors = np.nonzero(feas)[0]
                if open_colors.size and rng.random() < 0.7:
                    c = int(rng.choice(open_colors))
                    tracker.add_member(c, i, j)
                    members[c].append((i, j))
                else:
                    tracker.new_color(i, j)
                    members.append([(i, j)])

    def test_guided_colorings_never_break_pair_conditions(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            a = random_adjacency(rng)
            edges = extract_edge_sequence(a)
            tracker = FeasibilityTracker(a.mask)
            firsts: list[int] = []
            colors: list[int] = []
            for t, (i, j) in enumerate(edges):
                feas = tracker.feasible(i, j)
                open_firsts = [firsts[c] for c in np.nonzero(feas)[0]]
                if open_firsts and rng.random() < 0.8:
                    c = colors[open_firsts[int(rng.integers(len(open_firsts)))]]
                    tracker.add_member(c - 1, i, j)
                    colors.append(c)
                else:
                    tracker.new_color(i, j)
                    colors.append(len(firsts) + 1)
                    firsts.append(t)
            report = verify(assemble_array(a, edges, tuple(colors)))
            for violation in report.violations:
                assert violation.condition == "column-stars"

    def test_capacity_handles_all_fresh_colors(self):
        adj = np.ones((3, 3), dtype=bool)
        tracker = FeasibilityTracker(adj)
        for t, (i, j) in enumerate(((0, 0), (1, 1), (2, 2))):
            assert tracker.feasible(i, j).shape == (t,)
            tracker.new_color(i, j)
        assert tracker.n_colors == 3


class TestEpisode:
    def kwargs(self):
        return dict(
            f=2, k=2, edges=((1, 0), (0, 1)), choices=(0, 1), colors=(1, 2),
            logprob=-0.5, reward=1, use_mask=True,
        )

    def test_reward_must_be_unit(self):
        with pytest.raises(InvalidParameter):
            Episode(**{**self.kwargs(), "reward": 0})

    def test_logprob_must_be_nonpositive(self):
        with pytest.raises(InvalidParameter):
            Episode(**{**self.kwargs(), "logprob": 0.1})

    def test_lengths_must_agree(self):
        with pytest.raises(InvalidParameter):
            Episode(**{**self.kwargs(), "choices": (0,)})


class TestRollout:
    def test_cross_placement_always_valid_under_mask(self):
        for pseed in range(4):
            params = tiny_params(seed=pseed)
            for seed in range(5):
                ep = rollout(CROSS, params, mode="sample", seed=seed)
                assert ep.reward == 1
                assert ep.colors in ((1, 2), (1, 1))
            ep = rollout(CROSS, params, mode="greedy")
            assert ep.reward == 1

    def test_sampling_reaches_both_cross_colorings(self):
        params = tiny_params(seed=1)
        seen = {rollout(CROSS, params, mode="sample", seed=s).colors for s in range(20)}
        assert seen == {(1, 1), (1, 2)}

    def test_empty_placement_short_circuits(self):
        a = AdjacencyMatrix(np.zeros((2, 3), dtype=bool))
        ep = rollout(a, tiny_params(), mode="sample", seed=9)
        assert ep.edges == () and ep.colors == ()
        assert ep.logprob == 0.0
        assert ep.reward == 1

    def test_fixed_seed_reproduces_episodes(self):
        params = tiny_params(seed=6)
        a = placement_to_adjacency(2, 4, 4, default_star_pattern(4, 4, 2))
        first = rollout(a, params, mode="sample", seed=123)
        again = rollout(a, params, mode="sample", seed=123)
        assert first == again
        runs = {rollout(a, params, mode="sample", seed=s).choices for s in range(8)}
        assert len(runs) > 1

    def test_greedy_is_deterministic(self):
        params = tiny_params(seed=8)
        a = placement_to_adjacency(1, 3, 3, default_star_pattern(3, 3, 1))
        assert rollout(a, params) == rollout(a, params)

    def test_masked_rollouts_valid_exactly_when_stars_are_uniform(self):
        rng = np.random.default_rng(42)
        params = tiny_params(seed=4, f_max=6, k_max=6)
        for _ in range(30):
            a = random_adjacency(rng)
            ep = rollout(a, params, mode="sample", seed=int(rng.integers(10000)))
            uniform = len(set(a.mask.sum(axis=0).tolist())) == 1
            assert ep.reward == (1 if uniform else -1)
            report = verify(assemble_array(a, ep.edges, ep.colors))
            for violation in report.violations:
                assert violation.condition == "column-stars"

    def test_unmasked_rollouts_stay_in_range(self):
        rng = np.random.default_rng(77)
        params = tiny_params(seed=3, f_max=6, k_max=6)
        for _ in range(20):
            a = random_adjacency(rng)
            ep = rollout(a, params, mode="sample",
                         seed=int(rng.integers(10000)), use_mask=False)
            assert all(0 <= c <= t for t, c in enumerate(ep.choices))
            assert ep.reward in (1, -1)
            assert ep.logprob <= 1e-9
            assert pointer_to_colors(ep.choices) == ep.colors

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameter):
            rollout(CROSS, tiny_params(), mode="beam")
        with pytest.raises(InvalidParameter, match="one seed per placement"):
            rollout_batch([CROSS, CROSS], tiny_params(), mode="sample", seeds=[1])


class TestSupervisedLoss:
    def test_uniform_model_on_two_edges_costs_log_two(self):
        params = tiny_params(seed=0)
        params.attn_v[...] = 0.0
        edges = extract_edge_sequence(CROSS)
        for colors in ((1, 1), (1, 2)):
            loss, _ = supervised_loss([(edges, colors)], params)
            assert loss == math.log(2.0)

    def test_single_edge_costs_nothing(self):
        loss, grads = supervised_loss([(((0, 0),), (1,))], tiny_params(seed=5))
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(20260814)
        for trial in range(2):
            params = tiny_params(seed=trial, d=4, h=4)
            a = random_adjacency(rng, max_f=4, max_k=4)
            edges = extract_edge_sequence(a)[:6]
            seqs = list(oracles.canonical_color_sequences(len(edges)))
            colors = seqs[int(rng.integers(len(seqs)))]
            batch = [(tuple(edges), colors)]

            _, grads = supervised_loss(batch, params)
            analytic = grads_to_vec(params, grads)

            def fn(vec):
                return supervised_loss(batch, params.unflatten(vec))[0]

            numeric = oracles.central_difference_grad(fn, params.flatten())
            assert oracles.relative_error(analytic, numeric) < 1e-4

    def test_memorizes_one_sample(self):
        pair = training_pair_from_pda(construct_mn_pda(3, 1))
        params = tiny_params(seed=0, d=4, h=8)
        batch = [(pair.edges, pair.colors)]
        losses = []
        for _ in range(30):
            loss, grads = supervised_loss(batch, params)
            losses.append(loss)
            clip_grads(grads, 5.0)
            params.apply_step(grads, -0.5)
        assert losses[-1] < 0.25 * losses[0]

    def test_rejects_bad_targets_and_empty_batches(self, monkeypatch):
        params = tiny_params()
        with pytest.raises(InvalidBatch):
            supervised_loss([], params)
        with pytest.raises(BadTarget):
            supervised_loss([(((0, 0), (0, 1)), (1, 3))], params)
        # a target longer or shorter than its edges is named before any forward work
        monkeypatch.setattr(net, "_Batch", None)
        edges = ((0, 0), (1, 1))
        for colors in ((1, 2, 3), (1,)):
            with pytest.raises(BadTarget, match=f"pair 1 has {len(colors)} colors for 2 edges"):
                supervised_loss([(edges, (1, 2)), (edges, colors)], params)


class TestReinforce:
    def sample_episodes(self, params, n):
        return [
            rollout(CROSS, params, mode="sample", seed=s, use_mask=False)
            for s in range(n)
        ]

    @staticmethod
    def ascend(episodes, params, learning_rate):
        """One clipped ascent step on the reward-weighted log likelihood, as train takes it."""
        _, grads = reinforce_objective_and_grad(episodes, params)
        clip_grads(grads, 5.0)
        params.apply_step(grads, +learning_rate)

    def test_unit_reward_objective_mirrors_likelihood(self):
        # every cross episode earns +1, so the ascent direction must match
        # supervised descent on the same sequences exactly
        params = tiny_params(seed=9)
        episodes = self.sample_episodes(params, 4)
        assert all(ep.reward == 1 for ep in episodes)

        objective, rgrads = reinforce_objective_and_grad(episodes, params)
        loss, sgrads = supervised_loss(
            [(ep.edges, ep.colors) for ep in episodes], params
        )
        assert objective == pytest.approx(-loss, rel=1e-12)
        r = grads_to_vec(params, rgrads)
        s = grads_to_vec(params, sgrads)
        assert np.allclose(r, -s, rtol=1e-12, atol=1e-15)

    def test_single_episode_grads_are_exactly_negated_loss_grads(self):
        params = tiny_params(seed=10)
        ep = self.sample_episodes(params, 1)[0]
        _, rgrads = reinforce_objective_and_grad([ep], params)
        _, sgrads = supervised_loss([(ep.edges, ep.colors)], params)
        assert np.array_equal(
            grads_to_vec(params, rgrads), -grads_to_vec(params, sgrads)
        )

    def test_opposite_rewards_cancel(self):
        params = tiny_params(seed=2)
        ep = rollout(CROSS, params, mode="sample", seed=5)
        flipped = dataclasses.replace(ep, reward=-1)
        before = params.flatten()
        self.ascend([ep, flipped], params, learning_rate=0.5)
        assert np.array_equal(params.flatten(), before)

    def test_gradient_matches_central_differences(self):
        params = tiny_params(seed=1, d=3, h=4)
        a = placement_to_adjacency(2, 3, 3, default_star_pattern(3, 3, 2))
        ep = rollout(a, params, mode="sample", seed=3)

        _, grads = reinforce_objective_and_grad([ep], params)
        analytic = grads_to_vec(params, grads)

        def fn(vec):
            return reinforce_objective_and_grad([ep], params.unflatten(vec))[0]

        numeric = oracles.central_difference_grad(fn, params.flatten())
        assert oracles.relative_error(analytic, numeric) < 1e-4

    def test_update_moves_toward_higher_objective(self):
        params = tiny_params(seed=12)
        episodes = self.sample_episodes(params, 4)
        before, _ = reinforce_objective_and_grad(episodes, params)
        self.ascend(episodes, params, learning_rate=0.05)
        after, _ = reinforce_objective_and_grad(episodes, params)
        assert after > before

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidBatch):
            reinforce_objective_and_grad([], tiny_params())


class TestSequenceLogprob:
    def test_equals_both_gradient_routines_exactly(self):
        rng = np.random.default_rng(31)
        for trial in range(12):
            params = tiny_params(seed=trial, f_max=6, k_max=6)
            a = random_adjacency(rng, max_f=6, max_k=6)
            ep = rollout(a, params, mode="sample", seed=trial, use_mask=bool(trial % 2))
            got = sequence_logprob((ep.f, ep.k), ep.edges, ep.choices, params, ep.use_mask)
            assert got == ep.logprob
            assert got == reinforce_objective_and_grad([ep], params)[0] / ep.reward
            pointers = colors_to_pointers(ep.colors)
            got = sequence_logprob((0, 0), ep.edges, pointers, params, False)
            assert got == -supervised_loss([(ep.edges, ep.colors)], params)[0]

    def test_empty_sequence_is_certain(self):
        params = tiny_params()
        assert sequence_logprob((2, 2), (), (), params, True) == 0.0
        # a batch of empty rows costs nothing and moves no parameter
        loss, grads = supervised_loss([((), ()), ((), ())], params)
        assert loss == 0.0 and all(np.all(g == 0.0) for g in grads.values())
        ep = Episode(f=2, k=2, edges=(), choices=(), colors=(), logprob=0.0, reward=1, use_mask=True)
        objective, grads = reinforce_objective_and_grad([ep, ep], params)
        assert objective == 0.0 and all(np.all(g == 0.0) for g in grads.values())

    def test_rejects_pointer_counts_that_differ_from_the_edges(self, monkeypatch):
        monkeypatch.setattr(net, "_Batch", None)  # no forward work may start
        edges = ((0, 0), (1, 1))
        for choices in ((0, 1, 2), (0,)):
            with pytest.raises(BadTarget, match=f"{len(choices)} pointers for 2 edges"):
                sequence_logprob((2, 2), edges, choices, tiny_params(), False)

    @pytest.mark.parametrize("shape, edges, choices", [
        ((2, 2), ((3, 0),), (0,)),              # a cell outside the shape
        ((-1, 2), ((0, 0),), (0,)),             # a negative side
        ((2, 2), ((0, 0), (0, 0)), (0, 1)),     # a repeated cell
        ((2, 2), ((0.5, 0),), (0,)),            # a float row
        ((2, 2), ((0, 0), (1,)), (0, 0)),       # a ragged list
    ])
    def test_masked_rows_must_be_placements(self, monkeypatch, shape, edges, choices):
        params = tiny_params()
        monkeypatch.setattr(net, "_Batch", None)  # no forward work may start
        with pytest.raises(InvalidParameter):
            sequence_logprob(shape, edges, choices, params, True)
        ep = Episode(f=shape[0], k=shape[1], edges=edges, choices=choices,
                     colors=pointer_to_colors(choices), logprob=0.0, reward=1, use_mask=True)
        with pytest.raises(InvalidParameter):
            reinforce_objective_and_grad([ep], params)

    @pytest.mark.parametrize("use_mask, error", [(True, InvalidParameter), (False, VocabularyError)])
    def test_ragged_edge_lists_are_rejected_before_forward_work(self, monkeypatch, use_mask, error):
        # a masked row fails the placement rule before the batch is built;
        # an unmasked one fails while the batch is built, before the forward pass
        monkeypatch.setattr(net, "_Batch" if use_mask else "_run", None)
        params = tiny_params()
        ragged = ((0, 0), (1,))
        with pytest.raises(error):
            sequence_logprob((2, 2), ragged, (0, 0), params, use_mask)
        with pytest.raises(error):
            sequence_logprobs([((2, 2), ((0, 0),), (0,), use_mask),
                               ((2, 2), ragged, (0, 0), use_mask)], params)

    def test_rejects_pointers_off_the_support(self):
        params = tiny_params(seed=1)
        edges = extract_edge_sequence(CROSS)
        for choices in ((0, 2), (1, 1), (0, -1)):
            with pytest.raises(InvalidPointer):
                sequence_logprob((2, 2), edges, choices, params, False)
        # the two cross cells may share a color, but (0, 0) and (1, 0) may not
        a = AdjacencyMatrix(np.array([[True, False], [True, True]]))
        edges = extract_edge_sequence(a)
        assert edges[:2] == ((0, 0), (1, 0))
        with pytest.raises(InvalidPointer):
            sequence_logprob((2, 2), edges, (0, 0, 2), params, True)

    def test_long_sequence_gradients_match_central_differences(self):
        # sequences of 20-40 edges, beyond the six of the acceptance check
        rng = np.random.default_rng(2027)
        for trial, (f, k, n) in enumerate(((5, 5, 20), (6, 6, 30), (7, 7, 40))):
            params = tiny_params(seed=trial, d=2, h=3, f_max=f, k_max=k)
            mask = np.zeros(f * k, dtype=bool)
            mask[rng.choice(f * k, size=n, replace=False)] = True
            a = AdjacencyMatrix(mask.reshape(f, k))
            ep = rollout(a, params, mode="sample", seed=trial, use_mask=trial == 1)
            assert len(ep.edges) == n
            _, grads = reinforce_objective_and_grad([ep], params)

            def fn(vec):
                return ep.reward * sequence_logprob(
                    (f, k), ep.edges, ep.choices, params.unflatten(vec), ep.use_mask
                )

            numeric = oracles.central_difference_grad(fn, params.flatten(), eps=1e-5)
            assert oracles.relative_error(grads_to_vec(params, grads), numeric) < 1e-4


class TestClipGrads:
    def test_scales_to_the_bound(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
        norm = clip_grads(grads, 1.0)
        assert norm == 5.0
        assert np.allclose(grads["a"], [0.6, 0.0])
        assert np.allclose(grads["b"], [[0.8]])
        assert abs(sum(float((g * g).sum()) for g in grads.values()) - 1.0) < 1e-12

    def test_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3, -0.4])}
        norm = clip_grads(grads, 5.0)
        assert norm == 0.5
        assert np.array_equal(grads["a"], [0.3, -0.4])

    def test_zero_gradients_are_a_no_op(self):
        grads = {"a": np.zeros(3)}
        assert clip_grads(grads, 1.0) == 0.0
        assert np.array_equal(grads["a"], np.zeros(3))


class TestInit:
    def test_seed_draws_the_per_gate_blocks_in_order(self):
        d, h = 3, 2
        params = ModelParams.init(ModelConfig(f_max=4, k_max=3, embed_dim=d, hidden_dim=h))
        rng = np.random.default_rng(0)

        def draw(*shape):
            return rng.uniform(-0.5, 0.5, size=shape)

        embed = draw(d, 7)
        blocks = {}
        for gru, m in (("fwd", d), ("bwd", d), ("dec", 2 * h + d)):
            for gate in range(3):
                blocks[gru, "u", gate] = draw(h, m)
                blocks[gru, "w", gate] = draw(h, h)
                blocks[gru, "b", gate] = draw(h)
        rest = [draw(h, 2 * h), draw(h, h), draw(h), draw(d)]

        assert np.array_equal(params.embed, embed)
        for (gru, part, gate), block in blocks.items():
            stacked = getattr(getattr(params, gru), part)
            assert np.array_equal(stacked[gate * h : (gate + 1) * h], block)
        for got, want in zip(
            (params.attn_enc, params.attn_dec, params.attn_v, params.start), rest
        ):
            assert np.array_equal(got, want)


class TestParamsPlumbing:
    def test_tensor_items_follow_the_field_order(self):
        names = [name for name, _ in tiny_params(seed=0).tensor_items()]
        grus = [f"{g}.{part}" for g in ("fwd", "bwd", "dec") for part in "uwb"]
        assert names == ["embed", *grus, "attn_enc", "attn_dec", "attn_v", "start"]

    def test_copy_shares_no_tensor(self):
        params = tiny_params(seed=3)
        twin = params.copy()
        assert twin.config == params.config
        assert np.array_equal(twin.flatten(), params.flatten())
        for (_, a), (_, b) in zip(params.tensor_items(), twin.tensor_items()):
            assert not np.shares_memory(a, b)

    def test_every_tensor_is_a_view_of_one_vector(self):
        params = tiny_params(seed=3)
        assert_views_of_one_vector(params)
        assert_views_of_one_vector(params.copy())
        assert_views_of_one_vector(params.unflatten(params.flatten()))

    def test_unflatten_does_not_alias_its_input(self):
        params = tiny_params(seed=3)
        vec = params.flatten()
        twin = params.unflatten(vec)
        assert not np.shares_memory(vec, twin.vector)
        vec[:] = 0.0
        assert np.array_equal(twin.vector, params.vector)

    def test_unflatten_rejects_a_vector_of_another_shape(self):
        params = tiny_params(seed=3)
        vec = params.flatten()
        for bad in (vec[:-1], np.append(vec, 0.0), vec.reshape(1, -1), vec.reshape(-1, 1)):
            with pytest.raises(DimensionError):
                params.unflatten(bad)

    def test_fields_cannot_be_rebound(self):
        params = tiny_params(seed=3)
        for obj, name in ((params, "embed"), (params, "fwd"), (params, "vector"),
                          (params, "config"), (params.dec, "w")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
        # compared by identity, not by numpy's ambiguous truth value
        assert params == params and params != params.copy()

    def test_train_config_hands_its_widths_to_the_model(self):
        cfg = TrainConfig(f_max=5, k_max=6, embed_dim=3, hidden_dim=4)
        assert cfg.model_config() == ModelConfig(f_max=5, k_max=6, embed_dim=3, hidden_dim=4)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        params = tiny_params(seed=21, d=5, h=3)
        path = tmp_path / "model.json"
        save_checkpoint(path, params, meta={"epoch": 7, "corpus": "mn"})
        loaded, meta = load_checkpoint(path)
        assert loaded.config == params.config
        assert np.array_equal(loaded.flatten(), params.flatten())
        assert meta == {"epoch": 7, "corpus": "mn"}

    def test_reads_version_1_per_gate_tensors(self, tmp_path):
        import json

        params = tiny_params(seed=4, d=3, h=4)
        h = params.config.hidden_dim
        tensors = {}
        for name, t in params.tensor_items():
            if "." in name:
                for gate, label in enumerate(("reset", "update", "cand")):
                    block = t[gate * h : (gate + 1) * h]
                    tensors[f"{name}_{label}"] = {
                        "shape": list(block.shape), "data": block.ravel().tolist()
                    }
            else:
                tensors[name] = {"shape": list(t.shape), "data": t.ravel().tolist()}
        doc = {
            "format": "pdakit-checkpoint",
            "version": 1,
            "config": {"f_max": 4, "k_max": 4, "embed_dim": 3, "hidden_dim": 4},
            "tensors": tensors,
            "meta": {"epoch": 2},
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.flatten(), params.flatten())
        assert meta == {"epoch": 2}

        save_checkpoint(path, loaded)
        saved = json.loads(path.read_text())
        assert saved["version"] == 2
        assert saved["tensors"]["fwd.u"]["shape"] == [12, 3]
        assert not any(name.endswith("_reset") for name in saved["tensors"])

        tensors["fwd.w_update"]["shape"] = [2, 8]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_loaded_tensors_are_views_of_one_vector(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        params = tiny_params(seed=8, d=3, h=4)
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert_views_of_one_vector(loaded)

        doc = json.loads(path.read_text())
        doc["version"] = 1
        for name, t in params.tensor_items():
            if "." in name:
                entry = doc["tensors"].pop(name)
                for gate, label in enumerate(("reset", "update", "cand")):
                    block = t[gate * 4 : (gate + 1) * 4]
                    doc["tensors"][f"{name}_{label}"] = {
                        "shape": list(block.shape), "data": block.ravel().tolist()
                    }
        path.write_text(json.dumps(doc))
        loaded, _ = load_checkpoint(path)
        assert_views_of_one_vector(loaded)
        assert np.array_equal(loaded.vector, params.vector)

    def test_config_beyond_the_tensors_is_rejected_before_allocating(self, tmp_path):
        import json

        # the model this config implies would take terabytes; the file's tensors do not fit it
        path = tmp_path / "model.json"
        save_checkpoint(path, tiny_params(seed=0))
        doc = json.loads(path.read_text())
        doc["config"]["f_max"] = 10**12
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="tensor embed has shape"):
            load_checkpoint(path)

    def test_rejects_non_finite_tensors(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(path, tiny_params(seed=0))
        doc = json.loads(path.read_text())
        for bad, token in ((float("nan"), "NaN"), (float("-inf"), "-Infinity")):
            broken = json.loads(json.dumps(doc))
            broken["tensors"]["start"]["data"][0] = bad
            path.write_text(json.dumps(broken))
            assert token in path.read_text()
            with pytest.raises(ParseError, match="non-finite"):
                load_checkpoint(path)

    def test_config_values_must_be_json_integers(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(path, tiny_params(seed=0, h=4))
        doc = json.loads(path.read_text())
        assert doc["config"]["hidden_dim"] == 4
        for bad in (4.7, 4.0, "4", True):
            broken = json.loads(json.dumps(doc))
            broken["config"]["hidden_dim"] = bad
            path.write_text(json.dumps(broken))
            with pytest.raises(ParseError, match="hidden_dim"):
                load_checkpoint(path)

    def test_rejects_foreign_and_broken_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_checkpoint(path)
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(ParseError):
            load_checkpoint(path)
        for version in ("99", "0", "3", '"2"', "null", "true"):
            path.write_text(f'{{"format": "pdakit-checkpoint", "version": {version}}}\n')
            with pytest.raises(ParseError, match="unsupported checkpoint version"):
                load_checkpoint(path)
        for text in ('[1, 2]\n', '{"format": "pdakit-checkpoint", "version": 2, "config": []}\n'):
            path.write_text(text)
            with pytest.raises(ParseError):
                load_checkpoint(path)

    def test_rejects_missing_and_misshapen_tensors(self, tmp_path):
        import json

        params = tiny_params(seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())

        broken = dict(doc)
        broken["tensors"] = {k: v for k, v in doc["tensors"].items() if k != "attn_v"}
        path.write_text(json.dumps(broken))
        with pytest.raises(ParseError):
            load_checkpoint(path)

        broken = json.loads(json.dumps(doc))
        broken["tensors"]["start"]["shape"] = [1]
        path.write_text(json.dumps(broken))
        with pytest.raises(ParseError):
            load_checkpoint(path)


class TestTrain:
    def one_pair_config(self, **overrides):
        base = dict(
            f_max=4, k_max=4, embed_dim=4, hidden_dim=8,
            supervised_epochs=40, reinforce_epochs=0,
            batch_size=4, learning_rate=0.5, seed=0,
        )
        base.update(overrides)
        return TrainConfig(**base)

    def test_loss_drops_and_the_sample_is_learned(self):
        pairs = [training_pair_from_pda(construct_mn_pda(3, 1))]
        params, rows = train(pairs, self.one_pair_config())
        assert rows[0].phase == "init"
        assert rows[-1].loss < 0.25 * rows[0].loss
        assert rows[-1].valid_rate == 1.0
        assert params.all_finite()
        ep = rollout(pairs[0].adjacency(), params, mode="greedy", use_mask=False)
        assert ep.reward == 1

    def test_same_seed_reproduces_everything_but_timing(self):
        pairs = [
            training_pair_from_pda(construct_mn_pda(3, 1)),
            training_pair_from_pda(construct_mn_pda(3, 2)),
        ]
        cfg = self.one_pair_config(supervised_epochs=5, reinforce_epochs=3)
        params_a, rows_a = train(pairs, cfg)
        params_b, rows_b = train(pairs, cfg)
        assert np.array_equal(params_a.flatten(), params_b.flatten())
        strip = lambda r: (r.epoch, r.phase, r.loss, r.mean_reward, r.valid_rate)
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    def test_phase_schedule_is_logged(self):
        pairs = [training_pair_from_pda(construct_mn_pda(3, 1))]
        cfg = self.one_pair_config(supervised_epochs=4, reinforce_epochs=2)
        _, rows = train(pairs, cfg)
        assert [r.phase for r in rows] == ["init"] + ["supervised"] * 4 + ["reinforce"] * 2
        assert [r.epoch for r in rows] == list(range(7))
        for r in rows:
            assert -1.0 <= r.mean_reward <= 1.0
            assert 0.0 <= r.valid_rate <= 1.0

    def test_eval_pairs_drive_the_valid_rate_column(self):
        train_pairs = [training_pair_from_pda(construct_mn_pda(3, 1))]
        held_out = [training_pair_from_pda(construct_mn_pda(3, 2))]
        cfg = self.one_pair_config(supervised_epochs=2)
        _, rows = train(train_pairs, cfg, eval_pairs=held_out)
        assert rows[0].valid_rate == greedy_valid_rate(
            held_out, ModelParams.init(cfg.model_config(), seed=cfg.seed)
        )

    def test_divergence_aborts_with_last_good_checkpoint(self):
        pairs = [training_pair_from_pda(construct_mn_pda(3, 1))]
        cfg = self.one_pair_config(learning_rate=1e300, supervised_epochs=3)
        with pytest.raises(DivergenceError) as info:
            with np.errstate(all="ignore"):
                train(pairs, cfg)
        assert info.value.checkpoint is not None
        assert info.value.checkpoint.all_finite()

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidParameter):
            train([], self.one_pair_config())

    @pytest.mark.parametrize("clip_norm", [0.0, -1.0, float("nan")])
    def test_clip_norm_must_be_positive(self, clip_norm):
        # A negative bound would flip every clipped gradient.
        with pytest.raises(InvalidParameter, match="clip_norm"):
            self.one_pair_config(clip_norm=clip_norm)

    @pytest.mark.parametrize("name", ["learning_rate", "reinforce_learning_rate"])
    @pytest.mark.parametrize("rate", [0.0, -0.5, float("nan"), float("inf")])
    def test_learning_rates_must_be_finite_and_positive(self, name, rate):
        # A negative rate ascends the loss; nan and inf only fail after an epoch.
        with pytest.raises(InvalidParameter, match=f"{name} must be finite and > 0"):
            self.one_pair_config(**{name: rate})

    def test_log_csv_round_trips_through_csv_reader(self, tmp_path):
        import csv

        pairs = [training_pair_from_pda(construct_mn_pda(3, 1))]
        _, rows = train(pairs, self.one_pair_config(supervised_epochs=2))
        path = tmp_path / "log.csv"
        write_log_csv(path, rows)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == len(rows)
        for record, row in zip(records, rows):
            assert int(record["epoch"]) == row.epoch
            assert record["phase"] == row.phase
            assert float(record["loss"]) == pytest.approx(row.loss, rel=1e-9)

    def test_greedy_valid_rate_of_nothing_is_zero(self):
        assert greedy_valid_rate([], tiny_params()) == 0.0


def random_canonical_colors(rng, n):
    """A canonical color sequence: each new color is the next integer."""
    colors = []
    for _ in range(n):
        if colors and rng.random() < 0.6:
            colors.append(colors[int(rng.integers(len(colors)))])
        else:
            colors.append(max(colors, default=0) + 1)
    return tuple(colors)


def mixed_placements(rng, count, max_f=6, max_k=6):
    """Placements of mixed sizes, one of them empty now and then."""
    out = []
    for _ in range(count):
        f, k = int(rng.integers(1, max_f + 1)), int(rng.integers(1, max_k + 1))
        out.append(AdjacencyMatrix(rng.random((f, k)) < rng.uniform(0.0, 1.0)))
    return out


def weighted_oracle(params, rows, weights):
    """Per-row oracle log probabilities and the weighted sum of their gradients."""
    logps, total = [], None
    for (edges, choices, use_mask), w in zip(rows, weights):
        logp, grads = oracles.oracle_sequence_grads(params, edges, choices, use_mask)
        logps.append(logp)
        total = {n: w * g for n, g in grads.items()} if total is None else \
            {n: total[n] + w * g for n, g in grads.items()}
    return np.array(logps), total


def assert_grads_close(got, want, tol=1e-12):
    assert set(got) == set(want)
    for name in want:
        assert np.max(np.abs(got[name] - want[name]), initial=0.0) <= tol, name


class TestBatchedEngine:
    """One padded B x L pass against the per-sequence reference and B=1 calls."""

    def test_matches_the_per_sequence_reference(self):
        rng = np.random.default_rng(8)
        for trial in range(12):
            params = tiny_params(seed=trial, d=int(rng.integers(1, 6)), h=int(rng.integers(1, 6)),
                                 f_max=6, k_max=6)
            adjs = mixed_placements(rng, int(rng.integers(1, 7)))
            # reinforce: sampled episodes, masked and unmasked rows in one batch
            episodes = [
                rollout(a, params, mode="sample", seed=int(rng.integers(1000)),
                        use_mask=bool(rng.random() < 0.5))
                for a in adjs
            ]
            w = 1.0 / len(episodes)
            rows = [(ep.edges, ep.choices, ep.use_mask) for ep in episodes]
            logps, want = weighted_oracle(params, rows, [w * ep.reward for ep in episodes])
            objective, grads = reinforce_objective_and_grad(episodes, params)
            got = sequence_logprobs([((ep.f, ep.k), *row) for ep, row in zip(episodes, rows)],
                                    params)
            assert np.max(np.abs(got - logps)) <= 1e-12
            assert abs(objective - sum(w * ep.reward * lp for ep, lp in zip(episodes, logps))) <= 1e-12
            assert_grads_close(grads, want)
            # supervised: canonical targets on the same placements
            batch = []
            for ep in episodes:
                colors = random_canonical_colors(rng, len(ep.edges))
                batch.append((ep.edges, colors))
            rows = [(e, tuple(c.index(x) for x in c), False) for e, c in batch]
            logps, want = weighted_oracle(params, rows, [-1.0 / len(batch)] * len(batch))
            loss, grads = supervised_loss(batch, params)
            assert abs(loss + logps.mean()) <= 1e-12
            assert_grads_close(grads, want)

    def test_padding_is_never_read(self, monkeypatch):
        rng = np.random.default_rng(9)
        params = tiny_params(seed=3, d=3, h=4, f_max=6, k_max=6)
        adjs = mixed_placements(rng, 6)
        seeds = list(range(len(adjs)))

        def run_everything():
            out = {}
            for mode in ("greedy", "sample"):
                for use_mask in (False, True):
                    out[mode, use_mask] = rollout_batch(adjs, params, mode, seeds, use_mask)
            episodes = out["sample", False][:3] + out["sample", True][3:]
            out["reinforce"] = reinforce_objective_and_grad(episodes, params)
            out["supervised"] = supervised_loss([(ep.edges, ep.colors) for ep in episodes], params)
            return out

        clean = run_everything()
        monkeypatch.setattr(net, "_PAD", np.nan)
        dirty = run_everything()
        for key in clean:
            if key in ("reinforce", "supervised"):
                (a, ga), (b, gb) = clean[key], dirty[key]
                assert a == b and np.isfinite(b)
                assert all(np.array_equal(ga[n], gb[n]) for n in ga)
            else:
                assert clean[key] == dirty[key]

    def test_batched_rollouts_match_single_rollouts(self):
        rng = np.random.default_rng(10)
        for trial in range(6):
            params = tiny_params(seed=trial, d=3, h=5, f_max=7, k_max=7)
            adjs = mixed_placements(rng, 8, max_f=7, max_k=7)
            seeds = [[trial, 7, i] for i in range(len(adjs))]
            for mode in ("greedy", "sample"):
                for use_mask in (False, True):
                    batched = rollout_batch(adjs, params, mode, seeds, use_mask)
                    for a, seed, ep in zip(adjs, seeds, batched):
                        one = rollout(a, params, mode, seed, use_mask)
                        assert (ep.edges, ep.choices, ep.colors, ep.reward) == \
                            (one.edges, one.choices, one.colors, one.reward)
                        assert abs(ep.logprob - one.logprob) <= 1e-12
