"""Acceptance gate: one test per criterion, each printing a pass line.

Every criterion runs at its stated tolerance and time budget.  The tests
lean on the independent oracles in oracles.py rather than the library's
own checks wherever the criterion demands agreement between two routes.
"""

import csv
import itertools
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from pdakit import cli
from pdakit.cachesim import DemandVector, FileLibrary, measure, run_round
from pdakit.graph import (
    _grid_to_graph,
    graph_to_json,
    graph_to_pda,
    is_strong_coloring,
    pda_to_graph,
    subsample,
)
from pdakit.neural import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    colors_to_pointers,
    decode_step,
    greedy_valid_rate,
    reinforce_objective_and_grad,
    rollout,
    sequence_logprob,
    supervised_loss,
    train,
)
from pdakit.pda import Pda, construct_mn_pda, verify
from pdakit.seqcodec import (
    AdjacencyMatrix,
    default_star_pattern,
    extract_edge_sequence,
    placement_to_adjacency,
    training_pair_from_pda,
)

import oracles

GOLDEN = Path(__file__).parent / "golden"


def report(line):
    print(f"PASS {line}")


def test_1_verifier_matches_brute_force_oracle():
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(10_000):
        grid = oracles.random_grid(rng)
        if verify(grid).valid != oracles.oracle_verify(grid):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 10.0
    report(f"criterion 1: verifier == oracle on 10,000 grids, 0 disagreements, {elapsed:.1f}s")


def test_2_graph_round_trip_and_duality():
    checked = 0
    for k in range(2, 9):
        for t in range(1, k):
            p = construct_mn_pda(k, t)
            assert graph_to_pda(pda_to_graph(p)) == p
            checked += 1

    sources = []
    for k, t in ((4, 1), (4, 2), (5, 2), (6, 1), (6, 3)):
        p = construct_mn_pda(k, t)
        g = pda_to_graph(p)
        sources.extend((g, d) for d in range(1, p.f - p.z))
    rng = np.random.default_rng(2)
    for n in range(1_000):
        g, delta = sources[n % len(sources)]
        sub = subsample(g, delta, rng_seed=n)
        p = graph_to_pda(sub)
        assert graph_to_pda(pda_to_graph(p)) == p
        assert is_strong_coloring(pda_to_graph(p))
        assert verify(p.grid, z=p.z).valid
        # mutate one integer cell; the two validity routes must still agree
        grid = p.grid.copy()
        cells = np.argwhere(grid != 0)
        i, j = cells[int(rng.integers(len(cells)))]
        grid[i, j] = int(rng.integers(1, grid.max() + 2))
        dual = _grid_to_graph(grid)
        dual_valid = len(set(dual.k_degrees())) <= 1 and is_strong_coloring(dual)
        assert verify(grid).valid == dual_valid
    report(f"criterion 2: {checked} subset arrays + 1,000 augmented round trips, duality holds")


def test_3_subsampling_always_yields_valid_arrays():
    sources = []
    for k, t in ((4, 1), (4, 2), (5, 1), (5, 2), (6, 2)):
        p = construct_mn_pda(k, t)
        g = pda_to_graph(p)
        sources.extend((g, d) for d in range(1, p.f - p.z))
    for n in range(1_000):
        g, delta = sources[n % len(sources)]
        p = graph_to_pda(subsample(g, delta, rng_seed=10_000 + n))
        assert oracles.oracle_verify(p.grid.tolist())
    report("criterion 3: 1,000 seeded subsamplings all verify, 0 failures")


def test_4_every_demand_decodes_bit_exactly():
    systems = [(2, 1, 2), (3, 1, 3), (3, 2, 3), (4, 2, 4)]
    t0 = time.perf_counter()
    rounds = 0
    for k, t, n in systems:
        p = construct_mn_pda(k, t)
        lib = FileLibrary.random(n, p.f, packet_size=32, seed=11)
        for d in itertools.product(range(1, n + 1), repeat=k):
            result = run_round(p, lib, DemandVector(d))
            assert result.all_ok
            for user, want in enumerate(d):
                assert result.decoded[user] == lib.file_bytes(want)
            assert result.transcript.packets_sent == p.s
            rounds += 1
        rep = measure(p, trials=5, seed=3, n_files=n)
        assert rep.delivery_rate == Fraction(p.s, p.f)
        assert rep.uncoded_rate == k * (1 - Fraction(p.z, p.f))
        assert rep.all_decoded
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(f"criterion 4: {rounds} exhaustive demand rounds decoded bit-exactly, {elapsed:.1f}s")


def _random_small_instance(rng):
    f = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    length = int(rng.integers(2, min(6, f * k) + 1))
    cells = rng.choice(f * k, size=length, replace=False)
    mask = np.zeros((f, k), dtype=bool)
    mask[cells // k, cells % k] = True
    return AdjacencyMatrix(mask)


def test_5_gradients_match_finite_differences():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(50):
        h = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        params = ModelParams.init(
            ModelConfig(f_max=4, k_max=4, embed_dim=d, hidden_dim=h),
            seed=int(rng.integers(10_000)),
        )
        a = _random_small_instance(rng)
        edges = extract_edge_sequence(a)
        if trial % 2 == 0:
            seqs = list(oracles.canonical_color_sequences(len(edges)))
            colors = seqs[int(rng.integers(len(seqs)))]
            _, grads = supervised_loss([(edges, colors)], params)
            choices = colors_to_pointers(colors)

            # forward-only probes; test_neural.py checks they equal the losses exactly
            def fn(vec):
                return -sequence_logprob((0, 0), edges, choices, params.unflatten(vec), False)
        else:
            ep = rollout(a, params, mode="sample",
                         seed=int(rng.integers(10_000)), use_mask=bool(trial % 4 == 1))
            _, grads = reinforce_objective_and_grad([ep], params)

            def fn(vec):
                return ep.reward * sequence_logprob(
                    (ep.f, ep.k), ep.edges, ep.choices, params.unflatten(vec), ep.use_mask
                )

        analytic = np.concatenate([grads[n].ravel() for n, _ in params.tensor_items()])
        numeric = oracles.central_difference_grad(fn, params.flatten(), eps=1e-5)
        err = oracles.relative_error(analytic, numeric)
        worst = max(worst, err)
        assert err < 1e-4

    for _ in range(100):
        h = int(rng.integers(1, 9))
        params = ModelParams.init(
            ModelConfig(f_max=4, k_max=4, embed_dim=3, hidden_dim=h),
            seed=int(rng.integers(10_000)),
        )
        length = int(rng.integers(1, 9))
        states = rng.normal(size=(length, 2 * h)) * 4.0
        mask = rng.random(length) < 0.5
        if not mask.any():
            mask[int(rng.integers(length))] = True
        p = decode_step(states, rng.normal(size=h), mask, params)
        assert abs(p.sum() - 1.0) <= 1e-9
    report(f"criterion 5: 50 gradient checks < 1e-4 (worst {worst:.2e}), 100 softmax sums exact")


def _augmented_corpus():
    pairs = {}
    for k, t in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        p = construct_mn_pda(k, t)
        pair = training_pair_from_pda(p)
        if len(pair.edges) <= 12:
            pairs[(pair.k, pair.f, pair.z, pair.edges, pair.colors)] = pair
        g = pda_to_graph(p)
        for delta in range(1, p.f - p.z):
            for seed in range(40):
                sub = subsample(g, delta, rng_seed=seed)
                spair = training_pair_from_pda(graph_to_pda(sub))
                if len(spair.edges) <= 12:
                    key = (spair.k, spair.f, spair.z, spair.edges, spair.colors)
                    pairs[key] = spair
    return list(pairs.values())


def test_6_training_reaches_the_validity_bar():
    corpus = _augmented_corpus()
    assert all(len(p.edges) <= 12 for p in corpus)
    order = np.random.default_rng(20260814).permutation(len(corpus))
    cut = int(0.8 * len(corpus))
    train_pairs = [corpus[i] for i in order[:cut]]
    held_out = [corpus[i] for i in order[cut:]]

    cfg = TrainConfig(f_max=6, k_max=4, embed_dim=16, hidden_dim=32,
                      supervised_epochs=100, reinforce_epochs=30,
                      batch_size=16, learning_rate=0.5,
                      reinforce_learning_rate=0.05, seed=0)
    t0 = time.perf_counter()
    params, rows = train(train_pairs, cfg, eval_pairs=held_out)
    elapsed = time.perf_counter() - t0
    assert rows[-1].epoch <= 200
    assert elapsed < 600.0

    epoch0 = rows[0].valid_rate
    unmasked = greedy_valid_rate(held_out, params, use_mask=False)
    assert unmasked >= 0.60
    assert unmasked > epoch0

    exhaustively_checked = 0
    for pair in held_out:
        a = pair.adjacency()
        if len(pair.edges) <= 8:
            assert oracles.oracle_valid_colorings(a.f, a.k, extract_edge_sequence(a))
            exhaustively_checked += 1
        ep = rollout(a, params, mode="greedy", use_mask=True)
        assert ep.reward == 1
    report(
        f"criterion 6: held-out valid rate {unmasked:.2f} >= 0.60 (epoch 0: {epoch0:.2f}), "
        f"mask-on 100% of {len(held_out)} ({exhaustively_checked} exhaustively confirmed "
        f"completable), {rows[-1].epoch} epochs in {elapsed:.0f}s"
    )


def test_7_neural_inference_scales_below_greedy():
    from pdakit.graph import BipartiteColoredGraph, greedy_strong_color

    f, z = 16, 12
    params = ModelParams.init(
        ModelConfig(f_max=f, k_max=1024, embed_dim=8, hidden_dim=8), seed=0
    )
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    t0 = time.perf_counter()
    greedy_ms, neural_ms = [], []
    for edges_n in sizes:
        k = edges_n // (f - z)
        a = placement_to_adjacency(z, f, k, default_star_pattern(k, f, z))
        g = BipartiteColoredGraph(
            k=k, f=f,
            edges=tuple((int(j), int(i), None) for i, j in np.argwhere(a.mask)),
        )
        best_g = best_n = float("inf")
        for _ in range(2 if edges_n <= 512 else 1):
            t1 = time.perf_counter()
            greedy_strong_color(g, order="lex")
            best_g = min(best_g, time.perf_counter() - t1)
            t1 = time.perf_counter()
            ep = rollout(a, params, mode="greedy", use_mask=True)
            best_n = min(best_n, time.perf_counter() - t1)
        assert ep.reward == 1
        greedy_ms.append(best_g * 1000)
        neural_ms.append(best_n * 1000)
    elapsed = time.perf_counter() - t0
    log_e = np.log(sizes)
    greedy_exp = float(np.polyfit(log_e, np.log(greedy_ms), 1)[0])
    neural_exp = float(np.polyfit(log_e, np.log(neural_ms), 1)[0])
    assert neural_exp < 1.3
    assert greedy_exp > neural_exp
    assert elapsed < 300.0
    report(
        f"criterion 7: exponents greedy {greedy_exp:.2f} > neural {neural_exp:.2f} < 1.3, "
        f"{elapsed:.0f}s"
    )


def _run_generators(base: Path):
    base.mkdir(parents=True, exist_ok=True)
    assert cli.main(["construct", "--users", "4", "--t", "2",
                     "--out", str(base / "construct_mn42.pda")]) == 0
    doc = graph_to_json(pda_to_graph(construct_mn_pda(3, 1)),
                        meta={"source": "construct 3,1"})
    (base / "graph_mn31.json").write_text(doc)
    assert cli.main(["augment", "--source", "4,1", "--source", "4,2",
                     "--count", "12", "--seed", "20260814",
                     "--out", str(base / "corpus.jsonl")]) == 0
    assert cli.main(["train", "--corpus", str(base / "corpus.jsonl"),
                     "--checkpoint", str(base / "ckpt.json"),
                     "--log", str(base / "train_log.csv"),
                     "--embed-dim", "6", "--hidden-dim", "8",
                     "--epochs", "3", "--reinforce-epochs", "1",
                     "--batch-size", "8", "--seed", "5"]) == 0


def _log_without_timing(path: Path):
    with open(path, newline="") as fh:
        return [row[:-1] for row in csv.reader(fh)]


def test_8_artifact_formats_are_frozen(tmp_path):
    runs = [tmp_path / "run_a", tmp_path / "run_b"]
    for base in runs:
        _run_generators(base)

    byte_stable = ["construct_mn42.pda", "graph_mn31.json", "corpus.jsonl"]
    for name in byte_stable:
        a, b = (base / name for base in runs)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == (GOLDEN / name).read_bytes()
    # wall_ms is real clock time, so the log is compared with it masked
    assert _log_without_timing(runs[0] / "train_log.csv") == \
        _log_without_timing(runs[1] / "train_log.csv")
    assert _log_without_timing(runs[0] / "train_log.csv") == \
        _log_without_timing(GOLDEN / "train_log.csv")
    report("criterion 8: artifact bytes stable across runs and equal to the checked-in goldens")
