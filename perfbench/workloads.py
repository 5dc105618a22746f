"""The benchmark's three workloads: color, train and simulate.

Each workload mirrors one pdakit command and calls the same library
functions in the same order, through the module attributes so a traced
run sees every call:

  color     `pdakit pipeline` up to its simulation step, greedy and neural
  train     `pdakit augment` then `pdakit train`
  simulate  `pdakit construct`/`pipeline` output, served by `pdakit simulate`

A workload has four phases.  generate() makes the inputs from the seed,
the way a user would make them with other commands; prepare() is the
program's own set-up plus one warm-up op; run() is the timed phase; and
quality() scores the outputs afterwards.  Only prepare() and run() are
traced.  Every output is checked with the independent checks in
checks.py, outside the time of the op that produced it.

Reported times are scaled to a reference machine speed; raw times go
to the progress line.  On a shared host one core's speed drifts by up
to half for seconds at a time as other tenants load it, which moves
every raw time with it.  A fixed probe kernel is timed before and after
each op (or each train() call), and an op's scaled time is its raw time
times REF_PROBE_MS over the mean of those two probe times.  The probe
is benchmark code, so no change to pdakit moves it.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
from pdakit import cachesim, graph, pda, seqcodec
from pdakit.neural import net
from pdakit.neural import params as nparams

ntrain = importlib.import_module("pdakit.neural.train")

# Ops of a cycle-based run: at least this many, so ten lie beyond p90.
MIN_OPS = 100

# Typical probe time, in ms, on the 2-vCPU Xeon (KVM) host the bounds were set on.
REF_PROBE_MS = 0.25

CYCLIC_F, CYCLIC_Z = 16, 12


def _kernel():
    t0 = time.perf_counter()
    x = 0
    for i in range(1500):
        x += i * i
    a = np.arange(64)
    for _ in range(40):
        a = (a * 3 + 1) & 1023
    return time.perf_counter() - t0


def probe(repeats=3):
    """Machine speed now: the median time of a fixed Python and numpy kernel, in ms."""
    return sorted(_kernel() for _ in range(repeats))[repeats // 2] * 1000.0


def to_reference(ms, before, after):
    """A time measured between two probes, scaled to the reference speed."""
    return ms * REF_PROBE_MS * 2.0 / (before + after)


@dataclass
class Timing:
    op_ms: list            # one duration per op, in ms
    scaled_ms: list        # the same, scaled to the reference speed
    units: int             # what ops_per_s counts
    failed: int            # ops whose output failed its check
    scaled_busy_ms: float  # time the timed phase took, scaled


def mn_shape(k, t):
    return k, math.comb(k, t), math.comb(k - 1, t - 1)


def cyclic_shape(edges):
    return edges // (CYCLIC_F - CYCLIC_Z), CYCLIC_F, CYCLIC_Z


def uncolored_graph(adj):
    """The placement's edges with no color, as `pdakit pipeline` builds them."""
    return graph.BipartiteColoredGraph(
        k=adj.k, f=adj.f,
        edges=tuple((int(j), int(i), None) for i, j in np.argwhere(adj.mask)),
    )


def _report_failure(what):
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def cycle_loop(workload, seconds, tracer=None, min_ops=MIN_OPS):
    """Run the workload's ops in order, whole cycles, until time and count are met.

    Closed loop with one client: each op starts when the previous one,
    and the check of its output, has finished.
    """
    times, speeds, failed = [], [probe()], 0
    start = time.perf_counter()
    while True:
        for i in range(len(workload.ops)):
            request = workload.request(i)
            if tracer is not None:
                tracer.op = len(times)
            t0 = time.perf_counter()
            try:
                out = workload.op(i, request)
            except Exception:
                out = None
                _report_failure(workload.ops[i])
            times.append(time.perf_counter() - t0)
            if out is None or not workload.check(i, request, out):
                failed += 1
            out = None
            speeds.append(probe())
        if time.perf_counter() - start >= seconds and len(times) >= min_ops:
            break
    op_ms = [t * 1000.0 for t in times]
    scaled = [to_reference(t, a, b) for t, a, b in zip(op_ms, speeds, speeds[1:])]
    return Timing(op_ms, scaled, len(times), failed, sum(scaled))


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


class Color:
    """Fixed placements colored end to end, greedy and neural ops alternating.

    Two families: t-subset placements up to MN(12,6) (F=924, E=5544), and
    cyclic F=16, Z=12 placements up to E=4096, where the pointer network
    decodes its longest sequences.  The seed draws the greedy orders; the
    pointer network keeps the seed-0 initial weights, so its decoding
    work is the same for every seed.
    """

    MN = ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4), (10, 5), (12, 6))
    CYCLIC = (64, 128, 256, 512, 1024, 2048, 4096)
    SMOKE_MN = ((4, 2), (5, 2))
    SMOKE_CYCLIC = (64,)
    WARM_UP_EDGES = 256
    HIDDEN = 8

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.min_ops = 1 if smoke else MIN_OPS
        mn, cyclic = (self.SMOKE_MN, self.SMOKE_CYCLIC) if smoke else (self.MN, self.CYCLIC)
        self.shapes = [mn_shape(k, t) for k, t in mn] + [cyclic_shape(e) for e in cyclic]
        self.ops = [(s, colorer) for s in range(len(self.shapes)) for colorer in ("greedy", "neural")]
        self.loads = {"greedy": [], "neural": []}
        self.nll = []

    def provenance(self):
        return {
            "placements_kfz": self.shapes,
            "colorers": ["greedy order=random", f"neural masked greedy h={self.HIDDEN} seeded init"],
        }

    def generate(self):
        self.stars = [checks.expected_stars(*shape) for shape in self.shapes]

    def prepare(self):
        f_max = max(f for _, f, _ in self.shapes)
        k_max = max(k for k, _, _ in self.shapes)
        self.params = nparams.ModelParams.init(
            nparams.ModelConfig(f_max=f_max, k_max=k_max, embed_dim=self.HIDDEN,
                                hidden_dim=self.HIDDEN),
            seed=0,
        )
        for i, (s, _) in enumerate(self.ops):
            k, f, z = self.shapes[s]
            if k * (f - z) <= self.WARM_UP_EDGES:
                self.op(i, None)

    def request(self, i):
        return None

    def op(self, i, request):
        s, colorer = self.ops[i]
        k, f, z = self.shapes[s]
        op_seed = self.seed * 1000 + s
        pattern = seqcodec.default_star_pattern(k, f, z)
        adj = seqcodec.placement_to_adjacency(z, f, k, pattern)
        if colorer == "greedy":
            colored = graph.greedy_strong_color(uncolored_graph(adj), order="random", seed=op_seed)
            return pda.pda_to_text(graph.graph_to_pda(colored)), None
        ep = net.rollout(adj, self.params, mode="greedy", seed=op_seed, use_mask=True)
        grid = seqcodec.assemble_array(adj, ep.edges, ep.colors)
        if not pda.verify(grid, z=z).valid:
            return None
        return pda.pda_to_text(pda.Pda.from_grid(grid, z=z)), ep

    def check(self, i, request, out):
        s, colorer = self.ops[i]
        k, f, z = self.shapes[s]
        text, ep = out
        slots = checks.text_slots(text, k, f, z, self.stars[s])
        if slots is None:
            return False
        self.loads[colorer].append(slots / f)
        if ep is not None:
            self.nll.append(-ep.logprob / len(ep.edges))
        return True

    def run(self, seconds, tracer=None):
        return cycle_loop(self, seconds, tracer, self.min_ops)

    def quality(self):
        return {
            "greedy_load": _mean(self.loads["greedy"]),
            "neural_load": _mean(self.loads["neural"]),
            "train_nll": _mean(self.nll),
        }, True


class Train:
    """Repeated identical train() calls on a small subsampled corpus, one op per epoch.

    Samples run from 6 to 54 edges, so both short and long sequences go
    through the forward and backward passes.  The training samples and
    the training seed are fixed, so every seed trains the same model; the
    seed draws the held-out placements the model is scored on each epoch
    and afterwards.
    A call of 10 epochs takes under two seconds, short enough for the
    probes around it to follow the machine's speed.
    """

    # (K, t, delta): t-subset source and edges kept per user.
    SAMPLES = ((6, 2, 1), (5, 2, 2), (6, 3, 2), (5, 2, 3), (6, 2, 3), (6, 3, 4),
               (6, 2, 6), (6, 3, 9))
    HOLDOUT = ((5, 2, 4), (6, 2, 5), (6, 3, 7), (6, 2, 8))
    SMOKE_SAMPLES = ((4, 2, 1), (5, 2, 2))
    SMOKE_HOLDOUT = ((4, 2, 2),)
    EPOCHS_PER_CALL = 10
    SUPERVISED_SHARE = 0.7
    PROBE_REPEATS = 15

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.samples = list(self.SMOKE_SAMPLES if smoke else self.SAMPLES)
        self.holdout = list(self.SMOKE_HOLDOUT if smoke else self.HOLDOUT)
        self.aux_ok = True

    def _config(self):
        epochs = 3 if self.smoke else self.EPOCHS_PER_CALL
        supervised = round(self.SUPERVISED_SHARE * epochs)
        return ntrain.TrainConfig(
            f_max=max(p.f for p in self.pairs), k_max=max(p.k for p in self.pairs),
            embed_dim=16, hidden_dim=32,
            supervised_epochs=supervised, reinforce_epochs=epochs - supervised,
            batch_size=4, learning_rate=0.5, reinforce_learning_rate=0.05,
            clip_norm=5.0, seed=0,
        )

    def provenance(self):
        cfg = self._config()
        return {"samples_k_t_delta": self.samples, "holdout_k_t_delta": self.holdout,
                "epochs_per_call": {"supervised": cfg.supervised_epochs,
                                    "reinforce": cfg.reinforce_epochs},
                "model": {"embed_dim": cfg.embed_dim, "hidden_dim": cfg.hidden_dim}}

    def generate(self):
        sources = {(k, t) for k, t, _ in self.samples + self.holdout}
        self.sources = {kt: graph.pda_to_graph(pda.construct_mn_pda(*kt)) for kt in sources}

    def prepare(self):
        fixed, drawn = np.random.default_rng([0, 2026]), np.random.default_rng([self.seed, 2026])
        written = []
        for n, (k, t, delta) in enumerate(self.samples + self.holdout):
            rng = fixed if n < len(self.samples) else drawn
            sub = graph.subsample(self.sources[(k, t)], delta, rng_seed=int(rng.integers(2**63)))
            p = graph.graph_to_pda(sub)
            self.aux_ok &= pda.verify(p.grid, z=p.z).valid
            written.append(seqcodec.training_pair_from_pda(p))
        path = self.workdir / "corpus.jsonl"
        seqcodec.write_corpus(path, written, meta={"seed": self.seed})
        _, pairs = seqcodec.read_corpus(path)
        self.aux_ok &= pairs == written and all(self._slots(p, p.grid().tolist()) for p in pairs)
        self.pairs = pairs
        cut = len(self.samples)
        self.train_pairs, self.eval_pairs = pairs[:cut], pairs[cut:]
        short = min(self.train_pairs, key=lambda p: len(p.edges))
        params = nparams.ModelParams.init(self._config().model_config(), seed=0)
        net.supervised_loss([(short.edges, short.colors)], params)

    @staticmethod
    def _slots(pair, grid):
        """S of an array on the sample's placement, by the independent check, or None."""
        stars = {(i, j) for i in range(pair.f) for j in range(pair.k)} - set(pair.edges)
        return checks.grid_slots(grid, pair.k, pair.f, pair.z, stars)

    def run(self, seconds, tracer=None):
        """Identical train() calls, whole calls, until the time and op count are met.

        Probes bracket each call; epoch 0 of a call scores the untrained
        model, so it counts towards busy time but is not an op.
        """
        cfg = self._config()
        epochs = cfg.supervised_epochs + cfg.reinforce_epochs
        op_ms, scaled, units, failed, scaled_busy = [], [], 0, 0, 0.0
        before = probe(self.PROBE_REPEATS)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            try:
                self.params, rows = ntrain.train(self.train_pairs, cfg, eval_pairs=self.eval_pairs)
                rows = rows[1:]
            except Exception:
                _report_failure("train")
                rows = None
            busy_ms = (time.perf_counter() - t0) * 1000.0
            after = probe(self.PROBE_REPEATS)
            if rows is None:
                ms = [busy_ms / epochs] * epochs
                failed += epochs
            else:
                ms = [float(r.wall_ms) for r in rows]
                failed += sum(1 for r in rows
                              if not (math.isfinite(r.loss) and 0.0 <= r.valid_rate <= 1.0))
                units += len(self.train_pairs) * len(rows)
            op_ms += ms
            scaled += [to_reference(m, before, after) for m in ms]
            scaled_busy += to_reference(busy_ms, before, after)
            before = after
            if self.smoke or (time.perf_counter() - start >= seconds and len(op_ms) >= MIN_OPS):
                break
        return Timing(op_ms, scaled, units, failed, scaled_busy)

    def quality(self):
        """Corpus NLL per step, and S/F of both colorers on every corpus placement."""
        loss, _ = net.supervised_loss([(p.edges, p.colors) for p in self.pairs], self.params)
        nll = loss * len(self.pairs) / sum(len(p.edges) for p in self.pairs)
        ok = self.aux_ok and math.isfinite(nll)
        loads = {"greedy_load": [], "neural_load": []}
        for n, pair in enumerate(self.pairs):
            adj = pair.adjacency()
            ep = net.rollout(adj, self.params, mode="greedy", use_mask=True)
            colored = graph.greedy_strong_color(uncolored_graph(adj), order="random", seed=n)
            for name, grid in (("neural_load", seqcodec.assemble_array(adj, ep.edges, ep.colors)),
                               ("greedy_load", graph.graph_to_pda(colored).grid)):
                slots = self._slots(pair, grid.tolist())
                ok &= slots is not None
                loads[name].append((slots or 0) / pair.f)
        return {name: _mean(v) for name, v in loads.items()} | {"train_nll": nll}, ok


class Simulate:
    """Demand rounds through run_round over fixed arrays at two packet sizes.

    Three array families with different slot shapes: t-subset arrays (few
    slots, t+1 cells each), greedy-colored arrays (more slots, fewer cells
    each) and arrays from the seeded-init pointer colorer (the most slots
    per row).  64 B packets expose per-packet overhead, 4096 B the XOR
    bytes moved.  The library holds N = K+1 files, as `pdakit simulate`
    defaults to.
    """

    MN = ((6, 3), (8, 4), (10, 5), (12, 6))
    GREEDY = ((8, 70, 35), (10, 252, 126), (64, 16, 12))
    NEURAL = ((16, 16, 12), (64, 16, 12))
    PACKET_SIZES = (64, 4096)
    SMOKE_MN = ((4, 2), (5, 2))
    SMOKE_GREEDY = ((16, 16, 12),)
    SMOKE_NEURAL = ((16, 16, 12),)
    SMOKE_PACKET_SIZES = (64, 512)
    HIDDEN = 8

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.workdir = workdir
        self.min_ops = 1 if smoke else MIN_OPS
        if smoke:
            self.mn, self.greedy, self.neural = self.SMOKE_MN, self.SMOKE_GREEDY, self.SMOKE_NEURAL
            self.sizes = self.SMOKE_PACKET_SIZES
        else:
            self.mn, self.greedy, self.neural = self.MN, self.GREEDY, self.NEURAL
            self.sizes = self.PACKET_SIZES
        self.loads = {"greedy": [], "neural": []}
        self.aux_ok = True

    def provenance(self):
        return {"mn_k_t": self.mn, "greedy_kfz": self.greedy, "neural_kfz": self.neural,
                "packet_sizes": self.sizes, "files": "K+1"}

    def generate(self):
        """Write the arrays as text files, as `pdakit construct` and `pipeline` do.

        The arrays do not depend on the seed, so every seed serves the same
        slot structure; the seed draws the library contents and demands.
        """
        arrays = [("mn", pda.construct_mn_pda(k, t)) for k, t in self.mn]
        for n, (k, f, z) in enumerate(self.greedy):
            adj = seqcodec.placement_to_adjacency(z, f, k, seqcodec.default_star_pattern(k, f, z))
            colored = graph.greedy_strong_color(uncolored_graph(adj), order="random", seed=n)
            arrays.append(("greedy", graph.graph_to_pda(colored)))
        params = nparams.ModelParams.init(
            nparams.ModelConfig(f_max=max(f for _, f, _ in self.neural),
                                k_max=max(k for k, _, _ in self.neural),
                                embed_dim=self.HIDDEN, hidden_dim=self.HIDDEN),
            seed=0,
        )
        self.nll = []
        for k, f, z in self.neural:
            adj = seqcodec.placement_to_adjacency(z, f, k, seqcodec.default_star_pattern(k, f, z))
            ep = net.rollout(adj, params, mode="greedy", use_mask=True)
            self.nll.append(-ep.logprob / len(ep.edges))
            arrays.append(("neural", pda.Pda.from_grid(seqcodec.assemble_array(adj, ep.edges, ep.colors), z=z)))
        self.files = []
        for n, (family, p) in enumerate(arrays):
            path = self.workdir / f"{family}-{n}.pda"
            path.write_text(pda.pda_to_text(p))
            self.files.append((family, path, p.grid.tolist()))

    def prepare(self):
        self.arrays = []
        for family, path, grid in self.files:
            p = pda.pda_from_text(path.read_text())
            self.aux_ok &= p.grid.tolist() == grid and checks.grid_slots(grid, p.k, p.f, p.z) == p.s
            self.arrays.append((family, p))
        self.libs = {}
        self.ops = []
        for a, (_, p) in enumerate(self.arrays):
            for size in self.sizes:
                self.libs[(a, size)] = cachesim.FileLibrary.random(
                    p.k + 1, p.f, packet_size=size, seed=self.seed * 1000 + a)
                self.ops.append((a, size))
        self.demands = np.random.default_rng([self.seed, 3])
        self.op(0, self.request(0))

    def request(self, i):
        p = self.arrays[self.ops[i][0]][1]
        return tuple(int(x) for x in self.demands.integers(1, p.k + 2, size=p.k))

    def op(self, i, demand):
        a, size = self.ops[i]
        return cachesim.run_round(self.arrays[a][1], self.libs[(a, size)], demand)

    def check(self, i, demand, result):
        a, size = self.ops[i]
        family, p = self.arrays[a]
        if not checks.round_ok(result.decoded, self.libs[(a, size)].packets, demand):
            return False
        if family in self.loads:
            self.loads[family].append(result.transcript.packets_sent / p.f)
        return True

    def run(self, seconds, tracer=None):
        return cycle_loop(self, seconds, tracer, self.min_ops)

    def quality(self):
        return {
            "greedy_load": _mean(self.loads["greedy"]),
            "neural_load": _mean(self.loads["neural"]),
            "train_nll": _mean(self.nll),
        }, self.aux_ok


WORKLOADS = {"color": Color, "train": Train, "simulate": Simulate}
