"""Command line front end.

Subcommands cover the whole pipeline: construct and verify arrays, build
training corpora by subsampling, train the colorer, color fresh
placements (greedy or neural), simulate a delivery round, and benchmark
both colorers across problem sizes.

Exit codes are a stable contract: 0 success, 1 domain failure (an array
that does not validate), 2 input or parse error, 3 training failure.
Every artifact embeds the seed and parameters that produced it, so runs
are reproducible from the files alone.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import MISSING, fields

import numpy as np

from .cachesim import DemandVector, FileLibrary, measure, run_round, transcript_to_json, write_trace_csv
from .errors import DivergenceError, InvalidParameter, InvalidPda, ParseError, PdakitError, read_text
from .graph import BipartiteColoredGraph, graph_to_pda, greedy_strong_color, pda_to_graph, subsample
from .neural import TrainConfig, load_checkpoint, rollout, save_checkpoint, train, write_log_csv
from .pda import Pda, construct_mn_pda, pda_from_text, pda_to_text
from .seqcodec import (
    assemble_array,
    default_adjacency,
    extract_edge_sequence,
    read_corpus,
    training_pair_from_pda,
    write_corpus,
)

BENCH_ROWS = 16
BENCH_STARS = 12

# TrainConfig's tuning fields and their defaults; `train` has one flag for each.
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig) if f.default is not MISSING}


def _uncolored_graph(adjacency):
    edges = tuple((j, i, None) for i, j in extract_edge_sequence(adjacency))
    return BipartiteColoredGraph(k=adjacency.k, f=adjacency.f, edges=edges)


def _parse_source(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"source must be 'K,t', got {text!r}")
    try:
        k, t = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"source must be two integers, got {text!r}")
    return k, t


def _seed(text):
    """argparse type for --seed: numpy seeds are non-negative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _check_reach(params, f, k, request):
    """InvalidParameter unless the checkpoint's vocabulary addresses F rows and K users."""
    cfg = params.config
    if cfg.f_max < f or cfg.k_max < k:
        raise InvalidParameter(f"checkpoint addresses up to F={cfg.f_max}, K={cfg.k_max}; {request}")


def _parse_sizes(text):
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes or any(s < 0 for s in sizes):
        raise ParseError(f"sizes must be non-negative, got {text!r}")
    return sizes


def cmd_verify(args):
    try:
        p = pda_from_text(read_text(args.path))
    except InvalidPda as exc:
        print(f"invalid array: {len(exc.violations)} violations")
        for v in exc.violations:
            print(f"  {v}")
        return 1
    print(f"valid array: K={p.k} F={p.f} Z={p.z} S={p.s}")
    return 0


def cmd_construct(args):
    p = construct_mn_pda(args.users, args.t)
    comments = [f"pdakit construct users={args.users} t={args.t}"]
    with open(args.out, "w") as fh:
        fh.write(pda_to_text(p, comments=comments))
    print(f"wrote K={p.k} F={p.f} Z={p.z} S={p.s} array to {args.out}")
    return 0


def cmd_pipeline(args):
    if args.trials < 0:
        raise InvalidParameter(f"--trials must be >= 0, got {args.trials}")
    k, f, z = args.users, args.rows, args.stars
    adjacency = default_adjacency(k, f, z)
    comments = [
        f"pdakit pipeline users={k} rows={f} stars={z} "
        f"seed={args.seed} colorer={args.colorer} mask={not args.no_mask}"
    ]

    if args.colorer == "greedy":
        colored = greedy_strong_color(_uncolored_graph(adjacency), order="random", seed=args.seed)
        p = graph_to_pda(colored)
    else:
        if not args.checkpoint:
            raise InvalidParameter("the neural colorer needs --checkpoint")
        params, _ = load_checkpoint(args.checkpoint)
        _check_reach(params, f, k, f"asked for F={f}, K={k}")
        ep = rollout(adjacency, params, mode="greedy", seed=args.seed,
                     use_mask=not args.no_mask)
        grid = assemble_array(adjacency, ep.edges, ep.colors)
        try:
            p = Pda.from_grid(grid, z=z)
        except InvalidPda as exc:
            with open(args.out, "w") as fh:
                fh.write(pda_to_text(grid, comments))
            print(f"invalid array written to {args.out}: {len(exc.violations)} violations")
            for v in exc.violations:
                print(f"  {v}")
            return 1

    with open(args.out, "w") as fh:
        fh.write(pda_to_text(p, comments))
    report = measure(p, trials=args.trials, seed=args.seed)
    print(
        f"valid array written to {args.out}: K={k} F={f} Z={z} S={p.s} "
        f"rate={report.delivery_rate} uncoded={report.uncoded_rate} "
        f"all_decoded={report.all_decoded}"
    )
    if args.summary:
        with open(args.summary, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["users", "rows", "stars", "slots", "delivery_rate",
                 "uncoded_rate", "all_decoded", "colorer", "seed"]
            )
            writer.writerow(
                [k, f, z, p.s, report.delivery_rate, report.uncoded_rate,
                 int(report.all_decoded), args.colorer, args.seed]
            )
    return 0


def cmd_augment(args):
    if args.count < 0:
        raise InvalidParameter(f"--count must be >= 0, got {args.count}")
    if args.delta is not None and args.delta < 1:
        raise InvalidParameter(f"--delta must be >= 1, got {args.delta}")
    sources = [_parse_source(s) for s in args.source]
    combos = []
    for k, t in sources:
        p = construct_mn_pda(k, t)
        deg = p.f - p.z
        deltas = [args.delta] if args.delta is not None else list(range(1, deg))
        legal = [d for d in deltas if d < deg]
        if not legal:
            print(f"warning: source {k},{t} has no legal delta (degree {deg}), skipped",
                  file=sys.stderr)
            continue
        g = pda_to_graph(p)
        combos.extend((g, d) for d in legal)
    if not combos and args.count > 0:
        raise InvalidParameter("no usable sources: every source was skipped")

    master = np.random.default_rng([args.seed, 2026])
    pairs = []
    for n in range(args.count):
        g, delta = combos[n % len(combos)]
        sub = subsample(g, delta, rng_seed=int(master.integers(2**63)))
        pairs.append(training_pair_from_pda(graph_to_pda(sub)))
    meta = {
        "tool": "pdakit augment",
        "seed": args.seed,
        "sources": list(args.source),
        "delta": "all" if args.delta is None else args.delta,
        "count": args.count,
    }
    written = write_corpus(args.out, pairs, meta=meta)
    print(f"wrote {written} pairs to {args.out}")
    return 0


def cmd_train(args):
    _, pairs = read_corpus(args.corpus)
    if not pairs:
        raise InvalidParameter(f"corpus {args.corpus} holds no training pairs")
    holdout = args.holdout
    if not 0 <= holdout < len(pairs):
        raise InvalidParameter(
            f"cannot hold out {holdout} of {len(pairs)} pairs"
        )
    eval_pairs = pairs[-holdout:] if holdout else None
    train_pairs = pairs[:-holdout] if holdout else pairs

    cfg = TrainConfig(
        f_max=max(p.f for p in pairs),
        k_max=max(p.k for p in pairs),
        **{name: getattr(args, name) for name in _TRAIN_DEFAULTS},
    )
    meta = {
        "seed": args.seed,
        "supervised_epochs": cfg.supervised_epochs,
        "reinforce_epochs": cfg.reinforce_epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "reinforce_learning_rate": cfg.reinforce_learning_rate,
        "clip_norm": cfg.clip_norm,
        "holdout": holdout,
    }
    try:
        params, rows = train(train_pairs, cfg, eval_pairs=eval_pairs)
    except DivergenceError as exc:
        if exc.checkpoint is not None:
            save_checkpoint(args.checkpoint, exc.checkpoint, meta={**meta, "diverged": True})
            print(f"training diverged: {exc}; last good checkpoint kept at {args.checkpoint}",
                  file=sys.stderr)
        else:
            print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    save_checkpoint(args.checkpoint, params, meta=meta)
    write_log_csv(args.log, rows)
    last = rows[-1]
    print(
        f"trained {last.epoch} epochs: loss={last.loss:.6g} "
        f"valid_rate={last.valid_rate:.3f}; checkpoint {args.checkpoint}, log {args.log}"
    )
    return 0


def cmd_simulate(args):
    p = pda_from_text(read_text(args.pda))
    n_files = p.k + 1 if args.files is None else args.files
    report = measure(p, trials=args.trials, seed=args.seed,
                     n_files=n_files, packet_size=args.packet_size)
    print(
        f"delivery_rate={report.delivery_rate} uncoded_rate={report.uncoded_rate} "
        f"packets_per_round={p.s} all_decoded={report.all_decoded}"
    )
    if args.trace:
        write_trace_csv(args.trace, report.trace)
    if args.transcript:
        lib = FileLibrary.random(n_files, p.f, packet_size=args.packet_size, seed=args.seed)
        rng = np.random.default_rng([args.seed, 1])
        d = DemandVector(tuple(int(v) for v in rng.integers(1, n_files + 1, size=p.k)))
        result = run_round(p, lib, d)
        doc = transcript_to_json(
            result.transcript,
            meta={"seed": args.seed, "demands": list(d.d), "files": n_files},
        )
        with open(args.transcript, "w") as fh:
            fh.write(doc)
    return 0


def cmd_bench(args):
    params, _ = load_checkpoint(args.checkpoint)
    sizes = _parse_sizes(args.sizes)
    f, z = BENCH_ROWS, BENCH_STARS
    deg = f - z
    for edges_n in sizes:
        if edges_n % deg:
            raise InvalidParameter(
                f"size {edges_n} is not a multiple of the per-user degree {deg}"
            )
        k = edges_n // deg
        _check_reach(params, f, k, f"size {edges_n} needs F={f}, K={k}")
    rows = []
    for edges_n in sizes:
        if edges_n == 0:
            rows.append((0, 0.0, 0.0))
            continue
        adjacency = default_adjacency(edges_n // deg, f, z)
        g = _uncolored_graph(adjacency)
        t0 = time.perf_counter()
        greedy_strong_color(g, order="lex")
        greedy_ms = (time.perf_counter() - t0) * 1000.0
        t0 = time.perf_counter()
        rollout(adjacency, params, mode="greedy", seed=args.seed, use_mask=True)
        neural_ms = (time.perf_counter() - t0) * 1000.0
        rows.append((edges_n, greedy_ms, neural_ms))
        print(f"edges={edges_n} greedy={greedy_ms:.3f}ms neural={neural_ms:.3f}ms")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edges", "greedy_ms", "neural_ms", "seed"])
        for edges_n, greedy_ms, neural_ms in rows:
            writer.writerow([edges_n, f"{greedy_ms:.6g}", f"{neural_ms:.6g}", args.seed])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdakit",
        description="Placement delivery arrays: construction, coloring, training, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="validate an array file and report violations")
    sp.add_argument("path", help="array in text format")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("construct", help="build the subset-based array for (users, t)")
    sp.add_argument("--users", type=int, required=True, help="number of users K")
    sp.add_argument("--t", type=int, required=True, help="subset size parameter")
    sp.add_argument("--out", required=True, help="output array file")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser(
        "pipeline",
        help="place, color (greedy or neural), verify, and measure in one run",
    )
    sp.add_argument("--users", type=int, required=True)
    sp.add_argument("--rows", type=int, required=True, help="packets per file F")
    sp.add_argument("--stars", type=int, required=True, help="cached packets per user Z")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--colorer", choices=["greedy", "neural"], default="greedy")
    sp.add_argument("--checkpoint", help="trained model (required for neural)")
    sp.add_argument("--no-mask", action="store_true",
                    help="disable the feasibility screen during neural decoding")
    sp.add_argument("--trials", type=int, default=20, help="simulated demand rounds")
    sp.add_argument("--out", required=True, help="output array file")
    sp.add_argument("--summary", help="optional one-row summary CSV")
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("augment", help="subsample source arrays into a training corpus")
    sp.add_argument("--source", action="append", required=True, metavar="K,T",
                    help="subset-construction source; repeatable")
    sp.add_argument("--count", type=int, required=True, help="pairs to emit")
    sp.add_argument("--delta", type=int, help="edges kept per user (default: every legal value)")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True, help="output corpus (JSON lines)")
    sp.set_defaults(func=cmd_augment)

    sp = sub.add_parser("train", help="fit the colorer on a corpus")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--checkpoint", required=True, help="output model file")
    sp.add_argument("--log", required=True, help="output per-epoch CSV")
    sp.add_argument("--embed-dim", type=int)
    sp.add_argument("--hidden-dim", type=int)
    sp.add_argument("--epochs", dest="supervised_epochs", type=int, help="likelihood epochs")
    sp.add_argument("--reinforce-epochs", type=int)
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--learning-rate", type=float)
    sp.add_argument("--reinforce-learning-rate", type=float)
    sp.add_argument("--clip-norm", type=float)
    sp.add_argument("--holdout", type=int, default=0,
                    help="score the valid-rate column on this many trailing pairs")
    sp.add_argument("--seed", type=_seed)
    sp.set_defaults(func=cmd_train, **_TRAIN_DEFAULTS)

    sp = sub.add_parser("simulate", help="run delivery rounds over an array file")
    sp.add_argument("--pda", required=True, help="array in text format")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--files", type=int, help="library size (default K+1)")
    sp.add_argument("--packet-size", type=int, default=64)
    sp.add_argument("--transcript", help="optional transcript JSON for one round")
    sp.add_argument("--trace", help="optional per-user decode CSV")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("bench", help="time greedy vs neural coloring across sizes")
    sp.add_argument("--sizes", default="64,128,256,512,1024,2048,4096",
                    help="comma-separated edge counts")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True, help="output timing CSV")
    sp.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PdakitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
