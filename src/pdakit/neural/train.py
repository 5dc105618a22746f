"""Two-phase training: likelihood pretraining, then reward fine-tuning.

Phase one fits the pointer targets of the corpus by plain SGD on the
negative log likelihood.  Phase two samples colorings, scores each with
the verifier (+1/-1), and ascends the reward-weighted log likelihood.
Every epoch appends one log row; epoch 0 records the untrained model so
improvement is measurable.  A fixed seed makes the whole run, including
sampled episodes, reproducible: each episode draws from its own
generator, seeded by (seed, epoch, pair index).

Each minibatch makes one forward pass of the batched engine and, for
its gradient, one backward pass on that forward pass's tape.  A
supervised minibatch replays its targets; a reinforce minibatch samples
its episodes, and the reward of each then weights that same tape, so no
pass is recomputed.  The per-epoch greedy evaluation and epoch 0's
corpus loss are forward passes alone, in chunks of at most _EVAL_CHUNK
pairs.

Floating-point warnings are off during training: a diverging update
overflows on its way to inf or nan, and the finiteness check after each
epoch reports that as a DivergenceError with the last good parameters.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from ..errors import DivergenceError, InvalidParameter, index
from ..seqcodec import TrainingPair, colors_to_pointers
from .net import rollout_batch, sample_and_reinforce, sequence_logprobs, supervised_loss
from .params import ModelConfig, ModelParams, clip_grads

# Pairs per evaluation pass: bounds the engine's buffers on a large corpus.
_EVAL_CHUNK = 64


@dataclass(frozen=True)
class TrainConfig:
    f_max: int
    k_max: int
    embed_dim: int = 16
    hidden_dim: int = 32
    supervised_epochs: int = 100
    reinforce_epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 0.5
    reinforce_learning_rate: float = 0.05
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("supervised_epochs", "reinforce_epochs", "batch_size"):
            object.__setattr__(self, name, index(getattr(self, name), name))
        object.__setattr__(self, "seed", index(self.seed, "seed", start=0))
        if self.supervised_epochs < 0 or self.reinforce_epochs < 0:
            raise InvalidParameter("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise InvalidParameter("batch_size must be >= 1")
        if not self.clip_norm > 0:
            raise InvalidParameter(f"clip_norm must be > 0, got {self.clip_norm}")
        for name in ("learning_rate", "reinforce_learning_rate"):
            if not 0 < getattr(self, name) < math.inf:  # also false for nan
                raise InvalidParameter(f"{name} must be finite and > 0, got {getattr(self, name)}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})


@dataclass(frozen=True)
class LogRow:
    epoch: int
    phase: str
    loss: float
    mean_reward: float
    valid_rate: float
    wall_ms: int


def write_log_csv(path, rows: Sequence[LogRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "phase", "loss", "mean_reward", "valid_rate", "wall_ms"])
        for r in rows:
            writer.writerow(
                [r.epoch, r.phase, f"{r.loss:.10g}", f"{r.mean_reward:.10g}",
                 f"{r.valid_rate:.10g}", r.wall_ms]
            )


def greedy_valid_rate(pairs: Sequence[TrainingPair], params: ModelParams,
                      use_mask: bool = False) -> float:
    """Fraction of placements the argmax decoding colors into a valid array."""
    if not pairs:
        return 0.0
    ok = 0
    for lo in range(0, len(pairs), _EVAL_CHUNK):
        episodes = rollout_batch([p.adjacency() for p in pairs[lo : lo + _EVAL_CHUNK]],
                                 params, mode="greedy", use_mask=use_mask)
        ok += sum(ep.reward == 1 for ep in episodes)
    return ok / len(pairs)


def _corpus_loss(pairs, params) -> float:
    """supervised_loss over the whole corpus, without its gradient."""
    total = 0.0
    for lo in range(0, len(pairs), _EVAL_CHUNK):
        rows = [((0, 0), p.edges, colors_to_pointers(p.colors), False)
                for p in pairs[lo : lo + _EVAL_CHUNK]]
        for logp in sequence_logprobs(rows, params).tolist():
            total += logp
    return -total / len(pairs)


def _guard_finite(params: ModelParams, loss: float, epoch: int,
                  last_good: ModelParams) -> None:
    if not np.isfinite(loss) or not params.all_finite():
        raise DivergenceError(
            f"non-finite values after epoch {epoch}", checkpoint=last_good
        )


def train(
    pairs: Sequence[TrainingPair],
    config: TrainConfig,
    eval_pairs: Optional[Sequence[TrainingPair]] = None,
) -> tuple[ModelParams, list[LogRow]]:
    """Run both phases and return final parameters plus the epoch log.

    eval_pairs feed the per-epoch valid-rate column; they default to the
    training pairs.  Raises DivergenceError carrying the last finite
    parameters if an update produces NaN or Inf.
    """
    pairs = list(pairs)
    if not pairs:
        raise InvalidParameter("training corpus is empty")
    eval_pairs = list(eval_pairs) if eval_pairs is not None else pairs
    params = ModelParams.init(config.model_config(), seed=config.seed)
    rng = np.random.default_rng([config.seed, 1])
    rows: list[LogRow] = []

    def evaluate() -> tuple[float, float]:
        rate = greedy_valid_rate(eval_pairs, params, use_mask=False)
        return rate, 2.0 * rate - 1.0

    with np.errstate(all="ignore"):
        t0 = time.perf_counter()
        rate, mean_reward = evaluate()
        rows.append(
            LogRow(
                epoch=0, phase="init", loss=_corpus_loss(pairs, params),
                mean_reward=mean_reward, valid_rate=rate,
                wall_ms=int((time.perf_counter() - t0) * 1000),
            )
        )

        for epoch in range(1, config.supervised_epochs + config.reinforce_epochs + 1):
            supervised = epoch <= config.supervised_epochs
            t0 = time.perf_counter()
            last_good = params.copy()
            order = rng.permutation(len(pairs))
            losses = []
            rewards = []
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo : lo + config.batch_size]
                if supervised:
                    loss, grads = supervised_loss(
                        [(pairs[i].edges, pairs[i].colors) for i in batch], params
                    )
                    step = -config.learning_rate
                else:
                    episodes, objective, grads = sample_and_reinforce(
                        [pairs[i].adjacency() for i in batch], params,
                        seeds=[[config.seed, epoch, int(i)] for i in batch], use_mask=False,
                    )
                    rewards += [ep.reward for ep in episodes]
                    loss, step = -objective, config.reinforce_learning_rate
                clip_grads(grads, config.clip_norm)
                params.apply_step(grads, step)
                losses.append(loss)
            epoch_loss = float(np.mean(losses))
            _guard_finite(params, epoch_loss, epoch, last_good)
            rate, mean_reward = evaluate()
            rows.append(
                LogRow(
                    epoch=epoch, phase="supervised" if supervised else "reinforce",
                    loss=epoch_loss,
                    mean_reward=mean_reward if supervised else float(np.mean(rewards)),
                    valid_rate=rate, wall_ms=int((time.perf_counter() - t0) * 1000),
                )
            )

    return params, rows
