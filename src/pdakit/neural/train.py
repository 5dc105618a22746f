"""Two-phase training: likelihood pretraining, then reward fine-tuning.

Phase one fits the pointer targets of the corpus by plain SGD on the
negative log likelihood.  Phase two samples colorings, scores each with
the verifier (+1/-1), and ascends the reward-weighted log likelihood.
Every epoch appends one log row; epoch 0 records the untrained model so
improvement is measurable.  A fixed seed makes the whole run, including
sampled episodes, reproducible.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DivergenceError, InvalidParameter
from ..seqcodec import TrainingPair
from .net import reinforce_objective_and_grad, rollout, supervised_loss
from .params import ModelConfig, ModelParams, clip_grads


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
        if self.supervised_epochs < 0 or self.reinforce_epochs < 0:
            raise InvalidParameter("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise InvalidParameter("batch_size must be >= 1")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            f_max=self.f_max,
            k_max=self.k_max,
            embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim,
        )


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
    for pair in pairs:
        ep = rollout(pair.adjacency(), params, mode="greedy", use_mask=use_mask)
        ok += ep.reward == 1
    return ok / len(pairs)


def _corpus_loss(pairs, params) -> float:
    loss, _ = supervised_loss([(p.edges, p.colors) for p in pairs], params)
    return loss


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

    t0 = time.perf_counter()
    rate, mean_reward = evaluate()
    rows.append(
        LogRow(
            epoch=0, phase="init", loss=_corpus_loss(pairs, params),
            mean_reward=mean_reward, valid_rate=rate,
            wall_ms=int((time.perf_counter() - t0) * 1000),
        )
    )

    epoch = 0
    for _ in range(config.supervised_epochs):
        epoch += 1
        t0 = time.perf_counter()
        last_good = params.copy()
        order = rng.permutation(len(pairs))
        losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = [
                (pairs[i].edges, pairs[i].colors)
                for i in order[lo : lo + config.batch_size]
            ]
            loss, grads = supervised_loss(batch, params)
            clip_grads(grads, config.clip_norm)
            params.apply_step(grads, -config.learning_rate)
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        _guard_finite(params, epoch_loss, epoch, last_good)
        rate, mean_reward = evaluate()
        rows.append(
            LogRow(
                epoch=epoch, phase="supervised", loss=epoch_loss,
                mean_reward=mean_reward, valid_rate=rate,
                wall_ms=int((time.perf_counter() - t0) * 1000),
            )
        )

    for _ in range(config.reinforce_epochs):
        epoch += 1
        t0 = time.perf_counter()
        last_good = params.copy()
        order = rng.permutation(len(pairs))
        objectives = []
        rewards = []
        for lo in range(0, len(order), config.batch_size):
            episodes = []
            for i in order[lo : lo + config.batch_size]:
                ep = rollout(
                    pairs[i].adjacency(), params, mode="sample",
                    seed=[config.seed, epoch, int(i)], use_mask=False,
                )
                episodes.append(ep)
                rewards.append(ep.reward)
            objective, grads = reinforce_objective_and_grad(episodes, params)
            clip_grads(grads, config.clip_norm)
            params.apply_step(grads, config.reinforce_learning_rate)
            objectives.append(objective)
        epoch_loss = float(-np.mean(objectives))
        _guard_finite(params, epoch_loss, epoch, last_good)
        rate, _ = evaluate()
        rows.append(
            LogRow(
                epoch=epoch, phase="reinforce", loss=epoch_loss,
                mean_reward=float(np.mean(rewards)), valid_rate=rate,
                wall_ms=int((time.perf_counter() - t0) * 1000),
            )
        )

    return params, rows
