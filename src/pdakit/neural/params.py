"""Parameter containers, initialization, and checkpoint files for the colorer.

All tensors are float64 numpy arrays.  Shapes are fixed by a ModelConfig:
embedding width d, hidden width h, and the largest row/column counts the
embedding table can address.  The flatten/unflatten pair gives a stable
vector view used by finite-difference checks and gradient clipping.
"""

from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..errors import DimensionError, InvalidParameter, ParseError, json_int, read_text

# Uniform init half-width.  Pointer logits are products of several weight
# tensors, so a much smaller scale starts training on a flat plateau.
INIT_SCALE = 0.5

CHECKPOINT_FORMAT = "pdakit-checkpoint"
CHECKPOINT_VERSION = 2
# Gate blocks along axis 0 of each GRU tensor.  Version 1 files stored
# each block on its own, as <gru>.<u|w|b>_<gate>.
GATES = ("reset", "update", "cand")


@dataclass(frozen=True)
class ModelConfig:
    """Widths and addressable grid bounds, fixed at construction."""

    f_max: int
    k_max: int
    embed_dim: int
    hidden_dim: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise InvalidParameter(f"{f.name} must be >= 1")


@dataclass
class GruParams:
    """One GRU, gate blocks stacked along axis 0: reset, update, candidate.

    u (3h, m) acts on the input, w (3h, h) on the previous hidden state,
    b (3h,) holds the biases.  The candidate carries its own bias.
    """

    u: np.ndarray
    w: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, in_dim: int, hidden_dim: int, rng: np.random.Generator) -> "GruParams":
        # Gate by gate, u then w then b: this draw order fixes what each
        # seed gives, so it must not follow the stacked layout.
        blocks = [
            (
                rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden_dim, in_dim)),
                rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden_dim, hidden_dim)),
                rng.uniform(-INIT_SCALE, INIT_SCALE, size=hidden_dim),
            )
            for _ in GATES
        ]
        u, w, b = (np.concatenate(parts) for parts in zip(*blocks))
        return cls(u=u, w=w, b=b)

    def tensor_items(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        return [(f"{prefix}.{f.name}", getattr(self, f.name)) for f in fields(self)]


@dataclass
class ModelParams:
    """Every learnable tensor of the colorer.

    embed maps a row one-hot (f_max slots) stacked with a column one-hot
    (k_max slots) to a d-vector; fwd/bwd are the two encoder directions,
    dec the decoder.  attn_enc/attn_dec/attn_v are the attention weights
    on encoder states, decoder state, and the scoring vector.  start is
    the learned first decoder input.
    """

    config: ModelConfig
    embed: np.ndarray      # (d, f_max + k_max)
    fwd: GruParams         # input d, hidden h
    bwd: GruParams         # input d, hidden h
    dec: GruParams         # input 2h + d, hidden h
    attn_enc: np.ndarray   # (h, 2h)
    attn_dec: np.ndarray   # (h, h)
    attn_v: np.ndarray     # (h,)
    start: np.ndarray      # (d,)

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        d, h = config.embed_dim, config.hidden_dim

        def mat(*shape):
            return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)

        return cls(
            config=config,
            embed=mat(d, config.f_max + config.k_max),
            fwd=GruParams.init(d, h, rng),
            bwd=GruParams.init(d, h, rng),
            dec=GruParams.init(2 * h + d, h, rng),
            attn_enc=mat(h, 2 * h),
            attn_dec=mat(h, h),
            attn_v=mat(h),
            start=mat(d),
        )

    def tensor_items(self) -> list[tuple[str, np.ndarray]]:
        """All tensors in field order, each GRU as its u, w, b; names key checkpoints and grads."""
        items = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, GruParams):
                items += value.tensor_items(f.name)
            elif isinstance(value, np.ndarray):
                items.append((f.name, value))
        return items

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(t) for name, t in self.tensor_items()}

    def flatten(self) -> np.ndarray:
        return np.concatenate([t.ravel() for _, t in self.tensor_items()])

    def unflatten(self, vec: np.ndarray) -> "ModelParams":
        """New params with the same shapes, values taken from vec."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.flatten().size,):
            raise DimensionError(
                f"expected a flat vector of {self.flatten().size} values"
            )
        out = self.copy()
        pos = 0
        for _, t in out.tensor_items():
            t[...] = vec[pos : pos + t.size].reshape(t.shape)
            pos += t.size
        return out

    def copy(self) -> "ModelParams":
        return deepcopy(self)

    def all_finite(self) -> bool:
        return all(np.isfinite(t).all() for _, t in self.tensor_items())

    def apply_step(self, grads: dict[str, np.ndarray], scale: float) -> None:
        """In-place update: tensor += scale * grad, per named tensor."""
        for name, t in self.tensor_items():
            t += scale * grads[name]


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients together so the global norm is at most max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


def save_checkpoint(path, params: ModelParams, meta: dict | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "tensors": {
            name: {"shape": list(t.shape), "data": t.ravel().tolist()}
            for name, t in params.tensor_items()
        },
        "meta": dict(meta or {}),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _read_tensor(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    entry = tensors[name]
    data = np.asarray(entry["data"], dtype=float).reshape(entry["shape"])
    if data.shape != shape:
        raise ParseError(f"tensor {name} has shape {data.shape}, expected {shape}")
    if not np.isfinite(data).all():
        raise ParseError(f"tensor {name} holds a non-finite value")
    return data


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a version 2 file, or a version 1 file with per-gate tensors."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad checkpoint JSON: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ParseError(f"not a checkpoint file: format={fmt!r}")
    version = doc.get("version")
    if isinstance(version, bool) or version not in (1, CHECKPOINT_VERSION):
        raise ParseError(f"unsupported checkpoint version {version!r}")
    try:
        config = ModelConfig(
            **{name: json_int(value, f"checkpoint config {name}")
               for name, value in doc["config"].items()}
        )
        params = ModelParams.init(config, seed=0)
        tensors = doc["tensors"]
        for name, t in params.tensor_items():
            if version == 1 and "." in name:
                block = (t.shape[0] // 3,) + t.shape[1:]
                t[...] = np.concatenate(
                    [_read_tensor(tensors, f"{name}_{gate}", block) for gate in GATES]
                )
            else:
                t[...] = _read_tensor(tensors, name, t.shape)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad checkpoint structure: {exc}") from exc
    return params, doc.get("meta", {})
