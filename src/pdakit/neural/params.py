"""Parameter containers, initialization, and checkpoint files for the colorer.

A model is one contiguous float64 vector, and every named tensor is a
reshaped view of it, laid out in tensor_items order.  Shapes are fixed by a
ModelConfig: embedding width d, hidden width h, and the largest row/column
counts the embedding table can address.  flatten, copy and unflatten are
one vector copy each.  The dataclasses are frozen, since rebinding a
tensor field would break the aliasing.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

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
GRUS = ("fwd", "bwd", "dec")


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


def _shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every tensor's name and shape, in the order the vector lays them out."""
    d, h = config.embed_dim, config.hidden_dim
    shapes = [("embed", (d, config.f_max + config.k_max))]
    for gru, m in zip(GRUS, (d, d, 2 * h + d)):
        shapes += [(f"{gru}.u", (3 * h, m)), (f"{gru}.w", (3 * h, h)), (f"{gru}.b", (3 * h,))]
    return shapes + [("attn_enc", (h, 2 * h)), ("attn_dec", (h, h)), ("attn_v", (h,)), ("start", (d,))]


def _views(config: ModelConfig, vector: np.ndarray) -> dict[str, np.ndarray]:
    """The named tensors as reshaped views of one flat float64 vector, in layout order."""
    shapes = _shapes(config)
    sizes = [math.prod(shape) for _, shape in shapes]
    if not isinstance(vector, np.ndarray) or vector.dtype != np.float64 or vector.shape != (sum(sizes),):
        raise DimensionError(f"expected a flat float64 vector of {sum(sizes)} values")
    out, pos = {}, 0
    for (name, shape), size in zip(shapes, sizes):
        out[name] = vector[pos : pos + size].reshape(shape)
        pos += size
    return out


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Every learnable tensor of the colorer, as views of one float64 vector.

    embed maps a row one-hot (f_max slots) stacked with a column one-hot
    (k_max slots) to a d-vector; fwd/bwd are the two encoder directions,
    dec the decoder.  attn_enc/attn_dec/attn_v are the attention weights
    on encoder states, decoder state, and the scoring vector.  start is
    the learned first decoder input.  Build one from (config, vector);
    the tensors are views of that very vector, not copies.
    """

    config: ModelConfig
    vector: np.ndarray = field(repr=False)
    embed: np.ndarray = field(init=False)      # (d, f_max + k_max)
    fwd: GruParams = field(init=False)         # input d, hidden h
    bwd: GruParams = field(init=False)         # input d, hidden h
    dec: GruParams = field(init=False)         # input 2h + d, hidden h
    attn_enc: np.ndarray = field(init=False)   # (h, 2h)
    attn_dec: np.ndarray = field(init=False)   # (h, h)
    attn_v: np.ndarray = field(init=False)     # (h,)
    start: np.ndarray = field(init=False)      # (d,)

    def __post_init__(self):
        views = _views(self.config, self.vector)
        for gru in GRUS:
            views[gru] = GruParams(*(views.pop(f"{gru}.{part}") for part in "uwb"))
        for name, value in views.items():
            object.__setattr__(self, name, value)

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        d, h = config.embed_dim, config.hidden_dim

        def mat(*shape):
            return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)

        parts = [mat(d, config.f_max + config.k_max)]
        for m in (d, d, 2 * h + d):
            gru = GruParams.init(m, h, rng)
            parts += [gru.u, gru.w, gru.b]
        parts += [mat(h, 2 * h), mat(h, h), mat(h), mat(d)]
        return cls(config, np.concatenate([t.ravel() for t in parts]))

    def tensor_items(self) -> list[tuple[str, np.ndarray]]:
        """All tensors in layout order, each GRU as its u, w, b; names key checkpoints and grads."""
        return list(_views(self.config, self.vector).items())

    def zero_grads(self) -> dict[str, np.ndarray]:
        """One zero vector the size of the model, as named views."""
        return _views(self.config, np.zeros_like(self.vector))

    def flatten(self) -> np.ndarray:
        return self.vector.copy()

    def unflatten(self, vec: np.ndarray) -> "ModelParams":
        """New params with the same config, on a copy of vec."""
        return ModelParams(self.config, np.array(vec, dtype=np.float64))

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.vector.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.vector).all())

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
    """One file tensor, checked against its config shape; allocates only what the file holds."""
    entry = tensors[name]
    data = np.asarray(entry["data"], dtype=float).reshape(entry["shape"])
    if data.shape != shape:
        raise ParseError(f"tensor {name} has shape {data.shape}, expected {shape}")
    if not np.isfinite(data).all():
        raise ParseError(f"tensor {name} holds a non-finite value")
    return data


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a version 2 file, or a version 1 file with per-gate tensors.

    Every tensor's shape is checked before the model's vector is allocated,
    so a config naming widths its tensors lack is a ParseError, not a huge allocation.
    """
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
        tensors = doc["tensors"]
        parts = []
        for name, shape in _shapes(config):
            if version == 1 and "." in name:
                block = (shape[0] // 3,) + shape[1:]
                parts += [_read_tensor(tensors, f"{name}_{gate}", block) for gate in GATES]
            else:
                parts.append(_read_tensor(tensors, name, shape))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad checkpoint structure: {exc}") from exc
    vector = np.concatenate([t.ravel() for t in parts])
    return ModelParams(config, vector), doc.get("meta", {})
