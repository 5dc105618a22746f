"""Sequence representation of arrays for the learned colorer.

A placement fixes which cells are stars; what remains is an adjacency
mask plus an ordered list of edge cells.  A colorer then only has to emit
one color per edge cell, and assembling those colors back into the mask
yields a candidate array.  The canonical edge order is column-major:
user column ascending, row ascending within a column, so each user's
edges stay contiguous.

Also holds the training-pair JSONL format used to persist corpora of
(adjacency, edges, colors) triples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParameter,
    InvalidPlacement,
    LengthMismatch,
    MalformedGrid,
    ParseError,
)
from .pda import STAR, Pda, as_grid, construct_mn_pda

EdgeCell = tuple[int, int]


@dataclass(frozen=True)
class AdjacencyMatrix:
    """F-by-K mask of a placement: True at edge cells, False at stars.

    The two entry kinds are categorical (an edge either exists or the
    cell is cached), so the mask is boolean rather than numeric.
    """

    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask)
        if m.ndim != 2 or m.size == 0:
            raise MalformedGrid(f"expected a non-empty 2-D mask, got shape {m.shape}")
        if m.dtype != np.bool_:
            raise MalformedGrid(f"mask entries must be boolean, got dtype {m.dtype}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def f(self) -> int:
        return self.mask.shape[0]

    @property
    def k(self) -> int:
        return self.mask.shape[1]

    @property
    def edge_count(self) -> int:
        return int(self.mask.sum())

    def __eq__(self, other):
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return np.array_equal(self.mask, other.mask)

    def __hash__(self):
        return hash(self.mask.tobytes())

    def __repr__(self):
        return f"AdjacencyMatrix(f={self.f}, k={self.k}, edges={self.edge_count})"


def placement_to_adjacency(z: int, f: int, k: int, star_pattern) -> AdjacencyMatrix:
    """Build the mask from per-column star rows.

    star_pattern: sequence of k collections of row indices; each must
    contain exactly z distinct in-range rows, otherwise InvalidPlacement.
    """
    if f < 1 or k < 1 or not 0 <= z <= f:
        raise InvalidParameter(f"bad placement shape z={z}, f={f}, k={k}")
    columns = list(star_pattern)
    if len(columns) != k:
        raise InvalidPlacement(f"expected {k} star sets, got {len(columns)}")
    mask = np.ones((f, k), dtype=bool)
    for j, rows in enumerate(columns):
        star_set = {int(r) for r in rows}
        if len(star_set) != z:
            raise InvalidPlacement(f"column {j} has {len(star_set)} stars, expected {z}")
        for i in star_set:
            if not 0 <= i < f:
                raise InvalidPlacement(f"column {j} star row {i} outside [0, {f})")
            mask[i, j] = False
    return AdjacencyMatrix(mask=mask)


def pda_to_adjacency(p) -> AdjacencyMatrix:
    """Mask of an existing array: True where the cell holds an integer."""
    grid = p.grid if isinstance(p, Pda) else as_grid(p)
    return AdjacencyMatrix(mask=grid != STAR)


def extract_edge_sequence(a: AdjacencyMatrix) -> tuple[EdgeCell, ...]:
    """Edge cells (i, j) of the mask in canonical column-major order."""
    jj, ii = np.nonzero(a.mask.T)
    return tuple(zip(ii.tolist(), jj.tolist()))


def assemble_array(
    a: AdjacencyMatrix, e: Sequence[EdgeCell], c: Sequence[int]
) -> np.ndarray:
    """Fill colors into the edge cells, stars elsewhere (candidate array).

    The result is a plain grid; whether it is a valid array is the
    verifier's call, not ours.
    """
    if len(e) != len(c):
        raise LengthMismatch(f"{len(e)} edges but {len(c)} colors")
    if len(e) != a.edge_count or any(not a.mask[i, j] for i, j in e):
        raise InvalidParameter("edge sequence does not match the mask")
    grid = np.zeros((a.f, a.k), dtype=np.int64)
    for (i, j), color in zip(e, c):
        color = int(color)
        if color < 1:
            raise InvalidParameter(f"color {color} at cell ({i}, {j}) is not positive")
        grid[i, j] = color
    return grid


def sequences_from_pda(p) -> tuple[AdjacencyMatrix, tuple[EdgeCell, ...], tuple[int, ...]]:
    """Decompose an array into (mask, canonical edges, matching colors)."""
    if not isinstance(p, Pda):
        p = Pda.from_grid(p)
    a = pda_to_adjacency(p)
    edges = extract_edge_sequence(a)
    colors = tuple(int(p.grid[i, j]) for i, j in edges)
    return a, edges, colors


def default_star_pattern(k: int, f: int, z: int) -> tuple[tuple[int, ...], ...]:
    """Per-column star rows for a (k, f, z) placement.

    Uses the classical t-subset placement when the shape matches it
    exactly (t = k*z/f integral, f and z the corresponding binomials),
    else a balanced cyclic pattern: column j caches rows (j + m) mod f
    for m < z.  Both give every column exactly z stars.
    """
    if f < 1 or k < 1 or not 0 <= z <= f:
        raise InvalidParameter(f"bad placement shape k={k}, f={f}, z={z}")
    if z * k % f == 0:
        t = z * k // f
        if 1 <= t <= k - 1:
            if f == math.comb(k, t) and z == math.comb(k - 1, t - 1):
                p = construct_mn_pda(k, t)
                return tuple(p.star_rows(j) for j in range(k))
    return tuple(
        tuple(sorted((j + m) % f for m in range(z))) for j in range(k)
    )


# --- training-pair JSONL --------------------------------------------------
#
# Line 1: {"_meta": {...}} with at least the generating seed.
# Then one object per sample:
#   {"K": int, "F": int, "Z": int, "edges": [[i, j], ...], "colors": [...]}
# Edges are in canonical order; colors pair with them.


@dataclass(frozen=True)
class TrainingPair:
    """One (placement, coloring) sample: edges in canonical order."""

    k: int
    f: int
    z: int
    edges: tuple[EdgeCell, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.colors):
            raise LengthMismatch(
                f"{len(self.edges)} edges but {len(self.colors)} colors"
            )
        expected = self.k * (self.f - self.z)
        if len(self.edges) != expected:
            raise InvalidParameter(
                f"edge count {len(self.edges)} is not K(F-Z) = {expected}"
            )

    def adjacency(self) -> AdjacencyMatrix:
        mask = np.zeros((self.f, self.k), dtype=bool)
        for i, j in self.edges:
            mask[i, j] = True
        return AdjacencyMatrix(mask=mask)

    def grid(self) -> np.ndarray:
        return assemble_array(self.adjacency(), self.edges, self.colors)


def training_pair_from_pda(p) -> TrainingPair:
    a, edges, colors = sequences_from_pda(p)
    p = p if isinstance(p, Pda) else Pda.from_grid(p)
    return TrainingPair(k=p.k, f=p.f, z=p.z, edges=edges, colors=colors)


def _pair_to_obj(pair: TrainingPair) -> dict:
    return {
        "K": pair.k,
        "F": pair.f,
        "Z": pair.z,
        "edges": [[i, j] for i, j in pair.edges],
        "colors": list(pair.colors),
    }


def _pair_from_obj(obj: dict) -> TrainingPair:
    return TrainingPair(
        k=int(obj["K"]),
        f=int(obj["F"]),
        z=int(obj["Z"]),
        edges=tuple((int(i), int(j)) for i, j in obj["edges"]),
        colors=tuple(int(c) for c in obj["colors"]),
    )


def write_corpus(path, pairs: Iterable[TrainingPair], meta: Optional[dict] = None) -> int:
    """Write samples as JSON lines with a leading _meta record.

    Returns the number of samples written.  Key order is fixed so equal
    inputs produce identical bytes.
    """
    n = 0
    with open(path, "w") as fh:
        fh.write(json.dumps({"_meta": dict(meta or {})}, sort_keys=True) + "\n")
        for pair in pairs:
            fh.write(json.dumps(_pair_to_obj(pair), separators=(",", ":")) + "\n")
            n += 1
    return n


def read_corpus(path) -> tuple[dict, list[TrainingPair]]:
    """Read a JSONL corpus back into (meta, samples)."""
    meta: dict = {}
    pairs: list[TrainingPair] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON on corpus line {lineno}: {exc}", line=lineno) from exc
            if lineno == 1 and "_meta" in obj:
                meta = obj["_meta"]
                continue
            try:
                pairs.append(_pair_from_obj(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(
                    f"bad sample on corpus line {lineno}: {exc}", line=lineno
                ) from exc
    return meta, pairs
