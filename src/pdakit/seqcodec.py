"""Sequence representation of arrays for the learned colorer.

A placement fixes which cells are stars; what remains is an adjacency
mask plus an ordered list of edge cells.  A colorer then only has to emit
one color per edge cell, and assembling those colors back into the mask
yields a candidate array.  The canonical edge order is column-major:
user column ascending, row ascending within a column, so each user's
edges stay contiguous.

Also holds the pointer codec between a coloring and the colorer's output,
and the training-pair JSONL format used to persist corpora of
(adjacency, edges, colors) triples.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadTarget,
    InvalidParameter,
    InvalidPlacement,
    InvalidPointer,
    LengthMismatch,
    MalformedGrid,
    ParseError,
    PdakitError,
    allocating,
    cells,
    index,
    indices,
    int64s,
    json_int,
    read_text,
)
from .pda import STAR, Pda, _binom_up_to, _t_subset_stars

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

    def __eq__(self, other):
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return np.array_equal(self.mask, other.mask)

    def __hash__(self):
        return hash(self.mask.tobytes())

    def __repr__(self):
        return f"AdjacencyMatrix(f={self.f}, k={self.k}, edges={np.count_nonzero(self.mask)})"


def placement_to_adjacency(z: int, f: int, k: int, star_pattern) -> AdjacencyMatrix:
    """Build the mask from per-column star rows.

    star_pattern: sequence of k collections of row indices; each must
    contain exactly z distinct in-range rows, otherwise InvalidPlacement.
    """
    k, f, z = _placement_shape(k, f, z)
    columns = list(star_pattern)
    if len(columns) != k:
        raise InvalidPlacement(f"expected {k} star sets, got {len(columns)}")
    with allocating(_too_large(f, k)):
        mask = np.ones((f, k), dtype=bool)
    stars: list[int] = []  # each column's z star rows in turn, in set order

    def rows_read():
        """The star rows read so far; InvalidPlacement for the first outside [0, f)."""
        try:
            flat = np.array(stars, dtype=np.int64)
        except OverflowError:  # a row past int64, outside as well
            flat = np.array(stars, dtype=object)
        bad = np.flatnonzero((flat < 0) | (flat >= f))
        if bad.size:
            n = bad[0]
            raise InvalidPlacement(f"column {n // z} star row {flat[n]} outside [0, {f})")
        return flat

    for j, rows in enumerate(columns):
        try:
            star_set = set(indices(rows, "star row"))
        except (InvalidParameter, TypeError):
            star_set = None
        if star_set is None or len(star_set) != z:
            rows_read()  # an earlier column's bad row comes first
            if star_set is None:
                raise InvalidPlacement(f"column {j} star rows must be integers")
            raise InvalidPlacement(f"column {j} has {len(star_set)} stars, expected {z}")
        stars += star_set
    mask[rows_read(), np.arange(k).repeat(z)] = False
    return AdjacencyMatrix(mask=mask)


def _placement_shape(k, f, z) -> tuple[int, int, int]:
    """(K, F, Z) read by errors.index; InvalidParameter unless K >= 1, F >= 1 and 0 <= Z <= F."""
    k, f, z = index(k, "k"), index(f, "f"), index(z, "z")
    if k < 1 or f < 1 or not 0 <= z <= f:
        raise InvalidParameter(f"bad placement shape k={k}, f={f}, z={z}")
    return k, f, z


def _too_large(f: int, k: int) -> str:
    return f"the {f} x {k} placement's cells do not fit in memory"


def extract_edge_sequence(a: AdjacencyMatrix) -> tuple[EdgeCell, ...]:
    """Edge cells (i, j) of the mask in canonical column-major order."""
    jj, ii = np.nonzero(a.mask.T)
    return tuple(zip(ii.tolist(), jj.tolist()))


def placement_cells(shape, edges) -> tuple[tuple[int, int], np.ndarray]:
    """The placement rule's checks: (F, K) as read, and the edges' flat indices i*K + j, ascending.

    Allocates nothing sized by the shape, so a graph too large for a dense
    mask is checked here.  The sides are read by errors.indices and the edges
    by errors.cells.  Raises InvalidParameter for a shape that is not two
    sides, has a negative side or more cells than an index can address, and
    for edges that are not integer pairs, fall outside the shape or repeat a cell.
    """
    sides = tuple(indices(shape, "placement side"))
    if len(sides) != 2 or min(sides) < 0:
        raise InvalidParameter(f"placement shape {sides} is not two sides of 0 or more")
    f, k = sides
    if f * k > sys.maxsize:
        raise InvalidParameter(f"placement shape {sides} has more cells than an index can address")
    i, j = cells(edges, "edge", sides).T
    flat = i * k + j
    flat.sort()
    if np.count_nonzero(flat[1:] == flat[:-1]):
        raise InvalidParameter("edges repeat a cell")
    return sides, flat


def edges_to_mask(shape, edges) -> np.ndarray:
    """The placement rule: the F-by-K mask that is True at exactly the edge cells.

    Every path from edges back to a placement goes through here, or through
    placement_cells alone where no dense mask is wanted.  Raises what
    placement_cells raises.
    """
    (f, k), flat = placement_cells(shape, edges)
    with allocating(_too_large(f, k)):
        mask = np.zeros(f * k, dtype=bool)
    mask[flat] = True
    return mask.reshape(f, k)


def assemble_array(
    a: AdjacencyMatrix, e: Sequence[EdgeCell], c: Sequence[int]
) -> np.ndarray:
    """Fill colors into the edge cells, stars elsewhere (candidate array).

    The edges must be exactly the mask's edge cells, in any order.  The
    result is a plain grid; whether it is a valid array is the verifier's
    call, not ours.
    """
    if len(e) != len(c):
        raise LengthMismatch(f"{len(e)} edges but {len(c)} colors")
    i, j = cells(e, "edge", a.mask.shape).T
    if not np.array_equal(np.sort(i * a.k + j), np.flatnonzero(a.mask)):
        raise InvalidParameter("edge sequence does not match the mask")
    grid = np.zeros(a.mask.shape, dtype=np.int64)
    grid[i, j] = int64s(c, "color", start=1)
    return grid


def default_adjacency(k: int, f: int, z: int) -> AdjacencyMatrix:
    """Mask of the default (k, f, z) placement: True at edge cells.

    The classical t-subset placement when the shape matches it exactly
    (t = k*z/f integral and f = C(k, t), so z = C(k-1, t-1)), else a
    balanced cyclic one: column j caches rows (j + m) mod f for m < z.
    """
    k, f, z = _placement_shape(k, f, z)
    with allocating(_too_large(f, k)):
        mask = np.empty((f, k), dtype=bool)
    t = z * k // f
    if z * k % f == 0 and 1 <= t <= k - 1 and _binom_up_to(k, t, f) == f:
        _t_subset_stars(k, t, mask)
        np.logical_not(mask, out=mask)
    else:
        # Cell (i, j) is a star when (i - j) mod f < z.  Entry s of the circulant row
        # tests i - j = f-1-s, so row i is its window at f-1-i: no F x K int temporary.
        circulant = np.arange(f - 1, -k, -1) % f >= z
        mask[:] = np.lib.stride_tricks.sliding_window_view(circulant, k)[::-1]
    return AdjacencyMatrix(mask=mask)


def default_star_pattern(k: int, f: int, z: int) -> tuple[tuple[int, ...], ...]:
    """Per-column star rows of ``default_adjacency(k, f, z)``, ascending: z in each."""
    stars = ~default_adjacency(k, f, z).mask
    return tuple(map(tuple, np.nonzero(stars.T)[1].reshape(k, z).tolist()))


# --- pointer codec ----------------------------------------------------------


def pointer_to_colors(choices: Sequence[int]) -> tuple[int, ...]:
    """Self-pointer mints the next color, back-pointer copies one."""
    colors: list[int] = []
    fresh = 0
    for l, c in enumerate(indices(choices, "pointer")):
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
    for l, c in enumerate(indices(colors, "color")):
        if c in first:
            out.append(first[c])
        elif c == len(first) + 1:
            first[c] = l
            out.append(l)
        else:
            raise BadTarget(f"color {c} at position {l} breaks canonical numbering")
    return tuple(out)


# --- training-pair JSONL --------------------------------------------------
#
# Line 1: {"_meta": {...}} with at least the generating seed.
# Then one object per sample:
#   {"K": int, "F": int, "Z": int, "edges": [[i, j], ...], "colors": [...]}
# Edges are in canonical order; colors pair with them.


@dataclass(frozen=True)
class TrainingPair:
    """One (placement, coloring) sample: edges in canonical order.

    The edges must be a placement's: cells of the F-by-K grid, distinct,
    in column-major order, F - Z of them in every column.
    """

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
        for name, value in zip("kfz", _placement_shape(self.k, self.f, self.z)):
            object.__setattr__(self, name, value)
        degree = self.f - self.z
        if len(self.edges) != self.k * degree:
            raise InvalidParameter(f"edge count {len(self.edges)} is not K(F-Z) = {self.k * degree}")
        a = AdjacencyMatrix(mask=edges_to_mask((self.f, self.k), self.edges))
        edges = extract_edge_sequence(a)
        if tuple(map(tuple, self.edges)) != edges:
            raise InvalidPlacement("edges break column-major order")
        object.__setattr__(self, "edges", edges)
        colors = tuple(int64s(self.colors, "color", start=1).tolist())
        colors_to_pointers(colors)  # BadTarget unless numbered 1, 2, ... in order of first use
        object.__setattr__(self, "colors", colors)
        for j, count in enumerate(a.mask.sum(axis=0).tolist()):
            if count != degree:
                raise InvalidPlacement(f"column {j} has {count} edges, expected F-Z = {degree}")

    def adjacency(self) -> AdjacencyMatrix:
        return AdjacencyMatrix(mask=edges_to_mask((self.f, self.k), self.edges))

    def grid(self) -> np.ndarray:
        return assemble_array(self.adjacency(), self.edges, self.colors)


def training_pair_from_pda(p) -> TrainingPair:
    """An array as a training pair: its canonical edges and the colors in them."""
    if not isinstance(p, Pda):
        p = Pda.from_grid(p)
    a = AdjacencyMatrix(mask=p.grid != STAR)
    colors = tuple(p.grid.T[a.mask.T].tolist())
    return TrainingPair(k=p.k, f=p.f, z=p.z, edges=extract_edge_sequence(a), colors=colors)


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
        k=json_int(obj["K"], "K"),
        f=json_int(obj["F"], "F"),
        z=json_int(obj["Z"], "Z"),
        edges=tuple((json_int(i, "edge row"), json_int(j, "edge column")) for i, j in obj["edges"]),
        colors=tuple(json_int(c, "color") for c in obj["colors"]),
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
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON on corpus line {lineno}: {exc}", line=lineno) from exc
        if lineno == 1 and isinstance(obj, dict) and "_meta" in obj:
            meta = obj["_meta"]
            continue
        try:
            pairs.append(_pair_from_obj(obj))
        except (KeyError, TypeError, ValueError, PdakitError) as exc:
            raise ParseError(
                f"bad sample on corpus line {lineno}: {exc}", line=lineno
            ) from exc
    return meta, pairs
