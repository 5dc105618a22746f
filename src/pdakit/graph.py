"""Colored bipartite graph view of placement delivery arrays.

An array and a colored bipartite graph carry the same information: users
on one side, packet rows on the other, one edge per integer cell.  The
array is valid exactly when every user vertex has the same degree and the
edge coloring is strong (same-colored edges are pairwise non-adjacent and
share no common neighboring edge).  This module converts both ways,
provides a greedy colorer baseline, and subsamples edges per user to mint
new valid arrays from existing ones.  Colorings are checked on the graph's
grid by the pair-condition kernel that ``verify`` runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ColoringViolation,
    DegreeViolation,
    IncompleteColoring,
    InvalidParameter,
    InvalidPda,
    ParseError,
    allocating,
    cells,
    index,
    int64s,
    json_int,
)
from .pda import COND_COLUMN_STARS, STAR, Pda, _pair_kernel, as_grid, verify
from .seqcodec import placement_cells

Edge = tuple[int, int, Optional[int]]


@dataclass(frozen=True)
class BipartiteColoredGraph:
    """Bipartite graph with user vertices 0..k-1, packet vertices 0..f-1.

    Edges are (user, packet, color) with color a positive integer or None
    while uncolored.  Edges are stored sorted by (user, packet); duplicate
    (user, packet) pairs are rejected.
    """

    k: int
    f: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        for name in ("k", "f"):
            object.__setattr__(self, name, index(getattr(self, name), name))
        # the placement rule's checks on (packet, user) cells: in range, integer,
        # no repeats; no dense mask, so a huge declared shape costs nothing
        packet_user = cells([(v, u) for u, v, _ in self.edges], "edge")
        placement_cells((self.f, self.k), packet_user)
        colors = [c for _, _, c in self.edges]
        colored = iter(int64s([c for c in colors if c is not None], "color", start=1).tolist())
        colors = [c if c is None else next(colored) for c in colors]
        edges = zip(packet_user[:, 1].tolist(), packet_user[:, 0].tolist(), colors)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @property
    def n_colors(self) -> int:
        return len({c for _, _, c in self.edges if c is not None})

    def k_degrees(self) -> list[int]:
        deg = [0] * self.k
        for u, _, _ in self.edges:
            deg[u] += 1
        return deg

    def is_fully_colored(self) -> bool:
        return all(c is not None for _, _, c in self.edges)

    @cached_property
    def _strong(self) -> bool:
        """The strong-coloring verdict, worked out once: the graph is frozen."""
        return _pair_kernel(_edge_grid(self))[0]


def pda_to_graph(p) -> BipartiteColoredGraph:
    """One edge (user, row, color) per integer cell; stars give no edge."""
    grid = as_grid(p)
    if not isinstance(p, Pda):
        report = verify(grid)
        if not report.valid:
            raise InvalidPda("array fails validation", report.violations)
    return _grid_to_graph(grid)


def _grid_to_graph(grid: np.ndarray) -> BipartiteColoredGraph:
    """Mechanical cell-to-edge mapping with no validity check."""
    ii, jj = np.nonzero(grid != STAR)
    edges = tuple(zip(jj.tolist(), ii.tolist(), grid[ii, jj].tolist()))
    return BipartiteColoredGraph(k=grid.shape[1], f=grid.shape[0], edges=edges)


def _edge_grid(g: BipartiteColoredGraph) -> np.ndarray:
    """The f-by-k grid of a fully colored graph: edge colors, stars elsewhere.

    Raises InvalidParameter when the grid cannot be allocated.
    """
    if not g.is_fully_colored():
        raise IncompleteColoring("graph has uncolored edges")
    with allocating(f"a {g.f} x {g.k} grid does not fit in memory"):
        grid = np.zeros((g.f, g.k), dtype=np.int64)
    for u, v, c in g.edges:
        grid[v, u] = c
    return grid


def is_strong_coloring(g: BipartiteColoredGraph) -> bool:
    """True iff every same-colored pair is an induced matching.

    For edges (k1,f1), (k2,f2) of equal color this requires k1 != k2,
    f1 != f2, and neither (k1,f2) nor (k2,f1) present in the graph: the
    array pair condition on the graph's grid, checked once per graph.
    """
    return g._strong


def graph_to_pda(g: BipartiteColoredGraph) -> Pda:
    """Inverse of pda_to_graph; requires equal user degrees and a strong coloring.

    Validated once, by Pda.from_grid; a column-star violation is a degree one.
    """
    grid = _edge_grid(g)
    try:
        return Pda.from_grid(grid)
    except InvalidPda as exc:
        if any(v.condition == COND_COLUMN_STARS for v in exc.violations):
            raise DegreeViolation(f"user degrees differ: {sorted(set(g.k_degrees()))}") from None
        raise ColoringViolation("edge coloring is not strong") from None


def greedy_strong_color(
    g: BipartiteColoredGraph, order: str = "lex", seed: Optional[int] = None
) -> BipartiteColoredGraph:
    """Color edges one by one with the smallest color legal at distance two.

    An edge (u, v) conflicts with every colored edge incident to a
    neighbor of u or a neighbor of v; those cover both shared endpoints
    and common third edges.  Ordering policies: "lex" (by user then
    packet, the default, reproducible) or "random" (seeded shuffle).

    State is kept per vertex that has an edge, whatever ``k`` and ``f``
    declare: each such vertex gets a dense id in order of first use, and
    its neighbor list and colors live in plain lists at that id.  The
    colors at a vertex are the set bits of one Python int, so an edge's
    forbidden colors are the OR of its neighbors' ints and its color is
    the lowest clear bit above bit 0.  Always completes; each edge still
    walks both endpoints' neighbors, so it is quadratic in the worst case.
    """
    # g.edges is sorted by (user, packet), so "lex" is position order and
    # shuffling positions permutes exactly as shuffling the sorted edges
    positions = list(range(len(g.edges)))
    if order == "random":
        np.random.default_rng(seed).shuffle(positions)
    elif order != "lex":
        raise InvalidParameter(f"unknown ordering policy {order!r}")

    user_id: dict[int, int] = {}
    packet_id: dict[int, int] = {}
    ends = [(user_id.setdefault(u, len(user_id)), packet_id.setdefault(v, len(packet_id)))
            for u, v, _ in g.edges]
    nbr_of_user: list[list[int]] = [[] for _ in user_id]
    nbr_of_packet: list[list[int]] = [[] for _ in packet_id]
    for u, v in ends:
        nbr_of_user[u].append(v)
        nbr_of_packet[v].append(u)
    at_user = [0] * len(user_id)
    at_packet = [0] * len(packet_id)

    colors = [0] * len(ends)
    for i in positions:
        u, v = ends[i]
        forbidden = 1  # bit 0 set, so color 0 is never picked
        for v2 in nbr_of_user[u]:
            forbidden |= at_packet[v2]
        for u2 in nbr_of_packet[v]:
            forbidden |= at_user[u2]
        bit = ~forbidden & (forbidden + 1)
        colors[i] = bit.bit_length() - 1
        at_user[u] |= bit
        at_packet[v] |= bit

    return BipartiteColoredGraph(
        k=g.k,
        f=g.f,
        edges=tuple((u, v, c) for (u, v, _), c in zip(g.edges, colors)),
    )


def _renumber_canonical(edges: Sequence[Edge]) -> tuple[Edge, ...]:
    """Renumber colors 1..s by first occurrence in (user, packet) order."""
    mapping: dict[int, int] = {}
    out = []
    for u, v, c in sorted(edges):
        if c not in mapping:
            mapping[c] = len(mapping) + 1
        out.append((u, v, mapping[c]))
    return tuple(out)


def subsample(g: BipartiteColoredGraph, delta: int, rng_seed: int) -> BipartiteColoredGraph:
    """Keep delta uniformly chosen edges per user vertex, colors retained.

    Dropping edges cannot break a strong coloring, so the result converts
    to a valid array with z grown to f - delta.  Surviving colors are
    renumbered consecutively.  All randomness comes from rng_seed.
    """
    delta = index(delta, "delta")
    degrees = g.k_degrees()
    if len(set(degrees)) > 1:
        raise DegreeViolation(f"user degrees differ: {sorted(set(degrees))}")
    big_delta = degrees[0] if degrees else 0
    if not 0 < delta < big_delta:
        raise InvalidParameter(
            f"delta={delta} outside open range (0, {big_delta})"
        )
    if not is_strong_coloring(g):
        raise ColoringViolation("edge coloring is not strong")
    rng = np.random.default_rng(rng_seed)
    kept: list[Edge] = []
    for u in range(g.k):
        # Edges are sorted by user and every user has big_delta of them.
        members = g.edges[u * big_delta:(u + 1) * big_delta]
        idx = rng.choice(big_delta, size=delta, replace=False)
        kept.extend(members[i] for i in sorted(idx.tolist()))
    return BipartiteColoredGraph(k=g.k, f=g.f, edges=_renumber_canonical(kept))


# --- JSON format ----------------------------------------------------------
#
# {"k": int, "f": int, "edges": [[user, packet, color-or-null], ...]}
# Edges are written sorted by (user, packet).  An optional "meta" object
# carries seed/config provenance; unknown keys are ignored on read.


def graph_to_json(g: BipartiteColoredGraph, meta: Optional[dict] = None) -> str:
    doc = {
        "k": g.k,
        "f": g.f,
        "edges": [[u, v, c] for u, v, c in g.edges],
    }
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def graph_from_json(text: str) -> BipartiteColoredGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad graph JSON: {exc}") from exc
    try:
        edges = tuple(
            (json_int(u, "user"), json_int(v, "packet"), None if c is None else json_int(c, "color"))
            for u, v, c in doc["edges"]
        )
        return BipartiteColoredGraph(k=json_int(doc["k"], "k"), f=json_int(doc["f"], "f"), edges=edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON structure: {exc}") from exc
