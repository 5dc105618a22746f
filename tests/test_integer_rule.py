"""errors.index is the one rule for an integer a caller hands the library.

Each site below reads one caller integer.  Whatever the site, the rule
refuses what int() would truncate or parse and what bool would pass as,
and takes a numpy integer exactly as the Python one.  errors.cells is the
same rule for a caller's (i, j) cells, and the cell sites below read by it.
errors.int64s is its array form, and every site that reads a color or a grid
entry reads it by that rule, bounded to int64.
"""

import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from pdakit.cachesim import (
    Broadcast,
    DemandVector,
    FileLibrary,
    Transcript,
    decode,
    deliver,
    measure,
    place,
)
from pdakit.errors import (
    InvalidParameter,
    InvalidPlacement,
    PdakitError,
    VocabularyError,
    cells,
)
from pdakit.graph import BipartiteColoredGraph, pda_to_graph, subsample
from pdakit.neural.net import (
    Episode,
    colors_to_pointers,
    pointer_to_colors,
    reinforce_objective_and_grad,
    sequence_logprobs,
)
from pdakit.neural.params import ModelConfig, ModelParams
from pdakit.neural.train import TrainConfig
from pdakit.pda import STAR, Pda, as_grid, construct_mn_pda, parse_pda_text, pda_to_text, verify
from pdakit.seqcodec import (
    TrainingPair,
    assemble_array,
    default_adjacency,
    edges_to_mask,
    extract_edge_sequence,
    pda_to_adjacency,
    placement_to_adjacency,
    read_corpus,
)

S = STAR
CROSS = Pda.from_grid([[S, 1], [1, S]])
CROSS_MASK = pda_to_adjacency(CROSS)
CROSS_EDGES = extract_edge_sequence(CROSS_MASK)
MN = construct_mn_pda(3, 1)
MN_GRAPH = pda_to_graph(MN)
LIB = FileLibrary.random(2, 2, packet_size=4)
PARAMS = ModelParams.init(ModelConfig(f_max=2, k_max=2, embed_dim=3, hidden_dim=4), seed=1)


def _table(t: Transcript):
    return t.payloads.tobytes(), t.files.tolist(), t.rows.tolist(), t.starts.tolist()


def _episode(choices, f=2, use_mask=False) -> Episode:
    return Episode(f=f, k=2, edges=CROSS_EDGES, choices=choices, colors=(1, 2), logprob=-1.0,
                   reward=1, use_mask=use_mask)


# (site, call with the caller's integer x in one place, a value x that works there)
SITES = [
    ("FileLibrary.packet file", lambda x: LIB.packet(x, 0), 1),
    ("FileLibrary.packet row", lambda x: LIB.packet(1, x), 1),
    ("FileLibrary.file_bytes", lambda x: LIB.file_bytes(x), 1),
    ("FileLibrary.random n_files", lambda x: FileLibrary.random(x, 2).data.tobytes(), 1),
    ("FileLibrary.random f", lambda x: FileLibrary.random(2, x).data.tobytes(), 1),
    ("FileLibrary.random packet_size", lambda x: FileLibrary.random(2, 2, x).data.tobytes(), 1),
    ("DemandVector", lambda x: DemandVector(d=(x, 2)).d, 1),
    ("decode user", lambda x: decode(x, place(CROSS, LIB)[1], deliver(CROSS, LIB, (1, 2)),
                                     (1, 2), CROSS), 1),
    ("Transcript slot", lambda x: _table(Transcript([Broadcast(x, b"ab", ((2, 1),))])), 1),
    ("Transcript file", lambda x: _table(Transcript([Broadcast(1, b"ab", ((x, 1),))])), 1),
    ("Transcript row", lambda x: _table(Transcript([Broadcast(1, b"ab", ((2, x),))])), 1),
    ("measure trials", lambda x: measure(CROSS, trials=x), 1),
    ("measure n_files", lambda x: measure(CROSS, trials=2, n_files=x), 1),
    ("construct_mn_pda k_users", lambda x: construct_mn_pda(x, 1), 2),
    ("construct_mn_pda t", lambda x: construct_mn_pda(3, x), 1),
    ("verify z", lambda x: verify(MN.grid, z=x).z, 1),
    ("Pda.from_grid z", lambda x: pda_to_text(Pda.from_grid(MN.grid, z=x)), 1),
    ("default_adjacency k", lambda x: default_adjacency(x, 2, 1), 1),
    ("default_adjacency f", lambda x: default_adjacency(2, x, 1), 1),
    ("default_adjacency z", lambda x: default_adjacency(2, 2, x), 1),
    ("placement_to_adjacency z", lambda x: placement_to_adjacency(x, 2, 2, [[1], [0]]), 1),
    ("placement_to_adjacency star row",
     lambda x: placement_to_adjacency(1, 2, 2, [[x], [0]]), 1),
    ("assemble_array color", lambda x: assemble_array(CROSS_MASK, CROSS_EDGES, (x, 1)).tolist(), 1),
    ("TrainingPair k", lambda x: TrainingPair(k=x, f=1, z=0, edges=((0, 0),), colors=(1,)), 1),
    ("TrainingPair f", lambda x: TrainingPair(k=1, f=x, z=0, edges=((0, 0),), colors=(1,)), 1),
    ("TrainingPair z", lambda x: TrainingPair(k=1, f=2, z=x, edges=((0, 0),), colors=(1,)), 1),
    ("TrainingPair color",
     lambda x: TrainingPair(k=2, f=2, z=1, edges=CROSS_EDGES, colors=(x, 1)), 1),
    ("BipartiteColoredGraph color",
     lambda x: BipartiteColoredGraph(k=2, f=2, edges=((0, 1, x), (1, 0, 1))), 1),
    ("BipartiteColoredGraph k",
     lambda x: BipartiteColoredGraph(k=x, f=2, edges=((0, 1, 1), (1, 0, 1))), 2),
    ("BipartiteColoredGraph f",
     lambda x: BipartiteColoredGraph(k=2, f=x, edges=((0, 1, 1), (1, 0, 1))), 2),
    ("subsample delta", lambda x: subsample(MN_GRAPH, x, 0), 1),
    ("pointer_to_colors", lambda x: pointer_to_colors((0, x)), 1),
    ("colors_to_pointers", lambda x: colors_to_pointers((1, x)), 1),
    ("sequence_logprobs pointer",
     lambda x: sequence_logprobs([((2, 2), CROSS_EDGES, (0, x), False)], PARAMS).tolist(), 1),
    ("reinforce_objective_and_grad pointer",
     lambda x: reinforce_objective_and_grad([_episode((0, x))], PARAMS)[0], 1),
    ("Episode f", lambda x: reinforce_objective_and_grad([_episode((0, 1), x, True)], PARAMS)[0],
     2),
    ("sequence_logprobs shape",
     lambda x: sequence_logprobs([((x, 2), CROSS_EDGES, (0, 1), True)], PARAMS).tolist(), 2),
    ("ModelConfig f_max", lambda x: ModelConfig(f_max=x, k_max=2, embed_dim=3, hidden_dim=4), 1),
    ("ModelConfig k_max", lambda x: ModelConfig(f_max=2, k_max=x, embed_dim=3, hidden_dim=4), 1),
    ("ModelConfig embed_dim",
     lambda x: ModelConfig(f_max=2, k_max=2, embed_dim=x, hidden_dim=4), 1),
    ("ModelConfig hidden_dim",
     lambda x: ModelConfig(f_max=2, k_max=2, embed_dim=3, hidden_dim=x), 1),
    ("TrainConfig supervised_epochs",
     lambda x: TrainConfig(f_max=2, k_max=2, supervised_epochs=x), 1),
    ("TrainConfig reinforce_epochs",
     lambda x: TrainConfig(f_max=2, k_max=2, reinforce_epochs=x), 1),
    ("TrainConfig batch_size", lambda x: TrainConfig(f_max=2, k_max=2, batch_size=x), 1),
]

REFUSED = {
    "half": lambda v: v + 0.5,
    "float": lambda v: np.float64(v),
    "bool": lambda v: True,
    "str": lambda v: str(v),
}


@pytest.mark.parametrize("kind", sorted(REFUSED))
def test_every_site_reads_its_integer_by_the_one_rule(kind):
    # With v = 1 the refused values are 1.5, np.float64(1.0), True and "1":
    # int() would take each of them as 1, a value the site accepts.
    for site, call, v in SITES:
        x = REFUSED[kind](v)
        expected = InvalidPlacement if site == "placement_to_adjacency star row" else InvalidParameter
        with pytest.raises(expected):
            call(x)
            pytest.fail(f"{site} took {x!r}")
        assert call(np.int64(v)) == call(v), site


def _cross(x, position):
    """CROSS's edge cells ((1, 0), (0, 1)) with x for the 1 at a row (0) or column (1) position."""
    return ((x, 0), (0, 1)) if position == 0 else ((1, 0), (0, x))


# (site, call with the caller's (row, column) cells, what a refused cell raises)
CELL_SITES = [
    ("edges_to_mask", lambda e: edges_to_mask((2, 2), e).tolist(), InvalidParameter),
    ("assemble_array", lambda e: assemble_array(CROSS_MASK, e, (1, 1)).tolist(), InvalidParameter),
    ("BipartiteColoredGraph packet and user",
     lambda e: BipartiteColoredGraph(k=2, f=2, edges=tuple((j, i, 1) for i, j in e)),
     InvalidParameter),
    ("TrainingPair edges",
     lambda e: TrainingPair(k=2, f=2, z=1, edges=e, colors=(1, 1)), InvalidParameter),
    ("Transcript contributor", lambda e: _table(Transcript([Broadcast(1, b"ab", e)])),
     InvalidParameter),
    ("sequence_logprobs masked",
     lambda e: sequence_logprobs([((2, 2), e, (0, 1), True)], PARAMS).tolist(), InvalidParameter),
    ("sequence_logprobs unmasked",
     lambda e: sequence_logprobs([((2, 2), e, (0, 1), False)], PARAMS).tolist(), VocabularyError),
]


@pytest.mark.parametrize("site, call, error", CELL_SITES, ids=[site for site, _, _ in CELL_SITES])
def test_every_cell_site_reads_its_cells_by_the_one_rule(site, call, error):
    # errors.cells is index's rule for a sequence of cells: a mixed tuple must
    # not pass True as 1, and an index past int64 is an input error.
    for position in (0, 1):
        for x in (True, 1.5, np.float64(1.0), "1"):
            with pytest.raises(error, match="is not an integer"):
                call(_cross(x, position))
                pytest.fail(f"{site} took {x!r}")
        assert call(_cross(np.int64(1), position)) == call(_cross(1, position)), site
        with pytest.raises(PdakitError):
            call(_cross(2**70, position))


def test_a_cell_is_a_pair_of_two_in_order():
    # A set or a dict has two elements but no (i, j) order of its own.
    for pairs in ([{0, 1}], [{0: 1, 1: 0}], [(0, 1, 1)], [(0,)], [(0, 1), (1,)], [5], 5,
                  [np.array(1)]):
        with pytest.raises(InvalidParameter, match=r"must be \(i, j\) pairs"):
            cells(pairs, "edge")
    Edge = namedtuple("Edge", "i j")
    rows = [Edge(1, 0), [0, 1], np.array([1, 1], dtype=np.int32)]
    assert cells(rows, "edge").tolist() == [[1, 0], [0, 1], [1, 1]]
    assert cells((), "edge").shape == (0, 2)


def _corpus_pairs(colors):
    """The samples read back from a corpus whose one sample is the cross with these colors."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text('{"_meta": {}}\n{"K": 2, "F": 2, "Z": 1, "edges": [[1, 0], [0, 1]], '
                        f'"colors": [{", ".join(map(str, colors))}]}}\n')
        return read_corpus(path)[1]


PAST_INT64 = (2**63, 2**70)

# (site, call with a caller's color or grid entry x, whether x must be positive,
#  the largest x the site takes, the values past int64 the call can hand the site)
COLOR_SITES = [
    ("as_grid list", lambda x: as_grid([[x, S], [S, x]]).tolist(), False, 2**63 - 1, PAST_INT64),
    ("as_grid uint64 array",
     lambda x: as_grid(np.array([[x, S], [S, x]], dtype=np.uint64)).tolist(), False, 2**63 - 1,
     (2**63, 2**64 - 1)),
    (".pda text", lambda x: parse_pda_text(f"2 2 1 1\n* {x}\n{x} *\n")[0].tolist(), True,
     2**63 - 1, PAST_INT64),
    ("graph color", lambda x: BipartiteColoredGraph(k=2, f=2, edges=((0, 1, x), (1, 0, 1))).edges,
     True, 2**63 - 1, PAST_INT64),
    ("assemble_array", lambda x: assemble_array(CROSS_MASK, CROSS_EDGES, (x, 1)).tolist(), True,
     2**63 - 1, PAST_INT64),
    # a pair's colors are numbered 1, 2, ... in order of first use, so 2 is its largest second color
    ("TrainingPair", lambda x: TrainingPair(k=2, f=2, z=1, edges=CROSS_EDGES, colors=(1, x)).colors,
     True, 2, PAST_INT64),
    ("corpus line", lambda x: _corpus_pairs((1, x)), True, 2, PAST_INT64),
]


@pytest.mark.parametrize("site, call, positive, largest, past", COLOR_SITES,
                         ids=[site for site, *_ in COLOR_SITES])
def test_every_color_site_reads_its_colors_by_the_one_rule(site, call, positive, largest, past):
    # A color past int64 is an input error, not an OverflowError or a wrapped
    # negative; where 0 is no star, it is no color either.
    for x in past:
        with pytest.raises(PdakitError):
            call(x)
            pytest.fail(f"{site} took {x}")
    if positive:
        with pytest.raises(PdakitError):
            call(0)
            pytest.fail(f"{site} took 0")
    for v in (1, largest):
        assert call(np.int64(v)) == call(v), site
