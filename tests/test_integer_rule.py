"""errors.index is the one rule for an integer a caller hands the library.

Each site below reads one caller integer.  Whatever the site, the rule
refuses what int() would truncate or parse and what bool would pass as,
and takes a numpy integer exactly as the Python one.
"""

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
from pdakit.errors import InvalidParameter, InvalidPlacement
from pdakit.graph import BipartiteColoredGraph
from pdakit.neural.net import (
    Episode,
    colors_to_pointers,
    pointer_to_colors,
    reinforce_objective_and_grad,
    sequence_logprobs,
)
from pdakit.neural.params import ModelConfig, ModelParams
from pdakit.pda import STAR, Pda, construct_mn_pda, pda_to_text, verify
from pdakit.seqcodec import (
    TrainingPair,
    assemble_array,
    default_adjacency,
    extract_edge_sequence,
    pda_to_adjacency,
    placement_to_adjacency,
)

S = STAR
CROSS = Pda.from_grid([[S, 1], [1, S]])
CROSS_MASK = pda_to_adjacency(CROSS)
CROSS_EDGES = extract_edge_sequence(CROSS_MASK)
MN = construct_mn_pda(3, 1)
LIB = FileLibrary.random(2, 2, packet_size=4)
PARAMS = ModelParams.init(ModelConfig(f_max=2, k_max=2, embed_dim=3, hidden_dim=4), seed=1)


def _table(t: Transcript):
    return t.payloads.tobytes(), t.files.tolist(), t.rows.tolist(), t.starts.tolist()


def _episode(choices) -> Episode:
    return Episode(f=2, k=2, edges=CROSS_EDGES, choices=choices, colors=(1, 2), logprob=-1.0,
                   reward=1, use_mask=False)


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
    ("BipartiteColoredGraph color",
     lambda x: BipartiteColoredGraph(k=2, f=2, edges=((0, 1, x), (1, 0, 1))), 1),
    ("pointer_to_colors", lambda x: pointer_to_colors((0, x)), 1),
    ("colors_to_pointers", lambda x: colors_to_pointers((1, x)), 1),
    ("sequence_logprobs pointer",
     lambda x: sequence_logprobs([((2, 2), CROSS_EDGES, (0, x), False)], PARAMS).tolist(), 1),
    ("reinforce_objective_and_grad pointer",
     lambda x: reinforce_objective_and_grad([_episode((0, x))], PARAMS)[0], 1),
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
