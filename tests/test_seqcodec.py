import json

import numpy as np
import pytest

from pdakit.errors import (
    InvalidParameter,
    InvalidPlacement,
    LengthMismatch,
    MalformedGrid,
    ParseError,
)
from pdakit.pda import STAR, Pda, construct_mn_pda, verify
from pdakit.seqcodec import (
    AdjacencyMatrix,
    TrainingPair,
    assemble_array,
    default_star_pattern,
    extract_edge_sequence,
    pda_to_adjacency,
    placement_to_adjacency,
    read_corpus,
    sequences_from_pda,
    training_pair_from_pda,
    write_corpus,
)

import oracles

S = STAR


def mask(rows):
    return AdjacencyMatrix(mask=np.array(rows, dtype=bool))


class TestAdjacency:
    def test_two_by_two_cross_placement(self):
        a = placement_to_adjacency(1, 2, 2, [{0}, {1}])
        assert np.array_equal(a.mask, [[False, True], [True, False]])
        assert a.edge_count == 2

    def test_everything_cached(self):
        a = placement_to_adjacency(2, 2, 3, [{0, 1}] * 3)
        assert not a.mask.any()
        assert a.edge_count == 0

    def test_nothing_cached(self):
        a = placement_to_adjacency(0, 2, 3, [set(), set(), set()])
        assert a.mask.all()

    def test_wrong_star_count_rejected(self):
        with pytest.raises(InvalidPlacement):
            placement_to_adjacency(2, 3, 2, [{0, 1}, {0}])

    def test_duplicate_rows_shrink_the_set(self):
        with pytest.raises(InvalidPlacement):
            placement_to_adjacency(2, 3, 1, [[0, 0]])

    def test_row_out_of_range_rejected(self):
        with pytest.raises(InvalidPlacement):
            placement_to_adjacency(1, 2, 1, [{5}])

    def test_wrong_column_count_rejected(self):
        with pytest.raises(InvalidPlacement):
            placement_to_adjacency(1, 2, 3, [{0}, {1}])

    def test_mask_requires_bool(self):
        with pytest.raises(MalformedGrid):
            AdjacencyMatrix(mask=np.zeros((2, 2), dtype=np.int64))

    def test_mask_immutable(self):
        a = mask([[True]])
        with pytest.raises(ValueError):
            a.mask[0, 0] = False

    def test_from_pda(self):
        a = pda_to_adjacency(Pda.from_grid([[S, 1], [1, S]]))
        assert np.array_equal(a.mask, [[False, True], [True, False]])


class TestEdgeSequence:
    def test_column_major_order(self):
        a = mask([[False, True], [True, False]])
        assert extract_edge_sequence(a) == ((1, 0), (0, 1))

    def test_empty_when_fully_cached(self):
        assert extract_edge_sequence(mask([[False], [False]])) == ()

    def test_single_cell(self):
        assert extract_edge_sequence(mask([[True]])) == ((0, 0),)

    def test_length_is_users_times_uncached_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = int(rng.integers(1, 7))
            k = int(rng.integers(1, 7))
            z = int(rng.integers(0, f + 1))
            pattern = [
                sorted(int(x) for x in rng.choice(f, size=z, replace=False))
                for _ in range(k)
            ]
            a = placement_to_adjacency(z, f, k, pattern)
            assert len(extract_edge_sequence(a)) == k * (f - z)

    def test_groups_each_users_edges_contiguously(self):
        a = placement_to_adjacency(1, 3, 3, [{0}, {1}, {2}])
        cols = [j for _, j in extract_edge_sequence(a)]
        assert cols == sorted(cols)


class TestAssemble:
    def test_both_two_by_two_colorings(self):
        a = mask([[False, True], [True, False]])
        e = extract_edge_sequence(a)
        same = assemble_array(a, e, (1, 1))
        assert np.array_equal(same, [[S, 1], [1, S]])
        assert verify(same).valid and oracles.oracle_verify(same)
        fresh = assemble_array(a, e, (1, 2))
        assert verify(fresh).valid and oracles.oracle_verify(fresh)

    def test_invalid_coloring_still_assembles(self):
        a = mask([[True, True]])
        grid = assemble_array(a, extract_edge_sequence(a), (1, 1))
        assert np.array_equal(grid, [[1, 1]])
        assert not verify(grid).valid
        assert not oracles.oracle_verify(grid)

    def test_length_mismatch(self):
        a = mask([[True, True]])
        with pytest.raises(LengthMismatch):
            assemble_array(a, extract_edge_sequence(a), (1,))

    def test_edges_must_match_mask(self):
        a = mask([[True, False]])
        with pytest.raises(InvalidParameter):
            assemble_array(a, ((0, 1),), (1,))

    def test_colors_must_be_positive(self):
        a = mask([[True]])
        with pytest.raises(InvalidParameter):
            assemble_array(a, ((0, 0),), (0,))

    def test_round_trip_over_classical_arrays(self):
        for k in range(2, 8):
            for t in range(1, k):
                p = construct_mn_pda(k, t)
                a, e, c = sequences_from_pda(p)
                assert len(e) == p.k * (p.f - p.z)
                assert np.array_equal(assemble_array(a, e, c), p.grid)

    def test_distinct_colors_give_distinct_arrays(self):
        a = pda_to_adjacency(construct_mn_pda(4, 2))
        e = extract_edge_sequence(a)
        rng = np.random.default_rng(5)
        seen = {}
        for _ in range(40):
            c = tuple(int(x) for x in rng.integers(1, 4, size=len(e)))
            key = assemble_array(a, e, c).tobytes()
            assert seen.setdefault(key, c) == c
        assert len(seen) > 1


class TestDefaultPattern:
    def test_matches_classical_placement_when_shape_fits(self):
        p = construct_mn_pda(4, 2)
        pattern = default_star_pattern(4, p.f, p.z)
        assert pattern == tuple(p.star_rows(j) for j in range(4))

    def test_cyclic_fallback(self):
        assert default_star_pattern(3, 4, 2) == ((0, 1), (1, 2), (2, 3))

    def test_cyclic_wraps(self):
        # (4, 4, 2) misses the classical shape, so the cyclic rule applies
        assert default_star_pattern(4, 4, 2)[3] == (0, 3)

    def test_extremes(self):
        assert default_star_pattern(2, 3, 0) == ((), ())
        assert default_star_pattern(2, 3, 3) == ((0, 1, 2), (0, 1, 2))

    def test_always_a_legal_placement(self):
        for k in range(1, 7):
            for f in range(1, 7):
                for z in range(0, f + 1):
                    a = placement_to_adjacency(z, f, k, default_star_pattern(k, f, z))
                    assert a.edge_count == k * (f - z)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidParameter):
            default_star_pattern(2, 3, 4)


class TestCorpus:
    def make_pairs(self):
        return [
            training_pair_from_pda(construct_mn_pda(3, 1)),
            training_pair_from_pda(construct_mn_pda(3, 2)),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        pairs = self.make_pairs()
        n = write_corpus(path, pairs, meta={"seed": 7})
        assert n == 2
        meta, back = read_corpus(path)
        assert meta == {"seed": 7}
        assert back == pairs

    def test_pair_reconstructs_source(self):
        p = construct_mn_pda(4, 2)
        pair = training_pair_from_pda(p)
        assert np.array_equal(pair.grid(), p.grid)
        assert pair.z == p.z

    def test_zero_samples_keeps_meta_line(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_corpus(path, [], meta={"seed": 0}) == 0
        assert path.read_text().count("\n") == 1
        meta, pairs = read_corpus(path)
        assert meta == {"seed": 0} and pairs == []

    def test_identical_bytes_for_identical_input(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(p1, self.make_pairs(), meta={"seed": 1})
        write_corpus(p2, self.make_pairs(), meta={"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_key_layout(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_corpus(path, [training_pair_from_pda([[S, 1], [1, S]])], meta={})
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"_meta": {}}
        obj = json.loads(lines[1])
        assert list(obj) == ["K", "F", "Z", "edges", "colors"]
        assert obj["edges"] == [[1, 0], [0, 1]]
        assert obj["colors"] == [1, 1]

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"_meta": {}}\n{oops\n')
        with pytest.raises(ParseError) as info:
            read_corpus(path)
        assert info.value.line == 2

    def test_pair_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            TrainingPair(k=1, f=2, z=1, edges=((0, 0),), colors=(1, 2))

    def test_pair_edge_count_checked(self):
        with pytest.raises(InvalidParameter):
            TrainingPair(k=2, f=2, z=1, edges=((0, 0),), colors=(1,))
