import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pdakit.errors import (
    BadTarget,
    InvalidParameter,
    InvalidPlacement,
    LengthMismatch,
    MalformedGrid,
    ParseError,
    PdakitError,
)
from pdakit.neural import ModelConfig, ModelParams, pointer_to_colors, sequence_logprob
from pdakit.pda import STAR, Pda, construct_mn_pda, verify
from pdakit.seqcodec import (
    AdjacencyMatrix,
    TrainingPair,
    assemble_array,
    default_adjacency,
    default_star_pattern,
    edges_to_mask,
    extract_edge_sequence,
    placement_to_adjacency,
    read_corpus,
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
        assert repr(a) == "AdjacencyMatrix(f=2, k=2, edges=2)"

    def test_everything_cached(self):
        a = placement_to_adjacency(2, 2, 3, [{0, 1}] * 3)
        assert not a.mask.any()
        assert repr(a) == "AdjacencyMatrix(f=2, k=3, edges=0)"

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

    def test_the_first_bad_column_is_named(self):
        # columns are checked in order, each for integers, its count, then its rows' range
        for pattern, message in (
            ([[0], [5], [0, 1]], "column 1 star row 5 outside"),
            ([[0], [-1], ["1"]], "column 1 star row -1 outside"),
            ([[2**70], [0], ["1"]], f"column 0 star row {2**70} outside"),
            ([[1], [0, 1], [7]], "column 1 has 2 stars"),
            ([[1], [0.5], [7]], "column 1 star rows must be integers"),
        ):
            with pytest.raises(InvalidPlacement, match=message):
                placement_to_adjacency(1, 2, 3, pattern)

    def test_wrong_column_count_rejected(self):
        with pytest.raises(InvalidPlacement):
            placement_to_adjacency(1, 2, 3, [{0}, {1}])

    def test_non_integer_star_rows_rejected(self):
        # int() would truncate these to a valid-looking row.
        for pattern in ([[1.5], [0]], [[np.float64(0.9)], [1]], [["1"], [0]]):
            with pytest.raises(InvalidPlacement, match="column 0 star rows must be integers"):
                placement_to_adjacency(1, 2, 2, pattern)
        a = placement_to_adjacency(1, 2, 2, [np.array([1]), [np.int64(0)]])
        assert np.array_equal(a.mask, [[True, False], [False, True]])

    def test_mask_requires_bool(self):
        with pytest.raises(MalformedGrid):
            AdjacencyMatrix(mask=np.zeros((2, 2), dtype=np.int64))

    def test_mask_immutable(self):
        a = mask([[True]])
        with pytest.raises(ValueError):
            a.mask[0, 0] = False

    def test_from_pda(self):
        a = training_pair_from_pda(Pda.from_grid([[S, 1], [1, S]])).adjacency()
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
        # four edges for four cells, but a repeat, a negative row, a row past F,
        # a float row or a cell that is no pair
        full = mask([[True, True], [True, True]])
        for e in (((0, 0), (0, 0), (1, 1), (1, 1)), ((0, 0), (0, 1), (1, 0), (-1, 0)),
                  ((5, 0), (0, 1), (1, 0), (1, 1)), ((0.5, 0), (0, 1), (1, 0), (1, 1)),
                  ((0, 0), (0, 1), (1, 0), (1,))):
            with pytest.raises(InvalidParameter):
                assemble_array(full, e, (1, 2, 3, 4))

    def test_colors_must_be_positive(self):
        a = mask([[True]])
        with pytest.raises(InvalidParameter):
            assemble_array(a, ((0, 0),), (0,))

    def test_round_trip_over_classical_arrays(self):
        for k in range(2, 8):
            for t in range(1, k):
                p = construct_mn_pda(k, t)
                pair = training_pair_from_pda(p)
                a, e, c = pair.adjacency(), pair.edges, pair.colors
                assert len(e) == p.k * (p.f - p.z)
                assert np.array_equal(assemble_array(a, e, c), p.grid)

    def test_distinct_colors_give_distinct_arrays(self):
        a = training_pair_from_pda(construct_mn_pda(4, 2)).adjacency()
        e = extract_edge_sequence(a)
        rng = np.random.default_rng(5)
        seen = {}
        for _ in range(40):
            c = tuple(int(x) for x in rng.integers(1, 4, size=len(e)))
            key = assemble_array(a, e, c).tobytes()
            assert seen.setdefault(key, c) == c
        assert len(seen) > 1


class TestEdgesToMask:
    def test_inverts_the_edge_sequence(self):
        for k in range(2, 6):
            for t in range(1, k):
                a = training_pair_from_pda(construct_mn_pda(k, t)).adjacency()
                edges = extract_edge_sequence(a)
                assert np.array_equal(edges_to_mask((a.f, a.k), edges), a.mask)
                assert np.array_equal(edges_to_mask((a.f, a.k), edges[::-1]), a.mask)
        assert edges_to_mask((0, 0), ()).shape == (0, 0)

    @pytest.mark.parametrize("shape, edges", [
        ((2, 2), ((2, 0),)),            # row past F
        ((2, 2), ((0, -1),)),           # negative column
        ((2, 2), ((1, 1), (1, 1))),     # repeated cell
        ((2, 2), ((1.0, 1),)),          # float row
        ((2, 2), ((1, 1, 0),)),         # not a pair
        ((2, 2), ((True, False),)),     # boolean cell
        ((-1, 2), ()),                  # negative side
    ])
    def test_rejects_edges_that_are_no_placement(self, shape, edges):
        with pytest.raises(InvalidParameter):
            edges_to_mask(shape, edges)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2,), ()])
    def test_a_shape_that_is_not_two_sides_is_refused(self, shape):
        with pytest.raises(InvalidParameter, match="is not two sides"):
            edges_to_mask(shape, [])


class TestPlacementFuzz:
    """Edge lists with repeats, negatives, out-of-range cells and floats either
    work or raise a PdakitError at every entry point that reads a placement."""

    RUNS = 300

    @staticmethod
    def mutate(edges, rng, f, k):
        n = int(rng.integers(len(edges) + 1))
        op = int(rng.integers(5))
        i, j = int(rng.integers(f)), int(rng.integers(k))
        if op == 0 and edges:
            cell = edges[int(rng.integers(len(edges)))]          # a repeat
        elif op == 1:
            cell = (-1, j) if rng.random() < 0.5 else (i, -1)   # a negative index
        elif op == 2:
            cell = (f, j) if rng.random() < 0.5 else (i, k)     # past the shape
        elif op == 3:
            cell = (i + 0.5 * int(rng.integers(2)), j)          # a float row
        else:
            cell = (i, j)
        if edges and rng.random() < 0.5:
            edges[min(n, len(edges) - 1)] = cell
        else:
            edges.insert(n, cell)

    def test_every_call_returns_or_raises_a_pdakit_error(self):
        rng = np.random.default_rng(2028)
        params = ModelParams.init(ModelConfig(f_max=5, k_max=5, embed_dim=2, hidden_dim=3), seed=0)
        returned = Counter()
        for _ in range(self.RUNS):
            f, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            z = int(rng.integers(f + 1))
            pattern = [rng.choice(f, size=z, replace=False) for _ in range(k)]
            a = placement_to_adjacency(z, f, k, pattern)
            edges = list(extract_edge_sequence(a))
            for _ in range(int(rng.integers(3))):
                self.mutate(edges, rng, f, k)
            choices = [t if rng.random() < 0.6 else int(rng.integers(t + 1))
                       for t in range(len(edges))]
            colors = pointer_to_colors(choices)
            calls = {
                "assemble": lambda: assemble_array(a, edges, colors),
                "pair": lambda: TrainingPair(k=k, f=f, z=z, edges=tuple(edges), colors=colors),
                "logprob": lambda: sequence_logprob((f, k), edges, choices, params, True),
            }
            for name, call in calls.items():
                try:
                    call()
                except PdakitError:
                    continue
                returned[name] += 1
        assert min(returned[name] for name in calls) > 0, returned


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
                    assert np.count_nonzero(a.mask) == k * (f - z)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidParameter):
            default_star_pattern(2, 3, 4)

    def test_matches_the_oracle(self):
        # Every small shape, every t-subset shape up to K=14, and the cyclic
        # F=16, Z=12 shapes the benchmark colors.
        shapes = [(k, f, z) for k in range(1, 15) for f in range(1, 41) for z in range(f + 1)]
        shapes += [(k, math.comb(k, t), math.comb(k - 1, t - 1))
                   for k in range(2, 15) for t in range(1, k)]
        shapes += [(k, 16, 12) for k in (16, 32, 64, 128, 256, 512, 1024)]
        for k, f, z in shapes:
            stars = oracles.default_stars(k, f, z)
            a = default_adjacency(k, f, z)
            assert set(zip(*np.nonzero(~a.mask))) == stars, (k, f, z)
            assert default_star_pattern(k, f, z) == tuple(
                tuple(i for i in range(f) if (i, j) in stars) for j in range(k))

    def test_large_shapes_compute_no_binomial(self, monkeypatch):
        # f = C(k, t) is decided by a lower bound on C(k, t); at K in the
        # millions the binomial itself takes minutes.
        def refuse(*args):
            raise AssertionError("math.comb called")

        monkeypatch.setattr(math, "comb", refuse)
        for k in (10**6, 4 * 10**6):
            a = default_adjacency(k, 2, 1)
            assert np.count_nonzero(a.mask) == k
            assert not a.mask[0, ::2].any() and a.mask[0, 1::2].all()

    def test_peak_memory_is_the_mask_and_its_copy(self):
        f, k = 2000, 2000
        tracemalloc.start()
        try:
            default_adjacency(k, f, 700)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * f * k

    def test_t_subset_peak_memory_is_the_mask_and_its_copy(self):
        # MN(12,6)'s placement: the stars are written into the mask, with no
        # colored array built to read them from.
        f, k = 924, 12
        tracemalloc.start()
        try:
            a = default_adjacency(k, f, 462)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(~a.mask, construct_mn_pda(12, 6).grid == STAR)
        assert peak <= 2.5 * f * k


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

    def test_a_corpus_of_numpy_integers_reads_back(self, tmp_path):
        # A pair stores what the rules return, so write_corpus meets no numpy
        # integer and read_corpus gets back the pair it was given.
        path = tmp_path / "corpus.jsonl"
        pair = training_pair_from_pda(construct_mn_pda(3, 1))
        i64 = np.int64
        numpy_pair = TrainingPair(k=i64(pair.k), f=i64(pair.f), z=i64(pair.z),
                                  edges=tuple((i64(i), i64(j)) for i, j in pair.edges),
                                  colors=tuple(map(i64, pair.colors)))
        write_corpus(path, [numpy_pair])
        assert read_corpus(path)[1] == [pair]

    def test_pair_reconstructs_source(self):
        p = construct_mn_pda(4, 2)
        pair = training_pair_from_pda(p)
        assert np.array_equal(pair.grid(), p.grid)
        assert pair.z == p.z

    def test_raw_grid_is_validated_once(self, monkeypatch):
        from_grid = Pda.from_grid.__func__
        calls = []

        def counted(cls, raw, z=None):
            calls.append(raw)
            return from_grid(cls, raw, z)

        monkeypatch.setattr(Pda, "from_grid", classmethod(counted))
        pair = training_pair_from_pda([[S, 1], [1, S]])
        assert len(calls) == 1
        assert (pair.k, pair.f, pair.z, pair.colors) == (2, 2, 1, (1, 1))

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

    @pytest.mark.parametrize("sample", [
        {"K": 2, "F": 2, "Z": 1, "edges": [[1, 0], [0, 2]]},                   # column >= K
        {"K": 2, "F": 2, "Z": 1, "edges": [[1, 0], [2, 1]]},                   # row >= F
        {"K": 2, "F": 2, "Z": 1, "edges": [[-1, 0], [0, 1]]},                  # negative row
        {"K": 2, "F": 2, "Z": 1, "edges": [[1, 0], [1, 0]]},                   # duplicate edge
        {"K": 2, "F": 2, "Z": 1, "edges": [[0, 1], [1, 0]]},                   # row-major order
        {"K": 2, "F": 3, "Z": 1, "edges": [[0, 0], [2, 0], [1, 0], [1, 1]]},   # rows unsorted
        {"K": 2, "F": 3, "Z": 1, "edges": [[0, 0], [1, 0], [2, 0], [1, 1]]},   # 3 + 1 per column
        {"K": 0, "F": 2, "Z": 1, "edges": []},                                 # no users
        {"K": 2, "F": 2, "Z": 1, "edges": [[1.5, 0], [0, 1]]},                 # float row
        {"K": "2", "F": 2, "Z": 1, "edges": [[1, 0], [0, 1]]},                 # string K
        {"K": 2, "F": 2, "Z": True, "edges": [[1, 0], [0, 1]]},                # boolean Z
    ])
    def test_sample_that_is_no_placement_is_a_parse_error(self, tmp_path, sample):
        path = tmp_path / "bad.jsonl"
        obj = dict(sample, colors=list(range(1, len(sample["edges"]) + 1)))
        path.write_text('{"_meta": {}}\n' + json.dumps(obj) + "\n")
        with pytest.raises(ParseError) as info:
            read_corpus(path)
        assert info.value.line == 2

    def test_pair_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            TrainingPair(k=1, f=2, z=1, edges=((0, 0),), colors=(1, 2))

    def test_pair_edge_count_checked(self):
        with pytest.raises(InvalidParameter):
            TrainingPair(k=2, f=2, z=1, edges=((0, 0),), colors=(1,))

    def test_pair_colors_are_numbered_by_first_use(self):
        # the canonical form supervised_loss and the corpus format assume
        edges = ((0, 0), (1, 1), (0, 2), (1, 3))
        for colors in ((2, 1, 1, 2), (1, 3, 2, 1), (1, 1, 3, 2), (2, 2, 2, 2)):
            with pytest.raises(BadTarget):
                TrainingPair(k=4, f=2, z=1, edges=edges, colors=colors)
        for colors in ((1, 1, 1, 1), (1, 2, 1, 3), (1, 2, 3, 4), (1, 1, 2, 2)):
            assert TrainingPair(k=4, f=2, z=1, edges=edges, colors=colors).colors == colors
