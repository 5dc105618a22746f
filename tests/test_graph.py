import numpy as np
import pytest

from pdakit.errors import (
    ColoringViolation,
    DegreeViolation,
    IncompleteColoring,
    InvalidParameter,
    InvalidPda,
    ParseError,
    PdakitError,
)
from pdakit.graph import (
    BipartiteColoredGraph,
    _grid_to_graph,
    graph_from_json,
    graph_to_json,
    graph_to_pda,
    greedy_strong_color,
    is_strong_coloring as is_strong,
    pda_to_graph,
    subsample,
)
from pdakit.pda import STAR, Pda, construct_mn_pda, verify

import oracles

S = STAR


def random_colored_graph(rng, max_k=5, max_f=5, max_colors=4, p_edge=0.45):
    k = int(rng.integers(1, max_k + 1))
    f = int(rng.integers(1, max_f + 1))
    edges = []
    for u in range(k):
        for v in range(f):
            if rng.random() < p_edge:
                edges.append((u, v, int(rng.integers(1, max_colors + 1))))
    return BipartiteColoredGraph(k=k, f=f, edges=tuple(edges))


class TestGraphType:
    def test_edges_sorted_on_build(self):
        g = BipartiteColoredGraph(k=2, f=2, edges=((1, 0, 2), (0, 1, 1), (0, 0, 1)))
        assert g.edges == ((0, 0, 1), (0, 1, 1), (1, 0, 2))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidParameter):
            BipartiteColoredGraph(k=2, f=2, edges=((0, 0, 1), (0, 0, 2)))

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(InvalidParameter):
            BipartiteColoredGraph(k=2, f=2, edges=((2, 0, 1),))

    def test_nonpositive_color_rejected(self):
        with pytest.raises(InvalidParameter):
            BipartiteColoredGraph(k=1, f=1, edges=((0, 0, 0),))

    def test_placement_rule_errors_are_pdakit_errors(self):
        # a negative side with no edge to fall outside it, and a vertex that is no integer
        with pytest.raises(PdakitError):
            graph_to_pda(graph_from_json('{"k": -3, "f": 2, "edges": []}'))
        with pytest.raises(PdakitError):
            BipartiteColoredGraph(k=2, f=2, edges=((1.5, 0, None),))

    def test_huge_declared_shape_builds_without_a_dense_mask(self):
        # a 10^9 x 10^9 mask would take 888 PiB; the placement rule's checks need none
        g = graph_from_json('{"k": 1000000000, "f": 1000000000, "edges": []}')
        assert (g.k, g.f, g.edges) == (10**9, 10**9, ())
        g = BipartiteColoredGraph(k=10**9, f=10**9, edges=((10**9 - 1, 0, 2), (7, 5, 1)))
        assert g.edges == ((7, 5, 1), (10**9 - 1, 0, 2))
        with pytest.raises(InvalidParameter, match="repeat"):
            BipartiteColoredGraph(k=10**9, f=10**9, edges=((7, 5, 1), (7, 5, 2)))
        with pytest.raises(InvalidParameter, match="more cells than an index"):
            graph_from_json('{"k": 10000000000, "f": 10000000000, "edges": []}')

    def test_degrees_and_color_count(self):
        g = BipartiteColoredGraph(
            k=3, f=2, edges=((0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, None))
        )
        assert g.k_degrees() == [2, 1, 1]
        assert g.n_colors == 2
        assert not g.is_fully_colored()


class TestRoundTrip:
    def test_classical_arrays_survive_both_directions(self):
        for k in range(2, 9):
            for t in range(1, k):
                p = construct_mn_pda(k, t)
                q = graph_to_pda(pda_to_graph(p))
                assert q == p
                assert q.z == p.z

    def test_cell_to_edge_mapping(self):
        p = Pda.from_grid([[S, 1], [1, S]])
        g = pda_to_graph(p)
        # column j, row i becomes edge (j, i)
        assert g.edges == ((0, 1, 1), (1, 0, 1))
        assert g.k == 2 and g.f == 2

    def test_raw_grid_accepted_when_valid(self):
        g = pda_to_graph([[S, 1], [1, S]])
        assert g.k_degrees() == [1, 1]

    def test_raw_grid_takes_every_star_notation_verify_takes(self):
        want = pda_to_graph(Pda.from_grid([[S, 1], [1, S]]))
        for star in ("*", None):
            grid = [[star, 1], [1, star]]
            assert verify(grid).valid
            assert pda_to_graph(grid) == want

    def test_invalid_raw_grid_rejected(self):
        with pytest.raises(InvalidPda):
            pda_to_graph([[1, 1]])

    def test_unequal_degrees_cannot_assemble(self):
        for edges in (
            ((0, 0, 1), (0, 1, 2), (1, 0, 3)),
            # user 0 also has both its edges colored 1: the degree error wins
            ((0, 0, 1), (0, 1, 1), (1, 0, 2)),
        ):
            with pytest.raises(DegreeViolation):
                graph_to_pda(BipartiteColoredGraph(k=2, f=2, edges=edges))

    def test_weak_coloring_cannot_assemble(self):
        # same color on two edges at the same user
        g = BipartiteColoredGraph(k=1, f=2, edges=((0, 0, 1), (0, 1, 1)))
        with pytest.raises(ColoringViolation):
            graph_to_pda(g)

    def test_uncolored_edge_cannot_assemble(self):
        g = BipartiteColoredGraph(k=1, f=1, edges=((0, 0, None),))
        with pytest.raises(IncompleteColoring):
            graph_to_pda(g)


class TestStrongColoring:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(20260814)
        checked = 0
        for _ in range(500):
            g = random_colored_graph(rng)
            got = g.is_fully_colored() and is_strong(g)
            want = oracles.oracle_strong_coloring(g.k, g.f, list(g.edges))
            assert got == want
            checked += 1
        assert checked == 500

    def test_array_validity_equals_degree_plus_coloring(self):
        # a grid passes verification exactly when its graph has constant
        # user degree and a strong coloring
        rng = np.random.default_rng(99)
        for _ in range(500):
            grid = oracles.random_grid(rng)
            g = _grid_to_graph(np.array(grid))
            dual_valid = len(set(g.k_degrees())) <= 1 and is_strong(g)
            assert verify(grid).valid == dual_valid

    def test_incomplete_raises(self):
        g = BipartiteColoredGraph(k=1, f=1, edges=((0, 0, None),))
        with pytest.raises(IncompleteColoring):
            is_strong(g)


class TestGreedyColorer:
    def strip(self, g):
        return BipartiteColoredGraph(
            k=g.k, f=g.f, edges=tuple((u, v, None) for u, v, _ in g.edges)
        )

    def test_small_classical_case_is_optimal(self):
        g = self.strip(pda_to_graph(construct_mn_pda(3, 1)))
        colored = greedy_strong_color(g)
        assert is_strong(colored)
        pairs = [(u, v) for u, v, _ in g.edges]
        assert colored.n_colors == oracles.oracle_min_strong_colors(g.k, g.f, pairs) == 3

    def test_valid_on_classical_family(self):
        for k in range(2, 7):
            for t in range(1, k):
                g = self.strip(pda_to_graph(construct_mn_pda(k, t)))
                colored = greedy_strong_color(g)
                assert is_strong(colored)
                graph_to_pda(colored)

    def test_never_beats_minimum(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = random_colored_graph(rng, max_k=3, max_f=3, p_edge=0.5)
            if not g.edges:
                continue
            pairs = [(u, v) for u, v, _ in g.edges]
            colored = greedy_strong_color(self.strip(g))
            assert is_strong(colored)
            assert colored.n_colors >= oracles.oracle_min_strong_colors(g.k, g.f, pairs)

    def test_random_order_seeded(self):
        g = self.strip(pda_to_graph(construct_mn_pda(5, 2)))
        a = greedy_strong_color(g, order="random", seed=11)
        b = greedy_strong_color(g, order="random", seed=11)
        c = greedy_strong_color(g, order="random", seed=12)
        assert a.edges == b.edges
        assert is_strong(a) and is_strong(c)

    def test_matches_the_set_based_reference(self):
        rng = np.random.default_rng(41)
        graphs = [random_colored_graph(rng, max_k=8, max_f=8, p_edge=0.3) for _ in range(30)]
        # some of these have vertices with no edge
        assert any(set(range(g.k)) - {u for u, _, _ in g.edges} for g in graphs)
        assert any(set(range(g.f)) - {v for _, v, _ in g.edges} for g in graphs)
        graphs += [pda_to_graph(construct_mn_pda(k, t)) for k in range(2, 9) for t in range(1, min(k, 5))]
        f, z = 16, 12
        for e in (64, 128, 256, 512, 1024):
            k = e // (f - z)
            edges = tuple((j, (j + m) % f, None) for j in range(k) for m in range(z, f))
            graphs.append(BipartiteColoredGraph(k=k, f=f, edges=edges))
        for g in graphs:
            pairs = [(u, v) for u, v, _ in g.edges]
            for order, seed in (("lex", None), ("random", 0), ("random", 1), ("random", 2)):
                got = greedy_strong_color(self.strip(g), order=order, seed=seed)
                assert got.edges == oracles.oracle_greedy_strong_color(pairs, order, seed)

    def test_unknown_order_rejected(self):
        g = BipartiteColoredGraph(k=1, f=1, edges=((0, 0, None),))
        with pytest.raises(InvalidParameter):
            greedy_strong_color(g, order="widest")

    def test_existing_colors_ignored(self):
        g = pda_to_graph(construct_mn_pda(4, 2))
        recolored = greedy_strong_color(g)
        assert is_strong(recolored)


class TestSubsample:
    def test_deterministic_for_seed(self):
        g = pda_to_graph(construct_mn_pda(6, 2))
        a = subsample(g, delta=2, rng_seed=5)
        b = subsample(g, delta=2, rng_seed=5)
        assert a.edges == b.edges

    def test_seed_changes_selection(self):
        g = pda_to_graph(construct_mn_pda(6, 2))
        picks = {subsample(g, delta=2, rng_seed=s).edges for s in range(8)}
        assert len(picks) > 1

    def test_every_subsample_still_assembles(self):
        sources = [construct_mn_pda(k, t) for k in range(3, 7) for t in range(1, k - 1)]
        count = 0
        for p in sources:
            g = pda_to_graph(p)
            big_delta = p.f - p.z
            for delta in range(1, big_delta):
                for seed in range(10):
                    sub = subsample(g, delta=delta, rng_seed=seed)
                    assert set(sub.k_degrees()) == {delta}
                    q = graph_to_pda(sub)
                    assert q.z == p.f - delta
                    count += 1
        assert count > 100

    def test_colors_renumbered_consecutively(self):
        g = pda_to_graph(construct_mn_pda(6, 3))
        sub = subsample(g, delta=1, rng_seed=0)
        used = sorted({c for _, _, c in sub.edges})
        assert used == list(range(1, len(used) + 1))
        # first occurrences appear in increasing order along sorted edges
        seen = []
        for _, _, c in sub.edges:
            if c not in seen:
                seen.append(c)
        assert seen == sorted(seen)

    def test_assembled_grid_already_canonical(self):
        g = pda_to_graph(construct_mn_pda(5, 2))
        sub = subsample(g, delta=2, rng_seed=3)
        grid = np.zeros((sub.f, sub.k), dtype=np.int64)
        for u, v, c in sub.edges:
            grid[v, u] = c
        from pdakit.pda import canonicalize_colors

        assert np.array_equal(canonicalize_colors(grid), grid)

    def test_delta_bounds(self):
        p = construct_mn_pda(4, 2)
        g = pda_to_graph(p)
        big_delta = p.f - p.z  # degree of every user vertex
        assert set(g.k_degrees()) == {big_delta}
        with pytest.raises(InvalidParameter):
            subsample(g, delta=0, rng_seed=0)
        with pytest.raises(InvalidParameter):
            subsample(g, delta=big_delta, rng_seed=0)

    def test_requires_valid_source(self):
        g = BipartiteColoredGraph(k=1, f=2, edges=((0, 0, 1), (0, 1, 1)))
        with pytest.raises(ColoringViolation):
            subsample(g, delta=1, rng_seed=0)


class TestJson:
    def test_round_trip(self):
        g = pda_to_graph(construct_mn_pda(4, 2))
        assert graph_from_json(graph_to_json(g)) == g

    def test_round_trip_uncolored(self):
        g = BipartiteColoredGraph(k=2, f=1, edges=((0, 0, None), (1, 0, 3)))
        assert graph_from_json(graph_to_json(g)) == g

    def test_meta_is_optional_noise(self):
        g = BipartiteColoredGraph(k=1, f=1, edges=((0, 0, 1),))
        text = graph_to_json(g, meta={"seed": 42})
        assert '"seed":42' in text
        assert graph_from_json(text) == g

    def test_edges_serialized_sorted(self):
        g = BipartiteColoredGraph(k=2, f=2, edges=((1, 1, 2), (0, 0, 1)))
        text = graph_to_json(g)
        assert text.index("[0,0,1]") < text.index("[1,1,2]")

    def test_bad_json_raises(self):
        with pytest.raises(ParseError):
            graph_from_json("{not json")

    def test_missing_field_raises(self):
        with pytest.raises(ParseError):
            graph_from_json('{"k": 1, "edges": []}')

    @pytest.mark.parametrize("text", [
        '{"k": 2.7, "f": 2, "edges": []}',
        '{"k": 2, "f": "1", "edges": []}',
        '{"k": 2, "f": 2, "edges": [[true, 0, 1]]}',
        '{"k": 2, "f": 2, "edges": [[0, 1.0, 1]]}',
        '{"k": 2, "f": 2, "edges": [[0, 0, 1.9]]}',
        '{"k": 2, "f": 2, "edges": [[0, 0, "1"]]}',
    ])
    def test_numbers_must_be_json_integers(self, text):
        with pytest.raises(ParseError, match="not an integer"):
            graph_from_json(text)

    def test_same_seed_same_bytes(self):
        g1 = subsample(pda_to_graph(construct_mn_pda(5, 2)), delta=2, rng_seed=9)
        g2 = subsample(pda_to_graph(construct_mn_pda(5, 2)), delta=2, rng_seed=9)
        assert graph_to_json(g1) == graph_to_json(g2)
