import numpy as np
import pytest

from pdakit.errors import InvalidParameter, InvalidPda, MalformedGrid, ParseError
from pdakit.pda import (
    COND_COLUMN_STARS,
    COND_PAIR_CROSS,
    COND_PAIR_DISTINCT,
    STAR,
    Pda,
    canonicalize_colors,
    construct_mn_pda,
    header_violations,
    parse_pda_text,
    pda_from_text,
    pda_to_text,
    rate,
    verify,
)

import oracles

S = STAR


class TestVerify:
    def test_2x2_valid(self):
        assert verify([[S, 1], [1, S]], z=1).valid

    def test_equal_pair_same_row_invalid(self):
        report = verify([[1, 1]], z=0)
        assert not report.valid
        assert report.violations[0].condition == COND_PAIR_DISTINCT

    def test_3x3_mn_shape_valid(self):
        assert verify([[S, 1, 2], [1, S, 3], [2, 3, S]], z=1).valid

    def test_cross_cell_not_star(self):
        # equal 1s in distinct rows/cols but one cross cell holds a color
        grid = [[1, 2], [2, 1]]
        report = verify(grid, z=0)
        assert not report.valid
        assert any(v.condition == COND_PAIR_CROSS for v in report.violations)

    def test_declared_z_mismatch_is_violation(self):
        report = verify([[S, 1], [1, S]], z=2)
        assert not report.valid
        assert {v.condition for v in report.violations} == {COND_COLUMN_STARS}
        assert {v.cells[0] for v in report.violations} == {0, 1}

    def test_z_inferred_from_first_column(self):
        assert verify([[S, 1], [1, S]]).z == 1

    def test_uneven_star_columns(self):
        report = verify([[S, 1], [S, 2]])
        assert not report.valid
        assert report.violations[0].cells == (1,)

    def test_non_rectangular_raises(self):
        with pytest.raises(MalformedGrid):
            verify([[S, 1], [1]])

    def test_bad_entry_raises(self):
        with pytest.raises(MalformedGrid):
            verify([[S, "x"]])
        with pytest.raises(MalformedGrid):
            verify([[S, -3]])

    def test_agrees_with_bruteforce_oracle(self):
        rng = np.random.default_rng(20260814)
        for _ in range(2000):
            grid = oracles.random_grid(rng)
            assert verify(grid).valid == oracles.oracle_verify(grid)

    def test_violations_match_literal_enumeration_in_order(self):
        rng = np.random.default_rng(20261018)
        for _ in range(2000):
            grid = oracles.random_grid(rng, max_f=7, max_k=7)
            declared = int(rng.integers(0, len(grid) + 1))
            for z in (None, declared):
                got = [(v.condition, v.cells) for v in verify(grid, z).violations]
                assert got == oracles.oracle_violations(grid, z)


class TestCanonicalForm:
    def test_renumbers_by_column_major_first_occurrence(self):
        grid = np.array([[S, 7, 5], [7, S, 9], [5, 9, S]])
        out = canonicalize_colors(grid)
        assert out.tolist() == [[S, 1, 2], [1, S, 3], [2, 3, S]]

    def test_gap_colors_compacted(self):
        out = canonicalize_colors(np.array([[4, S], [S, 4]]))
        assert out.tolist() == [[1, S], [S, 1]]

    def test_matches_column_major_oracle(self):
        rng = np.random.default_rng(20261018)
        for _ in range(500):
            grid = np.asarray(oracles.random_grid(rng, max_f=8, max_k=8, max_colors=9))
            # scatter the colors over a wide, gappy range first
            relabel = np.concatenate([[S], rng.permutation(1000)[:9] + 1])
            grid = relabel[grid]
            assert canonicalize_colors(grid).tolist() == oracles.oracle_canonical(grid.tolist())

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            grid = np.asarray(oracles.random_grid(rng))
            once = canonicalize_colors(grid)
            assert np.array_equal(once, canonicalize_colors(once))


class TestPdaType:
    def test_from_grid_valid(self):
        p = Pda.from_grid([[S, 1], [1, S]])
        assert (p.f, p.k, p.z, p.s) == (2, 2, 1, 1)

    def test_from_grid_invalid_raises_with_violations(self):
        with pytest.raises(InvalidPda) as exc:
            Pda.from_grid([[1, 1]], z=0)
        assert exc.value.violations

    def test_grid_is_readonly(self):
        p = Pda.from_grid([[S, 1], [1, S]])
        with pytest.raises(ValueError):
            p.grid[0, 0] = 5

    def test_equality_and_hash(self):
        a = Pda.from_grid([[S, 1], [1, S]])
        b = Pda.from_grid([[S, 3], [3, S]])  # canonicalizes to the same array
        assert a == b
        assert hash(a) == hash(b)

    def test_star_rows(self):
        p = construct_mn_pda(3, 2)
        assert p.star_rows(0) == (0, 1)
        assert p.star_rows(2) == (1, 2)


class TestMnConstruction:
    def test_k2_t1(self):
        assert construct_mn_pda(2, 1).grid.tolist() == [[S, 1], [1, S]]

    def test_k3_t1(self):
        assert construct_mn_pda(3, 1).grid.tolist() == [[S, 1, 2], [1, S, 3], [2, 3, S]]

    def test_k3_t2(self):
        p = construct_mn_pda(3, 2)
        assert p.grid.tolist() == [[S, S, 1], [S, 1, S], [1, S, S]]
        assert (p.f, p.z, p.s) == (3, 2, 1)

    def test_matches_independent_construction(self):
        for k in range(2, 7):
            for t in range(1, k):
                assert construct_mn_pda(k, t).grid.tolist() == oracles.mn_grid(k, t)

    def test_all_shapes_verify_and_memory_ratio(self):
        from fractions import Fraction

        for k in range(2, 9):
            for t in range(1, k):
                p = construct_mn_pda(k, t)
                assert oracles.oracle_verify(p.grid.tolist(), p.z)
                assert rate(p).memory_ratio == Fraction(t, k)

    def test_t_out_of_range(self):
        with pytest.raises(InvalidParameter):
            construct_mn_pda(3, 0)
        with pytest.raises(InvalidParameter):
            construct_mn_pda(3, 3)


class TestRate:
    def test_examples(self):
        from fractions import Fraction

        p = Pda.from_grid([[S, 1], [1, S]])
        r = rate(p)
        assert r.delivery_rate == Fraction(1, 2)
        assert r.memory_ratio == Fraction(1, 2)

        p = construct_mn_pda(3, 1)
        r = rate(p)
        assert r.delivery_rate == 1
        assert r.memory_ratio == Fraction(1, 3)

        p = construct_mn_pda(3, 2)
        r = rate(p)
        assert r.delivery_rate == Fraction(1, 3)
        assert r.memory_ratio == Fraction(2, 3)

    def test_memory_ratio_matches_every_column(self):
        from fractions import Fraction

        rng = np.random.default_rng(3)
        for _ in range(200):
            grid = oracles.random_grid(rng)
            report = verify(grid)
            if not report.valid:
                continue
            p = Pda.from_grid(grid)
            for j in range(p.k):
                stars = int((p.grid[:, j] == S).sum())
                assert rate(p).memory_ratio == Fraction(stars, p.f)


class TestTextFormat:
    def test_round_trip(self):
        p = construct_mn_pda(4, 2)
        text = pda_to_text(p, comments=["seed=7"])
        assert pda_from_text(text) == p

    def test_exact_bytes(self):
        p = Pda.from_grid([[S, 1], [1, S]])
        assert pda_to_text(p) == "2 2 1 1\n* 1\n1 *\n"

    def test_comments_skipped(self):
        text = "# meta\n2 2 1 1\n# interior\n* 1\n1 *\n# trailing\n"
        grid, k, f, z, s = parse_pda_text(text)
        assert (k, f, z, s) == (2, 2, 1, 1)
        assert grid.tolist() == [[S, 1], [1, S]]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_pda_text("2 2 1 1\n* 1\n1 *\nextra\n")
        assert exc.value.line == 4

    def test_bad_token_position(self):
        # "\u00b2" (superscript two) passes str.isdigit but not int()
        for tok in ("x", "\u00b2"):
            with pytest.raises(ParseError) as exc:
                parse_pda_text(f"2 2 1 1\n* {tok}\n1 *\n")
            assert (exc.value.line, exc.value.token) == (2, 1)

    def test_wrong_width(self):
        with pytest.raises(ParseError):
            parse_pda_text("2 2 1 1\n* 1 1\n1 *\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_pda_text("2 2 1 1\n* 1\n")

    def test_header_tokens_are_ascii_decimals(self):
        # int() alone would take the Arabic-Indic digit one and a sign
        for header in ("2 2 1 \u0661", "+2 2 1 1", "2 2 1 \u00b2"):
            with pytest.raises(ParseError):
                parse_pda_text(f"{header}\n* 1\n1 *\n")

    def test_zero_token_rejected(self):
        with pytest.raises(ParseError):
            parse_pda_text("2 2 1 1\n* 0\n1 *\n")

    def test_header_color_range(self):
        grid, _, _, _, s = parse_pda_text("2 2 1 2\n* 1\n1 *\n")
        assert header_violations(grid, 1, s)
        grid, _, _, _, s = parse_pda_text("2 2 1 1\n* 1\n1 *\n")
        assert not header_violations(grid, 1, s)
