import csv
import json

import numpy as np
import pytest

from pdakit import cli
from pdakit.neural import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from pdakit.pda import construct_mn_pda, parse_pda_text, pda_to_text, verify
from pdakit.seqcodec import read_corpus

import oracles


def run(*args):
    return cli.main([str(a) for a in args])


def write_checkpoint(path, f_max=8, k_max=8, seed=0):
    params = ModelParams.init(
        ModelConfig(f_max=f_max, k_max=k_max, embed_dim=6, hidden_dim=8), seed=seed
    )
    save_checkpoint(path, params, meta={"seed": seed})
    return params


def make_corpus(tmp_path, count=12, seed=7, name="corpus.jsonl"):
    path = tmp_path / name
    assert run("augment", "--source", "4,1", "--source", "4,2",
               "--count", count, "--seed", seed, "--out", path) == 0
    return path


class TestVerify:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "a.pda"
        path.write_text(pda_to_text(construct_mn_pda(3, 1)))
        assert run("verify", path) == 0
        assert "valid array: K=3 F=3 Z=1 S=3" in capsys.readouterr().out

    def test_pair_violation_reported(self, tmp_path, capsys):
        path = tmp_path / "a.pda"
        path.write_text("2 2 1 1\n1 1\n* *\n")
        assert run("verify", path) == 1
        out = capsys.readouterr().out
        assert "pair-distinct" in out and "(0, 1)" in out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "a.pda"
        path.write_text("2 2 1 1\n* 1\n1\n")
        assert run("verify", path) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run("verify", tmp_path / "nope.pda") == 2
        assert "error:" in capsys.readouterr().err

    def test_superscript_digit_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "a.pda"
        path.write_text("2 2 1 1\n* \u00b2\n1 *\n", encoding="utf-8")
        assert run("verify", path) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err


class TestConstruct:
    def test_output_reverifies(self, tmp_path):
        path = tmp_path / "mn.pda"
        assert run("construct", "--users", 4, "--t", 2, "--out", path) == 0
        assert run("verify", path) == 0
        assert path.read_text().startswith("# pdakit construct users=4 t=2\n")

    def test_bad_parameters(self, tmp_path, capsys):
        assert run("construct", "--users", 4, "--t", 9,
                   "--out", tmp_path / "x.pda") == 2
        assert "error:" in capsys.readouterr().err


class TestPipeline:
    def test_greedy_small_system(self, tmp_path, capsys):
        out = tmp_path / "p.pda"
        summary = tmp_path / "p.csv"
        assert run("pipeline", "--users", 2, "--rows", 2, "--stars", 1,
                   "--seed", 5, "--out", out, "--summary", summary) == 0
        assert "rate=1/2" in capsys.readouterr().out
        assert run("verify", out) == 0
        with open(summary, newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["delivery_rate"] == "1/2"
        assert row["uncoded_rate"] == "1"
        assert row["all_decoded"] == "1"
        assert row["colorer"] == "greedy"

    def test_greedy_color_count_near_minimum(self, tmp_path):
        out = tmp_path / "p.pda"
        assert run("pipeline", "--users", 3, "--rows", 3, "--stars", 1,
                   "--seed", 1, "--out", out) == 0
        grid, k, f, z, s = parse_pda_text(out.read_text())
        edges = [(j, i) for i in range(f) for j in range(k) if grid[i, j] != 0]
        minimum = oracles.oracle_min_strong_colors(k, f, edges)
        assert s <= minimum + 2

    def test_neural_masked_rollout_is_valid(self, tmp_path):
        ckpt = tmp_path / "model.json"
        write_checkpoint(ckpt)
        out = tmp_path / "p.pda"
        assert run("pipeline", "--users", 4, "--rows", 4, "--stars", 3,
                   "--colorer", "neural", "--checkpoint", ckpt,
                   "--seed", 0, "--out", out) == 0
        assert run("verify", out) == 0

    def test_neural_unmasked_failure_still_writes_the_array(self, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        write_checkpoint(ckpt)
        out = tmp_path / "p.pda"
        assert run("pipeline", "--users", 4, "--rows", 4, "--stars", 1,
                   "--colorer", "neural", "--checkpoint", ckpt, "--no-mask",
                   "--seed", 0, "--out", out) == 1
        assert "violations" in capsys.readouterr().out
        grid, k, f, z, s = parse_pda_text(out.read_text())
        assert (k, f, z) == (4, 4, 1)
        assert not verify(grid, z=z).valid

    def test_neural_requires_checkpoint(self, tmp_path, capsys):
        assert run("pipeline", "--users", 2, "--rows", 2, "--stars", 1,
                   "--colorer", "neural", "--out", tmp_path / "p.pda") == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_undersized_checkpoint_rejected(self, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        write_checkpoint(ckpt, f_max=4, k_max=4)
        assert run("pipeline", "--users", 6, "--rows", 4, "--stars", 1,
                   "--colorer", "neural", "--checkpoint", ckpt,
                   "--out", tmp_path / "p.pda") == 2
        assert "addresses up to" in capsys.readouterr().err


class TestAugment:
    def test_pairs_reverify(self, tmp_path):
        path = make_corpus(tmp_path, count=20)
        _, pairs = read_corpus(path)
        assert len(pairs) == 20
        for pair in pairs:
            assert verify(pair.grid(), z=pair.z).valid

    def test_fixed_delta(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert run("augment", "--source", "4,1", "--count", 8, "--delta", 2,
                   "--seed", 3, "--out", path) == 0
        _, pairs = read_corpus(path)
        assert all(len(p.edges) == 4 * 2 for p in pairs)

    def test_degree_one_source_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        assert run("augment", "--source", "3,2", "--source", "4,1",
                   "--count", 6, "--seed", 0, "--out", path) == 0
        assert "no legal delta" in capsys.readouterr().err
        _, pairs = read_corpus(path)
        assert len(pairs) == 6

    def test_no_usable_sources(self, tmp_path, capsys):
        assert run("augment", "--source", "3,2", "--count", 5,
                   "--seed", 0, "--out", tmp_path / "c.jsonl") == 2
        assert "no usable sources" in capsys.readouterr().err

    def test_zero_count_writes_meta_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert run("augment", "--source", "4,1", "--count", 0,
                   "--seed", 0, "--out", path) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["_meta"]["count"] == 0

    def test_same_seed_same_bytes(self, tmp_path):
        a = make_corpus(tmp_path, seed=9, name="a.jsonl")
        b = make_corpus(tmp_path, seed=9, name="b.jsonl")
        c = make_corpus(tmp_path, seed=10, name="c.jsonl")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


def train_args(corpus, ckpt, log, **over):
    base = dict(epochs=3, reinforce_epochs=1, batch_size=8,
                embed_dim=6, hidden_dim=8, seed=1)
    base.update(over)
    args = ["train", "--corpus", corpus, "--checkpoint", ckpt, "--log", log]
    for key, value in base.items():
        args += ["--" + key.replace("_", "-"), value]
    return args


class TestTrain:
    def test_writes_checkpoint_and_log(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        ckpt, log = tmp_path / "m.json", tmp_path / "log.csv"
        assert run(*train_args(corpus, ckpt, log, holdout=4)) == 0
        assert "trained 4 epochs" in capsys.readouterr().out
        params, meta = load_checkpoint(ckpt)
        assert params.all_finite()
        assert meta["seed"] == 1 and meta["supervised_epochs"] == 3
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["phase"] for r in rows] == ["init"] + ["supervised"] * 3 + ["reinforce"]
        assert all(0.0 <= float(r["valid_rate"]) <= 1.0 for r in rows)

    def test_same_seed_same_log_modulo_timing(self, tmp_path):
        corpus = make_corpus(tmp_path)
        for name in ("a", "b"):
            assert run(*train_args(corpus, tmp_path / f"{name}.json",
                                   tmp_path / f"{name}.csv")) == 0

        def masked(path):
            with open(path, newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]

        assert masked(tmp_path / "a.csv") == masked(tmp_path / "b.csv")
        pa, _ = load_checkpoint(tmp_path / "a.json")
        pb, _ = load_checkpoint(tmp_path / "b.json")
        assert np.array_equal(pa.flatten(), pb.flatten())

    def test_divergence_exits_3_and_keeps_a_checkpoint(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        ckpt, log = tmp_path / "m.json", tmp_path / "log.csv"
        with np.errstate(all="ignore"):
            code = run(*train_args(corpus, ckpt, log, learning_rate="inf"))
        assert code == 3
        assert "diverged" in capsys.readouterr().err
        params, meta = load_checkpoint(ckpt)
        assert params.all_finite()
        assert meta["diverged"] is True

    def test_empty_corpus_rejected(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        assert run("augment", "--source", "4,1", "--count", 0,
                   "--seed", 0, "--out", corpus) == 0
        assert run(*train_args(corpus, tmp_path / "m.json", tmp_path / "l.csv")) == 2
        assert "no training pairs" in capsys.readouterr().err

    def test_oversized_holdout_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, count=4)
        assert run(*train_args(corpus, tmp_path / "m.json", tmp_path / "l.csv",
                               holdout=4)) == 2


class TestSimulate:
    def test_rates_and_artifacts(self, tmp_path, capsys):
        pda = tmp_path / "mn21.pda"
        assert run("construct", "--users", 2, "--t", 1, "--out", pda) == 0
        transcript = tmp_path / "t.json"
        trace = tmp_path / "trace.csv"
        assert run("simulate", "--pda", pda, "--trials", 4, "--seed", 2,
                   "--transcript", transcript, "--trace", trace) == 0
        out = capsys.readouterr().out
        assert "delivery_rate=1/2" in out and "all_decoded=True" in out

        doc = json.loads(transcript.read_text())
        assert len(doc["broadcasts"]) == 1
        assert doc["meta"]["seed"] == 2
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 2
        assert all(r["decoded_ok"] == "1" for r in rows)

    def test_invalid_array_is_a_domain_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.pda"
        path.write_text("2 2 1 1\n1 1\n* *\n")
        assert run("simulate", "--pda", path) == 1
        assert "error:" in capsys.readouterr().err

    def test_unparseable_array(self, tmp_path):
        path = tmp_path / "bad.pda"
        path.write_text("hello\n")
        assert run("simulate", "--pda", path) == 2


class TestBench:
    def test_timing_rows(self, tmp_path):
        ckpt = tmp_path / "model.json"
        write_checkpoint(ckpt, f_max=16, k_max=8)
        out = tmp_path / "bench.csv"
        assert run("bench", "--sizes", "0,16,32", "--checkpoint", ckpt,
                   "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["edges"]) for r in rows] == [0, 16, 32]
        assert rows[0]["greedy_ms"] == "0" and rows[0]["neural_ms"] == "0"
        assert all(float(r["greedy_ms"]) >= 0.0 for r in rows)
        assert all(float(r["neural_ms"]) >= 0.0 for r in rows)

    def test_size_must_match_the_degree(self, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        write_checkpoint(ckpt, f_max=16, k_max=8)
        assert run("bench", "--sizes", "18", "--checkpoint", ckpt,
                   "--out", tmp_path / "b.csv") == 2
        assert "multiple" in capsys.readouterr().err
