import csv
import json
from pathlib import Path

import numpy as np
import pytest

from pdakit import cli
from pdakit.errors import PdakitError
from pdakit.graph import graph_from_json
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

    def test_negative_trials_is_an_input_error_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "p.pda"
        assert run("pipeline", "--users", 2, "--rows", 2, "--stars", 1,
                   "--trials", -1, "--out", out) == 2
        assert "--trials must be >= 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_checkpoint_config_beyond_its_tensors_is_an_input_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        write_checkpoint(ckpt)
        doc = json.loads(ckpt.read_text())
        doc["config"]["f_max"] = 10**12
        ckpt.write_text(json.dumps(doc))
        assert run("pipeline", "--users", 4, "--rows", 4, "--stars", 3,
                   "--colorer", "neural", "--checkpoint", ckpt,
                   "--out", tmp_path / "p.pda") == 2
        err = capsys.readouterr().err
        assert "tensor embed has shape" in err and "Traceback" not in err


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

    def test_negative_count_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        assert run("augment", "--source", "4,1", "--count", -5,
                   "--seed", 0, "--out", path) == 2
        assert "--count must be >= 0" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("source", ["4", "a,b"])
    def test_malformed_source_is_an_input_error(self, tmp_path, capsys, source):
        path = tmp_path / "c.jsonl"
        assert run("augment", "--source", source, "--count", 3,
                   "--seed", 0, "--out", path) == 2
        assert "source must be" in capsys.readouterr().err
        assert not path.exists()

    def test_zero_delta_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        assert run("augment", "--source", "4,1", "--count", 3, "--delta", 0,
                   "--seed", 0, "--out", path) == 2
        assert "--delta must be >= 1" in capsys.readouterr().err
        assert not path.exists()

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
            code = run(*train_args(corpus, ckpt, log, learning_rate="1e300"))
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

    def test_negative_clip_norm_is_an_input_error(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, count=4)
        ckpt = tmp_path / "m.json"
        assert run(*train_args(corpus, ckpt, tmp_path / "l.csv"), "--clip-norm=-1") == 2
        assert "clip_norm must be > 0" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag", ["--learning-rate", "--reinforce-learning-rate"])
    @pytest.mark.parametrize("rate", ["-0.5", "nan"])
    def test_bad_learning_rate_is_an_input_error(self, tmp_path, capsys, flag, rate):
        corpus = make_corpus(tmp_path, count=4)
        ckpt = tmp_path / "m.json"
        assert run(*train_args(corpus, ckpt, tmp_path / "l.csv"), f"{flag}={rate}") == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_negative_holdout_is_an_input_error(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, count=4)
        ckpt = tmp_path / "m.json"
        assert run(*train_args(corpus, ckpt, tmp_path / "l.csv", holdout=-1)) == 2
        assert "cannot hold out -1 of 4 pairs" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("edges", [
        [[1, 0], [0, 2]],    # column 2 of a 2-user placement
        [[1, 0], [1, 0]],    # one edge twice
        [[-1, 0], [0, 1]],   # row -1
    ])
    def test_corpus_sample_that_is_no_placement_is_an_input_error(self, tmp_path, capsys, edges):
        corpus = tmp_path / "corpus.jsonl"
        good = {"K": 2, "F": 2, "Z": 1, "edges": [[1, 0], [0, 1]], "colors": [1, 1]}
        bad = dict(good, edges=edges)
        corpus.write_text("".join(json.dumps(obj) + "\n" for obj in ({"_meta": {}}, good, bad)))
        assert run(*train_args(corpus, tmp_path / "m.json", tmp_path / "l.csv")) == 2
        assert "corpus line 3" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


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

    @pytest.mark.parametrize("text", [
        "2 2 1 7\n* 1\n1 *\n",   # header S is not the color count
        "2 2 1 1\n* 5\n5 *\n",   # colors with a gap below them
    ], ids=["header-s", "gappy-colors"])
    def test_header_that_misstates_the_colors_is_a_domain_failure(self, tmp_path, capsys, text):
        path = tmp_path / "bad.pda"
        path.write_text(text)
        assert run("verify", path) == 1
        assert capsys.readouterr().out == "invalid array: 1 violations\n  color-range at ()\n"
        assert run("simulate", "--pda", path) == 1
        out, err = capsys.readouterr()
        assert "delivery_rate" not in out and "error:" in err

    def test_non_positive_file_count_is_an_input_error(self, tmp_path, capsys):
        pda = tmp_path / "mn21.pda"
        assert run("construct", "--users", 2, "--t", 1, "--out", pda) == 0
        capsys.readouterr()
        for files in (0, -2):
            assert run("simulate", "--pda", pda, "--files", files) == 2
            out, err = capsys.readouterr()
            assert "delivery_rate" not in out and "error:" in err


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
        for sizes, message in (("18", "multiple"), ("64,x", "comma-separated")):
            assert run("bench", "--sizes", sizes, "--checkpoint", ckpt,
                       "--out", tmp_path / "b.csv") == 2
            assert message in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("command", ["verify", "simulate", "train", "pipeline", "bench"])
    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1"
        bad.write_bytes(b"3 3 1 3\n* 1 2\n\xe9 * 3\n")
        args = {
            "verify": ["verify", bad],
            "simulate": ["simulate", "--pda", bad],
            "train": train_args(bad, tmp_path / "c.json", tmp_path / "l.csv"),
            "pipeline": ["pipeline", "--users", 3, "--rows", 3, "--stars", 1,
                         "--colorer", "neural", "--checkpoint", bad, "--out", tmp_path / "o.pda"],
            "bench": ["bench", "--sizes", 16, "--checkpoint", bad, "--out", tmp_path / "b.csv"],
        }[command]
        assert run(*args) == 2
        assert "not UTF-8 text at byte 14" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["augment", "--source", "4,1", "--count", 2, "--out", "out"],
        ["pipeline", "--users", 3, "--rows", 3, "--stars", 1, "--out", "out"],
        ["simulate", "--pda", "mn31.pda", "--transcript", "out"],
        ["train", "--corpus", "c.jsonl", "--checkpoint", "out", "--log", "l.csv"],
        ["bench", "--checkpoint", "m.json", "--sizes", 16, "--out", "out"],
    ], ids=["augment", "pipeline", "simulate", "train", "bench"])
    def test_negative_seed_is_an_input_error(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        make_corpus(tmp_path, count=4, name="c.jsonl")
        write_checkpoint(tmp_path / "m.json", f_max=16, k_max=8)
        (tmp_path / "mn31.pda").write_text(pda_to_text(construct_mn_pda(3, 1)))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(*command, "--seed", -1)
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


GOLDEN = Path(__file__).parent / "golden"
# Bytes a mutation inserts or writes: mostly the tokens of the formats read.
FUZZ_BYTES = b"0123456789-+.eE*,:[]{}\" \n#\xe9\xff"


def _mutate(data: bytes, rng) -> bytes:
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(len(buf) + 1))
        op = int(rng.integers(5))
        if op == 0:
            buf[pos:pos] = bytes([FUZZ_BYTES[int(rng.integers(len(FUZZ_BYTES)))]])
        elif op == 1:
            del buf[pos:pos + int(rng.integers(1, 4))]
        elif op == 2 and pos < len(buf):
            buf[pos] = int(rng.integers(256))
        elif op == 3 and pos < len(buf):
            buf[pos] = FUZZ_BYTES[int(rng.integers(len(FUZZ_BYTES)))]
        else:
            del buf[pos:]
    return bytes(buf)


def _fuzz_argv(rng):
    """A random command line and the file it reads ("" for none).

    Integers are mostly in their legal range, sometimes zero or negative.
    Float flags come from fixed lists with zero, negative and non-finite values.
    """
    def num(lo, hi):
        return int(rng.integers(lo, max(lo, hi) + 1) if rng.random() < 0.85 else rng.integers(-2, 1))

    def pick(values):
        return values[int(rng.integers(len(values)))]

    rates = [0.5, 0.05, 0.0, -0.5, float("nan"), float("inf")]

    command = pick(["verify", "simulate", "train", "pipeline", "bench", "augment", "construct"])
    if command == "verify":
        return ["verify", "input"], "construct_mn42.pda"
    if command == "simulate":
        argv = ["simulate", "--pda", "input", "--seed", num(0, 9), "--trials", num(1, 3),
                "--packet-size", num(1, 16)]
        return argv + (["--files", num(1, 6)] if rng.random() < 0.5 else []), "construct_mn42.pda"
    if command == "train":
        return train_args("input", "m.json", "l.csv", epochs=num(0, 2),
                          reinforce_epochs=num(0, 2), batch_size=num(1, 8),
                          embed_dim=num(1, 4), hidden_dim=num(1, 4), holdout=num(0, 2),
                          clip_norm=pick([5.0, 0.5, 0.0, -1.0]),
                          learning_rate=pick(rates), reinforce_learning_rate=pick(rates),
                          seed=num(0, 9)), "corpus.jsonl"
    if command == "pipeline":
        rows = num(1, 6)
        argv = ["pipeline", "--users", num(2, 6), "--rows", rows, "--stars", num(0, rows),
                "--trials", num(1, 3), "--seed", num(0, 9), "--out", "o.pda"]
        if rng.random() < 0.5:
            return argv, ""
        argv += ["--colorer", "neural", "--checkpoint", "input"]
        return argv + (["--no-mask"] if rng.random() < 0.5 else []), "model.json"
    if command == "bench":
        return ["bench", "--checkpoint", "input", "--sizes", f"{num(0, 3) * 4},{num(0, 6)}",
                "--seed", num(0, 9), "--out", "b.csv"], "model.json"
    if command == "augment":
        k = num(2, 6)
        argv = ["augment", "--source", f"{k},{num(1, k)}", "--count", num(0, 4),
                "--seed", num(0, 9), "--out", "c.jsonl"]
        return argv + (["--delta", num(1, 4)] if rng.random() < 0.5 else []), ""
    users = num(2, 7)
    return ["construct", "--users", users, "--t", num(1, users), "--out", "a.pda"], ""


def _exit_code(argv) -> int:
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


class TestExitCodeFuzz:
    """Corrupted golden files and random arguments end in a contract exit code."""

    RUNS = 600

    def test_every_run_ends_in_a_contract_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_checkpoint(tmp_path / "model.json", f_max=6, k_max=6)
        sources = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
        sources["model.json"] = (tmp_path / "model.json").read_bytes()
        names = sorted(sources)
        rng = np.random.default_rng(2026)
        codes = []
        for _ in range(self.RUNS):
            argv, name = _fuzz_argv(rng)
            # Mostly the format the command reads, sometimes another one.
            if not name or rng.random() < 0.2:
                name = names[int(rng.integers(len(names)))]
            data = sources[name]
            if rng.random() < 0.8:
                data = _mutate(data, rng)
            (tmp_path / "input").write_bytes(data)
            code = _exit_code(argv)
            assert code in (0, 1, 2, 3), (argv, name, data)
            codes.append(code)
        capsys.readouterr()
        assert {0, 1, 2} <= set(codes)

    def test_corrupted_graph_json_is_read_or_rejected(self):
        data = (GOLDEN / "graph_mn31.json").read_bytes()
        rng = np.random.default_rng(2027)
        for _ in range(500):
            text = _mutate(data, rng).decode("utf-8", errors="replace")
            try:
                graph_from_json(text)
            except PdakitError:
                pass
