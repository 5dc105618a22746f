"""Tests of the benchmark itself: its independent checks, tracer and smoke runs.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pdakit import cachesim, graph, pda  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_self_test_passes():
    checks.self_test()


def test_broken_pair_counts_as_failed(tmp_path):
    color = workloads.Color(seed=3, smoke=True, workdir=tmp_path)
    color.generate()
    color.prepare()
    i = color.ops.index((0, "greedy"))
    text, ep = color.op(i, None)
    assert color.check(i, None, (text, ep))
    rows, (k, f, z, s) = checks.parse_text(text)
    i1, j1 = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v == 1)
    i2, j2 = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
                  if i != i1 and j != j1 and v != checks.STAR and rows[i1][j] != checks.STAR)
    rows[i2][j2] = 1   # pairs with (i1, j1) across the integer at (i1, j2)
    broken = pda.pda_to_text(pda.Pda(grid=np.array(rows), z=z))
    assert checks.pair_violations(rows, z) > 0
    assert not color.check(i, None, (broken, ep))


def test_corrupted_packet_counts_as_failed(tmp_path):
    sim = workloads.Simulate(seed=3, smoke=True, workdir=tmp_path)
    sim.generate()
    sim.prepare()
    demand = sim.request(0)
    result = sim.op(0, demand)
    assert sim.check(0, demand, result)
    a, size = sim.ops[0]
    p, lib = sim.arrays[a][1], sim.libs[(a, size)]
    first = result.transcript.broadcasts[0]
    bad = bytes([first.payload[0] ^ 1]) + first.payload[1:]
    transcript = cachesim.Transcript(
        broadcasts=(cachesim.Broadcast(first.slot, bad, first.contributors),
                    *result.transcript.broadcasts[1:]))
    caches = cachesim.place(p, lib)
    decoded = tuple(cachesim.decode(k, caches[k], transcript, demand, p) for k in range(p.k))
    corrupted = cachesim.RoundResult(transcript=transcript, decoded=decoded, all_ok=True)
    assert not sim.check(0, demand, corrupted)


def test_tracer_restores_every_name():
    import pdakit
    from pdakit.neural import net

    before = (pda.verify, graph.verify, net.verify, pdakit.verify,
              pda.Pda.__dict__["from_grid"], net.FeasibilityTracker.feasible)
    tracer = tracing.Tracer()
    tracer.start()
    try:
        assert graph.verify is not before[1] and net.verify is graph.verify
        pda.Pda.from_grid([[0, 1], [1, 0]])
        assert cachesim.FileLibrary.random(2, 2, packet_size=4).n_files == 2
    finally:
        tracer.restore()
    after = (pda.verify, graph.verify, net.verify, pdakit.verify,
             pda.Pda.__dict__["from_grid"], net.FeasibilityTracker.feasible)
    assert all(a is b for a, b in zip(before, after))
    m = tracer.metrics()
    assert m["pda.Pda.from_grid.calls"] == 1 and m["pda.verify.calls"] == 1
    assert m["pda.verify.pairs"] == 1 and m["cachesim.FileLibrary.random.calls"] == 1
    assert m["pda.Pda.from_grid.self_ms"] < m["pda.Pda.from_grid.ms"]


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = _last_json(run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                                      "--trace", str(trace), "--smoke"))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec}
        if trace:
            calls = {name: m["value"] for name, m in result["metrics"].items()
                     if name.endswith(".calls")}
            if workload in ("color", "train"):
                assert not any(v for n, v in calls.items() if n.startswith("cachesim."))
            if workload == "simulate":
                assert calls["graph.greedy_strong_color.calls"] == 0
                assert calls["neural.supervised_loss.calls"] == 0
            if workload == "train":
                assert calls["neural.FeasibilityTracker.feasible.calls"] == 0
        else:
            assert result["metrics"]["pass_ratio"]["value"] == 1.0
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "color", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
