"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest perfbench/test_perfbench.py -q

Each run goes through ``run.py`` exactly as the benchmark is invoked,
with ``--scale tiny`` so a call takes well under a second.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(tmp_path, *extra, seed=7, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", str(seed), "--seconds", "0",
         "--scale", "tiny", "--out", str(tmp_path), *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # The contract allows 4 + 22 runs per workload within 3420 s; a run
    # lasts run_seconds plus the program import and a few seconds by
    # which the last call may outlast its predicted length.
    assert (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 5) < 3420


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_prints_every_metric_with_its_unit(tmp_path, workload):
    done = run_bench(tmp_path, "--workload", workload, "--trace", "0")
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["setup_s"]["value"] < result["metrics"]["wall_s"]["value"]
    assert re.search(r"error_rate\s+0 ratio", done.stdout)
    record = json.loads((tmp_path / f"result_{workload}.json").read_text())
    assert record["host"]["nproc"] >= 1 and record["host"]["python"]
    # Every call sampled the host's speed and scaled both phases by it.
    for call in record["calls"]:
        assert call["probe_samples"] >= 1
        assert call["setup_s"] == pytest.approx(call["host_setup_s"] * call["setup_scale"])
        assert call["wall_s"] > call["setup_s"] > 0


#: Per-layer counters a workload cannot run without: if the program
#: stops calling a wrapped boundary, its metrics would silently read 0.
EXERCISED = {
    "e2_capture": ["flows.specs_s", "events.run_self_s", "trace.observe_calls",
                   "blink.feed_calls", "blink.retx_count_calls"],
    "fwd_1shard": ["topology.build_s", "topology.node_props_calls",
                   "routing.compute_s", "routing.lookup_calls",
                   "link.transmit_calls", "network.forward_calls",
                   "events.run_self_s", "workloads.flows", "kernels.hash_s"],
    "fwd_2shard": ["topology.build_s", "workloads.flows", "kernels.codec_calls",
                   "kernels.codec_bytes", "kernels.hash_s",
                   "forwarding.windows", "forwarding.barrier_wait_s",
                   "forwarding.ipc_send_s"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(tmp_path, workload):
    done = run_bench(tmp_path, "--workload", workload, "--trace", "1")
    result = last_json(done)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    idle = [m for m in EXERCISED[workload] if not result["metrics"][m]["value"] > 0]
    assert idle == []

    trace = json.loads((tmp_path / f"trace_{workload}.json").read_text())
    traced_walls = [c["host_wall_s"] for c in trace["calls"] if c.get("layers")]
    for ledger, wall in zip(trace["ledgers"], traced_walls):
        layers = {k: v for k, v in ledger["layer_self_s"].items() if k != "unattributed"}
        assert all(v >= 0 for v in layers.values())
        assert sum(layers.values()) <= wall
        # The per-layer sum plus the root's own time is the root span.
        total = sum(ledger["layer_self_s"].values())
        assert total == pytest.approx(ledger["root_s"], rel=1e-9)
        assert ledger["missing"] == []
        spans = ledger["spans"]
        assert spans and all(s["parent"] is None or s["parent"] < s["id"] for s in spans)


def copy_benchmark(tmp_path, with_program):
    """The benchmark's files in ``tmp_path``, with or without ``src/``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "perfbench" / "run.py"


def test_wrong_pin_fails_every_call(tmp_path):
    script = copy_benchmark(tmp_path, with_program=True)
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["fwd-tiny"]["7"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    done = run_bench(tmp_path / "out", "--workload", "fwd_1shard",
                     cwd=tmp_path, script=script)
    result = last_json(done)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 3
    assert re.search(r"error_rate\s+1 ratio", done.stdout)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    script = copy_benchmark(tmp_path, with_program=False)
    done = run_bench(tmp_path / "out", "--workload", "e2_capture",
                     cwd=tmp_path, script=script)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_unpinned_seed_checks_two_shards_against_one(tmp_path):
    done = run_bench(tmp_path, "--workload", "fwd_2shard", seed=1000)
    result = last_json(done)
    assert result["correct"] is True and result["failed"] == 0
    assert "hash reference: fwd_1shard call" in done.stdout
