"""Tests of the benchmark itself, at the tiny "smoke" corpus size.

    python3 -m pytest perfbench -q
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(run.SRC))


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark at smoke size; return (last stdout line, full result)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result_path = run.WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(result_path.read_text(encoding="utf-8"))


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        line, result = bench(workload, 1, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared(kind)
        assert result["error_rate"] == 0
        assert result["provenance"]["backend"]
    spans = json.loads((run.WORK / "results" / f"{workload}-seed1.spans.json").read_text())
    assert [s["name"] for s in spans["setup"]] == ["store.build_corpus"] * 2
    assert spans["runs"]
    assert all(s["name"] == "cli.main" or s["parent"] for s in spans["runs"][0]["spans"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_inputs_not_metric_set(workload):
    line1, result1 = bench(workload, 1, 0)
    line2, result2 = bench(workload, 2, 0)
    assert result1["provenance"]["inputs_sha256"] != result2["provenance"]["inputs_sha256"]
    assert set(line1["metrics"]) == set(line2["metrics"])


def test_flipped_artifact_byte_counts_as_failed_run(monkeypatch, capsys):
    calls = []
    original = workloads.Workload.artifacts

    def flip_second(self, out):
        paths = original(self, out)
        calls.append(out)
        if len(calls) == 2:   # the first timed run; the oracle-checked run stays clean
            data = bytearray(paths[0].read_bytes())
            data[len(data) // 2] ^= 0x01
            paths[0].write_bytes(bytes(data))
        return paths

    monkeypatch.setattr(workloads.Workload, "artifacts", flip_second)
    assert run.main(["--workload", "avgsim-mean", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--size", "smoke"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["failed"] == 1 and not line["correct"]
    result = json.loads((run.WORK / "results" / "avgsim-mean-seed3-trace0.json").read_text())
    assert result["error_rate"] == 1 / line["attempted"]


def _corrupt(workload, out: Path) -> None:
    """Replace the top-ranked id with the last source id not selected."""
    path = out / "curation.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    chosen = {row["video_id"] for row in rows}
    rows[0]["video_id"] = next(v for v in reversed(workload.source.ids) if v not in chosen)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


@pytest.mark.parametrize("workload_name", run.WORKLOADS)
def test_oracle_accepts_cupid_output_and_rejects_a_corrupted_one(workload_name, tmp_path):
    workload = workloads.make_workload(workload_name, "smoke")
    workload.setup(tmp_path / "inputs", 5)
    launcher = run.Launcher()
    try:
        runner = run.Runner(workload, tmp_path, 0.0, launcher)
        assert runner.checked_first_run() == []
    finally:
        launcher.close()
    _corrupt(workload, runner.out)
    assert workload.check(runner.out)
