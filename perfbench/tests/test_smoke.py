"""Seconds-long runs of every workload at the smoke size, through the same
command line the full benchmark uses."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import run  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
    return done, result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    done, result = bench(workload, 0)
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    assert "ops_failed_frac 0 frac" in done.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    done, result = bench(workload, 1)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if name != "trace.overhead_frac":
            assert metric["value"] > 0, name
    detail = json.loads((ROOT / ".perfbench" / "results"
                         / f"{workload}-seed3-trace1.json").read_text())
    layers = {k: v[0] for k, v in detail["per_layer"].items()}
    assert detail["environment"]["blas_threads"] == 1
    if workload == "serve_cold":
        assert layers["model.forward_passes_per_eval_doc"] == 2
        assert "model.checkpoint_load_ms" in layers
        assert "model.step_ms_p50" not in layers
    else:
        # The traced run's own count of the inputs matches what was
        # generated: training preprocesses every document of every file.
        props = detail["inputs"]["inputs"].values()
        expected = sum(p["docs"] * p["sentences_per_doc_mean"] for p in props)
        assert layers["corpus.sentences_per_doc_mean"] == pytest.approx(
            expected / sum(p["docs"] for p in props))
        # Per-nn times plus the step's own glue account for the step.
        assert layers["model.step_accounted_frac"] == pytest.approx(1.0, abs=0.1)
        assert layers["nn.flops_per_step"] > 0
        assert 0 < layers["nn.discarded_input_grad_frac"] < 1
        assert layers["cli.post_train_s"] > 0
    if workload == "yelp_train_v":
        assert layers["corpus.cropped_sentence_frac"] > 0
        assert "nn.conv.vcb.conv2.bwd_ms" in layers
        assert "nn.maxpool.vertical.fwd_ms" in layers


def test_same_seed_gives_identical_inputs(tmp_path):
    for workload in ("ag_train", "yelp_train_v"):
        digests = []
        for attempt in range(2):
            out = tmp_path / f"{workload}{attempt}"
            out.mkdir()
            digests.append(gen._generate(workload, 9, "smoke", out, ROOT)["files"])
        assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, result = bench("ag_train", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert result == {}
    assert not (tmp_path / ".perfbench").exists()


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
