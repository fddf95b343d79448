"""Output checks feed ops_failed_frac; a broken program output is counted,
not a crash of the benchmark."""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import run  # noqa: E402


def corrupted_serve_inputs(tmp_path: Path) -> tuple[Path, dict]:
    inputs, report = gen.inputs(ROOT, "serve_cold", 5, "smoke")
    copy = tmp_path / "inputs"
    shutil.copytree(inputs, copy)
    ckpt = copy / "model.slcnn"
    data = bytearray(ckpt.read_bytes())
    data[len(data) // 2] ^= 0xFF
    ckpt.write_bytes(bytes(data))
    return copy, report


def test_corrupt_checkpoint_counts_as_failed_operations(tmp_path, monkeypatch):
    copy, report = corrupted_serve_inputs(tmp_path)
    bench = run.Bench(ROOT, "serve_cold", 5, "smoke")
    bench.inputs = copy
    try:
        p = run.serve_cold_pass(bench, traced=False)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    assert bench.attempted == 3  # empty predict, text predict, eval
    assert bench.failed == 3
    assert all("exit code 1" in f for f in bench.failures)
    _, named = run.end_to_end(bench, [p])
    assert named["ops_failed_frac"][0] == 1.0


def test_run_reports_the_failure_and_exits_1(tmp_path, monkeypatch, capsys):
    copy, report = corrupted_serve_inputs(tmp_path)
    monkeypatch.setattr(run.gen, "inputs", lambda *args: (copy, report))
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "serve_cold", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--size", "smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 6  # two passes of three commands
    assert result["failed"] == 6
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_wrong_prediction_label_fails_its_check(tmp_path):
    bench = run.Bench(ROOT, "serve_cold", 5, "smoke")
    ref = bench.report["reference_labels"]
    bench.report = {**bench.report, "reference_labels": {
        "empty": (ref["empty"] + 1) % 4, "texts": ref["texts"]}}
    try:
        run.serve_cold_pass(bench, traced=False)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    assert bench.attempted == 3
    assert bench.failed == 1
    assert "predict_labels gives" in bench.failures[0]
