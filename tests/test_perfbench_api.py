"""The program API that the benchmark in perfbench/ calls.

perfbench/ changes only together with the benchmark, so a change to src/
that renames or breaks what it calls would first show as a failed
benchmark run.  These tests run its own code against the current source
instead: the script that prepares the ``serve_cold`` checkpoint, and the
tracer whose span names and attributes the per-layer metrics are read
from.  They only read perfbench/.
"""

from __future__ import annotations

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from slcnn.cli import main

ROOT = Path(__file__).resolve().parent.parent
GEN = runpy.run_path(str(ROOT / "perfbench" / "gen.py"))
TEXTS = ["Stocks rallied. Markets closed higher!", "The game went to overtime."]


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = {**GEN["child_env"](ROOT), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory, synth_embeddings) -> tuple[Path, list[int]]:
    """The serve_cold preparation script's checkpoint and reference labels."""
    out = tmp_path_factory.mktemp("serve")
    os.symlink(synth_embeddings, out / "embeddings.txt")
    done = _run(["-c", GEN["_PREPARE"], str(out), "1", json.dumps(TEXTS)])
    assert done.returncode == 0, done.stderr
    return out, json.loads(done.stdout.strip().splitlines()[-1])


def test_prepared_labels_match_predict(prepared, synth_embeddings, capsys):
    out, labels = prepared
    assert len(labels) == 1 + len(TEXTS)
    for text, want in zip(["", *TEXTS], labels):
        code = main(["predict", "--checkpoint", str(out / "model.slcnn"),
                     "--embeddings", str(synth_embeddings), "--text", text])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["label"] == want


def _trace(tmp_path: Path, argv: list[str]) -> list[list]:
    spans_path = tmp_path / "spans.json"
    done = _run([str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "--", *argv])
    assert done.returncode == 0, done.stderr
    payload = json.loads(spans_path.read_text(encoding="utf-8"))
    assert payload["exit_code"] == 0
    return payload["spans"]


def test_traced_eval_has_the_spans_the_bench_reads(prepared, synth_train_csv,
                                                   synth_embeddings, tmp_path):
    out, _ = prepared
    spans = _trace(tmp_path, ["eval", "--checkpoint", str(out / "model.slcnn"),
                              "--input", str(synth_train_csv),
                              "--embeddings", str(synth_embeddings), "--limit", "8"])
    names = {span[0] for span in spans}
    assert {"corpus.build_grid_dataset_from_token_docs", "embedding.embedding_matrix_for_vocab",
            "embedding.load_embeddings", "model.predict_labels"} <= names
    (labels,) = [i for i, span in enumerate(spans) if span[0] == "model.predict_labels"]
    children = [span for span in spans if span[3] == labels]
    assert children and all(span[0].startswith("nn.") for span in children)
    # Eval batches are cut where the first conv bank, named by the
    # build_model hook over param_blocks(), starts.
    assert children[0][0] == "nn.conv2d_forward"
    assert children[0][4]["layer"] == "hcb1.conv1"
    # Per-layer times are keyed by bank: every conv call, the pad-row
    # constants' included, runs on a bank of the model.
    conv = [span[4] for span in spans if span[0] == "nn.conv2d_forward"]
    assert conv and all(attrs["layer"] != "?" for attrs in conv)


def test_traced_train_reads_the_backward_caches(synth_train_csv, synth_test_csv,
                                                synth_embeddings, tmp_path):
    # The tracer reads Cache.x and PoolCache.axis_index / in_shape.
    spans = _trace(tmp_path, ["train", "--input", str(synth_train_csv),
                              "--embeddings", str(synth_embeddings),
                              "--out-dir", str(tmp_path / "run"), "--limit", "8", "--td", "2",
                              "--epochs", "1", "--batch-size", "8", "--val-frac", "0",
                              "--test", str(synth_test_csv), "--test-limit", "8"])
    conv = [span[4] for span in spans if span[0] == "nn.conv2d_backward"]
    pool = [span[4] for span in spans if span[0] == "nn.maxpool_backward"]
    assert conv and all(attrs["layer"] != "?" and len(attrs["shape"]) == 7 for attrs in conv)
    conv_fwd = [span[4] for span in spans if span[0] == "nn.conv2d_forward"]
    assert conv_fwd and all(attrs["layer"] != "?" for attrs in conv_fwd)
    assert {attrs["axis"] for attrs in pool} == {"horizontal"}
    names = {span[0] for span in spans}
    assert {"corpus.build_grid_dataset_from_token_docs", "embedding.load_embeddings",
            "embedding.embedding_matrix_for_vocab"} <= names
    # The bench ends the train-side time at the first test evaluation
    # after training.
    (train,) = [span for span in spans if span[0] == "model.train"]
    assert any(span[0] == "model.evaluate" and span[1] > train[2] for span in spans)
