from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from slcnn import cli, corpus, embedding, fileio, nn
from slcnn import model as m
from slcnn.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args: list[str], capsys) -> tuple[int, str, str]:
    """In-process CLI invocation; returns (exit_code, stdout, stderr)."""
    try:
        code = main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


def run_cli_subprocess(args: list[str]) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "slcnn", *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


class TestStats:
    def test_json_output_with_threshold(self, synth_train_csv, capsys):
        code, out, err = run_cli(["stats", "--input", str(synth_train_csv)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["t_d"] >= 1
        assert payload["num_documents"] == 240
        assert 0 <= payload["pct_cropped_sentences"] <= 100

    def test_single_doc_all_zero_percentages(self, tmp_path, capsys):
        path = helpers.write_dataset_csv(
            tmp_path / "one.csv",
            [helpers.make_synthetic_docs(1, num_classes=1, seed=1)[0]],
        )
        code, out, _ = run_cli(["stats", "--input", str(path)], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["pct_cropped_sentences"] == 0
        assert payload["pct_cropped_documents"] == 0
        assert payload["pct_docs_with_cropped_sentences"] == 0

    def test_missing_file_exits_2_with_stderr(self, capsys):
        code, out, err = run_cli(["stats", "--input", "/nonexistent/x.csv"], capsys)
        assert code == 2
        assert "error" in err.lower()
        assert out == ""

    def test_relative_path_ignores_data_dir_variable(self, synth_train_csv, tmp_path,
                                                     monkeypatch, capsys):
        # A relative input means the file under the working directory, and
        # nothing else, whatever SLCNN_DATA_DIR says.
        monkeypatch.setenv("SLCNN_DATA_DIR", str(synth_train_csv.parent))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["stats", "--input", synth_train_csv.name], capsys)
        assert code == 2
        assert "input file not found" in err and out == ""

    def test_out_file_and_manifest(self, synth_train_csv, tmp_path, capsys):
        out_file = tmp_path / "stats.json"
        code, _, _ = run_cli(
            ["stats", "--input", str(synth_train_csv), "--out", str(out_file)], capsys
        )
        assert code == 0
        assert json.loads(out_file.read_text())["t_d"] >= 1
        manifest = json.loads(out_file.with_suffix(".manifest.json").read_text())
        assert manifest["command"] == "stats"
        assert manifest["input_digests"]

    def test_document_order_changes_no_byte(self, tmp_path, capsys):
        # Sentence counts 1, 2, 1, 1, 1: np.std gives 0.4000000000000001 over
        # them in this order and 0.4 in the reverse one.
        docs = [corpus.RawDocument(0, [" ".join(["Alpha beta."] * n)]) for n in (1, 2, 1, 1, 1)]
        outs = []
        for name, rows in (("forward.csv", docs), ("reversed.csv", docs[::-1])):
            code, out, _ = run_cli(
                ["stats", "--input", str(helpers.write_dataset_csv(tmp_path / name, rows))], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["stddev_sentences_per_doc"] == 0.4


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_train_csv, synth_embeddings):
    """One small CLI training run shared by the eval/predict tests."""
    out_dir = tmp_path_factory.mktemp("run")
    code = main([
        "train",
        "--input", str(synth_train_csv),
        "--embeddings", str(synth_embeddings),
        "--out-dir", str(out_dir),
        "--limit", "48", "--epochs", "6", "--seed", "3", "--batch-size", "16",
    ])
    assert code == 0
    return out_dir


class TestTrain:
    def test_a_best_last_epoch_is_not_evaluated_again(self, synth_train_csv, synth_test_csv,
                                                      synth_embeddings, tmp_path, monkeypatch,
                                                      capsys):
        sizes, evaluate = [], m.evaluate

        def counting(net, data):
            sizes.append(len(data))
            return evaluate(net, data)

        monkeypatch.setattr(m, "evaluate", counting)
        out_dir = tmp_path / "run"
        code, _, _ = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--test", str(synth_test_csv), "--out-dir", str(out_dir),
            "--limit", "40", "--epochs", "1", "--batch-size", "16",
        ], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["best_val_epoch"] == 0
        assert len(sizes) == 2  # the validation set once, then the test set once
        assert report["test_accuracy_best_val"] == report["test_accuracy_final"]
        assert (out_dir / "model_best.slcnn").read_bytes() == \
            (out_dir / "model.slcnn").read_bytes()

    def test_best_checkpoint_is_the_run_stopped_after_its_epoch(self, synth_train_csv,
                                                               synth_embeddings, tmp_path,
                                                               capsys):
        # Shuffles and dropout masks are keyed by (seed, epoch), so the
        # parameters after epoch b do not depend on the epochs still to come.
        # Only the config's epochs tells the two checkpoints apart.
        argv = ["train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
                "--limit", "48", "--val-frac", "0.25", "--seed", "0", "--batch-size", "8"]
        code, _, _ = run_cli(argv + ["--epochs", "5", "--out-dir", str(tmp_path / "run")], capsys)
        assert code == 0
        best_epoch = json.loads((tmp_path / "run" / "report.json").read_text())["best_val_epoch"]
        assert best_epoch == 3  # not the last
        code, _, _ = run_cli(argv + ["--epochs", str(best_epoch + 1),
                                     "--out-dir", str(tmp_path / "stopped")], capsys)
        assert code == 0
        best = fileio.read_npz(tmp_path / "run" / "model_best.slcnn")
        stopped = fileio.read_npz(tmp_path / "stopped" / "model.slcnn")
        assert list(best) == list(stopped)
        configs = [json.loads(members.pop("config").tobytes()) for members in (best, stopped)]
        assert configs[0] == {**configs[1], "epochs": 5}
        for name, arr in best.items():
            assert arr.tobytes() == stopped[name].tobytes(), name

    def test_invalid_config_exits_2_before_training(self, synth_train_csv, synth_embeddings,
                                                    tmp_path, capsys):
        out_dir = tmp_path / "never"
        code, _, err = run_cli([
            "train", "--input", str(synth_train_csv),
            "--embeddings", str(synth_embeddings),
            "--variant", "slcnn+v", "--fc", "small", "--td", "3",
            "--out-dir", str(out_dir),
        ], capsys)
        assert code == 2
        assert "doc_len" in err or "slcnn+v" in err
        assert not (out_dir / "model.slcnn").exists()

    # Counts, the seed, the learning rate and the dropout rate are checked as
    # the flags are parsed, and the error names the flag.
    @pytest.mark.parametrize("flag,value,named", [
        ("--epochs", "0", "--epochs"),
        ("--epochs", "-1", "--epochs"),
        ("--batch-size", "0", "--batch-size"),
        ("--batch-size", "-2", "--batch-size"),
        ("--seed", "-1", "--seed"),
        ("--lr", "-1", "--lr"),
        ("--lr", "nan", "--lr"),
        ("--dropout", "1", "--dropout"),
    ])
    def test_impossible_setting_exits_2_before_any_write(
            self, synth_train_csv, synth_embeddings, tmp_path, capsys, flag, value, named):
        out_dir = tmp_path / "never"
        code, _, err = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--out-dir", str(out_dir), "--limit", "8", "--epochs", "1", "--batch-size", "8",
            f"{flag}={value}",
        ], capsys)
        assert code == 2
        assert named in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--limit", "--test-limit"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_limit_below_one_exits_2(self, synth_train_csv, synth_test_csv, synth_embeddings,
                                     tmp_path, capsys, flag, value):
        out_dir = tmp_path / "never"
        code, _, err = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--test", str(synth_test_csv), "--out-dir", str(out_dir),
            "--limit", "8", "--epochs", "1", "--batch-size", "8", f"{flag}={value}",
        ], capsys)
        assert code == 2
        assert flag in err
        assert not out_dir.exists()

    def test_test_limit_draws_the_same_documents_for_every_seed(
            self, synth_train_csv, synth_test_csv, synth_embeddings, tmp_path, capsys,
            monkeypatch):
        drawn = []

        def recording(args, path, *rest):
            docs = load_docs(args, path, *rest)
            if path == synth_test_csv:
                drawn.append(docs)
            return docs

        load_docs = cli._load_docs
        monkeypatch.setattr(cli, "_load_docs", recording)
        for seed in ("0", "3"):
            code, _, _ = run_cli([
                "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
                "--test", str(synth_test_csv), "--out-dir", str(tmp_path / seed),
                "--limit", "8", "--epochs", "1", "--batch-size", "8", "--seed", seed,
                "--test-limit", "4",
            ], capsys)
            assert code == 0
        assert len(drawn) == 2 and len(drawn[0]) == 4
        assert drawn[0] == drawn[1]

    def test_classes_below_labels_exits_2(self, synth_train_csv, synth_embeddings, tmp_path,
                                          capsys):
        out_dir = tmp_path / "never"
        code, _, err = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--out-dir", str(out_dir), "--classes", "2", "--epochs", "1",
        ], capsys)
        assert code == 2
        assert str(synth_train_csv) in err and "class index" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--td", "--classes"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_derived_setting_below_one_exits_2(self, synth_train_csv, synth_embeddings,
                                               tmp_path, capsys, flag, value):
        out_dir = tmp_path / "never"
        code, _, err = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--out-dir", str(out_dir), "--limit", "8", "--epochs", "1", "--batch-size", "8",
            f"{flag}={value}",
        ], capsys)
        assert code == 2
        assert flag in err
        assert not out_dir.exists()

    def test_val_file_scores_every_epoch(self, synth_train_csv, synth_test_csv,
                                         synth_embeddings, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--val", str(synth_test_csv), "--out-dir", str(out_dir),
            "--limit", "8", "--epochs", "2", "--batch-size", "8",
        ], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["val_accuracy"]) == 2
        assert json.loads(out)["best_val_accuracy"] == max(report["val_accuracy"])
        assert (out_dir / "model_best.slcnn").is_file()
        digests = json.loads((out_dir / "manifest.json").read_text())["input_digests"]
        assert digests[str(synth_test_csv)] == \
            hashlib.sha256(synth_test_csv.read_bytes()).hexdigest()

    @pytest.mark.parametrize("value", ["0.5", "0.05"])
    def test_val_with_explicit_val_frac_exits_2(self, synth_train_csv, synth_test_csv,
                                                synth_embeddings, tmp_path, capsys, value):
        # Only one held-out source can take effect; even the default value
        # given explicitly is a contradiction.
        out_dir = tmp_path / "never"
        code, _, err = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--out-dir", str(out_dir), "--limit", "8", "--epochs", "1", "--batch-size", "8",
            "--val", str(synth_test_csv), "--val-frac", value,
        ], capsys)
        assert code == 2
        assert "--val-frac" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["-0.5", "1.0", "1.5", "nan", "x"])
    def test_val_frac_outside_unit_interval_exits_2(self, tmp_path, capsys, value):
        # The inputs do not exist: the flag is rejected before any is read.
        out_dir = tmp_path / "never"
        code, _, err = run_cli([
            "train", "--input", str(tmp_path / "absent.csv"),
            "--embeddings", str(tmp_path / "absent.txt"),
            "--out-dir", str(out_dir), f"--val-frac={value}",
        ], capsys)
        assert code == 2
        assert "--val-frac" in err and "not found" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "-1"), ("--lr", "0"), ("--lr", "inf"), ("--lr", "x"),
        ("--dropout", "1"), ("--dropout", "-0.1"), ("--dropout", "nan"),
    ])
    def test_rate_rejected_before_inputs_are_read(self, tmp_path, capsys, flag, value):
        # The inputs do not exist: the flag is rejected before any is read.
        code, _, err = run_cli([
            "train", "--input", str(tmp_path / "absent.csv"),
            "--embeddings", str(tmp_path / "absent.txt"),
            "--out-dir", str(tmp_path / "never"), flag, value,
        ], capsys)
        assert code == 2
        assert flag in err and "not found" not in err
        assert not (tmp_path / "never").exists()

    # One class, and a test limit with no test set (which would otherwise be
    # ignored).
    @pytest.mark.parametrize("flag,value,named", [
        ("--classes", "1", "--classes"),
        ("--test-limit", "4", "--test-limit needs --test"),
    ])
    def test_setting_rejected_before_inputs_are_read(self, tmp_path, capsys, flag, value,
                                                     named):
        # The inputs do not exist: the setting is rejected before any is read.
        code, out, err = run_cli([
            "train", "--input", str(tmp_path / "absent.csv"),
            "--embeddings", str(tmp_path / "absent.txt"),
            "--out-dir", str(tmp_path / "never"), flag, value,
        ], capsys)
        assert code == 2
        assert named in err and "not found" not in err and not out
        assert not (tmp_path / "never").exists()

    def test_diverged_training_is_one_error(self, synth_train_csv, synth_embeddings, tmp_path,
                                            capsys):
        # Under filterwarnings=error a numpy RuntimeWarning on the way to the
        # non-finite check would escape main() instead.
        code, out, err = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--out-dir", str(tmp_path / "run"), "--limit", "8", "--epochs", "6",
            "--batch-size", "8", "--val-frac", "0", "--lr", "1e18",
        ], capsys)
        assert code == 1
        assert "training diverged" in err and not out
        assert not (tmp_path / "run").exists()

    def test_width_comes_from_the_embedding_file(self, synth_train_csv, synth_embeddings,
                                                 tmp_path, capsys):
        tokens = [line.split(" ", 1)[0]
                  for line in synth_embeddings.read_text(encoding="utf-8").splitlines()]
        narrow = helpers.write_embeddings_file(tmp_path / "e50.txt", tokens, dim=50)
        checkpoint = tmp_path / "run" / "model.slcnn"
        code, _, _ = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(narrow),
            "--out-dir", str(tmp_path / "run"), "--limit", "8", "--epochs", "1",
            "--batch-size", "8",
        ], capsys)
        assert code == 0
        assert m.load_checkpoint(checkpoint).config.embed_dim == 50
        code, out, _ = run_cli([
            "eval", "--checkpoint", str(checkpoint), "--input", str(synth_train_csv),
            "--embeddings", str(narrow), "--limit", "8",
        ], capsys)
        assert code == 0 and json.loads(out)["num_documents"] == 8

    @pytest.mark.parametrize("content", ["", "stocks\n"], ids=["empty", "no_values"])
    def test_embedding_file_without_values_exits_2(self, synth_train_csv, tmp_path, capsys,
                                                   content):
        path = tmp_path / "vectors.txt"
        path.write_text(content, encoding="utf-8")
        code, out, err = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(path),
            "--out-dir", str(tmp_path / "never"), "--limit", "8", "--epochs", "1",
        ], capsys)
        assert code == 2 and not out
        assert f"error: {path}: the first line holds no embedding values" in err
        assert not (tmp_path / "never").exists()

    def test_bare_cr_line_ends_give_the_lf_files_checkpoint(self, synth_train_csv,
                                                           synth_embeddings, tmp_path, capsys):
        # The width comes from the first line, which ends at a bare CR too.
        bare_cr = tmp_path / "cr.txt"
        bare_cr.write_bytes(synth_embeddings.read_bytes().replace(b"\n", b"\r"))
        checkpoints = []
        for name, emb in (("lf", synth_embeddings), ("cr", bare_cr)):
            code, _, err = run_cli([
                "train", "--input", str(synth_train_csv), "--embeddings", str(emb),
                "--out-dir", str(tmp_path / name), "--limit", "16", "--epochs", "1",
                "--batch-size", "8",
            ], capsys)
            assert code == 0, err
            checkpoints.append((tmp_path / name / "model.slcnn").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    # Far beyond any machine's address space, so numpy refuses at once:
    # 10^15 classes need a 3.55 EiB output layer, --td 10^15 a 163 PiB grid.
    @pytest.mark.parametrize("case", ["classes", "td"])
    def test_allocation_beyond_memory_is_one_error(self, synth_embeddings, tmp_path, capsys,
                                                   case):
        docs = helpers.make_synthetic_docs(2, num_classes=4, seed=3)
        if case == "classes":
            docs.append(corpus.RawDocument(label=10**15 - 1, fields=["Stocks rallied."]))
        path = helpers.write_dataset_csv(tmp_path / "data.csv", docs)
        code, out, err = run_cli([
            "train", "--input", str(path), "--embeddings", str(synth_embeddings),
            "--out-dir", str(tmp_path / "never"), "--epochs", "1",
        ] + ["--td", str(10**15)] * (case == "td"), capsys)
        assert code == 1 and not out
        assert "error: Unable to allocate" in err and "Traceback" not in err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_file"])
    def test_out_dir_on_a_regular_file_exits_2(self, tmp_path, capsys, under):
        # Rejected before the (absent) inputs are read, not after training.
        blocker = tmp_path / "taken"
        blocker.write_text("earlier\n", encoding="utf-8")
        code, out, err = run_cli([
            "train", "--input", str(tmp_path / "absent.csv"),
            "--embeddings", str(tmp_path / "absent.txt"),
            "--out-dir", str(blocker / under), "--epochs", "1",
        ], capsys)
        assert code == 2
        assert "--out-dir" in err and "not found" not in err and not out
        assert blocker.read_text(encoding="utf-8") == "earlier\n"

    def test_val_frac_zero_disables_split(self, synth_train_csv, synth_embeddings, tmp_path,
                                          capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli([
            "train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--out-dir", str(out_dir), "--limit", "8", "--epochs", "1", "--batch-size", "8",
            "--val-frac", "0",
        ], capsys)
        assert code == 0
        assert json.loads((out_dir / "report.json").read_text())["val_accuracy"] == []
        assert not (out_dir / "model_best.slcnn").exists()

    def test_a_run_without_validation_leaves_no_earlier_best_model(
            self, synth_train_csv, synth_embeddings, tmp_path, capsys):
        out_dir = tmp_path / "run"
        argv = ["train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
                "--out-dir", str(out_dir), "--limit", "8", "--epochs", "1", "--batch-size", "8"]
        assert run_cli(argv, capsys)[0] == 0
        assert (out_dir / "model_best.slcnn").is_file()
        assert run_cli(argv + ["--val-frac", "0"], capsys)[0] == 0
        assert not (out_dir / "model_best.slcnn").exists()
        # The directory holds this run's outputs and its manifest, nothing else.
        outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            [Path(p).name for p in outputs] + ["manifest.json"])

    def test_val_frac_leaving_no_training_document_exits_2(self, tmp_path, capsys):
        # Rejected with the other settings, before the (malformed) embedding
        # file is parsed.
        two = helpers.write_dataset_csv(
            tmp_path / "two.csv", helpers.make_synthetic_docs(1, num_classes=2, seed=4))
        broken = tmp_path / "emb.txt"
        broken.write_text("x 1.0\n", encoding="utf-8")
        out_dir = tmp_path / "never"
        code, out, err = run_cli([
            "train", "--input", str(two), "--embeddings", str(broken),
            "--out-dir", str(out_dir), "--val-frac", "0.9",
        ], capsys)
        assert code == 2 and not out
        assert "--val-frac 0.9 holds out 2 of the 2 training documents" in err
        assert str(broken) not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--test", "--val"])
    def test_held_out_labels_beyond_train_classes_exit_2(
            self, synth_test_csv, synth_embeddings, tmp_path, capsys, flag):
        two_class = helpers.write_dataset_csv(
            tmp_path / "two.csv", helpers.make_synthetic_docs(8, num_classes=2, seed=4))
        out_dir = tmp_path / "never"
        code, _, err = run_cli([
            "train", "--input", str(two_class), "--embeddings", str(synth_embeddings),
            "--out-dir", str(out_dir), "--epochs", "1", "--batch-size", "16",
            flag, str(synth_test_csv),
        ], capsys)
        assert code == 2
        assert str(synth_test_csv) in err and "class index 4" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("variant", ["slcnn", "slcnn+v"])
    def test_test_scores_match_eval_and_leave_training_alone(
            self, synth_train_csv, synth_test_csv, synth_embeddings, tmp_path, capsys, variant):
        # The test set adds words to the run's one vocabulary, one of them
        # missing from the embedding file; a token's row depends only on the
        # token, so no training tensor changes.
        test_csv = tmp_path / "test.csv"
        test_csv.write_bytes(synth_test_csv.read_bytes() + b'2,"Quokkas played the match."\n')
        argv = ["train", "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
                "--variant", variant, "--td", "4", "--limit", "24", "--epochs", "2",
                "--batch-size", "8", "--seed", "5"]
        code, _, _ = run_cli(argv + ["--out-dir", str(tmp_path / "plain")], capsys)
        assert code == 0
        code, out, _ = run_cli(argv + ["--out-dir", str(tmp_path / "run"),
                                       "--test", str(test_csv)], capsys)
        assert code == 0
        summary = json.loads(out)
        for name, key in (("model.slcnn", "test_accuracy_final"),
                          ("model_best.slcnn", "test_accuracy_best_val")):
            checkpoint = tmp_path / "run" / name
            assert checkpoint.read_bytes() == (tmp_path / "plain" / name).read_bytes()
            code, out, _ = run_cli(["eval", "--checkpoint", str(checkpoint),
                                    "--input", str(test_csv),
                                    "--embeddings", str(synth_embeddings)], capsys)
            assert code == 0
            assert json.loads(out)["accuracy"] == summary[key]

    def test_artifacts_written(self, trained):
        assert (trained / "model.slcnn").is_file()
        assert (trained / "model_best.slcnn").is_file()
        report = json.loads((trained / "report.json").read_text())
        assert len(report["train_loss"]) == 6
        assert report["schema_version"] == 1
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["args"]["seed"] == 3
        assert len(manifest["input_digests"]) == 2

    def test_identical_runs_are_bit_identical(self, synth_train_csv, synth_embeddings,
                                              tmp_path, capsys):
        args = [
            "train", "--input", str(synth_train_csv),
            "--embeddings", str(synth_embeddings),
            "--limit", "32", "--epochs", "3", "--seed", "9", "--batch-size", "16",
        ]
        code_a, _, _ = run_cli(args + ["--out-dir", str(tmp_path / "a")], capsys)
        code_b, _, _ = run_cli(args + ["--out-dir", str(tmp_path / "b")], capsys)
        assert code_a == code_b == 0
        report_a = json.loads((tmp_path / "a" / "report.json").read_text())
        report_b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report_a["train_loss"] == report_b["train_loss"]
        assert (tmp_path / "a" / "model.slcnn").read_bytes() == \
               (tmp_path / "b" / "model.slcnn").read_bytes()

    def test_rerun_from_manifest_reproduces_checkpoint(self, trained, tmp_path, capsys):
        code, _, _ = run_cli(
            ["rerun", str(trained / "manifest.json"), "--out-dir", str(tmp_path / "replay")],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "replay" / "model.slcnn").read_bytes() == \
               (trained / "model.slcnn").read_bytes()

    def test_rerun_of_a_rerun_reproduces_checkpoint(self, trained, tmp_path, capsys):
        code, _, _ = run_cli(
            ["rerun", str(trained / "manifest.json"), "--out-dir", str(tmp_path / "a")], capsys
        )
        assert code == 0
        code, _, _ = run_cli(
            ["rerun", str(tmp_path / "a" / "manifest.json"), "--out-dir", str(tmp_path / "b")],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "b" / "model.slcnn").read_bytes() == \
               (trained / "model.slcnn").read_bytes()

    def test_rerun_rejects_changed_input(self, synth_train_csv, synth_embeddings, tmp_path,
                                         capsys):
        train_csv = tmp_path / "train.csv"
        train_csv.write_bytes(synth_train_csv.read_bytes())
        code, _, _ = run_cli([
            "train", "--input", str(train_csv), "--embeddings", str(synth_embeddings),
            "--out-dir", str(tmp_path / "run"),
            "--limit", "8", "--epochs", "1", "--batch-size", "8",
        ], capsys)
        assert code == 0
        with train_csv.open("ab") as handle:
            handle.write(b"\n")
        code, _, err = run_cli(
            ["rerun", str(tmp_path / "run" / "manifest.json"),
             "--out-dir", str(tmp_path / "replay")],
            capsys,
        )
        assert code == 2
        assert str(train_csv) in err
        assert not (tmp_path / "replay" / "model.slcnn").exists()


class TestRerun:
    @pytest.fixture
    def stats_manifest(self, synth_train_csv, tmp_path, capsys) -> Path:
        out_file = tmp_path / "stats.json"
        code, _, _ = run_cli(["stats", "--input", str(synth_train_csv), "--out", str(out_file)],
                             capsys)
        assert code == 0
        out_file.write_text("earlier\n", encoding="utf-8")
        return out_file.with_suffix(".manifest.json")

    @pytest.fixture
    def eval_manifest(self, trained, synth_train_csv, synth_embeddings, tmp_path,
                      capsys) -> Path:
        out_file = tmp_path / "eval.json"
        code, _, _ = run_cli([
            "eval", "--checkpoint", str(trained / "model.slcnn"),
            "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--limit", "8", "--out", str(out_file),
        ], capsys)
        assert code == 0
        out_file.write_text("earlier\n", encoding="utf-8")
        return out_file.with_suffix(".manifest.json")

    @pytest.mark.parametrize("which", ["stats_manifest", "eval_manifest"])
    def test_out_dir_needs_a_train_manifest(self, request, tmp_path, capsys, which):
        manifest = request.getfixturevalue(which)
        before = manifest.read_bytes()
        code, out, err = run_cli(["rerun", str(manifest), "--out-dir", str(tmp_path / "d")],
                                 capsys)
        assert code == 2
        assert "--out-dir" in err and str(manifest) in err and not out
        assert not (tmp_path / "d").exists()
        assert manifest.read_bytes() == before
        assert Path(json.loads(before)["outputs"][0]).read_text() == "earlier\n"

    def test_nonzero_oov_seed_cannot_replay(self, stats_manifest, capsys):
        recorded = json.loads(stats_manifest.read_text())
        recorded["argv"].append("--oov-seed=7")
        stats_manifest.write_text(json.dumps(recorded))
        code, out, err = run_cli(["rerun", str(stats_manifest)], capsys)
        assert code == 2
        assert "--oov-seed" in err and str(stats_manifest) in err and not out
        assert Path(recorded["outputs"][0]).read_text() == "earlier\n"

    def test_recorded_dim_flag_cannot_replay(self, trained, tmp_path, capsys):
        recorded = json.loads((trained / "manifest.json").read_text())
        recorded["argv"].append("--dim=100")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(recorded))
        code, out, err = run_cli(["rerun", str(manifest), "--out-dir", str(tmp_path / "replay")],
                                 capsys)
        assert code == 2
        assert "--dim" in err and str(manifest) in err and not out
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("tail", [
        ["--threads", "abc"], ["--threads", 1], ["--schema", 5], ["--input", 7],
        ["--strict", "yes"],
    ], ids=["threads_abc", "threads_int", "schema_int", "input_int", "strict_yes"])
    def test_mistyped_recorded_value_exits_2(self, stats_manifest, capsys, tail):
        recorded = json.loads(stats_manifest.read_text())
        recorded["argv"] += tail
        stats_manifest.write_text(json.dumps(recorded))
        code, out, err = run_cli(["rerun", str(stats_manifest)], capsys)
        assert code == 2
        assert str(stats_manifest) in err and "Traceback" not in err and not out
        assert Path(recorded["outputs"][0]).read_text() == "earlier\n"
        assert sorted(p.name for p in stats_manifest.parent.iterdir()) == \
            ["stats.json", "stats.manifest.json"]

    @pytest.mark.parametrize("recorded", [
        [],
        {"command": "stats", "input_digests": {}, "args": [1]},
        {"command": "stats", "input_digests": {}, "args": {"command": "stats", "threads": 1}},
        {"input_digests": {}, "argv": "stats --input x.csv"},
        {"input_digests": [], "argv": ["stats", "--input", "x.csv"]},
        {"input_digests": {}, "argv": ["rerun", "stats.manifest.json"]},
    ], ids=["list", "args_list", "args_missing_options", "argv_string", "digests_list",
            "argv_rerun"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, recorded):
        manifest = tmp_path / "stats.manifest.json"
        manifest.write_text(json.dumps(recorded))
        code, out, err = run_cli(["rerun", str(manifest)], capsys)
        assert code == 2
        assert str(manifest) in err and not out
        assert [p.name for p in tmp_path.iterdir()] == [manifest.name]

    @pytest.mark.parametrize("raw,reason", [
        (b"\xff{}", "can't decode byte 0xff"), (b"argv: stats", "Expecting value"),
    ], ids=["not_utf8", "not_json"])
    def test_undecodable_manifest_is_named(self, tmp_path, capsys, raw, reason):
        manifest = tmp_path / "stats.manifest.json"
        manifest.write_bytes(raw)
        code, out, err = run_cli(["rerun", str(manifest)], capsys)
        assert code == 2 and not out
        assert f"error: {manifest}: " in err and reason in err

    def test_schema_1_manifest_exits_2(self, trained, tmp_path, capsys):
        # Schema 1 recorded only the resolved args, which rerun no longer reads.
        recorded = json.loads((trained / "manifest.json").read_text())
        del recorded["argv"]
        recorded["schema_version"] = 1
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(recorded))
        code, out, err = run_cli(["rerun", str(manifest), "--out-dir", str(tmp_path / "replay")],
                                 capsys)
        assert code == 2
        assert str(manifest) in err and "schema-1" in err and not out
        assert [p.name for p in tmp_path.iterdir()] == [manifest.name]


class TestEval:
    def test_eval_json(self, trained, synth_train_csv, synth_embeddings, capsys):
        code, out, _ = run_cli([
            "eval", "--checkpoint", str(trained / "model.slcnn"),
            "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--limit", "48",
        ], capsys)
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["accuracy"] <= 1.0
        confusion = np.array(payload["confusion_matrix"])
        assert confusion.shape == (4, 4)
        assert confusion.sum() == payload["num_documents"] == 48

    def test_one_forward_pass_gives_two_pass_numbers(self, trained, synth_train_csv,
                                                     synth_embeddings, monkeypatch, capsys):
        calls = []
        counted = m.predict_labels

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return counted(*args, **kwargs)

        monkeypatch.setattr(m, "predict_labels", counting)
        code, out, _ = run_cli([
            "eval", "--checkpoint", str(trained / "model.slcnn"),
            "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            "--limit", "48",
        ], capsys)
        monkeypatch.undo()
        assert code == 0
        assert calls == [48]

        # The two-pass numbers: evaluate(), then a confusion matrix of a
        # second predict_labels() pass, counted one document at a time.
        net = m.load_checkpoint(trained / "model.slcnn")
        table = embedding.load_embeddings(synth_embeddings, net.config.embed_dim)
        docs = cli._load_docs(argparse.Namespace(schema=None, strict=False), synth_train_csv, 48)
        data = m.EmbeddedDataset.build(
            corpus.build_grid_dataset(docs, net.config.doc_len, corpus.SENT_LEN), table
        )
        want = np.zeros((4, 4), dtype=np.int64)
        for label, pred in zip(data.labels, m.predict_labels(net, data)):
            want[label, pred] += 1
        payload = json.loads(out)
        assert payload["accuracy"] == m.evaluate(net, data)
        assert payload["confusion_matrix"] == want.tolist()

    def test_limit_draws_the_same_documents_for_every_checkpoint(
            self, trained, synth_train_csv, synth_embeddings, tmp_path, capsys):
        # The same parameters under another recorded seed (trained's is 3).
        net = m.load_checkpoint(trained / "model.slcnn")
        reseeded = tmp_path / "reseeded.slcnn"
        m.save_checkpoint(m.build_model(dataclasses.replace(net.config, seed=0),
                                        dict(net.param_blocks())), reseeded)
        payloads = []
        for checkpoint in (trained / "model.slcnn", reseeded):
            code, out, _ = run_cli([
                "eval", "--checkpoint", str(checkpoint), "--input", str(synth_train_csv),
                "--embeddings", str(synth_embeddings), "--limit", "24",
            ], capsys)
            assert code == 0
            payload = json.loads(out)
            del payload["checkpoint"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_limit_below_one_exits_2(self, trained, synth_train_csv, synth_embeddings, capsys,
                                     value):
        code, out, err = run_cli([
            "eval", "--checkpoint", str(trained / "model.slcnn"),
            "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
            f"--limit={value}",
        ], capsys)
        assert code == 2
        assert "--limit" in err and not out

    def test_labels_beyond_checkpoint_classes_exit_2(self, synth_train_csv, synth_embeddings,
                                                     tmp_path, capsys):
        two_class = helpers.write_dataset_csv(
            tmp_path / "two.csv", helpers.make_synthetic_docs(8, num_classes=2, seed=4))
        code, _, _ = run_cli([
            "train", "--input", str(two_class), "--embeddings", str(synth_embeddings),
            "--out-dir", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "16",
        ], capsys)
        assert code == 0
        code, out, err = run_cli([
            "eval", "--checkpoint", str(tmp_path / "run" / "model.slcnn"),
            "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
        ], capsys)
        assert code == 2
        assert str(synth_train_csv) in err and "class index" in err and not out

    def test_dim_mismatch_exits_2(self, trained, synth_train_csv, tmp_path, capsys):
        # The checkpoint says 100-d; the parser checks every line against that.
        narrow = helpers.write_embeddings_file(tmp_path / "e50.txt", ["stocks", "game"], dim=50)
        out_file = tmp_path / "eval.json"
        code, out, err = run_cli([
            "eval", "--checkpoint", str(trained / "model.slcnn"),
            "--input", str(synth_train_csv), "--embeddings", str(narrow),
            "--out", str(out_file),
        ], capsys)
        assert code == 2
        assert f"{narrow}:1:" in err and not out
        assert not out_file.exists()

    def test_empty_embedding_file_exits_2(self, trained, synth_train_csv, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        code, out, err = run_cli([
            "eval", "--checkpoint", str(trained / "model.slcnn"),
            "--input", str(synth_train_csv), "--embeddings", str(empty),
        ], capsys)
        assert code == 2 and not out
        assert f"error: {empty}: " in err

    def test_corrupt_checkpoint_exits_1(self, trained, synth_train_csv, synth_embeddings,
                                        tmp_path, capsys):
        bad = tmp_path / "bad.slcnn"
        raw = bytearray((trained / "model.slcnn").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad.write_bytes(bytes(raw))
        code, _, err = run_cli([
            "eval", "--checkpoint", str(bad),
            "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
        ], capsys)
        assert code == 1
        assert "Bad CRC-32" in err


    @pytest.mark.parametrize("defect", sorted(helpers.CHECKPOINT_DEFECTS))
    def test_defective_checkpoint_exits_1(self, trained, synth_train_csv, synth_embeddings,
                                          tmp_path, capsys, defect):
        bad = tmp_path / "bad.slcnn"
        bad.write_bytes((trained / "model.slcnn").read_bytes())
        helpers.defective_checkpoint(bad, defect)
        code, out, err = run_cli([
            "eval", "--checkpoint", str(bad),
            "--input", str(synth_train_csv), "--embeddings", str(synth_embeddings),
        ], capsys)
        assert code == 1
        assert helpers.CHECKPOINT_DEFECTS[defect][1] in err and str(bad) in err and not out

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_v1_checkpoint_is_refused_in_one_line(self, trained, synth_train_csv,
                                                  synth_embeddings, tmp_path, capsys, command):
        old = tmp_path / "v1.slcnn"
        old.write_bytes(helpers.v1_checkpoint(fileio.read_npz(trained / "model.slcnn")))
        rest = (["--input", str(synth_train_csv)] if command == "eval"
                else ["--text", "Stocks fell."])
        code, out, err = run_cli([command, "--checkpoint", str(old), "--embeddings",
                                  str(synth_embeddings), *rest], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: not an npz checkpoint (not a zip file): {old}"]


class TestPredict:
    def test_empty_text_gives_valid_distribution(self, trained, synth_embeddings, capsys):
        code, out, _ = run_cli([
            "predict", "--checkpoint", str(trained / "model.slcnn"),
            "--embeddings", str(synth_embeddings), "--text", "",
        ], capsys)
        assert code == 0
        payload = json.loads(out)
        probs = payload["probabilities"]
        assert len(probs) == 4
        assert abs(sum(probs) - 1.0) < 1e-6
        assert payload["label"] == int(np.argmax(probs))

    @pytest.mark.parametrize("raw", [b"", b"\xef\xbb\xbf"], ids=["empty", "bom_only"])
    def test_embedding_file_with_no_lines_exits_2(self, trained, tmp_path, capsys, raw):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(raw)
        helpers.back_date(empty)
        code, out, err = run_cli([
            "predict", "--checkpoint", str(trained / "model.slcnn"),
            "--embeddings", str(empty), "--text", "hello world",
        ], capsys)
        assert code == 2 and not out
        assert f"error: {empty}: " in err
        assert [p.name for p in tmp_path.iterdir()] == ["empty.txt"]

    def test_probabilities_sum_to_one_across_random_texts(self, trained, synth_embeddings,
                                                          capsys):
        rng = np.random.default_rng(0)
        words = [w for ws in helpers.TOPIC_WORDS.values() for w in ws] + ["zzqx", "blorp"]
        for _ in range(100):
            text = " ".join(rng.choice(words, size=rng.integers(1, 30)))
            code, out, _ = run_cli([
                "predict", "--checkpoint", str(trained / "model.slcnn"),
                "--embeddings", str(synth_embeddings), "--text", text,
            ], capsys)
            assert code == 0
            probs = json.loads(out)["probabilities"]
            assert abs(sum(probs) - 1.0) < 1e-6
            assert all(p >= 0 for p in probs)

    def test_matches_eval_path_bit_for_bit(self, trained, synth_embeddings, capsys):
        net = m.load_checkpoint(trained / "model.slcnn")
        table = embedding.load_embeddings(synth_embeddings, net.config.embed_dim)
        texts = ["", "Stocks rallied. Markets closed higher!", "zzqx blorp. " * 20]
        for text in texts:
            code, out, _ = run_cli([
                "predict", "--checkpoint", str(trained / "model.slcnn"),
                "--embeddings", str(synth_embeddings), "--text", text,
            ], capsys)
            assert code == 0
            grid = corpus.build_grid_dataset([corpus.RawDocument(0, [text])],
                                             net.config.doc_len, corpus.SENT_LEN)
            data = m.EmbeddedDataset.build(grid, table)
            logits = net.forward(data.grids, data.matrix)
            assert json.loads(out)["probabilities"] == nn.softmax(logits)[0].tolist()


class TestSchemaFlag:
    @pytest.fixture
    def titled_csv(self, tmp_path) -> Path:
        # Title and body on every row but line 5, which has a title only.
        docs = helpers.make_synthetic_docs(4, num_classes=2, seed=6)
        docs.insert(4, corpus.RawDocument(0, ["Only a title"]))
        return helpers.write_dataset_csv(tmp_path / "titled.csv", docs)

    @pytest.mark.parametrize("command", ["stats", "train"])
    def test_short_row_is_skipped(self, titled_csv, synth_embeddings, tmp_path, caplog,
                                  capsys, command):
        rest = {"stats": [],
                "train": ["--embeddings", str(synth_embeddings), "--out-dir", str(tmp_path / "run"),
                          "--epochs", "1", "--batch-size", "8", "--val-frac", "0"]}[command]
        code, out, _ = run_cli([command, "--input", str(titled_csv), "--schema", "title,body",
                                *rest], capsys)
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == \
            [f"{titled_csv}:5: expected 3 fields, got 2 (row skipped)"]
        if command == "stats":
            assert json.loads(out)["num_documents"] == 8

    @pytest.mark.parametrize("command", ["stats", "train"])
    def test_short_row_aborts_under_strict(self, titled_csv, synth_embeddings, tmp_path,
                                           capsys, command):
        out_dir = tmp_path / "never"
        rest = {"stats": ["--out", str(tmp_path / "never.json")],
                "train": ["--embeddings", str(synth_embeddings), "--out-dir", str(out_dir),
                          "--epochs", "1"]}[command]
        code, out, err = run_cli([command, "--input", str(titled_csv), "--schema", "title,body",
                                  "--strict", *rest], capsys)
        assert code == 2
        assert f"{titled_csv}:5: expected 3 fields, got 2" in err and not out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["titled.csv"]


class TestUnusableInput:
    @pytest.mark.parametrize("strict", [False, True], ids=["skipped", "strict"])
    def test_oversized_csv_field_is_a_malformed_row(self, tmp_path, caplog, capsys, strict):
        # The csv module refuses a field over 131,072 characters; the reader
        # goes on with the next row.
        path = tmp_path / "big.csv"
        path.write_text(f'1,"{"x" * 140_000}"\n2,"Markets closed higher."\n', encoding="utf-8")
        code, out, err = run_cli(["stats", "--input", str(path)] + ["--strict"] * strict, capsys)
        if strict:
            assert code == 2 and not out
            assert f"{path}:1: field larger than field limit" in err
        else:
            assert code == 0
            assert json.loads(out)["num_documents"] == 1
            warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            assert len(warnings) == 1
            assert warnings[0].startswith(f"{path}:1: field larger than field limit")

    @pytest.mark.parametrize("strict", [False, True], ids=["skipped", "strict"])
    @pytest.mark.parametrize("index", [2**63, 10**30])
    @pytest.mark.parametrize("kind", ["csv", "jsonl"])
    def test_class_index_beyond_int64_is_a_malformed_row(self, tmp_path, caplog, capsys, kind,
                                                         index, strict):
        rows = [(index, "Stocks rallied."), (2, "Markets closed higher.")]
        path = tmp_path / f"data.{kind}"
        path.write_text("".join(f'{i},"{text}"\n' if kind == "csv"
                                else json.dumps({"label": i, "text": text}) + "\n"
                                for i, text in rows), encoding="utf-8")
        code, out, err = run_cli(["stats", "--input", str(path)] + ["--strict"] * strict, capsys)
        if strict:
            assert code == 2 and not out
            assert f"{path}:1: class index {index} is not" in err
        else:
            assert code == 0
            assert json.loads(out)["num_documents"] == 1
            warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            assert len(warnings) == 1
            assert warnings[0].startswith(f"{path}:1: class index {index} is not")

    @pytest.mark.parametrize("kind", ["csv", "jsonl"])
    def test_byte_order_mark_loses_no_document(self, tmp_path, caplog, capsys, kind):
        docs = helpers.make_synthetic_docs(10, num_classes=4, seed=3)
        path = tmp_path / f"data.{kind}"
        if kind == "csv":
            helpers.write_dataset_csv(path, docs)
        else:
            path.write_text("".join(json.dumps({"label": d.label + 1, "text": d.text()}) + "\n"
                                    for d in docs), encoding="utf-8")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, out, _ = run_cli(["stats", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["num_documents"] == 40
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    @pytest.mark.parametrize("kind", ["csv", "jsonl", "embeddings"])
    def test_non_utf8_file_names_its_line(self, synth_train_csv, synth_embeddings, tmp_path,
                                          capsys, kind):
        # The bad byte lies past the first 8 KiB, which text reading decodes
        # in one chunk, so the reader's position does not give its line.
        if kind == "embeddings":
            good = synth_embeddings.read_bytes()
            bad = b"caf\xe9" + good[good.index(b" "):good.index(b"\n") + 1]
        else:
            good = (b'1,"Stocks rallied."\n' if kind == "csv"
                    else b'{"label": 1, "text": "Stocks rallied."}\n') * 1000
            bad = good[:good.index(b"\n") + 1].replace(b"Stocks", b"Caf\xe9")
        assert len(good) > 8192
        path = tmp_path / ("vectors.txt" if kind == "embeddings" else f"data.{kind}")
        path.write_bytes(good + bad + good)
        argv = (["train", "--input", str(synth_train_csv), "--embeddings", str(path),
                 "--out-dir", str(tmp_path / "never"), "--limit", "8"]
                if kind == "embeddings" else ["stats", "--input", str(path)])
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out
        line = good.count(b"\n") + 1
        assert f"{path}:{line}: not UTF-8 text" in err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("value", ["nan", "3e40"])
    @pytest.mark.parametrize("command", ["predict", "eval", "train"])
    def test_non_finite_embedding_value_names_its_line(self, trained, synth_train_csv,
                                                       synth_embeddings, tmp_path, capsys,
                                                       command, value):
        # The vector of "stocks", a word of the text and of the documents,
        # holds one value that is not a finite float32.
        lines = synth_embeddings.read_text(encoding="utf-8").splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("stocks "))
        fields = lines[at].split(" ")
        fields[3] = value
        lines[at] = " ".join(fields)
        path = tmp_path / "vectors.txt"
        path.write_text("".join(lines), encoding="utf-8")
        checkpoint = str(trained / "model.slcnn")
        argv = {
            "predict": ["predict", "--checkpoint", checkpoint, "--text", "Stocks fell."],
            "eval": ["eval", "--checkpoint", checkpoint, "--input", str(synth_train_csv),
                     "--limit", "8"],
            "train": ["train", "--input", str(synth_train_csv), "--limit", "8",
                      "--out-dir", str(tmp_path / "run")],
        }[command]
        code, out, err = run_cli([*argv, "--embeddings", str(path)], capsys)
        assert code == 2 and not out
        assert f"{path}:{at + 1}: value {value!r} is not a finite float32" in err

    @pytest.mark.parametrize("command,flag", [
        ("train", "--input"), ("train", "--test"), ("train", "--val"), ("eval", "--input"),
        ("stats", "--input"),
    ])
    def test_file_without_usable_documents_exits_2(self, trained, synth_train_csv,
                                                   synth_embeddings, tmp_path, capsys,
                                                   command, flag):
        unusable = tmp_path / "unusable.csv"
        unusable.write_text('x,"label is no integer"\n1\n0,"class zero"\n', encoding="utf-8")
        files = {"--input": synth_train_csv, flag: unusable}
        extra = ["--out", str(tmp_path / "never.json")]
        if command == "train":
            files.update({"--embeddings": synth_embeddings, "--out-dir": tmp_path / "never"})
            extra = ["--epochs", "1", "--batch-size", "8", "--limit", "8"]
        elif command == "eval":
            files.update({"--embeddings": synth_embeddings,
                          "--checkpoint": trained / "model.slcnn"})
        argv = [command] + [str(a) for pair in files.items() for a in pair] + extra
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out
        assert f"no usable documents in {unusable}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["unusable.csv"]


def _with_line(good: bytes, line: bytes) -> tuple[bytes, int]:
    """*good* with *line* inserted in the middle, and its line number."""
    lines = good.splitlines(keepends=True)
    at = len(lines) // 2
    return b"".join(lines[:at] + [line + b"\n"] + lines[at:]), at + 1


class TestUnusedEmbeddingRows:
    """A run parses the values of the tokens it uses only; every line is
    still checked for UTF-8 and its field count."""

    UNUSED = b"zzunused"  # no document or text holds it

    @pytest.fixture
    def argv(self, trained, synth_train_csv, tmp_path) -> dict[str, list[str]]:
        checkpoint = str(trained / "model.slcnn")
        return {
            "predict": ["predict", "--checkpoint", checkpoint, "--text", "Stocks fell."],
            "eval": ["eval", "--checkpoint", checkpoint, "--input", str(synth_train_csv),
                     "--limit", "8"],
            "train": ["train", "--input", str(synth_train_csv), "--limit", "8", "--epochs", "1",
                      "--batch-size", "8", "--out-dir", str(tmp_path / "run")],
        }

    @pytest.mark.parametrize("value", ["nan", "3e40", "oops"])
    @pytest.mark.parametrize("command", ["predict", "eval", "train"])
    def test_bad_number_changes_no_output(self, argv, synth_embeddings, tmp_path, capsys,
                                          command, value):
        path = tmp_path / "vectors.txt"
        bad_line = b" ".join([self.UNUSED, *[b"0.5"] * 99, value.encode()])
        path.write_bytes(_with_line(synth_embeddings.read_bytes(), bad_line)[0])
        runs = []
        for emb in (synth_embeddings, path):
            code, out, _ = run_cli([*argv[command], "--embeddings", str(emb)], capsys)
            checkpoints = sorted((p.name, p.read_bytes()) for p in tmp_path.glob("run/*.slcnn"))
            runs.append((code, out, checkpoints))
        assert runs[0][0] == 0 and runs[0][1]
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("line", [UNUSED + b" 0.5", b"caf\xe9" + b" 0.5" * 100],
                             ids=["field_count", "not_utf8"])
    @pytest.mark.parametrize("command", ["predict", "eval", "train"])
    def test_malformed_line_still_exits_2(self, argv, synth_embeddings, tmp_path, capsys,
                                          command, line):
        path = tmp_path / "vectors.txt"
        data, line_no = _with_line(synth_embeddings.read_bytes(), line)
        path.write_bytes(data)
        code, out, err = run_cli([*argv[command], "--embeddings", str(path)], capsys)
        assert code == 2 and not out
        assert f"{path}:{line_no}: " in err
        assert not (tmp_path / "run").exists()

    @pytest.fixture
    def parsed_rows(self, monkeypatch) -> list[int]:
        """Rows handed to the value parser, one count per call."""
        counts, parse = [], embedding._parse_values

        def counting(lines):
            lines = list(lines)
            counts.append(len(lines))
            return parse(lines)

        monkeypatch.setattr(embedding, "_parse_values", counting)
        return counts

    @pytest.fixture
    def padded(self, synth_embeddings, tmp_path) -> Path:
        """The vectors plus 500 rows of tokens no run uses, so a full parse
        hands the parser far more rows than any vocabulary here holds."""
        path = tmp_path / "padded.txt"
        extra = "".join(f"unused{i} " + " ".join(["0.5"] * 100) + "\n" for i in range(500))
        path.write_text(synth_embeddings.read_text(encoding="utf-8") + extra, encoding="utf-8")
        return path

    def test_predict_parses_only_the_text_tokens(self, argv, padded, parsed_rows, capsys):
        text = "Stocks fell."
        doc = corpus.preprocess_document(corpus.RawDocument(0, [text]))
        code, _, _ = run_cli([*argv["predict"], "--embeddings", str(padded)], capsys)
        assert code == 0
        assert sum(parsed_rows) <= len({token for sentence in doc for token in sentence})

    def test_eval_parses_at_most_the_grid_vocabulary(self, argv, padded, parsed_rows,
                                                     monkeypatch, capsys):
        vocab_sizes, build = [], corpus.build_grid_dataset_from_token_docs

        def spy(*args):
            grid = build(*args)
            vocab_sizes.append(len(grid.vocab))
            return grid

        monkeypatch.setattr(corpus, "build_grid_dataset_from_token_docs", spy)
        code, _, _ = run_cli([*argv["eval"], "--embeddings", str(padded)], capsys)
        assert code == 0 and len(vocab_sizes) == 1
        assert sum(parsed_rows) <= vocab_sizes[0]


class TestAtomicWrites:
    @pytest.fixture
    def failing_replace(self, monkeypatch):
        def fail(src, dst):
            raise OSError(f"cannot rename {src} to {dst}")

        monkeypatch.setattr(os, "replace", fail)

    def test_failed_checkpoint_write_keeps_old_file(self, trained, tmp_path, failing_replace):
        target = tmp_path / "model.slcnn"
        target.write_bytes((trained / "model.slcnn").read_bytes())
        before = target.read_bytes()
        fresh = m.build_model(m.load_checkpoint(target).config)
        with pytest.raises(OSError, match="cannot rename"):
            m.save_checkpoint(fresh, target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.slcnn"]

    def test_failed_out_write_exits_1_and_keeps_old_file(self, synth_train_csv, tmp_path,
                                                         failing_replace, capsys):
        target = tmp_path / "stats.json"
        target.write_text("earlier\n", encoding="utf-8")
        code, _, err = run_cli(
            ["stats", "--input", str(synth_train_csv), "--out", str(target)], capsys
        )
        assert code == 1
        assert "cannot rename" in err
        assert target.read_text(encoding="utf-8") == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["stats.json"]


class TestOutFlag:
    @pytest.mark.parametrize("command", ["stats", "eval", "predict"])
    @pytest.mark.parametrize("target", ["absent/out.json", "taken"])
    def test_unwritable_out_exits_2_before_inputs_are_read(self, tmp_path, capsys, command,
                                                           target):
        (tmp_path / "taken").mkdir()
        inputs = {"stats": ["--input"], "eval": ["--checkpoint", "--input", "--embeddings"],
                  "predict": ["--checkpoint", "--embeddings"]}[command]
        argv = [command, *(a for flag in inputs for a in (flag, str(tmp_path / "absent.csv")))]
        code, out, err = run_cli([*argv, "--out", str(tmp_path / target)], capsys)
        assert code == 2
        assert "--out" in err and "not found" not in err and not out

    @pytest.mark.parametrize("target,error", [
        ("absent/out.json", FileNotFoundError), ("taken", IsADirectoryError)])
    def test_failed_write_names_the_target_not_its_temp_file(self, tmp_path, target, error):
        (tmp_path / "taken").mkdir()
        with pytest.raises(error) as info:
            fileio.write_atomic(tmp_path / target, b"{}\n")
        assert str(tmp_path / target) in str(info.value) and ".tmp" not in str(info.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


class TestThreadFlag:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("argv,want", [
        (["stats", "--input", "x.csv", "--threads", "2"], "2"),
        (["stats", "--input", "x.csv", "--threads=3"], "3"),
        (["stats", "--input", "x.csv"], "1"),
    ])
    def test_flag_overrides_inherited_environment(self, monkeypatch, argv, want):
        for var in self.VARS:
            monkeypatch.setenv(var, "8")
        cli._apply_thread_flag(cli.build_parser().parse_args(argv))
        for var in self.VARS:
            assert os.environ[var] == want

    # '\u00b2' (superscript two) passes str.isdigit() but not int().
    @pytest.mark.parametrize("value", ["0", "-1", "\u00b2"])
    def test_count_below_one_rejected(self, synth_train_csv, monkeypatch, tmp_path, capsys,
                                      value):
        for var in self.VARS:
            monkeypatch.setenv(var, "8")
        out_file = tmp_path / "stats.json"
        code, out, err = run_cli(["stats", "--input", str(synth_train_csv),
                                  f"--threads={value}", "--out", str(out_file)], capsys)
        assert code == 2
        assert "--threads" in err and "must be an integer >= 1" in err and not out
        assert not out_file.exists()

    def test_rerun_uses_recorded_count(self, monkeypatch, tmp_path, capsys):
        for var in self.VARS:
            monkeypatch.setenv(var, "8")
        manifest = tmp_path / "stats.manifest.json"
        manifest.write_text(json.dumps({
            "input_digests": {}, "argv": ["stats", "--input", "x.csv", "--threads", "2"],
        }))
        seen = []
        monkeypatch.setattr(cli, "cmd_stats",
                            lambda replay: seen.append([os.environ[v] for v in self.VARS]) or 0)
        code, _, _ = run_cli(["rerun", str(manifest)], capsys)
        assert code == 0
        assert seen == [["2", "2", "2"]]

    @pytest.mark.parametrize("threads", [
        "0", "-1", "many", "True", "2.0", 0, True, 2.0, 2,
    ], ids=["0", "-1", "many", "True", "2.0", "int_0", "bool_True", "float_2.0", "2"])
    def test_rerun_rejects_bad_recorded_count(self, monkeypatch, tmp_path, capsys, threads):
        # A string is a value --threads rejects; any other JSON value is no argv element.
        for var in self.VARS:
            monkeypatch.setenv(var, "8")
        manifest = tmp_path / "stats.manifest.json"
        manifest.write_text(json.dumps({
            "input_digests": {}, "argv": ["stats", "--input", "x.csv", "--threads", threads],
        }))
        seen = []
        monkeypatch.setattr(cli, "cmd_stats", lambda replay: seen.append(1) or 0)
        code, out, err = run_cli(["rerun", str(manifest)], capsys)
        assert code == 2
        assert str(manifest) in err and not out
        assert ("--threads" if isinstance(threads, str) else "list of strings") in err
        assert seen == []
        for var in self.VARS:
            assert os.environ[var] == "8"

    def test_parsing_the_flags_imports_no_numpy(self):
        # numpy reads the thread-count variables once, when it is imported.
        code = ("import sys, slcnn.cli; slcnn.cli.build_parser().parse_args("
                "['train', '--input', 'x.csv', '--embeddings', 'v.txt', '--out-dir', 'o', "
                "'--threads', '2']); "
                "print('numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


class TestExitCodeContract:
    def test_unknown_flag_is_usage_error(self):
        proc = run_cli_subprocess(["stats", "--nope"])
        assert proc.returncode == 2

    def test_missing_subcommand_is_usage_error(self):
        proc = run_cli_subprocess([])
        assert proc.returncode == 2

    def test_missing_input_exits_2_via_subprocess(self):
        proc = run_cli_subprocess(["stats", "--input", "/no/such/file.csv"])
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    @pytest.mark.parametrize("command,flag", [
        ("stats", "--ts=46"),
        ("train", "--ts=46"),
        ("train", "--oov-seed=0"),
        ("train", "--dim=100"),
        ("eval", "--oov-seed=0"),
        ("predict", "--oov-seed=0"),
        ("eval", "--dim=100"),
        ("predict", "--schema=text"),
        ("predict", "--strict"),
        ("stats", "--pretty"),
        ("train", "--pretty"),
        ("eval", "--pretty"),
        ("predict", "--pretty"),
    ])
    def test_removed_flag_is_usage_error(self, trained, synth_train_csv, synth_embeddings,
                                         tmp_path, capsys, command, flag):
        # Each flag but --pretty could only repeat or contradict a setting
        # fixed elsewhere; --pretty chose an output format nothing used.
        embeddings = ["--embeddings", str(synth_embeddings)]
        rest = {
            "stats": ["--input", str(synth_train_csv)],
            "train": [*embeddings, "--input", str(synth_train_csv),
                      "--out-dir", str(tmp_path / "never"),
                      "--limit", "8", "--epochs", "1", "--batch-size", "8"],
            "eval": [*embeddings, "--checkpoint", str(trained / "model.slcnn"),
                     "--input", str(synth_train_csv), "--limit", "8"],
            "predict": [*embeddings, "--checkpoint", str(trained / "model.slcnn"),
                        "--text", "Stocks rose."],
        }[command]
        code, out, err = run_cli([command, *rest, flag], capsys)
        assert code == 2
        assert flag.split("=")[0] in err and not out
        assert not (tmp_path / "never").exists()

    def test_version_flag(self):
        proc = run_cli_subprocess(["--version"])
        assert proc.returncode == 0
        assert "slcnn" in proc.stdout


class TestOptionSurface:
    """The settings a user can reach.  A new option or config field changes
    these numbers, so it lands as a test change that has to be argued for."""

    def test_option_count_per_subcommand(self):
        (subparsers,) = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        counts = {name: sum(not isinstance(action, argparse._HelpAction)
                            for action in parser._actions)
                  for name, parser in subparsers.choices.items()}
        assert counts == {"stats": 5, "train": 20, "eval": 8, "predict": 5, "rerun": 2}

    def test_model_config_fields(self):
        assert [field.name for field in dataclasses.fields(m.ModelConfig)] == [
            "variant", "doc_len", "num_classes", "fc_size", "embed_dim",
            "seed", "lr", "epochs", "batch_size", "dropout_rate",
        ]


class TestEmbeddingIndex:
    """A run writes the embedding file's line index when the file is settled,
    and its outputs do not depend on whether the index was absent, built by
    the run or read."""

    @pytest.fixture
    def commands(self, trained, synth_train_csv, synth_test_csv) -> dict[str, list[str]]:
        checkpoint = str(trained / "model.slcnn")
        return {
            "predict_empty": ["predict", "--checkpoint", checkpoint, "--text", ""],
            "predict": ["predict", "--checkpoint", checkpoint, "--text", "Stocks fell. Zzqx!"],
            "eval": ["eval", "--checkpoint", checkpoint, "--input", str(synth_train_csv),
                     "--limit", "16"],
            "train": ["train", "--input", str(synth_train_csv), "--test", str(synth_test_csv),
                      "--limit", "24", "--epochs", "2", "--batch-size", "8"],
        }

    @staticmethod
    def _outputs(out_dir: Path) -> list:
        """The checkpoints and the report of a train run, but its timings."""
        report = json.loads((out_dir / "report.json").read_text())
        del report["epoch_seconds"]
        return [report, *((p.name, p.read_bytes()) for p in sorted(out_dir.glob("*.slcnn")))]

    @pytest.mark.parametrize("name", ["predict_empty", "predict", "eval", "train"])
    def test_outputs_match_in_every_index_state(self, commands, synth_embeddings, tmp_path,
                                                caplog, capsys, name):
        caplog.set_level(logging.INFO, logger="slcnn")
        emb = tmp_path / "vectors.txt"
        emb.write_bytes(synth_embeddings.read_bytes())
        index = tmp_path / ("vectors.txt" + embedding.INDEX_SUFFIX)
        runs = []
        for state in ("absent", "built", "read"):
            if state == "built":
                helpers.back_date(emb)
            out_dir = tmp_path / state
            argv = [*commands[name], "--embeddings", str(emb)]
            caplog.clear()
            code, out, _ = run_cli(argv + (["--out-dir", str(out_dir)] if name == "train"
                                           else []), capsys)
            assert code == 0
            assert index.exists() == (state != "absent")
            assert (f"wrote the line index of {emb}" in caplog.text) == (state == "built")
            runs.append(self._outputs(out_dir) if name == "train" else out)
        assert runs[0] == runs[1] == runs[2]

    @pytest.fixture
    def predict_argv(self, trained) -> list[str]:
        return ["predict", "--checkpoint", str(trained / "model.slcnn"), "--text", "Stocks fell."]

    def test_read_only_directory_exits_0_and_writes_no_index(self, predict_argv,
                                                             synth_embeddings, tmp_path, capsys):
        folder = tmp_path / "read_only"
        folder.mkdir()
        emb = folder / "vectors.txt"
        emb.write_bytes(synth_embeddings.read_bytes())
        helpers.back_date(emb)
        folder.chmod(0o555)
        try:
            if os.access(folder, os.W_OK):
                pytest.skip("this user may write to a read-only directory")
            code, out, _ = run_cli([*predict_argv, "--embeddings", str(emb)], capsys)
        finally:
            folder.chmod(0o755)
        assert code == 0 and json.loads(out)["probabilities"]
        assert [p.name for p in folder.iterdir()] == ["vectors.txt"]

    def test_a_directory_at_the_index_path_exits_0_and_leaves_no_temp_file(
            self, predict_argv, synth_embeddings, tmp_path, capsys):
        # The temp file is written, then renaming it over a directory fails:
        # for any user, root included.
        emb = tmp_path / "vectors.txt"
        emb.write_bytes(synth_embeddings.read_bytes())
        code, want, _ = run_cli([*predict_argv, "--embeddings", str(emb)], capsys)
        assert code == 0
        (tmp_path / ("vectors.txt" + embedding.INDEX_SUFFIX)).mkdir()
        helpers.back_date(emb)
        code, out, err = run_cli([*predict_argv, "--embeddings", str(emb)], capsys)
        assert (code, out) == (0, want) and "error" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "vectors.txt", "vectors.txt" + embedding.INDEX_SUFFIX]
        assert not any((tmp_path / ("vectors.txt" + embedding.INDEX_SUFFIX)).iterdir())

    def test_failed_index_write_exits_0(self, predict_argv, synth_embeddings, tmp_path,
                                        monkeypatch, capsys):
        emb = tmp_path / "vectors.txt"
        emb.write_bytes(synth_embeddings.read_bytes())
        code, want, _ = run_cli([*predict_argv, "--embeddings", str(emb)], capsys)
        assert code == 0

        def full_disk(path, data):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(fileio, "write_atomic", full_disk)
        helpers.back_date(emb)
        code, out, err = run_cli([*predict_argv, "--embeddings", str(emb)], capsys)
        assert (code, out) == (0, want) and "error" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.txt"]
