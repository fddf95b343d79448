from __future__ import annotations

import dataclasses
import json
import re
import tempfile
import tracemalloc
import weakref
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from slcnn import fileio, nn
from slcnn.corpus import SENT_LEN
from slcnn.model import (
    CheckpointError,
    ConfigError,
    EmbeddedDataset,
    Model,
    ModelConfig,
    TrainingDivergedError,
    build_model,
    count_parameters,
    evaluate,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    train,
)
from slcnn import model

F32 = np.float32

# (dataset, doc_len, classes) for the six benchmark corpora, with the
# published parameter counts in thousands for each variant/size.
BENCHMARKS = [
    ("ag", 4, 4),
    ("dbpedia", 6, 14),
    ("yelp_p", 20, 2),
    ("yelp_f", 20, 5),
    ("amazon_p", 10, 2),
    ("amazon_f", 10, 5),
]
PUBLISHED_K = {
    ("slcnn", 512): [783, 920, 1831, 1832, 1176, 1177],
    ("slcnn", 1024): [1835, 2107, 3930, 3933, 2619, 2622],
    ("slcnn+v", 512): [653, 723, 1176, 1177, 848, 850],
    ("slcnn+v", 1024): [1508, 1649, 2554, 2557, 1899, 1902],
}


def random_dataset(
    n: int, doc_len: int, num_classes: int, seed: int, vocab: int = 50,
    sent_len: int = 46, dim: int = 100, padded: bool = False,
) -> EmbeddedDataset:
    """Random ids; *padded* keeps 0 to sent_len words of each row, then pad."""
    rng = np.random.default_rng(seed)
    grids = rng.integers(0, vocab + 1, size=(n, doc_len, sent_len)).astype(np.int32)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    matrix = rng.normal(0, 0.4, size=(vocab + 1, dim)).astype(F32)
    matrix[0] = 0
    if padded:
        grids[np.arange(sent_len) >= rng.integers(0, sent_len + 1, (n, doc_len, 1))] = 0
    return EmbeddedDataset(grids=grids, labels=labels, matrix=matrix)


# --------------------------------------------------------------------------
# Shape laws
# --------------------------------------------------------------------------

class TestShapeCollapse:
    def test_width_schedule_46(self):
        # Each HCB maps w -> (w - 2) // 2; the four of them take t_s to 1.
        widths, w = [], SENT_LEN
        while w > 1:
            w = (w - 2) // 2
            widths.append(w)
        assert SENT_LEN == 46 and model.HCB_WIDTHS == tuple(widths) == (22, 10, 4, 1)

    @pytest.mark.parametrize("doc_len,expected", [(4, 1), (6, 2), (10, 4), (20, 9)])
    def test_vcb_row_recurrence(self, doc_len, expected):
        assert (doc_len - 2) // 2 == expected  # the recurrence itself
        with helpers.num_filters(5):
            net = _tiny_model("slcnn+v", doc_len)
        x = np.random.default_rng(0).normal(size=(2, doc_len, 46, 6)).astype(F32)
        assert helpers.features(net, x).shape == (2, expected, 1, 5)

    @pytest.mark.parametrize("rows", [1, 2, 5, 20])
    def test_hcb_preserves_rows(self, rows):
        with helpers.num_filters(5):
            net = _tiny_model("slcnn", rows)
        x = np.random.default_rng(rows).normal(size=(2, rows, 46, 6)).astype(F32)
        assert helpers.features(net, x).shape == (2, rows, 1, 5)


def _arrays_in(obj) -> Iterator[np.ndarray]:
    """Every ndarray reachable from *obj* through tuples, lists and dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays_in(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays_in(getattr(obj, f.name))


def _tiny_model(variant: str, doc_len: int) -> Model:
    """A full trunk over 6-d embeddings; with helpers.num_filters(5), of 5 filters."""
    return build_model(ModelConfig(variant=variant, doc_len=doc_len, num_classes=3,
                                   embed_dim=6, fc_size=8))


def _param_copies(net: Model) -> list[np.ndarray]:
    """A copy of each array of net.param_blocks(), in its order."""
    return [arr.copy() for _, arr in net.param_blocks()]


# --------------------------------------------------------------------------
# Construction and parameter counts
# --------------------------------------------------------------------------

class TestBuildModel:
    def test_ag_small_dense_shapes(self):
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4))
        assert net.config.flatten_size == 512
        assert net.fc1.weights.shape == (512, 512)
        assert net.fc2.weights.shape == (512, 512)
        assert net.out.weights.shape == (4, 512)
        assert len(net.conv_banks) == 8 and not net.vcb_banks
        assert net.conv_banks[0].weights.shape == (128, 1, 2, 100)
        assert net.conv_banks[1].weights.shape == (128, 1, 2, 128)

    def test_yelp_polarity_vertical_flatten(self):
        net = build_model(ModelConfig(variant="slcnn+v", doc_len=20, num_classes=2))
        assert net.config.flatten_size == 9 * 128 == 1152
        assert net.fc1.weights.shape == (512, 1152)
        assert len(net.vcb_banks) == 2
        assert net.vcb_banks[0].weights.shape == (128, 2, 1, 128)

    def test_vertical_variant_needs_four_rows(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="slcnn+v", doc_len=3, num_classes=4)

    def test_bad_variant_and_classes(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="slcnn-x", doc_len=4, num_classes=4)
        with pytest.raises(ConfigError):
            ModelConfig(variant="slcnn", doc_len=4, num_classes=1)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("epochs", -1), ("batch_size", 0),
        ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
        ("dropout_rate", 1.0), ("dropout_rate", -0.1),
    ])
    def test_impossible_training_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(variant="slcnn", doc_len=4, num_classes=4, **{field: value})

    @pytest.mark.parametrize("field", ["embed_dim", "fc_size"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_empty_layer_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(variant="slcnn", doc_len=4, num_classes=4, **{field: value})

    def test_init_is_seed_deterministic(self):
        cfg = ModelConfig(variant="slcnn", doc_len=4, num_classes=4, seed=9)
        a, b = build_model(cfg), build_model(cfg)
        for (_, pa), (_, pb) in zip(a.param_blocks(), b.param_blocks()):
            assert np.array_equal(pa, pb)

    def test_biases_zero_weights_bounded(self):
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4))
        for name, arr in net.param_blocks():
            if name.endswith(".b"):
                assert not arr.any()
            else:
                assert np.abs(arr).max() < 1.0

    @pytest.mark.parametrize("variant", model.VARIANTS)
    @pytest.mark.parametrize("fc", sorted(model.FC_SIZES))
    def test_the_layout_table_is_every_models_parameters(self, tmp_path, variant, fc):
        # A fresh model and a loaded one: the table's names, order and shapes,
        # and each bank and dense layer holds its own table entries' arrays.
        cfg = ModelConfig(variant=variant, doc_len=6, num_classes=5, fc_size=model.FC_SIZES[fc])
        save_checkpoint(build_model(cfg), tmp_path / "m.slcnn")
        for net in (build_model(cfg), load_checkpoint(tmp_path / "m.slcnn")):
            blocks = net.param_blocks()
            assert [(name, arr.shape) for name, arr in blocks] == model._param_shapes(cfg)
            layers = [*net.conv_banks, *net.vcb_banks, net.fc1, net.fc2, net.out]
            assert ([id(arr) for layer in layers for arr in (layer.weights, layer.biases)]
                    == [id(arr) for _, arr in blocks])


class TestParameterCounts:
    def test_known_exact_integers(self):
        # Verified against the independent enumeration oracle below.
        cases = [
            ("slcnn", 512, 4, 4, 783_364),
            ("slcnn+v", 512, 4, 4, 652_548),
            ("slcnn", 512, 6, 14, 919_566),
            ("slcnn", 1024, 4, 4, 1_835_012),
            ("slcnn", 512, 20, 2, 1_830_914),
            ("slcnn+v", 512, 10, 2, 848_130),
        ]
        for variant, fc, doc_len, classes, expected in cases:
            assert helpers.enum_param_count(variant, fc, doc_len, classes) == expected
            net = build_model(
                ModelConfig(variant=variant, doc_len=doc_len, num_classes=classes, fc_size=fc)
            )
            assert count_parameters(net) == expected

    @pytest.mark.parametrize("variant,fc", list(PUBLISHED_K))
    def test_all_published_counts_to_nearest_thousand(self, variant, fc):
        published = PUBLISHED_K[(variant, fc)]
        for (name, doc_len, classes), expected_k in zip(BENCHMARKS, published):
            oracle = helpers.enum_param_count(variant, fc, doc_len, classes)
            net = build_model(
                ModelConfig(variant=variant, doc_len=doc_len, num_classes=classes, fc_size=fc)
            )
            exact = count_parameters(net)
            assert exact == oracle, (name, variant, fc)
            assert int(exact / 1000 + 0.5) == expected_k, (name, variant, fc)

    def test_counts_exclude_frozen_embeddings(self):
        # 62k-token vocab at dim 100 would add 6.2M parameters if embeddings
        # were trainable; the counts must not include any of that.
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4))
        assert count_parameters(net) < 1_000_000


# --------------------------------------------------------------------------
# Forward
# --------------------------------------------------------------------------

class TestForward:
    def test_feature_and_logit_shapes(self):
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4))
        x = np.random.default_rng(0).normal(size=(3, 4, 46, 100)).astype(F32)
        assert helpers.features(net, x).shape == (3, 4, 1, 128)
        assert net.forward(*helpers.as_ids(x)).shape == (3, 4)

    def test_all_zero_document_finite_and_deterministic(self):
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4))
        x = np.zeros((1, 4, 46, 100), F32)
        a, b = net.forward(*helpers.as_ids(x)), net.forward(*helpers.as_ids(x))
        assert np.isfinite(a).all()
        assert np.array_equal(a, b)

    def test_identical_docs_identical_rows(self):
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4))
        doc = np.random.default_rng(1).normal(size=(4, 46, 100)).astype(F32)
        batch = np.stack([doc] * 5)
        logits = net.forward(*helpers.as_ids(batch))
        for row in logits[1:]:
            assert np.array_equal(row, logits[0])

    def test_softmax_head_probability_vector(self):
        net = build_model(ModelConfig(variant="slcnn+v", doc_len=6, num_classes=5))
        x = np.random.default_rng(2).normal(size=(4, 6, 46, 100)).astype(F32)
        probs = nn.softmax(net.forward(*helpers.as_ids(x)))
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestPermutationSensitivity:
    def test_trunk_is_row_equivariant(self):
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4, seed=3))
        x = np.random.default_rng(3).normal(size=(1, 4, 46, 100)).astype(F32)
        perm = np.array([2, 0, 3, 1])
        feats = helpers.features(net, x)
        feats_perm = helpers.features(net, x[:, perm])
        assert np.array_equal(feats_perm, feats[:, perm])

    def test_flatten_head_distinguishes_positions(self):
        # Construct a head that reads only row 0's feature block: permuting
        # sentences then changes the logits.
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4, seed=4))
        net.fc1.weights[...] = 0
        net.fc1.weights[0, :128] = 1.0
        net.fc2.weights[...] = 0
        net.fc2.weights[0, 0] = 1.0
        net.out.weights[...] = 0
        net.out.weights[0, 0] = 1.0
        x = np.random.default_rng(5).normal(size=(1, 4, 46, 100)).astype(F32)
        swapped = x[:, [1, 0, 2, 3]]
        assert not np.array_equal(net.forward(*helpers.as_ids(x)),
                                  net.forward(*helpers.as_ids(swapped)))


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------

class TestTrain:
    def test_lr_zero_no_movement(self, monkeypatch):
        data = random_dataset(12, 4, 3, seed=20)
        cfg = ModelConfig(variant="slcnn", doc_len=4, num_classes=3, seed=1,
                          epochs=4, batch_size=12, dropout_rate=0.0)
        net = build_model(cfg)
        before = _param_copies(net)
        # The config rejects lr 0, so the update itself is switched off:
        # nothing else in a training step may move a parameter.
        monkeypatch.setattr(nn, "adam_step", lambda *args: None)
        report = train(net, data)
        assert len(set(report["train_loss"])) == 1
        for arr, (_, now) in zip(before, net.param_blocks()):
            assert np.array_equal(arr, now)

    def test_same_seed_bit_identical(self):
        data = random_dataset(24, 4, 3, seed=21)

        def run():
            cfg = ModelConfig(variant="slcnn", doc_len=4, num_classes=3, seed=7,
                              epochs=3, batch_size=8)
            net = build_model(cfg)
            report = train(net, data)
            return report["train_loss"], _param_copies(net)

        loss_a, params_a = run()
        loss_b, params_b = run()
        assert loss_a == loss_b
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a, b)

    def test_report_counts_epochs(self):
        data = random_dataset(10, 4, 2, seed=22)
        cfg = ModelConfig(variant="slcnn", doc_len=4, num_classes=2, seed=2,
                          epochs=3, batch_size=5)
        net = build_model(cfg)
        report = train(net, data, data)
        assert len(report["train_loss"]) == 3
        assert len(report["train_accuracy"]) == 3
        assert len(report["val_accuracy"]) == 3
        assert len(report["epoch_seconds"]) == 3
        assert report["best_val_epoch"] is not None
        assert [(name, arr.shape) for name, arr in net.best_params.items()] == \
            model._param_shapes(cfg)
        assert all(0.0 <= a <= 1.0 for a in report["train_accuracy"] + report["val_accuracy"])

    def test_one_step_resident(self, monkeypatch):
        # Every array the caches of a step's forward reach (conv inputs,
        # ReLU masks, pool choices, row indices) is freed before the next
        # step's forward starts.
        data = random_dataset(24, 4, 3, seed=27, padded=True)
        with helpers.num_filters(8):
            net = build_model(ModelConfig(variant="slcnn+v", doc_len=4, num_classes=3, seed=8,
                                          fc_size=16, epochs=1, batch_size=8))
        forward = Model._forward_with_caches
        steps: list[list[weakref.ref]] = []

        def tracked(self, ids, matrix, rng):
            assert all(ref() is None for refs in steps for ref in refs)
            logits, caches = forward(self, ids, matrix, rng)
            steps.append([weakref.ref(arr) for arr in _arrays_in(caches)])
            return logits, caches

        monkeypatch.setattr(Model, "_forward_with_caches", tracked)
        train(net, data)
        assert len(steps) == 3 and all(steps)

    def test_confident_batch_has_no_subnormal_gradient(self):
        # Scale the output layer until the closest runner-up logit is 95
        # below its row's top one: float32 softmax then underflows to
        # subnormal probabilities, which the loss floors to 0.
        data = random_dataset(8, 4, 3, seed=28)
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=3, seed=9,
                                      dropout_rate=0.0))
        logits = net.forward(data.grids, data.matrix)
        top2 = np.sort(logits, axis=1)[:, -2:]
        net.out.weights *= F32(95 / (top2[:, 1] - top2[:, 0]).min())
        logits, caches = net._forward_with_caches(data.grids, data.matrix,
                                                  np.random.default_rng(0))
        _, grad_logits = nn.softmax_cross_entropy(logits, logits.argmax(axis=1))
        tiny = np.finfo(F32).tiny
        for (name, _), g in zip(net.param_blocks(), net._backward(caches, grad_logits)):
            assert not ((g != 0) & (np.abs(g) < tiny)).any(), name

    def test_divergence_aborts_with_location(self):
        data = random_dataset(8, 4, 2, seed=23)
        cfg = ModelConfig(variant="slcnn", doc_len=4, num_classes=2, seed=3,
                          lr=1e18, epochs=6, batch_size=8)
        net = build_model(cfg)
        # No numpy warning on the way: under filterwarnings=error one would
        # surface as a RuntimeWarning instead.
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(net, data)

    def test_non_finite_logits_are_divergence(self):
        data = random_dataset(8, 4, 2, seed=23)
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=2, seed=3,
                                      epochs=1, batch_size=8))
        net.out.biases[1] = np.nan
        with pytest.raises(TrainingDivergedError,
                           match="epoch 0, batch 0: logits contain non-finite values"):
            train(net, data)

    def test_non_finite_gradient_names_its_block(self, monkeypatch):
        # Every block's gradient is checked before Adam moves any parameter.
        data = random_dataset(8, 4, 2, seed=23)
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=2, seed=3,
                                      epochs=1, batch_size=8))
        before = _param_copies(net)
        fc1_w = [name for name, _ in net.param_blocks()].index("fc1.w")
        backward = net._backward

        def poisoned(caches, grad_logits):
            grads = backward(caches, grad_logits)
            grads[fc1_w][0, 0] = np.inf
            return grads

        monkeypatch.setattr(net, "_backward", poisoned)
        with pytest.raises(TrainingDivergedError,
                           match="epoch 0, batch 0: non-finite gradient in fc1.w"):
            train(net, data)
        for arr, (name, now) in zip(before, net.param_blocks()):
            assert np.array_equal(arr, now), name


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

class TestEvaluate:
    def test_memorized_set_scores_one(self):
        data = random_dataset(10, 2, 2, seed=24)
        cfg = ModelConfig(variant="slcnn", doc_len=2, num_classes=2, seed=4,
                          epochs=60, batch_size=10, dropout_rate=0.0)
        net = build_model(cfg)
        report = train(net, data)
        assert report["train_accuracy"][-1] == 1.0
        assert evaluate(net, data) == 1.0

    def test_label_permutation_complement(self):
        data = random_dataset(30, 4, 2, seed=25)
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=2, seed=5))
        acc = evaluate(net, data)
        flipped = EmbeddedDataset(grids=data.grids, labels=1 - data.labels, matrix=data.matrix)
        assert evaluate(net, flipped) == pytest.approx(1.0 - acc)

    def test_untrained_accuracy_near_chance(self):
        accs = []
        for seed in range(5):
            data = random_dataset(300, 4, 4, seed=30 + seed)
            net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4, seed=seed))
            accs.append(evaluate(net, data))
        assert abs(float(np.mean(accs)) - 0.25) < 0.06

    def test_argmax_ties_break_to_lowest_class(self):
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=3, seed=6))
        for _, arr in net.param_blocks():
            arr[...] = 0
        net.out.biases[...] = np.array([0.5, 0.5, 0.1], F32)
        data = random_dataset(6, 4, 3, seed=26)
        zero_labels = EmbeddedDataset(grids=data.grids,
                                      labels=np.zeros(6, dtype=np.int64),
                                      matrix=data.matrix)
        assert evaluate(net, zero_labels) == 1.0

    def test_predict_never_holds_a_float_batch(self):
        # The trunk gathers each row block's vectors from the ids; one eval
        # batch of 64 Yelp-shape documents as a float tensor is 22.5 MiB.
        data = random_dataset(64, 20, 5, seed=29, vocab=2000)
        with helpers.num_filters(8):
            net = build_model(ModelConfig(variant="slcnn+v", doc_len=20, num_classes=5))
        tracemalloc.start()
        try:
            predict_labels(net, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 20 * 46 * 100 * np.dtype(F32).itemsize


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

class TestCheckpoint:
    def _trained_model(self) -> Model:
        data = random_dataset(8, 4, 3, seed=40)
        cfg = ModelConfig(variant="slcnn", doc_len=4, num_classes=3, seed=8,
                          epochs=2, batch_size=8)
        net = build_model(cfg)
        train(net, data)
        return net

    def test_roundtrip_forward_bit_identical(self, tmp_path):
        net = self._trained_model()
        x = np.random.default_rng(41).normal(size=(2, 4, 46, 100)).astype(F32)
        before = net.forward(*helpers.as_ids(x))
        path = tmp_path / "m.slcnn"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)
        assert np.array_equal(restored.forward(*helpers.as_ids(x)), before)
        assert restored.config == net.config

    def test_truncated_file_rejected(self, tmp_path):
        net = self._trained_model()
        path = tmp_path / "m.slcnn"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        bad = tmp_path / "t.slcnn"
        bad.write_bytes(raw[: len(raw) - 257])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("field", ["embed_dim", "num_filters", "fc_size"])
    def test_config_blob_with_empty_layer_rejected(self, tmp_path, field):
        path = tmp_path / "m.slcnn"
        save_checkpoint(build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=3)), path)
        members = fileio.read_npz(path)
        config = json.loads(members["config"].tobytes())
        config[field] = 0
        members["config"] = np.frombuffer(json.dumps(config).encode(), np.uint8)
        fileio.write_npz(path, members)
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        # The CRC is valid: the stored value itself is not a usable parameter.
        net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=3))
        dict(net.param_blocks())["out.b"][0] = value
        path = tmp_path / "m.slcnn"
        save_checkpoint(net, path)
        with pytest.raises(CheckpointError, match="out.b"):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect", sorted(helpers.CHECKPOINT_DEFECTS))
    def test_defect_behind_valid_checksum_rejected(self, tmp_path, defect):
        path = tmp_path / "m.slcnn"
        save_checkpoint(_tiny_model("slcnn", 4), path)  # 128 filters, as the messages say
        helpers.defective_checkpoint(path, defect)
        message = helpers.CHECKPOINT_DEFECTS[defect][1]
        with pytest.raises(CheckpointError, match=re.escape(message)) as caught:
            load_checkpoint(path)
        assert str(path) in str(caught.value)

    def test_corrupt_byte_fails_checksum(self, tmp_path):
        net = self._trained_model()
        path = tmp_path / "m.slcnn"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "c.slcnn"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="Bad CRC-32"):
            load_checkpoint(bad)

    def test_config_member_records_sent_len_46(self, tmp_path):
        # ModelConfig has no sent_len or num_filters, but the file keeps the
        # keys, so a checkpoint keeps its bytes and every earlier one loads.
        path = tmp_path / "m.slcnn"
        save_checkpoint(_tiny_model("slcnn", 4), path)
        config = fileio.read_npz(path)["config"].tobytes()
        assert b',"num_filters":128,' in config and b',"sent_len":46,' in config

    def test_checkpoint_of_other_filters_is_refused(self, tmp_path):
        path = tmp_path / "m.slcnn"
        with helpers.num_filters(5):
            save_checkpoint(_tiny_model("slcnn", 4), path)
            assert load_checkpoint(path).conv_banks[0].weights.shape == (5, 1, 2, 6)
        with pytest.raises(CheckpointError, match="num_filters must be 128, got 5"):
            load_checkpoint(path)

    def test_same_model_gives_the_same_bytes(self, tmp_path):
        # The zip entries carry a fixed timestamp, not the time of writing.
        with helpers.num_filters(5):
            net = _tiny_model("slcnn+v", 4)
            save_checkpoint(net, tmp_path / "a.slcnn")
            save_checkpoint(net, tmp_path / "b.slcnn")
        assert (tmp_path / "a.slcnn").read_bytes() == (tmp_path / "b.slcnn").read_bytes()
        with zipfile.ZipFile(tmp_path / "a.slcnn") as archive:
            assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        net = _tiny_model("slcnn+v", 4)
        save_checkpoint(net, tmp_path / "m.slcnn")

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(model.np.random, "default_rng", refuse)
        loaded = load_checkpoint(tmp_path / "m.slcnn")
        for (name, got), (_, want) in zip(loaded.param_blocks(), net.param_blocks(), strict=True):
            assert np.array_equal(got, want), name

    def test_load_holds_about_one_copy_of_the_parameters(self, tmp_path):
        # The stored arrays become the model's: no init is drawn and then
        # overwritten, and no member is copied (a serve_cold-shape model).
        path = tmp_path / "m.slcnn"
        save_checkpoint(build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=4)), path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * path.stat().st_size

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_damaged_file_raises_or_gives_the_saved_model(self, tiny_checkpoint, data):
        # A zip's header fields (a timestamp, a local header's CRC copy) lie
        # outside every CRC, so a flip there may load: but only as the saved
        # model, bit for bit.
        saved, raw = tiny_checkpoint
        if data.draw(st.booleans(), label="truncate"):
            damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            flip = data.draw(st.integers(1, 255), label="flip")
            damaged = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.slcnn"
            bad.write_bytes(damaged)
            try:
                with helpers.num_filters(5):
                    loaded = load_checkpoint(bad)
            except CheckpointError as exc:
                assert str(bad) in str(exc)
                return
        assert loaded.config == saved.config
        for (name, got), (_, want) in zip(loaded.param_blocks(), saved.param_blocks(),
                                          strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.fixture(scope="class")
    def tiny_checkpoint(self, tmp_path_factory) -> tuple[Model, bytes]:
        """A small model with generic parameters, and its checkpoint's bytes."""
        with helpers.num_filters(5):
            net = _tiny_model("slcnn+v", 4)
            rng = np.random.default_rng(3)
            for _, arr in net.param_blocks():
                arr[...] = rng.normal(size=arr.shape)
            path = tmp_path_factory.mktemp("ckpt") / "m.slcnn"
            save_checkpoint(net, path)
        return net, path.read_bytes()


# --------------------------------------------------------------------------
# End-to-end gradient checks (float64 shadow)
# --------------------------------------------------------------------------

class TestEndToEndGradients:
    def test_shrunken_config_two_rows(self):
        # Whole network at doc_len=2 in float64: tolerance 1e-6.
        assert helpers.end_to_end_grad_check(doc_len=2) < 1e-6

    def test_shrunken_config_four_rows(self):
        # The acceptance-grade check: doc_len=4, tolerance 1e-5.
        assert helpers.end_to_end_grad_check(doc_len=4) < 1e-5


# --------------------------------------------------------------------------
# Row blocks of the HCB trunk
# --------------------------------------------------------------------------

class TestRowBlocks:
    @pytest.fixture
    def three_row_blocks(self, monkeypatch):
        # Small shapes then span several blocks, the last one shorter.
        monkeypatch.setattr(model, "ROW_BLOCK", 3)

    @pytest.mark.parametrize("rows", [1, 127, 128, 129, 256, 1280, 1281])
    def test_blocks_are_balanced(self, rows):
        sizes = [b.stop - b.start for b in model._row_blocks(rows)]
        assert sum(sizes) == rows
        assert len(sizes) == -(-rows // model.ROW_BLOCK)
        assert max(sizes) <= model.ROW_BLOCK
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("variant", ["slcnn", "slcnn+v"])
    def test_gradients_across_blocks(self, three_row_blocks, variant):
        # 2 docs x 4 rows = blocks of 3, 3, 2 rows, cutting through
        # documents and through the VCB's row pairs.
        assert helpers.end_to_end_grad_check(doc_len=4, batch=2, variant=variant) < 1e-5

    def test_same_seed_training_bit_identical(self, three_row_blocks):
        data = random_dataset(12, 4, 3, seed=27)

        def run():
            cfg = ModelConfig(variant="slcnn+v", doc_len=4, num_classes=3, seed=7,
                              epochs=2, batch_size=5, fc_size=32)
            with helpers.num_filters(16):
                net = build_model(cfg)
            report = train(net, data)
            return report["train_loss"], _param_copies(net)

        loss_a, params_a = run()
        loss_b, params_b = run()
        assert loss_a == loss_b
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a, b)

    def test_features_match_per_document(self, three_row_blocks):
        net = build_model(ModelConfig(variant="slcnn+v", doc_len=6, num_classes=3, seed=2))
        x = np.random.default_rng(28).normal(0, 0.4, size=(5, 6, 46, 100)).astype(F32)
        batched = helpers.features(net, x)
        for i in range(len(x)):
            np.testing.assert_allclose(batched[i : i + 1], helpers.features(net, x[i : i + 1]),
                                       rtol=0, atol=1e-6)


# --------------------------------------------------------------------------
# The length-aware HCB trunk against the dense oracle
# --------------------------------------------------------------------------

# Live words per row, doc_len 4: every edge length, one odd middle length,
# all-pad rows between live ones, and one all-pad document.  At ROW_BLOCK 3
# the 7 live rows sort into blocks (46, 45, 44), (17, 3), (2, 1), so the
# second document's rows land in all three.
MIXED_LENGTHS = [[46, 0, 1, 45], [2, 17, 44, 3], [0, 0, 0, 0]]


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    """Largest difference relative to the oracle's largest magnitude."""
    scale = float(np.abs(b).max())
    return float(np.abs(a - b).max()) / scale if scale else float(np.abs(a).max())


def _logits_and_grads(net: Model, x: np.ndarray, labels: np.ndarray):
    # The training path, which keeps the caches _backward reads.  A fresh
    # generator per call gives a model and its oracle the same dropout masks.
    logits, caches = net._forward_with_caches(*helpers.as_ids(x), np.random.default_rng(0))
    _, grad_logits = nn.softmax_cross_entropy(logits, labels)
    return logits, net._backward(caches, grad_logits)


class TestLengthAwareTrunk:
    @pytest.fixture(params=[128, 3], ids=["block128", "block3"])
    def row_block(self, request, monkeypatch):
        monkeypatch.setattr(model, "ROW_BLOCK", request.param)

    @pytest.mark.parametrize("variant", ["slcnn", "slcnn+v"])
    def test_float64_matches_dense_oracle(self, row_block, variant):
        rng = np.random.default_rng(60)
        cfg = ModelConfig(variant=variant, doc_len=4, num_classes=3, embed_dim=12, fc_size=16,
                          dropout_rate=0.0)
        with helpers.num_filters(16):
            net = helpers.randomize_biases(helpers.with_dtype(build_model(cfg), np.float64), rng)
        x = helpers.pad_rows(rng.normal(size=(3, 4, 46, 12)), MIXED_LENGTHS)
        labels = np.array([0, 1, 2])
        logits, grads = _logits_and_grads(net, x, labels)
        want_logits, want_grads = _logits_and_grads(helpers.dense_oracle(net), x, labels)
        assert _max_rel(logits, want_logits) < 1e-10
        for (name, _), got, want in zip(net.param_blocks(), grads, want_grads):
            assert _max_rel(got, want) < 1e-10, name

    @pytest.mark.parametrize("variant", ["slcnn", "slcnn+v"])
    def test_gradients_on_padded_rows(self, row_block, variant):
        assert helpers.end_to_end_grad_check(doc_len=4, batch=3, variant=variant,
                                             lengths=MIXED_LENGTHS) < 1e-5

    @pytest.mark.parametrize("variant", ["slcnn", "slcnn+v"])
    def test_float32_eval_logits_match_dense_oracle(self, row_block, variant):
        rng = np.random.default_rng(61)
        net = helpers.randomize_biases(
            build_model(ModelConfig(variant=variant, doc_len=4, num_classes=4)), rng)
        x = helpers.pad_rows(rng.normal(0, 0.4, size=(3, 4, 46, 100)).astype(F32),
                             MIXED_LENGTHS)
        ids, matrix = helpers.as_ids(x)
        np.testing.assert_allclose(net.forward(ids, matrix),
                                   helpers.dense_oracle(net).forward(ids, matrix),
                                   rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("variant", ["slcnn", "slcnn+v"])
    def test_full_rows_bit_identical_to_dense_oracle(self, row_block, variant):
        rng = np.random.default_rng(62)
        with helpers.num_filters(32):
            net = helpers.randomize_biases(
                build_model(ModelConfig(variant=variant, doc_len=4, num_classes=4, fc_size=64)),
                rng)
        x = rng.normal(0, 0.4, size=(5, 4, 46, 100)).astype(F32)
        labels = rng.integers(0, 4, size=5)
        logits, grads = _logits_and_grads(net, x, labels)
        want_logits, want_grads = _logits_and_grads(helpers.dense_oracle(net), x, labels)
        assert np.array_equal(logits, want_logits)
        for (name, _), got, want in zip(net.param_blocks(), grads, want_grads):
            assert np.array_equal(got, want), name

    def test_eval_forward_keeps_no_block_caches(self, row_block):
        # Eval and predict never backpropagate, so the trunk frees each
        # block's conv and pool caches as it goes; the logits are the same.
        rng = np.random.default_rng(64)
        with helpers.num_filters(16):
            net = build_model(ModelConfig(variant="slcnn", doc_len=4, num_classes=3,
                                          embed_dim=12, fc_size=16, dropout_rate=0.0))
        x = helpers.pad_rows(rng.normal(size=(3, 4, 46, 12)).astype(F32), MIXED_LENGTHS)
        ids, matrix = helpers.as_ids(x)
        logits, ((hcb_cache, _), *_) = net._forward_with_caches(ids, matrix, None)
        train_logits, ((train_cache, _), *_) = net._forward_with_caches(ids, matrix, rng)
        assert np.array_equal(logits, train_logits)
        assert [len(caches) for _, caches, _ in hcb_cache[1]] == [0] * len(hcb_cache[1])
        assert [len(caches) for _, caches, _ in train_cache[1]] == [4] * len(train_cache[1])

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative_zero"])
    @pytest.mark.parametrize("at", ["sentence_end", "mid_sentence"])
    def test_zero_vector_word_gives_oracle_logits(self, zero, at):
        # Pad is id 0 and nothing else: a live id whose row is all zeros is
        # a word, wherever it stands, and the first block computes it.
        rng = np.random.default_rng(63)
        cfg = ModelConfig(variant="slcnn+v", doc_len=4, num_classes=3, embed_dim=12, fc_size=16)
        with helpers.num_filters(16):
            net = helpers.randomize_biases(helpers.with_dtype(build_model(cfg), np.float64), rng)
        ids = np.zeros((3, 4, 46), np.int32)
        ids[1, 1, :17] = np.arange(1, 18)  # the longest row: 17 words
        ids[0, 2, :5] = np.arange(18, 23)
        matrix = rng.normal(size=(23, 12))
        matrix[0] = 0.0
        word = {"sentence_end": 16, "mid_sentence": 8}[at]
        matrix[ids[1, 1, word]] = zero
        logits, ((hcb_cache, _), *_) = net._forward_with_caches(ids, matrix, None)
        _, _, lives = hcb_cache[1][0]  # the first block, which holds the longest row
        assert lives[0] == 20  # 2 * ceil(17 / 2) + 2 columns; 18 were word 17 pad
        assert _max_rel(logits, helpers.dense_oracle(net).forward(ids, matrix)) < 1e-10

    def test_same_seed_training_on_padded_rows_bit_identical(self, row_block):
        data = random_dataset(12, 4, 3, seed=64, padded=True)

        def run():
            cfg = ModelConfig(variant="slcnn+v", doc_len=4, num_classes=3, seed=7,
                              epochs=2, batch_size=5, fc_size=32)
            with helpers.num_filters(16):
                net = build_model(cfg)
            report = train(net, data)
            return report["train_loss"], _param_copies(net)

        loss_a, params_a = run()
        loss_b, params_b = run()
        assert loss_a == loss_b
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# Dataset plumbing
# --------------------------------------------------------------------------

class TestEmbeddedDataset:
    def test_id_path_matches_tensorize(self, tmp_path):
        from slcnn.corpus import build_grid_dataset, preprocess_document
        from slcnn.embedding import load_embeddings

        docs = helpers.make_synthetic_docs(4, seed=50)
        emb_path = helpers.write_embeddings_file(
            tmp_path / "e.txt", helpers.corpus_vocab(docs)[:20], dim=8, seed=6
        )
        table = load_embeddings(emb_path, 8)
        grid_ds = build_grid_dataset(docs, 3, 10)
        data = EmbeddedDataset.build(grid_ds, table)
        batch = data.matrix[data.grids]
        for i, doc in enumerate(docs):
            direct = helpers.tensorize(preprocess_document(doc), 3, 10, table)
            assert np.array_equal(batch[i], direct)
