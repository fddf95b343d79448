"""The analytic FLOP counter against hand computations at the AG shape."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import flops  # noqa: E402

B = 64  # AG batch; doc_len t_d = 4, 46 words, 100-d embeddings, 128 filters


def test_first_bank_by_hand():
    # 4 rows x 45 output columns, 128 filters of 1x2 over 100 channels.
    by_hand = 2 * 64 * 4 * 45 * 128 * 1 * 2 * 100
    assert by_hand == 589_824_000
    layers = flops.model_layers("slcnn", 4, B, num_classes=4)
    assert layers["hcb1.conv1"] == {"fwd": by_hand, "bwd_w": by_hand, "bwd_x": by_hand}


def test_every_bank_by_hand_at_the_ag_shape():
    # Widths into each bank: 46 45 | 22 21 | 10 9 | 4 3 (pools halve
    # floor((w - 2) / 2)); output columns are one fewer.
    out_cols = {"hcb1.conv1": 45, "hcb1.conv2": 44, "hcb2.conv1": 21, "hcb2.conv2": 20,
                "hcb3.conv1": 9, "hcb3.conv2": 8, "hcb4.conv1": 3, "hcb4.conv2": 2}
    layers = flops.model_layers("slcnn", 4, B, num_classes=4)
    for name, cols in out_cols.items():
        c_in = 100 if name == "hcb1.conv1" else 128
        assert layers[name]["fwd"] == 2 * B * 4 * cols * 128 * 2 * c_in, name
    # Dense head: flatten 4 rows x 128 = 512 -> 512 -> 512 -> 4.
    assert layers["fc1"]["fwd"] == 2 * B * 512 * 512
    assert layers["fc2"]["fwd"] == 2 * B * 512 * 512
    assert layers["out"]["fwd"] == 2 * B * 512 * 4


def test_step_summary_at_the_ag_shape():
    layers = flops.model_layers("slcnn", 4, B, num_classes=4)
    conv_cols = [45, 44, 21, 20, 9, 8, 3, 2]
    conv_fwd = sum(2 * B * 4 * cols * 128 * 2 * (100 if i == 0 else 128)
                   for i, cols in enumerate(conv_cols))
    dense_fwd = 2 * B * (512 * 512 + 512 * 512 + 512 * 4)
    forward = conv_fwd + dense_fwd
    summary = flops.step_summary(layers)
    assert summary["flops_per_step"] == 3 * forward
    assert summary["discarded_input_grad_frac"] == 589_824_000 / (2 * forward)


def test_vertical_block_by_hand():
    layers = flops.model_layers("slcnn+v", 20, B, num_classes=5)
    # 2x1 banks over 128 channels: 20 -> 19 -> 18 rows, one column.
    assert layers["vcb.conv1"]["fwd"] == 2 * B * 19 * 1 * 128 * 2 * 128
    assert layers["vcb.conv2"]["fwd"] == 2 * B * 18 * 1 * 128 * 2 * 128
    # vertical pool: 18 -> 9 rows feed fc1.
    assert layers["fc1"]["fwd"] == 2 * B * 9 * 128 * 512


def test_layer_names_match_the_model_blocks():
    from slcnn import model as m

    for variant, doc_len in (("slcnn", 4), ("slcnn+v", 20)):
        net = m.build_model(m.ModelConfig(variant=variant, doc_len=doc_len, num_classes=5))
        blocks = {name[:-2] for name, _ in net.param_blocks() if name.endswith(".w")}
        assert set(flops.model_layers(variant, doc_len, 1, num_classes=5)) == blocks
