"""Analytic FLOP counts of the model's GEMMs, from layer shapes alone.

A conv bank of k filters of extent s x t over c_in channels, applied to a
batch of B maps of m x n positions, has om x on = (m - s + 1) x (n - t + 1)
output positions.  Each of its three GEMM families (the forward pass, the
weight gradient and the input gradient) costs 2·B·om·on·k·s·t·c_in
floating-point operations.  A dense layer's three families each cost
2·B·in·out.  Bias adds, activations, pooling and Adam are not counted.
"""

from __future__ import annotations

FILTERS = 128
SENT_LEN = 46
EMBED_DIM = 100


def conv(batch: int, m: int, n: int, c_in: int, k: int, s: int, t: int) -> dict[str, int]:
    gemm = 2 * batch * (m - s + 1) * (n - t + 1) * k * s * t * c_in
    return {"fwd": gemm, "bwd_w": gemm, "bwd_x": gemm}


def dense(batch: int, n_in: int, n_out: int) -> dict[str, int]:
    gemm = 2 * batch * n_in * n_out
    return {"fwd": gemm, "bwd_w": gemm, "bwd_x": gemm}


def model_layers(variant: str, doc_len: int, batch: int, *, num_classes: int,
                 fc_size: int = 512, sent_len: int = SENT_LEN,
                 embed_dim: int = EMBED_DIM) -> dict[str, dict[str, int]]:
    """Counts per conv bank (named as in Model.param_blocks) and dense layer."""
    layers: dict[str, dict[str, int]] = {}
    width, channels, hcb = sent_len, embed_dim, 0
    while width > 1:
        hcb += 1
        for j in (1, 2):
            layers[f"hcb{hcb}.conv{j}"] = conv(batch, doc_len, width, channels, FILTERS, 1, 2)
            width, channels = width - 1, FILTERS
        width //= 2
    rows = doc_len
    if variant == "slcnn+v":
        for j in (1, 2):
            layers[f"vcb.conv{j}"] = conv(batch, rows, 1, FILTERS, FILTERS, 2, 1)
            rows -= 1
        rows //= 2
    layers["fc1"] = dense(batch, rows * FILTERS, fc_size)
    layers["fc2"] = dense(batch, fc_size, fc_size)
    layers["out"] = dense(batch, fc_size, num_classes)
    return layers


def step_summary(layers: dict[str, dict[str, int]]) -> dict[str, float]:
    """FLOPs of one training step, and the share of its backward FLOPs that
    computes the input gradient of the first conv bank: embeddings are
    frozen, so that gradient is thrown away."""
    backward = sum(c["bwd_w"] + c["bwd_x"] for c in layers.values())
    forward = sum(c["fwd"] for c in layers.values())
    return {
        "flops_per_step": forward + backward,
        "discarded_input_grad_frac": layers["hcb1.conv1"]["bwd_x"] / backward,
    }
