"""Minimal deterministic tensor engine for the sentence-level CNN.

Ops take batches only: conv and pool a rank-4 (batch, rows, cols, channels)
array, channels innermost, and dense a rank-2 (batch, features) array.  Ops
check and cast nothing.  They compute in their operands' dtype: float32 in
the model, float64 in the gradient checks, which cast a whole model and its
inputs.  Each rule is checked where its data enters: ModelConfig (shapes,
classes, dropout rate), load_checkpoint (parameters), the embedding file
(width), the dataset loaders and CLI (labels).  What real data can trip,
non-finite logits and gradients, the training step judges as divergence.

Determinism contract: every op is a fixed sequence of numpy calls on its
operands.  Convolution adds one matmul over the channel axis per filter
tap, in row-major (a, b) order; the model runs its HCB trunk in
length-sorted row blocks (see model.py) and sums their weight gradients in
block order, then those of the pad constants.  The GEMM shapes, and so the
rounding, depend on each batch's mix of sentence lengths, but that mix is a
function of the batch's grid ids, so the summation order is too.  Reductions
never depend on the iteration order of hashes or sets.  With a fixed BLAS
thread count, results are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

# Logits-gradient entries below this magnitude are zeroed (see
# softmax_cross_entropy).  Float32 `tiny` (2^-126) is not enough: products
# of tiny normal entries still leave subnormals in the parameter gradients.
GRAD_FLOOR = 2.0**-100


# --------------------------------------------------------------------------
# Layers and their caches
# --------------------------------------------------------------------------

@dataclass
class Layer:
    """A conv bank, k filters of extent s x t over c_in input channels with
    weights (k, s, t, c_in), or a dense layer with weights (out, in); one
    bias per row of the first axis."""

    weights: np.ndarray
    biases: np.ndarray


@dataclass
class Cache:
    """What a conv or dense backward reads: the forward input and its ReLU
    mask (None for the identity output layer)."""

    x: np.ndarray
    relu_mask: np.ndarray | None


# --------------------------------------------------------------------------
# Convolution (valid, stride 1)
# --------------------------------------------------------------------------

def conv2d_forward(x: np.ndarray, bank: Layer) -> tuple[np.ndarray, Cache]:
    """Valid convolution, stride 1, then ReLU:
    out[i,j,q] = relu(sum_w x-window + b[q]).

    Input is a batch (B, m, n, c_in); output (B, m - s + 1, n - t + 1, k).
    """
    batch, m, n, c_in = x.shape
    k, s, t, _ = bank.weights.shape
    om, on = m - s + 1, n - t + 1
    # Tap accumulation in row-major (a, b) order; each tap contracts the
    # channel axis with one GEMM over all batch/spatial positions.
    flat = None
    for a in range(s):
        for b in range(t):
            window = x[:, a : a + om, b : b + on, :].reshape(-1, c_in)
            contrib = window @ bank.weights[:, a, b, :].T
            if flat is None:
                flat = contrib
            else:
                flat += contrib
    flat += bank.biases
    out = flat.reshape(batch, om, on, k)
    mask = out > 0
    np.maximum(out, 0, out=out)
    return out, Cache(x=x, relu_mask=mask)


def conv2d_backward(
    bank: Layer,
    cache: Cache,
    upstream: np.ndarray,
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss w.r.t. conv input, weights, and biases.

    With ``need_input_grad=False`` the input gradient is not computed and
    None is returned in its place (the layer over frozen embeddings).
    """
    up = upstream * cache.relu_mask
    x = cache.x
    k, s, t, c_in = bank.weights.shape
    om, on = up.shape[1], up.shape[2]

    grad_b = up.sum(axis=(0, 1, 2))
    grad_w = np.zeros_like(bank.weights)
    grad_x = np.zeros_like(x) if need_input_grad else None
    up_flat = up.reshape(-1, k)
    for a in range(s):
        for b in range(t):
            window = x[:, a : a + om, b : b + on, :].reshape(-1, c_in)
            grad_w[:, a, b, :] = up_flat.T @ window
            if grad_x is not None:
                grad_x[:, a : a + om, b : b + on, :] += (
                    up_flat @ bank.weights[:, a, b, :]).reshape(x.shape[0], om, on, c_in)
    return grad_x, grad_w, grad_b


# --------------------------------------------------------------------------
# Max pooling (size 2, non-overlapping, floor semantics)
# --------------------------------------------------------------------------

@dataclass
class PoolCache:
    in_shape: tuple[int, ...]
    axis_index: int
    take_first: np.ndarray  # True where the earlier element won (ties included)


def _pair_halves(x: np.ndarray, ax: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the earlier and the later element of each adjacent pair
    along axis *ax*; an odd trailing element is in neither."""
    pairs = x.shape[ax] // 2
    head = x[(slice(None),) * ax + (slice(0, 2 * pairs),)]
    view = head.reshape(x.shape[:ax] + (pairs, 2) + x.shape[ax + 1 :])
    lead = (slice(None),) * (ax + 1)
    return view[lead + (0,)], view[lead + (1,)]


def maxpool_forward(x: np.ndarray, axis: str) -> tuple[np.ndarray, PoolCache]:
    """Max over adjacent pairs along rows (vertical) or columns (horizontal).

    The pooled length is floor(len / 2); an odd trailing element is dropped.
    Ties prefer the earlier index (recorded for the backward pass).
    """
    ax = 2 if axis == HORIZONTAL else 1
    first, second = _pair_halves(x, ax)
    take_first = first >= second
    out = np.maximum(first, second)
    return out, PoolCache(in_shape=x.shape, axis_index=ax, take_first=take_first)


def maxpool_backward(cache: PoolCache, upstream: np.ndarray) -> np.ndarray:
    """Route upstream values to their argmax positions; dropped tails get 0."""
    ax = cache.axis_index
    grad = np.empty(cache.in_shape, dtype=upstream.dtype)
    if cache.in_shape[ax] % 2:
        grad[(slice(None),) * ax + (-1,)] = 0
    first, second = _pair_halves(grad, ax)
    # upstream - upstream * take_first is exactly upstream where the second
    # element won and 0 where the first did.
    np.multiply(upstream, cache.take_first, out=first)
    np.subtract(upstream, first, out=second)
    return grad


# --------------------------------------------------------------------------
# Dense
# --------------------------------------------------------------------------

def dense_forward(
    x: np.ndarray, layer: Layer, activation: str = "relu"
) -> tuple[np.ndarray, Cache]:
    """out = act(x W^T + b) for a batch of vectors x, shaped (B, in)."""
    out = x @ layer.weights.T + layer.biases
    mask = None
    if activation == "relu":
        mask = out > 0
        np.maximum(out, 0, out=out)
    return out, Cache(x=x, relu_mask=mask)


def dense_backward(
    layer: Layer, cache: Cache, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    up = upstream if cache.relu_mask is None else upstream * cache.relu_mask
    grad_w = up.T @ cache.x
    grad_b = up.sum(axis=0)
    grad_x = up @ layer.weights
    return grad_x, grad_w, grad_b


# --------------------------------------------------------------------------
# Loss
# --------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy of softmax(logits) against integer labels.

    Takes (batch, classes) logits and (batch,) labels.  Returns the losses,
    in float64, and the gradient of their mean w.r.t. the logits,
    (softmax(logits) - onehot(labels)) / batch, in the logits' dtype.  Each
    loss depends only on its own row, so metrics summed from these in
    dataset order are independent of batch composition (the per-epoch loss
    is reproducible bit-for-bit however the data was shuffled).

    Gradient entries of magnitude below GRAD_FLOOR (2^-100) are set to 0.
    Once the model is confident, float32 softmax underflows: such entries
    are subnormal, or their products in the backward GEMMs are, and x86
    takes a slow microcode assist on each operation on a subnormal.  On a
    12-epoch AG-shape run (t_d 4, a 2-core Xeon at 1 BLAS thread) 80 of 120
    steps met them and their backward took 4.2 of 5.4 s; the floor cut the
    epochs' sum from 8.1-8.7 s to 5.8-7.1 s.  An entry this small moves no
    weight: its share of any parameter gradient is far below Adam's eps
    (1e-8), and that run's checkpoints are bit-identical with and without
    the floor.  The floor never fires on the bench's inputs, whose 3-epoch
    runs are not that confident, so it changes no bench output.
    """
    batch = len(logits)
    rows = np.arange(batch)
    lg = logits.astype(np.float64)
    z = lg - lg.max(axis=-1, keepdims=True)
    losses = np.log(np.exp(z).sum(axis=-1)) - z[rows, labels]
    grad = softmax(logits)
    grad[rows, labels] -= 1
    grad /= batch
    grad[np.abs(grad) < GRAD_FLOOR] = 0
    return losses, grad


# --------------------------------------------------------------------------
# Dropout (inverted: survivors are scaled at train time)
# --------------------------------------------------------------------------

def dropout(
    x: np.ndarray, rate: float, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray]:
    """Zero each element with probability *rate*, scaling survivors by
    1/(1-rate).  Returns (y, scale_mask); multiplying an upstream gradient
    by the mask is the exact backward pass.  With no rng (eval) it is the
    identity.
    """
    if rng is None or rate == 0.0:
        return x, np.ones_like(x)
    keep = rng.random(x.shape) >= rate
    scale = keep.astype(x.dtype) / x.dtype.type(1.0 - rate)
    return x * scale, scale


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus timestep for a fixed parameter list."""

    lr: float = 0.001
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray], lr: float = 0.001) -> "AdamState":
        return cls(
            lr=lr,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
) -> None:
    """One Adam update, in place:

        m <- b1 m + (1-b1) g        mhat = m / (1 - b1^t)
        v <- b2 v + (1-b2) g^2      vhat = v / (1 - b2^t)
        p <- p - lr * mhat / (sqrt(vhat) + eps)
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        m, v = state.m[i], state.v[i]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
