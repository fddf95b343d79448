"""Minimal deterministic tensor engine for the sentence-level CNN.

Feature maps are numpy arrays shaped (rows, cols, channels), row-major
with channels innermost; every op also accepts a leading batch dimension.
The model path runs in float32; float64 arrays are accepted so gradient
checking can run a shadow copy at higher precision.

Determinism contract: every op is a fixed sequence of numpy calls on its
operands.  Convolution adds one matmul over the channel axis per filter
tap, in row-major (a, b) order; the model runs its HCB trunk in row blocks
(see model.py) and sums their weight gradients in block order, so the
summation order is fixed by the operand shapes.  Reductions never depend on
the iteration order of hashes or sets.  With a fixed BLAS thread count,
results are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ACTIVATIONS = ("relu", "identity")

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


class ShapeError(Exception):
    """Raised when operand shapes are inconsistent with an op's contract."""


class OptimizerError(Exception):
    """Raised on non-finite gradients, naming the offending parameter block."""


def _check_float(x: np.ndarray, what: str) -> None:
    if x.dtype not in (np.float32, np.float64):
        raise ShapeError(f"{what} must be float32 or float64, got {x.dtype}")


def _batched(x: np.ndarray, core_ndim: int) -> tuple[np.ndarray, bool]:
    if x.ndim == core_ndim:
        return x[None], False
    if x.ndim == core_ndim + 1:
        return x, True
    raise ShapeError(f"expected a rank-{core_ndim} array or a batch of them, got rank {x.ndim}")


# --------------------------------------------------------------------------
# Parameter containers
# --------------------------------------------------------------------------

@dataclass
class ConvFilterBank:
    """k filters of spatial extent s x t over c_in input channels."""

    weights: np.ndarray  # (k, s, t, c_in)
    biases: np.ndarray  # (k,)

    def __post_init__(self) -> None:
        if self.weights.ndim != 4:
            raise ShapeError("conv weights must have shape (k, s, t, c_in)")
        k, s, t, _ = self.weights.shape
        if s not in (1, 2) or t not in (1, 2):
            raise ShapeError(f"filter extent {s}x{t} unsupported; only 1x2 / 2x1 / 1x1 / 2x2")
        if self.biases.shape != (k,):
            raise ShapeError("conv biases must have shape (k,)")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ShapeError("conv parameters must be finite")

    @property
    def num_filters(self) -> int:
        return self.weights.shape[0]

    @property
    def extent(self) -> tuple[int, int]:
        return self.weights.shape[1], self.weights.shape[2]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[3]


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray  # (out,)

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ShapeError("dense layer needs weights (out, in) and biases (out,)")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ShapeError("dense parameters must be finite")


# --------------------------------------------------------------------------
# Convolution (valid, stride 1)
# --------------------------------------------------------------------------

@dataclass
class ConvCache:
    x: np.ndarray
    relu_mask: np.ndarray | None  # None for identity activation
    out_shape: tuple[int, ...]


def conv2d_forward(
    x: np.ndarray, bank: ConvFilterBank, activation: str = "relu"
) -> tuple[np.ndarray, ConvCache]:
    """Valid convolution, stride 1: out[i,j,q] = act(sum_w x-window + b[q]).

    Input (m, n, c_in) or (B, m, n, c_in); output spatial extent shrinks to
    (m - s + 1, n - t + 1).
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    _check_float(x, "conv input")
    xb, batched = _batched(x, 3)
    batch, m, n, c_in = xb.shape
    s, t = bank.extent
    if c_in != bank.in_channels:
        raise ShapeError(f"input has {c_in} channels, filters expect {bank.in_channels}")
    if m < s or n < t:
        raise ShapeError(f"input {m}x{n} smaller than filter extent {s}x{t}")
    om, on = m - s + 1, n - t + 1

    w = bank.weights.astype(xb.dtype, copy=False)
    # Tap accumulation in row-major (a, b) order; each tap contracts the
    # channel axis with one GEMM over all batch/spatial positions.
    flat = None
    for a in range(s):
        for b in range(t):
            window = xb[:, a : a + om, b : b + on, :].reshape(-1, c_in)
            contrib = window @ w[:, a, b, :].T
            if flat is None:
                flat = contrib
            else:
                flat += contrib
    flat += bank.biases.astype(xb.dtype, copy=False)
    out = flat.reshape(batch, om, on, bank.num_filters)

    mask = None
    if activation == "relu":
        mask = out > 0
        np.maximum(out, 0, out=out)
    cache = ConvCache(x=xb, relu_mask=mask, out_shape=out.shape)
    return (out if batched else out[0]), cache


def conv2d_backward(
    bank: ConvFilterBank,
    cache: ConvCache,
    upstream: np.ndarray,
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss w.r.t. conv input, weights, and biases.

    With ``need_input_grad=False`` the input gradient is not computed and
    None is returned in its place (the layer over frozen embeddings).
    """
    up, batched = _batched(upstream, 3)
    if up.shape != cache.out_shape:
        raise ShapeError(f"upstream shape {up.shape} != forward output {cache.out_shape}")
    if cache.relu_mask is not None:
        up = up * cache.relu_mask
    xb = cache.x
    s, t = bank.extent
    om, on = up.shape[1], up.shape[2]
    w = bank.weights.astype(xb.dtype, copy=False)

    grad_b = up.sum(axis=(0, 1, 2))
    grad_w = np.zeros_like(w)
    grad_x = np.zeros_like(xb) if need_input_grad else None
    c_in = bank.in_channels
    up_flat = up.reshape(-1, bank.num_filters)
    for a in range(s):
        for b in range(t):
            window = xb[:, a : a + om, b : b + on, :].reshape(-1, c_in)
            grad_w[:, a, b, :] = up_flat.T @ window
            if grad_x is not None:
                grad_x[:, a : a + om, b : b + on, :] += (up_flat @ w[:, a, b, :]).reshape(
                    xb.shape[0], om, on, c_in
                )
    if grad_x is not None and not batched:
        grad_x = grad_x[0]
    return grad_x, grad_w, grad_b


# --------------------------------------------------------------------------
# Max pooling (size 2, non-overlapping, floor semantics)
# --------------------------------------------------------------------------

@dataclass
class PoolCache:
    in_shape: tuple[int, ...]
    axis_index: int
    take_first: np.ndarray  # True where the earlier element won (ties included)


def _pool_axis(x: np.ndarray, axis: str) -> int:
    if axis == HORIZONTAL:
        return x.ndim - 2
    if axis == VERTICAL:
        return x.ndim - 3
    raise ValueError(f"pooling axis must be {HORIZONTAL!r} or {VERTICAL!r}")


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
    _check_float(x, "pool input")
    xb, batched = _batched(x, 3)
    ax = _pool_axis(xb, axis)
    length = xb.shape[ax]
    if length < 2:
        raise ShapeError(f"cannot pool a dimension of length {length}")
    first, second = _pair_halves(xb, ax)
    take_first = first >= second
    out = np.maximum(first, second)
    cache = PoolCache(in_shape=xb.shape, axis_index=ax, take_first=take_first)
    return (out if batched else out[0]), cache


def maxpool_backward(cache: PoolCache, upstream: np.ndarray) -> np.ndarray:
    """Route upstream values to their argmax positions; dropped tails get 0."""
    up, batched = _batched(upstream, 3)
    if up.shape != cache.take_first.shape:
        raise ShapeError(
            f"upstream shape {up.shape} != pooled shape {cache.take_first.shape}"
        )
    ax = cache.axis_index
    grad = np.empty(cache.in_shape, dtype=up.dtype)
    if cache.in_shape[ax] % 2:
        grad[(slice(None),) * ax + (-1,)] = 0
    first, second = _pair_halves(grad, ax)
    # up - up * take_first is exactly up where the second element won and 0
    # where the first did.
    np.multiply(up, cache.take_first, out=first)
    np.subtract(up, first, out=second)
    return grad if batched else grad[0]


# --------------------------------------------------------------------------
# Dense
# --------------------------------------------------------------------------

@dataclass
class DenseCache:
    x: np.ndarray
    relu_mask: np.ndarray | None


def dense_forward(
    x: np.ndarray, layer: DenseLayer, activation: str = "relu"
) -> tuple[np.ndarray, DenseCache]:
    """out = act(W x + b) for a vector or a batch of vectors."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    _check_float(x, "dense input")
    xb, batched = _batched(x, 1)
    out_dim, in_dim = layer.weights.shape
    if xb.shape[1] != in_dim:
        raise ShapeError(f"dense input length {xb.shape[1]} != layer input {in_dim}")
    w = layer.weights.astype(xb.dtype, copy=False)
    out = xb @ w.T + layer.biases.astype(xb.dtype, copy=False)
    mask = None
    if activation == "relu":
        mask = out > 0
        np.maximum(out, 0, out=out)
    return (out if batched else out[0]), DenseCache(x=xb, relu_mask=mask)


def dense_backward(
    layer: DenseLayer, cache: DenseCache, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    up, batched = _batched(upstream, 1)
    if up.shape != (cache.x.shape[0], layer.weights.shape[0]):
        raise ShapeError("upstream shape inconsistent with the forward call")
    if cache.relu_mask is not None:
        up = up * cache.relu_mask
    grad_w = up.T @ cache.x
    grad_b = up.sum(axis=0)
    grad_x = up @ layer.weights.astype(up.dtype, copy=False)
    return (grad_x if batched else grad_x[0]), grad_w, grad_b


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
    """
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite values")
    batch, num_classes = logits.shape
    if num_classes < 2:
        raise ShapeError("need at least 2 classes")
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != (batch,):
        raise ShapeError(f"labels shape {lab.shape} does not match batch {batch}")
    if (lab < 0).any() or (lab >= num_classes).any():
        raise ValueError("label out of range")

    rows = np.arange(batch)
    lg = logits.astype(np.float64)
    z = lg - lg.max(axis=-1, keepdims=True)
    losses = np.log(np.exp(z).sum(axis=-1)) - z[rows, lab]
    grad = softmax(logits)
    grad[rows, lab] -= 1
    grad /= batch
    return losses, grad


# --------------------------------------------------------------------------
# Dropout (inverted: survivors are scaled at train time)
# --------------------------------------------------------------------------

def dropout(
    x: np.ndarray,
    rate: float,
    mode: str,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero each element with probability *rate*, scaling survivors by
    1/(1-rate).  Returns (y, scale_mask); multiplying an upstream gradient
    by the mask is the exact backward pass.  Eval mode is the identity.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x, np.ones_like(x)
    if rng is None:
        raise ValueError("train-mode dropout requires an explicit rng")
    keep = rng.random(x.shape) >= rate
    scale = keep.astype(x.dtype) / x.dtype.type(1.0 - rate)
    return x * scale, scale


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment estimates plus timestep for a fixed parameter list."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    names: Sequence[str] | None = None,
) -> None:
    """One Adam update, in place:

        m <- b1 m + (1-b1) g        mhat = m / (1 - b1^t)
        v <- b2 v + (1-b2) g^2      vhat = v / (1 - b2^t)
        p <- p - lr * mhat / (sqrt(vhat) + eps)
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise OptimizerError("params/grads/state length mismatch")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise OptimizerError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.isfinite(g).all():
            name = names[i] if names else f"block {i}"
            raise OptimizerError(f"non-finite gradient in {name}")
        m, v = state.m[i], state.v[i]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def flatten_rows(x: np.ndarray) -> np.ndarray:
    """Flatten a feature map row-major over (row, channel): row 0's channels
    first, then row 1's, and so on.  Column extent must already be 1."""
    xb, batched = _batched(x, 3)
    if xb.shape[2] != 1:
        raise ShapeError(f"flatten expects column extent 1, got {xb.shape[2]}")
    out = xb.reshape(xb.shape[0], -1)
    return out if batched else out[0]
