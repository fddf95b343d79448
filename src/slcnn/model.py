"""The sentence-level CNN: block assembly, training, and checkpoints.

Every block of the trunk is one primitive: two conv+ReLU layers, then a
size-2 max-pool.  Two variants share four horizontal convolutional blocks
(HCBs), which run 1x2 filters and pool along the words, collapsing the
46-wide word axis to 1 (46 -> 22 -> 10 -> 4 -> 1) while never mixing
sentence rows.  The "+v" variant adds a vertical convolutional block (VCB)
of 2x1 filters that pools along the sentences, mixing adjacent ones before
the dense head.  After the first conv layer every bank convolves across
all 128 channels.

The model reads a batch as its int32 grid ids (documents, sentences, words)
and the frozen embedding matrix they index.  Pad is id 0 and nothing else.
The HCBs never mix rows, and they compute only the live part of each
sentence row: up to its last id that is not pad.  Every HCB op is a 1x2
valid conv or a 2-wide pool, so every column whose receptive field is all
pad holds one constant per HCB, which the trunk computes once per batch on
a 4-wide all-pad row.  A row with L live words keeps L live columns through
each conv and ceil(L / 2) through each pool.  The trunk sorts the batch's
rows by live length and runs them in blocks of at most ROW_BLOCK rows, each
gathering the vectors of the width its longest row needs; after each pool
the pad constant's columns widen it.  All-pad rows take the last constant.
The blocks are balanced: ceil(R / ROW_BLOCK) blocks whose sizes differ by
at most one, so no block is tiny (BLAS rounds tiny GEMMs differently).  The
backward pass walks the same blocks, adds their conv gradients in block
order, and then adds those of the pad constants, into which the gradients
of every pad column and all-pad row are summed.  A batch of full rows runs
exactly the GEMMs of a dense trunk over the batch's own row order.  The VCB
and the dense head run on the whole batch.

Embeddings are frozen and live outside the model; trainable parameters
are exactly the conv banks and the three dense layers.
"""

from __future__ import annotations

import json
import logging
import math
import os
import secrets
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import GridDataset
from .embedding import EmbeddingTable, embedding_matrix_for_vocab
from . import nn

SLCNN = "slcnn"
SLCNN_V = "slcnn+v"
VARIANTS = (SLCNN, SLCNN_V)

FC_SIZES = {"small": 512, "large": 1024}

EVAL_BATCH = 256  # documents per forward pass of predict_labels and evaluate

# Sentence rows per block of the HCB trunk.  A block's widest activation
# (128 x 45 x 128 float32, 2.9 MB) fits a 4 MiB L2 cache, where the whole
# Yelp-shape batch (1,280 rows, 29 MB) does not.  On a 2-core Xeon at one
# BLAS thread, with length-sorted blocks, 128 gave the fastest training step
# at the Yelp shape (batch 64, 20 rows per doc; 64-384 tried) and tied 64
# at the AG shape (4 rows per doc).
ROW_BLOCK = 128

CHECKPOINT_MAGIC = b"SLCN"
CHECKPOINT_VERSION = 1

# Seed-stream ids so shuffling, dropout, and init never share a stream.
STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_DROPOUT = 2
STREAM_LIMIT = 3
STREAM_SPLIT = 4

log = logging.getLogger("slcnn")


class ConfigError(ValueError):
    """Raised when a ModelConfig violates an architecture invariant."""


class CheckpointError(Exception):
    """Raised for corrupt, truncated, or incompatible checkpoint files."""


class TrainingDivergedError(Exception):
    def __init__(self, epoch: int, batch: int, detail: str) -> None:
        super().__init__(f"training diverged at epoch {epoch}, batch {batch}: {detail}")
        self.epoch = epoch
        self.batch = batch


def hcb_width_schedule(sent_len: int) -> list[int]:
    """Widths after each horizontal block, ending at exactly 1.

    There is at least one block.  Each maps width w -> floor((w - 2) / 2)
    and needs w >= 4; raises ConfigError when the recurrence cannot reach 1
    that way (as for w ending at 2, or a sentence length below 4).
    """
    widths = []
    w = sent_len
    while w > 1 or not widths:
        if w < 4:
            raise ConfigError(
                f"sentence length {sent_len} cannot collapse to width 1 "
                f"(width {w} before a block; each block needs width >= 4)"
            )
        w = (w - 2) // 2
        widths.append(w)
    return widths


# Lower bounds of ModelConfig's integer fields; every other one is at least 1.
_INT_MINIMUM = {"num_classes": 2, "seed": 0}


@dataclass
class ModelConfig:
    variant: str
    doc_len: int
    num_classes: int
    fc_size: int = 512
    num_filters: int = 128
    sent_len: int = 46
    embed_dim: int = 100
    seed: int = 0
    lr: float = 0.001
    epochs: int = 50
    batch_size: int = 64
    dropout_rate: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type != "int":
                continue
            value, least = getattr(self, f.name), _INT_MINIMUM.get(f.name, 1)
            if type(value) is not int:  # a bool is an int
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{f.name} must be >= {least}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == SLCNN_V and self.doc_len < 4:
            raise ConfigError(
                f"variant {SLCNN_V!r} needs doc_len >= 4 (two 2x1 convs then a pool "
                f"of 2); got doc_len={self.doc_len}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0; got {self.lr}")
        # Raises when the word axis cannot collapse to 1 (46 always works).
        self.hcb_widths = hcb_width_schedule(self.sent_len)

    @property
    def num_hcb(self) -> int:
        return len(self.hcb_widths)

    @property
    def flatten_size(self) -> int:
        rows = (self.doc_len - 2) // 2 if self.variant == SLCNN_V else self.doc_len
        return rows * self.num_filters


@dataclass
class TrainReport:
    """Per-epoch training trace plus final evaluation numbers."""

    config: dict
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_val_epoch: int | None = None
    best_val_accuracy: float | None = None
    test_accuracy_final: float | None = None
    test_accuracy_best_val: float | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = 1
        return d


class Model:
    """Parameter container plus forward/backward for one variant."""

    def __init__(
        self,
        config: ModelConfig,
        conv_banks: list[nn.ConvFilterBank],
        vcb_banks: list[nn.ConvFilterBank],
        fc1: nn.DenseLayer,
        fc2: nn.DenseLayer,
        out: nn.DenseLayer,
    ) -> None:
        self.config = config
        self.conv_banks = conv_banks
        self.vcb_banks = vcb_banks
        self.fc1 = fc1
        self.fc2 = fc2
        self.out = out
        self.best_params: list[np.ndarray] | None = None

    # -- parameters --------------------------------------------------------

    def param_blocks(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in declaration order; checkpoints and the
        optimizer both follow this order."""
        blocks: list[tuple[str, np.ndarray]] = []
        for i, bank in enumerate(self.conv_banks):
            hcb, layer = divmod(i, 2)
            prefix = f"hcb{hcb + 1}.conv{layer + 1}"
            blocks.append((prefix + ".w", bank.weights))
            blocks.append((prefix + ".b", bank.biases))
        for i, bank in enumerate(self.vcb_banks):
            prefix = f"vcb.conv{i + 1}"
            blocks.append((prefix + ".w", bank.weights))
            blocks.append((prefix + ".b", bank.biases))
        for name, layer in (("fc1", self.fc1), ("fc2", self.fc2), ("out", self.out)):
            blocks.append((name + ".w", layer.weights))
            blocks.append((name + ".b", layer.biases))
        return blocks

    def param_values(self) -> list[np.ndarray]:
        return [arr.copy() for _, arr in self.param_blocks()]

    def load_param_values(self, values: Sequence[np.ndarray]) -> None:
        """Copy *values*, a param_values() list of this model, into place."""
        for (_, arr), value in zip(self.param_blocks(), values):
            arr[...] = value

    # -- forward / backward -------------------------------------------------

    def _conv_trunk(
        self, ids: np.ndarray, matrix: np.ndarray, train: bool
    ) -> tuple[np.ndarray, tuple]:
        """Trunk features (batch, rows, 1, c) of ids (batch, rows, words) and
        the caches _backward reads: the HCB trunk's and the VCB's (or None)."""
        batch, rows = ids.shape[:2]
        y, hcb_cache = self._hcbs(ids.reshape(batch * rows, -1), matrix, train)
        y = y.reshape(batch, rows, 1, -1)
        vcb_cache = None
        if self.vcb_banks:
            y, vcb_cache = _block_forward(y, self.vcb_banks, nn.VERTICAL)
        return y, (hcb_cache, vcb_cache)

    def _hcbs(self, ids: np.ndarray, matrix: np.ndarray, train: bool) -> tuple[np.ndarray, tuple]:
        """The HCBs over sentence rows of ids (R, words) into *matrix*:
        features (R, 1, 1, c) and the caches _hcbs_backward reads, which
        hold no block's conv and pool caches unless *train*.

        Rows are sorted by live length, longest first (ties keep their
        order), and cut into row blocks.  Each block gathers the vectors of
        the columns its longest row needs (see _live_width), and after each
        pool it is widened with that HCB's pad constant for the next one.
        All-pad rows skip the blocks and take the last HCB's constant."""
        hcbs = self._hcb_banks()
        pads, pad_caches = self._pad_chain(matrix)
        lengths = _live_lengths(ids)
        order = np.argsort(-lengths, kind="stable")
        live_rows = int(np.count_nonzero(lengths))
        out = np.empty((len(ids), 1, 1, pads[-1].shape[3]), matrix.dtype)
        out[order[live_rows:]] = pads[-1]
        blocks = []
        for block in _row_blocks(live_rows):
            idx = order[block]
            width = _live_width(int(lengths[idx[0]]), ids.shape[1])
            y = matrix[ids[idx, :width]][:, None]
            caches, lives = [], []
            for level, banks in enumerate(hcbs):
                lives.append(y.shape[2])
                if level:
                    y = _widen(y, pads[level - 1], self.config.hcb_widths[level - 1])
                y, cache = _block_forward(y, banks, nn.HORIZONTAL)
                if train:  # eval holds one level's caches at a time
                    caches.append(cache)
            out[idx] = y
            blocks.append((idx, caches, lives))
        return out, (order[live_rows:], blocks, pad_caches)

    def _hcb_banks(self) -> list[list[nn.ConvFilterBank]]:
        """The two conv banks of each HCB, first HCB first."""
        return [self.conv_banks[i : i + 2] for i in range(0, len(self.conv_banks), 2)]

    def _pad_chain(self, matrix: np.ndarray) -> tuple[list[np.ndarray], list]:
        """Each HCB's output on an all-pad row, one (1, 1, 1, c) constant
        per HCB, and the caches: every HCB runs on 4 columns of the previous
        constant (of the pad id's row of *matrix* for the first)."""
        y = np.repeat(matrix[None, None, :1], 4, axis=2)
        pads, caches = [], []
        for banks in self._hcb_banks():
            pad, cache = _block_forward(y, banks, nn.HORIZONTAL)
            pads.append(pad)
            caches.append(cache)
            y = np.repeat(pad, 4, axis=2)
        return pads, caches

    def _hcbs_backward(self, cache: tuple, g: np.ndarray) -> list[np.ndarray]:
        """Conv-bank gradients of the HCBs for output gradients g (R, 1, 1, c),
        in param_blocks() order.

        Each block's gradients are added in block order.  The gradients
        that reach a block's pad columns, and the output gradients of the
        all-pad rows, are summed into their HCB's constant; the constants
        then backpropagate through the pad chain, last HCB first, and their
        bank gradients are added after the blocks'.  The first conv reads
        the frozen embeddings, so its input gradient is never formed."""
        dead, blocks, pad_caches = cache
        hcbs = self._hcb_banks()
        grads = [np.zeros(arr.shape, g.dtype)
                 for bank in self.conv_banks for arr in (bank.weights, bank.biases)]
        pad_grads = [np.zeros(g.shape[3], g.dtype) for _ in hcbs]

        def add(level: int, parts: list[np.ndarray]) -> None:
            for acc, part in zip(grads[4 * level : 4 * level + 4], parts):
                acc += part

        for idx, caches, lives in blocks:
            gb = g[idx]
            for level in reversed(range(len(hcbs))):
                gb, parts = _block_backward(hcbs[level], caches[level], gb, level > 0)
                add(level, parts)
                if level:
                    pad_grads[level - 1] += gb[:, :, lives[level]:].sum(axis=(0, 1, 2))
                    gb = gb[:, :, : lives[level]]
        pad_grads[-1] += g[dead].sum(axis=(0, 1, 2))
        for level in reversed(range(len(hcbs))):
            gp, parts = _block_backward(hcbs[level], pad_caches[level],
                                        pad_grads[level].reshape(1, 1, 1, -1), level > 0)
            add(level, parts)
            if level:
                pad_grads[level - 1] += gp.sum(axis=(0, 1, 2))
        return grads

    def forward(self, ids: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Eval-mode logits of grid ids (batch, rows, words) into the frozen
        embedding *matrix* (vocab + 1, d); training runs _forward_with_caches."""
        return self._forward_with_caches(ids, matrix, None)[0]

    def _forward_with_caches(
        self, ids: np.ndarray, matrix: np.ndarray, rng: np.random.Generator | None
    ) -> tuple[np.ndarray, tuple]:
        """Logits and caches; dropout draws from *rng*.  None is eval, whose
        caches lack the HCB blocks' and cannot be backpropagated."""
        y, trunk_caches = self._conv_trunk(ids, matrix, rng is not None)
        pre_flatten_shape = y.shape
        # Row-major over (row, channel): row 0's channels, then row 1's.
        y = y.reshape(len(y), -1)
        head_caches = []
        for layer in (self.fc1, self.fc2):
            y, dc = nn.dense_forward(y, layer, "relu")
            y, mask = nn.dropout(y, self.config.dropout_rate, rng)
            head_caches.append((dc, mask))
        logits, out_cache = nn.dense_forward(y, self.out, "identity")
        return logits, (trunk_caches, pre_flatten_shape, head_caches, out_cache)

    def _backward(self, caches: tuple, grad_logits: np.ndarray) -> list[np.ndarray]:
        """Gradients for every parameter block, aligned with param_blocks()."""
        (hcb_cache, vcb_cache), pre_flatten_shape, head_caches, out_cache = caches
        (dc1, mask1), (dc2, mask2) = head_caches
        g, out_w, out_b = nn.dense_backward(self.out, out_cache, grad_logits)
        g, fc2_w, fc2_b = nn.dense_backward(self.fc2, dc2, g * mask2)
        g, fc1_w, fc1_b = nn.dense_backward(self.fc1, dc1, g * mask1)
        g = g.reshape(pre_flatten_shape)

        vcb_grads = []
        if vcb_cache is not None:
            g, vcb_grads = _block_backward(self.vcb_banks, vcb_cache, g)
        conv_grads = self._hcbs_backward(hcb_cache, g.reshape(-1, 1, 1, g.shape[-1]))
        return conv_grads + vcb_grads + [fc1_w, fc1_b, fc2_w, fc2_b, out_w, out_b]


def _block_forward(
    y: np.ndarray, banks: Sequence[nn.ConvFilterBank], axis: str
) -> tuple[np.ndarray, tuple]:
    """One block: conv+ReLU, conv+ReLU, then a size-2 max-pool along *axis*."""
    y, c1 = nn.conv2d_forward(y, banks[0])
    y, c2 = nn.conv2d_forward(y, banks[1])
    y, cp = nn.maxpool_forward(y, axis)
    return y, (c1, c2, cp)


def _block_backward(
    banks: Sequence[nn.ConvFilterBank], caches: tuple, g: np.ndarray, need_input_grad: bool = True
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """The block's input gradient (None without *need_input_grad*) and its
    bank gradients [gw1, gb1, gw2, gb2], in param_blocks() order."""
    c1, c2, cp = caches
    g = nn.maxpool_backward(cp, g)
    g, gw2, gb2 = nn.conv2d_backward(banks[1], c2, g)
    g, gw1, gb1 = nn.conv2d_backward(banks[0], c1, g, need_input_grad=need_input_grad)
    return g, [gw1, gb1, gw2, gb2]


def _row_blocks(rows: int) -> list[slice]:
    """ceil(rows / ROW_BLOCK) consecutive blocks whose sizes differ by at
    most one, the shorter ones last: no block is much smaller than the
    others, and a batch of at most ROW_BLOCK rows is one block."""
    count = -(-rows // ROW_BLOCK)
    size, extra = divmod(rows, max(count, 1))
    edges = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _live_lengths(ids: np.ndarray) -> np.ndarray:
    """Live words of each sentence row of ids (R, words): 1 plus the index
    of its last id that is not the pad id 0, or 0 for an all-pad row."""
    live = ids != 0
    last = live.shape[1] - live[:, ::-1].argmax(axis=1)
    return np.where(live.any(axis=1), last, 0)


def _live_width(live: int, width: int) -> int:
    """Columns an HCB needs for rows of at most *live* live columns out of
    *width*: 2 * ceil(live / 2) + 2, capped at *width*.  Its pool then
    yields ceil(live / 2) columns, or all of them: every column whose
    receptive field holds a live column."""
    return min(live + live % 2 + 2, width)


def _widen(y: np.ndarray, pad: np.ndarray, width: int) -> np.ndarray:
    """Block *y* (R, 1, live, c), widened with columns of the constant *pad*
    to the columns the next HCB needs out of its *width*."""
    extra = _live_width(y.shape[2], width) - y.shape[2]
    if not extra:
        return y
    return np.concatenate([y, np.broadcast_to(pad, (len(y), 1, extra, y.shape[3]))], axis=2)


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

def _glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape).astype(np.float32)


def _init_conv(rng: np.random.Generator, k: int, s: int, t: int, c_in: int) -> nn.ConvFilterBank:
    w = _glorot_uniform(rng, (k, s, t, c_in), fan_in=s * t * c_in, fan_out=s * t * k)
    return nn.ConvFilterBank(weights=w, biases=np.zeros(k, dtype=np.float32))


def _init_dense(rng: np.random.Generator, out_dim: int, in_dim: int) -> nn.DenseLayer:
    w = _glorot_uniform(rng, (out_dim, in_dim), fan_in=in_dim, fan_out=out_dim)
    return nn.DenseLayer(weights=w, biases=np.zeros(out_dim, dtype=np.float32))


def build_model(config: ModelConfig) -> Model:
    """Initialize all layers: Glorot-uniform weights, zero biases.

    Draw order is fixed (conv banks first, then the dense head) so the
    config seed fully determines the initial parameters.
    """
    rng = np.random.default_rng([config.seed, STREAM_INIT])
    k = config.num_filters
    conv_banks = []
    for i in range(2 * config.num_hcb):
        c_in = config.embed_dim if i == 0 else k
        conv_banks.append(_init_conv(rng, k, 1, 2, c_in))
    vcb_banks = []
    if config.variant == SLCNN_V:
        vcb_banks = [_init_conv(rng, k, 2, 1, k) for _ in range(2)]
    fc1 = _init_dense(rng, config.fc_size, config.flatten_size)
    fc2 = _init_dense(rng, config.fc_size, config.fc_size)
    out = _init_dense(rng, config.num_classes, config.fc_size)
    return Model(config, conv_banks, vcb_banks, fc1, fc2, out)


def count_parameters(model: Model) -> int:
    """Exact number of trainable scalars (embeddings are frozen: zero)."""
    return sum(int(arr.size) for _, arr in model.param_blocks())


# --------------------------------------------------------------------------
# Data plumbing: id grids + frozen embedding rows
# --------------------------------------------------------------------------

@dataclass
class EmbeddedDataset:
    """Grid ids plus the embedding rows they index, the form the model reads;
    row 0, the pad id's, is zeros."""

    grids: np.ndarray  # (N, doc_len, sent_len) int32
    labels: np.ndarray  # (N,) int64
    matrix: np.ndarray  # (vocab + 1, embed_dim) float32

    @classmethod
    def build(cls, dataset: GridDataset, table: EmbeddingTable) -> "EmbeddedDataset":
        matrix = embedding_matrix_for_vocab(table, dataset.vocab)
        return cls(grids=dataset.grids, labels=dataset.labels, matrix=matrix)

    def __len__(self) -> int:
        return len(self.labels)


def _batches(n: int, batch_size: int, order: np.ndarray | None = None) -> Iterator[np.ndarray]:
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


# --------------------------------------------------------------------------
# Training and evaluation
# --------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def train(
    model: Model, train_data: EmbeddedDataset, val_data: EmbeddedDataset | None = None
) -> TrainReport:
    """Mini-batch Adam training for config.epochs epochs, from fresh Adam
    moments; each epoch logs one line on the ``slcnn`` logger.

    Shuffling and dropout derive from the config seed, so identical
    configs produce bit-identical per-epoch loss sequences.  The final
    model keeps its last-epoch weights; the best-validation snapshot is
    stored on ``model.best_params``.  Each step runs in _train_step, whose
    caches and gradients are freed when it returns, so one step's working
    set is resident at a time (a Yelp-shape batch caches 45 MiB).
    numpy's overflow and invalid-value warnings are off: a diverging run
    reports itself once, as TrainingDivergedError.
    """
    cfg = model.config
    n = len(train_data)
    blocks = model.param_blocks()
    names = [name for name, _ in blocks]
    params = [arr for _, arr in blocks]
    state = nn.AdamState.for_params(params, lr=cfg.lr)
    report = TrainReport(config=asdict(cfg))
    best_acc = -1.0

    sample_losses = np.zeros(n, dtype=np.float64)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng([cfg.seed, STREAM_SHUFFLE, epoch]).permutation(n)
        drop_rng = np.random.default_rng([cfg.seed, STREAM_DROPOUT, epoch])
        correct = 0
        for batch_no, idx in enumerate(_batches(n, cfg.batch_size, order)):
            y = train_data.labels[idx]
            try:
                losses, logits = _train_step(model, params, names, state, train_data.grids[idx],
                                             y, train_data.matrix, drop_rng)
            except (ValueError, nn.OptimizerError) as exc:
                raise TrainingDivergedError(epoch, batch_no, str(exc)) from exc
            # Losses land at their dataset positions and are reduced in that
            # fixed order, so the epoch loss does not depend on the shuffle.
            sample_losses[idx] = losses
            correct += int((logits.argmax(axis=1) == y).sum())
        report.train_loss.append(float(sample_losses.sum()) / n)
        report.train_accuracy.append(correct / n)
        if val_data is not None:
            acc = evaluate(model, val_data)
            report.val_accuracy.append(acc)
            if acc > best_acc:
                best_acc = acc
                report.best_val_epoch = epoch
                report.best_val_accuracy = acc
                model.best_params = model.param_values()
        report.epoch_seconds.append(time.perf_counter() - t0)
        val = f" val_acc={report.val_accuracy[-1]:.4f}" if report.val_accuracy else ""
        log.info("epoch %d/%d loss=%.6f acc=%.4f%s (%.1fs)", epoch + 1, cfg.epochs,
                 report.train_loss[-1], report.train_accuracy[-1], val, report.epoch_seconds[-1])
    return report


def _train_step(model: Model, params: list[np.ndarray], names: list[str], state: nn.AdamState,
                ids: np.ndarray, labels: np.ndarray, matrix: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One Adam step on the batch ids (batch, rows, words): its per-sample
    losses and its logits.  The forward caches and the gradients die with
    this call, before the next step's forward starts."""
    logits, caches = model._forward_with_caches(ids, matrix, rng)
    losses, grad_logits = nn.softmax_cross_entropy(logits, labels)
    grads = model._backward(caches, grad_logits)
    nn.adam_step(params, grads, state, names)
    return losses, logits


def predict_labels(model: Model, data: EmbeddedDataset) -> np.ndarray:
    """Argmax class per document; ties resolve to the lowest class index."""
    preds = np.empty(len(data), dtype=np.int64)
    for idx in _batches(len(data), EVAL_BATCH):
        logits = model.forward(data.grids[idx], data.matrix)
        preds[idx] = logits.argmax(axis=1)
    return preds


def evaluate(model: Model, data: EmbeddedDataset) -> float:
    """Fraction of documents whose argmax logit matches the label."""
    preds = predict_labels(model, data)
    return float((preds == data.labels).mean())


def confusion_matrix(labels: np.ndarray, preds: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts of (true label, predicted label) pairs; rows are true labels."""
    out = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(out, (labels, preds), 1)
    return out


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def save_checkpoint(model: Model, path: str | Path) -> None:
    """Binary checkpoint: magic ``SLCN``, u16 format version, a
    length-prefixed canonical-JSON config blob, the parameter blocks in
    declaration order (name, shape, little-endian float32 data), and a
    trailing CRC32 of everything before it."""
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<H", CHECKPOINT_VERSION)
    config_blob = json.dumps(asdict(model.config), sort_keys=True, separators=(",", ":")).encode()
    body += struct.pack("<I", len(config_blob))
    body += config_blob
    for name, arr in model.param_blocks():
        raw_name = name.encode()
        body += struct.pack("<H", len(raw_name))
        body += raw_name
        body += struct.pack("<B", arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        body += arr.astype("<f4", copy=False).tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    _write_atomic(path, bytes(body))


def _write_atomic(path: str | Path, data: bytes) -> None:
    """Write *data* to a new temp file beside *path*, then rename it over
    *path*, so a failed or interrupted write leaves any earlier file whole
    and no partial one.  There is no fsync: this guards against the process
    failing, not the host.  An OS error is raised again, of its class, naming
    *path* rather than the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        raise


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint; forward outputs are bit-identical
    to the saved model's."""
    data = Path(path).read_bytes()
    if len(data) < 10:
        raise CheckpointError(f"truncated checkpoint: {path}")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CheckpointError(f"checksum mismatch (corrupt checkpoint): {path}")
    view = memoryview(data[:-4])

    def take(n: int) -> memoryview:
        nonlocal view
        if len(view) < n:
            raise CheckpointError(f"truncated checkpoint: {path}")
        chunk, view = view[:n], view[n:]
        return chunk

    if bytes(take(4)) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a checkpoint file (bad magic): {path}")
    (version,) = struct.unpack("<H", take(2))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}: {path}")
    (config_len,) = struct.unpack("<I", take(4))
    try:  # bytes that are not UTF-8, not JSON, or a ConfigError: all ValueErrors
        config = ModelConfig(**json.loads(bytes(take(config_len)).decode()))
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"bad config blob in checkpoint: {exc}: {path}") from exc

    model = build_model(config)
    for name, arr in model.param_blocks():
        (name_len,) = struct.unpack("<H", take(2))
        stored_name = bytes(take(name_len))
        if stored_name != name.encode():
            raise CheckpointError(f"parameter block {stored_name.decode(errors='replace')!r} "
                                  f"where {name!r} expected: {path}")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if shape != arr.shape:
            raise CheckpointError(
                f"block {name}: stored shape {shape} != expected {arr.shape}: {path}")
        count = int(np.prod(shape)) if shape else 1
        arr[...] = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"block {name}: non-finite values in checkpoint {path}")
    if len(view):
        raise CheckpointError(f"trailing bytes in checkpoint: {path}")
    return model
