"""The sentence-level CNN: block assembly, training, and checkpoints.

Every block of the trunk is one primitive: two conv+ReLU layers, then a
size-2 max-pool.  Two variants share four horizontal convolutional blocks
(HCBs), which run 1x2 filters and pool along the words, collapsing the
word axis, fixed at the paper's t_s = 46 (SENT_LEN), to 1 (46 -> 22 -> 10
-> 4 -> 1) while never mixing sentence rows.  The "+v" variant adds a
vertical convolutional block (VCB) of 2x1 filters that pools along the
sentences, mixing adjacent ones before the dense head.  Every conv bank
has the paper's k = 128 filters (NUM_FILTERS).

The model reads a batch as its int32 grid ids (documents, sentences, words)
and the frozen embedding matrix they index.  Pad is id 0 and nothing else.
The HCBs never mix rows, and they compute only the live part of each
sentence row: the columns whose receptive field holds one of its words, up
to its last id that is not pad.  Every HCB op is a 1x2 valid conv or a
2-wide pool, so every column whose receptive field is all pad holds one
constant per op, which the trunk computes once per batch on a 4-wide
all-pad row (the pad chain).  Through an op over W columns, a row with L
live columns keeps min(L, W - 1) through a conv and min(ceil(L / 2), W // 2)
through a pool.  The trunk sorts the batch's rows by live length and runs
them in blocks of at most ROW_BLOCK rows, each of which packs its rows'
live columns back to back: every conv and pool runs on the gather of its
live outputs' receptive fields, whose second column, where it is pad, reads
that op's input constant.  All-pad rows take the last constant.  The blocks
are balanced: ceil(R / ROW_BLOCK) blocks whose sizes differ by at most one,
so no block is tiny (BLAS rounds tiny GEMMs differently).  The backward
pass walks the same blocks, adds their conv gradients in block order, and
then adds those of the pad constants, into which the gradients of every
pad second column and all-pad row are summed.  A batch of full rows has no
pad field and runs exactly the GEMMs of a dense trunk over the batch's own
row order.  The VCB and the dense head run on the whole batch.

Embeddings are frozen and live outside the model; trainable parameters
are exactly the conv banks and the three dense layers.  One table,
_param_shapes, holds their layout (the name, shape and order of every
parameter block): a fresh init, a checkpoint and the optimizer all follow
it, and a loaded checkpoint's arrays become the model's own.

A checkpoint is an npz of the config and the parameter blocks (see
save_checkpoint); same-seed runs write byte-identical ones.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import SENT_LEN, GridDataset
from .embedding import EmbeddingTable, embedding_matrix_for_vocab
from . import fileio, nn

SLCNN = "slcnn"
SLCNN_V = "slcnn+v"
VARIANTS = (SLCNN, SLCNN_V)

NUM_FILTERS = 128  # the paper's k, the filters of every conv bank, fixed as t_s is
_FIXED_FIELDS = {"sent_len": SENT_LEN, "num_filters": NUM_FILTERS}  # config fields once

# Word-axis width after each HCB: each maps w -> (w - 2) // 2, from SENT_LEN.
HCB_WIDTHS = (22, 10, 4, 1)

FC_SIZES = {"small": 512, "large": 1024}

EVAL_BATCH = 256  # documents per forward pass of predict_labels and evaluate

# Sentence rows per block of the HCB trunk.  A block's widest activation is
# its first conv's output, one 128-float column per live column: at most
# 128 x 45 x 128 float32 (2.9 MB, every row full), which fits a 4 MiB L2
# cache where the whole Yelp-shape batch (1,280 rows) does not; the bench's
# rows hold 7 to 10 live words.  On a 2-core Xeon at one BLAS thread, with
# length-sorted blocks each run at its longest row's width, 128 gave the
# fastest training step at the Yelp shape (batch 64, 20 rows per doc; 64-384
# tried) and tied 64 at the AG shape (4 rows per doc); with packed blocks,
# 64, 256 and 512 were not faster.
ROW_BLOCK = 128

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


# Lower bounds of ModelConfig's integer fields; every other one is at least 1.
_INT_MINIMUM = {"num_classes": 2, "seed": 0}


@dataclass
class ModelConfig:
    variant: str
    doc_len: int
    num_classes: int
    fc_size: int = 512
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

    @property
    def flatten_size(self) -> int:
        rows = (self.doc_len - 2) // 2 if self.variant == SLCNN_V else self.doc_len
        return rows * NUM_FILTERS


class Model:
    """Parameter container plus forward/backward for one variant."""

    def __init__(self, config: ModelConfig, blocks: dict[str, np.ndarray]) -> None:
        """*blocks* maps each _param_shapes(config) name, in its order, to
        its array; the banks and dense layers are its (weights, biases)
        pairs, taken by position, and share its arrays."""
        self.config = config
        self._blocks = blocks
        pairs = zip(*[iter(blocks.values())] * 2)  # (weights, biases)
        *convs, self.fc1, self.fc2, self.out = (nn.Layer(w, b) for w, b in pairs)
        self.conv_banks, self.vcb_banks = convs[: 2 * len(HCB_WIDTHS)], convs[2 * len(HCB_WIDTHS):]
        self.best_params: dict[str, np.ndarray] | None = None

    # -- parameters --------------------------------------------------------

    def param_blocks(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in _param_shapes order; checkpoints and the
        optimizer both follow this order."""
        return list(self._blocks.items())

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
        order), and cut into row blocks.  A block packs its rows' live
        columns back to back, and each conv and pool runs on the gather of
        its live outputs' receptive fields (see _fields).  All-pad rows skip
        the blocks and take the last HCB's constant."""
        hcbs = self._hcb_banks()
        pads, pad_caches = self._pad_chain(matrix)
        lengths = _live_lengths(ids)
        order = np.argsort(-lengths, kind="stable")
        live_rows = int(np.count_nonzero(lengths))
        out = np.empty((len(ids), 1, 1, pads[-1].shape[-1]), matrix.dtype)
        out[order[live_rows:]] = pads[-1]
        blocks = []
        for block in _row_blocks(live_rows):
            idx = order[block]
            live, width, x = lengths[idx], ids.shape[1], matrix
            # The first conv gathers embedding rows by the packed columns' ids.
            index = ids[idx][np.arange(width) < live[:, None]]
            levels = []
            for level, banks in enumerate(hcbs):
                caches = []
                for bank, pad in zip((*banks, None), pads[3 * level : 3 * level + 3]):
                    stride = 2 if bank is None else 1
                    fields, live = _fields(live, width, stride)
                    if bank is None:
                        y, cache = nn.maxpool_forward(_pool_fields(x, fields, pad), nn.HORIZONTAL)
                    else:
                        y, cache = nn.conv2d_forward(_conv_fields(x, fields, pad, index), bank)
                        index = None
                    if train:  # eval keeps no op's cache or fields
                        caches.append((cache, fields))
                    x, width = y.reshape(len(y), -1), (width - 2) // stride + 1
                levels.append(caches)
            out[idx] = x[:, None, None]
            blocks.append((idx, levels))
        return out, (order[live_rows:], blocks, pad_caches)

    def _hcb_banks(self) -> list[list[nn.Layer]]:
        """The two conv banks of each HCB, first HCB first."""
        return [self.conv_banks[i : i + 2] for i in range(0, len(self.conv_banks), 2)]

    def _pad_chain(self, matrix: np.ndarray) -> tuple[list[np.ndarray], list]:
        """The pad constants, each a (c,) vector: every HCB's input, conv1
        output and conv2 output on an all-pad row, then the last HCB's
        output; and the chain's caches.  Every HCB runs on 4 columns of the
        previous constant (of the pad id's row of *matrix* for the first)."""
        y = np.repeat(matrix[None, None, :1], 4, axis=2)
        pads, caches = [], []
        for banks in self._hcb_banks():
            y1, c1 = nn.conv2d_forward(y, banks[0])
            y2, c2 = nn.conv2d_forward(y1, banks[1])
            pad, cp = nn.maxpool_forward(y2, nn.HORIZONTAL)
            pads += [y[0, 0, 0], y1[0, 0, 0], y2[0, 0, 0]]
            caches.append((c1, c2, cp))
            y = np.repeat(pad, 4, axis=2)
        return pads + [pad[0, 0, 0]], caches

    def _hcbs_backward(self, cache: tuple, g: np.ndarray) -> list[np.ndarray]:
        """Conv-bank gradients of the HCBs for output gradients g (R, 1, 1, c),
        in param_blocks() order.

        Each block's gradients are added in block order.  The gradients of
        the pad fields' second columns, and the output gradients of the
        all-pad rows, are summed into their pad constant; the constants then
        backpropagate through the pad chain, last HCB first, each joining
        it at the op that outputs it, and their bank gradients are added
        after the blocks'.  The first conv reads the frozen embeddings, so
        its input gradient is never formed."""
        dead, blocks, pad_caches = cache
        hcbs = self._hcb_banks()
        grads = [np.zeros(arr.shape, g.dtype)
                 for bank in self.conv_banks for arr in (bank.weights, bank.biases)]
        # One per pad constant that a block reads: each HCB's input, conv1
        # output and conv2 output.
        pad_grads = [np.zeros(g.shape[3], g.dtype) for _ in range(3 * len(hcbs))]

        def add(level: int, parts: list[np.ndarray]) -> None:
            for acc, part in zip(grads[4 * level : 4 * level + 4], parts):
                acc += part

        for idx, levels in blocks:
            gb = g[idx]
            for level in reversed(range(len(hcbs))):
                (c1, f1), (c2, f2), (cp, fp) = levels[level]
                p_in, p1, p2 = pad_grads[3 * level : 3 * level + 3]
                gb = _pool_input_grad(nn.maxpool_backward(cp, gb), fp, p2)
                gb, gw2, gb2 = nn.conv2d_backward(hcbs[level][1], c2, gb)
                gb = _conv_input_grad(gb, f2, p1)
                gb, gw1, gb1 = nn.conv2d_backward(hcbs[level][0], c1, gb, level > 0)
                add(level, [gw1, gb1, gw2, gb2])
                if level:
                    gb = _conv_input_grad(gb, f1, p_in)
        gp = g[dead].sum(axis=(0, 1, 2))
        for level in reversed(range(len(hcbs))):
            (c1, c2, cp), banks = pad_caches[level], hcbs[level]
            p_in, p1, p2 = pad_grads[3 * level : 3 * level + 3]
            gp = nn.maxpool_backward(cp, gp.reshape(1, 1, 1, -1))
            gp[0, 0, 0] += p2
            gp, gw2, gb2 = nn.conv2d_backward(banks[1], c2, gp)
            gp[0, 0, 0] += p1
            gp, gw1, gb1 = nn.conv2d_backward(banks[0], c1, gp, level > 0)
            add(level, [gw1, gb1, gw2, gb2])
            if level:
                gp = p_in + gp.sum(axis=(0, 1, 2))
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
    y: np.ndarray, banks: Sequence[nn.Layer], axis: str
) -> tuple[np.ndarray, tuple]:
    """One block: conv+ReLU, conv+ReLU, then a size-2 max-pool along *axis*."""
    y, c1 = nn.conv2d_forward(y, banks[0])
    y, c2 = nn.conv2d_forward(y, banks[1])
    y, cp = nn.maxpool_forward(y, axis)
    return y, (c1, c2, cp)


def _block_backward(
    banks: Sequence[nn.Layer], caches: tuple, g: np.ndarray, need_input_grad: bool = True
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


def _fields(live: np.ndarray, width: int, stride: int) -> tuple[tuple, np.ndarray]:
    """The receptive fields of a 2-wide op of *stride* (1, a conv; 2, a
    pool) over rows of *live* columns out of *width*, packed back to back,
    and the rows' live output columns: min(L, width - 1) through a conv,
    min(ceil(L / 2), width // 2) through a pool, one per field that holds a
    live column.  The fields, numbered row by row, are given by each one's
    first column, each row's last field, and whether that field's second
    column is pad (if not, a conv's row is full, and its last column is in
    no field's first tap).  A pool's input width (44, 20, 8 or 2) is even,
    so each of its live columns is in exactly one field."""
    count = np.minimum(-(-live // stride), (width - 2) // stride + 1)
    ends, columns = np.cumsum(count), np.cumsum(live)
    # Per row: its first column, less stride times its first field's number.
    starts = columns - live - stride * (ends - count)
    first = np.repeat(starts, count) + stride * np.arange(ends[-1])
    return (first, ends - 1, stride * (count - 1) + 1 >= live), count


def _conv_fields(x: np.ndarray, fields: tuple, pad: np.ndarray,
                 index: np.ndarray | None = None) -> np.ndarray:
    """A conv's fields (F, 1, 2, c) over packed columns x (n, c), or over
    the rows of x that *index* (n,) names, gathered tap-major: each tap is
    one contiguous (F, c) block.  A field's second column is the next
    field's first but at a row's last field: pad, which reads *pad* (c,),
    or a full row's last column."""
    first, last, padded = fields
    tails = first[last[~padded]] + 1
    if index is not None:
        first, tails = index[first], index[tails]
    taps = np.empty((2, len(first), x.shape[1]), x.dtype)
    np.take(x, first, axis=0, out=taps[0], mode="clip")  # "raise" would buffer *out*
    taps[1, :-1] = taps[0, 1:]
    taps[1, last[~padded]] = x[tails]
    taps[1, last[padded]] = pad
    return taps.transpose(1, 0, 2)[:, None]


def _pool_fields(x: np.ndarray, fields: tuple, pad: np.ndarray) -> np.ndarray:
    """A pool's fields (F, 1, 2, c) over packed columns x (n, c), field-major:
    x itself when no field holds pad, else gathered, with *pad* (c,) for
    each row whose last field's second column is pad."""
    first, last, padded = fields
    if not padded.any():
        return x.reshape(-1, 1, 2, x.shape[1])
    # The last row's pad slot indexes one past x's end; it is overwritten.
    slots = np.take(x, (first[:, None] + np.arange(2)).ravel(), axis=0, mode="clip")
    slots[2 * last[padded] + 1] = pad
    return slots.reshape(-1, 1, 2, x.shape[1])


def _conv_input_grad(g: np.ndarray, fields: tuple, pad_grad: np.ndarray) -> np.ndarray:
    """Gradient (n, 1, 1, c) of a conv's packed input columns from its
    fields' gradients g (F, 1, 2, c), which it overwrites: each column's
    first-tap part, then its second-tap part, which the field before it
    holds unless the column starts its row.  A pad second column's part is
    summed into *pad_grad*; a full row's last column has only that part."""
    _, last, padded = fields
    g0, g1 = g[:, 0, 0], g[:, 0, 1]
    pad_grad += g1[last[padded]].sum(axis=0)
    full = last[~padded]
    tail = g1[full]
    g1[last] = 0
    g0[1:] += g1[:-1]
    if len(full):
        g0 = np.insert(g0, full + 1, tail, axis=0)
    return g0[:, None, None]


def _pool_input_grad(g: np.ndarray, fields: tuple, pad_grad: np.ndarray) -> np.ndarray:
    """Gradient (n, 1, 1, c) of a pool's packed input columns from its
    fields' gradients g (F, 1, 2, c): the fields' slots in order, less the
    pad slots, whose parts are summed into *pad_grad*."""
    _, last, padded = fields
    slots = g.reshape(-1, g.shape[3])
    pads = 2 * last[padded] + 1
    pad_grad += slots[pads].sum(axis=0)
    if len(pads):
        slots = np.delete(slots, pads, axis=0)
    return slots[:, None, None]


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

def _param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The network's layout, the one place it is written: (name, shape) of
    every parameter block, in checkpoint, optimizer and init-draw order.
    Each layer is a weights block ``.w``, then a biases block ``.b`` the size
    of its first axis: the HCBs' 1x2 conv banks (k, 1, 2, c_in), the VCB's
    2x1 banks (k, 2, 1, k) for ``slcnn+v``, then the dense layers (out, in)."""
    k, fc = NUM_FILTERS, config.fc_size
    layers = [(f"hcb{i // 2 + 1}.conv{i % 2 + 1}", (k, 1, 2, k if i else config.embed_dim))
              for i in range(2 * len(HCB_WIDTHS))]
    if config.variant == SLCNN_V:
        layers += [(f"vcb.conv{i}", (k, 2, 1, k)) for i in (1, 2)]
    layers += [("fc1", (fc, config.flatten_size)), ("fc2", (fc, fc)),
               ("out", (config.num_classes, fc))]
    return [(name + suffix, shape) for name, w in layers
            for suffix, shape in ((".w", w), (".b", w[:1]))]


def build_model(config: ModelConfig, values: dict[str, np.ndarray] | None = None) -> Model:
    """The model of *config* over the arrays of *values*, keyed by
    _param_shapes name, or with None over a fresh init: Glorot-uniform
    weights and zero biases, drawn in _param_shapes order, so the config
    seed fully determines the initial parameters.  A weights shape's fan_in
    is the product of all its axes but the first, its fan_out of all but the
    last: s*t*c_in and k*s*t for a conv bank (k, s, t, c_in), in and out for
    a dense layer (out, in)."""
    shapes = _param_shapes(config)
    if values is None:
        rng = np.random.default_rng([config.seed, STREAM_INIT])
        values = {}
        for name, shape in shapes:
            if name.endswith(".b"):
                values[name] = np.zeros(shape, dtype=np.float32)
                continue
            limit = np.sqrt(6.0 / (math.prod(shape[1:]) + math.prod(shape[:-1])))
            values[name] = rng.uniform(-limit, limit, shape).astype(np.float32)
    return Model(config, {name: values[name] for name, _ in shapes})


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

    grids: np.ndarray  # (N, doc_len, SENT_LEN) int32
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
) -> dict:
    """Mini-batch Adam training for config.epochs epochs, from fresh Adam
    moments; each epoch logs one line on the ``slcnn`` logger.  Returns the
    report: the config, per-epoch lists and the best validation epoch and
    accuracy (None without *val_data*), with its test accuracies left None.

    Shuffling and dropout derive from the config seed, so identical
    configs produce bit-identical per-epoch loss sequences.  The final
    model keeps its last-epoch weights; ``model.best_params`` holds a copy
    of the best-validation ones, a parameter table for build_model.  Each
    step runs in _train_step, whose caches and gradients are freed when it
    returns, so one step's working set is resident at a time (a Yelp-shape
    batch caches about 57 MiB).  numpy's overflow and invalid-value warnings
    are off: a diverging run reports itself once, as TrainingDivergedError.
    """
    cfg = model.config
    n = len(train_data)
    params = [arr for _, arr in model.param_blocks()]
    state = nn.AdamState.for_params(params, lr=cfg.lr)
    report = {"schema_version": 1, "config": asdict(cfg), "train_loss": [], "train_accuracy": [],
              "val_accuracy": [], "epoch_seconds": [], "best_val_epoch": None,
              "best_val_accuracy": None, "test_accuracy_final": None,
              "test_accuracy_best_val": None}
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
                losses, logits = _train_step(model, params, state, train_data.grids[idx], y,
                                             train_data.matrix, drop_rng)
            except FloatingPointError as exc:
                raise TrainingDivergedError(epoch, batch_no, str(exc)) from exc
            # Losses land at their dataset positions and are reduced in that
            # fixed order, so the epoch loss does not depend on the shuffle.
            sample_losses[idx] = losses
            correct += int((logits.argmax(axis=1) == y).sum())
        report["train_loss"].append(float(sample_losses.sum()) / n)
        report["train_accuracy"].append(correct / n)
        if val_data is not None:
            acc = evaluate(model, val_data)
            report["val_accuracy"].append(acc)
            if acc > best_acc:
                best_acc = acc
                report["best_val_epoch"] = epoch
                report["best_val_accuracy"] = acc
                model.best_params = {name: arr.copy() for name, arr in model.param_blocks()}
        report["epoch_seconds"].append(time.perf_counter() - t0)
        val = f" val_acc={report['val_accuracy'][-1]:.4f}" if report["val_accuracy"] else ""
        log.info("epoch %d/%d loss=%.6f acc=%.4f%s (%.1fs)", epoch + 1, cfg.epochs,
                 report["train_loss"][-1], report["train_accuracy"][-1], val,
                 report["epoch_seconds"][-1])
    return report


def _train_step(model: Model, params: list[np.ndarray], state: nn.AdamState,
                ids: np.ndarray, labels: np.ndarray, matrix: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One Adam step on the batch ids (batch, rows, words): its per-sample
    losses and its logits.  The forward caches and the gradients die with
    this call, before the next step's forward starts.  Non-finite logits or
    gradients raise FloatingPointError before any parameter moves."""
    logits, caches = model._forward_with_caches(ids, matrix, rng)
    if not np.isfinite(logits).all():
        raise FloatingPointError("logits contain non-finite values")
    losses, grad_logits = nn.softmax_cross_entropy(logits, labels)
    grads = model._backward(caches, grad_logits)
    for (name, _), grad in zip(model.param_blocks(), grads):
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    nn.adam_step(params, grads, state)
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
    """An uncompressed npz, through fileio: member ``config`` holds the
    config's canonical JSON (sorted keys, compact separators) as uint8, with
    the _FIXED_FIELDS among its fields, then one little-endian float32
    member per parameter block follows, named, shaped and ordered as the
    layout table _param_shapes says."""
    config = json.dumps({**asdict(model.config), **_FIXED_FIELDS}, sort_keys=True,
                        separators=(",", ":"))
    members = {"config": np.frombuffer(config.encode(), dtype=np.uint8)}
    members.update((name, arr.astype("<f4", copy=False)) for name, arr in model.param_blocks())
    fileio.write_npz(path, members)


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint; forward outputs are bit-identical
    to the saved model's.  The members are checked against _param_shapes
    and become the model's arrays; nothing is drawn or copied.  Anything but
    the members save_checkpoint writes, a fixed field that is not its
    integer in _FIXED_FIELDS, and a non-finite value raise CheckpointError
    naming *path*."""
    try:
        members = fileio.read_npz(path)
        saved = json.loads(members["config"].tobytes().decode())
        for name, value in _FIXED_FIELDS.items():
            stored = saved.pop(name, None)
            if (type(stored), stored) != (int, value):
                raise ValueError(f"{name} must be {value}, got {stored!r}")
        config = ModelConfig(**saved)
    except fileio.NpzError as exc:
        raise CheckpointError(f"not an npz checkpoint ({exc}): {path}") from None
    # No config, not UTF-8 or a JSON object, another fixed field, a ConfigError.
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"bad config blob in checkpoint: {exc}: {path}") from exc

    shapes = _param_shapes(config)
    for stored, expected in itertools.zip_longest(members, ["config"] + [n for n, _ in shapes]):
        if stored != expected:
            raise CheckpointError(f"member {stored!r} where {expected!r} expected: {path}")
    for name, shape in shapes:
        value = members[name]
        if (value.dtype.str, value.shape) != ("<f4", shape):
            raise CheckpointError(f"block {name}: stored {value.dtype.str} {value.shape} != "
                                  f"expected <f4 {shape}: {path}")
        if not np.isfinite(value).all():
            raise CheckpointError(f"block {name}: non-finite values in checkpoint {path}")
    return build_model(config, members)
