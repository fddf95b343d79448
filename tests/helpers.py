"""Shared fixtures-in-spirit: synthetic corpora, file writers, and the
independent oracles the tests check production code against."""

from __future__ import annotations

import binascii
import contextlib
import csv
import dataclasses
import html
import json
import math
import os
import re
import statistics
import time
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from slcnn import fileio, model, nn
from slcnn.corpus import RawDocument, preprocess_document
from slcnn.embedding import EmbeddingFormatError, EmbeddingTable, oov_vector
from slcnn.model import Model, ModelConfig, build_model

from gradcheck import grad_check

# --------------------------------------------------------------------------
# Golden sentence corpus: the true segmentation is known by construction.
# --------------------------------------------------------------------------

# Every sentence starts with an uppercase letter or digit, ends with a
# terminator, and never ends in a stop-list abbreviation, so joining any
# run of them with single spaces has exactly one valid segmentation.
_GOLDEN_BASE = [
    "Dr. Smith arrived.",
    "He left.",
    "Mr. Brown visited St. Louis last spring.",
    "The U.S. Navy sailed at dawn.",
    "Profits rose 3.5 percent in the quarter.",
    "They finished at No. 5 overall.",
    "Costs doubled, e.g. Fuel and freight.",
    "Margins slipped, i.e. Pricing stayed weak.",
    "Acme Inc. Shares climbed four percent.",
    "Datsun Ltd. Opened a second plant.",
    "Wilson and Co. Hired two hundred workers.",
    "The match was France vs. Germany.",
    "Was it enough?",
    "They won!",
    "Nobody expected rain.",
    "The committee met on Tuesday.",
    "Results were mixed at best.",
    "She asked a hard question.",
    "Engineers shipped the fix overnight.",
    "Turnout reached a record high.",
]


def golden_sentences(n: int = 200) -> list[str]:
    """Deterministic list of n sentences with known boundaries."""
    out = []
    i = 0
    while len(out) < n:
        base = _GOLDEN_BASE[i % len(_GOLDEN_BASE)]
        if i < len(_GOLDEN_BASE):
            out.append(base)
        else:
            out.append(f"Round {i} ended quietly. ".strip())
        i += 1
    return out[:n]


def golden_documents(n_sentences: int = 200) -> list[tuple[str, list[str]]]:
    """(joined_text, expected_sentences) pairs covering all golden sentences."""
    sentences = golden_sentences(n_sentences)
    docs = []
    i = 0
    size = 1
    while i < len(sentences):
        chunk = sentences[i : i + size]
        docs.append((" ".join(chunk), chunk))
        i += size
        size = size % 5 + 1
    return docs


# --------------------------------------------------------------------------
# Synthetic labeled corpora (separable classes, deterministic)
# --------------------------------------------------------------------------

TOPIC_WORDS = {
    0: ["market", "stocks", "shares", "profit", "trading", "bank", "economy", "investors"],
    1: ["match", "season", "coach", "team", "players", "league", "score", "keeper"],
    2: ["software", "computer", "internet", "devices", "chips", "users", "network", "digital"],
    3: ["film", "music", "festival", "artist", "theater", "album", "audience", "stage"],
}
FILLER_WORDS = ["the", "a", "new", "report", "said", "on", "after", "with", "latest", "group"]


def make_synthetic_docs(
    n_per_class: int, num_classes: int = 4, seed: int = 0, html_noise: bool = False
) -> list[RawDocument]:
    rng = np.random.default_rng(seed)
    docs = []
    for c in range(num_classes):
        topic = TOPIC_WORDS[c % len(TOPIC_WORDS)]
        for _ in range(n_per_class):
            n_sent = int(rng.integers(1, 6))
            sentences = []
            for _ in range(n_sent):
                n_words = int(rng.integers(4, 10))
                words = []
                for w in range(n_words):
                    pool = topic if rng.random() < 0.6 else FILLER_WORDS
                    words.append(pool[int(rng.integers(0, len(pool)))])
                sentence = " ".join(words).capitalize() + "."
                sentences.append(sentence)
            title = " ".join(sentences[0].rstrip(".").split()[:4]).capitalize()
            body = " ".join(sentences)
            if html_noise and rng.random() < 0.3:
                body = f"<b>{body}</b> &amp; more"
            docs.append(RawDocument(label=c, fields=[title, body]))
    return docs


def write_dataset_csv(path: Path, docs: list[RawDocument]) -> Path:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_ALL)
        for doc in docs:
            writer.writerow([doc.label + 1, *doc.fields])
    return path


def write_embeddings_file(
    path: Path, tokens: list[str], dim: int = 100, seed: int = 1, scale: float = 0.4
) -> Path:
    rng = np.random.default_rng(seed)
    with path.open("w", encoding="utf-8") as handle:
        for token in tokens:
            vec = rng.normal(0.0, scale, dim)
            handle.write(token + " " + " ".join(f"{v:.5f}" for v in vec) + "\n")
    return path


def back_date(path: Path, age_s: float = 3600.0) -> Path:
    """*path* with its mtime set *age_s* seconds back: a scan of an embedding
    file leaves a line index only once the file is two seconds old."""
    past = time.time_ns() - int(age_s * 1e9)
    os.utime(path, ns=(past, past))
    return path


def corpus_vocab(docs: list[RawDocument]) -> list[str]:
    seen: dict[str, None] = {}
    for doc in docs:
        for sent in preprocess_document(doc):
            for tok in sent:
                seen.setdefault(tok)
    return list(seen)


def v1_checkpoint(members: dict[str, np.ndarray]) -> bytes:
    """The checkpoint of *members* (a config and blocks, as read_npz gives
    them) in the format that preceded the npz container: magic ``SLCN``, u16
    version 1, the u32-length-prefixed config, then each block as its
    u16-length-prefixed name, u8 ndim, u32 dims and float32 data, and last
    the CRC-32 of all of it, every number little-endian."""
    def num(value: int, size: int) -> bytes:
        return value.to_bytes(size, "little")

    config = members["config"].tobytes()
    body = b"SLCN" + num(1, 2) + num(len(config), 4) + config
    for name, arr in list(members.items())[1:]:
        body += (num(len(name), 2) + name.encode() + num(arr.ndim, 1)
                 + b"".join(num(d, 4) for d in arr.shape) + arr.astype("<f4").tobytes())
    return body + num(binascii.crc32(body), 4)


def _members_edit(edit):
    """A defect that edits the checkpoint's arrays and writes them back
    through fileio.write_npz, so every member carries a valid CRC."""
    def defect(path: Path) -> None:
        members = fileio.read_npz(path)
        edit(members)
        fileio.write_npz(path, members)
    return defect


def _npy_edit(edit):
    """A defect that edits the checkpoint's members as .npy bytes, keyed by
    their zip names, and writes them back as a zip that gives each a valid
    CRC."""
    def defect(path: Path) -> None:
        with zipfile.ZipFile(path) as archive:
            files = {name: archive.read(name) for name in archive.namelist()}
        edit(files)
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in files.items():
                archive.writestr(name, data)
    return defect


def _replaced(content):
    """A defect that replaces the checkpoint file by content(its path)."""
    def defect(path: Path) -> None:
        path.write_bytes(content(path))
    return defect


def _first_block_npy(path: Path) -> bytes:
    with zipfile.ZipFile(path) as archive:
        return archive.read("hcb1.conv1.w.npy")


def _renamed(old: str, new: str):
    """An edit that renames member *old* to *new*, in its place."""
    def edit(members: dict) -> None:
        items = [(new if name == old else name, arr) for name, arr in members.items()]
        members.clear()
        members.update(items)
    return edit


def _config_edit(change):
    """An edit that stores the config as change(its fields) leaves them."""
    def edit(members: dict) -> None:
        config = json.loads(members["config"].tobytes())
        change(config)
        blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
        members["config"] = np.frombuffer(blob, np.uint8)
    return edit


def _retyped_config(name: str, convert):
    """An edit that stores config field *name* as convert(its value): the
    same number, of another JSON type."""
    return _config_edit(lambda config: config.update({name: convert(config[name])}))


def _mapped(name: str, convert):
    """An edit that replaces member *name* by convert(it)."""
    def edit(members: dict) -> None:
        members[name] = convert(members[name])
    return edit


def _widened(arr: np.ndarray) -> np.ndarray:
    k, s, t, c_in = arr.shape
    return np.zeros((k, s, t, c_in + 1), arr.dtype)


# Defects of a checkpoint behind valid member CRCs, each with the text of
# the CheckpointError it must raise (which also names the file).  Each
# defect edits the checkpoint file at the path it is given.
CHECKPOINT_DEFECTS = {
    # Files that are not the npz container.
    "bad_magic": (_replaced(lambda path: b"SLCX" + path.read_bytes()[4:]),
                  "not an npz checkpoint (not a zip file)"),
    "npy_file": (_replaced(_first_block_npy), "not an npz checkpoint (not a zip file)"),
    # The same model in the format before the npz container, its version 1.
    "version": (_replaced(lambda path: v1_checkpoint(fileio.read_npz(path))),
                "not an npz checkpoint (not a zip file)"),
    # The members, by name and order.
    "block_name": (_members_edit(_renamed("hcb1.conv1.w", "hcb9.conv1.w")),
                   "'hcb9.conv1.w' where 'hcb1.conv1.w' expected"),
    # zip reads a name not flagged as UTF-8 as cp437, where 0xff is U+00A0.
    "block_name_not_utf8": (_replaced(lambda path: path.read_bytes().replace(
                                b"hcb1.conv1.w.npy", b"\xffcb1.conv1.w.npy")),
                            "'\\xa0cb1.conv1.w' where 'hcb1.conv1.w' expected"),
    "missing_block": (_members_edit(lambda members: members.pop("out.b")),
                      "member None where 'out.b' expected"),
    "reordered_blocks": (_members_edit(lambda members: members.update(
                             {"hcb1.conv1.w": members.pop("hcb1.conv1.w")})),
                         "'hcb1.conv1.b' where 'hcb1.conv1.w' expected"),
    # Data after the last block.
    "trailing_bytes": (_members_edit(lambda members: members.update(
                           trailing=np.zeros(1, "<f4"))),
                       "member 'trailing' where None expected"),
    # A block's array.
    "shape": (_members_edit(_mapped("hcb1.conv1.w", _widened)),
              "block hcb1.conv1.w: stored <f4 ("),
    "float64": (_members_edit(_mapped("hcb1.conv1.w", lambda arr: arr.astype("<f8"))),
                "block hcb1.conv1.w: stored <f8 ("),
    "big_endian": (_members_edit(_mapped("hcb1.conv1.w", lambda arr: arr.astype(">f4"))),
                   "block hcb1.conv1.w: stored >f4 ("),
    # The last block's .npy cut short, with the CRC of what is left.
    "truncated": (_npy_edit(_mapped("out.b.npy", lambda data: data[:-4])),
                  "not an npz checkpoint (ValueError: EOF: reading array data"),
    # The config.
    "missing_config": (_members_edit(lambda members: members.pop("config")),
                       "bad config blob in checkpoint: 'config'"),
    "config_not_utf8": (_members_edit(_mapped("config", lambda blob: np.concatenate(
                            [np.array([0xFF], np.uint8), blob[1:]]))),
                        "bad config blob in checkpoint: 'utf-8' codec can't decode byte 0xff"),
    "config_not_json": (_members_edit(lambda members: members.update(
                            config=np.frombuffer(b"{", np.uint8))),
                        "bad config blob in checkpoint: Expecting property name"),
    "config_not_object": (_members_edit(lambda members: members.update(
                              config=np.frombuffer(b"46", np.uint8))),
                          "bad config blob in checkpoint: 'int' object has no attribute"),
    "float_doc_len": (_members_edit(_retyped_config("doc_len", float)),
                      "bad config blob in checkpoint: doc_len must be an integer"),
    "bool_seed": (_members_edit(_retyped_config("seed", bool)),
                  "bad config blob in checkpoint: seed must be an integer"),
    # t_s is 46 (a constant, no config field), and every checkpoint records it.
    "sent_len_30": (_members_edit(_config_edit(lambda config: config.update(sent_len=30))),
                    "bad config blob in checkpoint: sent_len must be 46, got 30"),
    "sent_len_float": (_members_edit(_retyped_config("sent_len", float)),
                       "bad config blob in checkpoint: sent_len must be 46, got 46.0"),
    "no_sent_len": (_members_edit(_config_edit(lambda config: config.pop("sent_len"))),
                    "bad config blob in checkpoint: sent_len must be 46, got None"),
    # k is 128 the same way.
    "num_filters_64": (_members_edit(_config_edit(lambda config: config.update(num_filters=64))),
                       "bad config blob in checkpoint: num_filters must be 128, got 64"),
    "float_num_filters": (_members_edit(_retyped_config("num_filters", float)),
                          "bad config blob in checkpoint: num_filters must be 128, got 128.0"),
}


def defective_checkpoint(path: Path, defect: str) -> None:
    """Give the checkpoint file at *path* one of CHECKPOINT_DEFECTS."""
    CHECKPOINT_DEFECTS[defect][0](path)


# --------------------------------------------------------------------------
# Independent oracles
# --------------------------------------------------------------------------

def load_embeddings_per_line(path: Path, dim: int, tokens: set[str] | None = None
                             ) -> tuple[dict[str, int], np.ndarray]:
    """The embedding-file oracle: one ``split(" ")`` per line, and one
    ``np.array`` per first line of a token in *tokens* (of any token, for
    None).  Returns (vocab, matrix) with first occurrences kept, or raises
    EmbeddingFormatError naming the first malformed line: a wrong field
    count on any line, or a bad value on a parsed one; a value that is not
    finite in float32 is malformed.  A file with no lines is malformed."""
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    line_no = 0
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise EmbeddingFormatError(f"{path}:{line_no}: wrong field count")
            token = parts[0]
            if token in vocab or (tokens is not None and token not in tokens):
                continue
            try:
                with np.errstate(over="ignore"):  # 3e40 -> inf, as in numpy's reader
                    vec = np.array(parts[1:], dtype=np.float32)
            except ValueError as exc:
                raise EmbeddingFormatError(f"{path}:{line_no}: {exc}") from None
            if not np.isfinite(vec).all():
                raise EmbeddingFormatError(f"{path}:{line_no}: non-finite value")
            vocab[token] = len(rows)
            rows.append(vec)
    if not line_no:
        raise EmbeddingFormatError(f"{path}: no lines")
    matrix = np.vstack(rows) if rows else np.zeros((0, dim), dtype=np.float32)
    return vocab, matrix


def clean_text_regex(raw: str) -> str:
    """The clean_text oracle, in its earlier form: runs of re's ``\\s``
    become one space, and the ends are stripped."""
    text = raw
    for _ in range(10):
        out = re.sub(r"\s+", " ", html.unescape(re.sub(r"<[^<>]*>", " ", text))).strip()
        if out == text:
            return out
        text = out
    return text


def lookup(table: EmbeddingTable, token: str) -> np.ndarray:
    """The per-token lookup oracle: the stored row, else the token's OOV draw."""
    row = table.vocab.get(token)
    return table.matrix[row] if row is not None else oov_vector(token, table.matrix.shape[1])


def as_ids(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, matrix) with matrix[ids] == x, for a float batch x (..., d):
    one id per cell, and the pad id 0, whose row is zeros, for each all-zero
    cell.  It feeds float test inputs to the model, which reads ids."""
    cells = x.reshape(-1, x.shape[-1])
    live = cells.any(axis=1)
    ids = np.zeros(len(cells), np.int32)
    ids[live] = np.arange(1, np.count_nonzero(live) + 1)
    matrix = np.concatenate([np.zeros((1, x.shape[-1]), x.dtype), cells[live]])
    return ids.reshape(x.shape[:-1]), matrix


def tensorize(doc: list[list[str]], doc_len: int, sent_len: int,
              table: EmbeddingTable) -> np.ndarray:
    """The tensorization oracle: the string crop of *doc* to its first doc_len
    sentences and their first sent_len words, one lookup per kept cell, every
    other cell left zero."""
    out = np.zeros((doc_len, sent_len, table.matrix.shape[1]), dtype=np.float32)
    for i, sentence in enumerate(doc[:doc_len]):
        for j, token in enumerate(sentence[:sent_len]):
            out[i, j] = lookup(table, token)
    return out


def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """Six nested loops, float64 accumulation; the convolution oracle."""
    m, n, c_in = x.shape
    k, s, t, _ = w.shape
    om, on = m - s + 1, n - t + 1
    out = np.zeros((om, on, k), dtype=np.float64)
    for q in range(k):
        for i in range(om):
            for j in range(on):
                acc = 0.0
                for a in range(s):
                    for bb in range(t):
                        for ch in range(c_in):
                            acc += float(w[q, a, bb, ch]) * float(x[i + a, j + bb, ch])
                acc += float(b[q])
                out[i, j, q] = max(acc, 0.0) if relu else acc
    return out


def naive_maxpool(x: np.ndarray, axis: str) -> np.ndarray:
    """Brute-force size-2 pooling with floor semantics."""
    m, n, c = x.shape
    if axis == "horizontal":
        out = np.zeros((m, n // 2, c), dtype=x.dtype)
        for i in range(m):
            for j in range(n // 2):
                for ch in range(c):
                    out[i, j, ch] = max(x[i, 2 * j, ch], x[i, 2 * j + 1, ch])
    else:
        out = np.zeros((m // 2, n, c), dtype=x.dtype)
        for i in range(m // 2):
            for j in range(n):
                for ch in range(c):
                    out[i, j, ch] = max(x[2 * i, j, ch], x[2 * i + 1, j, ch])
    return out


def enum_param_count(
    variant: str, fc: int, doc_len: int, num_classes: int,
    sent_len: int = 46, num_filters: int = 128, embed_dim: int = 100,
) -> int:
    """Layer-shape enumeration: walk the architecture's shapes and count
    scalars, independently of the model implementation."""
    total = 0
    width = sent_len
    channels = embed_dim
    while width > 1:
        assert width >= 4, "width recurrence stuck"
        for _ in range(2):  # two 1x2 convs per horizontal block
            total += num_filters * (1 * 2 * channels) + num_filters
            channels = num_filters
            width -= 1
        width //= 2
    assert width == 1
    rows = doc_len
    if variant == "slcnn+v":
        for _ in range(2):  # two 2x1 convs in the vertical block
            total += num_filters * (2 * 1 * channels) + num_filters
        rows = (rows - 2) // 2
    flat = rows * num_filters
    total += fc * flat + fc
    total += fc * fc + fc
    total += num_classes * fc + num_classes
    return total


def corpus_stats_bruteforce(docs: list[RawDocument], sent_len: int) -> dict:
    """Plain-python recomputation of every corpus statistic."""
    per_doc_sentences = [preprocess_document(d) for d in docs]
    counts = [len(s) for s in per_doc_sentences]
    all_lengths = [len(t) for doc in per_doc_sentences for t in doc]
    vocab = {tok for doc in per_doc_sentences for sent in doc for tok in sent}
    mu = statistics.fmean(counts)
    sigma = statistics.pstdev(counts)
    t_d = math.ceil(round(mu + 1.5 * sigma, 9))
    cropped_sent = sum(1 for n in all_lengths if n > sent_len)
    cropped_docs = sum(1 for c in counts if c > t_d)
    docs_with_cropped = sum(
        1 for doc in per_doc_sentences if any(len(t) > sent_len for t in doc)
    )
    return {
        "num_documents": len(docs),
        "num_sentences": sum(counts),
        "pct_cropped_sentences": 100.0 * cropped_sent / max(1, sum(counts)),
        "pct_cropped_documents": 100.0 * cropped_docs / len(docs),
        "pct_docs_with_cropped_sentences": 100.0 * docs_with_cropped / len(docs),
        "max_sentences_per_doc": max(counts),
        "max_words_per_sentence": max(all_lengths) if all_lengths else 0,
        "vocab_size": len(vocab),
        "t_d": max(1, t_d),
    }


# --------------------------------------------------------------------------
# Finite-difference sweeps (shared by the unit and acceptance suites)
# --------------------------------------------------------------------------

F64 = np.float64


def conv_preactivation(x: np.ndarray, bank: nn.ConvFilterBank) -> np.ndarray:
    """The valid, stride-1 conv of the batch x (B, m, n, c) before its ReLU,
    one matmul per filter tap."""
    _, s, t, _ = bank.weights.shape
    om, on = x.shape[1] - s + 1, x.shape[2] - t + 1
    taps = [x[:, a : a + om, b : b + on] @ bank.weights[:, a, b].T
            for a in range(s) for b in range(t)]
    return sum(taps) + bank.biases


def fd_sweep_conv(trials: int = 100) -> dict[str, float]:
    """Randomized conv+ReLU backward FD check returning the worst relative
    error of the float32 and float64 analytic gradients against a float64
    oracle; every pre-activation is at least 5e-3 from the ReLU kink."""
    worst32 = worst64 = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        while True:
            x = rng.normal(size=(2, 3, 6, 2))
            w = rng.normal(size=(3, 1, 2, 2)) * 0.7
            b = rng.normal(size=3) * 0.3
            u = rng.normal(size=(2, 3, 5, 3))
            if np.abs(conv_preactivation(x, nn.ConvFilterBank(w, b))).min() > 5e-3:
                break

        _, cache64 = nn.conv2d_forward(x, nn.ConvFilterBank(w, b))
        gx64, gw64, gb64 = nn.conv2d_backward(nn.ConvFilterBank(w, b), cache64, u)
        x32, w32, b32, u32 = (a.astype(np.float32) for a in (x, w, b, u))
        _, cache32 = nn.conv2d_forward(x32, nn.ConvFilterBank(w32, b32))
        gx32, gw32, gb32 = nn.conv2d_backward(nn.ConvFilterBank(w32, b32), cache32, u32)

        params = {"x": x.copy(), "w": w.copy(), "b": b.copy()}

        def loss():
            y, _ = nn.conv2d_forward(params["x"], nn.ConvFilterBank(params["w"], params["b"]))
            return float((y * u).sum())

        res64 = grad_check(loss, params, {"x": gx64, "w": gw64, "b": gb64}, epsilon=1e-5)
        res32 = grad_check(
            loss, params,
            {"x": gx32.astype(F64), "w": gw32.astype(F64), "b": gb32.astype(F64)},
            epsilon=1e-3,
        )
        worst64 = max(worst64, res64.max_rel_error)
        worst32 = max(worst32, res32.max_rel_error)
    return {"worst32": worst32, "worst64": worst64}


def fd_sweep_dense(trials: int = 100) -> dict[str, float]:
    worst32 = worst64 = 0.0
    done = 0
    seed = 0
    while done < trials:
        seed += 1
        rng = np.random.default_rng(2000 + seed)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(5, 4)) * 0.7
        b = rng.normal(size=5) * 0.3
        u = rng.normal(size=(3, 5))
        if np.abs(x @ w.T + b).min() < 5e-3:
            continue
        done += 1

        layer64 = nn.DenseLayer(w, b)
        _, cache64 = nn.dense_forward(x, layer64, "relu")
        gx64, gw64, gb64 = nn.dense_backward(layer64, cache64, u)
        layer32 = nn.DenseLayer(w.astype(np.float32), b.astype(np.float32))
        _, cache32 = nn.dense_forward(x.astype(np.float32), layer32, "relu")
        gx32, gw32, gb32 = nn.dense_backward(layer32, cache32, u.astype(np.float32))

        params = {"x": x.copy(), "w": w.copy(), "b": b.copy()}

        def loss():
            y, _ = nn.dense_forward(
                params["x"], nn.DenseLayer(params["w"], params["b"]), "relu"
            )
            return float((y * u).sum())

        res64 = grad_check(loss, params, {"x": gx64, "w": gw64, "b": gb64}, epsilon=1e-5)
        res32 = grad_check(
            loss, params,
            {"x": gx32.astype(F64), "w": gw32.astype(F64), "b": gb32.astype(F64)},
            epsilon=1e-3,
        )
        worst64 = max(worst64, res64.max_rel_error)
        worst32 = max(worst32, res32.max_rel_error)
    return {"worst32": worst32, "worst64": worst64}


def fd_sweep_pool(trials: int = 100) -> dict[str, float]:
    """Pooling FD check away from ties; returns the worst error and how many
    tie-free instances were actually checked."""
    worst = 0.0
    checked = 0
    rng = np.random.default_rng(8)
    for _ in range(trials):
        x = rng.normal(size=(2, 3, 6, 2))
        u = rng.normal(size=(2, 3, 3, 2))
        if np.abs(x[:, :, 0:6:2, :] - x[:, :, 1:6:2, :]).min() < 5e-3:
            continue
        _, cache = nn.maxpool_forward(x, "horizontal")
        gx = nn.maxpool_backward(cache, u)
        params = {"x": x.copy()}

        def loss():
            y, _ = nn.maxpool_forward(params["x"], "horizontal")
            return float((y * u).sum())

        res = grad_check(loss, params, {"x": gx}, epsilon=1e-5)
        worst = max(worst, res.max_rel_error)
        checked += 1
    return {"worst64": worst, "checked": checked}


def fd_sweep_softmax(trials: int = 100) -> float:
    """Worst FD error of the logit gradient of the batch-mean loss."""
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(trials):
        batch, c = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        logits = rng.normal(size=(batch, c)) * 2.0
        labels = rng.integers(0, c, size=batch)
        _, grad = nn.softmax_cross_entropy(logits, labels)
        params = {"logits": logits.copy()}

        def loss():
            losses, _ = nn.softmax_cross_entropy(params["logits"], labels)
            return float(losses.mean())

        res = grad_check(loss, params, {"logits": grad}, epsilon=1e-6)
        worst = max(worst, res.max_rel_error)
    return worst


def cross_entropy_oracle(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row float64 log-sum-exp minus the label's logit, one row at a
    time with an exactly rounded sum; the cross-entropy oracle."""
    out = np.empty(len(logits), dtype=np.float64)
    for i, (row, label) in enumerate(zip(logits, labels)):
        values = [float(v) for v in row]
        top = max(values)
        out[i] = top + math.log(math.fsum(math.exp(v - top) for v in values)) - values[label]
    return out


@contextlib.contextmanager
def num_filters(k: int) -> Iterator[None]:
    """Within, every conv bank has *k* filters (model.NUM_FILTERS) instead
    of the paper's 128, so tests can run small models: those built, and the
    checkpoints saved or loaded, within have k."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "NUM_FILTERS", k)
        patch.setitem(model._FIXED_FIELDS, "num_filters", k)
        yield


def with_dtype(net: Model, dtype) -> Model:
    """A copy of *net* with every parameter cast to *dtype* (float64 shadow
    copies for gradient checking)."""
    return Model(net.config, {name: arr.astype(dtype) for name, arr in net.param_blocks()})


class DenseTrunkModel(Model):
    """The HCB trunk oracle: the float rows matrix[ids], each over all its
    columns, pad included, in row blocks of the batch's own order.  Block
    gradients are summed in block order, into the first block's arrays."""

    def _hcbs(self, ids: np.ndarray, matrix: np.ndarray, train: bool
              ) -> tuple[np.ndarray, tuple]:
        rows = matrix[ids][:, None]
        blocks = model._row_blocks(len(rows))
        outs, block_caches = [], []
        for block in blocks:
            y, caches = rows[block], []
            for banks in self._hcb_banks():
                y, cache = model._block_forward(y, banks, nn.HORIZONTAL)
                caches.append(cache)
            outs.append(y)
            block_caches.append(caches)
        return np.concatenate(outs), (blocks, block_caches)

    def _hcbs_backward(self, cache: tuple, g: np.ndarray) -> list[np.ndarray]:
        total = None
        for block, caches in zip(*cache):
            gb, grads = g[block], []
            for level, banks in reversed(list(enumerate(self._hcb_banks()))):
                gb, parts = model._block_backward(banks, caches[level], gb, level > 0)
                grads[:0] = parts
            if total is None:
                total = grads
            else:
                for acc, part in zip(total, grads):
                    acc += part
        return total


def dense_oracle(net: Model) -> DenseTrunkModel:
    """*net* with the dense HCB trunk; the two share every parameter array."""
    return DenseTrunkModel(net.config, dict(net.param_blocks()))


def features(net: Model, x: np.ndarray) -> np.ndarray:
    """Pre-flatten feature map (eval mode) of the float batch *x*: one
    feature vector per row."""
    return net._conv_trunk(*as_ids(x), False)[0]


def network_margins(net: Model, x: np.ndarray) -> float:
    """Smallest ReLU pre-activation magnitude / live pool gap anywhere in a
    forward pass; FD checks are only trusted above a margin."""
    smallest = np.inf
    y = x
    banks = list(net.conv_banks) + list(net.vcb_banks)
    pool_after = {2 * i + 1 for i in range(len(net.conv_banks) // 2)}
    if net.vcb_banks:
        pool_after.add(len(banks) - 1)
    for i, bank in enumerate(banks):
        z = conv_preactivation(y, bank)
        smallest = min(smallest, float(np.abs(z).min()))
        y = np.maximum(z, 0)
        if i in pool_after:
            vertical = bool(net.vcb_banks) and i == len(banks) - 1
            axis = nn.VERTICAL if vertical else nn.HORIZONTAL
            ax = y.ndim - 3 if vertical else y.ndim - 2
            pairs = y.shape[ax] // 2
            sl_a = [slice(None)] * y.ndim
            sl_b = [slice(None)] * y.ndim
            sl_a[ax] = slice(0, 2 * pairs, 2)
            sl_b[ax] = slice(1, 2 * pairs, 2)
            a, b = y[tuple(sl_a)], y[tuple(sl_b)]
            # Two pad columns, or two all-pad rows, hold one function of the
            # parameters, so their tie is no kink; only rounding parts them.
            gaps = np.abs(a - b)[np.maximum(a, b) > 0]
            gaps = gaps[gaps > 1e-12]
            if gaps.size:
                smallest = min(smallest, float(gaps.min()))
            y, _ = nn.maxpool_forward(y, axis)
    flat = y.reshape(len(y), -1)
    for layer in (net.fc1, net.fc2):
        z, _ = nn.dense_forward(flat, layer, "identity")
        smallest = min(smallest, float(np.abs(z).min()))
        flat = np.maximum(z, 0)
    return smallest


def pad_rows(x: np.ndarray, lengths) -> np.ndarray:
    """*x* (batch, doc_len, words, d) with the words of row (i, j) from
    lengths[i][j] on set to the pad vector, zeros."""
    pad = np.arange(x.shape[2]) >= np.asarray(lengths)[..., None]
    x[pad] = 0
    return x


def randomize_biases(net: Model, rng: np.random.Generator) -> Model:
    """Draw every bias from N(0, 0.1): with the zero initial biases every pad
    constant is 0 and sits on a ReLU kink, so the constant chain's
    gradients would all be 0."""
    for name, arr in net.param_blocks():
        if name.endswith(".b"):
            arr[...] = rng.normal(0.0, 0.1, arr.shape)
    return net


def end_to_end_grad_check(doc_len: int, batch: int = 1, variant: str = "slcnn",
                          lengths=None) -> float:
    """Max relative FD error over every parameter of a shrunken full network
    (4 filters, fc_size=8, 3 classes) in float64, ties excluded.  With
    *lengths* (batch, doc_len), row (i, j) keeps its first lengths[i][j]
    words and the rest is pad, and the biases are nonzero."""
    cfg = ModelConfig(
        variant=variant, doc_len=doc_len, num_classes=3, fc_size=8, seed=0, dropout_rate=0.0,
    )
    # A parameter step of epsilon shifts any pre-activation by at most
    # ~epsilon * |activation| ~ 1e-4, so a 3e-4 margin keeps every ReLU and
    # pooling decision on its side of the kink during differencing.
    for seed in range(200):
        with num_filters(4):
            net64 = with_dtype(build_model(dataclasses.replace(cfg, seed=seed)), F64)
        rng = np.random.default_rng(500 + seed)
        x = rng.normal(size=(batch, doc_len, 46, 100))
        labels = rng.integers(0, 3, size=batch)
        if lengths is not None:
            pad_rows(x, lengths)
            randomize_biases(net64, rng)
        if network_margins(net64, x) > 3e-4:
            break
    else:
        raise AssertionError("no tie-free instance found")

    # A generator selects the training path, which keeps the caches
    # _backward reads; at dropout rate 0 it draws nothing.
    ids, matrix = as_ids(x)
    logits, caches = net64._forward_with_caches(ids, matrix, np.random.default_rng(0))
    _, grad_logits = nn.softmax_cross_entropy(logits, labels)
    grads = net64._backward(caches, grad_logits)
    blocks = net64.param_blocks()
    params = dict(blocks)
    analytic = {name: g for (name, _), g in zip(blocks, grads)}

    def loss():
        losses, _ = nn.softmax_cross_entropy(net64.forward(ids, matrix), labels)
        return float(losses.mean())

    # The FD oracle's own noise is ~eps64 * |loss| / epsilon ~ 2e-11, so
    # flooring the denominator at 1e-4 stops near-zero-gradient coordinates
    # from measuring pure noise while still flagging any defect >= 1e-4*tol.
    result = grad_check(loss, params, analytic, epsilon=1e-5, denom_floor=1e-4)
    return result.max_rel_error


# --------------------------------------------------------------------------
# Optional real-data discovery
# --------------------------------------------------------------------------

DATASET_DIRS = {
    "ag": "ag_news_csv",
    "dbpedia": "dbpedia_csv",
    "yelp_p": "yelp_review_polarity_csv",
    "yelp_f": "yelp_review_full_csv",
    "amazon_p": "amazon_review_polarity_csv",
    "amazon_f": "amazon_review_full_csv",
}


def data_dir() -> Path | None:
    value = os.environ.get("SLCNN_DATA_DIR")
    if value and Path(value).is_dir():
        return Path(value)
    return None


def dataset_file(name: str, split: str) -> Path | None:
    base = data_dir()
    if base is None:
        return None
    candidate = base / DATASET_DIRS[name] / f"{split}.csv"
    return candidate if candidate.is_file() else None


def glove_file() -> Path | None:
    base = data_dir()
    if base is None:
        return None
    candidate = base / "glove.6B.100d.txt"
    return candidate if candidate.is_file() else None
