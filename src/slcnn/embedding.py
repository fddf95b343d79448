"""Pretrained word vectors, and the rows a grid dataset's vocabulary indexes.

Embeddings are frozen: they contribute no trainable parameters.  Tokens
missing from the table get a deterministic random vector drawn uniformly
from [-0.01, 0.01], keyed by the token alone, so the draw is independent of
vocabulary order and process restarts and no setting can change it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import not_utf8_message

OOV_RANGE = 0.01


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


def _fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; a stable stand-in for Python's salted hash()."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class EmbeddingTable:
    """Pretrained vectors: token t has row vocab[t] of *matrix*.  Tokens not
    in *vocab* get oov_vector(token, dim)."""

    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray  # (len(vocab), dim) float32


def oov_vector(token: str, dim: int) -> np.ndarray:
    """The deterministic vector of a token missing from the table."""
    rng = np.random.Generator(np.random.PCG64(_fnv1a64(token.encode("utf-8"))))
    vec = rng.uniform(-OOV_RANGE, OOV_RANGE, dim).astype(np.float32)
    # float32 rounding may land a hair outside the open interval.
    np.clip(vec, np.float32(-OOV_RANGE), np.float32(OOV_RANGE), out=vec)
    return vec


def load_embeddings(path: str | Path, dim: int) -> EmbeddingTable:
    """Parse a text embedding file: one token plus *dim* values per line.

    Fields are separated by single spaces, so a line is well formed when it
    holds exactly *dim* spaces.  Duplicate tokens keep their first
    occurrence, and the values of a later duplicate are not parsed.  Any
    malformed line raises EmbeddingFormatError naming ``path:line``.

    The values of all first occurrences go through one ``np.loadtxt`` call,
    so every float conversion runs in numpy's C parser.  Its grammar is a
    decimal number with an optional exponent, or inf/infinity/nan, signed
    and in any case, rounded to float64 and then to float32.  That is
    stricter than Python ``float()``: digit-group underscores (``1_0``) and
    non-ASCII digits are rejected.  A parsed value must be finite in
    float32, so nan, inf and a number beyond float32's range (``3e40``) are
    malformed too.  loadtxt reads ahead, so when it fails, or a value is
    not finite, the file is read again one row at a time to name the first
    bad line.
    """
    path = Path(path)
    vocab: dict[str, int] = {}
    try:
        matrix = _parse_values(values for _, values in _first_rows(path, dim, vocab))
    except ValueError:
        matrix = None
    if matrix is not None and not vocab:  # an empty file
        matrix = np.zeros((0, dim), dtype=np.float32)
    # A line whose values field is empty (dim 1) yields a blank line, which
    # loadtxt skips, so the row count is checked as well.
    if matrix is not None and matrix.shape == (len(vocab), dim) and np.isfinite(matrix).all():
        return EmbeddingTable(dim=dim, vocab=vocab, matrix=matrix)
    for line_no, values in _first_rows(path, dim, {}):
        try:
            row = _parse_values([values])
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}:{line_no}: {exc}") from None
        if row.shape != (1, dim):
            raise EmbeddingFormatError(f"{path}:{line_no}: empty value field")
        finite = np.isfinite(row[0])
        if not finite.all():
            field = values.split(" ")[int(finite.argmin())].strip()
            raise EmbeddingFormatError(f"{path}:{line_no}: value {field!r} is not a finite "
                                       "float32")
    raise EmbeddingFormatError(f"{path}: malformed embedding file")


def _first_rows(path: Path, dim: int, vocab: dict[str, int]) -> Iterator[tuple[int, str]]:
    """(line number, values field) of each token's first line, entering the
    token in *vocab*; a line without exactly *dim* values raises."""
    with path.open("r", encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                if line.count(" ") != dim:
                    raise EmbeddingFormatError(f"{path}:{line_no}: expected token + {dim} "
                                               f"values, got {line.count(' ') + 1} fields")
                token, _, values = line.partition(" ")
                if token not in vocab:
                    vocab[token] = len(vocab)
                    yield line_no, values
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(not_utf8_message(path, exc)) from None


def _parse_values(lines: Iterable[str]) -> np.ndarray:
    """Rows of space-separated numbers, parsed by numpy's C reader."""
    with warnings.catch_warnings():
        # An input with no rows warns and returns an empty array; the
        # caller's shape check covers that case.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=np.float32, delimiter=" ", comments=None,
                          quotechar=None, ndmin=2)


def embedding_matrix_for_vocab(table: EmbeddingTable, vocab: Sequence[str]) -> np.ndarray:
    """Rows of *table* for a grid-dataset vocabulary, with id 0 = pad = zeros.

    Row i+1 is the table row of vocab[i], or its oov_vector when the table
    lacks it, so indexing this matrix with a grid of ids gives the
    document tensor.
    """
    out = np.zeros((len(vocab) + 1, table.dim), dtype=np.float32)
    rows = np.array([table.vocab.get(token, -1) for token in vocab], dtype=np.int64)
    known = np.flatnonzero(rows >= 0)
    out[known + 1] = table.matrix[rows[known]]
    for i in np.flatnonzero(rows < 0):
        out[i + 1] = oov_vector(vocab[i], table.dim)
    return out
