"""Pretrained word vectors, and the rows a grid dataset's vocabulary indexes.

Embeddings are frozen: they contribute no trainable parameters.  Tokens
missing from the table get a deterministic random vector drawn uniformly
from [-0.01, 0.01], keyed by (token, oov_seed) so the draw is independent
of lookup order, thread interleaving, and process restarts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import PAD_TOKEN

OOV_RANGE = 0.01


class EmbeddingFormatError(Exception):
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
    """Word -> vector table with seeded out-of-vocabulary fallback."""

    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray  # (len(vocab), dim) float32
    oov_seed: int = 0
    oov_cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._zero = np.zeros(self.dim, dtype=np.float32)
        self._zero.flags.writeable = False

    def lookup(self, token: str) -> np.ndarray:
        """Vector for *token*: stored row, zeros for pad, or a cached OOV draw."""
        if token == PAD_TOKEN:
            return self._zero
        row = self.vocab.get(token)
        if row is not None:
            return self.matrix[row]
        cached = self.oov_cache.get(token)
        if cached is not None:
            return cached
        vec = self._draw_oov(token)
        # dict.setdefault is atomic under the GIL, giving insert-once
        # semantics for concurrent lookups of the same token.
        return self.oov_cache.setdefault(token, vec)

    def _draw_oov(self, token: str) -> np.ndarray:
        seed = _fnv1a64(token.encode("utf-8")) ^ (self.oov_seed & 0xFFFFFFFFFFFFFFFF)
        rng = np.random.Generator(np.random.PCG64(seed))
        vec = rng.uniform(-OOV_RANGE, OOV_RANGE, self.dim).astype(np.float32)
        # float32 rounding may land a hair outside the open interval.
        np.clip(vec, np.float32(-OOV_RANGE), np.float32(OOV_RANGE), out=vec)
        vec.flags.writeable = False
        return vec


def load_embeddings(path: str | Path, dim: int, *, oov_seed: int = 0) -> EmbeddingTable:
    """Parse a text embedding file: one token plus *dim* values per line.

    Fields are separated by single spaces, so a line is well formed when it
    holds exactly *dim* spaces.  Duplicate tokens keep their first
    occurrence, and the values of a later duplicate are not parsed.  Any
    malformed line raises EmbeddingFormatError naming ``path:line``.

    The file is read once.  Python splits off each token; the values of all
    first occurrences go through one ``np.loadtxt`` call, so every float
    conversion runs in numpy's C parser.  Its grammar is a decimal number
    with an optional exponent, or inf/infinity/nan, signed and in any case,
    rounded to float64 and then to float32.  That is stricter than Python
    ``float()``: digit-group underscores (``1_0``) and non-ASCII digits are
    rejected.
    """
    path = Path(path)
    vocab: dict[str, int] = {}

    def first_values(lines: Iterable[str]) -> Iterator[str]:
        for line in lines:
            if line.count(" ") != dim:
                raise EmbeddingFormatError  # located by _first_bad_line
            token, _, values = line.partition(" ")
            if token not in vocab:
                vocab[token] = len(vocab)
                yield values

    with path.open("r", encoding="utf-8") as handle:
        try:
            matrix = _parse_values(first_values(handle))
        except (ValueError, EmbeddingFormatError):
            matrix = None
    if matrix is not None and not vocab:  # an empty file
        matrix = np.zeros((0, dim), dtype=np.float32)
    # A line whose values field is empty (dim 1) yields a blank line, which
    # loadtxt skips, so the row count is checked as well.
    if matrix is None or matrix.shape != (len(vocab), dim):
        raise _first_bad_line(path, dim)
    return EmbeddingTable(dim=dim, vocab=vocab, matrix=matrix, oov_seed=oov_seed)


def _parse_values(lines: Iterable[str]) -> np.ndarray:
    """Rows of space-separated numbers, parsed by numpy's C reader."""
    with warnings.catch_warnings():
        # An input with no rows warns and returns an empty array; the
        # caller's shape check covers that case.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=np.float32, delimiter=" ", comments=None,
                          quotechar=None, ndmin=2)


def _first_bad_line(path: Path, dim: int) -> EmbeddingFormatError:
    """Re-read *path* one line at a time, under the same rules as
    load_embeddings, and describe the first line that breaks them."""
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            fields = line.count(" ") + 1
            if fields != dim + 1:
                return EmbeddingFormatError(
                    f"{path}:{line_no}: expected token + {dim} values, got {fields} fields"
                )
            token, _, values = line.partition(" ")
            if token in seen:
                continue
            seen.add(token)
            try:
                row = _parse_values([values])
            except ValueError as exc:
                return EmbeddingFormatError(f"{path}:{line_no}: {exc}")
            if row.shape != (1, dim):
                return EmbeddingFormatError(f"{path}:{line_no}: empty value field")
    return EmbeddingFormatError(f"{path}: malformed embedding file")


def embedding_matrix_for_vocab(table: EmbeddingTable, vocab: Sequence[str]) -> np.ndarray:
    """Rows of *table* for a grid-dataset vocabulary, with id 0 = pad = zeros.

    Row i+1 is table.lookup(vocab[i]), so indexing this matrix with a grid
    of ids gives the same tensor as looking up every grid token.
    """
    out = np.zeros((len(vocab) + 1, table.dim), dtype=np.float32)
    for i, token in enumerate(vocab):
        out[i + 1] = table.lookup(token)
    return out
