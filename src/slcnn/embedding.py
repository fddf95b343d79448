"""Pretrained word vectors, and the rows a grid dataset's vocabulary indexes.

Embeddings are frozen: they contribute no trainable parameters.  A run
parses only the rows of the tokens its grid vocabulary holds.  The first
run on a file scans it and checks every line for its field count and
UTF-8; when all pass, it leaves a line index beside the file
(``<path>.slcnn-index``), and later runs read only their own lines through
it.  The index is trusted while the file's stat and the width match the
ones it records, and each line read through it is checked again.

Tokens missing from the table get a deterministic random vector drawn
uniformly from [-0.01, 0.01], keyed by the token alone, so the draw is
independent of vocabulary order and process restarts and no setting can
change it.
"""

from __future__ import annotations

import array
import codecs
import io
import logging
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Sequence

import numpy as np

from . import fileio
from .corpus import not_utf8_message

log = logging.getLogger("slcnn")

OOV_RANGE = 0.01
INDEX_SUFFIX = ".slcnn-index"
# git's "racy clean" rule: a file modified this recently may be rewritten in
# place within its timestamp's granularity and keep its stat, so a scan of it
# leaves no index.
SETTLED_NS = 2_000_000_000


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


class _NoUsableIndex(Exception):
    """The line index is missing or unreadable, or does not match its file."""


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
    in *vocab* get oov_vector(token, dim), dim being the matrix's width."""

    vocab: dict[str, int]
    matrix: np.ndarray  # (len(vocab), dim) float32


def oov_vector(token: str, dim: int) -> np.ndarray:
    """The deterministic vector of a token missing from the table."""
    rng = np.random.Generator(np.random.PCG64(_fnv1a64(token.encode("utf-8"))))
    vec = rng.uniform(-OOV_RANGE, OOV_RANGE, dim).astype(np.float32)
    # float32 rounding may land a hair outside the open interval.
    np.clip(vec, np.float32(-OOV_RANGE), np.float32(OOV_RANGE), out=vec)
    return vec


def embedding_width(path: Path) -> int:
    """The values per line of the embedding file at *path*: the spaces on
    its first line, which may end at a bare CR too, or EmbeddingFormatError."""
    with path.open(encoding="latin-1") as handle:  # reads any byte
        dim = handle.readline().count(" ")
    if not dim:
        raise EmbeddingFormatError(f"{path}: the first line holds no embedding values")
    return dim


def load_embeddings(path: str | Path, dim: int,
                    tokens: AbstractSet[str] | None = None) -> EmbeddingTable:
    """Parse a text embedding file: one token plus *dim* values per line.

    With *tokens*, the table holds only the rows of those tokens that the
    file has, and only their values are parsed; None keeps every token.

    Every line is checked for UTF-8 (a leading byte-order mark is
    skipped) and its field count: fields are separated by single spaces,
    so a line is well formed when it holds exactly *dim* spaces.  A file
    with no lines is malformed.  Duplicate tokens keep their first
    occurrence, and the values of a later duplicate are not parsed.  The
    values of each kept token's first line must be numbers that are finite
    in float32; a bad number on a line whose token is not kept is not an
    error.  Any malformed line raises EmbeddingFormatError naming
    ``path:line``.

    With *tokens*, a scan in which every line passed those checks leaves a
    line index beside the file, ``<path>.slcnn-index`` (see _write_index),
    and a later call reads only its kept lines through it.  The index is
    trusted only while the file's stat matches the one it records and
    *dim* is the width it was checked at; each kept line is then checked
    again for UTF-8, its token and its field count.  Any mismatch means a
    full scan.  The file's stat and every line it gives come from one open
    descriptor, so a file replaced by a rename during the call is read as
    it was when opened.  With None, no index is read or written.

    The kept values go through one ``np.loadtxt`` call, so every float
    conversion runs in numpy's C parser.  Its grammar is a decimal number
    with an optional exponent, or inf/infinity/nan, signed and in any case,
    rounded to float64 and then to float32.  That is stricter than Python
    ``float()``: digit-group underscores (``1_0``) and non-ASCII digits are
    rejected.  A parsed value must be finite in float32, so nan, inf and a
    number beyond float32's range (``3e40``) are malformed too.  loadtxt
    reads ahead, so when it fails, or a value is not finite, the rows are
    read again one at a time to name the first bad line.
    """
    path = Path(path)
    try:
        return _load(path, dim, tokens, indexed=tokens is not None)
    except _NoUsableIndex:  # a scan, which leaves an index that matches
        return _load(path, dim, tokens, indexed=False)


def _load(path: Path, dim: int, tokens: AbstractSet[str] | None,
          indexed: bool) -> EmbeddingTable:
    """load_embeddings, reading the rows through the line index with *indexed*."""
    vocab: dict[str, int] = {}
    try:
        matrix = _parse_values(values for _, values in _first_rows(path, dim, vocab, tokens,
                                                                   indexed))
    except ValueError:
        matrix = None
    if matrix is not None and not vocab:  # no kept row
        matrix = np.zeros((0, dim), dtype=np.float32)
    # A line whose values field is empty (dim 1) yields a blank line, which
    # loadtxt skips, so the row count is checked as well.
    if matrix is not None and matrix.shape == (len(vocab), dim) and np.isfinite(matrix).all():
        return EmbeddingTable(vocab=vocab, matrix=matrix)
    for line_no, values in _first_rows(path, dim, {}, tokens, indexed):
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


def _first_rows(path: Path, dim: int, vocab: dict[str, int], tokens: AbstractSet[str] | None,
                indexed: bool) -> Iterator[tuple[int, str]]:
    """(line number, values field) of the first line of each token in
    *tokens* (of every token, for None), in file order, entering the token
    in *vocab*: through the line index with *indexed*, else by a scan.  The
    file is opened once; its key and every line come from that descriptor,
    so a file replaced by a rename meanwhile is never mixed with it."""
    with path.open("rb") as handle:
        stat = os.fstat(handle.fileno())
        rows = _indexed_rows if indexed else _scan
        yield from rows(path, handle, stat, dim, vocab, tokens)


def _scan(path: Path, handle: io.BufferedReader, stat: os.stat_result, dim: int,
          vocab: dict[str, int], tokens: AbstractSet[str] | None) -> Iterator[tuple[int, str]]:
    """_first_rows read from every line; any line without exactly *dim*
    values raises, and so does a file with no lines.  With *tokens*, a scan
    of a file last modified at least SETTLED_NS before it starts records
    each line's token and byte offset and leaves the index."""
    names = None
    if tokens is not None and stat.st_mtime_ns <= time.time_ns() - SETTLED_NS:
        names, offsets = bytearray(), array.array("q")
    # Each line keeps its own end (LF, CRLF or a bare CR), so the byte
    # offsets are exact.
    offset = len(codecs.BOM_UTF8) if handle.peek(3)[:3] == codecs.BOM_UTF8 else 0
    line_no = 0
    with io.TextIOWrapper(handle, encoding="utf-8-sig", newline="") as text:
        try:
            for line_no, line in enumerate(text, start=1):
                if line.count(" ") != dim:
                    raise EmbeddingFormatError(f"{path}:{line_no}: expected token + {dim} "
                                               f"values, got {line.count(' ') + 1} fields")
                token, _, values = line.partition(" ")
                if names is not None:
                    names += token.encode("utf-8") + b"\n"
                    offsets.append(offset)
                    offset += len(line) if line.isascii() else len(line.encode("utf-8"))
                if token not in vocab and (tokens is None or token in tokens):
                    vocab[token] = len(vocab)
                    yield line_no, values
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(not_utf8_message(path, exc)) from None
        if not line_no:
            raise EmbeddingFormatError(f"{path}: the file holds no lines")
        if names is not None:
            _write_index(path, handle, stat, dim, names, offsets)


def _index_path(path: Path) -> Path:
    return path.with_name(path.name + INDEX_SUFFIX)


def _file_key(stat: os.stat_result) -> str:
    """The identity of a file's content that the index is keyed by."""
    return " ".join(str(v) for v in (stat.st_dev, stat.st_ino, stat.st_size,
                                     stat.st_mtime_ns, stat.st_ctime_ns))


def _write_index(path: Path, handle: io.BufferedReader, stat: os.stat_result, dim: int,
                 names: bytearray, offsets: array.array) -> None:
    """Write the line index of the file open as *handle*, whose *stat* was
    taken before the scan: an npz (see fileio) of the file's key, *dim*, and
    the token (*names* holds each one in UTF-8, followed by a newline) and
    byte offset of every line, in file order; both are written from views of
    the scan's buffers, not copies.  Nothing is written when the file changed
    during the scan; a failed write is skipped."""
    if _file_key(os.fstat(handle.fileno())) != _file_key(stat):
        return
    index = _index_path(path)
    try:
        fileio.write_npz(index, {"key": np.array(_file_key(stat)), "dim": np.int64(dim),
                                 "tokens": np.frombuffer(names, np.uint8),
                                 "offsets": np.frombuffer(offsets, dtype=np.int64)})
    except OSError:  # a read-only directory or a full disk: later runs scan
        return
    log.info("wrote the line index of %s to %s", path, index)


def _indexed_rows(path: Path, handle: io.BufferedReader, stat: os.stat_result, dim: int,
                  vocab: dict[str, int], tokens: AbstractSet[str]) -> Iterator[tuple[int, str]]:
    """_first_rows read through the line index: each kept line is read at
    the offset the index records, up to the next line's.  Raises
    _NoUsableIndex when the index is missing or unreadable, does not match
    *stat* or *dim*, or a kept line does not decode as UTF-8, start with its
    token and a space, hold exactly *dim* spaces and end, with an LF, a CRLF
    or a bare CR, where the next line starts (the last line may end at the
    file's end instead)."""
    try:
        index = fileio.read_npz(_index_path(path))
        if (str(index["key"]), int(index["dim"])) != (_file_key(stat), dim):
            raise _NoUsableIndex
        if not tokens:  # no line to read
            return
        names = str(index["tokens"], "utf-8")
        offsets = index["offsets"]
    except Exception:  # absent, truncated or corrupt in any way
        raise _NoUsableIndex from None
    if not (offsets.dtype == np.int64 and offsets.shape == (names.count("\n"),) != (0,)):
        raise _NoUsableIndex
    stops = np.append(offsets[1:], stat.st_size)  # each line ends where the next starts
    if offsets[0] < 0 or (stops <= offsets).any():
        raise _NoUsableIndex
    # The index's tokens are read one at a time: the strings of a whole
    # token list, freed among the table's tokens, would keep their memory
    # resident.  Lines are read with pread: a memory map would count every
    # page it touches in the process's resident size.
    wanted = {token + "\n" for token in tokens}
    for i, name in enumerate(io.StringIO(names)):
        if name not in wanted:
            continue
        wanted.remove(name)  # a later duplicate is not read
        start, stop = int(offsets[i]), int(stops[i])
        raw = os.pread(handle.fileno(), stop - start, start)
        if not raw.endswith((b"\n", b"\r")) and stop != stat.st_size:
            raise _NoUsableIndex
        try:
            line = raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
        except UnicodeDecodeError:
            raise _NoUsableIndex from None
        token, _, values = line.partition(" ")
        if token != name[:-1] or "\r" in line or "\n" in line or line.count(" ") != dim:
            raise _NoUsableIndex
        vocab[token] = len(vocab)
        yield i + 1, values


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
    out = np.zeros((len(vocab) + 1, table.matrix.shape[1]), dtype=np.float32)
    rows = np.array([table.vocab.get(token, -1) for token in vocab], dtype=np.int64)
    known = np.flatnonzero(rows >= 0)
    out[known + 1] = table.matrix[rows[known]]
    for i in np.flatnonzero(rows < 0):
        out[i + 1] = oov_vector(vocab[i], out.shape[1])
    return out
