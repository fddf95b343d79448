"""Dataset ingestion and text preprocessing.

Turns labeled raw documents into fixed-shape token grids plus per-corpus
statistics.  The pipeline order is fixed: join fields -> strip HTML /
decode entities -> split sentences -> per-sentence lowercase + punctuation
strip -> word tokenize.  Sentence terminators must survive cleaning so the
splitter can see them, which is why punctuation is only dropped at the
word-tokenization step.
"""

from __future__ import annotations

import csv
import html
import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

SENT_LEN = 46  # t_s, words kept per sentence: the paper's constant

class DatasetFormatError(ValueError):
    """Raised for unreadable dataset files or, in strict mode, bad rows."""


@dataclass
class RawDocument:
    """One labeled document as stored: 0-based label plus ordered text fields."""

    label: int
    fields: list[str]

    def text(self) -> str:
        """Joined document text; a title-like field becomes its own sentence."""
        parts = [f.strip() for f in self.fields if f.strip()]
        if not parts:
            return ""
        # Terminate every non-final field so it splits off as a sentence.
        head = [p if p.endswith((".", "!", "?")) else p + "." for p in parts[:-1]]
        return " ".join(head + parts[-1:])


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------

def load_dataset(
    path: str | Path,
    schema: Sequence[str] | None = None,
    *,
    strict: bool = False,
) -> Iterator[RawDocument]:
    """Stream RawDocuments from a CSV or JSONL dataset file.

    CSV rows follow the common benchmark layout: first field is a 1-based
    class index, remaining fields are text (e.g. title, body).  JSONL rows
    are ``{"label": int, "text": str}`` with the same 1-based labels.
    Class indices, below 2^63, are shifted to 0-based.  Literal ``\\n``
    escapes inside fields become spaces.  A leading byte-order mark is
    skipped.

    Malformed rows are skipped with a ``path:line: message (row skipped)``
    warning; ``strict=True`` aborts instead, as does a file that is not UTF-8.
    """
    path = Path(path)

    def bad_row(line_no: int, message: str) -> None:
        if strict:
            raise DatasetFormatError(f"{path}:{line_no}: {message}")
        log.warning("%s:%d: %s (row skipped)", path, line_no, message)

    try:
        if path.suffix.lower() in (".jsonl", ".ndjson"):
            yield from _load_jsonl(path, bad_row)
        else:
            yield from _load_csv(path, schema, bad_row)
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(not_utf8_message(path, exc)) from None


def not_utf8_message(path: Path, exc: UnicodeDecodeError) -> str:
    """``path:line: ...`` naming the first line of *path* that is not UTF-8, lines ending at
    LF, CRLF or a bare CR; text is decoded in chunks, so only re-reading tells the line."""
    with path.open(encoding="latin-1", newline="") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError:
                break
    return f"{path}:{line_no}: not UTF-8 text ({exc.reason})"


def _decode_field(text: str) -> str:
    return text.replace("\\n", " ")


def _load_csv(path: Path, schema, bad_row) -> Iterator[RawDocument]:
    with path.open("r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        while True:  # the reader resumes after a row it cannot parse
            try:
                for row in reader:
                    line_no = reader.line_num
                    if not row:
                        continue
                    if len(row) < 2:
                        bad_row(line_no, f"expected >= 2 fields, got {len(row)}")
                        continue
                    if schema is not None and len(row) != len(schema) + 1:
                        bad_row(line_no, f"expected {len(schema) + 1} fields, got {len(row)}")
                        continue
                    try:
                        stored = int(row[0])
                    except ValueError:
                        bad_row(line_no, f"class index {row[0]!r} is not an integer")
                        continue
                    if not 1 <= stored < 2**63:  # labels are int64
                        bad_row(line_no, f"class index {stored} is not in [1, 2^63)")
                        continue
                    fields = [_decode_field(f) for f in row[1:]]
                    if not any(f.strip() for f in fields):
                        bad_row(line_no, "document text is empty")
                        continue
                    yield RawDocument(label=stored - 1, fields=fields)
                return
            except csv.Error as exc:  # a field over the size limit, a NUL byte
                bad_row(reader.line_num, str(exc))


def _load_jsonl(path: Path, bad_row) -> Iterator[RawDocument]:
    with path.open("r", encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                stored = obj["label"]
                text = obj["text"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                bad_row(line_no, f"bad JSON row: {exc}")
                continue
            if type(stored) is not int or not 1 <= stored < 2**63:  # a bool is an int
                bad_row(line_no, f"class index {stored!r} is not an integer in [1, 2^63)")
                continue
            if not isinstance(text, str) or not text.strip():
                bad_row(line_no, "document text is empty")
                continue
            yield RawDocument(label=stored - 1, fields=[_decode_field(text)])


# --------------------------------------------------------------------------
# Cleaning / splitting / tokenizing
# --------------------------------------------------------------------------

_TAG_RE = re.compile(r"<[^<>]*>")


def clean_text(raw: str) -> str:
    """Strip HTML tags, decode entities, and collapse whitespace.

    Sentence-final punctuation is preserved for the sentence splitter.
    Iterates to a fixed point so that entity-encoded markup (``&lt;b&gt;``)
    is removed too and the function is idempotent.
    """
    text = raw
    for _ in range(10):
        out = _TAG_RE.sub(" ", text)
        out = html.unescape(out)
        out = " ".join(out.split())
        if out == text:
            return out
        text = out
    return text


# Words whose trailing period does not end a sentence.
_ABBREVIATIONS = frozenset(
    ["mr", "mrs", "dr", "st", "vs", "etc", "e.g", "i.e", "no", "inc", "ltd", "co", "u.s"]
)
_SENT_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")


def split_sentences(text: str) -> list[str]:
    """Split cleaned text into sentences.

    A run of ``.!?`` followed by whitespace and an uppercase letter or
    digit ends a sentence, unless the preceding word is a known
    abbreviation.  Concatenating the sentences with single spaces
    reconstructs the (cleaned) input; empty sentences never appear.
    """
    sentences: list[str] = []
    start = 0
    for match in _SENT_BOUNDARY_RE.finditer(text):
        end = match.end()
        prev_word = text[start : match.start()].rsplit(None, 1)[-1:]
        if prev_word and prev_word[0].lower() in _ABBREVIATIONS:
            continue
        chunk = text[start:end].strip()
        if chunk:
            sentences.append(chunk)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# A word is letters/digits, optionally chained by apostrophes or hyphens
# ("it's", "state-of-the-art").  Anything else is punctuation and dropped.
_WORD_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")


def tokenize_words(sentence: str) -> list[str]:
    """Lowercase a sentence and return its word tokens in order."""
    return _WORD_RE.findall(sentence.lower())


def preprocess_document(doc: RawDocument) -> list[list[str]]:
    """Full per-document pipeline: joined text to per-sentence token lists.

    Sentences that tokenize to nothing (pure punctuation) are dropped so
    grids never contain interior all-pad rows.
    """
    cleaned = clean_text(doc.text())
    token_lists = [tokenize_words(s) for s in split_sentences(cleaned)]
    return [tokens for tokens in token_lists if tokens]


# --------------------------------------------------------------------------
# Thresholds and grids
# --------------------------------------------------------------------------

def compute_doc_threshold(sentence_counts: Sequence[int]) -> int:
    """Sentences-per-document threshold of a non-empty corpus:
    ceil(mean + 1.5 * population stddev).

    Values within 1e-9 of an integer are snapped to it before the ceiling
    to keep floating-point dust from causing an off-by-one.
    """
    mu = float(np.mean(sentence_counts))
    sigma = float(np.std(sentence_counts))  # population stddev
    value = mu + 1.5 * sigma
    nearest = round(value)
    if abs(value - nearest) <= 1e-9:
        return max(1, int(nearest))
    return max(1, math.ceil(value))


def corpus_stats(dataset: Iterable[RawDocument]) -> dict:
    """Single-pass corpus statistics over at least one document, by name.

    Crop percentages use strict inequalities: a sentence is cropped when it
    has more than SENT_LEN words and a document when it has more than the
    derived threshold sentences.
    """
    cropped_sentences = 0
    docs_with_cropped_sentences = 0
    max_words = 0
    vocab: set[str] = set()
    sent_counts: list[int] = []  # sentences per document

    for doc in dataset:
        token_lists = preprocess_document(doc)
        sent_counts.append(len(token_lists))
        doc_has_cropped = False
        for tokens in token_lists:
            n_words = len(tokens)
            max_words = max(max_words, n_words)
            if n_words > SENT_LEN:
                cropped_sentences += 1
                doc_has_cropped = True
            vocab.update(tokens)
        if doc_has_cropped:
            docs_with_cropped_sentences += 1

    num_docs = len(sent_counts)
    num_sentences = sum(sent_counts)
    # Sorted: np.std's last bit depends on the order of the counts, and
    # the statistics must not depend on the order of the documents.
    counts = np.array(sorted(sent_counts), dtype=np.int64)
    mu = float(np.mean(counts))
    sigma = float(np.std(counts))
    t_d = compute_doc_threshold(counts)
    cropped_docs = sum(c > t_d for c in sent_counts)

    return {
        "num_documents": num_docs,
        "num_sentences": num_sentences,
        "pct_cropped_sentences": 100.0 * cropped_sentences / max(1, num_sentences),
        "pct_cropped_documents": 100.0 * cropped_docs / num_docs,
        "pct_docs_with_cropped_sentences": 100.0 * docs_with_cropped_sentences / num_docs,
        "max_sentences_per_doc": max(sent_counts),
        "max_words_per_sentence": max_words,
        "vocab_size": len(vocab),
        "mean_sentences_per_doc": mu,
        "stddev_sentences_per_doc": sigma,
        "t_d": t_d,
    }


# --------------------------------------------------------------------------
# Grid datasets
# --------------------------------------------------------------------------

@dataclass
class GridDataset:
    """Token grids in id form: 0 is the pad id, token i of *vocab* has id i+1."""

    vocab: list[str]
    labels: np.ndarray  # (N,) int64
    grids: np.ndarray  # (N, doc_len, sent_len) int32


def build_grid_dataset(
    docs: Iterable[RawDocument], doc_len: int, sent_len: int
) -> GridDataset:
    """Preprocess, crop and id-encode a dataset; vocab is first-seen order."""
    return build_grid_dataset_from_token_docs(
        ((doc.label, preprocess_document(doc)) for doc in docs), doc_len, sent_len
    )


def build_grid_dataset_from_token_docs(
    token_docs: Iterable[tuple[int, list[list[str]]]], doc_len: int, sent_len: int
) -> GridDataset:
    """Crop and id-encode already-preprocessed (label, sentences) pairs.

    Keeps the first *doc_len* sentences and the first *sent_len* tokens of
    each; every other cell holds the pad id 0.  There must be at least one
    document, and both dimensions must be at least 1.
    """
    vocab: dict[str, int] = {}
    labels: list[int] = []
    grid_rows: list[np.ndarray] = []
    for label, token_lists in token_docs:
        ids = np.zeros((doc_len, sent_len), dtype=np.int32)
        for i, tokens in enumerate(token_lists[:doc_len]):
            row = [vocab.setdefault(tok, len(vocab) + 1) for tok in tokens[:sent_len]]
            ids[i, : len(row)] = row
        labels.append(label)
        grid_rows.append(ids)
    return GridDataset(
        vocab=list(vocab),
        labels=np.array(labels, dtype=np.int64),
        grids=np.stack(grid_rows),
    )
