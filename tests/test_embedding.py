from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from slcnn.corpus import (
    RawDocument,
    build_grid_dataset,
    build_grid_dataset_from_token_docs,
    preprocess_document,
)
from slcnn.embedding import (
    EmbeddingFormatError,
    EmbeddingTable,
    embedding_matrix_for_vocab,
    load_embeddings,
    oov_vector,
)
from slcnn.model import EmbeddedDataset


@pytest.fixture
def toy_table(tmp_path) -> EmbeddingTable:
    path = tmp_path / "emb.txt"
    path.write_text("a 1.0 2.0\nb 3.0 4.0\n", encoding="utf-8")
    return load_embeddings(path, 2)


class TestLoadEmbeddings:
    def test_toy_parse(self, toy_table):
        assert len(toy_table.vocab) == 2
        assert toy_table.matrix[toy_table.vocab["a"]].tolist() == [1.0, 2.0]
        assert toy_table.matrix[toy_table.vocab["b"]].tolist() == [3.0, 4.0]

    def test_arity_error_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("x 1.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=":1:"):
            load_embeddings(path, 2)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("x 1.0 oops\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=":1:"):
            load_embeddings(path, 2)

    def test_duplicate_first_wins(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0\na 9.0 9.0\n", encoding="utf-8")
        table = load_embeddings(path, 2)
        assert len(table.vocab) == 1
        assert table.matrix[table.vocab["a"]].tolist() == [1.0, 2.0]

    def test_underscores_and_non_ascii_digits_rejected(self, tmp_path):
        # Stricter than Python float(), which accepts both spellings.
        for value in ("1_0", "\u0661"):
            path = tmp_path / "emb.txt"
            path.write_text(f"a 1.0 2.0\nb 3.0 {value}\n", encoding="utf-8")
            with pytest.raises(EmbeddingFormatError, match=":2:"):
                load_embeddings(path, 2)

    @pytest.mark.skipif(helpers.glove_file() is None,
                        reason="GloVe 6B.100d not present (set SLCNN_DATA_DIR)")
    def test_glove_full_file(self):
        table = load_embeddings(helpers.glove_file(), 100)
        assert len(table.vocab) == 400_000
        assert table.matrix.shape == (400_000, 100)


class TestLookup:
    """Rows of embedding_matrix_for_vocab, and the OOV draw behind them."""

    def test_pad_is_zero(self, toy_table):
        matrix = embedding_matrix_for_vocab(toy_table, ["a", "qzxv"])
        assert np.array_equal(matrix[0], np.zeros(2, dtype=np.float32))

    def test_in_vocab_bit_identical(self, toy_table):
        matrix = embedding_matrix_for_vocab(toy_table, ["qzxv", "b", "a"])
        assert np.array_equal(matrix[2], toy_table.matrix[toy_table.vocab["b"]])
        assert np.array_equal(matrix[3], toy_table.matrix[toy_table.vocab["a"]])

    def test_oov_deterministic_and_in_range(self, toy_table):
        first = embedding_matrix_for_vocab(toy_table, ["qzxv"])[1]
        assert np.array_equal(first, oov_vector("qzxv", 2))
        assert np.array_equal(first, embedding_matrix_for_vocab(toy_table, ["a", "qzxv"])[2])
        assert np.all(np.abs(first) <= 0.01)

    def test_oov_property_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            token = "".join(chr(rng.integers(97, 123)) for _ in range(rng.integers(1, 12)))
            vec = oov_vector(token, 100)
            assert vec.shape == (100,) and vec.dtype == np.float32
            assert np.all(vec >= -0.01) and np.all(vec <= 0.01)
            assert np.array_equal(vec, oov_vector(token, 100))

    def test_oov_depends_on_token_not_order(self, toy_table):
        vocab = ["word", "a", "other", "b", "third"]
        matrix = embedding_matrix_for_vocab(toy_table, vocab)
        order = [3, 0, 4, 2, 1]
        shuffled = embedding_matrix_for_vocab(toy_table, [vocab[k] for k in order])
        assert np.array_equal(shuffled[1:], matrix[1:][order])
        assert np.array_equal(matrix[1], oov_vector("word", 2))
        assert not np.array_equal(oov_vector("word", 8), oov_vector("other", 8))

    def test_oov_vector_is_pinned(self):
        # Bits of the FNV-1a/PCG64 draw; checkpoints trained on OOV rows
        # depend on them.  They are the draws of the former default seed 0.
        want = {("qzxv", 4): [3152358753, 3095880025, 3155363015, 1007343890],
                ("\u00e9tat", 3): [998469124, 1007605713, 3149930381]}
        for (token, dim), bits in want.items():
            assert oov_vector(token, dim).view(np.uint32).tolist() == bits


def _tensors(token_docs, doc_len: int, sent_len: int, table: EmbeddingTable) -> EmbeddedDataset:
    grid = build_grid_dataset_from_token_docs(token_docs, doc_len, sent_len)
    return EmbeddedDataset.build(grid, table)


class TestTensorize:
    def test_all_pad_grid_is_zero(self, toy_table):
        data = _tensors([(1, [])], 3, 4, toy_table)
        tensor = data.tensors(slice(None))
        assert tensor.shape == (1, 3, 4, 2)
        assert not tensor.any()
        assert data.labels.tolist() == [1]

    def test_single_token(self, toy_table):
        tensor = _tensors([(0, [["a"]])], 2, 3, toy_table).tensors(0)
        assert tensor[0, 0].tolist() == [1.0, 2.0]
        assert np.count_nonzero(tensor) == 2

    def test_l1_sum_matches_per_token_recomputation(self, toy_table):
        doc = RawDocument(0, ["A b qzxv. B unknown a!"])
        tensor = EmbeddedDataset.build(build_grid_dataset([doc], 4, 5), toy_table).tensors(0)
        expected = sum(
            float(np.abs(helpers.lookup(toy_table, tok)).sum())
            for sentence in preprocess_document(doc)[:4]
            for tok in sentence[:5]
        )
        assert float(np.abs(tensor).sum()) == pytest.approx(expected, rel=1e-6)

    def test_stage_is_pure_function_of_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.5 -0.25\nb 1.5 2.5\n", encoding="utf-8")
        grid = build_grid_dataset([RawDocument(0, ["A b mystery. Unknown b a."])], 3, 4)
        t1 = EmbeddedDataset.build(grid, load_embeddings(path, 2)).tensors(0)
        t2 = EmbeddedDataset.build(grid, load_embeddings(path, 2)).tensors(0)
        assert np.array_equal(t1, t2)


class TestEmbeddingMatrix:
    def test_id_path_matches_lookup_path(self, toy_table):
        vocab = ["b", "qzxv", "a"]
        matrix = embedding_matrix_for_vocab(toy_table, vocab)
        assert matrix.shape == (4, 2)
        assert not matrix[0].any()
        for i, token in enumerate(vocab):
            assert np.array_equal(matrix[i + 1], helpers.lookup(toy_table, token))


# --------------------------------------------------------------------------
# The one-pass parser against the per-line oracle
# --------------------------------------------------------------------------

# Tokens may hold any character but the field separator and line breaks.
TOKENS = st.text(st.characters(blacklist_characters=" \n\r", blacklist_categories=("Cs",)),
                 max_size=5)
VALUES = st.one_of(
    st.floats(width=32).flatmap(
        lambda x: st.sampled_from([f"{x:.4f}", repr(x), f"{x:e}"])
    ),
    st.floats().map(repr),
    st.sampled_from(["-0.0", "inf", "-inf", "nan", "-nan", "Infinity", "NaN", "1e-50", "3e40"]),
)


@st.composite
def embedding_lines(draw) -> tuple[int, list[str]]:
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(TOKENS, min_size=1, max_size=6))  # small pool: duplicates
    lines = [
        " ".join([draw(st.sampled_from(pool)), *draw(st.lists(VALUES, min_size=dim,
                                                                max_size=dim))])
        for _ in range(draw(st.integers(0, 12)))
    ]
    return dim, lines


def _write(lines: list[str], eol: str, final_eol: bool, directory: str) -> Path:
    text = eol.join(lines) + (eol if lines and final_eol else "")
    path = Path(directory) / "emb.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


def _outcome(load, path: Path):
    """("ok", vocab, matrix bits) or ("error", line number)."""
    try:
        vocab, matrix = load(path)
    except EmbeddingFormatError as exc:
        return ("error", int(re.search(r":(\d+):", str(exc)).group(1)))
    return ("ok", vocab, matrix.shape, matrix.view(np.uint32).tobytes())


def _both(path: Path, dim: int):
    def new(p):
        table = load_embeddings(p, dim)
        return table.vocab, table.matrix

    return _outcome(new, path), _outcome(lambda p: helpers.load_embeddings_per_line(p, dim),
                                         path)


MALFORMED = {
    "extra field": lambda dim: "bad " + " ".join(["1.5"] * (dim + 1)),
    "missing field": lambda dim: "bad " + " ".join(["1.5"] * (dim - 1)),
    "bad number": lambda dim: "bad " + " ".join(["1.5"] * (dim - 1) + ["oops"]),
    "double dot": lambda dim: "bad " + " ".join(["1.2.3"] + ["1.5"] * (dim - 1)),
    "empty field": lambda dim: "bad " + " ".join([""] + ["1.5"] * (dim - 1)),
    "trailing space": lambda dim: "bad " + " ".join(["1.5"] * dim) + " ",
    "blank line": lambda dim: "",
    "non-finite": lambda dim: "bad " + " ".join(["1.5"] * (dim - 1) + ["nan"]),
    "float32 overflow": lambda dim: "bad " + " ".join(["3e40"] + ["1.5"] * (dim - 1)),
}


class TestOnePassParser:
    @settings(max_examples=300, deadline=None)
    @given(embedding_lines(), st.sampled_from(["\n", "\r\n"]), st.booleans())
    @example((3, []), "\n", True)
    def test_matches_per_line_oracle(self, case, eol, final_eol):
        dim, lines = case
        with tempfile.TemporaryDirectory() as tmp:
            new, oracle = _both(_write(lines, eol, final_eol, tmp), dim)
        assert new == oracle
        if not lines:
            assert new[2] == (0, dim)

    @settings(max_examples=300, deadline=None)
    @given(embedding_lines(), st.sampled_from(sorted(MALFORMED)), st.data(),
           st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_malformed_line_named_like_oracle(self, case, kind, data, eol, final_eol):
        dim, lines = case
        at = data.draw(st.integers(0, len(lines)))
        lines = lines[:at] + [MALFORMED[kind](dim)] + lines[at:]
        with tempfile.TemporaryDirectory() as tmp:
            new, oracle = _both(_write(lines, eol, final_eol, tmp), dim)
        assert new == oracle

    @pytest.mark.parametrize("text,dim,line", [
        ("a 1 2\nb 1 2 3\n", 2, 2),
        ("a 1 2\nb 1\n", 2, 2),
        ("a 1 2\nb 1 x\n", 2, 2),
        ("a 1 2\nb  2\n", 2, 2),
        ("a 1 2\nb 1 2 \n", 2, 2),
        ("a 1 2\n\nb 1 2\n", 2, 2),
        ("a 1\nb \nc 2\n", 1, 2),
        ("a 1\nb ", 1, 2),
        ("a \n", 1, 1),
        ("a 1 2\nb 1 x\nc 1\n", 2, 2),
        ("a 1 2\nb 1\nc 1 x\n", 2, 2),
        ("a 1 2\na 1 x\nb 1 y\n", 2, 3),
        ("a 1 2\nb 1 nan\n", 2, 2),
        ("a 1 2\nb -Infinity 2\n", 2, 2),
        ("a 3e40 2\nb 1 2\n", 2, 1),
        ("a 1 2\nb 1 inf\nc 1 x\n", 2, 2),
        ("a 1 2\nb 1 x\nc 1 inf\n", 2, 2),
    ], ids=["arity-extra", "arity-missing", "bad-number", "empty-field", "trailing-space",
            "blank-line", "dim1-empty-value", "dim1-empty-value-at-eof", "dim1-first-line",
            "number-before-arity", "arity-before-number", "duplicate-values-unparsed",
            "nan", "negative-infinity", "float32-overflow", "non-finite-before-number",
            "number-before-non-finite"])
    def test_malformed_cases(self, tmp_path, text, dim, line):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        new, oracle = _both(path, dim)
        assert new == oracle == ("error", line)

    def test_bad_value_on_duplicate_line_is_not_parsed(self, tmp_path):
        for bad in ("oops", "nan"):
            path = tmp_path / "emb.txt"
            path.write_text(f"a 1.0 2.0\na 1.0 {bad}\n", encoding="utf-8")
            new, oracle = _both(path, 2)
            assert new == oracle
            assert new[0] == "ok"
