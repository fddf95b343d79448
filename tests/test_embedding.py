from __future__ import annotations

import codecs
import os
import re
import tempfile
import time
import tracemalloc
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
from slcnn import embedding, fileio
from slcnn.embedding import (
    INDEX_SUFFIX,
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

    @pytest.mark.parametrize("tokens", [None, {"a"}], ids=["all", "kept"])
    def test_byte_order_mark_keeps_the_first_vector(self, tmp_path, tokens):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"\xef\xbb\xbfa 1.0 2.0\nb 3.0 4.0\n")
        table = load_embeddings(path, 2, tokens)
        assert table.vocab["a"] == 0
        assert table.matrix[0].tolist() == [1.0, 2.0]

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


def _document(data: EmbeddedDataset, i: int) -> np.ndarray:
    """Document *i* of *data* as the float tensor its ids index."""
    return data.matrix[data.grids[i]]


class TestTensorize:
    def test_all_pad_grid_is_zero(self, toy_table):
        data = _tensors([(1, [])], 3, 4, toy_table)
        assert data.grids.shape == (1, 3, 4) and not data.grids.any()
        assert np.array_equal(_document(data, 0), helpers.tensorize([], 3, 4, toy_table))
        assert data.labels.tolist() == [1]

    def test_single_token(self, toy_table):
        tensor = _document(_tensors([(0, [["a"]])], 2, 3, toy_table), 0)
        assert np.array_equal(tensor, helpers.tensorize([["a"]], 2, 3, toy_table))
        assert tensor[0, 0].tolist() == [1.0, 2.0]
        assert np.count_nonzero(tensor) == 2

    def test_l1_sum_matches_per_token_recomputation(self, toy_table):
        doc = RawDocument(0, ["A b qzxv. B unknown a!"])
        tensor = _document(EmbeddedDataset.build(build_grid_dataset([doc], 4, 5), toy_table), 0)
        assert np.array_equal(tensor, helpers.tensorize(preprocess_document(doc), 4, 5, toy_table))
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
        t1 = _document(EmbeddedDataset.build(grid, load_embeddings(path, 2)), 0)
        t2 = _document(EmbeddedDataset.build(grid, load_embeddings(path, 2)), 0)
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


def _write(lines: list[str], eol: str, final_eol: bool, directory: str,
           bom: bool = False) -> Path:
    text = eol.join(lines) + (eol if lines and final_eol else "")
    path = Path(directory) / "emb.txt"
    path.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8"))
    return path


def _outcome(load, path: Path):
    """("ok", vocab, matrix bits) or ("error", line number, or None for a
    file with no lines)."""
    try:
        vocab, matrix = load(path)
    except EmbeddingFormatError as exc:
        line = re.search(r":(\d+):", str(exc))
        return ("error", int(line.group(1)) if line else None)
    return ("ok", vocab, matrix.shape, matrix.view(np.uint32).tobytes())


def _both(path: Path, dim: int, tokens: set[str] | None = None):
    def new(p):
        table = load_embeddings(p, dim, tokens)
        return table.vocab, table.matrix

    return _outcome(new, path), _outcome(
        lambda p: helpers.load_embeddings_per_line(p, dim, tokens), path)


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
    @given(embedding_lines(), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
    @example((3, []), "\n", True)
    def test_matches_per_line_oracle(self, case, eol, final_eol):
        dim, lines = case
        with tempfile.TemporaryDirectory() as tmp:
            new, oracle = _both(_write(lines, eol, final_eol, tmp), dim)
        assert new == oracle
        if not lines:
            assert new == ("error", None)

    @settings(max_examples=300, deadline=None)
    @given(embedding_lines(), st.sampled_from(sorted(MALFORMED)), st.data(),
           st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
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


@st.composite
def filtered_lines(draw) -> tuple[int, list[str], set[str]]:
    """embedding_lines, perhaps with one MALFORMED line, and a token set:
    tokens of the file, duplicated ones among them, and tokens it lacks."""
    dim, lines = draw(embedding_lines())
    kind = draw(st.none() | st.sampled_from(sorted(MALFORMED)))
    if kind is not None:
        at = draw(st.integers(0, len(lines)))
        lines = lines[:at] + [MALFORMED[kind](dim)] + lines[at:]
    in_file = sorted({line.split(" ")[0] for line in lines})
    tokens = draw(st.sets(st.sampled_from(in_file) | TOKENS if in_file else TOKENS,
                          max_size=6))
    return dim, lines, tokens


class TestVocabularyFilter:
    """load_embeddings(path, dim, tokens) parses only the kept tokens' rows."""

    @settings(max_examples=300, deadline=None)
    @given(filtered_lines(), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
    @example((2, ["a 1 2", "b 3 4", "a 5 6"], set()), "\n", True)
    @example((2, ["a 1 2", "b 3 4", "a 5 6"], {"a", "zz"}), "\n", True)
    def test_matches_per_line_oracle_and_full_parse(self, case, eol, final_eol):
        dim, lines, tokens = case
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(lines, eol, final_eol, tmp)
            new, oracle = _both(path, dim, tokens)
            assert new == oracle
            try:
                full = load_embeddings(path, dim)
            except EmbeddingFormatError:
                return
            table = load_embeddings(path, dim, tokens)
        assert set(table.vocab) == tokens & set(full.vocab)
        for token, row in table.vocab.items():
            assert np.array_equal(table.matrix[row].view(np.uint32),
                                  full.matrix[full.vocab[token]].view(np.uint32))
        vocab = sorted(tokens)
        assert (embedding_matrix_for_vocab(table, vocab).tobytes()
                == embedding_matrix_for_vocab(full, vocab).tobytes())

    @pytest.mark.parametrize("bad", ["oops", "nan", "3e40"])
    def test_bad_number_of_an_unkept_token_is_not_parsed(self, tmp_path, bad):
        path = tmp_path / "emb.txt"
        path.write_text(f"a 1.0 2.0\nb 1.0 {bad}\nc 3.0 4.0\n", encoding="utf-8")
        new, oracle = _both(path, 2, {"a", "c", "absent"})
        assert new == oracle
        assert new[:2] == ("ok", {"a": 0, "c": 1})
        assert _both(path, 2, {"b"})[0] == ("error", 2)

    def test_utf8_checked_on_every_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 1 2\ncaf\xe9 1 2\n")
        with pytest.raises(EmbeddingFormatError, match=":2: not UTF-8"):
            load_embeddings(path, 2, {"a"})

    def test_a_line_that_is_not_utf8_is_counted_as_the_scan_counts(self, tmp_path):
        # The scan ends a line at a bare CR too.
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 1 2\rb 3 4\rcaf\xe9 1 2\r")
        with pytest.raises(EmbeddingFormatError, match=":3: not UTF-8"):
            load_embeddings(path, 2, {"a"})


# --------------------------------------------------------------------------
# The line index beside the file
# --------------------------------------------------------------------------

def _index(path: Path) -> Path:
    return path.with_name(path.name + INDEX_SUFFIX)


def _loaded(path: Path, dim: int, tokens: set[str] | None):
    def load(p):
        table = load_embeddings(p, dim, tokens)
        return table.vocab, table.matrix

    return _outcome(load, path)


def _rewrite_index(path: Path, **members) -> None:
    """Rewrite the index of *path* with *members* replaced."""
    fileio.write_npz(_index(path), {**fileio.read_npz(_index(path)), **members})


class TestLineIndex:
    TEXT = "a 1.0 2.0\nb 3.0 4.0\na 9.0 9.0\nc -0.5 0.25\nd 5.0 6.0\n"

    @pytest.fixture
    def settled(self, tmp_path) -> Path:
        path = tmp_path / "emb.txt"
        path.write_text(self.TEXT, encoding="utf-8")
        return helpers.back_date(path)

    def test_written_then_used(self, settled, monkeypatch):
        tokens = {"a", "c", "absent"}
        scanned = _loaded(settled, 2, tokens)
        assert _index(settled).exists()
        assert scanned[:2] == ("ok", {"a": 0, "c": 1})
        full = load_embeddings(settled, 2)
        monkeypatch.setattr(embedding, "_scan", None)  # any scan now fails
        assert _loaded(settled, 2, tokens) == scanned
        table = load_embeddings(settled, 2, tokens)
        assert table.matrix.tobytes() == full.matrix[[full.vocab["a"], full.vocab["c"]]].tobytes()
        assert _loaded(settled, 2, set()) == ("ok", {}, (0, 2), b"")

    def test_the_index_records_each_line(self, settled):
        load_embeddings(settled, 2, set())
        index = fileio.read_npz(_index(settled))
        assert sorted(index) == ["dim", "key", "offsets", "tokens"]
        assert bytes(index["tokens"]).decode("utf-8") == "a\nb\na\nc\nd\n"
        raw = settled.read_bytes()
        assert [raw[o:].split(b" ")[0] for o in index["offsets"]] == [b"a", b"b", b"a", b"c",
                                                                      b"d"]
        assert int(index["dim"]) == 2

    def test_building_an_index_holds_one_copy_of_the_lines(self, tmp_path):
        # The scan records each line's token and offset in byte buffers that
        # the write reads as they are: about 40 bytes a line at the peak,
        # where text buffers and their copies took about 80.
        lines = 50_000
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i} 0.5 -0.25\n" for i in range(lines)), encoding="utf-8")
        helpers.back_date(path)
        tracemalloc.start()
        try:
            load_embeddings(path, 2, {"w0", "w7"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _index(path).exists()
        assert peak <= 64 * lines

    @pytest.mark.parametrize("age_s", [0.0, 1.0])
    def test_a_recent_file_gets_no_index(self, tmp_path, age_s):
        path = tmp_path / "emb.txt"
        path.write_text(self.TEXT, encoding="utf-8")
        if age_s:
            helpers.back_date(path, age_s)
        assert _loaded(path, 2, {"a"})[0] == "ok"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    def test_the_full_parse_reads_and_writes_no_index(self, settled, monkeypatch):
        load_embeddings(settled, 2)
        assert sorted(p.name for p in settled.parent.iterdir()) == ["emb.txt"]
        load_embeddings(settled, 2, {"a"})
        assert _index(settled).exists()
        monkeypatch.setattr(embedding, "_indexed_rows", None)  # any read now fails
        assert load_embeddings(settled, 2).vocab == {"a": 0, "b": 1, "c": 2, "d": 3}

    @pytest.mark.parametrize("text", ["", "\ufeff"], ids=["empty", "bom_only"])
    @pytest.mark.parametrize("tokens", [None, {"a"}], ids=["all", "kept"])
    def test_a_file_with_no_lines_is_malformed(self, tmp_path, text, tokens):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        helpers.back_date(path)
        with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(str(path))}: "):
            load_embeddings(path, 2, tokens)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    @pytest.mark.parametrize("raw", [
        b"\xef\xbb\xbfa 1 2\nb 3 4\na 5 6\nc 7 8\n",
        b"a 1 2\r\nb 3 4\r\na 5 6\r\nc 7 8\r\n",
        b"\xef\xbb\xbfa 1 2\r\nb 3 4\r\na 5 6\r\nc 7 8",
        "\u00e9t\u00e9 1 2\nb 3 4\n\u00e9t\u00e9 5 6\nc\u20ac 7 8\n".encode("utf-8"),
        b"a 1 2\nb 3 4\na 5 6\nc 7 8",
        b"a 1 2\rb 3 4\ra 5 6\rc 7 8\r",
        b"a 1 2\nb 3 4\r\na 5 6\rc 7 8\n",
    ], ids=["bom", "crlf", "bom_crlf_no_final_eol", "non_ascii", "no_final_eol", "bare_cr",
            "mixed"])
    def test_bom_crlf_and_duplicates_give_the_scans_matrix(self, tmp_path, raw, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_bytes(raw)
        tokens = {"a", "b", "c", "\u00e9t\u00e9", "c\u20ac"}
        scanned = _loaded(path, 2, tokens)  # too recent to index
        assert scanned[0] == "ok" and len(scanned[1]) == 3
        assert np.frombuffer(scanned[3], np.float32).tolist() == [1, 2, 3, 4, 7, 8]
        helpers.back_date(path)
        assert _loaded(path, 2, set()) == ("ok", {}, (0, 2), b"")
        assert _index(path).exists()
        monkeypatch.setattr(embedding, "_scan", None)  # any scan now fails
        assert _loaded(path, 2, tokens) == scanned

    def test_bad_value_on_a_kept_line_is_named_through_the_index(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\nc 5 oops\nd 7 inf\n", encoding="utf-8")
        kept = [{"a", "c"}, {"d", "b"}, {"c"}]
        scanned = [_loaded(path, 2, tokens) for tokens in kept]  # too recent to index
        assert scanned == [("error", 3), ("error", 4), ("error", 3)]
        helpers.back_date(path)
        assert _loaded(path, 2, {"a"})[0] == "ok"
        assert _index(path).exists()
        monkeypatch.setattr(embedding, "_scan", None)  # any scan now fails
        assert [_loaded(path, 2, tokens) for tokens in kept] == scanned
        with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(str(path))}:3: "):
            load_embeddings(path, 2, {"c"})

    @staticmethod
    def _rewrite_in_place(path: Path, old: bytes, new: bytes) -> None:
        """Replace *old* by *new*, of its size, in the file's own bytes, and
        restore its mtime; the change time moves on as the kernel's clock does."""
        before = path.stat()
        at = path.read_bytes().index(old)
        while True:
            with path.open("r+b") as handle:
                handle.seek(at)
                handle.write(new)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            if path.stat().st_ctime_ns != before.st_ctime_ns:
                return
            time.sleep(0.01)

    @pytest.mark.parametrize("old,new,outcome", [
        (b"c -0.5", b"e -0.5", ("ok", {"a": 0})),
        (b"d 5.0 6.0", b"d 5.0,6.0", ("error", 5)),
    ], ids=["kept_token_renamed", "unused_line_field_count"])
    def test_a_same_size_rewrite_is_not_served_from_the_old_index(self, settled, old, new,
                                                                 outcome):
        tokens = {"a", "c"}
        assert _loaded(settled, 2, tokens)[:2] == ("ok", {"a": 0, "c": 1})
        size = settled.stat().st_size
        self._rewrite_in_place(settled, old, new)
        assert settled.stat().st_size == size
        assert _loaded(settled, 2, tokens)[:2] == outcome
        fresh = settled.with_name("fresh.txt")
        fresh.write_bytes(settled.read_bytes())
        assert _loaded(fresh, 2, tokens)[:2] == outcome  # as the scan sees it

    def test_a_kept_line_that_no_longer_matches_means_a_scan(self, settled):
        # A rewrite the file's stat does not show: the index is re-keyed to
        # the rewritten file, so only the check of each kept line can tell.
        tokens = {"a", "c"}
        load_embeddings(settled, 2, tokens)
        self._rewrite_in_place(settled, b"c -0.5", b"e -0.5")
        _rewrite_index(settled, key=np.array(embedding._file_key(settled.stat())))
        assert _loaded(settled, 2, tokens)[:2] == ("ok", {"a": 0})
        names = bytes(fileio.read_npz(_index(settled))["tokens"]).decode("utf-8")
        assert names == "a\nb\na\ne\nd\n"  # rewritten by the scan

    def test_a_file_replaced_during_a_read_is_never_mixed_with_it(self, settled, monkeypatch):
        tokens = {"a", "c"}
        old = _loaded(settled, 2, tokens)
        assert _index(settled).exists()
        # Same layout, other values: the old index's offsets fit the new file.
        new = settled.with_name("new.txt")
        new.write_text(self.TEXT.replace("1.0 2.0", "1.5 2.5").replace("0.25", "0.75"),
                       encoding="utf-8")
        replaced = _loaded(new, 2, tokens)
        assert replaced[:2] == old[:2] and replaced[3] != old[3]
        index_path = embedding._index_path

        def replace_first(path):  # runs once the file is open, before its index is read
            monkeypatch.setattr(embedding, "_index_path", index_path)
            os.replace(new, settled)
            return index_path(path)

        monkeypatch.setattr(embedding, "_index_path", replace_first)
        assert _loaded(settled, 2, tokens) == old  # read from the open file
        assert _loaded(settled, 2, tokens) == replaced  # another key: a scan

    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "other_dim", "not_an_index",
                                        "short_offsets", "offsets_not_increasing", "no_lines"])
    def test_an_unusable_index_is_ignored_and_rewritten(self, settled, damage):
        tokens = {"a", "c"}
        scanned = _loaded(settled, 2, tokens)
        good = fileio.read_npz(_index(settled))
        raw = _index(settled).read_bytes()
        if damage == "truncated":
            _index(settled).write_bytes(raw[: len(raw) // 2])
        elif damage == "corrupt":
            at = raw.index(b"a\nb\na\nc\nd")
            _index(settled).write_bytes(raw[:at + 2] + b"x" + raw[at + 3:])
        elif damage == "other_dim":
            _rewrite_index(settled, dim=np.int64(3))
        elif damage == "not_an_index":
            _index(settled).write_text("a 1.0 2.0\n", encoding="utf-8")
        elif damage == "no_lines":
            _rewrite_index(settled, tokens=np.zeros(0, np.uint8), offsets=np.zeros(0, np.int64))
        elif damage == "short_offsets":
            _rewrite_index(settled, offsets=good["offsets"][:2])
        else:
            _rewrite_index(settled, offsets=good["offsets"][::-1].copy())
        assert _loaded(settled, 2, tokens) == scanned
        rewritten = fileio.read_npz(_index(settled))
        assert rewritten.keys() == good.keys()
        for name, array in good.items():
            assert np.array_equal(rewritten[name], array)

    def test_an_index_of_another_width_is_not_used(self, tmp_path):
        # The same file read at the wrong width fails as the scan does.
        path = tmp_path / "emb.txt"
        path.write_text(self.TEXT, encoding="utf-8")
        helpers.back_date(path)
        load_embeddings(path, 2, {"a"})
        with pytest.raises(EmbeddingFormatError, match=":1: expected token \\+ 3 values"):
            load_embeddings(path, 3, {"a"})

    def test_a_failed_index_write_is_skipped(self, settled, monkeypatch):
        def fail(path, data):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(fileio, "write_atomic", fail)
        assert _loaded(settled, 2, {"a"})[:2] == ("ok", {"a": 0})
        assert sorted(p.name for p in settled.parent.iterdir()) == ["emb.txt"]

    @settings(max_examples=200, deadline=None)
    @given(filtered_lines(), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(),
           st.booleans())
    @example((2, ["a 1 2", "b 3 4", "a 5 6"], {"a", "zz"}), "\r\n", True, True)
    def test_the_index_gives_the_scans_outcome(self, case, eol, final_eol, bom):
        dim, lines, tokens = case
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(lines, eol, final_eol, tmp, bom)
            scanned = _loaded(path, dim, tokens)  # too recent to index
            assert not _index(path).exists()
            helpers.back_date(path)
            built = _loaded(path, dim, set())
            assert _index(path).exists() == (built[0] == "ok")
            assert _loaded(path, dim, tokens) == scanned
            if not bom:
                assert scanned == _outcome(
                    lambda p: helpers.load_embeddings_per_line(p, dim, tokens), path)
