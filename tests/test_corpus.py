from __future__ import annotations

import json
import math
import re
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from slcnn import corpus
from slcnn.corpus import (
    DatasetFormatError,
    RawDocument,
    build_grid_dataset,
    build_grid_dataset_from_token_docs,
    clean_text,
    compute_doc_threshold,
    corpus_stats,
    load_dataset,
    preprocess_document,
    split_sentences,
    tokenize_words,
)


# --------------------------------------------------------------------------
# load_dataset
# --------------------------------------------------------------------------

def skipped_lines(caplog, path: Path) -> list[int]:
    """Line numbers of the rows load_dataset warned it skipped in *path*."""
    prefix = f"{path}:"
    return [
        int(r.getMessage()[len(prefix):].split(":", 1)[0])
        for r in caplog.records
        if r.levelname == "WARNING" and r.getMessage().startswith(prefix)
        and r.getMessage().endswith("(row skipped)")
    ]


class TestLoadDataset:
    def test_csv_row_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            '"3","Wall St. Bears","Short-sellers, Wall Street\'s band."\n', encoding="utf-8"
        )
        docs = list(load_dataset(path))
        assert len(docs) == 1
        assert docs[0].label == 2
        assert docs[0].fields == ["Wall St. Bears", "Short-sellers, Wall Street's band."]

    def test_newline_escapes_become_spaces(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"1","Line one.\\nLine two."\n', encoding="utf-8")
        (doc,) = load_dataset(path)
        assert doc.fields == ["Line one. Line two."]

    def test_empty_text_is_record_level_error(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        path.write_text('"1",""\n"2","Real text."\n', encoding="utf-8")
        docs = list(load_dataset(path))
        assert len(docs) == 1 and docs[0].label == 1
        assert skipped_lines(caplog, path) == [1]

    def test_strict_mode_aborts_with_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"1","ok."\n"zero","bad."\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=":2:"):
            list(load_dataset(path, strict=True))

    def test_non_positive_class_index_rejected(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        path.write_text('"0","text."\n', encoding="utf-8")
        assert list(load_dataset(path)) == []
        assert skipped_lines(caplog, path) == [1]

    def test_schema_arity_check(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        path.write_text('"1","title","body"\n"1","only-title"\n', encoding="utf-8")
        docs = list(load_dataset(path, schema=["title", "body"]))
        assert len(docs) == 1
        assert skipped_lines(caplog, path) == [2]

    def test_jsonl(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"label": 2, "text": "Hello there."}) + "\n"
            + json.dumps({"label": True, "text": "A bool is no class index."}) + "\n"
            + json.dumps({"label": 1, "text": ""}) + "\n",
            encoding="utf-8",
        )
        docs = list(load_dataset(path))
        assert len(docs) == 1
        assert docs[0].label == 1 and docs[0].fields == ["Hello there."]
        assert skipped_lines(caplog, path) == [2, 3]
        with pytest.raises(DatasetFormatError, match=":2: class index True"):
            list(load_dataset(path, strict=True))

    @pytest.mark.parametrize("name,raw", [
        ("d.csv", b'1,"a b"\r2,"c d"\r1,"caf\xe9"\r'),
        ("d.jsonl", b'{"label": 1, "text": "a"}\r{"label": 2, "text": "b"}\r'
                    b'{"label": 1, "text": "caf\xe9"}\r'),
    ], ids=["csv", "jsonl"])
    def test_a_line_that_is_not_utf8_is_counted_as_the_reader_counts(self, tmp_path, name, raw):
        # The readers end a line at a bare CR too.
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(DatasetFormatError, match=":3: not UTF-8"):
            list(load_dataset(path))

    @pytest.mark.skipif(helpers.dataset_file("ag", "train") is None,
                        reason="AG News data not present (set SLCNN_DATA_DIR)")
    def test_ag_news_train_counts(self):
        labels = {d.label for d in load_dataset(helpers.dataset_file("ag", "train"))}
        count = sum(1 for _ in load_dataset(helpers.dataset_file("ag", "train")))
        assert count == 120_000
        assert labels == {0, 1, 2, 3}


# --------------------------------------------------------------------------
# clean_text
# --------------------------------------------------------------------------

def _whitespace() -> list[str]:
    """Every code point that re's ``\\s`` or str.isspace takes for whitespace."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    return sorted(set(re.findall(r"\s", every)) | set(filter(str.isspace, every)))


_SPACES = _whitespace()
# Pieces of markup-heavy text: tags, entities (U+200B is no whitespace, U+2028
# is), every whitespace code point, raw and as an entity, and abbreviations.
_MARKUP_PIECES = [
    "<b>", "</p>", "<br/>", "<a href='x'>", "<", ">", "&nbsp;", "&#8203;", "&#x2028;",
    "&amp;", "&lt;i&gt;", *_SPACES, *(f"&#x{ord(c):x};" for c in _SPACES),
    "Dr.", "e.g.", "U.S.", "No.", "etc.", "Smith", "He", ". ", "! ", "? ", "42", "word",
]


class TestCleanText:
    def test_tag_strip_and_whitespace_collapse(self):
        assert clean_text("<b>Good</b>  phone.") == "Good phone."

    def test_empty(self):
        assert clean_text("") == ""

    def test_entities_decoded(self):
        assert clean_text("A &amp; B") == "A & B"

    def test_escaped_markup_removed(self):
        assert clean_text("&lt;b&gt;bold&lt;/b&gt; text") == "bold text"

    def test_no_tag_syntax_survives(self):
        out = clean_text("a <b attr='<'>x</b> c <<i>> done")
        assert "<" not in out or ">" not in out

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text):
        once = clean_text(text)
        assert clean_text(once) == once

    @given(st.text(alphabet="ab<>&;amplt ", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_idempotent_markupish(self, text):
        once = clean_text(text)
        assert clean_text(once) == once

    @given(st.lists(st.one_of(st.sampled_from(_MARKUP_PIECES), st.text(max_size=8)),
                    max_size=30))
    @settings(max_examples=500, deadline=None)
    def test_preprocess_matches_the_regex_whitespace_oracle(self, pieces):
        text = "".join(pieces)
        cleaned = helpers.clean_text_regex(text)
        want = [tokenize_words(s) for s in split_sentences(cleaned)]
        assert clean_text(text) == cleaned
        assert preprocess_document(RawDocument(label=0, fields=[text])) == \
            [tokens for tokens in want if tokens]


# --------------------------------------------------------------------------
# split_sentences
# --------------------------------------------------------------------------

class TestSplitSentences:
    def test_three_unambiguous(self):
        assert split_sentences("I came. I saw. I left.") == ["I came.", "I saw.", "I left."]

    def test_single_terminator(self):
        assert split_sentences("Great!") == ["Great!"]

    def test_abbreviation_suppression(self):
        assert split_sentences("Dr. Smith arrived. He left.") == ["Dr. Smith arrived.", "He left."]

    def test_no_trailing_terminator(self):
        assert split_sentences("Take this") == ["Take this"]

    def test_empty(self):
        assert split_sentences("") == []

    def test_digit_starts_sentence(self):
        assert split_sentences("It ended. 42 people stayed.") == ["It ended.", "42 people stayed."]

    def test_golden_corpus_by_construction(self):
        # The true segmentation is known because the documents are built by
        # joining known sentences; 200 sentences cover the tricky cases.
        docs = helpers.golden_documents(200)
        total = 0
        for text, expected in docs:
            got = split_sentences(text)
            assert got == expected, f"segmentation differs for: {text!r}"
            total += len(expected)
        assert total == 200

    def test_coverage_reconstruction(self):
        for text, _ in helpers.golden_documents(60):
            assert " ".join(split_sentences(text)) == text


# --------------------------------------------------------------------------
# tokenize_words
# --------------------------------------------------------------------------

class TestTokenizeWords:
    def test_lowercase_and_strip_period(self):
        assert tokenize_words("The CAT sat.") == ["the", "cat", "sat"]

    def test_apostrophe_and_hyphen_retained(self):
        assert tokenize_words("it's state-of-the-art") == ["it's", "state-of-the-art"]

    def test_punctuation_only(self):
        assert tokenize_words("!!!") == []

    def test_empty(self):
        assert tokenize_words("") == []

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_tokens_lowercase_and_nonempty(self, sentence):
        for token in tokenize_words(sentence):
            assert token == token.lower()
            assert token


# --------------------------------------------------------------------------
# compute_doc_threshold
# --------------------------------------------------------------------------

class TestDocThreshold:
    def test_zero_variance(self):
        assert compute_doc_threshold([4, 4, 4, 4]) == 4

    def test_exact_arithmetic(self):
        # mean 3.0, population stddev 2.0 -> ceil(6.0) = 6
        assert compute_doc_threshold([1, 1, 5, 5]) == 6

    def test_singleton(self):
        for n in (1, 3, 17):
            assert compute_doc_threshold([n]) == n

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, counts, shift):
        # Adding a constant shifts the mean and not the stddev.
        base = compute_doc_threshold(counts)
        assert compute_doc_threshold([c + shift for c in counts]) == base + shift

    @given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_at_least_ceil_mean(self, counts):
        assert compute_doc_threshold(counts) >= math.ceil(statistics.fmean(counts) - 1e-9)


# --------------------------------------------------------------------------
# Cropping and padding into id grids
# --------------------------------------------------------------------------

def _ids(doc: list[list[str]], doc_len: int, sent_len: int) -> np.ndarray:
    """The (doc_len, sent_len) id grid of one preprocessed document."""
    return build_grid_dataset_from_token_docs([(0, doc)], doc_len, sent_len).grids[0]


class TestCropPad:
    def test_pad_rows(self):
        assert _ids([["a", "b"], ["c"]], 4, 3).tolist() == [
            [1, 2, 0], [3, 0, 0], [0, 0, 0], [0, 0, 0],
        ]

    def test_crop_long_sentence(self):
        ds = build_grid_dataset_from_token_docs([(0, [[f"w{i}" for i in range(50)]])], 1, 46)
        assert ds.grids[0, 0].tolist() == list(range(1, 47))
        assert ds.vocab == [f"w{i}" for i in range(46)]

    def test_crop_document(self):
        doc = [[f"s{i}"] for i in range(25)]
        ds = build_grid_dataset_from_token_docs([(0, doc)], 20, 5)
        assert ds.grids.shape == (1, 20, 5)
        assert ds.grids[0, :, 0].tolist() == list(range(1, 21))
        assert not ds.grids[0, :, 1:].any()
        assert ds.vocab == [f"s{i}" for i in range(20)]

    def test_pad_positions_are_suffixes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            doc = [
                [f"t{j}" for j in range(rng.integers(1, 8))]
                for _ in range(rng.integers(0, 6))
            ]
            real = _ids(doc, 4, 5) != 0
            for row in real:
                assert row.tolist() == sorted(row.tolist(), reverse=True), \
                    "interior padding inside a row"
            rows = real.any(axis=1).tolist()
            assert rows == sorted(rows, reverse=True), "interior all-pad row"

    def test_coverage_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            doc = [
                ["w"] * int(rng.integers(1, 60))
                for _ in range(rng.integers(1, 30))
            ]
            doc_len, sent_len = 4, 46
            expected = sum(min(len(s), sent_len) for s in doc[:doc_len])
            assert np.count_nonzero(_ids(doc, doc_len, sent_len)) == expected

    @given(st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8), max_size=7),
           st.integers(1, 5), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_ids_decode_to_string_crop(self, doc, doc_len, sent_len):
        ds = build_grid_dataset_from_token_docs([(0, doc)], doc_len, sent_len)
        crop = [sentence[:sent_len] for sentence in doc[:doc_len]]
        decoded = [[ds.vocab[k - 1] for k in row if k] for row in ds.grids[0]]
        assert decoded == crop + [[]] * (doc_len - len(crop))
        assert ds.vocab == list(dict.fromkeys(tok for sentence in crop for tok in sentence))


# --------------------------------------------------------------------------
# corpus_stats
# --------------------------------------------------------------------------

class TestCorpusStats:
    def test_single_trivial_document(self):
        docs = [RawDocument(0, ["One two three."])]
        stats = corpus_stats(docs)
        assert stats.num_documents == 1
        assert stats.num_sentences == 1
        assert stats.pct_cropped_sentences == 0
        assert stats.pct_cropped_documents == 0
        assert stats.pct_docs_with_cropped_sentences == 0
        assert stats.t_d == 1
        assert stats.vocab_size == 3

    def test_boundary_strictly_greater(self):
        word_47 = " ".join(f"tok{i}" for i in range(47)) + "."
        word_46 = " ".join(f"tok{i}" for i in range(46)) + "."
        stats = corpus_stats([RawDocument(0, [word_47]), RawDocument(1, [word_47])])
        assert stats.pct_cropped_sentences == 100.0
        stats_ok = corpus_stats([RawDocument(0, [word_46])])
        assert stats_ok.pct_cropped_sentences == 0.0

    def test_against_bruteforce_oracle(self):
        docs = helpers.make_synthetic_docs(25, num_classes=4, seed=3, html_noise=True)
        # A sentence of 61 words, past t_s = 46, so the crop stats are non-trivial.
        docs.append(RawDocument(0, ["A" + " word" * 60 + "."]))
        stats = corpus_stats(docs)
        expected = helpers.corpus_stats_bruteforce(docs, 46)
        assert expected["pct_cropped_sentences"] > 0
        for key, value in expected.items():
            got = getattr(stats, key)
            assert got == pytest.approx(value), key

    def test_percentages_in_range_and_max_vs_mean(self):
        docs = helpers.make_synthetic_docs(10, seed=9)
        stats = corpus_stats(docs)
        for pct in (
            stats.pct_cropped_sentences,
            stats.pct_cropped_documents,
            stats.pct_docs_with_cropped_sentences,
        ):
            assert 0.0 <= pct <= 100.0
        assert stats.max_sentences_per_doc >= stats.mean_sentences_per_doc
        assert stats.t_d >= math.ceil(stats.mean_sentences_per_doc - 1e-9)


# --------------------------------------------------------------------------
# preprocess pipeline glue
# --------------------------------------------------------------------------

class TestPreprocessDocument:
    def test_title_becomes_first_sentence(self):
        doc = RawDocument(0, ["Big Title", "Body sentence one. Body two."])
        assert preprocess_document(doc) == [
            ["big", "title"],
            ["body", "sentence", "one"],
            ["body", "two"],
        ]

    def test_punctuation_only_sentences_dropped(self):
        doc = RawDocument(0, ["Real words here. !!! More words."])
        token_lists = preprocess_document(doc)
        assert [] not in token_lists

    def test_empty_after_tokenize(self):
        assert preprocess_document(RawDocument(0, ["?!"])) == []


# --------------------------------------------------------------------------
# grid dataset
# --------------------------------------------------------------------------

class TestGridDataset:
    def test_ids_and_vocab(self):
        docs = [
            RawDocument(1, ["Alpha beta."]),
            RawDocument(0, ["Beta gamma alpha."]),
        ]
        ds = build_grid_dataset(docs, 2, 4)
        assert ds.vocab == ["alpha", "beta", "gamma"]
        assert ds.grids[0, 0, 0] == 1  # alpha
        assert ds.grids[0, 0, 1] == 2  # beta
        assert ds.grids[0, 0, 2] == 0  # pad
        assert ds.grids[1, 0, :3].tolist() == [2, 3, 1]
        assert ds.labels.tolist() == [1, 0]
