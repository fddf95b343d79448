"""Seeded synthetic inputs for the benchmark workloads, with an on-disk cache.

The program only ever sees the files written here: dataset CSVs in the
Zhang, Zhao & LeCun (2015) layout (1-based label, then text fields), a
GloVe-style text embedding file, and for ``serve_cold`` a checkpoint and
the texts to classify.  Everything derives from ``(workload, seed)``; the
same pair and ``GEN_VERSION`` always give byte-identical files.

The generator also records what the inputs look like (documents, mean
sentences per document, cropped-sentence fraction, OOV type fraction and
embedding rows), counted from the tokens it emitted, so the traced run's
own counts of the same properties can be checked against them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GEN_VERSION = 2

EMBED_DIM = 100
SENT_LEN = 46  # the CLI's default --ts; longer sentences are cropped
OOV_TYPE_FRAC = 0.08
GENERAL_WORDS = 16_000
TOPIC_WORDS = 8  # per class
MAX_CLASSES = 5  # the most classes any workload uses

# Inputs per workload.  "full" is what the benchmark measures; "smoke" is a
# seconds-long size for the bench's own tests.
SIZES = {
    "full": {
        "embed_rows": 100_000,
        "ag_train_docs": 640, "ag_test_docs": 400, "ag_epochs": 3,
        "yelp_train_docs": 256, "yelp_epochs": 3,
        "serve_eval_docs": 3000, "serve_predict_texts": 2,
    },
    "smoke": {
        "embed_rows": 3_000,
        "ag_train_docs": 192, "ag_test_docs": 40, "ag_epochs": 8,
        "yelp_train_docs": 48, "yelp_epochs": 3,
        "serve_eval_docs": 60, "serve_predict_texts": 2,
    },
}

CACHE_ENTRIES_KEPT = 3

_CONSONANTS = list("bdfghklmnprstvz")
_VOWELS = list("aeiou")
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

# Mid-sentence abbreviations: (surface text, tokens the CLI's tokenizer
# makes of it, whether the next word is capitalized).  The splitter's
# abbreviation list keeps each from ending a sentence.
_ABBREVIATIONS = [
    ("Dr.", ["dr"], True),
    ("Mr.", ["mr"], True),
    ("e.g.", ["e", "g"], False),
    ("etc.", ["etc"], False),
    ("U.S.", ["u", "s"], True),
]


@dataclass
class Doc:
    label: int  # 0-based
    fields: list[str]  # raw text as written to the CSV
    sentences: list[list[str]]  # the tokens the CLI's preprocessing yields


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def lexicon(seed: int, n_words: int) -> list[str]:
    """*n_words* distinct lowercase pseudo-words of 3-4 syllables."""
    rng = _rng(seed, 1)
    words: dict[str, None] = {}
    while len(words) < n_words:
        need = n_words - len(words)
        lengths = rng.integers(3, 5, size=need + need // 8 + 16)
        picks = rng.integers(0, len(_SYLLABLES), size=(len(lengths), 4))
        for n, row in zip(lengths.tolist(), picks.tolist()):
            words.setdefault("".join(_SYLLABLES[i] for i in row[:n]))
            if len(words) == n_words:
                break
    return list(words)


class Vocabulary:
    """Corpus word pool for one seed: Zipf-distributed general words plus
    per-class topic words that make the labels learnable."""

    def __init__(self, seed: int) -> None:
        pool = lexicon(seed, GENERAL_WORDS + MAX_CLASSES * TOPIC_WORDS)
        self.general = pool[:GENERAL_WORDS]
        self.topics = [
            pool[GENERAL_WORDS + c * TOPIC_WORDS : GENERAL_WORDS + (c + 1) * TOPIC_WORDS]
            for c in range(MAX_CLASSES)
        ]
        ranks = np.arange(1, GENERAL_WORDS + 1, dtype=np.float64)
        weights = 1.0 / (ranks + 2.7) ** 1.07
        self.general_p = weights / weights.sum()

    @property
    def words(self) -> list[str]:
        return self.general + [w for topic in self.topics for w in topic]


def _sentence(rng, vocab: Vocabulary, label: int, n_words: int, topic_p: float,
              abbrev_p: float) -> tuple[str, list[str]]:
    general = rng.choice(GENERAL_WORDS, size=n_words, p=vocab.general_p)
    topical = rng.random(n_words) < topic_p
    topic_idx = rng.integers(0, TOPIC_WORDS, size=n_words)
    tokens = [
        vocab.topics[label][t] if is_topic else vocab.general[g]
        for g, is_topic, t in zip(general.tolist(), topical.tolist(), topic_idx.tolist())
    ]
    surface = list(tokens)
    surface[0] = surface[0].capitalize()
    if n_words >= 4 and rng.random() < abbrev_p:
        # Insert before an interior word so the abbreviation never ends
        # the sentence.
        at = int(rng.integers(1, n_words - 1))
        text, abbrev_tokens, capitalize_next = _ABBREVIATIONS[int(rng.integers(0, len(_ABBREVIATIONS)))]
        if capitalize_next:
            surface[at] = surface[at].capitalize()
        surface.insert(at, text)
        tokens[at:at] = abbrev_tokens
    end = "." if rng.random() < 0.9 else ("!" if rng.random() < 0.5 else "?")
    return " ".join(surface) + end, tokens


def ag_docs(seed: int, stream: int, n_docs: int, vocab: Vocabulary) -> list[Doc]:
    """AG-News-like: 4 classes, a title field plus 1-5 short sentences."""
    rng = _rng(seed, 2, stream)
    docs = []
    for _ in range(n_docs):
        label = int(rng.integers(0, 4))
        title, title_tokens = _sentence(rng, vocab, label, int(rng.integers(3, 8)), 0.4, 0.0)
        title = title.rstrip(".!?")
        body, sentences = [], [title_tokens]
        for _ in range(int(rng.integers(1, 6))):
            text, tokens = _sentence(rng, vocab, label, int(rng.integers(5, 15)), 0.5, 0.08)
            body.append(text)
            sentences.append(tokens)
        docs.append(Doc(label, [title, " ".join(body)], sentences))
    return docs


def yelp_docs(seed: int, stream: int, n_docs: int, vocab: Vocabulary) -> list[Doc]:
    """Yelp-like: 5 classes, 5-30 sentences with HTML noise, abbreviations
    and about 3% of sentences longer than SENT_LEN words."""
    rng = _rng(seed, 3, stream)
    docs = []
    for _ in range(n_docs):
        label = int(rng.integers(0, 5))
        parts, sentences = [], []
        for _ in range(int(rng.integers(5, 31))):
            if rng.random() < 0.03:
                n_words = int(rng.integers(SENT_LEN + 1, SENT_LEN + 19))
            else:
                n_words = int(rng.integers(6, 19))
            text, tokens = _sentence(rng, vocab, label, n_words, 0.7, 0.1)
            noise = rng.random()
            if noise < 0.05:
                text = f"<b>{text}</b>"
            elif noise < 0.1:
                text = text[:-1] + " &amp; more" + text[-1]
                tokens = tokens + ["more"]
            parts.append(text)
            parts.append("<br /><br />" if rng.random() < 0.15 else "")
            sentences.append(tokens)
        docs.append(Doc(label, [" ".join(p for p in parts if p)], sentences))
    return docs


def write_csv(path: Path, docs: list[Doc]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_ALL)
        for doc in docs:
            writer.writerow([doc.label + 1, *doc.fields])


def write_embeddings(path: Path, seed: int, vocab: Vocabulary, rows: int) -> set[str]:
    """A *rows* x EMBED_DIM text table holding all but OOV_TYPE_FRAC of the
    corpus pool (so OOV draws happen) padded with words no corpus uses.
    Returns the set of tokens written."""
    rng = _rng(seed, 4)
    pool = vocab.words
    kept = [w for w, drop in zip(pool, rng.random(len(pool)) < OOV_TYPE_FRAC) if not drop]
    kept = kept[:rows]
    extra = lexicon(seed + 1_000_003, len(pool) + rows)
    in_pool = set(pool)
    kept += [w for w in extra if w not in in_pool][: rows - len(kept)]
    tokens = [kept[i] for i in rng.permutation(len(kept))]
    # Values are N(0, 0.4) at 4 decimals, formatted through a lookup table
    # because per-value formatting would dominate generation time.
    table = [f"{q / 1e4:.4f}" for q in range(-9999, 10000)]
    with path.open("w", encoding="utf-8") as handle:
        for start in range(0, len(tokens), 10_000):
            chunk = tokens[start : start + 10_000]
            q = np.clip(np.rint(rng.normal(0.0, 0.4, (len(chunk), EMBED_DIM)) * 1e4), -9999, 9999)
            idx = (q.astype(np.int64) + 9999).tolist()
            handle.write("".join(
                token + " " + " ".join([table[i] for i in row]) + "\n"
                for token, row in zip(chunk, idx)
            ))
    return set(tokens)


def properties(docs: list[Doc], table_tokens: set[str]) -> dict:
    sentences = [s for d in docs for s in d.sentences]
    types = {t for s in sentences for t in s}
    return {
        "docs": len(docs),
        "sentences_per_doc_mean": len(sentences) / len(docs),
        "cropped_sentence_frac": sum(len(s) > SENT_LEN for s in sentences) / len(sentences),
        "oov_type_frac": len(types - table_tokens) / len(types),
    }


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _generate(workload: str, seed: int, size: str, out: Path, root: Path) -> dict:
    sz = SIZES[size]
    vocab = Vocabulary(seed)
    emb = out / "embeddings.txt"
    table_tokens = write_embeddings(emb, seed, vocab, sz["embed_rows"])
    report: dict = {"workload": workload, "seed": seed, "generator_version": GEN_VERSION,
                    "size": size, "embedding_rows": len(table_tokens),
                    "embedding_dim": EMBED_DIM, "files": {}, "inputs": {}}
    if workload == "ag_train":
        sets = {"train.csv": ag_docs(seed, 0, sz["ag_train_docs"], vocab),
                "test.csv": ag_docs(seed, 1, sz["ag_test_docs"], vocab)}
        report["epochs"] = sz["ag_epochs"]
    elif workload == "yelp_train_v":
        sets = {"train.csv": yelp_docs(seed, 0, sz["yelp_train_docs"], vocab)}
        report["epochs"] = sz["yelp_epochs"]
    elif workload == "serve_cold":
        sets = {"eval.csv": ag_docs(seed, 2, sz["serve_eval_docs"], vocab)}
        texts = [" ".join(d.fields) for d in ag_docs(seed, 3, sz["serve_predict_texts"], vocab)]
        report["predict_texts"] = texts
        _prepare_checkpoint(root, out, seed, texts, report)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, docs in sets.items():
        write_csv(out / name, docs)
        report["inputs"][name] = properties(docs, table_tokens)
    for path in sorted(out.iterdir()):
        report["files"][path.name] = sha256(path)
    return report


_PREPARE = """
import json, sys
from slcnn import corpus, embedding, model as m
out, seed, texts = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
net = m.build_model(m.ModelConfig(variant="slcnn", doc_len=4, num_classes=4, seed=seed))
m.save_checkpoint(net, out + "/model.slcnn")
table = embedding.load_embeddings(out + "/embeddings.txt", 100)
labels = []
for text in ["", *texts]:
    grid = corpus.build_grid_dataset([corpus.RawDocument(0, [text])], 4, 46)
    data = m.EmbeddedDataset.build(grid, table)
    labels.append(int(m.predict_labels(net, data)[0]))
print(json.dumps(labels))
"""


def _prepare_checkpoint(root: Path, out: Path, seed: int, texts: list[str], report: dict) -> None:
    """The AG-shape checkpoint ``serve_cold`` reads, made with
    ``build_model`` + ``save_checkpoint`` (untrained: the workload measures
    the read path, not accuracy), and the label ``predict_labels`` gives
    each predict text through the dataset path, which the CLI's
    ``predict`` output is checked against."""
    env = child_env(root)
    done = subprocess.run(
        [sys.executable, "-c", _PREPARE, str(out), str(seed), json.dumps(texts)],
        cwd=root, env=env, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"checkpoint preparation failed:\n{done.stderr}")
    labels = json.loads(done.stdout.strip().splitlines()[-1])
    report["reference_labels"] = {"empty": labels[0], "texts": labels[1:]}


def child_env(root: Path) -> dict[str, str]:
    """Environment for every program child: the source tree on the path and
    one BLAS thread pinned explicitly.  The CLI only *defaults* these
    variables from --threads, so an inherited value would otherwise win."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SLCNN_DATA_DIR", None)
    return env


def inputs(root: Path, workload: str, seed: int, size: str = "full") -> tuple[Path, dict]:
    """The cached input directory for (workload, seed, GEN_VERSION, size),
    generating it on a miss or when a recorded sha256 no longer matches.
    Returns the directory and its input report."""
    cache = root / ".perfbench" / "cache"
    key = f"v{GEN_VERSION}-{size}-{workload}-{seed}"
    out = cache / key
    report_path = out / "inputs.json"
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if all(sha256(out / name) == digest for name, digest in report["files"].items()):
            os.utime(out)
            return out, report
    except (OSError, ValueError, KeyError):
        pass  # missing or damaged: generate afresh
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".{key}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        report = _generate(workload, seed, size, tmp, root)
        (tmp / "inputs.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    entries = sorted((p for p in cache.iterdir() if not p.name.startswith(".")),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[CACHE_ENTRIES_KEPT:]:
        shutil.rmtree(stale, ignore_errors=True)
    return out, report
