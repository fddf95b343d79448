"""Command-line pipeline: stats, train, eval, predict, rerun.

JSON goes to stdout, logs to stderr.  Exit codes are a stable contract:
0 success, 2 a missing input or any ``ValueError`` (a bad flag, setting,
dataset or embedding file), 1 any other failure (a corrupt checkpoint,
diverged training, a failed write, an allocation beyond the machine).
``train``, and ``stats``/``eval`` with ``--out``, write a run manifest: the
exact argv the command was parsed from, the sha256 of every input and the
resolved values (``args``, a record only).  ``predict`` writes no
manifest; its text may come from stdin, which a manifest cannot replay.
``slcnn rerun manifest.json`` checks every input digest, then parses the
recorded argv again (plus any ``--out-dir``), so every command-line rule
holds for a replay; a manifest without an argv (schema 1) is refused.
Artifacts are written to a temp file and renamed into place, so a failed
write never leaves a truncated file.

``train``, ``eval`` and ``predict`` may write one more file:
``<embeddings>.slcnn-index``, the embedding file's line index (see
``embedding.load_embeddings``), beside the embedding file when no index
there matches it.  When that write fails, it is skipped and the exit code
does not change.

``train`` takes the embedding width from the first line of its embedding
file.  ``eval`` and ``predict`` take every model setting (grid shape,
embedding width, classes) from the checkpoint, and no flag of theirs can
contradict it; the embedding file must have the checkpoint's width.
``eval`` makes one forward pass over the documents; accuracy and the
confusion matrix both come from its predictions.  A command that reads
embeddings builds one grid, so one vocabulary, over all its documents
(``train``: training, validation and test), then parses the embedding file
into one matrix.  The model reads each batch as those grid ids and gathers
the rows it needs from that matrix.  A token's row depends only on the
token, so sharing the matrix changes no value the model reads.

numpy (and its BLAS) is imported only after the ``--threads`` flag is
applied to the thread-count environment variables, because the default of
one BLAS thread is part of the determinism contract.  The flag (or its
default) overrides any inherited value; ``rerun`` uses the recorded one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import shlex
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__

log = logging.getLogger("slcnn")

MANIFEST_SCHEMA_VERSION = 2


def _apply_thread_flag(args: argparse.Namespace) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)


def _int_at_least(value: str, least: int = 1) -> int:
    if not value.isdecimal() or int(value) < least:
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {value!r}")
    return int(value)


def _fraction(value: str) -> float:
    try:
        if 0.0 <= float(value) < 1.0:
            return float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number in [0, 1), got {value!r}")


def _positive(value: str) -> float:
    try:
        if math.isfinite(float(value)) and float(value) > 0:
            return float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value!r}")


def _resolve_input(path_str: str) -> Path:
    """*path_str* as given, relative to the working directory; it must name a file."""
    path = Path(path_str)
    if not path.is_file():
        raise FileNotFoundError(f"input file not found: {path_str}")
    return path


def _out_file(value: str) -> str:
    if Path(value).is_dir() or not Path(value).parent.is_dir():
        raise argparse.ArgumentTypeError(f"must be a file in an existing directory, got {value!r}")
    return value


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_text(path: Path | str, text: str) -> None:
    from .fileio import write_atomic

    write_atomic(path, text.encode("utf-8"))


def _emit(payload: dict, args: argparse.Namespace, out: str | None,
          inputs: tuple[Path, ...] = ()) -> None:
    """Print *payload* as JSON.  With *out*, write it there too, and with
    *inputs* as well, a run manifest of them beside it."""
    text = json.dumps(payload, sort_keys=True)
    if out:
        _write_text(out, text + "\n")
        if inputs:
            _write_manifest(args, inputs, [out], Path(out).with_suffix(".manifest.json"))
    print(text)


def _write_manifest(args: argparse.Namespace, inputs: tuple[Path, ...],
                    outputs: list[str], path: Path) -> None:
    resolved = {k: v for k, v in vars(args).items() if k not in ("handler", "argv")}
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool": "slcnn",
        "tool_version": __version__,
        "command": args.command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "argv": args.argv,
        "args": resolved,
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": outputs,
    }
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_schema(value: str | None) -> list[str] | None:
    if not value:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    from . import corpus

    path = _resolve_input(args.input)
    payload = {"schema_version": 1, **corpus.corpus_stats(_load_docs(args, path))}
    _emit(payload, args, args.out, (path,))
    return 0


def _load_docs(args, path: Path, limit: int | None = None, seed: int = 0):
    """The usable documents of *path*; with *limit*, a subset of that many drawn with *seed*."""
    import numpy as np
    from . import corpus
    from .model import STREAM_LIMIT

    docs = list(corpus.load_dataset(path, _parse_schema(args.schema), strict=args.strict))
    if not docs:
        raise corpus.DatasetFormatError(f"no usable documents in {path}")
    if limit is None or limit >= len(docs):
        return docs
    order = np.random.default_rng([seed, STREAM_LIMIT]).permutation(len(docs))
    return [docs[i] for i in order[:limit]]


def _check_labels(docs, num_classes: int, path: Path) -> None:
    """Usage error when a dataset holds a label the model has no class for."""
    top = max(doc.label for doc in docs) + 1
    if top > num_classes:
        raise ValueError(f"{path}: class index {top} is outside the model's {num_classes} classes")


def _tokenized(docs) -> list[tuple[int, list[list[str]]]]:
    from . import corpus

    return [(doc.label, corpus.preprocess_document(doc)) for doc in docs]


def _embedded(emb_path: Path, dim: int, doc_len: int, *doc_sets):
    """One EmbeddedDataset per set of (label, sentences) documents, or None
    for an empty set.  All sets share one grid vocabulary and one embedding
    matrix.  The embedding file is read once, after the grid is built, and
    only the rows of the grid vocabulary's tokens are parsed, through the
    file's line index when one matches; the table is dropped on return."""
    from . import corpus, embedding, model as m

    grid = corpus.build_grid_dataset_from_token_docs(
        (doc for docs in doc_sets for doc in docs), doc_len, corpus.SENT_LEN
    )
    log.info("loading embeddings from %s", emb_path)
    table = embedding.load_embeddings(emb_path, dim, set(grid.vocab))
    log.info("%d of %d vocabulary tokens found in %s (dim %d)",
             len(table.vocab), len(grid.vocab), emb_path, dim)
    full = m.EmbeddedDataset.build(grid, table)
    views, start = [], 0
    for docs in doc_sets:
        part = slice(start, start + len(docs))
        start = part.stop
        views.append(m.EmbeddedDataset(full.grids[part], full.labels[part], full.matrix)
                     if docs else None)
    return views


def cmd_train(args: argparse.Namespace) -> int:
    import numpy as np

    from . import corpus, embedding, model as m

    # Rejected before any input is read, not after every epoch has run.
    out_dir = Path(args.out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out-dir {args.out_dir}: {existing} is not a directory")
    if args.test_limit is not None and not args.test:
        raise ValueError("--test-limit needs --test")
    train_path = _resolve_input(args.input)
    emb_path = _resolve_input(args.embeddings)
    test_path = _resolve_input(args.test) if args.test else None
    val_path = _resolve_input(args.val) if args.val else None

    docs = _load_docs(args, train_path, args.limit, args.seed)
    val_docs = _load_docs(args, val_path) if val_path else []
    test_docs = _load_docs(args, test_path, args.test_limit) if test_path else []
    num_classes = args.classes if args.classes is not None else max(d.label for d in docs) + 1
    for path, dataset in ((train_path, docs), (val_path, val_docs), (test_path, test_docs)):
        if dataset:
            _check_labels(dataset, num_classes, path)
    token_docs = _tokenized(docs)
    doc_len = args.td
    if doc_len is None:
        doc_len = corpus.compute_doc_threshold([len(tokens) for _, tokens in token_docs])

    config = m.ModelConfig(
        variant=args.variant,
        doc_len=doc_len,
        num_classes=num_classes,
        fc_size=m.FC_SIZES[args.fc],
        embed_dim=embedding.embedding_width(emb_path),
        seed=args.seed,
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        dropout_rate=args.dropout,
    )

    held_out = _tokenized(val_docs)
    # The --val-frac split holds documents out of the training set.
    if not val_path and args.val_frac > 0 and len(docs) > 1:
        n_val = max(1, round(args.val_frac * len(docs)))
        if n_val >= len(docs):
            raise ValueError(f"--val-frac {args.val_frac} holds out {n_val} of the {len(docs)} "
                             "training documents, leaving none to train on")
        perm = np.random.default_rng([args.seed, m.STREAM_SPLIT]).permutation(len(token_docs))
        held_out = [token_docs[i] for i in perm[:n_val]]
        token_docs = [token_docs[i] for i in perm[n_val:]]
    train_data, val_data, test_data = _embedded(
        emb_path, config.embed_dim, doc_len, token_docs, held_out, _tokenized(test_docs)
    )

    net = m.build_model(config)
    log.info(
        "built %s model: doc_len=%d classes=%d fc=%d, %d trainable parameters",
        config.variant, config.doc_len, config.num_classes, config.fc_size,
        m.count_parameters(net),
    )

    report = m.train(net, train_data, val_data)
    if test_data is not None:
        report["test_accuracy_final"] = m.evaluate(net, test_data)

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    checkpoint_path = out_dir / "model.slcnn"
    m.save_checkpoint(net, checkpoint_path)
    outputs.append(str(checkpoint_path))

    best_path = out_dir / "model_best.slcnn"
    if net.best_params is None:  # an earlier run's best model is not this run's
        best_path.unlink(missing_ok=True)
    else:
        best = m.build_model(config, net.best_params)
        if report["best_val_epoch"] == config.epochs - 1:  # the final parameters are the best
            report["test_accuracy_best_val"] = report["test_accuracy_final"]
        elif test_data is not None:
            report["test_accuracy_best_val"] = m.evaluate(best, test_data)
        m.save_checkpoint(best, best_path)
        outputs.append(str(best_path))

    report_path = out_dir / "report.json"
    _write_text(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    outputs.append(str(report_path))

    inputs = tuple(p for p in (train_path, emb_path, test_path, val_path) if p)
    _write_manifest(args, inputs, outputs, out_dir / "manifest.json")

    summary = {
        "schema_version": 1,
        "checkpoint": str(checkpoint_path),
        "report": str(report_path),
        "final_train_accuracy": report["train_accuracy"][-1],
        "final_train_loss": report["train_loss"][-1],
    }
    for key in ("best_val_accuracy", "test_accuracy_final", "test_accuracy_best_val"):
        if report[key] is not None:
            summary[key] = report[key]
    _emit(summary, args, None)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import model as m

    ckpt_path = _resolve_input(args.checkpoint)
    data_path = _resolve_input(args.input)
    emb_path = _resolve_input(args.embeddings)

    net = m.load_checkpoint(ckpt_path)
    config = net.config
    docs = _load_docs(args, data_path, args.limit)
    _check_labels(docs, config.num_classes, data_path)
    (data,) = _embedded(emb_path, config.embed_dim, config.doc_len, _tokenized(docs))
    preds = m.predict_labels(net, data)
    confusion = m.confusion_matrix(data.labels, preds, config.num_classes)
    payload = {
        "schema_version": 1,
        "checkpoint": str(ckpt_path),
        "num_documents": len(data),
        "accuracy": int(confusion.trace()) / len(data),
        "confusion_matrix": confusion.tolist(),
    }
    _emit(payload, args, args.out, (ckpt_path, data_path, emb_path))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from . import corpus, model as m, nn

    ckpt_path = _resolve_input(args.checkpoint)
    emb_path = _resolve_input(args.embeddings)
    net = m.load_checkpoint(ckpt_path)
    config = net.config
    text = args.text if args.text is not None else sys.stdin.read()
    (data,) = _embedded(emb_path, config.embed_dim, config.doc_len,
                        _tokenized([corpus.RawDocument(label=0, fields=[text])]))
    probs = nn.softmax(net.forward(data.grids, data.matrix))[0]
    payload = {
        "schema_version": 1,
        "label": int(probs.argmax()),
        "probabilities": [float(p) for p in probs],
    }
    _emit(payload, args, args.out)
    return 0


def _replay_argv(args: argparse.Namespace) -> list[str]:
    """The manifest's argv (plus any ``--out-dir``) once its inputs match their digests."""
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{args.manifest}: {exc}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("input_digests"), dict)):
        raise ValueError(f"{args.manifest}: not a run manifest (input_digests is no object)")
    argv = manifest.get("argv")
    if argv is None:
        raise ValueError(f"{args.manifest}: records no argv; schema-1 manifests cannot be replayed")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise ValueError(f"{args.manifest}: argv is not a list of strings")
    if argv[:1] == ["rerun"]:
        raise ValueError(f"{args.manifest}: records a rerun, which would replay itself")
    for name, digest in manifest["input_digests"].items():
        path = Path(name)
        if not path.is_file():
            raise FileNotFoundError(f"input named in the manifest is missing: {name}")
        if _sha256(path) != digest:
            raise ValueError(f"input changed since the manifest was written: {name}")
    return argv + ["--out-dir", args.out_dir] if args.out_dir is not None else argv


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcnn",
        description="Sentence-level CNN text classification pipeline",
    )
    parser.add_argument("--version", action="version", version=f"slcnn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p: argparse.ArgumentParser, reads_dataset: bool = True) -> None:
        if reads_dataset:
            p.add_argument("--schema", help="comma-separated text field names for CSV validation")
            p.add_argument("--strict", action="store_true",
                           help="abort on malformed dataset rows instead of skipping them")
        p.add_argument("--threads", type=_int_at_least, default=1,
                       help="BLAS thread count (default 1 for strict determinism)")

    p = sub.add_parser("stats", help="corpus statistics incl. the derived document threshold")
    p.add_argument("--input", required=True, help="dataset CSV/JSONL")
    p.add_argument("--out", type=_out_file, help="also write the JSON to this file")
    common_io(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("train", help="train a model and write checkpoint/report/manifest")
    p.add_argument("--input", required=True, help="training dataset CSV/JSONL")
    p.add_argument("--embeddings", required=True, help="pretrained embedding text file")
    p.add_argument("--test", help="optional test dataset evaluated after training")
    held_out = p.add_mutually_exclusive_group()
    held_out.add_argument("--val", help="optional explicit validation dataset")
    held_out.add_argument("--val-frac", type=_fraction, default=0.05,
                          help="validation fraction split off the training set (0 disables)")
    p.add_argument("--variant", choices=["slcnn", "slcnn+v"], default="slcnn")
    p.add_argument("--fc", choices=["small", "large"], default="small")
    p.add_argument("--td", type=_int_at_least,
                   help="sentences-per-document threshold (default: derived)")
    p.add_argument("--classes", type=lambda value: _int_at_least(value, 2),
                   help="number of classes (default: inferred)")
    p.add_argument("--epochs", type=_int_at_least, default=50)
    p.add_argument("--lr", type=_positive, default=0.001)
    p.add_argument("--batch-size", type=_int_at_least, default=64)
    p.add_argument("--dropout", type=_fraction, default=0.5)
    p.add_argument("--seed", type=lambda value: _int_at_least(value, 0), default=0)
    p.add_argument("--limit", type=_int_at_least,
                   help="train on a seeded subset of N documents")
    p.add_argument("--test-limit", type=_int_at_least,
                   help="evaluate on a fixed subset of N test documents, the same for any --seed")
    p.add_argument("--out-dir", required=True)
    common_io(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="accuracy + confusion matrix of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--limit", type=_int_at_least,
                   help="evaluate on a fixed subset of N documents, the same for any checkpoint")
    p.add_argument("--out", type=_out_file, help="also write the JSON to this file")
    common_io(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("predict", help="classify one raw text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--text", help="text to classify (default: read stdin)")
    p.add_argument("--out", type=_out_file, help="also write the JSON to this file")
    common_io(p, reads_dataset=False)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("rerun", help="replay a command from its run manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", help="redirect a train manifest's outputs")

    return parser


def _fail(exc: Exception) -> int:
    """Report *exc*; a missing input or a bad value is a usage error (2)."""
    print(f"error: {exc}", file=sys.stderr)
    return 2 if isinstance(exc, (FileNotFoundError, ValueError)) else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    if args.command == "rerun":
        try:
            argv = _replay_argv(args)
        except (OSError, ValueError) as exc:
            return _fail(exc)
        # Attributes a usage error in the recorded argv to the manifest.
        print(f"replaying {args.manifest}: slcnn {shlex.join(argv)}", file=sys.stderr)
        args = build_parser().parse_args(argv)
    args.argv = argv
    _apply_thread_flag(args)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )

    from . import model as m

    try:
        return args.handler(args)
    except (OSError, ValueError, MemoryError, m.CheckpointError, m.TrainingDivergedError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
