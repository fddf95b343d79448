"""Run one slcnn CLI command in this process with a span around every call
into the program's layers, then write the spans to a JSON file.

    python perfbench/tracer.py SPANS.json -- <slcnn arguments>
    python perfbench/tracer.py --probe

The public functions of slcnn.corpus, slcnn.embedding, slcnn.model and
slcnn.nn are replaced, at module-attribute level, by wrappers; every
module attribute bound to one of them (for example model.py's
``from .embedding import embedding_matrix_for_vocab``) is rebound too.  The
program calls its layers through module lookups, so ``slcnn.cli.main``
then runs exactly the user's code path with the spans in place.  The BLAS
thread count must already be pinned in the environment: numpy is imported
here, before the CLI could apply ``--threads``.

``--probe`` prints the effective environment (BLAS, threads, versions)
as JSON, for runs that record it without tracing.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Recorder  # noqa: E402

# Called per sentence: a span would cost a large share of their own time
# and inflate preprocess_document, which is measured instead.
UNWRAPPED = {"clean_text", "split_sentences", "tokenize_words"}


def environment() -> dict:
    """Versions, CPU, and the BLAS thread count actually in effect, read
    back from numpy's bundled OpenBLAS (threadpoolctl is not available)."""
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "env_threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads(Path(np.__file__).resolve().parent.parent)
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _openblas_threads(site: Path) -> int | None:
    for lib in sorted((site / "numpy.libs").glob("libscipy_openblas64_*.so*")):
        handle = ctypes.CDLL(str(lib))
        getter = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def _install(rec: Recorder) -> dict[int, str]:
    """Wrap the layer modules; returns the id(weights) -> block name map
    that build_model fills in, which names conv banks and dense layers."""
    from slcnn import cli, corpus, embedding, model, nn

    names: dict[int, str] = {}

    def register(args, net):
        for name, arr in net.param_blocks():
            if name.endswith(".w"):
                names[id(arr)] = name[:-2]
        return None

    def conv_fwd(args, result):
        x, bank = args[0], args[1]
        b, m, n, c = x.shape if x.ndim == 4 else (1, *x.shape)
        k, s, t, _ = bank.weights.shape
        return {"layer": names.get(id(bank.weights), "?"), "shape": [b, m, n, c, k, s, t]}

    def conv_bwd(args, result):
        bank, cache = args[0], args[1]
        k, s, t, _ = bank.weights.shape
        return {"layer": names.get(id(bank.weights), "?"), "shape": [*cache.x.shape, k, s, t]}

    def pool_fwd(args, result):
        return {"axis": args[1]}

    def pool_bwd(args, result):
        cache = args[0]
        axis = "horizontal" if cache.axis_index == len(cache.in_shape) - 2 else "vertical"
        return {"axis": axis}

    def dense_fwd(args, result):
        return {"layer": names.get(id(args[1].weights), "?")}

    def dense_bwd(args, result):
        return {"layer": names.get(id(args[0].weights), "?")}

    def sentences(args, result):
        return {"sentences": len(result), "cropped": sum(len(s) > 46 for s in result)}

    def oov(args, result):
        table, vocab = args[0], args[1]
        return {"types": len(vocab), "oov": sum(tok not in table.vocab for tok in vocab)}

    def docs(args, result):
        return {"docs": len(args[1])}

    def rows(args, result):
        return {"rows": len(result.vocab)}

    attrs = {
        "model.build_model": register,
        "nn.conv2d_forward": conv_fwd,
        "nn.conv2d_backward": conv_bwd,
        "nn.maxpool_forward": pool_fwd,
        "nn.maxpool_backward": pool_bwd,
        "nn.dense_forward": dense_fwd,
        "nn.dense_backward": dense_bwd,
        "corpus.preprocess_document": sentences,
        "embedding.embedding_matrix_for_vocab": oov,
        "embedding.load_embeddings": rows,
        "model.predict_labels": docs,
        "model.evaluate": docs,
    }
    modules = {"corpus": corpus, "embedding": embedding, "model": model, "nn": nn}
    wrapped = {}
    for short, mod in modules.items():
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or name in UNWRAPPED or not callable(fn)
                    or isinstance(fn, type) or getattr(fn, "__module__", None) != mod.__name__):
                continue
            span = f"{short}.{name}"
            wrapped[id(fn)] = rec.wrap(span, fn, attrs.get(span))
    for mod in (cli, *modules.values()):
        for name, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, name, wrapped[id(value)])
    return names


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        print(json.dumps(environment(), sort_keys=True))
        return 0
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <slcnn arguments> | tracer.py --probe",
              file=sys.stderr)
        return 2
    out, cli_argv = Path(argv[0]), argv[2:]
    rec = Recorder()
    _install(rec)
    from slcnn import cli

    code = 1
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        payload = {"exit_code": code, "environment": environment(), "spans": rec.spans}
        out.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
