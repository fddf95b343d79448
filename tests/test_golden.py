"""Golden digests: the sha256 of every checkpoint and JSON output of a fixed
set of CLI runs on tiny seeded inputs, compared with ``golden_digests.json``.

The determinism tests compare two runs of one commit, so a change that moves
every output bit passes them; this module compares a commit's outputs with
committed ones (characterization testing, Feathers, "Working Effectively with
Legacy Code", 2004).  A change that moves a digest on purpose rewrites the
file, ``python tests/test_golden.py``, and names each changed output, and
why, in CHANGES.md.

Float results depend on the BLAS kernels, so the children run with
``OPENBLAS_CORETYPE=Haswell``, one family that any AVX2 x86-64 host can run;
the module skips where OpenBLAS reports another core under that setting.
The inputs come from ``random.Random``, whose ``random()`` stream is stable
across Python versions.  The embedding file has CRLF line ends, a duplicate
token and no line for some document tokens, and it is back-dated, so
``train`` scans it and leaves its line index and the later commands read
through that index.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = 20230127

# Prints the name of the core whose kernels OpenBLAS runs.
_PROBE = """
import ctypes, pathlib, numpy
core = b""
for lib in (pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"):
    get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get()
print(core.decode())
"""

# (output name, argv); an output is a file the command writes, or its stdout.
RUNS = [
    ("stats.json", ["stats", "--input", "train.csv"]),
    ("train_slcnn.json", ["train", "--input", "train.csv", "--embeddings", "emb.txt",
                          "--test", "test.jsonl", "--out-dir", "slcnn", "--epochs", "2",
                          "--batch-size", "8", "--seed", "3"]),
    ("train_slcnn_v.json", ["train", "--variant", "slcnn+v", "--td", "6", "--input",
                            "train.csv", "--embeddings", "emb.txt", "--test", "test.jsonl",
                            "--out-dir", "slcnn_v", "--epochs", "2", "--batch-size", "8",
                            "--seed", "4", "--val-frac", "0.2"]),
    ("eval.json", ["eval", "--checkpoint", "slcnn/model.slcnn", "--input", "test.jsonl",
                   "--embeddings", "emb.txt", "--out", "eval.json"]),
    ("predict_empty.json", ["predict", "--checkpoint", "slcnn_v/model_best.slcnn",
                            "--embeddings", "emb.txt", "--text", ""]),
    ("predict_text.json", ["predict", "--checkpoint", "slcnn/model_best.slcnn",
                           "--embeddings", "emb.txt", "--text", "Zeta kor. Unseen words here!"]),
]
CHECKPOINTS = ["slcnn/model.slcnn", "slcnn/model_best.slcnn",
               "slcnn_v/model.slcnn", "slcnn_v/model_best.slcnn"]


def _env() -> dict[str, str]:
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(ROOT / "src"),
            "OPENBLAS_CORETYPE": "Haswell"}


def _core() -> str:
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=_env(), check=True)
    return proc.stdout.strip()


def _write_inputs(directory: Path) -> None:
    rng = random.Random(SEED)
    words = sorted({"".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 7)))
                    for _ in range(60)})

    def text() -> str:
        sentences = []
        for _ in range(rng.randint(1, 8)):
            count = 50 if rng.random() < 0.05 else rng.randint(1, 12)  # some are cropped
            sentences.append(" ".join(rng.choice(words) for _ in range(count)).capitalize() + ".")
        return " ".join(sentences)

    with open(directory / "train.csv", "w", encoding="utf-8", newline="") as handle:
        for _ in range(48):
            handle.write(f'{rng.randint(1, 3)},"{text()}","{text()}"\n')
    with open(directory / "test.jsonl", "w", encoding="utf-8") as handle:
        for _ in range(12):
            handle.write(json.dumps({"label": rng.randint(1, 3), "text": text()}) + "\n")
    lines = [" ".join([word, *(f"{rng.uniform(-1, 1):.5f}" for _ in range(8))])
             for word in words[5:]]  # the first five are out of vocabulary
    lines.insert(7, lines[3].split(" ")[0] + " 9 9 9 9 9 9 9 9")  # a duplicate, not read
    emb = directory / "emb.txt"
    emb.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    os.utime(emb, (1e9, 1e9))  # settled: the first read leaves a line index


def digests(directory: Path) -> dict[str, str]:
    """Run every command in *directory* on fresh inputs; sha256 of each output."""
    _write_inputs(directory)
    out = {}
    for name, argv in RUNS:
        proc = subprocess.run([sys.executable, "-m", "slcnn", *argv], cwd=directory,
                              env=_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        data = (directory / name).read_bytes() if "--out" in argv else proc.stdout
        out[name] = hashlib.sha256(data).hexdigest()
    for name in CHECKPOINTS:
        out[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    assert (directory / "emb.txt.slcnn-index").exists()
    return out


@pytest.fixture(scope="module")
def actual(tmp_path_factory) -> dict[str, str]:
    core = _core()
    if core != "Haswell":
        pytest.skip(f"OpenBLAS runs {core or 'unknown'} kernels under "
                    "OPENBLAS_CORETYPE=Haswell; the digests are of Haswell kernels")
    return digests(tmp_path_factory.mktemp("golden"))


GOLDEN_DIGESTS = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_output_matches_its_golden_digest(actual, name):
    assert actual[name] == GOLDEN_DIGESTS[name]


def test_every_output_has_a_golden_digest(actual):
    assert sorted(actual) == sorted(GOLDEN_DIGESTS)


if __name__ == "__main__":
    if _core() != "Haswell":
        sys.exit("OpenBLAS cannot run Haswell kernels here; the digests are of Haswell kernels")
    with tempfile.TemporaryDirectory() as tmp:
        fresh = digests(Path(tmp))
    GOLDEN.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fresh)} digests to {GOLDEN}")
