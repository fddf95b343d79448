"""CLI-level benchmark of slcnn: drives ``python -m slcnn`` as child processes.

    python3 perfbench/run.py --workload ag_train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Inputs are generated from
``--seed`` (see gen.py) and cached under ``.perfbench/``.  The workload's
commands are then repeated as *passes* for about ``--seconds`` seconds,
one child at a time with one pinned BLAS thread, and every child's output
is checked.

``--trace 0`` measures from outside only: wall time, the arrival times of
the CLI's own stderr log lines, exit codes and ``wait4`` rusage.  The last
line of stdout is a JSON object whose metrics are the end-to-end ones in
BENCHMARK.json, each the median over the run's passes.

``--trace 1`` alternates untraced passes with passes whose commands run
under tracer.py, which records spans around every call into the corpus,
embedding, model and nn layers.  Its JSON carries the per-layer metrics;
every per-layer metric, including those that exist on only some
workloads, is printed above it and saved under ``.perfbench/results/``.

The exit code is 0 when every command succeeded and passed its checks,
1 when one did not (the result is still printed), and 2 when the
benchmark cannot run here at all.  See README.md for the workloads, the
metrics and which layer moves which metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import flops  # noqa: E402
import gen  # noqa: E402
from spans import ATTRS, END, NAME, START, children_of, self_ns, tail  # noqa: E402

WORKLOADS = ("ag_train", "yelp_train_v", "serve_cold")
RUN_LIMIT_S = 150  # no pass starts that would end later, so a run stays under 180 s
CHILD_TIMEOUT_S = 170
IMPORT_SAMPLES = 3

END_TO_END = {  # name -> unit; see README.md for the definitions
    "wall_s": "s",
    "setup_s": "s",
    "docs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The per-layer metrics every workload has; the JSON of a traced run
# carries exactly these.  Layers that only some workloads reach (training
# steps, backward, the VCB, checkpoint I/O) and the input counts are
# printed, not emitted.
HCB_BANKS = [f"hcb{b}.conv{c}" for b in range(1, 5) for c in (1, 2)]
PER_LAYER = {
    "corpus.load_dataset_s": "s",
    "corpus.preprocess_docs_per_s": "1/s",
    "corpus.grid_build_s": "s",
    "embedding.load_s": "s",
    "embedding.rows_per_s": "1/s",
    "embedding.matrix_build_s": "s",
    "model.eval_docs_per_s": "1/s",
    "model.forward_passes_per_eval_doc": "count",
    **{f"nn.conv.{b}.fwd_ms": "ms" for b in HCB_BANKS},
    **{f"nn.conv.{b}.gflops_fwd": "GFLOP/s" for b in HCB_BANKS},
    "nn.maxpool.horizontal.fwd_ms": "ms",
    "nn.dense.fwd_ms": "ms",
    "nn.dropout_ms": "ms",
    "cli.import_s": "s",
    "trace.overhead_frac": "frac",
}

# (variant, t_d, classes) of the train workloads; both train at batch 64.
TRAIN_SHAPES = {"ag_train": ("slcnn", 4, 4), "yelp_train_v": ("slcnn+v", 20, 5)}
BATCH = 64

BUILT_RE = re.compile(r"INFO slcnn: built \S+ model")
EPOCH_RE = re.compile(r"INFO slcnn: epoch (\d+)/(\d+) ")


# --------------------------------------------------------------------------
# Children
# --------------------------------------------------------------------------

@dataclass
class Proc:
    """One finished child: exit code, timing on this process's clock, and
    output.  ``lines`` holds (seconds after spawn, stderr line)."""

    code: int
    start: float
    end: float
    stdout: str
    lines: list[tuple[float, str]]
    rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def line_times(self, pattern: re.Pattern) -> list[float]:
        return [t for t, line in self.lines if pattern.search(line)]

    def last_json(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


def spawn(argv: list[str], root: Path, env: dict, timeout: float) -> Proc:
    """Run *argv* to completion, timestamping stderr lines as they arrive
    and collecting the child's rusage with wait4."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out: list[bytes] = []
    reader = threading.Thread(target=lambda: out.append(child.stdout.read()))
    reader.start()
    killer = threading.Timer(timeout, child.kill)
    killer.start()
    lines = []
    try:
        for raw in child.stderr:
            lines.append((time.perf_counter() - start,
                          raw.decode("utf-8", "replace").rstrip("\n")))
        _, status, usage = os.wait4(child.pid, 0)
        end = time.perf_counter()
    finally:
        killer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    child.stdout.close()
    child.stderr.close()
    return Proc(child.returncode, start, end, b"".join(out).decode("utf-8", "replace"),
                lines, usage.ru_maxrss / 1024.0)


@dataclass
class Command:
    kind: str  # stats | train | eval | predict | version
    proc: Proc
    spans: dict | None = None  # tracer output, for traced commands
    output: dict = field(default_factory=dict)  # parsed stdout JSON


class Bench:
    """Runs CLI commands, counts attempts and failed output checks."""

    def __init__(self, root: Path, workload: str, seed: int, size: str) -> None:
        self.root = root
        self.workload = workload
        self.inputs, self.report = gen.inputs(root, workload, seed, size)
        self.env = gen.child_env(root)
        self.work = root / ".perfbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.passes_started = 0
        self._seq = 0

    def path(self, name: str) -> str:
        return str(self.inputs / name)

    def fresh_dir(self, stem: str) -> Path:
        self._seq += 1
        return self.work / f"{stem}{self._seq}"

    def cli(self, kind: str, argv: list[str], traced: bool = False) -> Command:
        spans_path = self.fresh_dir("spans").with_suffix(".json") if traced else None
        cmd = ([sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *argv]
               if traced else [sys.executable, "-m", "slcnn", *argv])
        remaining = CHILD_TIMEOUT_S - (time.perf_counter() - self.t0)
        proc = spawn(cmd, self.root, self.env, max(5.0, remaining))
        spans = None
        if traced and proc.code == 0:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return Command(kind, proc, spans)

    def record(self, command: Command, what: str, problems: list[str]) -> bool:
        """Count one attempted command; False (and a failure) if it exited
        non-zero or any output check found a problem."""
        self.attempted += 1
        if command.proc.code != 0:
            tail_lines = " | ".join(line for _, line in command.proc.lines[-3:])
            problems = [f"exit code {command.proc.code}: {tail_lines}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def checked(self, command: Command, what: str, check) -> bool:
        """Parse the command's stdout JSON and run *check(output)*, which
        returns a list of problems; unreadable output is a problem too."""
        problems: list[str] = []
        if command.proc.code == 0:
            try:
                command.output = command.proc.last_json()
                problems = check(command.output)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        return self.record(command, what, problems)


# --------------------------------------------------------------------------
# Workloads: one pass runs the workload's commands once
# --------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    commands: list[Command]
    values: dict[str, float]  # per-pass end-to-end values
    samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.proc.wall_s for c in self.commands)


def _train_checks(bench: Bench, out_dir: Path, classes: int, with_test: bool):
    def check(summary: dict) -> list[str]:
        problems = []
        losses = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["train_loss"]
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"non-finite train loss {losses}")
        elif not losses[-1] < losses[0]:
            problems.append(f"final-epoch loss {losses[-1]} not below first {losses[0]}")
        if with_test and not summary["test_accuracy_final"] > 1.0 / classes:
            problems.append(f"test accuracy {summary['test_accuracy_final']} not above chance")
        digest = gen.sha256(out_dir / "model.slcnn")
        if bench.digests and digest != bench.digests[0]:
            problems.append("checkpoint sha256 differs from this seed's first run")
        bench.digests.append(digest)
        return problems

    return check


def _train_values(command: Command, train_docs: int) -> tuple[dict, dict]:
    """setup_s: spawn to the 'built ... model' line.  Each epoch after the
    first (a warm-up) gives one docs/s sample, timed between consecutive
    epoch lines."""
    proc = command.proc
    built, epochs = proc.line_times(BUILT_RE), proc.line_times(EPOCH_RE)
    if proc.code != 0 or not built or len(epochs) < 2:
        return {}, {}
    rates = [train_docs / (b - a) for a, b in zip(epochs, epochs[1:])]
    return {"setup_s": built[0]}, {"epoch_docs_per_s": rates}


def _train_docs(total: int, val_frac: float = 0.05) -> int:
    """Documents trained per epoch: the CLI holds out round(val_frac * N)."""
    return total - max(1, round(val_frac * total))


def ag_train_pass(bench: Bench, traced: bool) -> Pass:
    epochs = bench.report["epochs"]
    out_dir = bench.fresh_dir("ag")
    variant, td, classes = TRAIN_SHAPES["ag_train"]
    cmd = bench.cli("train", [
        "train", "--input", bench.path("train.csv"), "--embeddings", bench.path("embeddings.txt"),
        "--test", bench.path("test.csv"), "--variant", variant, "--td", str(td), "--fc", "small",
        "--batch-size", str(BATCH), "--epochs", str(epochs), "--threads", "1",
        "--out-dir", str(out_dir),
    ], traced)
    bench.checked(cmd, "train", _train_checks(bench, out_dir, classes, with_test=True))
    docs = _train_docs(bench.report["inputs"]["train.csv"]["docs"])
    return Pass(traced, [cmd], *_train_values(cmd, docs))


def yelp_train_v_pass(bench: Bench, traced: bool) -> Pass:
    epochs = bench.report["epochs"]
    props = bench.report["inputs"]["train.csv"]
    stats = bench.cli("stats", ["stats", "--input", bench.path("train.csv"), "--threads", "1"],
                      traced)

    def check_stats(out: dict) -> list[str]:
        problems = []
        if out["num_documents"] != props["docs"]:
            problems.append(f"{out['num_documents']} documents, expected {props['docs']}")
        if abs(out["mean_sentences_per_doc"] - props["sentences_per_doc_mean"]) > 1e-9:
            problems.append(f"mean sentences/doc {out['mean_sentences_per_doc']}, "
                            f"expected {props['sentences_per_doc_mean']}")
        if abs(out["pct_cropped_sentences"] - 100 * props["cropped_sentence_frac"]) > 1e-9:
            problems.append(f"cropped sentences {out['pct_cropped_sentences']}%, "
                            f"expected {100 * props['cropped_sentence_frac']}%")
        return problems

    bench.checked(stats, "stats", check_stats)
    out_dir = bench.fresh_dir("yelp")
    variant, td, classes = TRAIN_SHAPES["yelp_train_v"]
    train = bench.cli("train", [
        "train", "--input", bench.path("train.csv"), "--embeddings", bench.path("embeddings.txt"),
        "--variant", variant, "--td", str(td), "--epochs", str(epochs), "--threads", "1",
        "--out-dir", str(out_dir),
    ], traced)  # the CLI's default --batch-size is BATCH
    bench.checked(train, "train", _train_checks(bench, out_dir, classes, with_test=False))
    values, samples = _train_values(train, _train_docs(props["docs"]))
    if stats.proc.code == 0:
        values["stats_docs_per_s"] = props["docs"] / stats.proc.wall_s
    return Pass(traced, [stats, train], values, samples)


def serve_cold_pass(bench: Bench, traced: bool) -> Pass:
    ref = bench.report["reference_labels"]
    common = ["--checkpoint", bench.path("model.slcnn"), "--embeddings",
              bench.path("embeddings.txt"), "--threads", "1"]
    # One cold predict on empty text (the set-up sample), one on the next
    # real text in turn, then one large eval.
    texts = bench.report["predict_texts"]
    k = bench.passes_started % len(texts)
    commands, setup, cold = [], [], []
    for text, want in (("", ref["empty"]), (texts[k], ref["texts"][k])):
        cmd = bench.cli("predict", ["predict", *common, "--text", text], traced)

        def check_predict(out: dict, want=want) -> list[str]:
            probs = out["probabilities"]
            problems = []
            if len(probs) != 4 or abs(sum(probs) - 1.0) > 1e-5:
                problems.append(f"probabilities {probs} do not sum to 1 over 4 classes")
            if out["label"] != want:
                problems.append(f"label {out['label']}, predict_labels gives {want}")
            return problems

        if bench.checked(cmd, "predict", check_predict):
            (cold if text else setup).append(cmd.proc.wall_s)
        commands.append(cmd)

    n = bench.report["inputs"]["eval.csv"]["docs"]
    ev = bench.cli("eval", ["eval", *common, "--input", bench.path("eval.csv"),
                            "--limit", str(n)], traced)

    def check_eval(out: dict) -> list[str]:
        cm = out["confusion_matrix"]
        problems = []
        if out["num_documents"] != n or sum(map(sum, cm)) != n:
            problems.append(f"{out['num_documents']} documents evaluated, expected {n}")
        if abs(out["accuracy"] - sum(cm[i][i] for i in range(len(cm))) / n) > 1e-12:
            problems.append(f"accuracy {out['accuracy']} != trace(confusion) / N")
        return problems

    values = {}
    if bench.checked(ev, "eval", check_eval):
        values["eval_wall_s"] = ev.proc.wall_s
    commands.append(ev)
    if setup:
        values["setup_s"] = setup[0]
    return Pass(traced, commands, values, {"predict_cold_s": cold})


PASSES = {"ag_train": ag_train_pass, "yelp_train_v": yelp_train_v_pass,
          "serve_cold": serve_cold_pass}


def run_passes(bench: Bench, seconds: float, trace: bool) -> list[Pass]:
    """Repeat passes until the next one would end after *seconds*; at least
    two (untraced, then traced when tracing), so the same-seed checkpoint
    comparison always runs."""
    run_pass = PASSES[bench.workload]
    start = time.perf_counter()
    passes: list[Pass] = []
    longest = 0.0
    while True:
        began = time.perf_counter()
        bench.passes_started = len(passes)
        passes.append(run_pass(bench, trace and len(passes) % 2 == 1))
        now = time.perf_counter()
        longest = max(longest, now - began)
        if len(passes) >= 2 and (now - start + longest > seconds
                                 or now - bench.t0 + longest > RUN_LIMIT_S):
            return passes


# --------------------------------------------------------------------------
# End-to-end metrics (untraced passes)
# --------------------------------------------------------------------------

def end_to_end(bench: Bench, passes: list[Pass]) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the workload's named
    metrics printed beside them."""
    plain = [p for p in passes if not p.traced]

    def med(key: str) -> float | None:
        values = [p.values[key] for p in plain if key in p.values]
        return median(values) if values else None

    metrics = {
        "wall_s": median(p.wall_s for p in plain),
        "setup_s": med("setup_s"),
        "peak_rss_mb": max(c.proc.rss_mb for p in plain for c in p.commands),
    }
    named: dict[str, tuple[float | None, str]] = {}
    if bench.workload == "serve_cold":
        n = bench.report["inputs"]["eval.csv"]["docs"]
        eval_wall = med("eval_wall_s")
        eval_rate = None
        if eval_wall is not None:
            # The gated figure is the whole command's rate: subtracting
            # set-up, as eval_docs_per_s does, amplifies the host's noise.
            metrics["docs_per_s"] = n / eval_wall
            if metrics["setup_s"] is not None:
                eval_rate = n / (eval_wall - metrics["setup_s"])
        cold = [s for p in plain for s in p.samples["predict_cold_s"]]
        named["eval_docs_per_s"] = (eval_rate, "1/s")
        named["predict_cold_s_p50"] = (median(cold) if cold else None, f"s (n={len(cold)})")
    else:
        rates = [r for p in plain for r in p.samples.get("epoch_docs_per_s", [])]
        metrics["docs_per_s"] = median(rates) if rates else None
        named["train_docs_per_s"] = (metrics["docs_per_s"], "1/s")
        if bench.workload == "yelp_train_v":
            named["stats_docs_per_s"] = (med("stats_docs_per_s"), "1/s")
    named["ops_failed_frac"] = (bench.failed / max(1, bench.attempted), "frac")
    return metrics, named


# --------------------------------------------------------------------------
# Per-layer metrics (traced passes)
# --------------------------------------------------------------------------

class Trace:
    """Spans of one traced command with parent/child links."""

    def __init__(self, command: Command) -> None:
        self.spans = command.spans["spans"]
        self.kids = children_of(self.spans)

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def descendants(self, index: int):
        stack = list(self.kids.get(index, []))
        while stack:
            i = stack.pop()
            yield self.spans[i]
            stack.extend(self.kids.get(i, []))

    def exclusive_ns(self, index: int, exclude: tuple[str, ...]) -> int:
        """Duration of span *index* minus what descendants named in
        *exclude* cover."""
        skip = [d for d in self.descendants(index) if d[NAME] in exclude]
        return self_ns(self.spans[index], skip)


def _nn_key(span: list) -> str:
    """The per-layer metric a top-level nn span's time belongs to."""
    name, attrs = span[NAME][3:], span[ATTRS] or {}
    if name in ("conv2d_forward", "conv2d_backward"):
        return f"conv.{attrs['layer']}.{'fwd' if name.endswith('forward') else 'bwd'}"
    if name in ("maxpool_forward", "maxpool_backward"):
        return f"maxpool.{attrs['axis']}.{'fwd' if name.endswith('forward') else 'bwd'}"
    if name in ("dense_forward", "dense_backward"):
        return f"dense.{'fwd' if name.endswith('forward') else 'bwd'}"
    return {"dropout": "dropout", "softmax_cross_entropy": "softmax_ce",
            "adam_step": "adam"}.get(name, "other")


@dataclass
class Unit:
    """One training step, or one eval batch on serve_cold: its interval and
    the top-level nn spans inside it."""

    start: int
    end: int
    nn: list[list]


def training_steps(trace: Trace) -> list[Unit]:
    """Steps of every ``model.train`` span.  A step ends when
    ``nn.adam_step`` returns and starts where the previous one ended, or
    where a non-nn child of train (a validation ``evaluate``) ended."""
    units = []
    for t_index, span in enumerate(trace.spans):
        if span[NAME] != "model.train":
            continue
        cursor, pending = span[START], []
        for i in trace.kids.get(t_index, []):
            child = trace.spans[i]
            if not child[NAME].startswith("nn."):
                cursor, pending = child[END], []
            elif child[NAME] == "nn.adam_step":
                units.append(Unit(cursor, child[END], pending + [child]))
                cursor, pending = child[END], []
            else:
                pending.append(child)
    return units


def eval_batches(trace: Trace) -> list[Unit]:
    """Forward batches inside ``model.predict_labels``: each starts with
    the first conv bank."""
    units = []
    for p_index, span in enumerate(trace.spans):
        if span[NAME] != "model.predict_labels":
            continue
        for i in trace.kids.get(p_index, []):
            child = trace.spans[i]
            if not child[NAME].startswith("nn."):
                continue
            if child[NAME] == "nn.conv2d_forward" and child[ATTRS]["layer"] == "hcb1.conv1":
                units.append(Unit(child[START], child[END], []))
            if units:
                units[-1].nn.append(child)
                units[-1].end = child[END]
    return units


def _per_unit_ms(units: list[Unit]) -> dict[str, float]:
    """Median over units of each nn key's time in the unit, in ms."""
    keys = {_nn_key(s) for u in units for s in u.nn}
    out = {}
    for key in sorted(keys):
        out[key] = median(sum(s[END] - s[START] for s in u.nn if _nn_key(s) == key) / 1e6
                          for u in units)
    return out


def _gflops(units: list[Unit]) -> dict[str, float]:
    """Achieved GFLOP/s per conv bank and direction, from the analytic
    count of each call's shapes over its measured time."""
    work: dict[str, list[float]] = {}
    for span in (s for u in units for s in u.nn):
        if not span[NAME].startswith("nn.conv2d_"):
            continue
        b, m, n, c, k, s, t = span[ATTRS]["shape"]
        count = flops.conv(b, m, n, c, k, s, t)
        if span[NAME].endswith("forward"):
            key, f = f"conv.{span[ATTRS]['layer']}.gflops_fwd", count["fwd"]
        else:
            key, f = f"conv.{span[ATTRS]['layer']}.gflops_bwd", count["bwd_w"] + count["bwd_x"]
        acc = work.setdefault(key, [0.0, 0.0])
        acc[0] += f
        acc[1] += span[END] - span[START]
    return {key: f / ns for key, (f, ns) in work.items()}  # FLOP per ns = GFLOP/s


def layer_metrics(bench: Bench, passes: list[Pass], import_s: float) -> dict[str, tuple]:
    """Every per-layer metric the workload has, as name -> (value, unit)."""
    traced = [p for p in passes if p.traced and all(c.spans for c in p.commands)]
    if not traced:
        return {}
    out: dict[str, tuple] = {}
    per_pass: dict[str, list[float]] = {}

    def pass_total(name: str, seconds: float) -> None:
        per_pass.setdefault(name, []).append(seconds)

    steps: list[Unit] = []
    batches: list[Unit] = []
    loads, saves, ckpt_loads, post_train = [], [], [], []
    pre = {"docs": 0, "ns": 0, "sentences": 0, "cropped": 0}
    oov = {"types": 0, "oov": 0}
    fwd = {"eval_docs": 0, "evaluated": 0, "ns": 0}
    for p in traced:
        totals = {"load_dataset": 0, "grid": 0, "matrix": 0, "val_eval": 0}
        for cmd in p.commands:
            tr = Trace(cmd)
            totals["load_dataset"] += sum(s[END] - s[START] for s in tr.named("corpus.load_dataset"))
            for s in tr.named("corpus.preprocess_document"):
                pre["docs"] += 1
                pre["ns"] += s[END] - s[START]
                pre["sentences"] += s[ATTRS]["sentences"]
                pre["cropped"] += s[ATTRS]["cropped"]
            for i, s in enumerate(tr.spans):
                if s[NAME] == "corpus.build_grid_dataset_from_token_docs":
                    totals["grid"] += tr.exclusive_ns(i, ("corpus.preprocess_document",
                                                          "corpus.load_dataset"))
            for s in tr.named("embedding.load_embeddings"):
                loads.append((s[END] - s[START], s[ATTRS]["rows"]))
            for name in ("embedding.embedding_matrix_for_vocab", "embedding.tensorize"):
                totals["matrix"] += sum(s[END] - s[START] for s in tr.named(name))
            for s in tr.named("embedding.embedding_matrix_for_vocab"):
                oov["types"] += s[ATTRS]["types"]
                oov["oov"] += s[ATTRS]["oov"]
            labels = tr.named("model.predict_labels")
            fwd["eval_docs"] += sum(s[ATTRS]["docs"] for s in labels)
            fwd["ns"] += sum(s[END] - s[START] for s in labels)
            if cmd.kind == "eval":
                fwd["evaluated"] += cmd.output["num_documents"]
            else:
                fwd["evaluated"] += sum(s[ATTRS]["docs"] for s in tr.named("model.evaluate"))
            saves += [(s[END] - s[START]) / 1e6 for s in tr.named("model.save_checkpoint")]
            ckpt_loads += [(s[END] - s[START]) / 1e6 for s in tr.named("model.load_checkpoint")]
            for t_index, s in enumerate(tr.spans):
                if s[NAME] != "model.train":
                    continue
                totals["val_eval"] += sum(tr.spans[i][END] - tr.spans[i][START]
                                          for i in tr.kids.get(t_index, [])
                                          if tr.spans[i][NAME] == "model.evaluate")
                # The first test evaluation after training ends the
                # train-side work; what follows is writing the results.
                after = [e[END] for e in tr.named("model.evaluate") if e[START] > s[END]]
                done_ns = min(after) if after else s[END]
                post_train.append(cmd.proc.end - done_ns / 1e9)
            steps += training_steps(tr)
            if cmd.kind == "eval":
                batches += eval_batches(tr)
        pass_total("corpus.load_dataset_s", totals["load_dataset"] / 1e9)
        pass_total("corpus.grid_build_s", totals["grid"] / 1e9)
        pass_total("embedding.matrix_build_s", totals["matrix"] / 1e9)
        if bench.workload != "serve_cold":
            pass_total("model.val_eval_s", totals["val_eval"] / 1e9)

    for name, values in per_pass.items():
        out[name] = (median(values), "s")

    def ratio(name: str, num: float, den: float, unit: str) -> None:
        if den:  # a layer the program no longer reaches is left out, not a crash
            out[name] = (num / den, unit)

    ratio("corpus.preprocess_docs_per_s", pre["docs"], pre["ns"] / 1e9, "1/s")
    ratio("corpus.sentences_per_doc_mean", pre["sentences"], pre["docs"], "count")
    ratio("corpus.cropped_sentence_frac", pre["cropped"], pre["sentences"], "frac")
    if loads:
        out["embedding.load_s"] = (median(ns for ns, _ in loads) / 1e9, "s")
        out["embedding.rows_per_s"] = (median(rows / (ns / 1e9) for ns, rows in loads), "1/s")
    ratio("embedding.oov_frac", oov["oov"], oov["types"], "frac")
    ratio("model.eval_docs_per_s", fwd["eval_docs"], fwd["ns"] / 1e9, "1/s")
    ratio("model.forward_passes_per_eval_doc", fwd["eval_docs"], fwd["evaluated"], "count")
    if saves:
        out["model.checkpoint_save_ms"] = (median(saves), "ms")
    if ckpt_loads:
        out["model.checkpoint_load_ms"] = (median(ckpt_loads), "ms")
    if post_train:
        out["cli.post_train_s"] = (median(post_train), "s")

    units_measured = steps or batches
    for key, ms in _per_unit_ms(units_measured).items():
        out[f"nn.{key}_ms"] = (ms, "ms")
    for key, rate in _gflops(units_measured).items():
        out[f"nn.{key}"] = (rate, "GFLOP/s")
    if steps:
        _step_metrics(bench, steps, out)

    untraced = [p.wall_s for p in passes if not p.traced]
    if import_s is not None:
        out["cli.import_s"] = (import_s, "s")
    out["trace.overhead_frac"] = (median(p.wall_s for p in traced) / median(untraced) - 1, "frac")
    return out


def _step_metrics(bench: Bench, steps: list[Unit], out: dict) -> None:
    step_ms, fwd_ms, bwd_ms, self_ms = [], [], [], []
    for u in steps:
        ce = next((s for s in u.nn if s[NAME] == "nn.softmax_cross_entropy"), None)
        if ce is None:
            continue
        step_ms.append((u.end - u.start) / 1e6)
        adam = u.nn[-1]
        fwd_ms.append((ce[START] - u.start) / 1e6)
        bwd_ms.append((adam[START] - ce[END]) / 1e6)
        self_ms.append(step_ms[-1] - sum(s[END] - s[START] for s in u.nn) / 1e6)
    if not step_ms:
        return
    out["model.step_ms_p50"] = (median(step_ms), "ms")
    out["model.steps_traced"] = (len(step_ms), "count")
    t = tail(step_ms)
    if t is not None:
        out["model.step_ms_tail"] = (t["value"], f"ms (p{t['percentile']}, n={t['n']})")
    out["model.forward_ms_p50"] = (median(fwd_ms), "ms")
    out["model.backward_ms_p50"] = (median(bwd_ms), "ms")
    out["model.step_self_ms_p50"] = (median(self_ms), "ms")
    nn_keys = [k for k in out if k.startswith("nn.") and k.endswith("_ms")]
    accounted = sum(out[k][0] for k in nn_keys) + out["model.step_self_ms_p50"][0]
    out["model.step_accounted_frac"] = (accounted / out["model.step_ms_p50"][0], "frac")

    variant, doc_len, classes = TRAIN_SHAPES[bench.workload]
    summary = flops.step_summary(flops.model_layers(variant, doc_len, BATCH, num_classes=classes))
    out["nn.flops_per_step"] = (summary["flops_per_step"], "FLOP")
    out["nn.discarded_input_grad_frac"] = (summary["discarded_input_grad_frac"], "frac")


def import_time(bench: Bench) -> float | None:
    """Median wall time of ``python -m slcnn --version``: interpreter start
    plus the CLI's imports, which every cold command pays."""
    walls = []
    for _ in range(IMPORT_SAMPLES):
        cmd = bench.cli("version", ["--version"])
        ok = cmd.proc.stdout.startswith("slcnn ")
        if bench.record(cmd, "--version", [] if ok else [f"stdout {cmd.proc.stdout!r}"]):
            walls.append(cmd.proc.wall_s)
    return median(walls) if walls else None


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _probe(bench: Bench) -> dict:
    proc = spawn([sys.executable, str(HERE / "tracer.py"), "--probe"], bench.root, bench.env, 60)
    if proc.code != 0:
        return {"error": " | ".join(line for _, line in proc.lines[-3:])}
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="input size; 'smoke' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "slcnn" / "cli.py").is_file():
        print(f"error: {root} is not an slcnn source checkout (no src/slcnn/cli.py)",
              file=sys.stderr)
        return 2
    try:
        bench = Bench(root, args.workload, args.seed, args.size)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: cannot prepare inputs: {exc}", file=sys.stderr)
        return 2
    try:
        environment = _probe(bench)
        passes = run_passes(bench, args.seconds, bool(args.trace))
        e2e, named = end_to_end(bench, passes)
        layers = {}
        if args.trace:
            environment["traced_blas_threads"] = sorted({
                c.spans["environment"]["blas_threads"]
                for p in passes for c in p.commands if c.spans})
            try:
                layers = layer_metrics(bench, passes, import_time(bench))
            except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
                bench.failures.append(f"trace analysis failed: {exc!r}")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    correct = not bench.failures
    emitted = ({k: layers.get(k, (None,))[0] for k in PER_LAYER} if args.trace else
               {k: e2e.get(k) for k in END_TO_END})
    units = PER_LAYER if args.trace else END_TO_END
    if any(v is None for v in emitted.values()):
        correct = False
        bench.failures.append("metrics not measured: "
                              + ", ".join(k for k, v in emitted.items() if v is None))

    lines = [f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(passes)} passes, {bench.attempted} commands, {bench.failed} failed",
             "# environment " + json.dumps(environment, sort_keys=True),
             "# inputs " + json.dumps({"generator_version": bench.report["generator_version"],
                                       "embedding_rows": bench.report["embedding_rows"],
                                       "files": bench.report["inputs"]}, sort_keys=True)]
    lines += [f"{k} {v:.6g} {END_TO_END[k]}" for k, v in e2e.items() if v is not None]
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in named.items() if v is not None]
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in sorted(layers.items())]
    lines += [f"# FAILED {f}" for f in bench.failures]
    print("\n".join(lines))

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment, "inputs": bench.report, "failures": bench.failures,
              "end_to_end": e2e, "named": named, "per_layer": layers,
              "passes": [{"traced": p.traced, "wall_s": p.wall_s, **p.values} for p in passes]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, default=str) + "\n", encoding="utf-8")

    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": (v if v is not None else 0.0), "unit": units[k]}
                    for k, v in emitted.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
