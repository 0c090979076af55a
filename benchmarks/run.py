#!/usr/bin/env python3
"""End-to-end benchmark of the mdap command line program.

One run generates its inputs from --seed, then drives the CLI in process
through mdap.cli.main exactly as a user would (`prepare`, then `train`
or `ablate`) until --seconds have been measured, checks the outputs
outside the timed region, and prints one JSON object as its last line.

    python3 benchmarks/run.py --workload train-dense --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --all --seed 1 --trace 1     # every workload, one table

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
passes with traced passes that wrap every layer, and reports per-layer
metrics plus the tracing overhead. Layers are timed from outside, by replacing the public
functions at the module attributes the program calls through. A full
record of each run (environment, input digest, samples, checks) is
written under benchmarks/results/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

# BLAS threads are pinned so that figures from machines with more cores
# stay comparable with those of the 2-CPU machine the sizes were set on.
BLAS_THREAD_CAP = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CUTOFF = 20
MIN_PASSES = 3  # untraced passes per run at least
MIN_TRACED_PAIRS = 2  # untraced + traced pass pairs of a traced run at least
SETUP_BUDGET_S = 1.0  # a timed untraced pass repeats prepare until its set-ups take this long
CHECK_TOLERANCE = 1e-12

# Why each workload exists is recorded in BENCHMARK.json. Epoch counts are
# fixed and patience equals epochs, so every run does the same work.
# ablate-small is not listed in BENCHMARK.json: it is bound by per-call
# Python cost, and on the sizing host its timings spread by up to 28 % of
# the median across ten runs, beyond 0.25, the largest bound a listed
# metric may have. It stays runnable here (and in --all) for checks of
# per-call cost and of the ablation paths.
WORKLOADS = {
    "train-dense": {
        "data": {"n_users": 1024, "n_items_s": 1200, "n_items_t": 800,
                 "k_true": 8, "overlap": 0.5, "noise": 0.01},
        "command": "train",
        "options": {"k": 8, "embed_dim": 64, "hidden": 256, "batch_users": 256,
                    "epochs": 6},
    },
    "eval-sparse": {
        "data": {"n_users": 2000, "n_items_s": 5000, "n_items_t": 3000,
                 "k_true": 200, "overlap": 0.5, "noise": 0.001},
        "command": "train",
        "options": {"k": 4, "embed_dim": 32, "hidden": 64, "batch_users": 256,
                    "epochs": 3, "lr": 0.01},
    },
    "ablate-small": {
        "data": {"n_users": 200, "n_items_s": 40, "n_items_t": 30,
                 "k_true": 4, "overlap": 0.5, "noise": 0.05},
        "command": "ablate",
        "options": {"epochs": 60},
    },
}

# --size toy: the same commands on inputs small enough for the smoke test.
TOY = {
    "data": {"n_users": 80, "n_items_s": 40, "n_items_t": 30, "k_true": 4,
             "overlap": 0.5, "noise": 0.05},
    "epochs": 2,
}

END_TO_END = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "eval_rows_per_s": "users/s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
    "test_ndcg20": "1",
    "test_recall20": "1",
}

# Per-layer metric -> (end-to-end metric it should move, workload that
# exercises it, workloads that bypass it). `.s` is self seconds per
# pipeline pass, `.calls` a call count.
LAYER_MAP = {
    "model.forward.train.s": ("train_rows_per_s", "train-dense", "eval-sparse, ablate-small MV"),
    "model.forward.train.calls": ("train_rows_per_s", "train-dense", "eval-sparse, ablate-small MV"),
    "training.backward.s": ("train_rows_per_s", "train-dense", "eval-sparse, ablate-small MV"),
    "model.encode_rows.s": ("train_rows_per_s", "train-dense", "eval-sparse, ablate-small MV"),
    "model.encode_rows.calls": ("train_rows_per_s", "train-dense", "eval-sparse, ablate-small MV"),
    "model.view_inputs.s": ("train_rows_per_s", "train-dense", "eval-sparse, ablate-small MV"),
    "model.combine_views.s": ("train_rows_per_s", "train-dense", "eval-sparse, ablate-small MV"),
    "model.forward.eval.s": ("eval_rows_per_s", "eval-sparse", "ablate-small"),
    "model.decode.s": ("eval_rows_per_s", "eval-sparse", "ablate-small"),
    "model.decode.useful_cols": ("eval_rows_per_s", "eval-sparse", "ablate-small"),
    "evaluation.evaluate.s": ("eval_rows_per_s", "eval-sparse", "train-dense"),
    "evaluation.model_scores.s": ("eval_rows_per_s", "eval-sparse", "train-dense"),
    "evaluation.score_matrix_metrics.s": ("eval_rows_per_s", "eval-sparse", "train-dense"),
    "evaluation.top_k.s": ("eval_rows_per_s", "eval-sparse", "train-dense"),
    "evaluation.top_k.calls": ("eval_rows_per_s", "eval-sparse", "train-dense"),
    "evaluation.users_useful": ("eval_rows_per_s", "eval-sparse", "train-dense"),
    "data.load_domain.s": ("setup_s", "eval-sparse, train-dense", "ablate-small"),
    "data.build_dataset.s": ("setup_s", "eval-sparse, train-dense", "ablate-small"),
    "data.user_item_arrays.s": ("setup_s", "eval-sparse, train-dense", "ablate-small"),
    "cli.write_prepared.s": ("setup_s", "eval-sparse, train-dense", "ablate-small"),
    "cli.load_prepared.s": ("setup_s", "eval-sparse, train-dense", "ablate-small"),
    "data.batch_rows.s": ("train_rows_per_s", "eval-sparse", "train-dense"),
    "data.batch_rows.rows": ("train_rows_per_s", "eval-sparse", "train-dense"),
    "data.batch_rows.density": ("train_rows_per_s", "eval-sparse", "train-dense"),
    "numerics.sample_dropout_mask.s": ("train_rows_per_s", "eval-sparse", "train-dense"),
    "training.AdamOptimizer.step.s": ("train_rows_per_s", "ablate-small", "eval-sparse"),
    "training.loss.s": ("train_rows_per_s", "ablate-small", "eval-sparse"),
    "training.train.s": ("train_rows_per_s", "ablate-small", "eval-sparse"),
    "model.forward.peak_mb": ("peak_rss_mb", "train-dense, eval-sparse", "ablate-small"),
    "training.backward.peak_mb": ("peak_rss_mb", "train-dense, eval-sparse", "ablate-small"),
    "cli.save_checkpoint.s": ("total_s", "ablate-small", "train-dense"),
    "cli.save_checkpoint.bytes": ("total_s", "ablate-small", "train-dense"),
    "trace.overhead_s": ("nothing: traced minus untraced total_s", "every workload", "none"),
}

PER_LAYER_UNITS = {"s": "s", "calls": "count", "rows": "count", "bytes": "bytes",
                   "peak_mb": "MiB", "overhead_s": "s", "useful_cols": "1",
                   "users_useful": "1", "density": "1"}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


class Failure(Exception):
    """An operation of the run failed; the run reports it and stops."""


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------------
# Environment


def pin_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, BLAS_THREAD_CAP)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mdap").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def environment(np, threads: int, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": threads,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Workload set-up


def workload_spec(name: str, size: str) -> dict:
    spec = json.loads(json.dumps(WORKLOADS[name]))
    if size == "toy":
        spec["data"] = dict(TOY["data"])
        spec["options"]["epochs"] = TOY["epochs"]
    spec["options"]["patience"] = spec["options"]["epochs"]
    return spec


def command_argv(spec: dict, out: str, seed: int) -> list[str]:
    argv = [spec["command"], "--out", out, "--seed", str(seed), "--cutoff", str(CUTOFF),
            "--quiet"]
    for key, value in spec["options"].items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def dataset_stats(dataset) -> dict:
    n_items = dataset.n_items("s") + dataset.n_items("t")
    pairs = {f"{d}_{sp}": dataset.split_size(d, sp)
             for d in ("s", "t") for sp in ("train", "valid", "test")}
    n_train = pairs["s_train"] + pairs["t_train"]
    return {"n_users": dataset.n_users, "n_items_s": dataset.n_items("s"),
            "n_items_t": dataset.n_items("t"), "pairs": pairs,
            "train_pairs": n_train, "train_density": n_train / (dataset.n_users * n_items)}


# --------------------------------------------------------------------------
# Instrumentation


def install_phases(tracer, mdap):
    """The few boundaries the end-to-end metrics need."""
    def count_rows(tr, args, kwargs, result):
        dataset = kwargs.get("dataset", args[0] if args else None)
        tr.counts["train.rows"] += len(result[1].records) * dataset.n_users

    def count_users(tr, args, kwargs, result):
        dataset = kwargs.get("dataset", args[2] if len(args) > 2 else None)
        tr.counts["eval.users"] += dataset.n_users

    def keep_dataset(tr, args, kwargs, result):
        tr.kept["dataset"] = result

    tracer.wrap(mdap.training, "train", "training.train", hook=count_rows)
    tracer.wrap(mdap.evaluation, "evaluate", "evaluation.evaluate", hook=count_users)
    tracer.wrap(mdap.cli, "load_prepared", "cli.load_prepared", hook=keep_dataset)


def install_layers(tracer, mdap, np):
    """Every layer of the traced run. Functions a later version of the
    program no longer has are skipped and report zero."""
    def decode_cols(tr, args, kwargs, result):
        scores = result[-1] if isinstance(result, tuple) else result
        tr.counts["decode.computed"] += scores.size

    def forward_cols(tr, args, kwargs, result):
        tr.counts["decode.kept"] += result.recon_s.size + result.recon_t.size

    def batch_density(tr, args, kwargs, result):
        tr.counts["batch.rows"] += result.shape[0]
        tr.counts["batch.cells"] += result.size
        tr.counts["batch.nnz"] += np.count_nonzero(result)

    def ranked_users(tr, args, kwargs, result):
        tr.counts["users.scored"] += args[0].shape[0]
        tr.counts["users.evaluated"] += result[2]

    def checkpoint_bytes(tr, args, kwargs, result):
        tr.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def mode(result):
        return ".train" if getattr(result, "training", False) else ".eval"

    targets = [
        (mdap.data, "load_domain", "data.load_domain", {}),
        (mdap.data, "build_dataset", "data.build_dataset", {}),
        (mdap.data.InteractionDataset, "user_item_arrays", "data.user_item_arrays", {}),
        (mdap.data, "batch_rows", "data.batch_rows", {"hook": batch_density}),
        (mdap.numerics, "sample_dropout_mask", "numerics.sample_dropout_mask", {}),
        (mdap.model, "forward", "model.forward",
         {"suffix": mode, "hook": forward_cols, "memory": "model.forward"}),
        (mdap.model, "encode_rows", "model.encode_rows", {}),
        (mdap.model, "view_inputs", "model.view_inputs", {}),
        (mdap.model, "combine_views", "model.combine_views", {}),
        (mdap.model, "decode", "model.decode", {"hook": decode_cols}),
        (mdap.training, "loss", "training.loss", {}),
        (mdap.training, "backward", "training.backward", {"memory": "training.backward"}),
        (mdap.training.AdamOptimizer, "step", "training.AdamOptimizer.step", {}),
        (mdap.evaluation, "model_scores", "evaluation.model_scores", {}),
        (mdap.evaluation, "score_matrix_metrics", "evaluation.score_matrix_metrics",
         {"hook": ranked_users}),
        (mdap.evaluation, "top_k", "evaluation.top_k", {}),
        (mdap.cli, "write_prepared", "cli.write_prepared", {}),
        (mdap.model, "save_checkpoint", "cli.save_checkpoint", {"hook": checkpoint_bytes}),
    ]
    for owner, attr, label, options in targets:
        if hasattr(owner, attr):
            tracer.wrap(owner, attr, label, **options)


def layer_metrics(tracer) -> dict:
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    metrics = {}
    for name in LAYER_MAP:
        layer, stat = name.rsplit(".", 1)
        if stat == "s":
            metrics[name] = self_s.get(layer, 0.0)
        elif stat == "calls":
            metrics[name] = calls.get(layer, 0)
        elif stat == "peak_mb":
            metrics[name] = tracer.peaks.get(layer, 0.0)
    metrics["model.decode.useful_cols"] = ratio("decode.kept", "decode.computed")
    metrics["evaluation.users_useful"] = ratio("users.evaluated", "users.scored")
    metrics["data.batch_rows.rows"] = counts["batch.rows"]
    metrics["data.batch_rows.density"] = ratio("batch.nnz", "batch.cells")
    metrics["cli.save_checkpoint.bytes"] = counts["checkpoint.bytes"]
    return metrics


# --------------------------------------------------------------------------
# One pass of the workload's commands


def run_cli(mdap, argv: list[str], ops: list) -> float:
    """Run one CLI command in process; returns its wall time."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = mdap.cli.main(argv)
    except Exception:  # a crash is a failed op, reported with its traceback
        traceback.print_exc()
        code = -1
    elapsed = time.perf_counter() - start
    ops.append({"op": argv[0], "ok": code == 0, "detail": f"exit {code}"})
    if code != 0:
        raise Failure(f"`mdap {' '.join(argv)}` exited with {code}")
    return elapsed


def run_pass(mdap, np, spec, inputs, out: str, seed: int, ops: list, traced: bool = False,
             setup_budget: float = 0.0) -> dict:
    """`prepare`, then the workload command. Returns the timings and
    counters of the pass.

    `prepare` is repeated, each time followed by a `load_prepared` like
    the one the command starts with, until the set-ups have taken
    setup_budget seconds; the last `prepare` is followed by the command
    itself. Small workloads thus give setup_s many samples.
    """
    tracer = Tracer()
    install_phases(tracer, mdap)
    if traced:
        install_layers(tracer, mdap, np)
    prepare = ["prepare", "--domain-s", inputs["paths"]["s"], "--domain-t",
               inputs["paths"]["t"], "--out", out, "--seed", str(seed)]
    try:
        prepare_s = [run_cli(mdap, prepare, ops)]
        while sum(prepare_s) + sum(tracer.durations("cli.load_prepared")) < setup_budget:
            mdap.cli.load_prepared(out)
            prepare_s.append(run_cli(mdap, prepare, ops))
        command_s = run_cli(mdap, command_argv(spec, out, seed), ops)
    finally:
        tracer.restore()
    train_s = (sum(tracer.durations("training.train"))
               - tracer.nested_time("training.train", "evaluation.evaluate"))
    eval_s = sum(tracer.durations("evaluation.evaluate"))
    result = {
        "setup_s": [p + l for p, l in zip(prepare_s, tracer.durations("cli.load_prepared"))],
        "total_s": prepare_s[-1] + command_s,
        "train_rows_per_s": tracer.counts["train.rows"] / train_s,
        "eval_rows_per_s": tracer.counts["eval.users"] / eval_s,
        "dataset": tracer.kept["dataset"],
    }
    if traced:
        result["layers"] = layer_metrics(tracer)
        result["spans"] = tracer.spans
    return result


# --------------------------------------------------------------------------
# Correctness checks (outside the timed region)


def read_pairs(path: Path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def oracle_metrics(mdap, np, scores: dict, dataset, out: Path) -> dict:
    """Test recall/NDCG from the scalar oracles, with ground truth read
    back from the split files prepare wrote."""
    ev = mdap.evaluation
    user_index = {u: i for i, u in enumerate(dataset.users)}
    result = {}
    for domain in ("s", "t"):
        item_index = {it: i for i, it in enumerate(dataset.items[domain])}
        train = [[] for _ in dataset.users]
        truth = [set() for _ in dataset.users]
        for u, it in read_pairs(out / "splits" / f"{domain}_train.tsv"):
            train[user_index[u]].append(item_index[it])
        for u, it in read_pairs(out / "splits" / f"{domain}_test.tsv"):
            truth[user_index[u]].add(item_index[it])
        recall = ndcg = 0.0
        n_eval = 0
        for u in range(len(dataset.users)):
            if not truth[u]:
                continue
            ranked = ev.top_k(scores[domain][u], np.asarray(train[u], dtype=np.int64), CUTOFF)
            recall += ev.recall_at_k(ranked, truth[u], CUTOFF)
            ndcg += ev.ndcg_at_k(ranked, truth[u], CUTOFF)
            n_eval += 1
        result[domain] = {"recall": recall / max(n_eval, 1), "ndcg": ndcg / max(n_eval, 1),
                          "n_users_evaluated": n_eval}
    return result


def reported_models(spec, out: Path) -> list[tuple[str, Path, dict]]:
    """(name, checkpoint, reported test metrics per domain) of each model."""
    if spec["command"] == "train":
        report = json.loads((out / "reports" / "test_metrics.json").read_text())
        return [("model", out / "checkpoints" / "model.ckpt", report["domains"])]
    report = json.loads((out / "reports" / "ablation.json").read_text())
    models = []
    for row in report["rows"]:
        tag = row["variant"].lower().replace("-", "_")
        domains = {d: {"recall": row[f"recall_{d}"], "ndcg": row[f"ndcg_{d}"]}
                   for d in ("s", "t")}
        models.append((row["variant"], out / "checkpoints" / f"ablation_{tag}.ckpt", domains))
    return models


def log_files(spec, out: Path) -> list[Path]:
    if spec["command"] == "train":
        return [out / "logs" / "train_log.jsonl"]
    return sorted((out / "logs").glob("ablation_*.jsonl"))


def log_digest(spec, out: Path) -> str:
    digest = hashlib.sha256()
    for path in log_files(spec, out):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_outputs(mdap, np, spec, out: Path, dataset, checks: list) -> dict:
    """Oracle, checkpoint and loss checks on the last pass's outputs.
    Returns the reported test metrics averaged over domains and models."""
    def record(name, ok, detail):
        checks.append({"op": name, "ok": bool(ok), "detail": detail})

    def keep_scores(tr, args, kwargs, result):
        tr.kept["scores"] = result

    ndcg, recall = [], []
    for name, ckpt, reported in reported_models(spec, out):
        params, config, _ = mdap.model.load_checkpoint(str(ckpt))
        # evaluate() scores through evaluation.model_scores; the oracle
        # reuses those scores instead of computing them a second time.
        capture = Tracer()
        capture.wrap(mdap.evaluation, "model_scores", "model_scores", hook=keep_scores)
        try:
            again = mdap.evaluation.evaluate(params, config, dataset, "test", k=CUTOFF)
        finally:
            capture.restore()
        same = all(again.domains[d][m] == reported[d][m]
                   for d in ("s", "t") for m in reported[d])
        record(f"checkpoint_reproduces_report[{name}]", same,
               "identical" if same else f"{again.domains} != {reported}")

        oracle = oracle_metrics(mdap, np, capture.kept["scores"], dataset, out)
        gap = max(abs(oracle[d][m] - reported[d][m])
                  for d in ("s", "t") for m in ("recall", "ndcg"))
        record(f"oracle_metrics[{name}]", gap <= CHECK_TOLERANCE, f"max gap {gap:.3g}")
        for d in ("s", "t"):
            ndcg.append(reported[d]["ndcg"])
            recall.append(reported[d]["recall"])

    for path in log_files(spec, out):
        losses = [json.loads(line)["loss_total"] for line in path.read_text().splitlines()]
        finite = bool(losses) and all(math.isfinite(x) for x in losses)
        record(f"loss_finite[{path.name}]", finite, f"{len(losses)} epochs")
        record(f"loss_decreases[{path.name}]", finite and losses[-1] < losses[0],
               f"first {losses[0]:.6g} last {losses[-1]:.6g}" if losses else "no epochs")
    return {"test_ndcg20": statistics.fmean(ndcg), "test_recall20": statistics.fmean(recall)}


def check_log_digests(digests: list[str], key: str, checks: list):
    """Every pass of this run, and every earlier run in this checkout with
    the same workload, seed and program source, wrote the same log."""
    same = len(set(digests)) == 1
    store = RESULTS_DIR / "log_digests" / f"{key}.txt"
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.exists():
        earlier = store.read_text().strip()
        same = same and earlier == digests[0]
    else:
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(digests[0] + "\n")
        os.replace(tmp, store)
    checks.append({"op": "log_digest_stable", "ok": same,
                   "detail": f"{len(digests)} pass(es), digest {digests[0][:16]}"})


def write_spans(path: Path, passes: list[list[tuple]]):
    """Spans of the traced passes as [label index, start, end, parent]
    rows, times in seconds from the pass's first span."""
    labels: dict[str, int] = {}
    rows = []
    for spans in passes:
        origin = spans[0][1] if spans else 0.0
        rows.append([[labels.setdefault(name, len(labels)), round(start - origin, 7),
                      round(end - origin, 7), parent]
                     for name, start, end, parent in spans])
    path.write_text(json.dumps({"labels": list(labels), "passes": rows}) + "\n")


# --------------------------------------------------------------------------
# One run


def run_workload(args) -> int:
    if not (SRC / "mdap" / "__init__.py").is_file():
        return fail(f"no program source at {SRC}/mdap; run from a checkout of the repository")
    threads = pin_blas_threads()
    # numpy and the program are imported only now, after the BLAS thread
    # count is in the environment.
    sys.path.insert(0, str(SRC))
    import numpy as np
    import mdap
    import mdap.cli
    from inputs import write_inputs
    if Path(mdap.__file__).resolve().parent != (SRC / "mdap").resolve():
        return fail(f"imported mdap from {mdap.__file__}, not from {SRC}")

    spec = workload_spec(args.workload, args.size)
    env = environment(np, threads, args.seed)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK_DIR / run_id
    ops: list[dict] = []
    checks: list[dict] = []
    passes: list[dict] = []
    traced: list[dict] = []
    quality: dict = {}
    stats: dict = {}
    inputs: dict = {}
    error = None
    try:
        work.mkdir(parents=True, exist_ok=True)
        inputs = write_inputs(spec["data"], args.seed, args.workload, str(work))
        # An untimed toy pass first: the first calls in a fresh process
        # (BLAS threads, lazy imports) otherwise slow the first pass by ~1 s.
        toy = workload_spec(args.workload, "toy")
        (work / "toy").mkdir()
        toy_inputs = write_inputs(toy["data"], args.seed, args.workload, str(work / "toy"))
        run_pass(mdap, np, toy, toy_inputs, str(work / "toy" / "out"), args.seed, ops)
        out = work / "out"
        digests = []
        deadline = time.perf_counter() + args.seconds
        min_passes = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
        # A traced run alternates untraced and traced passes, so that the
        # tracing overhead compares passes made under the same conditions.
        while True:
            tracing = bool(args.trace) and len(traced) < len(passes)
            shutil.rmtree(out, ignore_errors=True)
            result = run_pass(mdap, np, spec, inputs, str(out), args.seed, ops, traced=tracing,
                              setup_budget=0.0 if tracing else SETUP_BUDGET_S)
            (traced if tracing else passes).append(result)
            digests.append(log_digest(spec, out))
            if (time.perf_counter() >= deadline and len(passes) >= min_passes
                    and len(traced) == (len(passes) if args.trace else 0)):
                break
        rss = peak_rss_mb()
        dataset = (traced or passes)[-1]["dataset"]
        stats = dataset_stats(dataset)
        quality = check_outputs(mdap, np, spec, out, dataset, checks)
        key = hashlib.sha256(json.dumps(
            [spec, args.seed, env["source_sha256"], env["numpy"], threads],
            sort_keys=True).encode("utf-8")).hexdigest()[:24]
        check_log_digests(digests, key, checks)
    except Failure as exc:
        error = str(exc)
    except Exception:  # anything else also ends the run as a failure, with its traceback
        error = traceback.format_exc()
        checks.append({"op": "run", "ok": False, "detail": error})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) + len(checks)
    failed = sum(1 for op in ops + checks if not op["ok"])
    if error is not None:
        print(f"benchmark: {error}", file=sys.stderr)

    metrics: dict = {}
    if passes and quality:
        metrics = {
            "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
            "train_rows_per_s": statistics.median(p["train_rows_per_s"] for p in passes),
            "eval_rows_per_s": statistics.median(p["eval_rows_per_s"] for p in passes),
            "total_s": statistics.median(p["total_s"] for p in passes),
            "peak_rss_mb": rss,
            **quality,
        }
    layers: dict = {}
    if traced and metrics:
        layers = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(t["total_s"] for t in traced)
                                      - statistics.median(p["total_s"] for p in passes))

    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "spec": spec, "inputs_sha256": inputs.get("sha256"), "dataset": stats,
        "passes": [{k: v for k, v in p.items() if k != "dataset"} for p in passes],
        "traced_total_s": [t["total_s"] for t in traced],
        "metrics": metrics, "layers": layers, "ops": ops, "checks": checks,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (RESULTS_DIR / f"{run_id}-{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        write_spans(RESULTS_DIR / f"{run_id}-{stamp}-spans.json", [t["spans"] for t in traced])

    if not metrics or (args.trace and not layers):
        print(f"benchmark: no complete pass of {args.workload}", file=sys.stderr)
        return 1
    if args.trace:
        shown = {name: {"value": layers[name], "unit": per_layer_unit(name)}
                 for name in LAYER_MAP}
    else:
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# All workloads in one table


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr.strip(), file=sys.stderr)
            status = 1
            continue
        for metric, entry in result["metrics"].items():
            moves, exercised, bypassed = LAYER_MAP.get(metric, ("", "", ""))
            target = (f"  -> {moves} on {exercised} (bypassed: {bypassed})"
                      if args.trace else "")
            print(f"  {metric:<36} {entry['value']:>16.6g} {entry['unit']:<8}{target}")
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':<36} {frac:>16.6g} {'1':<8}"
              f"  ({result['failed']} of {result['attempted']} ops)")
        if proc.returncode != 0:
            status = 1
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure at least this long (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks the inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
