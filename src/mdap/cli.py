"""Command line front end.

Commands share one output directory with a fixed layout:

  out/
    manifest.json        dataset provenance and split file sha256 (written by prepare)
    config_<cmd>.json    resolved options + hash of each command that succeeded
    splits/              <domain>_<split>.tsv pair files
    checkpoints/         model checkpoints
    logs/                per-epoch training logs (JSON lines)
    reports/             metrics, ablation and grid summaries
    grid/                one subdirectory per grid run

Options resolve in order: built-in defaults, then a key=value config
file (--config), then --preset, then explicit flags. The built-in
defaults of the model, training and synth options are those of
ModelConfig, TrainConfig and SyntheticSpec. Exit codes: 0 on success, 2
for usage/config/data problems, 3 when training diverges.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .data import (DOMAINS, SPLITS, InteractionDataset, SyntheticSpec, atomic_open,
                   build_dataset, decode_text, gather, index_pairs, k_core_filter, load_domain,
                   read_text, synthetic_records, text_lines, write_domain_file)
from .errors import DataError, MdapError, ParameterError, TrainingDivergedError
from .evaluation import evaluate
from .model import ABLATION_VARIANTS, ABLATIONS, ModelConfig, save_checkpoint
from .numerics import Rng
from .training import TrainConfig, train
from . import __version__

# the library's default configurations, which OPTION_TABLE reads its defaults from
MODEL, TRAINING, SYNTH = ModelConfig(), TrainConfig(), SyntheticSpec()
# name -> (python type, default, --help text). "lambda" is the lam field,
# "dropout" is 1 - keep_prob, "epochs" is epochs_max and "cutoff" is eval_k.
OPTION_TABLE = {
    "seed": (int, TRAINING.seed, "random seed for every stochastic stage"),
    "k": (int, MODEL.k, "number of preference views"),
    "tau": (float, MODEL.tau, "assignment softmax temperature"),
    "lambda": (float, MODEL.lam, "gate orthogonality weight"),
    "dropout": (float, 1.0 - MODEL.keep_prob,
                "input dropout probability (keep prob is 1 - dropout)"),
    "epochs": (int, TRAINING.epochs_max, "maximum training epochs"),
    "patience": (int, TRAINING.patience, "early stopping patience in epochs"),
    "batch_users": (int, TRAINING.batch_users, "user rows per training batch"),
    "lr": (float, TRAINING.lr, "Adam learning rate"),
    "embed_dim": (int, MODEL.embed_dim, "embedding width"),
    "hidden": (int, MODEL.hidden, "encoder/decoder hidden width"),
    "ablation": (str, MODEL.ablation, "model variant to train"),
    "min_interactions": (int, 1, "per-domain core filter level (1 disables)"),
    "threshold": (float, 1.0, "minimum rating that counts as an interaction"),
    "cutoff": (int, TRAINING.eval_k, "ranking cutoff for recall/ndcg"),
    "n_users": (int, SYNTH.n_users, "synthetic user count"),
    "n_items_s": (int, SYNTH.n_items_s, "synthetic item count, domain s"),
    "n_items_t": (int, SYNTH.n_items_t, "synthetic item count, domain t"),
    "k_true": (int, SYNTH.k_true, "number of planted views"),
    "overlap": (float, SYNTH.overlap, "fraction of users present in both domains"),
    "noise": (float, SYNTH.noise, "off-block interaction probability"),
    "dropout_grid": (str, "0.5,0.7,0.9", "comma list of dropout values"),
    "tau_grid": (str, "0.1,0.2,0.5", "comma list of tau values"),
    "k_grid": (str, "4,8,16", "comma list of k values"),
    "lambda_grid": (str, "0.1,0.5,1.0", "comma list of lambda values"),
}

PRESETS = {
    "epinions": {"dropout": 0.5, "tau": 0.2, "k": 8, "lambda": 0.5},
    "douban": {"dropout": 0.7, "tau": 0.1, "k": 16, "lambda": 0.1},
    "amazon": {"dropout": 0.7, "tau": 0.1, "k": 4, "lambda": 0.1},
}

SPLIT_FILES = [(d, sp) for d in DOMAINS for sp in SPLITS]
# the variables that set the BLAS thread count, which changes the last bits of train's outputs
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value options file. '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path, ParameterError).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in OPTION_TABLE:
            raise ParameterError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value.strip()
    return values


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, preset and explicit flags."""
    resolved = {name: default for name, (_, default, _) in OPTION_TABLE.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, text in parse_config_file(config_path).items():
            typ = OPTION_TABLE[key][0]
            try:
                resolved[key] = typ(text)
            except ValueError as exc:
                raise ParameterError(f"bad value for {key!r}: {text!r}") from exc
    preset = getattr(args, "preset", None)
    if preset:
        resolved.update(PRESETS[preset])
    for key in OPTION_TABLE:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def parse_grid(text: str, typ) -> list:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(typ(part))
        except ValueError as exc:
            raise ParameterError(f"bad grid value {part!r}") from exc
    if not values:
        raise ParameterError(f"empty grid spec {text!r}")
    return values


def config_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def write_json(path: str, payload: dict):
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_payload(command: str, options: dict, extra: dict | None = None) -> dict:
    payload = {"command": command, "options": options}
    if extra:
        payload.update(extra)
    payload["config_hash"] = config_hash({"command": command, "options": options})
    return payload


def provenance() -> dict:
    """What besides the seed and options decides a trained model's bytes: numpy, its
    BLAS (None where numpy cannot report it, before 1.25), the thread variables and the
    usable CPUs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return {"numpy": np.__version__, "blas": blas,
            "cpu_affinity": len(affinity(0)) if affinity else os.cpu_count(),
            **{var: os.environ.get(var) for var in THREAD_VARIABLES}}


def model_config_from(options: dict) -> ModelConfig:
    dropout = options["dropout"]
    if not 0.0 <= dropout < 1.0:
        raise ParameterError(f"dropout must be in [0, 1), got {dropout}")
    return ModelConfig(
        k=options["k"], embed_dim=options["embed_dim"], hidden=options["hidden"],
        tau=options["tau"], keep_prob=1.0 - dropout, lam=options["lambda"],
        ablation=options["ablation"])


def train_config_from(options: dict) -> TrainConfig:
    return TrainConfig(
        model=model_config_from(options),
        epochs_max=options["epochs"], patience=options["patience"],
        batch_users=options["batch_users"], lr=options["lr"],
        eval_k=options["cutoff"], seed=options["seed"])


def split_file_path(out: str, domain: str, split: str) -> str:
    return os.path.join(out, "splits", f"{domain}_{split}.tsv")


def write_prepared(out: str, dataset: InteractionDataset, payload: dict):
    """Split files, then manifest.json with counts and each split file's sha256."""
    os.makedirs(os.path.join(out, "splits"), exist_ok=True)
    users, digests = np.array(dataset.users, dtype=str), {}
    for domain, split in SPLIT_FILES:
        rows = dataset.rows(domain, split)
        n = len(rows.indices)
        # each pair's "user\titem\n" as code points, less the NULs that pad them
        cells = np.stack([np.repeat(users, np.diff(rows.indptr)), np.full(n, "\t"),
                          np.array(dataset.items[domain], dtype=str)[rows.indices],
                          np.full(n, "\n")], axis=1).view("u4")
        raw = cells[cells != 0].astype("<u4").tobytes().decode("utf-32-le").encode("utf-8")
        with atomic_open(split_file_path(out, domain, split), "wb") as fh:
            fh.write(raw)
        digests[f"{domain}_{split}"] = hashlib.sha256(raw).hexdigest()
    manifest = {"seed": dataset.seed, "threshold": dataset.threshold, "k_core": dataset.k_core,
                **manifest_sizes(dataset), "split_sha256": digests,
                "config_hash": payload["config_hash"]}
    write_json(os.path.join(out, "manifest.json"), manifest)


def manifest_sizes(dataset: InteractionDataset) -> dict:
    return {"n_users": dataset.n_users, "n_items_s": dataset.n_items("s"),
            "n_items_t": dataset.n_items("t"),
            "splits": {d: {sp: dataset.split_size(d, sp) for sp in SPLITS} for d in DOMAINS}}


def manifest_field(manifest, path: str, key: str, types: tuple):
    if not isinstance(manifest, dict) or key not in manifest:
        raise DataError(f"{path}: missing key {key!r}")
    if isinstance(manifest[key], bool) or not isinstance(manifest[key], types):
        raise DataError(f"{path}: bad value for {key!r}: {manifest[key]!r}")
    return manifest[key]


def load_prepared(out: str) -> InteractionDataset:
    """Rebuild the dataset from manifest.json and the split files, whose
    sha256 digests and counts must match the manifest's (or DataError)."""
    manifest_path = os.path.join(out, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"{out} has no manifest.json; run prepare first")
    try:
        manifest = json.loads(read_text(manifest_path, DataError))
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
    threshold = manifest_field(manifest, manifest_path, "threshold", (int, float))
    seed = manifest_field(manifest, manifest_path, "seed", (int, type(None)))
    k_core = manifest_field(manifest, manifest_path, "k_core", (int,))
    digests = manifest_field(manifest, manifest_path, "split_sha256", (dict,))
    records: dict[tuple[str, str], np.ndarray] = {}
    for domain, split in SPLIT_FILES:
        path = split_file_path(out, domain, split)
        if not os.path.exists(path):
            raise DataError(f"missing split file {path}")
        with open(path, "rb") as fh:
            raw = fh.read()
        codes, sep, starts, ends, first, n_fields = text_lines(decode_text(raw, path, DataError))
        bad = np.flatnonzero((n_fields != 2) & (ends > starts))
        if bad.size:
            raise DataError(f"{path}:{bad[0] + 1}: expected 2 tab-separated fields, "
                            f"got {n_fields[bad[0]]}")
        if hashlib.sha256(raw).hexdigest() != digests.get(f"{domain}_{split}"):
            raise DataError(f"{path}: contents differ from the sha256 in {manifest_path}")
        tab, pair = sep[first[n_fields == 2]], n_fields == 2
        records[(domain, split)] = np.stack(
            [gather(codes, starts[pair], tab), gather(codes, tab + 1, ends[pair])], axis=1)
    users, items, pairs = index_pairs(records)
    try:
        dataset = InteractionDataset(users, items["s"], items["t"], pairs,
                                     threshold=threshold, seed=seed, k_core=k_core)
    except ParameterError as exc:  # a seed or k_core below 0
        raise DataError(f"{manifest_path}: {exc}") from None
    for key, size in manifest_sizes(dataset).items():
        if manifest.get(key) != size:
            raise DataError(f"{manifest_path}: {key} is {manifest.get(key)!r}, "
                            f"but the split files give {size!r}")
    return dataset


def cmd_synth(args: argparse.Namespace, options: dict) -> dict:
    spec = SyntheticSpec(**{field.name: options[field.name] for field in fields(SyntheticSpec)})
    domain_s, domain_t, planted = synthetic_records(spec, Rng(options["seed"]).derive(0))
    payload = run_payload("synth", options)
    os.makedirs(args.out, exist_ok=True)
    write_domain_file(os.path.join(args.out, "domain_s.tsv"), domain_s)
    write_domain_file(os.path.join(args.out, "domain_t.tsv"), domain_t)
    with atomic_open(os.path.join(args.out, "planted_views.tsv")) as fh:
        for uid in sorted(planted):
            fh.write(f"{uid}\t{planted[uid]}\n")
    print(f"wrote {len(domain_s[0])} + {len(domain_t[0])} interactions to {args.out}")
    return payload


def cmd_prepare(args: argparse.Namespace, options: dict) -> dict:
    if not math.isfinite(options["threshold"]):
        raise ParameterError(f"threshold must be a finite number, got {options['threshold']}")
    if options["min_interactions"] < 0:
        raise ParameterError(f"min_interactions must be >= 0, got {options['min_interactions']}")
    domain_s, domain_t = (k_core_filter(load_domain(path, strict=args.strict),
                                        options["min_interactions"])
                          for path in (args.domain_s, args.domain_t))
    dataset = build_dataset(domain_s, domain_t, Rng(options["seed"]),
                            threshold=options["threshold"],
                            k_core=options["min_interactions"])
    payload = run_payload("prepare", options,
                          {"domain_s": args.domain_s, "domain_t": args.domain_t})
    write_prepared(args.out, dataset, payload)
    print(f"prepared {dataset.n_users} users, "
          f"{dataset.n_items('s')}+{dataset.n_items('t')} items into {args.out}")
    return payload


def write_model(out: str, name: str, log_name: str, params, model_config: ModelConfig, log,
                payload: dict) -> str:
    """Make out's checkpoints/, logs/ and reports/, then write one trained model's
    checkpoint, headed with the run's config hash and provenance, and its log.
    Returns the checkpoint's path relative to out."""
    for sub in ("checkpoints", "logs", "reports"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    checkpoint = os.path.join("checkpoints", name)
    save_checkpoint(os.path.join(out, checkpoint), params, model_config,
                    extra={"config_hash": payload["config_hash"], "best_epoch": log.best_epoch,
                           "seed": payload["options"]["seed"],
                           "provenance": payload["provenance"]})
    log.write(os.path.join(out, "logs", log_name))
    return checkpoint


def write_report(out: str, name: str, summary: dict, header: str, rows: list[str],
                 quiet: bool):
    """Write reports/<name>.json and the table reports/<name>.txt (header, a rule
    of '-', then rows); print the table unless quiet."""
    os.makedirs(os.path.join(out, "reports"), exist_ok=True)
    write_json(os.path.join(out, "reports", f"{name}.json"), summary)
    table = "\n".join([header, "-" * len(header), *rows])
    with atomic_open(os.path.join(out, "reports", f"{name}.txt")) as fh:
        fh.write(table + "\n")
    if not quiet:
        print(table)


def cmd_train(args: argparse.Namespace, options: dict) -> dict:
    config = train_config_from(options)
    dataset = load_prepared(args.out)
    params, log = train(dataset, config, verbose=not args.quiet)
    payload = run_payload("train", options, {"provenance": provenance()})
    report = evaluate(params, config.model, dataset, "test", k=config.eval_k)
    checkpoint = write_model(args.out, "model.ckpt", "train_log.jsonl", params, config.model,
                             log, payload)
    write_json(os.path.join(args.out, "reports", "test_metrics.json"),
               {**report.to_dict(), "seed": config.seed, "checkpoint": checkpoint,
                "config_hash": payload["config_hash"]})
    print(f"best epoch {log.best_epoch}; test recall@{config.eval_k} "
          f"s={report.domains['s']['recall']:.4f} t={report.domains['t']['recall']:.4f}")
    return payload


def cmd_ablate(args: argparse.Namespace, options: dict) -> dict:
    """Train and test each variant with one seed, then write them all: a
    variant that diverges leaves no artifact of the others."""
    config = train_config_from(options)
    dataset = load_prepared(args.out)
    payload = run_payload("ablate", options, {"provenance": provenance()})
    rows, models = [], []
    for name, ablation in ABLATION_VARIANTS:
        model_config = replace(config.model, ablation=ablation)
        if not args.quiet:
            print(f"[ablation] training {name} ({ablation})")
        params, log = train(dataset, replace(config, model=model_config))
        report = evaluate(params, model_config, dataset, "test", k=config.eval_k)
        rows.append({"variant": name, "ablation": ablation, "seed": config.seed,
                     "best_epoch": log.best_epoch,
                     **{f"{metric}_{d}": report.domains[d][metric]
                        for d in DOMAINS for metric in ("recall", "ndcg")}})
        models.append((name.lower().replace("-", "_"), params, model_config, log))
    for tag, params, model_config, log in models:
        write_model(args.out, f"ablation_{tag}.ckpt", f"ablation_{tag}.jsonl", params,
                    model_config, log, payload)
    header = f"{'variant':<10} {'recall_s':>9} {'ndcg_s':>9} {'recall_t':>9} {'ndcg_t':>9}"
    lines = [f"{row['variant']:<10} {row['recall_s']:>9.4f} {row['ndcg_s']:>9.4f} "
             f"{row['recall_t']:>9.4f} {row['ndcg_t']:>9.4f}" for row in rows]
    write_report(args.out, "ablation",
                 {"seed": config.seed, "rows": rows, "config_hash": payload["config_hash"]},
                 header, lines, args.quiet)
    return payload


def cmd_grid(args: argparse.Namespace, options: dict) -> dict:
    grids = {"dropout": parse_grid(options["dropout_grid"], float),
             "tau": parse_grid(options["tau_grid"], float),
             "k": parse_grid(options["k_grid"], int),
             "lambda": parse_grid(options["lambda_grid"], float)}
    for axis, values in grids.items():  # reject a bad value before the first run
        for value in values:
            train_config_from({**options, axis: value})
    dataset = load_prepared(args.out)
    payload = run_payload("grid", options,
                          {"provenance": provenance(), "full_grid": bool(args.full_grid)})

    # one result per combination, in run order: a repeated combination
    # reuses its result and takes no run id
    results: dict[tuple, dict] = {}

    def launch(combo: dict) -> dict:
        key = tuple(combo[axis] for axis in grids)
        if key in results:
            return results[key]
        run_id = len(results)
        config = train_config_from({**options, **combo})
        params, log = train(dataset, config, verbose=False)
        val_ndcg = max(0.5 * (r["val_ndcg20_s"] + r["val_ndcg20_t"]) for r in log.records)
        results[key] = result = {"run_id": run_id, **combo, "seed": config.seed,
                                 "best_epoch": log.best_epoch, "val_ndcg_mean": val_ndcg}
        run_dir = os.path.join(args.out, "grid", f"run_{run_id:03d}_d{combo['dropout']:g}"
                               f"_t{combo['tau']:g}_k{combo['k']}_l{combo['lambda']:g}")
        os.makedirs(run_dir, exist_ok=True)
        log.write(os.path.join(run_dir, "train_log.jsonl"))
        write_json(os.path.join(run_dir, "result.json"), result)
        if not args.quiet:
            print(f"grid run {run_id:3d}: dropout={combo['dropout']:g} tau={combo['tau']:g} "
                  f"k={combo['k']} lambda={combo['lambda']:g} -> val ndcg {val_ndcg:.4f}")
        return result

    # Each axis starts at its option value if its grid holds it, else at the
    # grid's first value. The staged search crosses dropout and tau, then
    # sweeps k at the best so far, then lambda: each later sweep includes the
    # best so far, so every run lies in the grids' cross product.
    stage_table = ([("full", tuple(grids))] if args.full_grid else
                   [("dropout_tau", ("dropout", "tau")), ("k", ("k",)), ("lambda", ("lambda",))])
    base = {axis: options[axis] if options[axis] in values else values[0]
            for axis, values in grids.items()}
    stages = []
    for name, axes in stage_table:
        runs = [launch({**base, **dict(zip(axes, values))})
                for values in itertools.product(*(grids[axis] for axis in axes))]
        best = max(runs, key=lambda r: (r["val_ndcg_mean"], -r["run_id"]))
        base = {axis: best[axis] for axis in grids}
        stages.append({"name": name, "runs": sorted({r["run_id"] for r in runs})})

    runs = list(results.values())
    header = (f"{'run':>4} {'dropout':>8} {'tau':>6} {'k':>4} {'lambda':>7} "
              f"{'seed':>6} {'val_ndcg':>9}")
    lines = [f"{r['run_id']:>4} {r['dropout']:>8g} {r['tau']:>6g} {r['k']:>4} "
             f"{r['lambda']:>7g} {r['seed']:>6} {r['val_ndcg_mean']:>9.4f}" for r in runs]
    lines.append(f"best: run {best['run_id']} (dropout={best['dropout']:g}, "
                 f"tau={best['tau']:g}, k={best['k']}, lambda={best['lambda']:g})")
    write_report(args.out, "grid",
                 {"metric": "mean validation ndcg at cutoff over both domains",
                  "stages": stages, "runs": runs, "best": best,
                  "config_hash": payload["config_hash"]},
                 header, lines, args.quiet)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdap",
        description="Cross-domain recommender with multi-view preference encoding")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, options, out_help="prepared dataset / output directory",
                quiet_help=None, preset=False, **kwargs) -> argparse.ArgumentParser:
        """Add subcommand name with --out, --config, --preset (if preset), --quiet
        (if quiet_help) and the shared options; main runs handler(args, options)."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--config", help="key=value options file")
        if preset:
            p.add_argument("--preset", choices=sorted(PRESETS),
                           help="named hyperparameter preset")
        if quiet_help:
            p.add_argument("--quiet", action="store_true", help=quiet_help)
        for option in options:
            typ, default, text = OPTION_TABLE[option]
            accept = {"choices": ABLATIONS} if option == "ablation" else {"type": typ}
            p.add_argument("--" + option.replace("_", "-"), default=None, dest=option,
                           help=f"{text} (default {default})", **accept)
        p.set_defaults(func=handler)
        return p

    train_opts = ["seed", "k", "tau", "lambda", "dropout", "epochs", "patience",
                  "batch_users", "lr", "embed_dim", "hidden", "ablation", "cutoff"]
    variant_opts = [n for n in train_opts if n != "ablation"]

    command("synth", cmd_synth, ["seed", "n_users", "n_items_s", "n_items_t", "k_true",
                                 "overlap", "noise"],
            out_help="output directory", help="generate a planted-structure synthetic dataset")
    p = command("prepare", cmd_prepare, ["seed", "min_interactions", "threshold"],
                out_help="output directory", help="ingest two domain files and write splits")
    p.add_argument("--domain-s", required=True, help="domain s interaction file")
    p.add_argument("--domain-t", required=True, help="domain t interaction file")
    p.add_argument("--lenient", dest="strict", action="store_false",
                   help="skip malformed lines with a warning instead of failing")
    command("train", cmd_train, train_opts, quiet_help="suppress per-epoch progress",
            preset=True, help="train on a prepared dataset")
    command("ablate", cmd_ablate, variant_opts, preset=True,
            quiet_help="suppress per-variant progress and the table",
            help="train all four model variants and compare")
    p = command(
        "grid", cmd_grid, variant_opts + ["dropout_grid", "tau_grid", "k_grid", "lambda_grid"],
        quiet_help="suppress per-run progress and the table",
        help="staged hyperparameter search",
        description="Staged hyperparameter search: dropout and tau together, then k, then "
                    "lambda, each sweep at the best run so far. Each axis starts at its "
                    "option value when its grid holds that value, else at the grid's first "
                    "value, so every run lies in the grids' cross product.")
    p.add_argument("--full-grid", action="store_true",
                   help="run the full cross product instead of the staged search")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args, resolve_options(args))
        # only a command that returns writes its config: one that raises leaves none
        write_json(os.path.join(args.out, f"config_{args.command}.json"), payload)
        return 0
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MdapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
