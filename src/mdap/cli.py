"""Command line front end.

Commands share one output directory with a fixed layout:

  out/
    manifest.json        dataset provenance and split file sha256 (written by prepare)
    config_<cmd>.json    resolved options + hash of each command run
    splits/              <domain>_<split>.tsv pair files
    checkpoints/         model checkpoints
    logs/                per-epoch training logs (JSON lines)
    reports/             metrics, ablation and grid summaries
    grid/                one subdirectory per grid run

Options resolve in order: built-in defaults, then a key=value config
file (--config), then --preset, then explicit flags. Exit codes: 0 on
success, 2 for usage/config/data problems, 3 when training diverges.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import replace

from .data import (InteractionDataset, SyntheticSpec, atomic_open, build_dataset,
                   decode_text, index_pairs, k_core_filter, load_domain, read_text,
                   synthetic_records, write_domain_file)
from .errors import DataError, MdapError, ParameterError, TrainingDivergedError
from .evaluation import evaluate
from .model import ABLATIONS, ModelConfig, save_checkpoint
from .numerics import Rng
from .training import TrainConfig, run_ablation, train
from . import __version__

# name -> (python type, default, --help text). "lambda" maps to the lam field.
OPTION_TABLE = {
    "seed": (int, 0, "random seed for every stochastic stage"),
    "k": (int, 8, "number of preference views"),
    "tau": (float, 0.2, "assignment softmax temperature"),
    "lambda": (float, 0.5, "gate orthogonality weight"),
    "dropout": (float, 0.5, "input dropout probability (keep prob is 1 - dropout)"),
    "epochs": (int, 1000, "maximum training epochs"),
    "patience": (int, 20, "early stopping patience in epochs"),
    "batch_users": (int, 4096, "user rows per training batch"),
    "lr": (float, 1e-3, "Adam learning rate"),
    "embed_dim": (int, 64, "embedding width"),
    "hidden": (int, 256, "encoder/decoder hidden width"),
    "ablation": (str, "full", "model variant to train"),
    "min_interactions": (int, 1, "per-domain core filter level (1 disables)"),
    "threshold": (float, 1.0, "minimum rating that counts as an interaction"),
    "cutoff": (int, 20, "ranking cutoff for recall/ndcg"),
    "n_users": (int, 200, "synthetic user count"),
    "n_items_s": (int, 40, "synthetic item count, domain s"),
    "n_items_t": (int, 30, "synthetic item count, domain t"),
    "k_true": (int, 4, "number of planted views"),
    "overlap": (float, 0.5, "fraction of users present in both domains"),
    "noise": (float, 0.05, "off-block interaction probability"),
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

SPLIT_FILES = [(d, sp) for d in ("s", "t") for sp in ("train", "valid", "test")]


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
    users = dataset.users
    digests = {}
    for domain, split in SPLIT_FILES:
        items = dataset.items[domain]
        raw = "".join(f"{users[u]}\t{items[i]}\n"
                      for u, i in dataset.pairs[(domain, split)].tolist()).encode("utf-8")
        with atomic_open(split_file_path(out, domain, split), "wb") as fh:
            fh.write(raw)
        digests[f"{domain}_{split}"] = hashlib.sha256(raw).hexdigest()
    manifest = {
        "seed": dataset.seed,
        "threshold": dataset.threshold,
        "k_core": dataset.k_core,
        **manifest_sizes(dataset),
        "split_sha256": digests,
        "config_hash": payload["config_hash"],
    }
    write_json(os.path.join(out, "manifest.json"), manifest)
    write_json(os.path.join(out, "config_prepare.json"), payload)


def manifest_sizes(dataset: InteractionDataset) -> dict:
    return {"n_users": dataset.n_users, "n_items_s": dataset.n_items("s"),
            "n_items_t": dataset.n_items("t"),
            "splits": {d: {sp: dataset.split_size(d, sp) for sp in ("train", "valid", "test")}
                       for d in ("s", "t")}}


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
    records: dict[tuple[str, str], list[list[str]]] = {}
    for domain, split in SPLIT_FILES:
        path = split_file_path(out, domain, split)
        if not os.path.exists(path):
            raise DataError(f"missing split file {path}")
        with open(path, "rb") as fh:
            raw = fh.read()
        rows = [line.split("\t") for line in decode_text(raw, path, DataError).split("\n")]
        for lineno, fields in enumerate(rows, start=1):
            if len(fields) != 2 and fields != [""]:
                raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields, "
                                f"got {len(fields)}")
        if hashlib.sha256(raw).hexdigest() != digests.get(f"{domain}_{split}"):
            raise DataError(f"{path}: contents differ from the sha256 in {manifest_path}")
        records[(domain, split)] = [fields for fields in rows if len(fields) == 2]
    users, items, pairs = index_pairs(records)
    dataset = InteractionDataset(users, items["s"], items["t"], pairs,
                                 threshold=threshold, seed=seed, k_core=k_core)
    for key, size in manifest_sizes(dataset).items():
        if manifest.get(key) != size:
            raise DataError(f"{manifest_path}: {key} is {manifest.get(key)!r}, "
                            f"but the split files give {size!r}")
    return dataset


def cmd_synth(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    spec = SyntheticSpec(
        n_users=options["n_users"], n_items_s=options["n_items_s"],
        n_items_t=options["n_items_t"], k_true=options["k_true"],
        overlap=options["overlap"], noise=options["noise"])
    domain_s, domain_t, planted = synthetic_records(spec, Rng(options["seed"]).derive(0))
    payload = run_payload("synth", options)
    os.makedirs(args.out, exist_ok=True)
    write_domain_file(os.path.join(args.out, "domain_s.tsv"), domain_s)
    write_domain_file(os.path.join(args.out, "domain_t.tsv"), domain_t)
    with atomic_open(os.path.join(args.out, "planted_views.tsv")) as fh:
        for uid in sorted(planted):
            fh.write(f"{uid}\t{planted[uid]}\n")
    write_json(os.path.join(args.out, "config_synth.json"), payload)
    print(f"wrote {len(domain_s[0])} + {len(domain_t[0])} interactions to {args.out}")
    return 0


def cmd_prepare(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    if not math.isfinite(options["threshold"]):
        raise ParameterError(f"threshold must be a finite number, got {options['threshold']}")
    if options["min_interactions"] < 0:
        raise ParameterError(
            f"min_interactions must be >= 0, got {options['min_interactions']}")
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
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    config = train_config_from(options)
    dataset = load_prepared(args.out)
    params, log = train(dataset, config, verbose=not args.quiet)
    payload = run_payload("train", options)
    ckpt_rel = os.path.join("checkpoints", "model.ckpt")
    report = evaluate(params, config.model, dataset, "test", k=config.eval_k,
                      seed=config.seed, checkpoint=ckpt_rel)
    for sub in ("checkpoints", "logs", "reports"):
        os.makedirs(os.path.join(args.out, sub), exist_ok=True)
    save_checkpoint(os.path.join(args.out, ckpt_rel), params, config.model,
                    extra={"config_hash": payload["config_hash"],
                           "best_epoch": log.best_epoch, "seed": config.seed})
    log.write(os.path.join(args.out, "logs", "train_log.jsonl"))
    write_json(os.path.join(args.out, "reports", "test_metrics.json"),
               {**report.to_dict(), "config_hash": payload["config_hash"]})
    write_json(os.path.join(args.out, "config_train.json"), payload)
    print(f"best epoch {log.best_epoch}; test recall@{config.eval_k} "
          f"s={report.domains['s']['recall']:.4f} t={report.domains['t']['recall']:.4f}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    config = train_config_from(options)
    dataset = load_prepared(args.out)
    report, artifacts = run_ablation(dataset, config, verbose=not args.quiet)
    payload = run_payload("ablate", options)
    for sub in ("checkpoints", "logs", "reports"):
        os.makedirs(os.path.join(args.out, sub), exist_ok=True)
    for row in report.rows:
        name = row["variant"]
        params, log = artifacts[name]
        tag = name.lower().replace("-", "_")
        log.write(os.path.join(args.out, "logs", f"ablation_{tag}.jsonl"))
        save_checkpoint(os.path.join(args.out, "checkpoints", f"ablation_{tag}.ckpt"),
                        params, replace(config.model, ablation=row["ablation"]),
                        extra={"config_hash": payload["config_hash"], "seed": config.seed})
    write_json(os.path.join(args.out, "reports", "ablation.json"),
               {**report.to_dict(), "config_hash": payload["config_hash"]})
    with atomic_open(os.path.join(args.out, "reports", "ablation.txt")) as fh:
        fh.write(report.format_table() + "\n")
    if not args.quiet:
        print(report.format_table())
    return 0


def grid_run_once(dataset, options: dict, combo: dict, out: str, run_id: int,
                  quiet: bool) -> dict:
    merged = dict(options)
    merged.update(combo)
    config = train_config_from(merged)
    run_dir = os.path.join(out, "grid", f"run_{run_id:03d}_d{combo['dropout']:g}"
                           f"_t{combo['tau']:g}_k{combo['k']}_l{combo['lambda']:g}")
    params, log = train(dataset, config, verbose=False)
    best = max(0.5 * (r["val_ndcg20_s"] + r["val_ndcg20_t"]) for r in log.records)
    result = {
        "run_id": run_id,
        "dropout": combo["dropout"], "tau": combo["tau"],
        "k": combo["k"], "lambda": combo["lambda"],
        "seed": config.seed, "best_epoch": log.best_epoch,
        "val_ndcg_mean": best,
    }
    os.makedirs(run_dir, exist_ok=True)
    log.write(os.path.join(run_dir, "train_log.jsonl"))
    write_json(os.path.join(run_dir, "result.json"), result)
    if not quiet:
        print(f"grid run {run_id:3d}: dropout={combo['dropout']:g} tau={combo['tau']:g} "
              f"k={combo['k']} lambda={combo['lambda']:g} -> val ndcg {best:.4f}")
    return result


def cmd_grid(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    grids = {"dropout": parse_grid(options["dropout_grid"], float),
             "tau": parse_grid(options["tau_grid"], float),
             "k": parse_grid(options["k_grid"], int),
             "lambda": parse_grid(options["lambda_grid"], float)}
    for axis, values in grids.items():  # reject a bad value before the first run
        for value in values:
            train_config_from({**options, axis: value})
    dataset = load_prepared(args.out)
    payload = run_payload("grid", options, {"full_grid": bool(args.full_grid)})

    # one result per combination, in run order: a repeated combination
    # reuses its result and takes no run id
    results: dict[tuple, dict] = {}

    def launch(combo: dict) -> dict:
        key = (combo["dropout"], combo["tau"], combo["k"], combo["lambda"])
        if key not in results:
            results[key] = grid_run_once(dataset, options, combo, args.out,
                                         len(results), args.quiet)
        return results[key]

    # The staged search crosses dropout and tau at the base k/lambda, then
    # sweeps k at the best so far, then lambda on top.
    if args.full_grid:
        stage_table = [("full", ("dropout", "tau", "k", "lambda"))]
    else:
        stage_table = [("dropout_tau", ("dropout", "tau")), ("k", ("k",)),
                       ("lambda", ("lambda",))]
    base = {axis: options[axis] for axis in grids}
    best = None
    stages = []
    for name, axes in stage_table:
        runs = [launch({**base, **dict(zip(axes, values))})
                for values in itertools.product(*(grids[axis] for axis in axes))]
        best = max(runs + ([best] if best else []),
                   key=lambda r: (r["val_ndcg_mean"], -r["run_id"]))
        base = {axis: best[axis] for axis in grids}
        stages.append({"name": name, "runs": sorted({r["run_id"] for r in runs})})

    runs = list(results.values())
    os.makedirs(os.path.join(args.out, "reports"), exist_ok=True)
    summary = {
        "metric": "mean validation ndcg at cutoff over both domains",
        "stages": stages,
        "runs": runs,
        "best": best,
        "config_hash": payload["config_hash"],
    }
    write_json(os.path.join(args.out, "reports", "grid.json"), summary)
    header = (f"{'run':>4} {'dropout':>8} {'tau':>6} {'k':>4} {'lambda':>7} "
              f"{'seed':>6} {'val_ndcg':>9}")
    lines = [header, "-" * len(header)]
    for r in runs:
        lines.append(f"{r['run_id']:>4} {r['dropout']:>8g} {r['tau']:>6g} {r['k']:>4} "
                     f"{r['lambda']:>7g} {r['seed']:>6} {r['val_ndcg_mean']:>9.4f}")
    lines.append(f"best: run {best['run_id']} (dropout={best['dropout']:g}, "
                 f"tau={best['tau']:g}, k={best['k']}, lambda={best['lambda']:g})")
    with atomic_open(os.path.join(args.out, "reports", "grid.txt")) as fh:
        fh.write("\n".join(lines) + "\n")
    write_json(os.path.join(args.out, "config_grid.json"), payload)
    if not args.quiet:
        print("\n".join(lines))
    return 0


def add_shared_options(parser: argparse.ArgumentParser, names: list[str]):
    for name in names:
        typ, default, text = OPTION_TABLE[name]
        kwargs = {"type": typ, "default": None, "dest": name,
                  "help": f"{text} (default {default})"}
        if name == "ablation":
            kwargs["choices"] = ABLATIONS
            del kwargs["type"]
        parser.add_argument("--" + name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdap",
        description="Cross-domain recommender with multi-view preference encoding")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train_opts = ["seed", "k", "tau", "lambda", "dropout", "epochs", "patience",
                  "batch_users", "lr", "embed_dim", "hidden", "ablation", "cutoff"]

    p = sub.add_parser("synth", help="generate a planted-structure synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key=value options file")
    add_shared_options(p, ["seed", "n_users", "n_items_s", "n_items_t", "k_true",
                           "overlap", "noise"])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="ingest two domain files and write splits")
    p.add_argument("--domain-s", required=True, help="domain s interaction file")
    p.add_argument("--domain-t", required=True, help="domain t interaction file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key=value options file")
    p.add_argument("--lenient", dest="strict", action="store_false",
                   help="skip malformed lines with a warning instead of failing")
    add_shared_options(p, ["seed", "min_interactions", "threshold"])
    p.set_defaults(func=cmd_prepare, strict=True)

    p = sub.add_parser("train", help="train on a prepared dataset")
    p.add_argument("--out", required=True, help="prepared dataset / output directory")
    p.add_argument("--config", help="key=value options file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named hyperparameter preset")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    add_shared_options(p, train_opts)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="train all four model variants and compare")
    p.add_argument("--out", required=True, help="prepared dataset / output directory")
    p.add_argument("--config", help="key=value options file")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--quiet", action="store_true")
    add_shared_options(p, [n for n in train_opts if n != "ablation"])
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grid", help="staged hyperparameter search")
    p.add_argument("--out", required=True, help="prepared dataset / output directory")
    p.add_argument("--config", help="key=value options file")
    p.add_argument("--full-grid", action="store_true",
                   help="run the full cross product instead of the staged search")
    p.add_argument("--quiet", action="store_true")
    add_shared_options(p, [n for n in train_opts if n != "ablation"]
                       + ["dropout_grid", "tau_grid", "k_grid", "lambda_grid"])
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MdapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
