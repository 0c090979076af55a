import hashlib
import itertools
import json
import os
import re
import shutil

import numpy as np
import pytest

import mdap
from mdap.cli import (OPTION_TABLE, PRESETS, SPLIT_FILES, build_parser, load_prepared, main,
                      parse_config_file, parse_grid, provenance, resolve_options, run_payload,
                      split_file_path, write_prepared)
from mdap.data import atomic_open, build_dataset, load_domain, write_domain_file
from mdap.errors import ParameterError, TrainingDivergedError
from mdap.evaluation import evaluate
from mdap.model import (ABLATION_VARIANTS, ModelConfig, init_params, load_checkpoint,
                        save_checkpoint)
from mdap.numerics import Rng
from oracles import split_pairs


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


def synth_args(out, **over):
    base = {"seed": 3, "n_users": 60, "n_items_s": 16, "n_items_t": 12,
            "k_true": 4, "overlap": 0.5, "noise": 0.05}
    base.update(over)
    argv = ["synth", "--out", out]
    for key, value in base.items():
        argv += ["--" + key.replace("_", "-"), value]
    return argv


# a small, fast model for the commands that train
TINY = ["--epochs", 1, "--patience", 1, "--k", 2, "--embed-dim", 8, "--hidden", 16, "--quiet"]
# a one-point grid: every axis at one value
GRID_POINT = ["--dropout-grid", "0.5", "--tau-grid", "0.2", "--k-grid", "2",
              "--lambda-grid", "0.5"]
ABLATION_TAGS = [name.lower().replace("-", "_") for name, _ in ABLATION_VARIANTS]


def prepared_dir(tmp_path, seed=3):
    """Synth then prepare under tmp_path; returns the shared out dir."""
    syn = tmp_path / "syn"
    out = tmp_path / "out"
    assert run(*synth_args(syn)) == 0
    assert run("prepare", "--domain-s", syn / "domain_s.tsv",
               "--domain-t", syn / "domain_t.tsv", "--out", out,
               "--seed", seed) == 0
    return out


def test_synth_writes_expected_files(tmp_path):
    out = tmp_path / "syn"
    assert run(*synth_args(out)) == 0
    for name in ("domain_s.tsv", "domain_t.tsv", "planted_views.tsv",
                 "config_synth.json"):
        assert (out / name).exists(), name
    payload = json.loads((out / "config_synth.json").read_text())
    assert payload["command"] == "synth"
    assert payload["options"]["n_users"] == 60
    assert len(payload["config_hash"]) == 16


def test_synth_overlap_controls_shared_users(tmp_path):
    out = tmp_path / "syn"
    assert run(*synth_args(out, n_users=200, n_items_s=40, n_items_t=30)) == 0
    users_s = {line.split("\t")[0] for line in (out / "domain_s.tsv").read_text().splitlines()}
    users_t = {line.split("\t")[0] for line in (out / "domain_t.tsv").read_text().splitlines()}
    assert len(users_s & users_t) == 100  # overlap 0.5 of 200


def test_synth_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*synth_args(a)) == 0
    assert run(*synth_args(b)) == 0
    for name in ("domain_s.tsv", "domain_t.tsv", "planted_views.tsv"):
        assert file_hash(a / name) == file_hash(b / name)


def test_prepare_manifest_matches_split_files(tmp_path):
    out = prepared_dir(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    for domain in ("s", "t"):
        for split in ("train", "valid", "test"):
            lines = (out / "splits" / f"{domain}_{split}.tsv").read_text().splitlines()
            assert len(lines) == manifest["splits"][domain][split]
    assert manifest["n_users"] == 60


def test_prepare_is_reproducible(tmp_path):
    out_a = prepared_dir(tmp_path / "a")
    out_b = prepared_dir(tmp_path / "b")
    for domain in ("s", "t"):
        for split in ("train", "valid", "test"):
            rel = os.path.join("splits", f"{domain}_{split}.tsv")
            assert file_hash(out_a / rel) == file_hash(out_b / rel)


def test_prepare_min_interactions_filters(tmp_path, capsys):
    syn = tmp_path / "syn"
    assert run(*synth_args(syn)) == 0
    out = tmp_path / "core"
    assert run("prepare", "--domain-s", syn / "domain_s.tsv",
               "--domain-t", syn / "domain_t.tsv", "--out", out,
               "--min-interactions", 3) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["k_core"] == 3
    # a level that empties a domain names the filter, not only the threshold
    capsys.readouterr()
    assert run("prepare", "--domain-s", syn / "domain_s.tsv",
               "--domain-t", syn / "domain_t.tsv", "--out", tmp_path / "empty",
               "--min-interactions", 1000) == 2
    assert "threshold 1.0 after the 1000-core filter" in capsys.readouterr().err


def test_prepare_ignores_line_order(tmp_path):
    syn, shuffled = tmp_path / "syn", tmp_path / "shuffled"
    assert run(*synth_args(syn)) == 0
    shuffled.mkdir()
    rng = np.random.default_rng(0)
    for name in ("domain_s.tsv", "domain_t.tsv"):
        lines = (syn / name).read_bytes().splitlines(keepends=True)
        (shuffled / name).write_bytes(b"".join(lines[k] for k in rng.permutation(len(lines))))
        assert (shuffled / name).read_bytes() != (syn / name).read_bytes()
    for src in (syn, shuffled):
        assert run("prepare", "--domain-s", src / "domain_s.tsv", "--domain-t",
                   src / "domain_t.tsv", "--out", tmp_path / f"out_{src.name}") == 0
    for rel in ["manifest.json", *(f"splits/{d}_{sp}.tsv" for d, sp in SPLIT_FILES)]:
        assert file_hash(tmp_path / "out_syn" / rel) == file_hash(tmp_path / "out_shuffled" / rel)


def test_train_writes_artifacts(tmp_path, capsys):
    out = prepared_dir(tmp_path)
    code = run("train", "--out", out, "--epochs", 2, "--patience", 2,
               "--k", 2, "--embed-dim", 8, "--hidden", 16, "--seed", 4, "--quiet")
    assert code == 0
    assert (out / "checkpoints" / "model.ckpt").exists()
    lines = (out / "logs" / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["epoch"] == 1
    assert set(record) == {"epoch", "loss_total", "loss_rec_s", "loss_rec_t",
                           "loss_orth", "val_recall20_s", "val_recall20_t",
                           "val_ndcg20_s", "val_ndcg20_t"}
    metrics = json.loads((out / "reports" / "test_metrics.json").read_text())
    assert set(metrics) == {"split", "cutoff", "domains", "seed", "checkpoint", "config_hash"}
    assert metrics["split"] == "test" and metrics["seed"] == 4
    assert metrics["checkpoint"] == os.path.join("checkpoints", "model.ckpt")
    config = json.loads((out / "config_train.json").read_text())
    assert config["options"]["epochs"] == 2
    assert "best epoch" in capsys.readouterr().out


def check_provenance_outside_the_config_hash(tmp_path, monkeypatch, command):
    """Run `command` twice under different OPENBLAS_NUM_THREADS and check
    that only the recorded provenance moves, not the hash or the parameters."""
    out = prepared_dir(tmp_path)
    argv = [command, "--out", out, *TINY, *(GRID_POINT if command == "grid" else [])]
    checkpoints = {"train": ["model"], "ablate": [f"ablation_{tag}" for tag in ABLATION_TAGS],
                   "grid": []}[command]
    runs = []
    for threads in ("1", None):
        # the variable is only recorded: the loaded BLAS keeps its thread count
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert run(*argv) == 0
        config = json.loads((out / f"config_{command}.json").read_text())
        loaded = [load_checkpoint(str(out / "checkpoints" / f"{name}.ckpt"))
                  for name in checkpoints]
        extras = [extra for _, _, extra in loaded]
        runs.append((config, extras, [b"".join(arr.tobytes() for _, arr in params.arrays())
                                      for params, _, _ in loaded]))
        for extra in extras:
            assert extra["provenance"] == config["provenance"]
            assert extra["config_hash"] == config["config_hash"]
            assert extra["best_epoch"] == 1
        assert config["provenance"]["OPENBLAS_NUM_THREADS"] == threads
        assert config["provenance"]["numpy"] == np.__version__
        assert set(config["provenance"]) == {"numpy", "blas", "cpu_affinity", "MKL_NUM_THREADS",
                                             "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        assert config["provenance"]["cpu_affinity"] >= 1
    (first, extras_a, params_a), (second, extras_b, params_b) = runs
    assert first["provenance"] != second["provenance"]
    assert first["config_hash"] == second["config_hash"]
    # only the header differs
    assert all(a != b for a, b in zip(extras_a, extras_b)) and params_a == params_b
    assert run_payload(command, first["options"], {"provenance": {"numpy": "0"}})[
        "config_hash"] == first["config_hash"]


def test_train_records_provenance_outside_the_config_hash(tmp_path, monkeypatch):
    check_provenance_outside_the_config_hash(tmp_path, monkeypatch, "train")


@pytest.mark.parametrize("command", ["ablate", "grid"])
def test_ablate_and_grid_record_provenance_outside_the_config_hash(tmp_path, monkeypatch,
                                                                    command):
    check_provenance_outside_the_config_hash(tmp_path, monkeypatch, command)


@pytest.mark.parametrize("command", ["synth", "prepare", "train", "ablate", "grid"])
def test_each_command_writes_its_config(tmp_path, command):
    if command == "synth":
        out = tmp_path / "syn"
        assert run(*synth_args(out)) == 0
    else:
        out = prepared_dir(tmp_path)
    if command in ("train", "ablate", "grid"):
        assert run(command, "--out", out, *TINY, *(GRID_POINT if command == "grid" else [])) == 0
    payload = json.loads((out / f"config_{command}.json").read_text())
    assert payload["command"] == command
    assert payload["config_hash"] == run_payload(command, payload["options"])["config_hash"]
    stamped = {"synth": [], "prepare": ["manifest.json"],
               "train": ["reports/test_metrics.json"], "ablate": ["reports/ablation.json"],
               "grid": ["reports/grid.json"]}[command]
    for rel in stamped:
        assert json.loads((out / rel).read_text())["config_hash"] == payload["config_hash"], rel
    checkpoints = sorted((out / "checkpoints").glob("*.ckpt"))
    assert len(checkpoints) == {"train": 1, "ablate": 4}.get(command, 0)
    for path in checkpoints:
        assert load_checkpoint(str(path))[2]["config_hash"] == payload["config_hash"], path


# every subcommand, read from the parser, so that a command added later is covered too
SUBCOMMANDS = list(next(action.choices for action in build_parser()._actions
                        if action.dest == "command"))


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_config_is_written_on_success_only(tmp_path, command):
    syn = tmp_path / "syn"
    if command == "synth":
        good_out = bad_out = syn
        bad, good = synth_args(syn, noise=2), synth_args(syn)
    elif command == "prepare":
        assert run(*synth_args(syn)) == 0
        good_out = bad_out = tmp_path / "out"
        bad, good = (["prepare", "--domain-s", domain_s, "--domain-t", syn / "domain_t.tsv",
                      "--out", good_out]
                     for domain_s in (tmp_path / "missing.tsv", syn / "domain_s.tsv"))
    else:
        # a small, fast run through --config, which every subcommand takes
        config = tmp_path / "fast.cfg"
        config.write_text("epochs=1\npatience=1\nk=2\nembed_dim=8\nhidden=16\n"
                          "dropout_grid=0.5\ntau_grid=0.2\nk_grid=2\nlambda_grid=0.5\n")
        good_out, bad_out = prepared_dir(tmp_path), tmp_path / "altered"
        shutil.copytree(good_out, bad_out)
        with open(bad_out / "splits" / "t_test.tsv", "a") as fh:
            fh.write("u_new\ti_new\n")
        bad, good = ([command, "--out", out, "--config", config] for out in (bad_out, good_out))
    assert run(*bad) == 2
    assert not (bad_out / f"config_{command}.json").exists()
    assert run(*good) == 0
    assert json.loads((good_out / f"config_{command}.json").read_text())["command"] == command


def test_provenance_without_blas_report(monkeypatch):
    # numpy before 1.25 has no show_config(mode=...): the BLAS is recorded as None
    def show_config():
        return None

    monkeypatch.setattr(np, "show_config", show_config)
    assert provenance()["blas"] is None
    monkeypatch.undo()
    blas = provenance()["blas"]
    assert blas is None or set(blas) == {"name", "version"}


def test_parser_defaults_resolve(tmp_path):
    args = build_parser().parse_args(["train", "--out", "x"])
    options = resolve_options(args)
    assert options["epochs"] == 1000
    assert options["patience"] == 20
    assert options["batch_users"] == 4096
    assert options["lr"] == 1e-3
    assert options["embed_dim"] == 64
    assert options["hidden"] == 256
    assert options["k"] == 8
    assert options["tau"] == 0.2
    assert options["dropout"] == 0.5
    assert options["cutoff"] == 20


@pytest.mark.parametrize("command, digest", [
    ("synth", "4e8197931b3067ee"), ("prepare", "692c0736cd37b3bc"),
    ("train", "1988374f18686261"), ("ablate", "9272952d58fcb8be"),
    ("grid", "e6e271879772e14f"),
])
def test_default_options_keep_their_config_hash(command, digest):
    # The defaults come from the library's dataclasses. A changed default moves
    # every run's config_hash, so it must be accepted here on purpose.
    files = ["--domain-s", "s.tsv", "--domain-t", "t.tsv"] if command == "prepare" else []
    args = build_parser().parse_args([command, "--out", "x", *files])
    assert run_payload(command, resolve_options(args))["config_hash"] == digest


def test_preset_overrides_defaults():
    args = build_parser().parse_args(["train", "--out", "x", "--preset", "douban"])
    options = resolve_options(args)
    assert options["dropout"] == 0.7
    assert options["tau"] == 0.1
    assert options["k"] == 16
    assert options["lambda"] == 0.1
    assert PRESETS["epinions"] == {"dropout": 0.5, "tau": 0.2, "k": 8, "lambda": 0.5}
    assert PRESETS["amazon"] == {"dropout": 0.7, "tau": 0.1, "k": 4, "lambda": 0.1}


def test_option_precedence_config_preset_flags(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("tau = 0.9\nk = 3  # inline comment\nlr = 0.01\n")
    parser = build_parser()

    args = parser.parse_args(["train", "--out", "x", "--config", str(cfg)])
    options = resolve_options(args)
    assert options["tau"] == 0.9 and options["k"] == 3 and options["lr"] == 0.01

    args = parser.parse_args(["train", "--out", "x", "--config", str(cfg),
                              "--preset", "amazon"])
    options = resolve_options(args)
    assert options["tau"] == 0.1 and options["k"] == 4  # preset beats the file
    assert options["lr"] == 0.01  # preset does not touch lr

    args = parser.parse_args(["train", "--out", "x", "--config", str(cfg),
                              "--preset", "amazon", "--tau", "0.33"])
    options = resolve_options(args)
    assert options["tau"] == 0.33  # explicit flag beats everything


def test_parse_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 4\n")
    with pytest.raises(ParameterError):
        parse_config_file(str(cfg))
    cfg.write_text("no equals sign\n")
    with pytest.raises(ParameterError):
        parse_config_file(str(cfg))


def test_parse_grid():
    assert parse_grid("0.1, 0.2,0.5", float) == [0.1, 0.2, 0.5]
    assert parse_grid("4,8", int) == [4, 8]
    with pytest.raises(ParameterError):
        parse_grid("a,b", float)
    with pytest.raises(ParameterError):
        parse_grid(",", float)


@pytest.fixture(scope="module")
def ablated(tmp_path_factory):
    """An out dir after a two-epoch `ablate` at seed 5."""
    out = prepared_dir(tmp_path_factory.mktemp("ablate"))
    assert run("ablate", "--out", out, "--epochs", 2, "--patience", 2, "--k", 2,
               "--embed-dim", 8, "--hidden", 16, "--seed", 5, "--quiet") == 0
    return out


def test_ablate_reports_all_variants(ablated):
    report = json.loads((ablated / "reports" / "ablation.json").read_text())
    assert [row["variant"] for row in report["rows"]] == \
        ["MDAP", "MDAP-GS", "MDAP-MV", "MDAP-DG"]
    table = (ablated / "reports" / "ablation.txt").read_text()
    assert "MDAP-MV" in table
    for tag in ABLATION_TAGS:
        assert len((ablated / "logs" / f"ablation_{tag}.jsonl").read_text().splitlines()) == 2
        assert (ablated / "checkpoints" / f"ablation_{tag}.ckpt").exists()


def test_ablate_rows_keep_variant_order_keys_and_seed(ablated):
    report = json.loads((ablated / "reports" / "ablation.json").read_text())
    assert set(report) == {"seed", "rows", "config_hash"} and report["seed"] == 5
    assert [(row["variant"], row["ablation"]) for row in report["rows"]] == [
        ("MDAP", "full"), ("MDAP-GS", "no_gumbel"), ("MDAP-MV", "single_view"),
        ("MDAP-DG", "no_gate")]
    table = (ablated / "reports" / "ablation.txt").read_text()
    for row in report["rows"]:
        assert set(row) == {"variant", "ablation", "seed", "best_epoch", "recall_s", "ndcg_s",
                            "recall_t", "ndcg_t"}
        assert row["seed"] == 5 and row["best_epoch"] in (1, 2)
        for key in ("recall_s", "ndcg_s", "recall_t", "ndcg_t"):
            assert 0.0 <= row[key] <= 1.0
        assert row["variant"] in table


def test_ablation_table_is_the_rendering_of_its_json_rows(ablated):
    report = json.loads((ablated / "reports" / "ablation.json").read_text())
    header = "variant     recall_s    ndcg_s  recall_t    ndcg_t"
    rows = [f"{row['variant']:<10} {row['recall_s']:>9.4f} {row['ndcg_s']:>9.4f} "
            f"{row['recall_t']:>9.4f} {row['ndcg_t']:>9.4f}" for row in report["rows"]]
    assert (ablated / "reports" / "ablation.txt").read_text() == \
        "\n".join([header, "-" * len(header), *rows]) + "\n"


def test_ablate_no_gate_checkpoint_keeps_uniform_gates(ablated):
    # no_gate mixes views uniformly and never moves the gate table
    params, config, _ = load_checkpoint(str(ablated / "checkpoints" / "ablation_mdap_dg.ckpt"))
    assert config.ablation == "no_gate"
    assert params.gate.shape == (2, 2)
    assert not params.gate.any()


def test_ablate_checkpoints_reproduce_their_rows(ablated):
    report = json.loads((ablated / "reports" / "ablation.json").read_text())
    dataset = load_prepared(str(ablated))
    for row, tag in zip(report["rows"], ABLATION_TAGS):
        params, config, extra = load_checkpoint(str(ablated / "checkpoints"
                                                    / f"ablation_{tag}.ckpt"))
        assert config.ablation == row["ablation"] and extra["best_epoch"] == row["best_epoch"]
        again = evaluate(params, config, dataset, "test", k=20)
        assert {f"{m}_{d}": again.domains[d][m] for d in ("s", "t")
                for m in ("recall", "ndcg")} == {key: row[key] for key in
                                                  ("recall_s", "ndcg_s", "recall_t", "ndcg_t")}


def test_ablate_writes_nothing_when_a_later_variant_diverges(tmp_path, monkeypatch):
    out = prepared_dir(tmp_path)
    real_train, trained = mdap.cli.train, []

    def diverge_on_third(dataset, config, **kwargs):
        trained.append(config.model.ablation)
        if len(trained) == 3:
            raise TrainingDivergedError(1)
        return real_train(dataset, config, **kwargs)

    monkeypatch.setattr(mdap.cli, "train", diverge_on_third)
    assert run("ablate", "--out", out, *TINY) == 3
    assert trained == ["full", "no_gumbel", "single_view"]
    for name in ("checkpoints", "logs", "reports", "config_ablate.json"):
        assert not (out / name).exists(), name


def check_grid(out, dropout, tau, k, lam) -> dict:
    """Check grid.json and grid/ against the grids (comma lists) the search was given:
    every run and run directory lies in their cross product, best is one of the
    runs, each later stage re-runs the best so far, and grid.txt renders the runs.
    Returns grid.json."""
    grids = [[float(v) for v in dropout.split(",")], [float(v) for v in tau.split(",")],
             [int(v) for v in k.split(",")], [float(v) for v in lam.split(",")]]
    product = set(itertools.product(*grids))
    summary = json.loads((out / "reports" / "grid.json").read_text())
    runs = summary["runs"]
    assert [r["run_id"] for r in runs] == list(range(len(runs)))
    assert {(r["dropout"], r["tau"], r["k"], r["lambda"]) for r in runs} <= product
    names = sorted(os.listdir(out / "grid"))
    assert len(names) == len(runs)
    for name in names:
        run_id, d, t, kk, lm = re.fullmatch(r"run_(\d{3})_d(.+)_t(.+)_k(\d+)_l(.+)", name).groups()
        assert (float(d), float(t), int(kk), float(lm)) in product, name
        assert json.loads((out / "grid" / name / "result.json").read_text()) == runs[int(run_id)]
    best_so_far = None
    for stage in summary["stages"]:
        if best_so_far is not None:
            assert best_so_far in stage["runs"], stage["name"]
        best_so_far = max(stage["runs"],
                          key=lambda i: (runs[i]["val_ndcg_mean"], -runs[i]["run_id"]))
    assert summary["best"] == runs[best_so_far]
    header = " run  dropout    tau    k  lambda   seed  val_ndcg"
    best = summary["best"]
    lines = [header, "-" * len(header)]
    lines += [f"{r['run_id']:>4} {r['dropout']:>8g} {r['tau']:>6g} {r['k']:>4} "
              f"{r['lambda']:>7g} {r['seed']:>6} {r['val_ndcg_mean']:>9.4f}" for r in runs]
    lines.append(f"best: run {best['run_id']} (dropout={best['dropout']:g}, "
                 f"tau={best['tau']:g}, k={best['k']}, lambda={best['lambda']:g})")
    assert (out / "reports" / "grid.txt").read_text() == "\n".join(lines) + "\n"
    return summary


# (dropout, tau, k, lambda) grids that leave out the default k = 8 and lambda = 0.5;
# the staged count is the 2 x 2 dropout/tau sweep, one new k and one new lambda
@pytest.mark.parametrize("grids, n_runs", [
    (("0.5", "0.2", "2", "0.5"), 1),
    (("0.3,0.5", "0.2,0.5", "2,4", "0.1,1.0"), 6),
], ids=["one-point", "staged"])
def test_grid_trains_only_the_grids_it_is_given(tmp_path, grids, n_runs):
    out = prepared_dir(tmp_path)
    flags = [f for name, values in zip(("dropout", "tau", "k", "lambda"), grids)
             for f in (f"--{name}-grid", values)]
    assert run("grid", "--out", out, "--epochs", 1, "--patience", 1, "--embed-dim", 8,
               "--hidden", 16, "--quiet", *flags) == 0
    assert len(check_grid(out, *grids)["runs"]) == n_runs
    if n_runs == 1:
        assert os.listdir(out / "grid") == ["run_000_d0.5_t0.2_k2_l0.5"]


def test_grid_single_point_runs_once(tmp_path):
    out = prepared_dir(tmp_path)
    code = run("grid", "--out", out, "--epochs", 1, "--patience", 1,
               "--embed-dim", 8, "--hidden", 16, "--quiet",
               "--dropout-grid", "0.5", "--tau-grid", "0.2",
               "--k-grid", "8", "--lambda-grid", "0.5")
    assert code == 0
    summary = check_grid(out, "0.5", "0.2", "8", "0.5")
    assert len(summary["runs"]) == 1
    assert summary["best"]["run_id"] == 0
    run_dirs = sorted(os.listdir(out / "grid"))
    assert len(run_dirs) == 1
    assert (out / "grid" / run_dirs[0] / "result.json").exists()


def test_grid_staged_dedupes_repeats(tmp_path):
    out = prepared_dir(tmp_path)
    code = run("grid", "--out", out, "--epochs", 1, "--patience", 1,
               "--embed-dim", 8, "--hidden", 16, "--quiet",
               "--dropout-grid", "0.3,0.5", "--tau-grid", "0.2,0.5",
               "--k-grid", "2,8", "--lambda-grid", "0.1,0.5")
    assert code == 0
    summary = check_grid(out, "0.3,0.5", "0.2,0.5", "2,8", "0.1,0.5")
    # 4 stage-1 runs, at most 1 new k (8 is the stage-1 base), at most
    # 1 new lambda (0.5 is the base); repeats come from the cache
    assert 4 <= len(summary["runs"]) <= 6
    assert [s["name"] for s in summary["stages"]] == ["dropout_tau", "k", "lambda"]
    keys = {(r["dropout"], r["tau"], r["k"], r["lambda"]) for r in summary["runs"]}
    assert len(keys) == len(summary["runs"])  # no duplicate work
    best = summary["best"]
    assert best["val_ndcg_mean"] == max(r["val_ndcg_mean"] for r in summary["runs"])


def test_grid_full_cross_product(tmp_path):
    out = prepared_dir(tmp_path)
    code = run("grid", "--out", out, "--full-grid", "--epochs", 1,
               "--patience", 1, "--embed-dim", 8, "--hidden", 16, "--quiet",
               "--dropout-grid", "0.3,0.5", "--tau-grid", "0.2",
               "--k-grid", "2", "--lambda-grid", "0.1,0.5")
    assert code == 0
    summary = check_grid(out, "0.3,0.5", "0.2", "2", "0.1,0.5")
    assert len(summary["runs"]) == 4
    assert summary["stages"][0]["name"] == "full"


@pytest.mark.parametrize("flag, values", [
    ("--dropout-grid", "0.5,1.0"), ("--tau-grid", "0.2,-1"), ("--tau-grid", "0.2,nan"),
    ("--k-grid", "4,0"), ("--lambda-grid", "0.5,-0.1"),
], ids=["dropout", "tau", "tau-nan", "k", "lambda"])
def test_grid_rejects_bad_value_before_first_run(tmp_path, flag, values):
    out = prepared_dir(tmp_path)
    code = run("grid", "--out", out, "--epochs", 1, "--patience", 1,
               "--embed-dim", 8, "--hidden", 16, "--quiet",
               "--dropout-grid", "0.5", "--tau-grid", "0.2",
               "--k-grid", "4", "--lambda-grid", "0.5", flag, values)
    assert code == 2
    assert not (out / "grid").exists()


def test_exit_code_two_on_bad_inputs(tmp_path):
    assert run("train", "--out", tmp_path / "nowhere") == 2
    out = prepared_dir(tmp_path)
    assert run("train", "--out", out, "--tau", 0) == 2
    assert run("train", "--out", out, "--dropout", 1.0) == 2
    missing = tmp_path / "missing.tsv"
    assert run("prepare", "--domain-s", missing, "--domain-t", missing,
               "--out", tmp_path / "p") == 2


@pytest.mark.parametrize("option, value, message", [
    ("threshold", "nan", "threshold must be a finite number, got nan"),
    ("threshold", "inf", "threshold must be a finite number, got inf"),
    ("threshold", "-inf", "threshold must be a finite number, got -inf"),
    ("min_interactions", "-5", "min_interactions must be >= 0, got -5"),
], ids=["threshold-nan", "threshold-inf", "threshold-minus-inf", "min-interactions-minus-5"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_prepare_rejects_bad_filter_options(tmp_path, capsys, option, value, message, source):
    syn = tmp_path / "syn"
    assert run(*synth_args(syn)) == 0
    out = tmp_path / "out"
    argv = ["prepare", "--domain-s", syn / "domain_s.tsv",
            "--domain-t", syn / "domain_t.tsv", "--out", out]
    if source == "flag":
        argv.append(f"--{option.replace('_', '-')}={value}")
    else:
        cfg = tmp_path / "prepare.cfg"
        cfg.write_text(f"{option} = {value}\n")
        argv += ["--config", cfg]
    capsys.readouterr()
    assert run(*argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_value_of_the_wrong_type_exits_two(tmp_path, capsys):
    out = prepared_dir(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("k = abc\n")
    capsys.readouterr()
    assert run("train", "--out", out, "--config", cfg, "--epochs", 1, "--quiet") == 2
    assert "bad value for 'k'" in capsys.readouterr().err
    assert not (out / "config_train.json").exists()


def test_missing_split_file_exits_two(tmp_path, capsys):
    out = prepared_dir(tmp_path)
    split = out / "splits" / "t_valid.tsv"
    split.unlink()
    capsys.readouterr()
    assert run("train", "--out", out, *TINY) == 2
    assert f"missing split file {split}" in capsys.readouterr().err
    assert not (out / "config_train.json").exists()


def test_malformed_split_line_names_file(tmp_path, capsys):
    out = prepared_dir(tmp_path)
    split = out / "splits" / "s_valid.tsv"
    lines = split.read_text().splitlines()
    lines[1] += "\textra"
    split.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("train", "--out", out, "--epochs", 1, "--quiet") == 2
    err = capsys.readouterr().err
    assert f"{split}:2:" in err and "got 3" in err


def record_digest(out, split):
    """Put the current sha256 of split into out's manifest."""
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["split_sha256"][split.stem] = file_hash(split)
    (out / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("edit, lineno, got", [
    (lambda lines: lines[:2] + ["", ""] + lines[2:] + [lines[0].split("\t")[0]], -1, 1),
    (lambda lines: lines[:1] + [lines[1] + "\tx"] + lines[2:], 2, 3),
    (lambda lines: lines[:3] + ["", lines[3].replace("\t", "")], 5, 1),
    (lambda lines: ["", "a\tb\tc\td"], 2, 4),
], ids=["one-field-after-blanks", "three-fields", "one-field-last-no-newline", "four-fields"])
def test_malformed_split_line_is_reported_before_the_digest(tmp_path, capsys, edit, lineno, got):
    out = prepared_dir(tmp_path)
    split = out / "splits" / "t_train.tsv"
    lines = edit(split.read_text().splitlines())
    # the last case has no final newline
    split.write_text("\n".join(lines) + ("" if lineno == 5 else "\n"))
    lineno = len(lines) if lineno == -1 else lineno
    capsys.readouterr()
    assert run("train", "--out", out, "--epochs", 1, "--quiet") == 2
    err = capsys.readouterr().err
    assert err == f"error: {split}:{lineno}: expected 2 tab-separated fields, got {got}\n"


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("\n", "\n\n", 3),
    lambda text: "\n" + text + "\n\n",
    lambda text: text.rstrip("\n"),
], ids=["blank-lines-in-the-middle", "blank-lines-at-the-ends", "no-final-newline"])
def test_split_file_reads_blank_lines_and_a_missing_final_newline(tmp_path, edit):
    out = prepared_dir(tmp_path)
    before = load_prepared(str(out))
    split = out / "splits" / "s_test.tsv"
    split.write_text(edit(split.read_text()))
    record_digest(out, split)
    after = load_prepared(str(out))
    assert after.users == before.users and after.items == before.items
    for key in SPLIT_FILES:
        assert np.array_equal(split_pairs(after, *key), split_pairs(before, *key)), key


def test_empty_split_files_round_trip(tmp_path):
    # one interaction per user and domain: every valid and test split is empty
    ids = np.array([["u1", "a"], ["u2", "b"], ["u3", "a"]])
    dataset = build_dataset((ids, np.ones(3)), (ids[:2], np.ones(2)), Rng(0))
    write_prepared(str(tmp_path), dataset, {"config_hash": "0"})
    for domain in ("s", "t"):
        for split in ("valid", "test"):
            assert (tmp_path / "splits" / f"{domain}_{split}.tsv").read_bytes() == b""
    loaded = load_prepared(str(tmp_path))
    assert loaded.users == dataset.users and loaded.items == dataset.items
    for key in SPLIT_FILES:
        assert np.array_equal(split_pairs(loaded, *key), split_pairs(dataset, *key)), key


def test_numpy_metadata_round_trips_through_the_manifest(tmp_path):
    # a numpy seed used to reach json.dumps and raise a stray TypeError
    # after the split files were written
    ids = np.array([["u1", "a"], ["u2", "b"], ["u3", "a"]])
    built = build_dataset((ids, np.ones(3)), (ids[:2], np.ones(2)), Rng(0))
    dataset = mdap.InteractionDataset(
        built.users, built.items["s"], built.items["t"],
        {key: split_pairs(built, *key) for key in SPLIT_FILES},
        threshold=np.float32(0.5), seed=np.int64(3), k_core=np.int64(2))
    write_prepared(str(tmp_path), dataset, {"config_hash": "0"})
    loaded = load_prepared(str(tmp_path))
    assert (loaded.seed, loaded.k_core, loaded.threshold) == (3, 2, 0.5)
    assert type(loaded.seed) is int and type(loaded.k_core) is int


def drop_splits_t(manifest):
    del manifest["splits"]["t"]
    return json.dumps(manifest)


@pytest.mark.parametrize("edit", [
    lambda m: json.dumps([m]),
    lambda m: json.dumps({**m, "threshold": None}),
    drop_splits_t,
    lambda m: json.dumps({**m, "n_users": m["n_users"] + 1}),
    lambda m: json.dumps(m)[:-2],
    lambda m: json.dumps({key: v for key, v in m.items() if key != "split_sha256"}),
    lambda m: json.dumps({**m, "seed": -1}),
    lambda m: json.dumps({**m, "k_core": -1}),
], ids=["list", "null-threshold", "no-splits-t", "n-users-off-by-one", "truncated",
        "no-digests", "negative-seed", "negative-k-core"])
def test_malformed_manifest_names_file(tmp_path, capsys, edit):
    out = prepared_dir(tmp_path)
    path = out / "manifest.json"
    path.write_text(edit(json.loads(path.read_text())))
    capsys.readouterr()
    assert run("train", "--out", out, "--epochs", 1, "--quiet") == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "Traceback" not in err


def test_split_file_edit_that_keeps_counts_is_rejected(tmp_path, capsys):
    # Swap the items of two users' lines: every count in the manifest
    # still holds, only the digest of the file's bytes tells.
    out = prepared_dir(tmp_path)
    split = out / "splits" / "s_train.tsv"
    lines = [line.split("\t") for line in split.read_text().splitlines()]
    owned = {tuple(line.split("\t")) for sp in ("train", "valid", "test")
             for line in (out / "splits" / f"s_{sp}.tsv").read_text().splitlines()}
    i, j = next((i, j) for i in range(len(lines)) for j in range(i)
                if (lines[i][0], lines[j][1]) not in owned
                and (lines[j][0], lines[i][1]) not in owned)
    lines[i][1], lines[j][1] = lines[j][1], lines[i][1]
    split.write_text("".join("\t".join(fields) + "\n" for fields in lines))
    capsys.readouterr()
    assert run("train", "--out", out, "--epochs", 1, "--quiet") == 2
    assert f"error: {split}: contents differ from the sha256" in capsys.readouterr().err
    # with the edited file's digest recorded, the counts check passes
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["split_sha256"]["s_train"] = file_hash(split)
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert load_prepared(str(out)).split_size("s", "train") == len(lines)


def test_split_file_with_byte_order_mark_is_rejected(tmp_path, capsys):
    # The text decodes as before, but the digest is of the file's bytes
    out = prepared_dir(tmp_path)
    split = out / "splits" / "t_valid.tsv"
    split.write_bytes(b"\xef\xbb\xbf" + split.read_bytes())
    capsys.readouterr()
    assert run("train", "--out", out, "--epochs", 1, "--quiet") == 2
    assert f"error: {split}: contents differ from the sha256" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["domain", "split", "manifest", "config"])
def test_non_utf8_file_names_path(tmp_path, capsys, kind):
    out = prepared_dir(tmp_path)
    syn = tmp_path / "syn"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\n")
    path = {"domain": syn / "domain_s.tsv", "split": out / "splits" / "t_test.tsv",
            "manifest": out / "manifest.json", "config": cfg}[kind]
    path.write_bytes(path.read_bytes() + b"\xff\n")
    capsys.readouterr()
    if kind == "domain":
        code = run("prepare", "--domain-s", path, "--domain-t", syn / "domain_t.tsv",
                   "--out", tmp_path / "again")
    else:
        code = run("train", "--out", out, "--config", cfg, "--quiet")
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "not UTF-8" in err and "Traceback" not in err


def write_prepared_reference(out, dataset):
    """The per-pair split file writer write_prepared replaced."""
    os.makedirs(os.path.join(out, "splits"))
    for domain, split in SPLIT_FILES:
        users = dataset.users
        items = dataset.items[domain]
        with open(split_file_path(out, domain, split), "w", encoding="utf-8") as fh:
            for u, i in split_pairs(dataset, domain, split):
                fh.write(f"{users[int(u)]}\t{items[int(i)]}\n")


def test_write_prepared_matches_per_pair_writer(tmp_path, fixture_dataset):
    odd_ids = np.array([["ü 1", "é#"], ["ü 1", "x y"], ["b", "é#"], ["ü 1", "z"]])
    odd = build_dataset((odd_ids, np.ones(4)), (odd_ids[:2], np.ones(2)), Rng(1))
    for n, dataset in enumerate((fixture_dataset, odd)):
        write_prepared(str(tmp_path / f"new{n}"), dataset, {"config_hash": "0"})
        write_prepared_reference(str(tmp_path / f"ref{n}"), dataset)
        for domain, split in SPLIT_FILES:
            new = split_file_path(str(tmp_path / f"new{n}"), domain, split)
            assert file_hash(new) == file_hash(
                split_file_path(str(tmp_path / f"ref{n}"), domain, split)), new


def test_load_prepared_rebuilds_the_prepared_dataset(tmp_path):
    out = prepared_dir(tmp_path, seed=5)
    syn = tmp_path / "syn"
    built = build_dataset(load_domain(str(syn / "domain_s.tsv")),
                          load_domain(str(syn / "domain_t.tsv")), Rng(5))
    loaded = load_prepared(str(out))
    assert loaded.users == built.users and loaded.items == built.items
    for key in SPLIT_FILES:
        assert np.array_equal(split_pairs(loaded, *key), split_pairs(built, *key)), key


def test_exit_code_three_on_divergence(tmp_path):
    out = prepared_dir(tmp_path)
    assert run("train", "--out", out, "--epochs", 2, "--patience", 2,
               "--lr", 1e308, "--quiet") == 3


@pytest.mark.parametrize("flag, value, name", [
    ("--tau", "nan", "tau"), ("--tau", "inf", "tau"),
    ("--lambda", "nan", "lam"), ("--lambda", "inf", "lam"),
    ("--lr", "nan", "lr"), ("--lr", "inf", "lr"),
], ids=["tau-nan", "tau-inf", "lambda-nan", "lambda-inf", "lr-nan", "lr-inf"])
def test_train_rejects_non_finite_option(tmp_path, capsys, flag, value, name):
    out = prepared_dir(tmp_path)
    capsys.readouterr()
    assert run("train", "--out", out, "--epochs", 1, "--patience", 1,
               "--embed-dim", 8, "--hidden", 16, "--quiet", flag, value) == 2
    assert f"error: {name} must be" in capsys.readouterr().err
    for sub in ("checkpoints", "logs", "reports"):
        assert not (out / sub).exists(), sub


@pytest.mark.parametrize("command, flag, name, value", [
    ("train", "--k", "k", 2**70), ("train", "--embed-dim", "embed_dim", 2**62),
    ("train", "--hidden", "hidden", 2**70), ("grid", "--k-grid", "k", 2**70),
], ids=["train-k", "train-embed-dim", "train-hidden", "grid-k"])
def test_model_too_large_for_an_array_exits_two(tmp_path, capsys, command, flag, name, value):
    out = prepared_dir(tmp_path)
    grid = GRID_POINT if command == "grid" else []  # the later --k-grid wins
    capsys.readouterr()
    assert run(command, "--out", out, "--epochs", 1, "--quiet", *grid, flag, value) == 2
    err = capsys.readouterr().err
    assert "too large for an array" in err and f"{name}={value}" in err
    assert not (out / f"config_{command}.json").exists()
    for sub in ("checkpoints", "logs", "reports", "grid"):
        assert not (out / sub).exists(), sub


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("name", ["n_users", "n_items_s", "n_items_t"])
def test_synth_size_too_large_for_an_array_exits_two(tmp_path, capsys, monkeypatch, name, via):
    # synthetic_records would list 2**70 ids before drawing anything: the
    # size is refused before it runs, and this test fails rather than
    # grows if it ever does run
    def unreachable(*args):
        raise AssertionError("synthetic_records was called")

    monkeypatch.setattr(mdap.cli, "synthetic_records", unreachable)
    out = tmp_path / "syn"
    if via == "flag":
        argv = synth_args(out, **{name: 2**70})
    else:
        config = tmp_path / "huge.cfg"
        config.write_text(f"{name}={2**70}\n")
        argv = ["synth", "--out", out, "--config", config]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "too large for an array" in err and f"{name}={2**70}" in err
    for artifact in ("domain_s.tsv", "domain_t.tsv", "planted_views.tsv", "config_synth.json"):
        assert not (out / artifact).exists(), artifact


def test_failed_train_leaves_no_partial_artifacts(tmp_path):
    out = prepared_dir(tmp_path)
    assert run("train", "--out", out, "--tau", 0) == 2
    assert not (out / "checkpoints").exists()
    assert not (out / "logs").exists()


def checkpoint_failing_at_last_array(path):
    config = ModelConfig(k=2, embed_dim=3, hidden=4)
    params = init_params(config, 40, 30, Rng(0))
    params.gate = np.array([["not a float"] * 2] * 2)  # gate is written last
    save_checkpoint(path, params, config)


def domain_file_failing_at_last_line(path):
    # enough lines that the failure comes after the write buffer was flushed
    ids = np.array([[f"u{i}", f"i{i}"] for i in range(5000)])
    write_domain_file(path, (ids, np.array([1.0] * 4999 + ["not a float"], dtype=object)))


def interrupted_write(path):
    with atomic_open(path) as fh:
        fh.write("partial\n")
        raise KeyboardInterrupt


@pytest.mark.parametrize("writer, error", [
    (checkpoint_failing_at_last_array, ValueError),
    (domain_file_failing_at_last_line, TypeError),
    (interrupted_write, KeyboardInterrupt),
], ids=["checkpoint", "domain-file", "interrupt"])
def test_failed_write_leaves_no_partial_or_temp_file(tmp_path, writer, error):
    target = tmp_path / "artifact"
    target.write_bytes(b"previous run\n")
    with pytest.raises(error):
        writer(str(target))
    assert os.listdir(tmp_path) == ["artifact"]
    assert target.read_bytes() == b"previous run\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "mdap" in capsys.readouterr().out


def test_package_exports_resolve():
    assert [name for name in mdap.__all__ if not hasattr(mdap, name)] == []


def test_option_table_covers_all_preset_keys():
    for preset in PRESETS.values():
        assert set(preset) <= set(OPTION_TABLE)
