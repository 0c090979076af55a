import hashlib
import json
import os

import numpy as np
import pytest

import mdap
from mdap.cli import (OPTION_TABLE, PRESETS, SPLIT_FILES, build_parser, load_prepared, main,
                      parse_config_file, parse_grid, resolve_options, split_file_path,
                      write_prepared)
from mdap.data import atomic_open, build_dataset, load_domain, write_domain_file
from mdap.errors import ParameterError
from mdap.model import ModelConfig, init_params, save_checkpoint
from mdap.numerics import Rng


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


def test_train_writes_artifacts(tmp_path, capsys):
    out = prepared_dir(tmp_path)
    code = run("train", "--out", out, "--epochs", 2, "--patience", 2,
               "--k", 2, "--embed-dim", 8, "--hidden", 16, "--quiet")
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
    assert metrics["split"] == "test"
    assert metrics["checkpoint"] == os.path.join("checkpoints", "model.ckpt")
    config = json.loads((out / "config_train.json").read_text())
    assert config["options"]["epochs"] == 2
    assert "best epoch" in capsys.readouterr().out


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


def test_ablate_reports_all_variants(tmp_path):
    out = prepared_dir(tmp_path)
    code = run("ablate", "--out", out, "--epochs", 1, "--patience", 1,
               "--k", 2, "--embed-dim", 8, "--hidden", 16, "--quiet")
    assert code == 0
    report = json.loads((out / "reports" / "ablation.json").read_text())
    assert [row["variant"] for row in report["rows"]] == \
        ["MDAP", "MDAP-GS", "MDAP-MV", "MDAP-DG"]
    table = (out / "reports" / "ablation.txt").read_text()
    assert "MDAP-MV" in table
    for row in report["rows"]:
        tag = row["variant"].lower().replace("-", "_")
        assert (out / "logs" / f"ablation_{tag}.jsonl").exists()
        assert (out / "checkpoints" / f"ablation_{tag}.ckpt").exists()


def test_grid_single_point_runs_once(tmp_path):
    out = prepared_dir(tmp_path)
    code = run("grid", "--out", out, "--epochs", 1, "--patience", 1,
               "--embed-dim", 8, "--hidden", 16, "--quiet",
               "--dropout-grid", "0.5", "--tau-grid", "0.2",
               "--k-grid", "8", "--lambda-grid", "0.5")
    assert code == 0
    summary = json.loads((out / "reports" / "grid.json").read_text())
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
    summary = json.loads((out / "reports" / "grid.json").read_text())
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
    summary = json.loads((out / "reports" / "grid.json").read_text())
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
], ids=["list", "null-threshold", "no-splits-t", "n-users-off-by-one", "truncated",
        "no-digests"])
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
            for u, i in dataset.pairs[(domain, split)]:
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
    for key in built.pairs:
        assert np.array_equal(loaded.pairs[key], built.pairs[key]), key


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
