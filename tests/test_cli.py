"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import tree_digest, unit_sphere_cloud, write_benchmark_manifest
import noisebench
from noisebench import (DEFAULT_NORMAL_K, DEFAULT_SENSOR, corrupt_cloud, estimate_normals,
                        read_annotated, read_sigma_summary, sample_seed, tier_params,
                        write_cloud)
from noisebench.cli import main
from noisebench.noise import _STREAM_PERTURB, _substream


def write_predictions(path, rows, classes=3):
    """rows: (sample_id, true_label, probs) triples."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "true_label"] + [f"p_{i}" for i in range(classes)])
        for sid, label, probs in rows:
            writer.writerow([sid, label] + [repr(float(p)) for p in probs])


def test_params_output_matches_presets(capsys):
    assert main(["params", "moderate"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert float(out["a"]) == 0.005
    assert float(out["b"]) == 0.002
    assert float(out["c"]) == 2.0
    assert float(out["k"]) == 0.010
    assert float(out["p_out"]) == 0.02


def test_params_unknown_tier_is_usage_error(capsys):
    assert main(["params", "brutal"]) == 2
    assert "valid tiers" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["params", "light", "--frobnicate"]) == 2
    assert main(["bogus-command"]) == 2


def test_corrupt_end_to_end(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 6, 48, seed=80)
    code = main(["corrupt", str(manifest), "light", str(tmp_path / "out"),
                 "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "samples=6" in out and "failures=0" in out

    tier_dir = tmp_path / "out" / "light"
    assert (tier_dir / "summary.csv").exists()
    assert len(list(tier_dir.glob("*.xyzn"))) == 6

    # identical rerun, different worker count: byte-identical tree
    main(["corrupt", str(manifest), "light", str(tmp_path / "out2"),
          "--seed", "7", "--threads", "4"])
    assert tree_digest(tier_dir) == tree_digest(tmp_path / "out2" / "light")


def test_corrupt_golden_tree_digest(tmp_path):
    # frozen output bytes of a small heavy-tier run (outliers included); the
    # Philox normal stream is only stable within one numpy build, so a
    # mismatch after a numpy upgrade is expected and must be re-pinned
    manifest = write_benchmark_manifest(tmp_path, 4, 300, seed=90)
    out = tmp_path / "out"
    assert main(["corrupt", str(manifest), "heavy", str(out), "--seed", "11",
                 "--threads", "2"]) == 0
    assert tree_digest(out) == (
        "8a8abb04b6deab9eb3d56b3c856d32c66b3cb96fe28b5de5a7b8ece4b33b8fc2")


def _golden_stage(stage, i):
    """One stage's array for sample s{i:04d} of the golden corrupt run above,
    whose cloud file holds unit_sphere_cloud(300, seed=90 + i) exactly."""
    cloud = unit_sphere_cloud(300, seed=90 + i)
    seed = sample_seed(11, f"s{i:04d}")
    if stage == "normal_draws":
        return _substream(seed, _STREAM_PERTURB).standard_normal(len(cloud))
    if stage == "normals":
        return estimate_normals(cloud, DEFAULT_NORMAL_K, DEFAULT_SENSOR).vectors
    return corrupt_cloud(cloud, DEFAULT_SENSOR, tier_params("heavy"), DEFAULT_NORMAL_K,
                         seed).sigma


_GOLDEN_STAGE_DIGESTS = {
    "normal_draws": "a066349ef48377c7801361222afdb8d94ce1e3b89125e7ea682beea7fd57feb7",
    "normals": "4857345948e6c3e38d4e4dae9580c6dfc5fc2f372249cdf5935dc8a1fc374d85",
    "sigma": "37420e63d2609b7b2a945d4642fb1af5067192fa24418cdeb7f5ceec31d65d8c",
}


@pytest.mark.parametrize("stage", list(_GOLDEN_STAGE_DIGESTS))
def test_corrupt_golden_stage_digest(stage):
    # the golden tree's stages, frozen one by one so that a mismatch names
    # its stage: the Philox normal draws use no BLAS, while the normals (the
    # covariance @ and eigh), and sigma through them, depend on the BLAS kernel
    h = hashlib.sha256()
    for i in range(4):
        h.update(_golden_stage(stage, i).astype("<f8").tobytes())
    assert h.hexdigest() == _GOLDEN_STAGE_DIGESTS[stage]


def test_corrupt_seed_changes_output(tmp_path):
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=81)
    main(["corrupt", str(manifest), "moderate", str(tmp_path / "a"), "--seed", "1"])
    main(["corrupt", str(manifest), "moderate", str(tmp_path / "b"), "--seed", "2"])
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


def test_corrupt_with_tier_config_file(tmp_path):
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=82)
    cfg = tmp_path / "all_outliers.cfg"
    cfg.write_text("a=0.01\np_out=1.0\nglobal_seed=3\n")
    assert main(["corrupt", str(manifest), str(cfg), str(tmp_path / "out")]) == 0
    cols = read_annotated(tmp_path / "out" / "custom" / "s0000.xyzn")
    assert cols.outlier.all()


def test_corrupt_config_file_seed_out_of_range_exit_1(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=82)
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("a=0.01\nglobal_seed=-5\n")
    out = tmp_path / "out"
    assert main(["corrupt", str(manifest), str(cfg), str(out)]) == 1
    assert "global seed" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_unknown_tier_exit_2(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=83)
    assert main(["corrupt", str(manifest), "nope", str(tmp_path / "out")]) == 2
    assert "preset tier" in capsys.readouterr().err


def test_corrupt_long_tier_name_exit_2(tmp_path, capsys):
    # a name past the file system's limit is no config file, not an OSError
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=83)
    assert main(["corrupt", str(manifest), "x" * 300, str(tmp_path / "out")]) == 2
    assert "is neither a preset tier" in capsys.readouterr().err


def test_corrupt_missing_cloud_fails(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=84)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("gone,0,clouds/gone.xyz\n")
    assert main(["corrupt", str(manifest), "light", str(tmp_path / "out")]) == 1

    # keep-going still exits 1 but writes the good samples
    code = main(["corrupt", str(manifest), "light", str(tmp_path / "out2"),
                 "--keep-going"])
    assert code == 1
    assert "failed gone" in capsys.readouterr().err
    assert len(list((tmp_path / "out2" / "light").glob("*.xyzn"))) == 2


def test_corrupt_sensor_and_scale_flags(tmp_path):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=85)
    code = main(["corrupt", str(manifest), "moderate", str(tmp_path / "out"),
                 "--sensor", "0,-4,0", "--scale", "2.0", "--normal-k", "8"])
    assert code == 0
    # farther sensor and doubled coordinates mean larger ranges, so the
    # range-driven part of sigma must exceed the default setup's
    main(["corrupt", str(manifest), "moderate", str(tmp_path / "ref")])
    far = read_sigma_summary(tmp_path / "out" / "moderate" / "summary.csv")
    ref = read_sigma_summary(tmp_path / "ref" / "moderate" / "summary.csv")
    assert far["s0000"] > ref["s0000"]


@pytest.mark.parametrize("flags", [
    ["--normal-k", "2"],
    ["--scale", "0"],
    ["--scale", "-1.5"],
    ["--scale", "nan"],
    ["--scale", "inf"],
    ["--sensor", "nan,-2,0"],
    ["--sensor", "0,-1e200,0"],
    ["--threads", "0"],
    ["--threads", "-1"],
    ["--seed", str(2**64)],  # would alias seed 0 if masked to 64 bits
    ["--seed", "-1"],        # would alias seed 2**64 - 1
])
def test_corrupt_invalid_override_is_usage_error(tmp_path, capsys, flags):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=88)
    out = tmp_path / "out"
    assert main(["corrupt", str(manifest), "light", str(out)] + flags) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_huge_scale_names_the_limit(tmp_path, capsys):
    # squared distances of coordinates near 1e200 overflow; the run must
    # say so up front instead of warning and failing somewhere inside kNN
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=90)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["corrupt", str(manifest), "light", str(out), "--scale", "1e200",
                     "--threads", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "1e+150" in err and "RuntimeWarning" not in err
    assert [str(w.message) for w in caught] == []
    assert list(out.iterdir()) == []


def _run_python(*args):
    """Run Python in a subprocess, where pytest cannot turn a warning into an error."""
    src = str(Path(noisebench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def _run_cli(*args):
    return _run_python("-m", "noisebench.cli", *args)


def test_corrupt_overflowing_sample_mean_fails(tmp_path):
    # every sigma near 1e307 is finite but their sum is not
    manifest = write_benchmark_manifest(tmp_path, 3, 48, seed=92)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("a=1e307\n")
    runs = {}
    for out, flags in (("out", []), ("kept", ["--keep-going"])):
        runs[out] = _run_cli("corrupt", manifest, cfg, tmp_path / out, *flags)
        assert runs[out].returncode == 1
        assert "inf" not in runs[out].stdout + runs[out].stderr
        assert "Warning" not in runs[out].stderr
    assert list((tmp_path / "out").iterdir()) == []
    assert "failures=3" in runs["kept"].stdout
    assert [p.name for p in (tmp_path / "kept" / "custom").iterdir()] == ["summary.csv"]
    assert "inf" not in (tmp_path / "kept" / "custom" / "summary.csv").read_text()


def test_corrupt_run_mean_of_huge_sample_means_is_finite(tmp_path):
    # each sample mean is 9e306, but 20 of them sum past the float range
    manifest = write_benchmark_manifest(tmp_path, 20, 17, seed=93)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("a=9e306\n")
    run = _run_cli("corrupt", manifest, cfg, tmp_path / "out")
    assert run.returncode == 0
    assert "mean_sigma=9e+306" in run.stdout
    assert run.stderr == ""


def test_corrupt_unsafe_sample_id_writes_nothing(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=89)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("../../escaped,0,clouds/s0000.xyz\n")
    out = tmp_path / "a" / "b" / "out"
    assert main(["corrupt", str(manifest), "light", str(out)]) == 1
    assert "sample_id" in capsys.readouterr().err
    assert list(tmp_path.rglob("escaped*")) == []


def test_evaluate_end_to_end(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 4, 48, seed=86)
    main(["corrupt", str(manifest), "light", str(tmp_path / "out"), "--seed", "5"])
    summary = tmp_path / "out" / "light" / "summary.csv"

    preds = tmp_path / "preds.csv"
    write_predictions(preds, [
        ("s0000", 0, [0.8, 0.1, 0.1]),
        ("s0001", 1, [0.1, 0.7, 0.2]),
        ("s0002", 2, [0.2, 0.2, 0.6]),
        ("s0003", 0, [0.3, 0.4, 0.3]),
    ])
    code = main(["evaluate", str(preds), str(summary), "--bins", "10",
                 "--out", str(tmp_path / "report")])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=0.75" in out
    assert (tmp_path / "report" / "report.txt").exists()
    assert (tmp_path / "report" / "curve.csv").exists()


def test_evaluate_missing_sigma_exit_1(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    write_predictions(preds, [("ghost", 0, [0.9, 0.05, 0.05])])
    summary = tmp_path / "summary.csv"
    summary.write_text("sample_id,label,mean_sigma,mean_mu,outlier_count\n"
                       "other,0,0.01,0.0,0\n")
    assert main(["evaluate", str(preds), str(summary)]) == 1
    assert "ghost" in capsys.readouterr().err


def test_evaluate_zero_noise_marker(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=87)
    main(["corrupt", str(manifest), "none", str(tmp_path / "out")])
    preds = tmp_path / "preds.csv"
    write_predictions(preds, [
        ("s0000", 0, [0.9, 0.05, 0.05]),
        ("s0001", 1, [0.2, 0.7, 0.1]),
    ])
    code = main(["evaluate", str(preds),
                 str(tmp_path / "out" / "none" / "summary.csv")])
    assert code == 0
    assert "pearson_r=undefined(zero_variance)" in capsys.readouterr().out


def test_evaluate_malformed_predictions_exit_1(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("sample_id,true_label,p_0,p_1\na,0,0.9,0.9\n")
    summary = tmp_path / "summary.csv"
    summary.write_text("sample_id,label,mean_sigma,mean_mu,outlier_count\n"
                       "a,0,0.01,0.0,0\n")
    assert main(["evaluate", str(preds), str(summary)]) == 1
    assert "error" in capsys.readouterr().err


def test_evaluate_repeated_sample_id_exit_1(tmp_path, capsys):
    # a repeated row would be scored twice
    preds = tmp_path / "preds.csv"
    write_predictions(preds, [("a", 0, [0.8, 0.1, 0.1]), ("a", 1, [0.1, 0.8, 0.1]),
                              ("b", 2, [0.1, 0.1, 0.8])])
    summary = tmp_path / "summary.csv"
    summary.write_text("sample_id,label,mean_sigma,mean_mu,outlier_count\n"
                       "a,0,0.01,0.0,0\nb,2,0.02,0.0,0\n")
    assert main(["evaluate", str(preds), str(summary)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {preds}:3: duplicate sample_id 'a'\n"


@pytest.mark.parametrize("pred_row,sigma", [
    ("a,0,nan,1.0", "0.01"),
    ("a,0,1.0,0.0", "nan"),
])
def test_evaluate_non_finite_input_exit_1(tmp_path, capsys, pred_row, sigma):
    preds = tmp_path / "preds.csv"
    preds.write_text(f"sample_id,true_label,p_0,p_1\nb,1,0.2,0.8\n{pred_row}\n")
    summary = tmp_path / "summary.csv"
    summary.write_text("sample_id,label,mean_sigma,mean_mu,outlier_count\n"
                       f"b,1,0.02,0.0,0\na,0,{sigma},0.0,0\n")
    assert main(["evaluate", str(preds), str(summary)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ".csv:3:" in captured.err


@pytest.mark.parametrize("bad", ["manifest", "tier", "predictions", "cloud"])
def test_non_utf8_input_exit_1(tmp_path, capsys, bad):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=91)
    cloud = tmp_path / "clouds" / "s0000.xyz"
    write_cloud(cloud, unit_sphere_cloud(400, seed=91))
    assert cloud.stat().st_size > 8192  # the bad byte lies past the first 8 KiB
    tier = tmp_path / "tier.cfg"
    tier.write_text("a=0.01\n")
    preds = tmp_path / "preds.csv"
    write_predictions(preds, [("s0000", 0, [0.6, 0.3, 0.1])])
    summary = tmp_path / "summary.csv"
    summary.write_text("sample_id,label,mean_sigma,mean_mu,outlier_count\n"
                       "s0000,0,0.01,0.0,0\n")
    path = {"manifest": manifest, "tier": tier, "predictions": preds, "cloud": cloud}[bad]
    line = path.read_bytes().count(b"\n") + 1
    path.write_bytes(path.read_bytes() + b"\xff\n")
    args = (["evaluate", str(preds), str(summary)] if bad == "predictions" else
            ["corrupt", str(manifest), str(tier), str(tmp_path / "out")])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["manifest", "predictions"])
def test_oversized_csv_field_exit_1(tmp_path, capsys, bad):
    # past csv's 131,072-character field limit a record is a malformed line
    sid = "s" * 200_000
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"sample_id,label,path\n{sid},0,clouds/{sid}.xyz\n")
    preds = tmp_path / "preds.csv"
    write_predictions(preds, [(sid, 0, [0.6, 0.3, 0.1])])
    summary = tmp_path / "summary.csv"
    summary.write_text("sample_id,label,mean_sigma,mean_mu,outlier_count\n"
                       "s0000,0,0.01,0.0,0\n")
    args = (["evaluate", str(preds), str(summary)] if bad == "predictions" else
            ["corrupt", str(manifest), "light", str(tmp_path / "out")])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"{manifest if bad == 'manifest' else preds}:2:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["evaluate", "{p}", "{s}", "--bins", "0"],
    ["stratify", "--preds", "{p}", "--sigmas", "{s}", "--bins", "0"],
    ["stratify", "--preds", "{p}", "--sigmas", "{s}", "--quartiles", "0"],
    ["stratify", "--preds", "{p}", "--sigmas", "{s}", "--quartiles", "-1"],
])
def test_score_non_positive_count_is_usage_error(tmp_path, capsys, args):
    preds = tmp_path / "p.csv"
    write_predictions(preds, [(f"a{i}", i, [0.6, 0.3, 0.1]) for i in range(3)])
    summary = tmp_path / "s.csv"
    summary.write_text("sample_id,label,mean_sigma,mean_mu,outlier_count\n"
                       + "".join(f"a{i},0,0.0{i + 1},0.0,0\n" for i in range(3)))
    assert main([a.format(p=preds, s=summary) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and args[-2] in captured.err


def test_stratify_end_to_end(tmp_path, capsys):
    preds_a = tmp_path / "preds_a.csv"
    write_predictions(preds_a, [(f"a{i}", 0, [0.8, 0.15, 0.05]) for i in range(4)])
    preds_b = tmp_path / "preds_b.csv"
    write_predictions(preds_b, [(f"b{i}", 1, [0.6, 0.3, 0.1]) for i in range(4)])

    def sigma_csv(path, ids, start):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "label", "mean_sigma", "mean_mu",
                             "outlier_count"])
            for i, sid in enumerate(ids):
                writer.writerow([sid, 0, repr(start + 0.001 * i), "0.0", 0])

    sig_a = tmp_path / "sig_a.csv"
    sigma_csv(sig_a, [f"a{i}" for i in range(4)], 0.001)
    sig_b = tmp_path / "sig_b.csv"
    sigma_csv(sig_b, [f"b{i}" for i in range(4)], 0.011)

    code = main(["stratify", "--preds", str(preds_a), str(preds_b),
                 "--sigmas", str(sig_a), str(sig_b),
                 "--quartiles", "2", "--out", str(tmp_path / "strat")])
    assert code == 0
    lines = (tmp_path / "strat" / "stratified.csv").read_text().splitlines()
    assert lines[0] == "quartile,sigma_lo,sigma_hi,count,ece"
    assert len(lines) == 3
    q0 = lines[1].split(",")
    assert q0[3] == "4"
    # low-sigma group is tier A: all correct at confidence 0.8
    assert float(q0[4]) == pytest.approx(0.2, abs=1e-12)


def _score_tier(rng, ids, noise):
    """40-class prediction rows plus rounded sigmas for one tier.

    Every third row puts its confidence exactly on a bin edge (k/15, or 0.5
    split between two tied classes); sigmas are rounded to 4 decimals so
    pooled sigmas tie across and within tiers.
    """
    rows, sigmas = [], {}
    for i, sid in enumerate(ids):
        top = int(rng.integers(40))
        if i % 6 == 0:
            conf = int(rng.integers(2, 16)) / 15
            probs = np.insert((1.0 - conf) * rng.dirichlet([4.0] * 39), top, conf)
        elif i % 6 == 3:
            conf = 0.5
            probs = np.zeros(40)
            probs[[top, (top + 1 + int(rng.integers(39))) % 40]] = 0.5
        else:
            probs = rng.dirichlet([0.3] * 40)
            conf = probs.max()
            top = int(probs.argmax())
        label = top if rng.random() < conf else int(rng.integers(40))
        rows.append((sid, label, probs))
        sigma = noise * (1.5 - conf) + abs(rng.normal(0.0, 0.002))
        sigmas[sid] = round(float(sigma), 4)
    return rows, sigmas


def test_score_golden_digest(tmp_path, monkeypatch, capsys):
    # frozen output bytes of evaluate on two tiers and stratify over both
    # (inputs drawn with numpy 2.4.6); relative paths keep the printed
    # "wrote ..." lines machine-independent
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(96)
    ids = [f"s{i:03d}" for i in rng.permutation(180)]
    for tier, noise in (("a", 0.01), ("b", 0.03)):
        rows, sigmas = _score_tier(rng, ids, noise)
        write_predictions(f"p_{tier}.csv", rows, classes=40)
        with open(f"s_{tier}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "label", "mean_sigma", "mean_mu",
                             "outlier_count"])
            for sid, sigma in sorted(sigmas.items()):
                writer.writerow([sid, 0, repr(sigma), "0.0", 0])
        assert main(["evaluate", f"p_{tier}.csv", f"s_{tier}.csv",
                     "--out", f"out/{tier}"]) == 0
    assert main(["stratify", "--preds", "p_a.csv", "p_b.csv",
                 "--sigmas", "s_a.csv", "s_b.csv", "--out", "out/strat"]) == 0
    stdout = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.joinpath("out").rglob("*")
                  if p.is_file()) == ["curve.csv", "curve.csv", "report.txt",
                                      "report.txt", "stratified.csv"]
    assert tree_digest(tmp_path / "out") == (
        "7294078d4fe95c53116d80835a41f6547fb63fbbc600fc14ba4b653fbfb87147")
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "0230b8be6f07e26c7fc8d3169b866841a1b072c911d2746d408fffe24b138b42")


def test_stratify_mismatched_lists_exit_2(tmp_path, capsys):
    preds = tmp_path / "p.csv"
    write_predictions(preds, [("a", 0, [0.9, 0.05, 0.05])])
    assert main(["stratify", "--preds", str(preds), "--sigmas"]) == 2


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["corrupt", "--help"]) == 0


_NO_NUMPY = """
import contextlib, io, sys

def check(step):
    assert "numpy" not in sys.modules, f"numpy loaded by {step}"

check("interpreter start")
import noisebench
check("import noisebench")
from noisebench.cli import main
check("import noisebench.cli")
for argv, code in [(["params", "moderate"], 0), (["--help"], 0),
                   *(([cmd, "--help"], 0) for cmd in ("corrupt", "evaluate", "stratify",
                                                       "params")),
                   ([], 2), (["params"], 2), (["params", "brutal"], 2),
                   (["evaluate", "p.csv", "s.csv", "--bins", "0"], 2),
                   (["corrupt", "m.csv", "light", "out", "--sensor", "1,2"], 2),
                   (["corrupt", "m.csv", "nope", "out"], 2)]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, argv
    check(argv)
"""


def test_cli_without_data_loads_no_numpy():
    # params, --help and usage errors touch no array, so they must start
    # without paying for numpy's import
    run = _run_python("-c", _NO_NUMPY)
    assert run.returncode == 0, run.stderr


_PACKAGE_NAMES = """
    AnnotatedCloud CalibrationBin DEFAULT_NORMAL_K DEFAULT_SENSOR DegenerateRay
    EmptyCloud EmptyInput EvalReport GenerationError GenerationSummary
    InsufficientPoints Manifest MissingSigma NoiseBenchError NoiseParams NormalEstimate
    ParseError Predictions QuartileEce SampleEntry TIER_NAMES TierConfig TooFewValues
    UnknownTier ZeroVariance accuracy angle_factor bias_mu bounding_box corrupt_cloud
    ece estimate_normals evaluate generate_benchmark incidence_cosine inject_outliers
    pearson perturb_points point_sigma preset_config quartile_bins range_to_sensor
    read_annotated read_cloud read_manifest read_predictions read_sigma_summary
    read_tier_config reliability_curve sample_seed sigma_range stratified_ece
    tier_params uncertainty_correlation write_annotated write_cloud
""".split()

_SUBMODULE_ATTRIBUTES = """
import sys
import noisebench
for name in ("errors", "geometry", "metrics", "noise", "pipeline"):
    assert getattr(noisebench, name) is sys.modules["noisebench." + name], name
"""


def test_package_surface_loads_on_first_use():
    assert sorted(noisebench.__all__) == sorted(_PACKAGE_NAMES)
    for name in noisebench.__all__:
        obj = getattr(noisebench, name)
        home = sys.modules[getattr(obj, "__module__", "noisebench.tiers")]
        assert getattr(home, name) is obj, name
    assert noisebench.pipeline.TIER_NAMES is noisebench.TIER_NAMES
    assert noisebench.noise.NoiseParams is noisebench.NoiseParams
    with pytest.raises(AttributeError, match="no_such_name"):
        noisebench.no_such_name
    namespace = {}
    exec("from noisebench import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(noisebench, name) for name in _PACKAGE_NAMES}
    # a fresh interpreter, where no submodule is loaded before it is asked for
    run = _run_python("-c", _SUBMODULE_ATTRIBUTES)
    assert run.returncode == 0, run.stderr
