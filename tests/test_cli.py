"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import warnings

import numpy as np
import pytest

from conftest import tree_digest, unit_sphere_cloud, write_benchmark_manifest
from noisebench import read_annotated, read_sigma_summary, write_cloud
from noisebench.cli import main


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


def test_corrupt_unknown_tier_exit_2(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=83)
    assert main(["corrupt", str(manifest), "nope", str(tmp_path / "out")]) == 2
    assert "preset tier" in capsys.readouterr().err


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
