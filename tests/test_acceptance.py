"""Acceptance suite: one test per release criterion.

Each criterion is a single test function; the terminal summary (see
conftest.py) prints one PASS/FAIL line per criterion at the end of the run.
Tolerances and runtime budgets are asserted as stated, not loosened.
"""

import csv
import os
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import ece_oracle, tree_digest, unit_sphere_cloud, write_benchmark_manifest
from noisebench import (Predictions, ZeroVariance, bias_mu, corrupt_cloud,
                        ece, estimate_normals, evaluate, inject_outliers,
                        bounding_box, pearson, perturb_points, point_sigma,
                        quartile_bins, read_annotated, stratified_ece,
                        tier_params, uncertainty_correlation)
from noisebench.cli import main

SENSOR = (0.0, -2.0, 0.0)


def test_c01_tier_preset_values_exact(capsys):
    expected = {
        "light": (0.003, 0.001, 1.5, 0.005, 0.01),
        "moderate": (0.005, 0.002, 2.0, 0.010, 0.02),
        "heavy": (0.010, 0.003, 3.0, 0.015, 0.05),
    }
    for tier, (a, b, c, k, p_out) in expected.items():
        params = tier_params(tier)
        assert (params.a, params.b, params.c, params.k, params.p_out) == \
            (a, b, c, k, p_out)
        # and the CLI reports the same numbers
        assert main(["params", tier]) == 0
        printed = dict(line.split("=") for line in
                       capsys.readouterr().out.splitlines())
        assert (float(printed["a"]), float(printed["b"]), float(printed["c"]),
                float(printed["k"]), float(printed["p_out"])) == (a, b, c, k, p_out)


def test_c02_zero_noise_identity():
    pts = unit_sphere_cloud(2048, seed=200)
    start = time.monotonic()
    ann = corrupt_cloud(pts, SENSOR, tier_params("none"), k=16, seed=99)
    elapsed = time.monotonic() - start
    assert_array_equal(ann.corrupted, pts)
    assert not ann.sigma.any()
    assert not ann.mu.any()
    assert not ann.outlier.any()
    assert elapsed < 1.0


def test_c03_sampler_statistics():
    light = tier_params("light")
    # fixed point at r = 2, normal incidence: sigma = 0.005, mu = 0
    sigma = point_sigma(2.0, 1.0, light)
    mu = bias_mu(1.0, light.k)
    assert sigma == 0.005 and mu == 0.0

    start = time.monotonic()
    n = 100_000
    rng = np.random.default_rng(201)
    # the Gaussian stage corrupt_cloud runs, on n copies of the point
    draws = perturb_points(np.zeros((n, 3)), SENSOR, sigma, mu, rng)[:, 1]
    elapsed = time.monotonic() - start

    assert draws.std() == pytest.approx(0.005, rel=0.02)
    assert abs(draws.mean()) <= 4.0 * 0.005 / np.sqrt(n)
    assert elapsed < 5.0


def test_c04_tier_monotonicity():
    start = time.monotonic()
    pts = unit_sphere_cloud(1024, seed=202)
    means = [corrupt_cloud(pts, SENSOR, tier_params(t), k=16, seed=7).mean_sigma()
             for t in ("light", "moderate", "heavy")]
    assert means[0] < means[1] < means[2]
    assert time.monotonic() - start < 5.0


def test_c05_outlier_rate_and_bbox():
    start = time.monotonic()
    rng = np.random.default_rng(203)
    pts = rng.uniform(-1.0, 1.0, (1_000_000, 3))
    bbox = bounding_box(pts)
    out, mask = inject_outliers(pts, 0.05, bbox,
                                np.random.Generator(np.random.Philox(key=203)))
    fraction = mask.mean()
    assert 0.048 <= fraction <= 0.052
    lo, hi = bbox
    replaced = out[mask]
    assert np.all(replaced >= lo) and np.all(replaced <= hi)
    assert time.monotonic() - start < 10.0


def test_c06_corrupt_determinism_across_workers(tmp_path):
    start = time.monotonic()
    manifest = write_benchmark_manifest(tmp_path, 100, 128, seed=204)
    args = ["corrupt", str(manifest), "moderate", "--seed", "11"]
    assert main(args[:3] + [str(tmp_path / "serial")] + args[3:] +
                ["--threads", "1"]) == 0
    assert main(args[:3] + [str(tmp_path / "parallel")] + args[3:] +
                ["--threads", str(os.cpu_count() or 4)]) == 0
    assert tree_digest(tmp_path / "serial") == tree_digest(tmp_path / "parallel")
    assert time.monotonic() - start < 30.0


def test_c07_ece_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(205)
    for trial in range(1000):
        n = int(rng.integers(1, 33))
        classes = int(rng.integers(2, 6))
        bins = 15 if trial % 2 else int(rng.integers(1, 21))
        rows = [(int(rng.integers(classes)), rng.dirichlet([1.0] * classes))
                for _ in range(n)]
        labels, probs = zip(*rows)
        records = Predictions([f"t{trial}_{i}" for i in range(n)], labels, probs)
        assert abs(ece(records, bins=bins) - ece_oracle(rows, bins)) <= 1e-12
    assert time.monotonic() - start < 5.0


def test_c08_calibrated_simulator_convergence():
    start = time.monotonic()
    rng = np.random.default_rng(206)
    n = 100_000
    q = rng.uniform(0.5, 1.0, n)
    correct = rng.random(n) < q
    records = Predictions([f"x{i}" for i in range(n)], np.where(correct, 0, 1),
                          np.column_stack([q, 1.0 - q]))
    assert ece(records, bins=15) <= 0.01
    assert time.monotonic() - start < 5.0


def test_c09_correlation_endpoints(tmp_path):
    confs = [0.95, 0.9, 0.8, 0.7, 0.6]
    records = Predictions([f"s{i}" for i in range(len(confs))], [0] * len(confs),
                          [(c, 1.0 - c) for c in confs])
    # predicted uncertainty exactly equals mean sigma
    sigma_up = {f"s{i}": 1.0 - c for i, c in enumerate(confs)}
    assert uncertainty_correlation(records, sigma_up) == pytest.approx(1.0, abs=1e-9)
    # negated construction
    sigma_down = {f"s{i}": c for i, c in enumerate(confs)}
    assert uncertainty_correlation(records, sigma_down) == pytest.approx(-1.0, abs=1e-9)
    # constant sigma: an explicit undefined marker, never a number
    sigma_const = {f"s{i}": 0.0 for i in range(len(confs))}
    with pytest.raises(ZeroVariance):
        uncertainty_correlation(records, sigma_const)
    report = evaluate(records, sigma_const)
    assert report.pearson_r is None
    from noisebench.metrics import write_report
    write_report(tmp_path, report)
    assert "pearson_r=undefined(zero_variance)" in \
        (tmp_path / "report.txt").read_text().splitlines()


def test_c10_stratification_oracle():
    start = time.monotonic()
    # pooled quartile assignment vs brute-force sort-and-split, exact match
    rng = np.random.default_rng(207)
    sigmas = rng.uniform(0.0, 0.05, 1000)
    _, assignment = quartile_bins(sigmas, groups=4)
    order = sorted(range(len(sigmas)), key=lambda i: sigmas[i])
    base, extra = divmod(len(sigmas), 4)
    expected = np.empty(len(sigmas), dtype=int)
    pos = 0
    for g in range(4):
        size = base + (1 if g < extra else 0)
        for i in order[pos:pos + size]:
            expected[i] = g
        pos += size
    assert_array_equal(assignment, expected)

    # two-tier block construction with hand-computed per-quartile gaps
    def block(prefix, sigma0, n_correct_of_4):
        records = Predictions([f"{prefix}{i}" for i in range(8)],
                              [0 if i % 4 < n_correct_of_4 else 1 for i in range(8)],
                              [(0.8, 0.2)] * 8)
        table = {f"{prefix}{i}": sigma0 + 0.001 * i for i in range(8)}
        return records, table

    tier_a = block("a", 0.001, 3)   # accuracy 3/4 in each quartile
    tier_b = block("b", 0.011, 1)   # accuracy 1/4 in each quartile
    rows = stratified_ece([tier_a, tier_b], quartiles=4, bins=15)
    g1 = abs(3.0 / 4.0 - 0.8)
    g2 = abs(1.0 / 4.0 - 0.8)
    assert [q.count for q in rows] == [4, 4, 4, 4]
    assert abs(rows[0].ece - g1) <= 1e-12
    assert abs(rows[1].ece - g1) <= 1e-12
    assert abs(rows[2].ece - g2) <= 1e-12
    assert abs(rows[3].ece - g2) <= 1e-12
    assert time.monotonic() - start < 5.0


def test_c11_self_consistency(tmp_path):
    manifest = write_benchmark_manifest(tmp_path, 6, 64, seed=208)
    assert main(["corrupt", str(manifest), "moderate", str(tmp_path / "out"),
                 "--seed", "13"]) == 0
    tier_dir = tmp_path / "out" / "moderate"

    # mean_sigma in summary.csv equals the mean of each annotated sigma column
    with open(tier_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        summary_rows = list(csv.DictReader(fh))
    assert len(summary_rows) == 6
    for row in summary_rows:
        cols = read_annotated(tier_dir / f"{row['sample_id']}.xyzn")
        assert abs(float(row["mean_sigma"]) - float(np.mean(cols.sigma))) <= 1e-12

    # report ece equals ece recomputed from the emitted curve.csv
    rng = np.random.default_rng(209)
    preds = tmp_path / "preds.csv"
    with open(preds, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "true_label", "p_0", "p_1", "p_2"])
        for row in summary_rows:
            p = rng.dirichlet([1.0, 1.0, 1.0])
            writer.writerow([row["sample_id"], row["label"]] +
                            [repr(float(v)) for v in p])
    assert main(["evaluate", str(preds), str(tier_dir / "summary.csv"),
                 "--bins", "12", "--out", str(tmp_path / "report")]) == 0

    fields = dict(line.split("=", 1) for line in
                  (tmp_path / "report" / "report.txt").read_text().splitlines())
    with open(tmp_path / "report" / "curve.csv", newline="", encoding="utf-8") as fh:
        curve_rows = list(csv.DictReader(fh))
    n = sum(int(r["count"]) for r in curve_rows)
    recomputed = sum(int(r["count"]) / n *
                     abs(float(r["mean_acc"]) - float(r["mean_conf"]))
                     for r in curve_rows)
    assert abs(recomputed - float(fields["ece"])) <= 1e-12


def test_c12_normal_estimation_sanity():
    start = time.monotonic()
    pts = unit_sphere_cloud(5000, seed=210)
    est = estimate_normals(pts, 16, SENSOR)
    cos = np.clip(np.abs(np.sum(est.vectors * pts, axis=1)), -1.0, 1.0)
    mean_err_deg = float(np.degrees(np.arccos(cos)).mean())
    assert mean_err_deg < 10.0

    g = np.linspace(-1.0, 1.0, 32)
    xx, yy = np.meshgrid(g, g)
    plane = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
    est = estimate_normals(plane, 16, sensor=(0.0, 0.0, 3.0))
    expected = np.zeros_like(plane)
    expected[:, 2] = 1.0
    assert_array_equal(est.vectors, expected)  # zero error up to sign
    assert time.monotonic() - start < 10.0
