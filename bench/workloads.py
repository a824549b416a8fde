"""Seeded inputs for the three benchmark workloads.

Each builder writes its input files under a work directory and returns a
Workload: the CLI calls that make up one pass, the number of work items one
pass handles (clean points or prediction rows), and the generated arrays the
output checks compare against. The same seed always gives the same files.

Tier parameters are the paper's published presets. They are written out
here rather than read from the program, so the checks do not trust the code
they check.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SENSOR = np.array([0.0, -2.0, 0.0])

# tier -> (a, b, c, k, p_out)
TIER_PARAMS = {
    "moderate": (0.005, 0.002, 2.0, 0.010, 0.02),
    "heavy": (0.010, 0.003, 3.0, 0.015, 0.05),
}

MODELNET_CLOUDS = 40      # one per label
MODELNET_POINTS = 1024
SCAN_CLOUDS = 2           # one grid plane, one sphere
SCAN_GRID = (128, 64)     # 8,192 points
NORMAL_K = 16             # corrupt's default PCA neighbourhood size
SCORE_TIERS = ("t0", "t1", "t2", "t3")
SCORE_SIGMA = (0.006, 0.012, 0.018, 0.030)   # median per-sample sigma per tier
# prediction rows per tier file: the 2,468 shapes of ModelNet40's test
# split (Wu et al. 2015), the split a corrupted tier is evaluated on
SCORE_ROWS = 2468
SCORE_CLASSES = 40
SCORE_BINS = 15
SCORE_QUARTILES = 4


@dataclass
class Workload:
    calls: list                 # argv lists for one pass, run in order
    items: int                  # clean points or prediction rows per pass
    unit: str                   # what `items` counts
    threads: int                # CPUs the pass runs on
    kernel: str                 # calibration kernel of the same kind of work
    out_dir: Path = None        # corrupt output tier directory
    # sample_id -> (label, clean points, y of the grid plane or None)
    clouds: dict = field(default_factory=dict)
    tier: str = ""
    score: list = field(default_factory=list)    # per tier: (ids, labels, probs, sigma)
    report_dirs: list = field(default_factory=list)


def _write_rows(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines), encoding="utf-8")


def _write_cloud(path, pts):
    _write_rows(path, [f"{x!r} {y!r} {z!r}\n" for x, y, z in pts.tolist()])


def _sphere(rng, n):
    pts = rng.standard_normal((n, 3))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _grid_plane(rng):
    """Axis-aligned grid in a y = const plane facing the sensor.

    Spacing and offsets are multiples of 2**-6, so every squared distance is
    exact in float64 and neighbour distances tie exactly, as in a real scan.
    """
    nx, nz = SCAN_GRID
    step = 2.0 ** -6
    x0, z0 = (rng.integers(-8, 9, size=2) - np.array([nx, nz]) / 2) * step
    y = float(rng.integers(0, 33)) * step
    gx, gz = np.meshgrid(np.arange(nx) * step + x0, np.arange(nz) * step + z0,
                         indexing="ij")
    return np.column_stack([gx.ravel(), np.full(nx * nz, y), gz.ravel()])


def _corrupt_workload(prefix, root, tier, clouds, threads):
    manifest = root / "manifest.csv"
    lines = ["sample_id,label,path\n"]
    table = {}
    for i, (label, pts, plane_y) in enumerate(clouds):
        sid = f"{prefix}{i:04d}"
        _write_cloud(root / "clouds" / f"{sid}.xyz", pts)
        lines.append(f"{sid},{label},clouds/{sid}.xyz\n")
        table[sid] = (label, pts, plane_y)
    _write_rows(manifest, lines)
    out = root / "out"
    return Workload(
        calls=[["corrupt", str(manifest), tier, str(out), "--threads", str(threads),
                "--normal-k", str(NORMAL_K)]],
        items=sum(len(p) for _, p, _ in clouds), unit="points", threads=threads, kernel="knn",
        out_dir=out / tier, clouds=table, tier=tier)


def corrupt_modelnet(root, rng, threads):
    clouds = [(i % 40, _sphere(rng, MODELNET_POINTS), None) for i in range(MODELNET_CLOUDS)]
    return _corrupt_workload("mn", root, "moderate", clouds, threads)


def corrupt_scan(root, rng, threads):
    clouds = []
    for i in range(SCAN_CLOUDS):
        if i % 2 == 0:
            pts = _grid_plane(rng)
            clouds.append((i % 40, pts, float(pts[0, 1])))
        else:
            clouds.append((i % 40, _sphere(rng, int(np.prod(SCAN_GRID))), None))
    return _corrupt_workload("sc", root, "heavy", clouds, threads)


def _softmax_rows(rng, labels, sigma):
    """Class probabilities whose confidence in the true label falls as sigma rises."""
    n = len(labels)
    logits = rng.standard_normal((n, SCORE_CLASSES))
    logits[np.arange(n), labels] += 7.0 * np.exp(-sigma / 0.015)
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=1, keepdims=True)


def score(root, rng, threads):
    del threads  # scoring runs on one CPU
    ids = [f"m{i:05d}" for i in range(SCORE_ROWS)]
    tiers, calls, dirs = [], [], []
    preds, sigmas = [], []
    for tier, scale in zip(SCORE_TIERS, SCORE_SIGMA):
        labels = rng.integers(0, SCORE_CLASSES, size=SCORE_ROWS)
        # 4 decimals, so pooled sigmas tie and stratify's tie order is checked
        sigma = np.round(scale * rng.lognormal(0.0, 0.35, size=SCORE_ROWS), 4)
        probs = _softmax_rows(rng, labels, sigma)
        mu = sigma * rng.uniform(0.2, 0.6, size=SCORE_ROWS)
        outliers = rng.binomial(MODELNET_POINTS, 0.02, size=SCORE_ROWS)
        pred_path = root / f"preds_{tier}.csv"
        sigma_path = root / f"sigma_{tier}.csv"
        header = "sample_id,true_label," + ",".join(
            f"p_{c}" for c in range(SCORE_CLASSES)) + "\n"
        _write_rows(pred_path, [header] + [
            f"{sid},{lab}," + ",".join(map(repr, row)) + "\n"
            for sid, lab, row in zip(ids, labels.tolist(), probs.tolist())])
        _write_rows(sigma_path, ["sample_id,label,mean_sigma,mean_mu,outlier_count\n"] + [
            f"{sid},{lab},{s!r},{m!r},{o}\n" for sid, lab, s, m, o in
            zip(ids, labels.tolist(), sigma.tolist(), mu.tolist(), outliers.tolist())])
        report = root / f"report_{tier}"
        calls.append(["evaluate", str(pred_path), str(sigma_path),
                      "--bins", str(SCORE_BINS), "--out", str(report)])
        tiers.append((ids, labels, probs, sigma))
        preds.append(str(pred_path))
        sigmas.append(str(sigma_path))
        dirs.append(report)
    calls.append(["stratify", "--preds", *preds, "--sigmas", *sigmas,
                  "--quartiles", str(SCORE_QUARTILES), "--bins", str(SCORE_BINS)])
    # every call reads its prediction files once: 4 evaluates + 1 stratify
    return Workload(calls=calls, items=2 * SCORE_ROWS * len(SCORE_TIERS),
                    unit="records", threads=1, kernel="parse", score=tiers,
                    report_dirs=dirs)


BUILDERS = {
    "corrupt_modelnet": corrupt_modelnet,
    "corrupt_scan": corrupt_scan,
    "score": score,
}


def build(name, root, seed, threads):
    """Write the inputs of workload `name` for `seed` under `root`."""
    index = list(BUILDERS).index(name)
    rng = np.random.default_rng([int(seed), index])
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](root, rng, threads)
