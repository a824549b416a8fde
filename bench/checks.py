"""Output checks for the benchmark workloads.

Each check returns (attempted, failed, problems). Corrupt workloads count
one operation per sample per pass; score counts one per CLI call. A pass
whose call exits non-zero, prints numbers that disagree with the reference
or leaves a different output tree than the last pass fails whole.
"""

import csv
import math

import numpy as np

from workloads import NORMAL_K, SENSOR, TIER_PARAMS, Workload

MU_RTOL = 1e-9
COS_TOL = 1e-9
PRINT_TOL = 1e-9
KNN_CHUNK = 128


def _printed(text):
    """key=value tokens of every printed line, one dict per line."""
    return [dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
            for line in text.splitlines()]


def _close(text, ref, tol=PRINT_TOL):
    try:
        return abs(float(text) - ref) <= tol * max(1.0, abs(ref))
    except (TypeError, ValueError):
        return False


# -- corrupt ------------------------------------------------------------------

def reference_cos(clean, k=NORMAL_K):
    """Incidence cosines from a brute-force kNN + PCA reference.

    Neighbours are the k nearest by squared distance, taken from coordinate
    differences, ties to the lower index (stable sort). The normal is the
    eigenvector of the smallest eigenvalue of the neighbourhood covariance;
    a neighbourhood whose two smallest eigenvalues are equal at relative
    tolerance 1e-9 falls back to the normal facing the sensor (cos = 1).
    Returns (cos, checkable): checkable is False where the eigenvector or
    the fallback decision is too ill-conditioned to compare at COS_TOL.
    """
    n = len(clean)
    nbrs = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, KNN_CHUNK):
        block = clean[start:start + KNN_CHUNK]
        d2 = np.zeros((len(block), n))
        for axis in range(3):
            d2 += (block[:, axis, None] - clean[None, :, axis]) ** 2
        d2[np.arange(len(block)), np.arange(start, start + len(block))] = np.inf
        # the k + 1 smallest, ordered by (distance, index); a row whose k-th
        # distance ties beyond them is sorted whole
        part = np.argpartition(d2, k, axis=1)[:, :k + 1]
        dist = np.take_along_axis(d2, part, axis=1)
        part = np.take_along_axis(part, np.lexsort((part, dist)), axis=1)[:, :k]
        kth = np.take_along_axis(d2, part[:, -1:], axis=1)
        tied = np.count_nonzero(d2 <= kth, axis=1) > k
        if tied.any():
            part[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        nbrs[start:start + len(block)] = part
    nbhd = clean[nbrs]
    centered = nbhd - nbhd.mean(axis=1, keepdims=True)
    evals, evecs = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered) / k)
    gap = (evals[:, 1] - evals[:, 0]) / np.maximum(evals[:, 2], 1e-300)
    rays = clean - SENSOR
    cos = np.abs(np.sum(rays * evecs[:, :, 0], axis=1)) / np.linalg.norm(rays, axis=1)
    cos = np.where(gap <= 1e-9, 1.0, np.minimum(cos, 1.0))
    return cos, (gap > 1e-6) | (gap <= 1e-12)


def _check_sample(clean, plane_y, cols, params):
    """First broken property of one annotated cloud, or None."""
    a, b, c, k, _ = params
    if cols.points.shape != clean.shape:
        return f"{len(cols.points)} points, clean cloud has {len(clean)}"
    r = np.linalg.norm(clean - SENSOR, axis=1)
    one_minus_cos = (cols.sigma / (a + b * r) - 1.0) / c
    if np.any(one_minus_cos < -1e-12) or np.any(one_minus_cos > 1.0 + 1e-12):
        return "sigma implies cos(theta) outside [0, 1]"
    if not np.allclose(cols.mu, k * one_minus_cos, rtol=MU_RTOL, atol=1e-12 * k):
        return "mu != k(1 - cos(theta)) for the cos(theta) sigma implies"
    if plane_y is not None:
        # every neighbourhood of a y = const grid lies in the plane: normal +-y
        ref, checkable = np.abs(plane_y - SENSOR[1]) / r, np.ones(len(r), dtype=bool)
    else:
        ref, checkable = reference_cos(clean)
    off = np.abs(1.0 - one_minus_cos - ref)[checkable]
    if np.any(off > COS_TOL):
        return (f"cos(theta) sigma implies is off the {'plane' if plane_y is not None else 'kNN+PCA'}"
                f" reference by up to {off.max():.3g}")
    keep = ~cols.outlier
    unit = (clean - SENSOR) / r[:, None]
    moved = cols.points - clean
    along = np.sum(moved * unit, axis=1)
    across = np.linalg.norm(moved - along[:, None] * unit, axis=1)
    if np.any(across[keep] > 1e-12 * (1.0 + r[keep])):
        return "a non-outlier point left its sensor ray"
    if np.any(np.abs(along - cols.mu)[keep] > 10.0 * cols.sigma[keep]):
        return "a non-outlier displacement is beyond 10 sigma of mu"
    outliers = cols.points[cols.outlier]
    if np.any(outliers < clean.min(axis=0)) or np.any(outliers > clean.max(axis=0)):
        return "an outlier lies outside the clean bounding box"
    return None


def _check_tree(wl: Workload):
    """sample_id -> problem for every sample of the output tree that is wrong."""
    from noisebench.pipeline import read_annotated

    problems = {}
    summary = {}
    try:
        with open(wl.out_dir / "summary.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["sample_id", "label", "mean_sigma", "mean_mu", "outlier_count"]:
            raise ValueError(f"bad header {rows[0]}")
        summary = {row[0]: row for row in rows[1:]}
        if [row[0] for row in rows[1:]] != sorted(wl.clouds):
            problems["summary.csv"] = "sample ids differ from the manifest"
    except (OSError, IndexError, ValueError) as exc:
        problems["summary.csv"] = f"unreadable: {exc}"

    for sid, (label, clean, plane_y) in wl.clouds.items():
        try:
            cols = read_annotated(wl.out_dir / f"{sid}.xyzn")
        except Exception as exc:  # any parse failure is this sample's failure
            problems[sid] = f"read_annotated failed: {exc}"
            continue
        problem = _check_sample(clean, plane_y, cols, TIER_PARAMS[wl.tier])
        row = summary.get(sid)
        if problem is None and (
                row is None or int(row[1]) != label
                or not math.isclose(float(row[2]), float(np.mean(cols.sigma)), rel_tol=1e-12)
                or not math.isclose(float(row[3]), float(np.mean(cols.mu)), rel_tol=1e-12,
                                    abs_tol=1e-300)
                or int(row[4]) != int(cols.outlier.sum())):
            problem = "summary.csv row disagrees with the file"
        if problem:
            problems[sid] = problem
    return problems, summary


def check_corrupt(wl, passes):
    problems, summary = _check_tree(wl)
    means = [float(row[2]) for row in summary.values()]
    final = passes[-1]["digest"]
    n = len(wl.clouds)
    attempted = failed = 0
    for p in passes:
        attempted += n
        lines = _printed(p["stdout"][0])
        head = lines[0] if lines else {}
        ok = (p["rcs"] == [0] and p["digest"] == final
              and head.get("tier") == wl.tier and head.get("samples") == str(n)
              and head.get("failures") == "0" and bool(means)
              and _close(head.get("mean_sigma"), float(np.mean(means)), 1e-12))
        if not ok:
            problems.setdefault("cli", f"corrupt printed {p['stdout'][0]!r}, exit {p['rcs']}")
        broken = [s for s in problems if s in wl.clouds]
        failed += len(broken) if ok and "summary.csv" not in problems else n
    return attempted, failed, problems


# -- score --------------------------------------------------------------------

def _ece(conf, correct, bins):
    """ECE over right-closed bins (i/M, (i+1)/M], bin 0 also holding 0."""
    edges = np.arange(1, bins) / bins
    idx = np.searchsorted(edges, conf, side="left")
    counts = np.bincount(idx, minlength=bins)
    gap = np.abs(np.bincount(idx, correct, bins) - np.bincount(idx, conf, bins))
    return float(gap.sum() / len(conf)), counts, idx


def _pearson(x, y):
    xc, yc = x - x.mean(), y - y.mean()
    return float(xc @ yc / math.sqrt(float(xc @ xc) * float(yc @ yc)))


def score_reference(wl, bins, quartiles):
    """Per-tier evaluate values and pooled stratified rows from the generated arrays."""
    tiers = []
    pooled = []
    for ids, labels, probs, sigma in wl.score:
        conf = probs.max(axis=1)
        correct = (probs.argmax(axis=1) == labels).astype(np.float64)
        ece, counts, idx = _ece(conf, correct, bins)
        curve = [(counts[i], conf[idx == i].mean() if counts[i] else 0.0,
                  correct[idx == i].mean() if counts[i] else 0.0) for i in range(bins)]
        tiers.append({"accuracy": float(correct.mean()), "ece": ece,
                      "pearson_r": _pearson(sigma, 1.0 - conf), "n": len(ids), "curve": curve})
        pooled.append((sigma, np.array(ids), conf, correct))

    sigma, ids, conf, correct = (np.concatenate(cols) for cols in zip(*pooled))
    order = np.lexsort((np.arange(len(sigma)), ids, sigma))
    base, extra = divmod(len(order), quartiles)
    rows, pos = [], 0
    for q in range(quartiles):
        members = order[pos:pos + base + (q < extra)]
        pos += len(members)
        rows.append((q, sigma[members[0]], sigma[members[-1]], len(members),
                     _ece(conf[members], correct[members], bins)[0]))
    return tiers, rows


def _evaluate_ok(text, ref, bins):
    got = {k: v for line in _printed(text) for k, v in line.items()}
    return (all(_close(got.get(key), ref[key]) for key in ("accuracy", "ece", "pearson_r"))
            and got.get("n") == str(ref["n"]) and got.get("bins") == str(bins))


def _stratify_ok(text, rows):
    lines = [d for d in _printed(text) if "quartile" in d]
    return len(lines) == len(rows) and all(
        d["quartile"] == str(q) and _close(d.get("sigma_lo"), lo) and _close(d.get("sigma_hi"), hi)
        and d.get("count") == str(count) and _close(d.get("ece"), ece)
        for d, (q, lo, hi, count, ece) in zip(lines, rows))


def _report_ok(report_dir, ref, bins):
    try:
        text = (report_dir / "report.txt").read_text(encoding="utf-8")
        with open(report_dir / "curve.csv", encoding="utf-8", newline="") as fh:
            curve = list(csv.reader(fh))[1:]
    except OSError:
        return False
    return _evaluate_ok(text, ref, bins) and len(curve) == bins and all(
        int(row[2]) == count and _close(row[3], conf) and _close(row[4], acc)
        for row, (count, conf, acc) in zip(curve, ref["curve"]))


def check_score(wl, passes, bins, quartiles):
    tiers, rows = score_reference(wl, bins, quartiles)
    problems = {}
    attempted = failed = 0
    for p in passes:
        for i, (rc, text) in enumerate(zip(p["rcs"], p["stdout"])):
            attempted += 1
            ok = rc == 0 and (_evaluate_ok(text, tiers[i], bins) if i < len(tiers)
                              else _stratify_ok(text, rows))
            if not ok:
                failed += 1
                problems[f"call {i}"] = f"exit {rc}, printed {text!r}"
    # report files hold what the last pass wrote
    for i, (report_dir, ref) in enumerate(zip(wl.report_dirs, tiers)):
        if not _report_ok(report_dir, ref, bins):
            failed += 1
            problems[f"report {i}"] = f"{report_dir} disagrees with the reference"
    return attempted, failed, problems
