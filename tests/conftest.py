"""Shared test helpers and oracles, the report header and the
acceptance-criteria summary hook."""

import csv
import ctypes
import functools
import hashlib
from pathlib import Path

import numpy as np

from noisebench import write_cloud


def unit_sphere_cloud(n, seed):
    """n points uniformly distributed on the unit sphere."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts


def write_benchmark_manifest(root, n_samples, n_points, seed, labels=3):
    """Write clean sphere clouds plus a manifest CSV; returns the manifest path."""
    root = Path(root)
    (root / "clouds").mkdir(parents=True, exist_ok=True)
    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "label", "path"])
        for i in range(n_samples):
            sid = f"s{i:04d}"
            write_cloud(root / "clouds" / f"{sid}.xyz",
                        unit_sphere_cloud(n_points, seed + i))
            writer.writerow([sid, i % labels, f"clouds/{sid}.xyz"])
    return manifest


def tree_digest(root):
    """SHA-256 over every file (relative path + bytes) under root."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def brute_force_knn(pts, k):
    """Exhaustive kNN search, kept as the reference.

    Full distance rows and k rounds of argmin, each pick then set to +inf:
    argmin returns the first minimum, so exact ties go to the lower index
    with no sort (the grid search selects, then sorts stably). d^2 is the
    same per-pair expansion as the grid search's, not a.b from BLAS, whose
    rounding depends on the call's shape. Several tests search the same
    large clouds, so each answer is computed once per test run, keyed on
    the cloud's float64 bytes, shape and k, and returned read-only.
    """
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    return _brute_force_knn(pts.tobytes(), pts.shape, k)


@functools.cache
def _brute_force_knn(data, shape, k):
    pts = np.frombuffer(data).reshape(shape)
    n = len(pts)
    x, y, z = pts.T
    sq = x * x + y * y + z * z
    out = np.empty((n, k), dtype=np.intp)
    # 32 rows of distances stay in cache through the k argmin passes
    for start in range(0, n, 32):
        stop = min(start + 32, n)
        dot = (x[start:stop, None] * x + y[start:stop, None] * y
               + z[start:stop, None] * z)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * dot
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(stop - start)
        d2[rows, np.arange(start, stop)] = np.inf
        for j in range(k):
            out[start:stop, j] = pick = d2.argmin(axis=1)
            d2[rows, pick] = np.inf
    out.flags.writeable = False
    return out


def ece_oracle(rows, bins):
    """Independent direct-summation ECE: interval tests and plain sums.

    rows are (true_label, probs); confidence is the row max and the
    prediction its first argmax.
    """
    scored = [(max(probs), list(probs).index(max(probs)) == label)
              for label, probs in rows]
    n = len(scored)
    total = 0.0
    for i in range(bins):
        lo, hi = i / bins, (i + 1) / bins
        members = [(c, ok) for c, ok in scored
                   if (lo < c <= hi) or (i == 0 and c <= hi)]
        if not members:
            continue
        conf = sum(c for c, _ in members) / len(members)
        acc = sum(1.0 for _, ok in members if ok) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


def _openblas_core():
    """The kernel numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _blas_line():
    # no output byte goes through BLAS, so the golden digests hold under
    # every kernel (test_cli forces each in turn); every log still names the
    # kernel its run used, so a digest that moves with it shows where
    return f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}"


def pytest_report_header(config):
    return _blas_line()


# --- acceptance summary: one pass/fail line per criterion ------------------

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.failed):
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, config):
    if config.getoption("verbose") < 0:  # -q hides the report header
        terminalreporter.write_line(_blas_line())
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        status = "PASS" if _acceptance_outcomes[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {status}")
