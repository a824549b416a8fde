"""Child process of the benchmark: runs the CLI passes of one workload.

Usage: python3 bench/worker.py PLAN.json RESULT.json

PLAN.json names the package source directory, the argv lists of one pass,
the CPUs to run on, the calibration kernel, the seconds to measure, whether
to trace, and the output directory to digest after each pass. The worker
imports noisebench, runs one warm-up pass, then timed passes until the
seconds are used (with tracing, half untraced and half traced). After each
pass it times the calibration kernel on the same CPUs. It writes each
pass's per-call wall times, exit codes, captured stdout, output digest and
calibration time, its own import time and peak resident memory, and the
recorded spans to RESULT.json.

It is a fresh process, so its peak memory is that of one workload.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import resource
import sys
import threading
import time
from pathlib import Path


def tree_digest(root):
    """SHA-256 over every file (relative path + bytes) under root, or None."""
    if root is None:
        return None
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def calibration_kernel(kind, threads):
    """Fixed work of the workload's kind, run with the workload's parallelism.

    The host's speed drifts by tens of percent over seconds to minutes, and
    the drift moves this kernel and the program together. "parse" is CSV
    float parsing on one CPU (score); "knn" is brute-force kNN work in
    `threads` threads that release the GIL (corrupt): each thread takes
    squared distances from 256 points of a fixed 8,192-point cloud to the
    whole cloud, 16 rows at a time, and stable-argsorts them. The work never
    depends on the workload seed or on noisebench.
    """
    import numpy as np

    # inputs are rebuilt on every call, in small blocks, so the kernel adds
    # nothing to the peak memory of the program
    def parse():
        rng = random.Random(0)
        text = "\n".join(",".join(repr(rng.random()) for _ in range(40))
                         for _ in range(3000))
        for row in csv.reader(io.StringIO(text)):
            [float(x) for x in row]

    def knn_rows(seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((8192, 3))
        sq = np.einsum("ij,ij->i", pts, pts)
        for start in range(0, 256, 16):
            d2 = sq[start:start + 16, None] + sq[None, :] - 2.0 * (pts[start:start + 16] @ pts.T)
            np.argsort(d2, axis=1, kind="stable")

    def knn():
        workers = [threading.Thread(target=knn_rows, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    return parse if kind == "parse" else knn


def run_pass(cli, calls, digest_dir, kernel):
    walls, rcs, outs = [], [], []
    for argv in calls:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        walls.append(time.perf_counter() - start)
        rcs.append(rc)
        outs.append(buf.getvalue())
    start = time.perf_counter()
    kernel()
    cal_s = time.perf_counter() - start
    return {"walls": walls, "rcs": rcs, "stdout": outs, "cal_s": cal_s,
            "digest": tree_digest(digest_dir)}


def timed_passes(run, seconds):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run())
    return passes


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    # pass and calibration share these CPUs; pool threads inherit the mask
    os.sched_setaffinity(0, plan["cpus"])
    src = Path(plan["src"])
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    from noisebench import cli
    import_s = time.perf_counter() - start
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported noisebench from {cli.__file__}, not {src}")

    kernel = calibration_kernel(plan["kernel"], len(plan["cpus"]))

    def run():
        return run_pass(cli, plan["calls"], plan["digest_dir"], kernel)

    result = {"import_s": import_s, "warmup": run(), "spans": [], "traced": []}
    if plan["trace"]:
        # imported after noisebench so that import_s is not missing numpy's import
        from tracer import Tracer, installed

        result["passes"] = timed_passes(run, plan["seconds"] / 2)
        tracer = Tracer()
        with installed(tracer):
            result["traced"] = timed_passes(run, plan["seconds"] / 2)
        result["spans"] = tracer.spans
    else:
        result["passes"] = timed_passes(run, plan["seconds"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
