"""noisebench benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the repository root:

    python3 bench/run.py --workload corrupt_modelnet --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): corrupt_modelnet, corrupt_scan, score. The
inputs are generated from --seed under .bench_work/ and removed at the end.
A child process (worker.py) imports noisebench from src/, runs one warm-up
pass and then timed passes through noisebench.cli.main for --seconds, each
followed by a fixed calibration kernel on the same CPUs. The outputs are
then checked against references computed here.

--trace 0 reports the end-to-end metrics:
  throughput_per_cal  median over passes of work items per calibration
                      time: items / pass wall time * kernel wall time, the
                      kernel timed just before and after the pass. Items are
                      clean points corrupted and written (corrupt_*), or
                      prediction rows read and scored by evaluate + stratify
                      (score). The uncalibrated items per second are printed
                      as corrupt_points_per_s / score_records_per_s.
  setup_s             median wall time of fresh interpreters importing
                      noisebench and finishing `noisebench params moderate`,
                      calibrated: each run is scaled by SETUP_REF_S over the
                      time of a fresh interpreter importing numpy, run just
                      before and after it on the same CPU
  peak_rss_mb         peak resident memory of the child process
--trace 1 runs half the time untraced and half traced, and reports each
layer's self time and calls per traced pass (tracer.py).

error_rate is failed / attempted operations, the `failed` and `attempted`
fields of the result. The last stdout line is the result as JSON; the exit
code is 1 when an output check fails.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
SETUP_RUNS = 15
# setup_s calibration kernel, and its median wall time on a 2-vCPU Intel
# Xeon VM (2.1 GHz): setup_s is in seconds of that machine at that speed
SETUP_KERNEL = "import numpy"
SETUP_REF_S = 0.17
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); from noisebench.cli import main; "
              "sys.exit(main(['params', 'moderate']))")


def _run_child(wl, seconds, trace, work):
    cpus = sorted(os.sched_getaffinity(0))[:wl.threads]
    plan = {"src": str(SRC), "calls": wl.calls, "cpus": cpus, "kernel": wl.kernel,
            "seconds": seconds, "trace": trace,
            "digest_dir": str(wl.out_dir) if wl.out_dir else None}
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path),
         str(result_path)], cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _timed_python(code):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    return time.perf_counter() - start, proc


def _setup_times():
    """Calibrated setup times, raw setup and kernel times, and how many runs printed wrong values.

    Setup runs alternate with a fresh interpreter that only imports numpy,
    all pinned to one CPU. Each setup time is scaled by SETUP_REF_S over the
    mean of the kernel runs just before and after it.
    """
    a, b, c, k, p_out = workloads.TIER_PARAMS["moderate"]
    expected = {"a": a, "b": b, "c": c, "k": k, "p_out": p_out}
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # the interpreters inherit the mask
    try:
        setup, kernel, failed = [], [], 0
        for i in range(SETUP_RUNS + 1):  # the first run compiles bytecode; not timed
            elapsed, proc = _timed_python(SETUP_CODE)
            try:
                printed = {key: float(val) for key, val in
                           (line.split("=", 1) for line in proc.stdout.splitlines())}
            except ValueError:
                printed = None
            if proc.returncode != 0 or printed != expected:
                failed += 1
            if i:
                setup.append(elapsed)
            kernel.append(_timed_python(SETUP_KERNEL)[0])
    finally:
        os.sched_setaffinity(0, cpus)
    calibrated = [SETUP_REF_S * t / ((k0 + k1) / 2)
                  for t, k0, k1 in zip(setup, kernel, kernel[1:])]
    return calibrated, setup, kernel, failed


def _env():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = "absent"
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha}


def measure(name, seed, seconds, trace, work):
    """Run one workload; returns (result dict, human-readable lines)."""
    wl = workloads.build(name, work / "in", seed, len(os.sched_getaffinity(0)))
    child = _run_child(wl, seconds, trace, work)
    passes = [child["warmup"], *child["passes"], *child["traced"]]
    if wl.out_dir:
        attempted, failed, problems = checks.check_corrupt(wl, passes)
    else:
        attempted, failed, problems = checks.check_score(
            wl, passes, workloads.SCORE_BINS, workloads.SCORE_QUARTILES)

    walls = [sum(p["walls"]) for p in child["passes"]]
    # a pass is calibrated by the kernel runs just before and just after it
    kernel = [p["cal_s"] for p in [child["warmup"], *child["passes"]]]
    cals = [(a + b) / 2 for a, b in zip(kernel, kernel[1:])]
    rates = [wl.items / w for w in walls]
    per_cal = [wl.items * c / w for w, c in zip(walls, cals)]
    label = f"{'corrupt_points' if wl.out_dir else 'score_records'}_per_s"
    lines = [f"workload={name} seed={seed} passes={len(walls)} items_per_pass={wl.items} "
             f"unit={wl.unit} threads={wl.threads} kernel={wl.kernel}",
             f"{label}={statistics.median(rates)!r} {wl.unit}/s "
             f"(min {min(rates):.1f}, max {max(rates):.1f})",
             "pass_s=" + ",".join(f"{w:.3f}" for w in walls),
             "cal_s=" + ",".join(f"{c:.4f}" for c in kernel)]
    info = {"env": _env(), "output_sha256": passes[-1]["digest"]}

    if trace:
        traced = [sum(p["walls"]) for p in child["traced"]]
        metrics, tail = layer_metrics(child["spans"], len(traced), wl.threads)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        metrics["cli.import_s"] = child["import_s"]
        metrics["cli.items_per_s"] = statistics.median(rates)
        total = metrics["trace.total_self_s"]
        lines.append(f"traced_passes={len(traced)} sample_ms_tail={tail}")
        for key in sorted((k for k in metrics if k.endswith(".self_s")),
                          key=lambda k: -metrics[k]):
            if metrics[key]:
                calls = metrics[key[:-len('self_s')] + 'calls']
                lines.append(f"{key}={metrics[key]:.6f} s share={metrics[key] / total:.4f} "
                             f"calls={calls:g}")
        reported = metrics
    else:
        setup, setup_raw, setup_kernel, setup_failed = _setup_times()
        attempted += SETUP_RUNS + 1
        failed += setup_failed
        if setup_failed:
            problems["setup"] = f"{setup_failed} `params moderate` runs printed wrong values"
        reported = {"throughput_per_cal": statistics.median(per_cal),
                    "setup_s": statistics.median(setup),
                    "peak_rss_mb": child["peak_rss_kb"] / 1024.0}
        lines += ["setup_s=" + ",".join(f"{t:.4f}" for t in setup),
                  "setup_raw_s=" + ",".join(f"{t:.4f}" for t in setup_raw),
                  "setup_kernel_s=" + ",".join(f"{t:.4f}" for t in setup_kernel)]
    lines.append(f"error_rate={failed / attempted!r} ({failed} of {attempted} operations)")
    lines += [f"problem {key}: {msg}" for key, msg in sorted(problems.items())]
    lines.append("info " + json.dumps(info, sort_keys=True))
    # BENCHMARK.json names every metric and its unit; a missing one is a KeyError
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if trace else "end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "noisebench" / "cli.py").is_file():
        print(f"error: no noisebench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks read files with noisebench's reader
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
