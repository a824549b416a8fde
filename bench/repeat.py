"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 bench/repeat.py --seeds 1-10 [--workloads score ...] [--trace 1]
                            [--out runs.json]

For every workload (default: all in BENCHMARK.json) and seed it runs the
benchmark command once, then prints per metric the median, the quartiles
from statistics.quantiles(values, n=4), and the spread (Q3 - Q1) / median
next to the metric's bound. The spread is null when the median is not
positive. --out merges the summaries into a JSON file under "trace0" or
"trace1", keyed by workload; bench/baseline.json is one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _fmt(spread):
    return "n/a" if spread is None else f"{spread:.4f}"


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median > 0 else None, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {}
    status = 0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
            result.update(seed=seed, **info)
            results.append(result)
            print(f"{workload} seed {seed}: {lines[1]}\n  correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == 0), flush=True)
        if len(results) < 2:
            continue
        runs[workload] = {
            "env": results[0]["env"],
            "seeds": [r["seed"] for r in results],
            "output_sha256": [r["output_sha256"] for r in results],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "summary": {},
        }
        for metric in results[0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            runs[workload]["summary"][metric] = stats
            bound = bounds.get(metric)
            if args.trace == 0:
                print(f"  {metric}: median={stats['median']:.6g} q1={stats['q1']:.6g} "
                      f"q3={stats['q3']:.6g} spread={_fmt(stats['spread'])} bound={bound}")
    if args.out:
        saved = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        saved.setdefault(f"trace{args.trace}", {}).update(runs)
        args.out.write_text(json.dumps(saved, indent=1, sort_keys=True, allow_nan=False) + "\n",
                            encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
