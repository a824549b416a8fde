"""Command-line interface.

Subcommands:
  corrupt    generate a corrupted benchmark tree from a manifest
  evaluate   score a predictions file against a sigma summary
  stratify   pooled sigma-stratified calibration error across tiers
  params     print a tier's noise parameters

Exit codes: 0 success, 1 data or runtime failure, 2 usage error.
"""

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .errors import NoiseBenchError, UnknownTier
from .tiers import (DEFAULT_BINS, DEFAULT_NORMAL_K, DEFAULT_QUARTILES, DEFAULT_SENSOR,
                    TIER_NAMES, tier_params)


def _parse_sensor(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sensor coordinate in {text!r}") from None


def _parse_scale(text):
    try:
        scale = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad scale {text!r}") from None
    if not (math.isfinite(scale) and scale > 0.0):
        raise argparse.ArgumentTypeError(f"scale must be finite and > 0, got {text!r}")
    return scale


def _parse_count(text):
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return count


def build_parser():
    parser = argparse.ArgumentParser(
        prog="noisebench",
        description="Point cloud corruption benchmark and calibration scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="corrupt a manifest of clean clouds")
    p.add_argument("manifest", help="manifest CSV (sample_id,label,path)")
    p.add_argument("tier", help="preset tier name or path to a key=value "
                                "tier config file")
    p.add_argument("out_dir", help="output root; files go to out_dir/<tier>/")
    p.add_argument("--seed", type=int, default=None,
                   help="global seed (default 0, or the config file's)")
    p.add_argument("--normal-k", type=int, default=None,
                   help=f"normal estimation neighborhood size (default {DEFAULT_NORMAL_K})")
    p.add_argument("--sensor", type=_parse_sensor, default=None, metavar="X,Y,Z",
                   help="sensor position (default "
                        f"{','.join(f'{v:g}' for v in DEFAULT_SENSOR)})")
    p.add_argument("--scale", type=_parse_scale, default=None,
                   help="uniform coordinate scale applied before corruption")
    p.add_argument("--threads", type=_parse_count, default=None,
                   help="worker process cap; samples are read, corrupted and "
                        "written in parallel (default: usable CPUs, at most 32)")
    p.add_argument("--keep-going", action="store_true",
                   help="continue past failing samples and report them")

    p = sub.add_parser("evaluate", help="score predictions against a sigma summary")
    p.add_argument("predictions", help="predictions CSV")
    p.add_argument("sigma_summary", help="sigma summary CSV from corrupt")
    p.add_argument("--bins", type=_parse_count, default=DEFAULT_BINS,
                   help="calibration bin count (default %(default)s)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write report.txt and curve.csv to DIR")

    p = sub.add_parser("stratify", help="sigma-stratified ECE pooled over tiers")
    p.add_argument("--preds", nargs="+", required=True, metavar="CSV",
                   help="prediction CSVs, one per tier")
    p.add_argument("--sigmas", nargs="+", required=True, metavar="CSV",
                   help="sigma summary CSVs, matching --preds order")
    p.add_argument("--quartiles", type=_parse_count, default=DEFAULT_QUARTILES,
                   help="number of rank groups (default %(default)s)")
    p.add_argument("--bins", type=_parse_count, default=DEFAULT_BINS,
                   help="calibration bin count (default %(default)s)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write stratified.csv to DIR")

    p = sub.add_parser("params", help="print a preset tier's parameters")
    p.add_argument("tier", help="tier name: " + ", ".join(TIER_NAMES))

    return parser


class _UsageError(Exception):
    """A command line naming no tier or file, or asking for invalid settings."""


def _resolve_tier(args):
    """Preset name, or a config file path when the name matches no preset,
    with the command-line overrides applied; _UsageError when neither
    matches or an override fails TierConfig validation."""
    # os.path.isfile is False, where Path.is_file raises, for a name too long
    if args.tier not in TIER_NAMES and not os.path.isfile(args.tier):
        raise _UsageError(f"{args.tier!r} is neither a preset tier "
                          f"({', '.join(TIER_NAMES)}) nor a config file")
    from . import pipeline

    config = (pipeline.preset_config(args.tier) if args.tier in TIER_NAMES
              else pipeline.read_tier_config(args.tier))
    overrides = {"global_seed": args.seed, "normal_k": args.normal_k,
                 "sensor": args.sensor}
    try:
        return dataclasses.replace(
            config, **{key: val for key, val in overrides.items() if val is not None})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_corrupt(args):
    config = _resolve_tier(args)
    from . import pipeline

    manifest = pipeline.read_manifest(args.manifest)
    summary = pipeline.generate_benchmark(
        manifest, config, args.out_dir, threads=args.threads,
        keep_going=args.keep_going, scale=args.scale,
    )
    print(f"tier={summary.tier} samples={summary.sample_count} "
          f"failures={summary.failure_count} mean_sigma={summary.mean_sigma!r}")
    print(f"wrote {summary.out_dir / summary.tier}")
    for sid, msg in summary.failures:
        print(f"failed {sid}: {msg}", file=sys.stderr)
    return 1 if summary.failures else 0


def _cmd_evaluate(args):
    from . import metrics

    preds = metrics.read_predictions(args.predictions)
    sigma_by_id = metrics.read_sigma_summary(args.sigma_summary)
    report = metrics.evaluate(preds, sigma_by_id, bins=args.bins)
    print(report.text(), end="")
    if args.out:
        metrics.write_report(args.out, report)
        print(f"wrote {Path(args.out) / 'report.txt'}")
    return 0


def _cmd_stratify(args):
    if len(args.preds) != len(args.sigmas):
        raise _UsageError("--preds and --sigmas must list the same number of files")
    from . import metrics

    tier_sets = []
    for pred_path, sigma_path in zip(args.preds, args.sigmas):
        tier_sets.append((metrics.read_predictions(pred_path),
                          metrics.read_sigma_summary(sigma_path)))
    rows = metrics.stratified_ece(tier_sets, quartiles=args.quartiles,
                                  bins=args.bins)
    print("pooled=" + ",".join(args.preds))
    for q in rows:
        print(f"quartile={q.quartile} sigma_lo={q.sigma_lo!r} "
              f"sigma_hi={q.sigma_hi!r} count={q.count} ece={q.ece!r}")
        if q.sigma_lo == q.sigma_hi:
            print(f"warning: quartile {q.quartile} has a degenerate sigma range",
                  file=sys.stderr)
    if args.out:
        metrics.write_stratified(Path(args.out) / "stratified.csv", rows)
        print(f"wrote {Path(args.out) / 'stratified.csv'}")
    return 0


def _cmd_params(args):
    params = tier_params(args.tier)
    for field in dataclasses.fields(params):
        print(f"{field.name}={getattr(params, field.name)!r}")
    return 0


_HANDLERS = {
    "corrupt": _cmd_corrupt,
    "evaluate": _cmd_evaluate,
    "stratify": _cmd_stratify,
    "params": _cmd_params,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (_UsageError, NoiseBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (_UsageError, UnknownTier)) else 1


if __name__ == "__main__":
    sys.exit(main())
