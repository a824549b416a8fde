"""Benchmark generation: tier configs, seeding, file formats, batch runs.

File formats (all UTF-8 text). Readers skip blank lines, and '#' comment
lines in all but the CSV formats; float fields must be finite; a bad line
is a ParseError citing its file line (for CSV, where its record starts).
Each CSV format (manifest, sigma summary, predictions) starts with a
sample_id column, whose values must not repeat within a file.
Point files and probabilities go through numpy's C reader first, sigma
summaries through float() without csv; the line-numbered reader alone raises
errors and reads what they refuse (_fileio, metrics).

  clean cloud     one point per line, "x y z"
  annotated cloud header "# x y z sigma mu outlier", then one point per
                  line with six space-separated fields; floats use
                  shortest round-trip decimals; outlier is written 0 or 1
                  and read like the other fields, so any float spelling
                  of 0 or 1 (e.g. 1.0) is accepted
  manifest        CSV with header sample_id,label,path; paths are resolved
                  relative to the manifest's directory
  sigma summary   CSV with header sample_id,label,mean_sigma,mean_mu,
                  outlier_count, sorted ascending by sample_id
  tier config     "key=value" lines overriding the zero-noise defaults;
                  keys: a b c k p_out sensor_x sensor_y sensor_z normal_k
                  global_seed
"""

import hashlib
import os
import struct
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._fileio import (SUMMARY_HEADER, csv_rows, data_lines, fmt, read_table,
                      write_csv, write_table)
from .errors import GenerationError, ParseError
from .geometry import _as_cloud, _as_vec3
from .noise import corrupt_cloud
from .tiers import (DEFAULT_NORMAL_K, DEFAULT_SENSOR, TIER_NAMES, _PRESETS, NoiseParams,
                    _check_seed, tier_params)


def _is_plain_name(name):
    """True for a plain file name: not empty, '.' or '..', no '/', '\\' or NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


@dataclass
class TierConfig:
    """Everything needed to corrupt a dataset at one noise tier.

    `name` names the tier's output directory, so it must be a plain file
    name, like a sample id (ValueError otherwise). `global_seed` must be in
    [0, 2^64), the seeds sample_seed takes (ValueError otherwise).
    """

    name: str
    params: NoiseParams
    sensor: tuple = DEFAULT_SENSOR
    normal_k: int = DEFAULT_NORMAL_K
    global_seed: int = 0

    def __post_init__(self):
        if not _is_plain_name(self.name):
            raise ValueError(f"tier name {self.name!r} is not a plain file name")
        self.sensor = tuple(_as_vec3(self.sensor, "sensor").tolist())
        _check_seed(self.global_seed, "global seed")
        if self.normal_k < 3:
            raise ValueError(f"normal_k must be >= 3, got {self.normal_k}")
        if self.name == "none" and self.params != _PRESETS["none"]:
            raise ValueError("tier 'none' must carry all-zero noise parameters")


def preset_config(name, global_seed=0):
    """TierConfig for a built-in tier name."""
    return TierConfig(name=name, params=tier_params(name), global_seed=global_seed)


def sample_seed(global_seed, sample_id):
    """Derive the per-sample 64-bit seed.

    Construction: SHA-256 over the global seed, in [0, 2^64) (ValueError
    otherwise), as 8 little-endian bytes followed by the UTF-8 bytes of the
    sample id; the first 8 digest bytes, read little-endian, are the seed.
    Platform- and run-independent.
    """
    _check_seed(global_seed, "global seed")
    payload = struct.pack("<Q", int(global_seed))
    payload += str(sample_id).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def read_cloud(path):
    """Parse a clean cloud file into an (n, 3) float64 array of finite values."""
    return read_table(path, 3)


def write_cloud(path, points):
    """Write an (n, 3) clean cloud with round-trip-exact coordinates."""
    write_table(path, "", _as_cloud(points).T)


_ANNOTATED_HEADER = "# x y z sigma mu outlier\n"


def write_annotated(path, ann):
    """Write an AnnotatedCloud's corrupted points and per-point annotations."""
    write_table(path, _ANNOTATED_HEADER, [*_as_cloud(ann.corrupted).T, ann.sigma, ann.mu,
                                          ann.outlier.astype(np.int8)])


class AnnotatedColumns(NamedTuple):
    """Columns of an annotated cloud file, as parallel arrays."""

    points: np.ndarray   # (n, 3) corrupted coordinates
    sigma: np.ndarray    # (n,)
    mu: np.ndarray       # (n,)
    outlier: np.ndarray  # (n,) bool


def read_annotated(path):
    """Parse an annotated cloud file back into its columns."""
    table = read_table(path, 6)
    flag = table[:, 5]
    bad = (flag != 0.0) & (flag != 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        lineno = next(islice(data_lines(path), i, None))[0]  # row i is data line i
        raise ParseError(f"outlier flag must be 0 or 1, got {float(flag[i])!r}",
                         path=path, line=lineno)
    return AnnotatedColumns(points=table[:, :3], sigma=table[:, 3], mu=table[:, 4],
                            outlier=flag == 1.0)


@dataclass(frozen=True)
class SampleEntry:
    sample_id: str
    label: int
    path: str


@dataclass
class Manifest:
    """Dataset manifest: sample entries, their paths relative to base_dir."""

    entries: list
    base_dir: Path = Path(".")

    def __len__(self):
        return len(self.entries)


def read_manifest(path):
    """Parse a manifest CSV; labels must be non-negative, and sample ids plain
    file names (not empty, '.' or '..', no '/', '\\' or NUL), since each id
    names its output file inside the tier directory."""
    path = Path(path)
    entries = []
    for lineno, (sid, label_s, rel) in csv_rows(
            path, "manifest", lambda header: header == ["sample_id", "label", "path"]):
        if not _is_plain_name(sid):
            raise ParseError(f"sample_id {sid!r} is not a plain file name",
                             path=path, line=lineno)
        try:
            label = int(label_s)
        except ValueError:
            raise ParseError(f"bad label {label_s!r}", path=path,
                             line=lineno) from None
        if label < 0:
            raise ParseError(f"label must be >= 0, got {label}",
                             path=path, line=lineno)
        entries.append(SampleEntry(sample_id=sid, label=label, path=rel))
    if not entries:
        raise ParseError("manifest has no samples", path=path)
    return Manifest(entries=entries, base_dir=path.parent)


_TIER_CONFIG_KEYS = (*(f.name for f in fields(NoiseParams)), "sensor_x", "sensor_y",
                     "sensor_z", "normal_k", "global_seed")


def read_tier_config(path):
    """Parse a key=value tier override file into a TierConfig named "custom".

    Missing keys keep their defaults: zero-noise parameters, sensor
    (0, -2, 0), normal_k 16, global_seed 0. Unknown keys are fatal.
    """
    values = {}
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise ParseError("expected key=value", path=path, line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _TIER_CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}", path=path, line=lineno)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", path=path, line=lineno)
        try:
            values[key] = int(val) if key in ("normal_k", "global_seed") else float(val)
        except ValueError:
            raise ParseError(f"bad value for {key}: {val!r}", path=path,
                             line=lineno) from None
    sensor = tuple(values.pop("sensor_" + ax, v) for ax, v in zip("xyz", DEFAULT_SENSOR))
    noise = {f.name: values.pop(f.name) for f in fields(NoiseParams) if f.name in values}
    try:  # normal_k and global_seed are left in values
        return TierConfig(name="custom", params=replace(_PRESETS["none"], **noise),
                          sensor=sensor, **values)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None


@dataclass
class GenerationSummary:
    """Outcome of one generate_benchmark run."""

    tier: str
    out_dir: Path
    sample_count: int            # samples successfully written
    failures: list = field(default_factory=list)  # (sample_id, message) pairs
    mean_sigma: float = 0.0      # mean over samples of per-sample mean sigma

    @property
    def failure_count(self):
        return len(self.failures)


def _corrupt_one(entry, config, scale, tier_dir, base_dir):
    cloud = read_cloud(base_dir / entry.path)
    if scale is not None and scale != 1.0:
        cloud = cloud * float(scale)
    ann = corrupt_cloud(cloud, config.sensor, config.params, k=config.normal_k,
                        seed=sample_seed(config.global_seed, entry.sample_id))
    # finite sigmas can still sum past the float range; the warning is moot
    with np.errstate(over="ignore"):
        means = (ann.mean_sigma(), ann.mean_mu())
    if not np.isfinite(means).all():
        raise ValueError("sample mean sigma or mu is not finite")
    write_annotated(tier_dir / f"{entry.sample_id}.xyzn", ann)
    return (entry.sample_id, entry.label, *means, ann.outlier_count())


def _init_worker():
    """Set up a pool worker: Ctrl-C is for the parent alone to handle, and
    the worker exits when the parent dies, so a killed run leaves no process."""
    import multiprocessing
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    threading.Thread(target=lambda: (parent.join(), os._exit(1)), daemon=True).start()


def _start_method():
    # fork, so that workers inherit the loaded numpy and noisebench, only
    # where it is multiprocessing's own silent default (Linux before Python
    # 3.12, which warns on forking a process with threads) and no other
    # Python thread runs, since a fork copies no other thread, nor any lock
    # one holds; numpy's OpenBLAS threads have fork handlers. Else spawn.
    import threading

    linux_default = sys.platform == "linux" and sys.version_info < (3, 12)
    return "fork" if linux_default and threading.active_count() == 1 else "spawn"


def generate_benchmark(manifest, config, out_dir, threads=None, keep_going=False,
                       scale=None):
    """Corrupt every manifest sample at one tier and write the output tree.

    Layout: out_dir/<tier>/<sample_id>.xyzn plus out_dir/<tier>/summary.csv.
    Sample ids must be distinct plain file names, as read_manifest requires;
    ValueError otherwise, before out_dir is made or any worker starts.
    Samples run in at most `threads` worker processes (default: the CPUs
    this process may run on, at most 32), started as _start_method says;
    a spawned worker imports the caller's main module, which must then
    guard its entry point with `if __name__ == "__main__":`.
    Each sample is seeded by sample_seed(config.global_seed, sample_id), so
    output bytes do not depend on `threads` or scheduling order. Results
    are read in sample-id order: by default the first failing sample in
    that order raises GenerationError, at any thread count; with keep_going
    the remaining samples still run and failures are collected in the
    summary. A non-finite noise result or sample mean fails its sample, and
    a worker that dies fails every sample not yet finished. An error or an
    interrupt cancels the samples not yet handed to a worker: at most
    2 * threads + 1 beyond the finished ones still run. Workers ignore
    SIGINT and exit when this process dies.
    The tree is built in a hidden out_dir/.<tier>.* directory and replaces
    out_dir/<tier> only when the run finishes, so a failed or interrupted
    run leaves an earlier tree as it was. A killed run may leave that
    hidden directory behind (holding the earlier tree as `old` if killed
    between the two renames); delete it by hand.
    """
    # imported here, not at module top, so that `import noisebench` stays fast
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    entries = sorted(manifest.entries, key=lambda e: e.sample_id)
    ids = [str(entry.sample_id) for entry in entries]  # as the file names spell them
    for prev, sid in zip([None, *ids], ids):  # sorted, so a repeat follows its first
        if sid == prev or not _is_plain_name(sid):
            raise ValueError(f"sample_id {sid!r} repeats or is not a plain file name")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if threads is None:
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        threads = min(32, len(cpus) if cpus else os.cpu_count() or 1)

    rows = []
    failures = []
    with tempfile.TemporaryDirectory(prefix=f".{config.name}.", dir=out_dir) as work, \
            ProcessPoolExecutor(max_workers=min(threads, max(len(entries), 1)),
                                mp_context=multiprocessing.get_context(_start_method()),
                                initializer=_init_worker) as pool:
        tier_dir = Path(work) / "new"  # fixed names, so any tier name can rerun
        tier_dir.mkdir()  # 0777 less the umask, unlike the 0700 staging root
        futures = [pool.submit(_corrupt_one, entry, config, scale, tier_dir,
                               manifest.base_dir) for entry in entries]
        try:
            for entry, fut in zip(entries, futures):
                try:
                    rows.append(fut.result())
                except Exception as exc:
                    if not keep_going:
                        raise GenerationError(entry.sample_id, exc) from exc
                    failures.append((entry.sample_id, str(exc)))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

        write_csv(tier_dir / "summary.csv", SUMMARY_HEADER,
                  ([sid, label, fmt(ms), fmt(mm), oc] for sid, label, ms, mm, oc in rows))
        # swap the finished tree in; leaving the block deletes the old one
        if (out_dir / config.name).exists():
            (out_dir / config.name).rename(Path(work) / "old")
        tier_dir.rename(out_dir / config.name)

    m = np.array([r[2] for r in rows])
    # the sum of finite means can overflow; scaling by a power of two above
    # n is exact for normal floats, and means of at most 1 are not scaled,
    # so a subnormal one keeps its bits
    e = len(m).bit_length() if m.max(initial=0.0) > 1.0 else 0
    mean_sigma = float(np.mean(np.ldexp(m, -e)) * 2.0**e) if rows else 0.0
    return GenerationSummary(tier=config.name, out_dir=out_dir,
                             sample_count=len(rows), failures=failures,
                             mean_sigma=mean_sigma)
