"""Benchmark generation: tier configs, seeding, file formats, batch runs.

File formats (all UTF-8 text). Readers skip blank lines, and '#' comment
lines in all but the CSV formats; float fields must be finite; a bad line
is a ParseError citing its file line (for CSV, where its record starts).
Each CSV format (manifest, sigma summary, predictions) starts with a
sample_id column, whose values must not repeat within a file.
Point files and probabilities go through numpy's C reader first, and the
line-numbered reader reads what it refuses; both only parse, and each format's
value rules run once, on either's rows (_fileio, metrics).

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

import contextlib
import hashlib
import os
import signal
import struct
import sys
import tempfile
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._fileio import (SUMMARY_HEADER, csv_rows, data_lines, fmt, read_table, row_line,
                      write_csv, write_table)
from .errors import GenerationError, ParseError
from .geometry import _as_cloud, _as_vec3
from .noise import corrupt_cloud
from .tiers import (DEFAULT_NORMAL_K, DEFAULT_SENSOR, TIER_NAMES, _PRESETS, NoiseParams,
                    _check_seed, tier_params)


def _is_plain_name(name):
    """True for a plain file name: not empty, '.' or '..', no '/', '\\' or NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


@dataclass(frozen=True)
class TierConfig:
    """Everything needed to corrupt a dataset at one noise tier; frozen.

    `name` names the tier's output directory, so it must be a plain file
    name, like a sample id. `global_seed` must be in [0, 2^64), the seeds
    sample_seed takes, and `scale`, applied to every clean cloud before
    corruption, finite and > 0 (ValueError otherwise).
    """

    name: str
    params: NoiseParams
    sensor: tuple = DEFAULT_SENSOR
    normal_k: int = DEFAULT_NORMAL_K
    global_seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        if not _is_plain_name(self.name):
            raise ValueError(f"tier name {self.name!r} is not a plain file name")
        object.__setattr__(self, "sensor", tuple(_as_vec3(self.sensor, "sensor").tolist()))
        _check_seed(self.global_seed, "global seed")
        if self.normal_k < 3:
            raise ValueError(f"normal_k must be >= 3, got {self.normal_k}")
        if not 0.0 < self.scale < float("inf"):
            raise ValueError(f"scale must be finite and > 0, got {self.scale!r}")
        if self.name == "none" and self.params != _PRESETS["none"]:
            raise ValueError("tier 'none' must carry all-zero noise parameters")


def preset_config(name):
    """TierConfig for a built-in tier name; dataclasses.replace sets the rest."""
    return TierConfig(name=name, params=tier_params(name))


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
        raise ParseError(f"outlier flag must be 0 or 1, got {float(flag[i])!r}",
                         path=path, line=row_line(data_lines(path), i))
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


_TIER_CONFIG_KEYS = (*NoiseParams._fields, "sensor_x", "sensor_y",
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
    noise = {name: values.pop(name) for name in NoiseParams._fields if name in values}
    try:  # normal_k and global_seed are left in values
        return TierConfig(name="custom", params=_PRESETS["none"]._replace(**noise),
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


# one sample's summary.csv row, its fields named by the header
SampleRecord = namedtuple("SampleRecord", SUMMARY_HEADER)


def _corrupt_one(entry, config, tier_dir, base_dir):
    cloud = read_cloud(base_dir / entry.path) * config.scale
    ann = corrupt_cloud(cloud, config.sensor, config.params, k=config.normal_k,
                        seed=sample_seed(config.global_seed, entry.sample_id))
    # finite sigmas can still sum past the float range; the warning is moot
    with np.errstate(over="ignore"):
        means = (ann.mean_sigma(), ann.mean_mu())
    if not np.isfinite(means).all():
        raise ValueError("sample mean sigma or mu is not finite")
    write_annotated(tier_dir / f"{entry.sample_id}.xyzn", ann)
    return SampleRecord(entry.sample_id, entry.label, *means, ann.outlier_count())


def _init_worker():
    """Set up a pool worker: Ctrl-C is for the parent alone to handle, and
    the worker exits when the parent dies, so a killed run leaves no process."""
    import multiprocessing

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    threading.Thread(target=lambda: (parent.join(), os._exit(1)), daemon=True).start()


def _start_method():
    # fork, so that workers inherit the loaded numpy and noisebench, only
    # where it is multiprocessing's own silent default (Linux before Python
    # 3.12, which warns on forking a process with threads) and no other
    # Python thread runs, since a fork copies no other thread, nor any lock
    # one holds; numpy's OpenBLAS threads have fork handlers. Else spawn.
    linux_default = sys.platform == "linux" and sys.version_info < (3, 12)
    return "fork" if linux_default and threading.active_count() == 1 else "spawn"


def _run(entries, args, threads, keep_going, sigints):
    """_corrupt_one(entry, *args) per entry in a pool, as generate_benchmark says;
    (rows, failures) in entry order, returned once every worker has stopped;
    a Ctrl-C recorded in `sigints` is raised here, between waits."""
    # imported here, not at module top, so that `import noisebench` stays fast
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait

    if threads is None:
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        threads = min(32, len(cpus) if cpus else os.cpu_count() or 1)
    rows, failures = [], []
    pool = ProcessPoolExecutor(max_workers=min(threads, max(len(entries), 1)),
                               mp_context=multiprocessing.get_context(_start_method()),
                               initializer=_init_worker)
    try:
        futures = [pool.submit(_corrupt_one, entry, *args) for entry in entries]
        for entry, fut in zip(entries, futures):
            while not (sigints or wait([fut], timeout=0.05).done):
                pass
            if sigints:
                raise KeyboardInterrupt
            try:
                rows.append(fut.result())
            except Exception as exc:
                if not keep_going:
                    raise GenerationError(entry.sample_id, exc) from exc
                failures.append((entry.sample_id, str(exc)))
    finally:
        # all done, or an error or interrupt: cancel what no worker has yet
        pool.shutdown(cancel_futures=True)
    return rows, failures


@contextlib.contextmanager
def _publish(out_dir, name):
    """Make out_dir; yield a staging tree that replaces out_dir/<name> on success."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{name}.", dir=out_dir) as work:
        staged = Path(work) / "new"  # fixed names, so any tier name can rerun
        staged.mkdir()  # 0777 less the umask, unlike the 0700 staging root
        yield staged
        # swap the finished tree in; leaving the block deletes the old one,
        # so an interrupted swap first puts the old one back
        old = Path(work) / "old"
        try:
            if (out_dir / name).exists():
                (out_dir / name).rename(old)
            staged.rename(out_dir / name)
        except BaseException:
            if old.exists():
                old.rename(out_dir / name)
            raise


def generate_benchmark(manifest, config, out_dir, threads=None, keep_going=False):
    """Corrupt every manifest sample at one tier and write the output tree.

    Layout: out_dir/<tier>/<sample_id>.xyzn plus out_dir/<tier>/summary.csv.
    Sample ids must be distinct plain file names, as read_manifest requires
    (ValueError otherwise, before out_dir is made or any worker starts); the
    rest of the recipe, `scale` included, is `config`, checked when built.
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
    run leaves an earlier tree as it was; a Ctrl-C after the last sample
    finished is raised once the tree is published. A killed run may leave
    that hidden directory behind (holding the earlier tree as `old` if
    killed between the two renames); delete it by hand.
    """
    entries = sorted(manifest.entries, key=lambda e: e.sample_id)
    ids = [str(entry.sample_id) for entry in entries]  # as the file names spell them
    for prev, sid in zip([None, *ids], ids):  # sorted, so a repeat follows its first
        if sid == prev or not _is_plain_name(sid):
            raise ValueError(f"sample_id {sid!r} repeats or is not a plain file name")
    out_dir, sigints = Path(out_dir), []
    # Python's Ctrl-C handler raises wherever the main thread is: inside a
    # lock or condition wait of concurrent.futures, where it can hang or break
    # the pool, or as a with block ends, before its cleanup. While the tree is
    # built and published, the handler only records the signal; _run's loop,
    # waking at least every 0.05 s, stops the run and raises it, and one
    # recorded after the loop is raised once the tree is published
    defer = (threading.current_thread() is threading.main_thread()
             and signal.getsignal(signal.SIGINT) is signal.default_int_handler)
    if defer:
        signal.signal(signal.SIGINT, lambda *_: sigints.append(1))
    try:
        with _publish(out_dir, config.name) as tier_dir:
            rows, failures = _run(entries, (config, tier_dir, manifest.base_dir),
                                  threads, keep_going, sigints)
            write_csv(tier_dir / "summary.csv", SUMMARY_HEADER,
                      (r._replace(mean_sigma=fmt(r.mean_sigma), mean_mu=fmt(r.mean_mu))
                       for r in rows))
    finally:
        if defer:
            signal.signal(signal.SIGINT, signal.default_int_handler)
    if sigints:
        raise KeyboardInterrupt

    m = np.array([r.mean_sigma for r in rows])
    # the sum of finite means can overflow; scaling by a power of two above
    # n is exact for normal floats, and means of at most 1 are not scaled,
    # so a subnormal one keeps its bits
    e = len(m).bit_length() if m.max(initial=0.0) > 1.0 else 0
    mean_sigma = float(np.mean(np.ldexp(m, -e)) * 2.0**e) if rows else 0.0
    return GenerationSummary(tier=config.name, out_dir=out_dir,
                             sample_count=len(rows), failures=failures,
                             mean_sigma=mean_sigma)
