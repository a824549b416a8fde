"""Planted faults that the test suite must catch, and the runner that checks it.

Each Mutant names a file under src/, an exact snippet of it that occurs
once, the snippet's replacement, and the pytest node ids (relative to the
repository root) that must fail once the replacement is made. Run

    python tests/mutants.py [name ...]

to plant each mutant, or the named ones, in its own copy of src/ and run
its node ids against that copy, one pytest process per mutant. It exits 1
when a snippet no longer matches the source (so the registry cannot go
stale unnoticed) or when a mutant's tests pass, and prints each mutant's
outcome and the wall time. A fault that no test catches is not registered.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str      # relative to src/
    snippet: str   # occurs exactly once in the file
    replacement: str
    tests: tuple   # node ids that must fail


_WRITER = "tests/test_pipeline.py::"
_EDGES = _WRITER + "test_float_text_matches_repr_on_edge_families"
_TABLES = _WRITER + "test_writer_tables_match_their_definitions"

MUTANTS = [
    # Java's guard: a one-digit-shorter decimal only from three digits on,
    # so 5e-323 is written as 4.9e-323. The bit-pattern test finds it only
    # when hypothesis happens to draw a tiny subnormal, so it is not listed
    Mutant("writer-java-shorter-guard", "noisebench/_fileio.py",
           "np.where((s >= 10) & (up != wp)", "np.where((s >= 100) & (up != wp)",
           (_EDGES,)),
    # the exponent's tens digit taken from its ones digit: 5e-324 as 5e-444
    Mutant("writer-exponent-tens-from-ones", "noisebench/_fileio.py",
           "    out[27] *= ex >= 100\n",
           "    out[27] *= ex >= 100\n    out[28] = out[29]\n",
           (_EDGES, _WRITER + "test_write_table_bytes_match_joined_reprs[1]")),
    # ties to the odd digit: 2.9802322387695312e-08 ends in ...313e-08
    Mutant("writer-ties-to-odd", "noisebench/_fileio.py",
           "(s & 1 == 0)", "(s & 1 == 1)", (_EDGES,)),
    # a power of two's lower neighbour taken as far as its upper one
    Mutant("writer-regular-powers-of-two", "noisebench/_fileio.py",
           "irregular = (c == 2**52) & (bq > 1)", "irregular = (c == 2**52) & (bq > 2047)",
           (_EDGES,)),
    # the whole table rendered as one chunk, so scratch grows with it
    Mutant("writer-one-chunk", "noisebench/_fileio.py",
           "rows = max(1, _CHUNK // vals.shape[1])", "rows = max(1, len(vals))",
           (_WRITER + "test_write_table_scratch_bounded_by_the_chunk",)),
    # g of 10**-k for the largest powers shifted one place too far
    Mutant("writer-g-shift", "noisebench/_fileio.py",
           "p5[-k] >> -s", "p5[-k] >> 1 - s", (_TABLES, _EDGES)),
    # columns of different lengths let through to np.stack
    Mutant("writer-ragged-check", "noisebench/_fileio.py",
           "if len({len(column) for column in columns}) > 1:",
           "if len({len(column) for column in columns}) > 2:",
           (_WRITER + "test_writers_refuse_non_finite",)),
    # a bool column written as 0 and 1 instead of refused
    Mutant("writer-dtype-refusal", "noisebench/_fileio.py",
           'if column.dtype.kind not in "fiu":', 'if column.dtype.kind not in "fiub":',
           (_WRITER + "test_write_table_refuses_other_dtypes[column0]",)),
    # a column refused only when no value of it is finite
    Mutant("writer-non-finite-refusal", "noisebench/_fileio.py",
           "if not all(np.isfinite(column).all() for column in columns):",
           "if not all(np.isfinite(column).any() for column in columns):",
           (_WRITER + "test_writers_refuse_non_finite",)),
    # the sizing shrinks the side without bucketing it again, so it measures
    # its first grid every step and hands that grid to the first pass
    Mutant("knn-shrink-not-rebucketed", "noisebench/geometry.py",
           "        h *= 0.8\n        grid = _cells(xyzs[:3, :n].T, lo, extent, h)\n",
           "        h *= 0.8\n", ("tests/test_geometry.py::test_knn_buckets_each_side_once",)),
    # a pass's cell-unit coordinates held through its search
    Mutant("knn-coordinates-held", "noisebench/geometry.py",
           "del t, below, above", "del below, above",
           ("tests/test_geometry.py::test_knn_frees_grid_coordinates_before_search",)),
]


def plant(mutant, src):
    """Apply `mutant` to the copy of src/ at `src`; ValueError if its
    snippet does not occur exactly once."""
    path = src / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: snippet found {text.count(mutant.snippet)} times "
                         f"in {mutant.path}, not once")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def run(tests, mutant=None):
    """The node ids of `tests` that fail against a copy of src/ with
    `mutant` planted in it, or none."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant:
            plant(mutant, src)
        # pytest puts its pythonpath setting first on sys.path, so it is
        # pointed at the copy; hypothesis keeps its failing examples in the
        # temporary directory, and nothing else is written in the repository
        env = {**os.environ, "PYTHONPATH": str(src), "HYPOTHESIS_STORAGE_DIRECTORY": tmp,
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf",
             "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        # an unknown node id, a collection error or a crash, not a failure
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return [t for t in tests if t in failed]


def main(names):
    start, ok = time.perf_counter(), True
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        sys.exit(f"unknown mutant in {names}")
    # the control: every listed test passes on the copy unchanged, so a
    # mutant's failures are its own
    failed = run(sorted({t for m in chosen for t in m.tests}))
    if failed:
        sys.exit(f"tests fail on an unchanged copy of src/: {', '.join(failed)}")
    for mutant in chosen:
        try:
            failed = run(mutant.tests, mutant)
        except ValueError as exc:
            print(f"STALE    {exc}")
            ok = False
            continue
        missed = [t for t in mutant.tests if t not in failed]
        ok = ok and not missed
        print(f"{'SURVIVED' if missed else 'caught  '} {mutant.name}"
              + (f": passed {', '.join(missed)}" if missed else ""))
    print(f"{len(chosen)} mutants in {time.perf_counter() - start:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
