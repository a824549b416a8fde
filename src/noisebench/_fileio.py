"""Internal helpers for the text formats: line-numbered readers that raise
ParseError at a file line, atomic writers and round-trip float formatting."""

import csv
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError

SUMMARY_HEADER = ("sample_id", "label", "mean_sigma", "mean_mu", "outlier_count")


def fmt(x):
    """Shortest decimal representation that round-trips through float()."""
    return repr(float(x))


@contextmanager
def atomic_text(path):
    """Open a temp file next to `path` and rename it over on success.

    Readers never observe a partially written file; on error the temp file
    is removed and the destination is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, header, rows):
    """Atomically write a CSV file in the default dialect ("\\r\\n" rows)."""
    with atomic_text(path) as fh:
        csv.writer(fh).writerows([header, *rows])


def data_lines(path):
    """Yield (file line, stripped line) of each non-blank, non-'#' line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def finite_floats(fields, path, line):
    """The fields as floats; ParseError at path:line unless all are finite."""
    try:
        values = list(map(float, fields))
    except ValueError:
        raise ParseError(f"bad float in {fields!r}", path=path, line=line) from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite value in {fields!r}", path=path, line=line)
    return values


def csv_rows(path, what, header_ok):
    """Yield (file line, row) for each non-empty data row of a CSV file.

    ParseError at line 1 when the header is missing or header_ok(header)
    is false, and at a row's line when its column count differs from the
    header's. That line is where the record starts, even after a quoted
    field spanning lines.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header_ok(header):
            raise ParseError(f"bad {what} header {header!r}", path=path, line=1)
        start = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} columns, got {len(row)}",
                                     path=path, line=start)
                yield start, row
            start = reader.line_num + 1
