"""Internal helpers for the text formats: line-numbered readers that raise
ParseError at a file line, atomic writers and round-trip float formatting."""

import csv
import io
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import EmptyCloud, ParseError

SUMMARY_HEADER = ("sample_id", "label", "mean_sigma", "mean_mu", "outlier_count")


def fmt(x):
    """Shortest decimal representation that round-trips through float()."""
    return repr(float(x))


@contextmanager
def atomic_text(path):
    """Open a temp file next to `path` and rename it over on success.

    Readers never observe a partially written file; on error the temp file
    is removed and the destination is left untouched. The file gets mode
    0o666 less the process umask, as open(path, "w") would give it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0),
                 0o666)
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


def _text(path):
    """Decode the file `path` as UTF-8, read once; a byte that is not UTF-8 is
    a ParseError at its path and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path,
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def data_lines(path):
    """Yield (file line, stripped line) of each non-blank, non-'#' line."""
    # newline=None splits lines the way open() does: at "\n", "\r\n" or "\r"
    for lineno, raw in enumerate(io.StringIO(_text(path), newline=None), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_table(path, width):
    """(file lines, (n, width) float64 array) of a whitespace-separated table.

    Every data line (see data_lines) must hold `width` fields that float()
    parses to finite values, else ParseError at its line; EmptyCloud when
    there are no data lines.
    """
    lines, values = [], []
    for lineno, line in data_lines(path):
        fields = line.split()
        if len(fields) != width:
            raise ParseError(f"expected {width} fields, got {len(fields)}",
                             path=path, line=lineno)
        try:
            values.extend(map(float, fields))
        except ValueError:
            raise ParseError(f"bad float in {fields!r}", path=path, line=lineno) from None
        lines.append(lineno)
    if not lines:
        raise EmptyCloud(f"{path}: no points")
    table = np.array(values, dtype=np.float64).reshape(-1, width)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"non-finite value in {table[i].tolist()!r}",
                         path=path, line=lines[i])
    return lines, table


def write_table(path, header, columns):
    """Atomically write `header`, then one line per row of the parallel
    `columns`: space-separated, each field the repr of the column's .tolist()
    value, so floats get shortest round-trip decimals. Raises ValueError,
    writing nothing, if any value is not finite, as read_table would reject
    it."""
    if not all(np.isfinite(column).all() for column in columns):
        raise ValueError("cannot write a non-finite value, which readers reject")
    rows = zip(*(column.tolist() for column in columns))
    with atomic_text(path) as fh:
        fh.write(header + "".join(" ".join(map(repr, row)) + "\n" for row in rows))


def csv_rows(path, what, header_ok):
    """Yield (file line, row) for each non-empty data row of a CSV file.

    ParseError at line 1 when the header is missing or header_ok(header)
    is false, and at a row's line when its column count differs from the
    header's. That line is where the record starts, even after a quoted
    field spanning lines.
    """
    reader = csv.reader(io.StringIO(_text(path), newline=""))
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
