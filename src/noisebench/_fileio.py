"""Internal helpers for the text formats: numpy's C parse of numeric text,
streaming line-numbered readers that raise ParseError at a file line, atomic
writers and round-trip float formatting. The C parse (c_table) comes first and
the line-numbered readers read what it refuses; both only parse, and a format's
value rules run once on either's rows, finding a bad row's line by row_line.
Values are identical: float() and c_table both use PyOS_string_to_double.
"""

import csv
import os
from contextlib import contextmanager
from itertools import chain, dropwhile, islice
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


def _lines(path):
    """Yield (file line, line with its ending) of the UTF-8 file `path`, read
    one line at a time; a line ends at "\n", "\r\n" or "\r". A line holding
    a byte that is not UTF-8 is a ParseError at that line."""
    # surrogateescape maps bad bytes to U+DC80..U+DCFF, which valid UTF-8
    # never decodes to; strict decoding would fail at an 8 KiB chunk instead
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and any("\udc80" <= ch <= "\udcff" for ch in line):
                raise ParseError("not UTF-8 text", path=path, line=lineno)
            yield lineno, line


def data_lines(path):
    """Yield (file line, stripped line) of each non-blank, non-'#' line of
    _lines(path), so a bad byte fails even in a comment or blank line."""
    for lineno, raw in _lines(path):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def c_table(lines, width, delimiter=None):
    """The (n, width) float64 table numpy's C reader parses from `lines` (an
    open file, or a list), split at whitespace or `delimiter`, skipping blank
    lines; None if it refuses them or they hold no row."""
    # a first row of `width` zeros, dropped, holds every row to that width
    # (loadtxt refuses a changed field count) and keeps it from warning on no data
    first = (delimiter or " ").join("0" * width)
    try:
        table = np.loadtxt(chain([first], lines), np.float64, comments=None,
                           delimiter=delimiter, encoding="utf-8", ndmin=2)[1:]
    except ValueError:  # a bad field, a changed field count, or bad UTF-8
        return None
    return table if table.size else None


def row_line(rows, i):
    """The file line of row i: the line of the i-th (file line, row) pair
    that `rows` (data_lines or csv_rows) yields."""
    return next(islice(rows, i, None))[0]


def read_table(path, width):
    """(n, width) float64 array of a whitespace-separated table.

    Every data line (see data_lines) must hold `width` fields that float()
    parses to finite values, else ParseError at its line; EmptyCloud when
    there are no data lines. Row i is the i-th data line.
    """
    with open(path, encoding="utf-8") as fh:
        # leading '#' lines are data_lines' comments, not the C reader's
        table = c_table(dropwhile(lambda line: line.lstrip().startswith("#"), fh), width)
    if table is None:
        values = []
        for lineno, line in data_lines(path):
            fields = line.split()
            if len(fields) != width:
                raise ParseError(f"expected {width} fields, got {len(fields)}",
                                 path=path, line=lineno)
            try:
                values.extend(map(float, fields))
            except ValueError:
                raise ParseError(f"bad float in {fields!r}", path=path, line=lineno) from None
        if not values:
            raise EmptyCloud(f"{path}: no points")
        table = np.array(values, dtype=np.float64).reshape(-1, width)
    if not np.isfinite(table).all():
        i = int(np.argmax(~np.isfinite(table).all(axis=1)))
        raise ParseError(f"non-finite value in {table[i].tolist()!r}",
                         path=path, line=row_line(data_lines(path), i))
    return table


def write_table(path, header, columns):
    """Atomically write `header`, then one line per row of the parallel
    `columns`: space-separated, each field the repr of the column's .tolist()
    value, so floats get shortest round-trip decimals. Raises ValueError,
    writing nothing, if any value is not finite, as read_table would reject
    it, or if the columns differ in length."""
    if not all(np.isfinite(column).all() for column in columns):
        raise ValueError("cannot write a non-finite value, which readers reject")
    if len({len(column) for column in columns}) > 1:
        raise ValueError("columns differ in length")
    rows = zip(*(column.tolist() for column in columns))
    with atomic_text(path) as fh:
        fh.write(header + "".join(" ".join(map(repr, row)) + "\n" for row in rows))


def csv_rows(path, what, header_ok):
    """Yield (file line, row) for each non-empty data row of CSV _lines(path).

    ParseError at line 1 when the header is missing or header_ok(header)
    is false, and at a row's line when its column count differs from the
    header's, its first field (sample_id in every format) repeats an earlier
    row's, or csv rejects it (say, a field over csv's size limit). That line
    is where the record starts, even after a quoted field spanning lines; a
    bad byte is reported at its own line.
    """
    reader = csv.reader(line for _, line in _lines(path))
    start, seen = 1, set()
    try:
        header = next(reader, None)
        if header is None or not header_ok(header):
            raise ParseError(f"bad {what} header {header!r}", path=path, line=1)
        start = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} columns, got {len(row)}",
                                     path=path, line=start)
                if row[0] in seen:
                    raise ParseError(f"duplicate sample_id {row[0]!r}", path=path, line=start)
                seen.add(row[0])
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"malformed CSV ({exc})", path=path, line=start) from None
