"""Internal helpers for the text formats: numpy's C parse of numeric text,
streaming line-numbered readers that raise ParseError at a file line, atomic
writers and round-trip float formatting. The C parse (c_table) comes first;
the line-numbered readers alone raise errors, and read every file it refuses.
Values are identical: every field it takes, float() takes, and both parse it
with PyOS_string_to_double.
"""

import csv
import os
from contextlib import contextmanager
from itertools import chain, dropwhile
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
    lines; None if it refuses them or the table is empty or not all finite,
    or, with a delimiter, a line holds U+001C..U+001F, which the C reader
    strips from a field's ends and float() does not."""
    if delimiter and any("\x1c" in s or "\x1d" in s or "\x1e" in s or "\x1f" in s
                         for s in lines):
        return None
    # a first row of `width` zeros, dropped, holds every row to that width
    # (loadtxt refuses a changed field count) and keeps it from warning on no data
    first = (delimiter or " ").join("0" * width)
    try:
        table = np.loadtxt(chain([first], lines), np.float64, comments=None,
                           delimiter=delimiter, encoding="utf-8", ndmin=2)[1:]
    except ValueError:  # a bad field, a changed field count, or bad UTF-8
        return None
    return table if table.size and np.isfinite(table).all() else None


def read_table(path, width):
    """(n, width) float64 array of a whitespace-separated table.

    Every data line (see data_lines) must hold `width` fields that float()
    parses to finite values, else ParseError at its line; EmptyCloud when
    there are no data lines. Row i is the i-th data line.
    """
    with open(path, encoding="utf-8") as fh:
        # leading '#' lines are data_lines' comments, not the C reader's
        table = c_table(dropwhile(lambda line: line.lstrip().startswith("#"), fh), width)
    if table is not None:
        return table
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
    return table


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
    """Yield (file line, row) for each non-empty data row of CSV _lines(path).

    ParseError at line 1 when the header is missing or header_ok(header)
    is false, and at a row's line when its column count differs from the
    header's or csv rejects it (say, a field over csv's size limit). That
    line is where the record starts, even after a quoted field spanning
    lines; a bad byte is reported at its own line. A line with no '"' or NUL
    and no longer than csv.field_size_limit() is one whole record, split at
    "," as csv.reader would split it; any other line starts a record that
    csv.reader reads from that line on.
    """
    records = _records(path)
    _, header = next(records, (1, None))
    if header is None or not header_ok(header):
        raise ParseError(f"bad {what} header {header!r}", path=path, line=1)
    for lineno, row in records:
        if row:
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} columns, got {len(row)}",
                                 path=path, line=lineno)
            yield lineno, row


def plain_line(line, limit):
    """True when csv.reader would read `line` as one record split at every
    ",": no '"' (a field may span lines), no NUL (rejected before Python
    3.11), and no longer than csv's field size `limit`."""
    return '"' not in line and "\0" not in line and len(line) <= limit


def _records(path):
    """Yield (start line, row) of every CSV record of _lines(path); see csv_rows."""
    lines, limit = _lines(path), csv.field_size_limit()
    for lineno, line in lines:
        if not plain_line(line, limit):
            try:
                row = next(csv.reader(chain([line], (rest for _, rest in lines))))
            except csv.Error as exc:
                raise ParseError(f"malformed CSV ({exc})", path=path, line=lineno) from None
        else:  # a line starting with its ending is blank: []
            row = line.rstrip("\r\n").split(",") if line[0] not in "\r\n" else []
        yield lineno, row
