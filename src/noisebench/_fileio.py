"""Internal helpers for the text formats: numpy's C parse of numeric text,
streaming line-numbered readers that raise ParseError at a file line, atomic
writers and round-trip float formatting. The C parse (c_table) comes first and
the line-numbered readers read what it refuses; both only parse, and a format's
value rules run once on either's rows, finding a bad row's line by row_line.
Values are identical: float() and c_table both use PyOS_string_to_double.
Tables are written by _text, a numpy kernel: Schubfach's shortest digits in
64-bit integer arithmetic, laid out as repr lays out a float. Its tables take
under 1 ms to build at import: _G by shifts of powers of 5, _QUADS by indices.
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


# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), as in
# Java's Double.toString, finds the shortest decimals that read back as a
# double, and of those the nearest, ties to an even last digit: d 10**e, d an
# integer. Unlike Java's, repr's shortest may have one digit (5e-324, not
# 4.9e-324), so a shorter decimal is looked for from two digits on, and the
# two smallest subnormals are not scaled up; the layout is repr's, positional
# for 1e-4 <= |x| < 1e16, "0.0" for zero.
_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _g_rows():
    """_G: a column per k = -324..292 of Schubfach's g of 10**-k, as _rop takes it."""
    # g = floor(10**-k 2**r) + 1 with 2**125 <= 10**-k 2**r < 2**126. As
    # 10**-k 2**r = 5**-k 2**s, s = r - k, it is a shift of 5**-k for k <= 0
    # and 2**s // 5**k above. From its two 64-bit words, g = g1 2**63 + g0,
    # and the rows are g1, then g1's and g0's 32-bit halves
    p5 = np.cumprod([1] + [5] * 324, dtype=object).tolist()  # 5**0..5**324, exact
    g = [(p5[-k] << s if s >= 0 else p5[-k] >> -s) if k <= 0 else (1 << s) // p5[k]
         for k in range(-324, 293) for s in [125 - _flog2pow10(-k) - k]]
    w = np.frombuffer(b"".join((x + 1).to_bytes(16, "little") for x in g), np.uint64)
    g1, g0 = w[1::2] << 1 | w[::2] >> 63, w[::2] & _M63
    return np.array([g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32])


_G = _g_rows()
_POW10 = np.array([10 ** i for i in range(20)], np.uint64)
# "%04d" of 0..9999 as a word each: the ASCII of each index's four digits
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8)[::-1].T + 48).view(np.uint32).ravel()
_K = np.arange(19, dtype=np.int8)[:, None]
# slot j of "0.000" leads a value whose first digit stands for 10**(point - 1)
# when point <= min(0, 1 - j): "0." for 0.1 <= |x| < 1, "0.000" below 0.001
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_CHUNK = 8192


def _rop(g, cp):
    """Schubfach's rop: g cp 2**-127 rounded to odd, for g = g1 2**63 + g0 as
    the rows of _G and cp < 2**59; each 128-bit product from 32-bit halves."""
    g1, g1h, g1l, g0h, g0l = g
    b1, b0 = cp >> 32, cp & _M32
    x1 = g0h * b1 + ((g0h * b0 + g0l * b1 + (g0l * b0 >> 32)) >> 32)
    y1 = g1h * b1 + ((g1h * b0 + g1l * b1 + (g1l * b0 >> 32)) >> 32)
    z = ((g1 * cp) >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """(d, e) with |x| = d 10**e, d the digits of repr(x) maybe followed by
    zeros, for the uint64 bits of nonzero finite doubles x with the sign cleared."""
    bq = (bits >> 52).astype(np.int64)
    q = np.maximum(bq, 1) - 1075  # x = c 2**q
    c = bits - ((q + 1074).astype(np.uint64) << 52)
    irregular = (c == 2**52) & (bq > 1)  # a power of two, nearer its lower neighbour
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = np.take(_G, k + 324, axis=1)
    cb, odd = c << 2, c & 1
    vb = _rop(g, cb << h)
    # the ends of the interval that rounds to x, in it when c is even
    vbl = _rop(g, (cb - 2 + irregular) << h) + odd
    vbr = _rop(g, (cb + 2) << h) - odd
    s = vb >> 2
    sp = s // 10 * 10  # one digit shorter: the one of sp, sp + 10 in range
    up, wp = vbl <= sp << 2, (sp + 10) << 2 <= vbr
    # else s or s + 1: whichever is in range, or the nearer, ties to even
    low = (vbl <= s << 2) & (((s + 1) << 2 > vbr) | (vb & 3 < 2) | ((vb & 3 == 2) & (s & 1 == 0)))
    d = np.where((s >= 10) & (up != wp), sp + np.uint64(10) * ~up, s + ~low)
    return d, k


def _digits(m):
    """(20, len(m)) rows of ASCII: the 20 decimal digits of uint64 m."""
    quads = np.empty((5, len(m)), np.intp)
    for i in range(4, -1, -1):
        q = m // 10_000
        quads[i], m = m - q * 10_000, q
    return _QUADS.take(quads).view(np.uint8).reshape(5, -1, 4).transpose(0, 2, 1).reshape(20, -1)


def _text(vals, isint, sep):
    """The bytes of repr of each value, each followed by its `sep` byte:
    `vals` holds int64 values where `isint` is set and float64 bit patterns
    elsewhere. Built as (slots, values) rows, NUL where a slot is not used:
    sign, "0.000", 19 for digits and point, "e+308", separator."""
    # 19 slots hold a float's 17 digits and point, or an int64's 19 digits
    mag = np.where(isint, np.abs(vals).view(np.uint64), vals.view(np.uint64) & _M63)
    fl = ~isint & (mag != 0)  # floats with digits to find
    d, e = mag * isint, np.zeros(len(mag), np.intp)
    d[fl], e[fl] = _shortest(mag[fl])
    ln = _POW10.searchsorted(d | 1, "right") - 1  # len(d) - 1
    D = _digits(d * _POW10.take(18 - ln))  # row j + 1: digit j of d, then zeros
    n = np.maximum((_K * (D[:19] != ord("0"))).max(axis=0), 1)  # digits shown
    decpt = ln + 1 + e  # digit j stands for 10**(decpt - 1 - j)
    expo = ~isint & ((decpt < -3) | (decpt > 16))
    point = np.where(expo, 1, decpt)
    width = (np.where(point > 0, np.maximum(n, point + 1) + 1, n)  # "ddd.d" or "dddd"
             - 2 * (isint | (expo & (n == 1))))  # no ".d" on ints and "1e-05"
    out = np.empty((31, len(d)), np.uint8)
    out[0] = (vals < 0) * ord("-")
    out[1:6] = _LEAD * (point.astype(np.int8) <= np.minimum(0, 1 - _K[:5]))
    p = np.where(point > 0, point, 19).astype(np.int8)
    A, B = D[1:], D[:19]
    r = B + (A - B) * (_K < p) - (B - ord(".")) * (_K == p)
    out[6:25] = r * (_K < width.astype(np.int8))
    # "e-05", "e+308": e, the sign in place of "%04d"'s thousands, hundreds from 100
    out[25], ex = ord("e"), np.abs(decpt - 1)
    out[26:30] = _QUADS.take(ex).view(np.uint8).reshape(-1, 4).T
    out[26] = np.where(decpt > 0, ord("+"), ord("-"))
    out[27] *= ex >= 100
    out[25:30] *= expo
    out[30] = sep
    return out.T.tobytes().translate(None, b"\0")


def _bits(column):
    """int64 of an integer column, or the float64 bit patterns of a float one."""
    if column.dtype.kind not in "fiu":
        raise TypeError(f"cannot write a column of {column.dtype}")
    return column.astype(np.float64 if column.dtype.kind == "f" else np.int64,
                         casting="safe").view(np.int64)


def write_table(path, header, columns):
    """Atomically write `header`, then one line per row of the parallel
    `columns`: space-separated, each field the repr of the column's .tolist()
    value, so floats get shortest round-trip decimals. Raises ValueError,
    writing nothing, if any value is not finite, as read_table would reject
    it, or if the columns differ in length; TypeError for a column that is
    not float or integer, or not held exactly by float64 or int64. The fields
    are made by the Schubfach kernel _text, at most _CHUNK = 8,192 values at
    a time, so its scratch does not grow with the table."""
    if not all(np.isfinite(column).all() for column in columns):
        raise ValueError("cannot write a non-finite value, which readers reject")
    if len({len(column) for column in columns}) > 1:
        raise ValueError("columns differ in length")
    vals = np.stack([_bits(np.asarray(column)) for column in columns], axis=1)
    rows = max(1, _CHUNK // vals.shape[1])
    isint = np.tile([np.asarray(column).dtype.kind != "f" for column in columns], rows)
    sep = np.tile(np.frombuffer(b" " * (vals.shape[1] - 1) + b"\n", np.uint8), rows)
    with atomic_text(path) as fh:
        fh.write(header)
        for start in range(0, len(vals), rows):
            chunk = vals[start:start + rows].ravel()
            fh.write(_text(chunk, isint[:len(chunk)], sep[:len(chunk)]).decode("ascii"))


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
