"""Classifier evaluation: accuracy, calibration, uncertainty correlation.

Prediction rows are held column-wise in one `Predictions` bundle, validated
once: probabilities finite and non-negative, each row summing to 1 within
1e-6, labels indexing a class. Confidence is the row's max probability; the
predicted label is its argmax (ties go to the lowest class index). Expected
calibration error uses M equal-width confidence bins over (0, 1]: bin i
covers (i/M, (i+1)/M], with bin 0 closed at 0 so confidence 0 still lands
somewhere. Empty bins contribute nothing:

    ECE = sum_i  n_i / N * |acc_i - conf_i|
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ._fileio import SUMMARY_HEADER, atomic_text, c_table, csv_rows, fmt, row_line, write_csv
from .errors import (EmptyInput, MissingSigma, ParseError, TooFewValues,
                     ZeroVariance)
from .tiers import DEFAULT_BINS, DEFAULT_QUARTILES


class InvalidRow(ValueError):
    """A prediction row failed validation; `row` is its 0-based index."""

    def __init__(self, row, message):
        super().__init__(message)
        self.row = row


@dataclass(eq=False)
class Predictions:
    """Classifier outputs as parallel arrays: ids (N,), labels (N,), probs (N, C).

    Construction also sets `confidence` (N,), the row max, and `correct`
    (N,), first argmax == label. It raises InvalidRow, a ValueError, naming
    the first row that breaks the rules in the module docstring.
    """

    ids: np.ndarray
    labels: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=object)
        self.labels = np.asarray(self.labels)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        n, classes = self.probs.shape if self.probs.ndim == 2 else (0, 0)
        if (classes < 2 or self.ids.shape != (n,) or self.labels.shape != (n,)
                or (n and self.labels.dtype.kind not in "iu")):
            raise ValueError("need an (N, C) probs matrix with C >= 2, N ids "
                             "and N integer labels")
        # "not <=" also rejects a NaN sum, i.e. any non-finite probability
        total = self.probs.sum(axis=1)
        bad = (~(np.abs(total - 1.0) <= 1e-6) | (self.probs < 0.0).any(axis=1)
               | (self.labels < 0) | (self.labels >= classes))
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidRow(i, f"row {i} (sample {self.ids[i]!r}): need finite "
                             f"probabilities >= 0 summing to 1 and 0 <= true_label "
                             f"< {classes}, got sum {float(total[i])!r}, min "
                             f"{float(self.probs[i].min())!r}, "
                             f"true_label {self.labels[i]}")
        self.confidence = self.probs.max(axis=1)
        self.correct = self.probs.argmax(axis=1) == self.labels

    def __len__(self):
        return self.labels.size


def accuracy(preds):
    """Fraction of rows whose argmax matches the true label."""
    if not len(preds):
        raise EmptyInput("no prediction records")
    return int(preds.correct.sum()) / len(preds)


@dataclass(frozen=True)
class CalibrationBin:
    """One reliability-curve bin over the confidence interval (lo, hi]."""

    lo: float
    hi: float
    count: int
    mean_conf: float  # 0.0 when the bin is empty
    mean_acc: float   # 0.0 when the bin is empty


def reliability_curve(preds, bins=DEFAULT_BINS):
    """Per-bin counts, mean confidence and mean accuracy."""
    return _curve(preds.confidence, preds.correct, bins)


def _curve(conf, correct, bins):
    """Reliability curve of parallel confidence/correctness arrays.

    Bin membership is decided by direct comparison against the bin edges
    i/bins, never by rescaling, so boundary confidences land exactly where
    the interval definition says.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if not conf.size:
        raise EmptyInput("no prediction records")
    idx = np.digitize(conf, np.arange(1, bins) / bins, right=True)

    out = []
    for i in range(bins):
        sel = idx == i
        n = int(sel.sum())
        mean_conf = float(conf[sel].mean()) if n else 0.0
        mean_acc = float(correct[sel].mean()) if n else 0.0
        out.append(CalibrationBin(lo=i / bins, hi=(i + 1) / bins, count=n,
                                  mean_conf=mean_conf, mean_acc=mean_acc))
    return out


def ece(preds, bins=DEFAULT_BINS):
    """Expected calibration error, computed from the reliability curve."""
    return ece_from_curve(reliability_curve(preds, bins), len(preds))


def ece_from_curve(curve, total):
    """Reduce reliability-curve bins to the scalar ECE."""
    if total <= 0:
        raise EmptyInput("no prediction records")
    return float(sum(b.count / total * abs(b.mean_acc - b.mean_conf)
                     for b in curve))


def pearson(xs, ys):
    """Pearson correlation of two equal-length real vectors.

    Two-pass, mean-centered computation; the result is clipped to [-1, 1]
    to absorb last-ulp rounding. An input of extreme magnitude is first scaled
    by a power of two (exact; see _rescaled). Raises ValueError on a
    non-finite value, and ZeroVariance when either input is constant:
    correlation is undefined there, and callers must surface that rather
    than coerce it to a number.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and ys must be equal-length 1-D vectors")
    if x.size < 2:
        raise ValueError("need at least 2 values")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("xs and ys must be finite")
    x, y = _rescaled(x), _rescaled(y)
    xc = x - x.mean()
    yc = y - y.mean()
    # elementwise products and numpy's pairwise sum: a BLAS dot product
    # would round by the kernel OpenBLAS picks for the CPU
    sxx = float(np.sum(xc * xc))
    syy = float(np.sum(yc * yc))
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("one of the inputs is constant")
    r = float(np.sum(xc * yc)) / float(np.sqrt(sxx * syy))
    return min(1.0, max(-1.0, r))


def _rescaled(v):
    """v, or v scaled by the power of two that brings max |v| into [0.5, 1)
    when it lies outside [2^-151, 2^150), where sums of squares of centred
    values and their product stay finite and normal."""
    e = int(np.frexp(np.abs(v).max())[1])
    return np.ldexp(v, -e) if abs(e) > 150 else v


def _sigma_column(preds, sigma_by_id):
    """Each row's sigma_by_id[sample_id]; MissingSigma lists absent ids, and
    a non-finite sigma, which read_sigma_summary rejects, is a ValueError."""
    missing = sorted(sid for sid in preds.ids if sid not in sigma_by_id)
    if missing:
        raise MissingSigma(missing)
    sigma = np.array([sigma_by_id[sid] for sid in preds.ids], dtype=np.float64)
    if not np.isfinite(sigma).all():
        i = int(np.argmax(~np.isfinite(sigma)))
        raise ValueError(f"sample {preds.ids[i]!r}: sigma {float(sigma[i])!r} is not finite")
    return sigma


def uncertainty_correlation(preds, sigma_by_id):
    """Correlate predicted uncertainty (1 - confidence) with per-sample sigma.

    Every row needs a sigma entry; fewer than two rows leaves the
    correlation undefined.
    """
    sigma = _sigma_column(preds, sigma_by_id)
    if len(preds) < 2:
        raise ZeroVariance("need at least 2 records to correlate")
    return pearson(sigma, 1.0 - preds.confidence)


def quartile_bins(values, groups=DEFAULT_QUARTILES):
    """Split values into `groups` contiguous rank groups of near-equal size.

    Values are stable-sorted ascending and cut into groups whose sizes
    differ by at most one, larger groups first (10 values into 4 groups
    gives sizes 3, 3, 2, 2). Returns (boundaries, assignment) where
    boundaries[g] is the (lo, hi) value range of group g and assignment
    maps each input position to its group index. Ties at a boundary stay
    in input order thanks to the stable sort.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be 1-D")
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if v.size < groups:
        raise TooFewValues(f"need at least {groups} values, got {v.size}")

    order = np.argsort(v, kind="stable")
    base, extra = divmod(v.size, groups)
    sizes = [base + 1] * extra + [base] * (groups - extra)
    assignment = np.empty(v.size, dtype=np.intp)
    assignment[order] = np.repeat(np.arange(groups), sizes)
    ends = np.cumsum(sizes)
    boundaries = [(float(v[order[end - size]]), float(v[order[end - 1]]))
                  for size, end in zip(sizes, ends)]
    return boundaries, assignment


@dataclass(frozen=True)
class QuartileEce:
    """Calibration error within one pooled-sigma rank group."""

    quartile: int
    sigma_lo: float
    sigma_hi: float
    count: int
    ece: float


def stratified_ece(tier_sets, quartiles=DEFAULT_QUARTILES, bins=DEFAULT_BINS):
    """ECE stratified by ground-truth noise scale, pooled across tiers.

    tier_sets is a sequence of (Predictions, sigma_by_id) pairs, one per
    noise tier. All rows are pooled, ranked by sigma (ties resolved by
    sample id, then input order), and split into near-equal rank groups;
    quartile 0 holds the least-noisy samples. Each group's rows are scored
    with the same binning as ece(..., bins).
    """
    tiers = [(p.ids, _sigma_column(p, sigma_by_id), p.confidence, p.correct)
             for p, sigma_by_id in tier_sets]
    if not sum(len(ids) for ids, *_ in tiers):
        raise EmptyInput("no prediction records in any tier")
    ids, sigma, conf, correct = (np.concatenate(col) for col in zip(*tiers))
    # order by sample id first so the stable sigma sort breaks ties on it
    by_id = np.argsort(ids, kind="stable")
    boundaries, assignment = quartile_bins(sigma[by_id], groups=quartiles)

    out = []
    for g, (lo, hi) in enumerate(boundaries):
        members = by_id[assignment == g]  # pooled rows, in sample-id order
        curve = _curve(conf[members], correct[members], bins)
        out.append(QuartileEce(quartile=g, sigma_lo=lo, sigma_hi=hi, count=members.size,
                               ece=ece_from_curve(curve, members.size)))
    return out


@dataclass
class EvalReport:
    """Everything the evaluate command reports for one prediction file."""

    accuracy: float
    ece: float
    curve: list
    pearson_r: Optional[float]  # None when correlation is undefined
    n: int
    bin_count: int

    def text(self):
        """The key=value lines of report.txt, which evaluate also prints."""
        pearson_r = ("undefined(zero_variance)" if self.pearson_r is None
                     else fmt(self.pearson_r))
        return (f"accuracy={fmt(self.accuracy)}\nece={fmt(self.ece)}\n"
                f"pearson_r={pearson_r}\nn={self.n}\nbins={self.bin_count}\n")


def evaluate(preds, sigma_by_id, bins=DEFAULT_BINS):
    """Score one prediction set against its sigma summary.

    A constant input on either side of the uncertainty correlation (for
    example the zero-noise tier, where sigma is identically 0) yields
    pearson_r=None; accuracy and calibration are still reported.
    """
    curve = reliability_curve(preds, bins)
    try:
        pearson_r = uncertainty_correlation(preds, sigma_by_id)
    except ZeroVariance:
        pearson_r = None
    return EvalReport(accuracy=accuracy(preds), ece=ece_from_curve(curve, len(preds)),
                      curve=curve, pearson_r=pearson_r, n=len(preds),
                      bin_count=bins)


def _predictions_header(header):
    return (len(header) >= 4 and header[:2] == ["sample_id", "true_label"]
            and header[2:] == [f"p_{i}" for i in range(len(header) - 2)])


def read_predictions(path):
    """Parse a predictions CSV (sample_id,true_label,p_0,...,p_{C-1}).

    A row that fails Predictions validation is reported at its file line.
    """
    columns = _c_predictions(path)
    if columns is None:
        ids, labels, flat = [], [], []
        for lineno, row in csv_rows(path, "predictions", _predictions_header):
            try:
                labels.append(int(row[1]))
                if not -2**63 <= labels[-1] < 2**63:
                    # out of range for any class count; Predictions holds the range rule
                    raise ParseError(f"true_label {row[1]} does not fit in 64 bits",
                                     path=path, line=lineno)
                flat.extend(map(float, row[2:]))
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            ids.append(row[0])
        if not ids:
            raise EmptyInput(f"{path}: no prediction rows")
        columns = ids, np.array(labels, dtype=np.int64), np.array(flat).reshape(len(ids), -1)
    try:
        return Predictions(*columns)
    except InvalidRow as exc:  # either parser's rows are csv_rows' rows
        rows = csv_rows(path, "predictions", _predictions_header)
        raise ParseError(str(exc), path=path, line=row_line(rows, exc.row)) from None


def _plain_lines(path, header_ok):
    """Yield the header, then each non-blank line, of `path` read with
    universal newlines, which end lines where csv_rows ends records, as "\n".
    ValueError leaves the file to csv_rows: bad UTF-8, a header header_ok
    refuses, or a line csv.reader may not split at each "," alone: one with
    '"', NUL (refused before Python 3.11) or past csv's field size limit."""
    limit = csv.field_size_limit()
    with open(path, encoding="utf-8") as fh:
        header = next(fh, "")
        if len(header) > limit or not header_ok(header.rstrip("\n").split(",")):
            raise ValueError("not a plain header")
        yield header
        for line in fh:
            if line != "\n":  # a blank line holds no row
                if '"' in line or "\0" in line or len(line) > limit:
                    raise ValueError("not a plain line")
                yield line


def _c_predictions(path):
    """read_predictions' (ids, labels, probs) of a file _plain_lines reads,
    by numpy's C reader after each true_label; None for any other file."""
    ids, labels, tails = [], [], []
    try:
        lines = _plain_lines(path, _predictions_header)
        classes = next(lines).count(",") - 1
        for sid, label, tail in (line.split(",", 2) for line in lines):
            ids.append(sid)
            labels.append(int(label))
            tails.append(tail)
        # a repeated id is csv_rows' to report, at its line; the C reader
        # strips U+001C..U+001F from a field's ends, and float() does not
        if len(set(ids)) < len(ids) or any("\x1c" in s or "\x1d" in s or "\x1e" in s
                                           or "\x1f" in s for s in tails):
            return None
        probs = c_table(tails, classes, ",")
        # the C reader skips an empty tail ("b,1,"), which csv_rows reports
        if probs is None or len(probs) != len(ids):
            return None
        return ids, np.array(labels, np.int64), probs
    except (ValueError, OverflowError):  # bad UTF-8, row or label
        return None


def _summary_header(header):
    return tuple(header) == SUMMARY_HEADER


def read_sigma_summary(path):
    """Parse a sigma summary CSV into {sample_id: mean_sigma}. A file
    _plain_lines reads, with distinct ids and finite sigmas, is read without
    csv; csv_rows reads any other and reports its fault at its line."""
    table = {}
    try:
        lines = _plain_lines(path, _summary_header)
        next(lines)
        for sid, _, sigma, _, _ in (line.split(",") for line in lines):
            if sid in table:
                raise ValueError(f"duplicate sample_id {sid!r}")
            table[sid] = float(sigma)
        if table and all(map(math.isfinite, table.values())):
            return table
    except ValueError:  # bad UTF-8, line, column count, sigma or a repeated id
        pass
    table = {}
    for lineno, row in csv_rows(path, "summary", _summary_header):
        try:
            sigma = float(row[2])
        except ValueError:
            sigma = math.nan
        if not math.isfinite(sigma):
            raise ParseError(f"bad mean_sigma {row[2]!r}", path=path, line=lineno)
        table[row[0]] = sigma
    if not table:
        raise EmptyInput(f"{path}: no summary rows")
    return table


def write_report(out_dir, report):
    """Write report.txt and curve.csv."""
    out_dir = Path(out_dir)
    with atomic_text(out_dir / "report.txt") as fh:
        fh.write(report.text())
    write_csv(out_dir / "curve.csv", ["bin_lo", "bin_hi", "count", "mean_conf", "mean_acc"],
              ([fmt(b.lo), fmt(b.hi), b.count, fmt(b.mean_conf), fmt(b.mean_acc)]
               for b in report.curve))


def write_stratified(path, rows):
    write_csv(path, ["quartile", "sigma_lo", "sigma_hi", "count", "ece"],
              ([q.quartile, fmt(q.sigma_lo), fmt(q.sigma_hi), q.count, fmt(q.ece)]
               for q in rows))
