"""Tests for accuracy, calibration error, correlation, and stratification."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import ece_oracle
from noisebench import (EmptyInput, MissingSigma, ParseError, Predictions,
                        TooFewValues, ZeroVariance, accuracy, ece, evaluate,
                        pearson, quartile_bins, read_predictions,
                        read_sigma_summary, reliability_curve, stratified_ece,
                        uncertainty_correlation)
from noisebench.metrics import InvalidRow, ece_from_curve, write_report


def preds(rows):
    """Predictions from (sample_id, true_label, probs) rows."""
    ids, labels, probs = zip(*rows)
    return Predictions(ids, labels, probs)


def two_class(sid, conf, correct):
    """Row with confidence `conf` on class 0; correct controls the label."""
    return (sid, 0 if correct else 1, [conf, 1.0 - conf])


def test_predictions_validation():
    with pytest.raises(ValueError):
        preds([("a", 0, [0.7, 0.2])])           # does not sum to 1
    with pytest.raises(ValueError):
        preds([("a", 0, [1.2, -0.2])])          # negative entry
    with pytest.raises(ValueError):
        preds([("a", 2, [0.5, 0.5])])           # label out of range
    with pytest.raises(ValueError):
        preds([("a", 0, [1.0])])                # fewer than 2 classes
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            preds([("a", 0, [bad, 1.0])])       # non-finite entry
    with pytest.raises(ValueError):
        preds([("a", 0.5, [0.5, 0.5])])         # non-integer label
    with pytest.raises(ValueError):
        Predictions(["a", "b"], [0], [[0.5, 0.5]])  # ragged columns

    # the error names the first bad row, whatever its fault
    rows = [two_class(f"s{i}", 0.75, True) for i in range(6)]
    rows[4] = ("s4", 0, [0.7, 0.2])
    rows[2] = ("s2", 0, [0.5, math.nan])
    with pytest.raises(InvalidRow) as info:
        preds(rows)
    assert info.value.row == 2
    assert "'s2'" in str(info.value)


def test_confidence_and_argmax_tie_break():
    p = preds([("a", 0, [0.4, 0.4, 0.2]), ("b", 1, [0.4, 0.4, 0.2])])
    assert list(p.confidence) == [0.4, 0.4]
    # the tie resolves to the lowest class index, so only "a" is correct
    assert list(p.correct) == [True, False]
    assert len(p) == 2
    # predicted uncertainty (1 - confidence) of a uniform 40-class row
    assert 1.0 - preds([("a", 0, [1.0 / 40.0] * 40)]).confidence[0] == 0.975


def test_accuracy():
    records = preds([two_class("a", 0.9, True), two_class("b", 0.8, False),
                     two_class("c", 0.7, True), two_class("d", 0.6, True)])
    assert accuracy(records) == 0.75
    with pytest.raises(EmptyInput):
        accuracy(Predictions([], [], np.empty((0, 2))))


def test_ece_single_bin_example():
    # three records at confidence 0.8, two correct: ECE = |2/3 - 0.8|
    records = preds([two_class("a", 0.8, True), two_class("b", 0.8, True),
                     two_class("c", 0.8, False)])
    expected = abs(2.0 / 3.0 - 0.8)
    assert ece(records, bins=1) == pytest.approx(expected, abs=1e-12)
    # same value with 15 bins: all three land in the same bin
    assert ece(records, bins=15) == pytest.approx(expected, abs=1e-12)


def test_ece_perfectly_confident_and_correct():
    records = preds([(str(i), i % 3, np.eye(3)[i % 3]) for i in range(9)])
    assert ece(records, bins=15) == 0.0


def test_ece_bin_edges_are_half_open():
    # confidence exactly 0.5 belongs to bin 0 of 2: (0, 0.5]
    records = preds([two_class("a", 0.5, True)])
    curve = reliability_curve(records, bins=2)
    assert curve[0].count == 1 and curve[1].count == 0
    # nudged up, it moves to bin 1: (0.5, 1]
    records = preds([two_class("b", 0.5 + 1e-9, True)])
    curve = reliability_curve(records, bins=2)
    assert curve[0].count == 0 and curve[1].count == 1
    # confidence 1.0 stays in the top bin
    records = preds([two_class("c", 1.0, True)])
    assert reliability_curve(records, bins=15)[14].count == 1


def test_reliability_curve_structure():
    rng = np.random.default_rng(70)
    records = []
    for i in range(200):
        p = rng.dirichlet([1.5] * 4)
        records.append((f"r{i}", int(rng.integers(4)), p))
    records = preds(records)
    curve = reliability_curve(records, bins=10)
    assert len(curve) == 10
    assert sum(b.count for b in curve) == 200
    for b in curve:
        assert b.hi > b.lo
        if b.count:
            assert b.lo <= b.mean_conf <= b.hi
            assert 0.0 <= b.mean_acc <= 1.0
        else:
            assert b.mean_conf == 0.0 and b.mean_acc == 0.0
    # the scalar is exactly the curve reduction
    assert ece(records, bins=10) == ece_from_curve(curve, 200)


def test_ece_matches_oracle_on_random_sets():
    rng = np.random.default_rng(71)
    for trial in range(200):
        n = int(rng.integers(1, 33))
        classes = int(rng.integers(2, 6))
        bins = int(rng.integers(1, 21))
        records = [(f"t{trial}_{i}", int(rng.integers(classes)),
                    rng.dirichlet([1.0] * classes)) for i in range(n)]
        assert ece(preds(records), bins=bins) == pytest.approx(
            ece_oracle([(label, probs) for _, label, probs in records], bins), abs=1e-12)


def test_pearson_closed_form():
    # hand-computable: r = 15 / sqrt(6 * 38)
    assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(
        15.0 / math.sqrt(228.0), abs=1e-15)
    assert pearson([1, 2, 3], [2, 4, 5]) == pytest.approx(
        9.0 / math.sqrt(84.0), abs=1e-15)


def test_pearson_endpoints_and_bounds():
    x = [0.1, 0.2, 0.3, 0.4]
    assert pearson(x, [2.0 * v + 1.0 for v in x]) == pytest.approx(1.0, abs=1e-9)
    assert pearson(x, [-3.0 * v for v in x]) == pytest.approx(-1.0, abs=1e-9)
    rng = np.random.default_rng(72)
    for _ in range(50):
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        assert -1.0 <= pearson(a, b) <= 1.0


def test_pearson_affine_invariance():
    rng = np.random.default_rng(73)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    base = pearson(x, y)
    assert pearson(2.5 * x + 7.0, y) == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("scale", [1e160, 1e-170, -4e307, 5e-324, 2.0**600, 2.0**-600])
def test_pearson_extreme_scales(scale):
    # r does not depend on scale, also where the centred squares, their sums
    # or the mean would overflow or underflow; a power of two keeps its bits
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([0.1, 0.3, 0.2, 0.4])
    r = pearson(x, y)
    assert r == pytest.approx(0.8, abs=1e-15)
    want = math.copysign(r, scale)
    assert pearson(x * scale, y) == pytest.approx(want, abs=1e-14)
    assert pearson(y, x * scale) == pytest.approx(want, abs=1e-14)
    if math.frexp(scale)[0] == 0.5:
        assert pearson(x * scale, y) == want


def test_pearson_zero_variance_is_an_error():
    with pytest.raises(ZeroVariance):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVariance):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_pearson_input_validation():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            pearson([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


def test_uncertainty_correlation_perfect():
    confs = [0.9, 0.8, 0.7, 0.6]
    records = preds([two_class(f"s{i}", c, True) for i, c in enumerate(confs)])
    sigma = {f"s{i}": 1.0 - c for i, c in enumerate(confs)}
    assert uncertainty_correlation(records, sigma) == pytest.approx(1.0, abs=1e-9)


def test_uncertainty_correlation_missing_ids():
    records = preds([two_class("a", 0.9, True), two_class("b", 0.8, True)])
    with pytest.raises(MissingSigma) as info:
        uncertainty_correlation(records, {"a": 0.1})
    assert info.value.sample_ids == ["b"]


def test_uncertainty_correlation_constant_sigma():
    records = preds([two_class("a", 0.9, True), two_class("b", 0.8, True)])
    with pytest.raises(ZeroVariance):
        uncertainty_correlation(records, {"a": 0.0, "b": 0.0})


def test_quartile_sizes_largest_first():
    boundaries, assignment = quartile_bins(np.arange(10.0), groups=4)
    sizes = [int((assignment == g).sum()) for g in range(4)]
    assert sizes == [3, 3, 2, 2]
    assert boundaries == [(0.0, 2.0), (3.0, 5.0), (6.0, 7.0), (8.0, 9.0)]


def test_quartile_assignment_matches_sorted_order():
    rng = np.random.default_rng(74)
    values = rng.standard_normal(1000)
    boundaries, assignment = quartile_bins(values, groups=4)
    # brute-force oracle: sort, then slice into near-equal runs
    order = sorted(range(len(values)), key=lambda i: values[i])
    base, extra = divmod(len(values), 4)
    expected = np.empty(len(values), dtype=int)
    pos = 0
    for g in range(4):
        size = base + (1 if g < extra else 0)
        for i in order[pos:pos + size]:
            expected[i] = g
        pos += size
    assert_array_equal(assignment, expected)
    for g in range(3):
        assert boundaries[g][1] <= boundaries[g + 1][0]


def test_quartile_ties_stay_in_input_order():
    values = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0]
    _, assignment = quartile_bins(values, groups=2)
    assert list(assignment) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_quartile_too_few_values():
    with pytest.raises(TooFewValues):
        quartile_bins([1.0, 2.0, 3.0], groups=4)


def test_stratified_two_tier_blocks():
    # tier A: low sigma, 3 of 4 correct per group; tier B: high sigma, 1 of 4
    tier_a = preds([two_class(f"a{i}", 0.8, correct=(i % 4 != 3)) for i in range(8)])
    sig_a = {f"a{i}": 0.001 * (i + 1) for i in range(8)}
    tier_b = preds([two_class(f"b{i}", 0.8, correct=(i % 4 == 0)) for i in range(8)])
    sig_b = {f"b{i}": 0.011 + 0.001 * i for i in range(8)}

    rows = stratified_ece([(tier_a, sig_a), (tier_b, sig_b)], quartiles=4, bins=15)
    assert [q.count for q in rows] == [4, 4, 4, 4]
    g1 = abs(3.0 / 4.0 - 0.8)
    g2 = abs(1.0 / 4.0 - 0.8)
    assert rows[0].ece == pytest.approx(g1, abs=1e-12)
    assert rows[1].ece == pytest.approx(g1, abs=1e-12)
    assert rows[2].ece == pytest.approx(g2, abs=1e-12)
    assert rows[3].ece == pytest.approx(g2, abs=1e-12)
    assert rows[0].sigma_lo == pytest.approx(0.001)
    assert rows[0].sigma_hi == pytest.approx(0.004)
    assert rows[3].sigma_hi == pytest.approx(0.018)
    # quartile index increases with sigma
    for lo_row, hi_row in zip(rows, rows[1:]):
        assert lo_row.sigma_hi <= hi_row.sigma_lo


def test_stratified_requires_sigma_for_every_record():
    tier = preds([two_class("a", 0.8, True)])
    with pytest.raises(MissingSigma):
        stratified_ece([(tier, {})], quartiles=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_metrics_refuse_non_finite_sigma(bad):
    # read_sigma_summary rejects such a row; a sigma_by_id built in code must
    # fail too, naming its sample, and not be ranked or reach pearson
    records = preds([two_class(f"s{i}", 0.6 + 0.05 * i, i != 1) for i in range(4)])
    sigma = {f"s{i}": 0.01 * (i + 1) for i in range(4)}
    sigma["s2"] = bad
    for score in (lambda: evaluate(records, sigma),
                  lambda: stratified_ece([(records, sigma)], quartiles=2)):
        with pytest.raises(ValueError, match="'s2'"):
            score()


def test_evaluate_full_report():
    confs = [0.9, 0.8, 0.7, 0.95]
    records = preds([two_class(f"s{i}", c, correct=(i != 1))
                     for i, c in enumerate(confs)])
    sigma = {f"s{i}": 0.005 + 0.002 * i for i in range(4)}
    report = evaluate(records, sigma, bins=10)
    assert report.n == 4
    assert report.bin_count == 10
    assert report.accuracy == 0.75
    assert report.ece == ece(records, bins=10)
    assert report.pearson_r is not None
    assert len(report.curve) == 10


def test_evaluate_zero_noise_sigma_gives_undefined_pearson():
    records = preds([two_class(f"s{i}", 0.6 + 0.05 * i, True) for i in range(4)])
    sigma = {f"s{i}": 0.0 for i in range(4)}
    report = evaluate(records, sigma)
    assert report.pearson_r is None
    assert report.accuracy == 1.0


def test_evaluate_single_record():
    report = evaluate(preds([two_class("only", 0.9, True)]), {"only": 0.01})
    assert report.accuracy == 1.0
    assert report.pearson_r is None  # one point cannot correlate


def test_read_predictions(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text(
        "sample_id,true_label,p_0,p_1,p_2\n"
        "a,0,0.7,0.2,0.1\n"
        "b,2,0.1,0.2,0.7\n"
    )
    records = read_predictions(path)
    assert len(records) == 2
    assert list(records.ids) == ["a", "b"]
    assert list(records.labels) == [0, 2]
    assert list(records.correct) == [True, True]  # argmax 0 and 2
    assert records.confidence[1] == 0.7


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_read_predictions_roundtrip(tmp_path_factory, data):
    n = data.draw(st.integers(1, 12))
    classes = data.draw(st.integers(2, 6))
    ids = data.draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                                     max_size=6), min_size=n, max_size=n, unique=True))
    labels = data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    weights = np.array(data.draw(st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                 min_size=classes, max_size=classes), min_size=n, max_size=n)))
    weights[weights.sum(axis=1) == 0.0] = 1.0
    probs = weights / weights.sum(axis=1, keepdims=True)
    blanks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))

    path = tmp_path_factory.mktemp("preds") / "preds.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "true_label"] +
                        [f"p_{i}" for i in range(classes)])
        for sid, label, row, blank in zip(ids, labels, probs, blanks):
            if blank:
                writer.writerow([])
            writer.writerow([sid, label] + [repr(float(p)) for p in row])

    got = read_predictions(path)
    assert len(got) == n
    assert list(got.ids) == ids
    assert_array_equal(got.labels, labels)
    assert_array_equal(got.probs, probs)


def test_read_predictions_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("sample,label,p_0,p_1\na,0,0.5,0.5\n")
    with pytest.raises(ParseError):
        read_predictions(bad_header)

    bad_sum = tmp_path / "s.csv"
    bad_sum.write_text("sample_id,true_label,p_0,p_1\na,0,0.7,0.1\n")
    with pytest.raises(ParseError) as info:
        read_predictions(bad_sum)
    assert info.value.line == 2

    # line numbers count the header and blank lines, not data rows
    after_blank = tmp_path / "b.csv"
    after_blank.write_text("sample_id,true_label,p_0,p_1\n"
                           "a,0,0.5,0.5\n\nb,1,0.5,0.5\nc,0,-0.5,1.5\n")
    with pytest.raises(ParseError) as info:
        read_predictions(after_blank)
    assert info.value.line == 5

    # a row with no probability at all, with and without a final line end
    for tail in ("\n", ""):
        no_probs = tmp_path / "e.csv"
        no_probs.write_text(f"sample_id,true_label,p_0,p_1\na,0,0.5,0.5\nb,1,{tail}")
        with pytest.raises(ParseError, match="expected 4 columns, got 3") as info:
            read_predictions(no_probs)
        assert info.value.line == 3

    # a quoted id spanning two lines: errors cite the line a record starts on
    multiline = tmp_path / "q.csv"
    multiline.write_text('sample_id,true_label,p_0,p_1\n'
                         '"two\nlines",0,0.5,0.5\nb,1,0.5,0.5\nc,0,-0.5,1.5\n')
    with pytest.raises(ParseError) as info:
        read_predictions(multiline)
    assert info.value.line == 5

    # a bad byte inside a quoted field is reported at its own physical line
    multiline.write_bytes(b'sample_id,true_label,p_0,p_1\n"two\nl\xffines",0,0.5,0.5\n')
    with pytest.raises(ParseError, match="UTF-8") as info:
        read_predictions(multiline)
    assert info.value.line == 3

    for bad in ("nan", "inf", "-inf"):
        non_finite = tmp_path / "n.csv"
        non_finite.write_text("sample_id,true_label,p_0,p_1\n"
                              f"a,0,1.0,0.0\nb,0,{bad},1.0\n")
        with pytest.raises(ParseError) as info:
            read_predictions(non_finite)
        assert info.value.line == 3

    # labels beyond 64 bits are out of range like any other, not a shape error
    for bad in ("99999999999999999999", "-99999999999999999999"):
        huge = tmp_path / "l.csv"
        huge.write_text(f"sample_id,true_label,p_0,p_1\na,0,1.0,0.0\nb,{bad},0.5,0.5\n")
        with pytest.raises(ParseError, match="true_label") as info:
            read_predictions(huge)
        assert info.value.line == 3

    short_row = tmp_path / "r.csv"
    short_row.write_text("sample_id,true_label,p_0,p_1\na,0,0.5\n")
    with pytest.raises(ParseError) as info:
        read_predictions(short_row)
    assert info.value.line == 2

    # a quoted header sends the file to the csv reader, which finds no row
    empty = tmp_path / "e.csv"
    for header in ("sample_id,true_label,p_0,p_1\n", '"sample_id",true_label,p_0,p_1\n'):
        empty.write_text(header)
        with pytest.raises(EmptyInput):
            read_predictions(empty)


def test_read_predictions_reports_first_bad_line(tmp_path):
    # whichever kind of error a row has, the first bad line in the file is
    # the one reported
    path = tmp_path / "p.csv"
    huge, bad_float = "b,99999999999999999999,0.5,0.5\n", "b,0,0.5,half\n"
    for rows, match in (((huge, bad_float), "true_label"), ((bad_float, huge), "half")):
        path.write_text("sample_id,true_label,p_0,p_1\n" + "".join(rows))
        with pytest.raises(ParseError, match=match) as info:
            read_predictions(path)
        assert info.value.line == 2


def test_read_sigma_summary(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(
        "sample_id,label,mean_sigma,mean_mu,outlier_count\n"
        "a,0,0.011,0.001,3\n"
        "b,1,0.013,0.002,0\n"
    )
    table = read_sigma_summary(path)
    assert table == {"a": 0.011, "b": 0.013}

    dup = tmp_path / "dup.csv"
    dup.write_text(
        "sample_id,label,mean_sigma,mean_mu,outlier_count\n"
        "a,0,0.011,0.001,3\n"
        "a,0,0.012,0.001,1\n"
    )
    with pytest.raises(ParseError):
        read_sigma_summary(dup)

    for bad in ("nan", "inf", "-inf"):
        non_finite = tmp_path / "n.csv"
        non_finite.write_text("sample_id,label,mean_sigma,mean_mu,outlier_count\n"
                              f"a,0,0.011,0.001,3\nb,1,{bad},0.002,0\n")
        with pytest.raises(ParseError) as info:
            read_sigma_summary(non_finite)
        assert info.value.line == 3


def test_write_report_roundtrip(tmp_path):
    records = preds([two_class(f"s{i}", 0.55 + 0.1 * i, correct=(i % 2 == 0))
                     for i in range(5)])
    sigma = {f"s{i}": 0.002 * (i + 1) for i in range(5)}
    report = evaluate(records, sigma, bins=8)
    write_report(tmp_path, report)

    text = (tmp_path / "report.txt").read_text().splitlines()
    fields = dict(line.split("=", 1) for line in text)
    assert float(fields["accuracy"]) == report.accuracy
    assert float(fields["ece"]) == report.ece
    assert float(fields["pearson_r"]) == report.pearson_r
    assert int(fields["n"]) == 5
    assert int(fields["bins"]) == 8

    # ece is exactly recomputable from the emitted curve
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,mean_conf,mean_acc"
    total = 0.0
    n = 0
    for line in lines[1:]:
        _, _, count, mean_conf, mean_acc = line.split(",")
        n += int(count)
        total += int(count) * abs(float(mean_acc) - float(mean_conf))
    assert total / n == pytest.approx(report.ece, abs=1e-12)


def test_write_report_undefined_marker(tmp_path):
    records = preds([two_class(f"s{i}", 0.6 + 0.05 * i, True) for i in range(3)])
    report = evaluate(records, {f"s{i}": 0.0 for i in range(3)})
    write_report(tmp_path, report)
    assert "pearson_r=undefined(zero_variance)" in \
        (tmp_path / "report.txt").read_text().splitlines()
