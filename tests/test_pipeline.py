"""Tests for tier presets, seeding, file formats, and batch generation."""

import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import importlib.util
import math
import multiprocessing
import os
import pickle
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from conftest import tree_digest, unit_sphere_cloud, write_benchmark_manifest
from noisebench import (DEFAULT_NORMAL_K, AnnotatedCloud, DegenerateRay, EmptyCloud,
                        EmptyInput, GenerationError, InsufficientPoints, Manifest,
                        MissingSigma, NoiseBenchError, NoiseParams, ParseError, Predictions,
                        SampleEntry, TIER_NAMES, TierConfig, TooFewValues, UnknownTier,
                        ZeroVariance, corrupt_cloud, generate_benchmark, preset_config,
                        read_annotated, read_cloud, read_manifest, read_predictions,
                        read_sigma_summary, read_tier_config, sample_seed, tier_params,
                        write_annotated, write_cloud)
from noisebench import _fileio, metrics, pipeline
from noisebench.cli import main


def test_tier_names_mild_to_harsh():
    assert TIER_NAMES == ("none", "light", "moderate", "heavy")


def test_tier_preset_values():
    presets = {"none": dict(a=0.0, b=0.0, c=0.0, k=0.0, p_out=0.0),
               "light": dict(a=0.003, b=0.001, c=1.5, k=0.005, p_out=0.01),
               "moderate": dict(a=0.005, b=0.002, c=2.0, k=0.010, p_out=0.02),
               "heavy": dict(a=0.010, b=0.003, c=3.0, k=0.015, p_out=0.05)}
    for name, values in presets.items():
        params = tier_params(name)
        assert params == NoiseParams(**values) == NoiseParams(*values.values())
        assert hash(params) == hash(NoiseParams(**values))
        assert params._asdict() == values
    assert repr(tier_params("moderate")) == (
        "NoiseParams(a=0.005, b=0.002, c=2.0, k=0.01, p_out=0.02)")


def test_unknown_tier():
    with pytest.raises(UnknownTier):
        tier_params("extreme")


def test_tier_config_none_must_be_zero():
    with pytest.raises(ValueError):
        TierConfig(name="none", params=tier_params("light"))


def test_tier_name_must_be_plain_file_name(tmp_path):
    manifest = read_manifest(write_benchmark_manifest(tmp_path / "in", 2, 24, seed=94))
    out = tmp_path / "in" / "out"
    for name in ("", ".", "..", "./../escaped", "a/b", "a\\b"):
        with pytest.raises(ValueError, match="plain file name"):
            generate_benchmark(manifest, TierConfig(name=name, params=tier_params("light")),
                               out)
    assert not out.exists()
    assert sorted(p.name for p in (tmp_path / "in").iterdir()) == ["clouds", "manifest.csv"]


def test_sample_seed_matches_documented_construction():
    payload = struct.pack("<Q", 42) + "chair_0042".encode("utf-8")
    expected = int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")
    assert sample_seed(42, "chair_0042") == expected
    # frozen value so the construction cannot drift silently
    assert sample_seed(0, "s000") == 11532257301361493577


def test_sample_seed_distinctness():
    seeds = {sample_seed(7, f"sample{i}") for i in range(200_000)}
    assert len(seeds) == 200_000
    assert sample_seed(1, "x") != sample_seed(2, "x")
    assert all(0 <= sample_seed(0, sid) < 2**64 for sid in ("a", "b", "0"))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_global_seed_out_of_range_rejected(seed):
    # masking to 64 bits would alias these with 2**64 - 1 and 0
    with pytest.raises(ValueError, match="global seed"):
        sample_seed(seed, "s0")
    with pytest.raises(ValueError, match="global seed"):
        dataclasses.replace(preset_config("light"), global_seed=seed)


def test_cloud_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(40)
    pts = np.vstack([
        rng.standard_normal((50, 3)) * 1e3,
        rng.standard_normal((50, 3)) * 1e-8,
        [[0.1, -0.0, 1e300], [1e-300, 2.0 / 3.0, -5.5]],
    ])
    path = tmp_path / "cloud.xyz"
    write_cloud(path, pts)
    assert_array_equal(read_cloud(path), pts)


def test_read_cloud_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n\n1.0 2.0 3.0\n# mid\n4 5 6\n")
    assert_array_equal(read_cloud(path), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_read_cloud_errors(tmp_path):
    short = tmp_path / "short.xyz"
    short.write_text("1 2\n")
    with pytest.raises(ParseError) as info:
        read_cloud(short)
    assert info.value.line == 1

    bad = tmp_path / "bad.xyz"
    bad.write_text("1.0 2.0 3.0\n1.0 nope 3.0\n")
    with pytest.raises(ParseError) as info:
        read_cloud(bad)
    assert info.value.line == 2

    # numpy's C reader warns on a file with no data; no warning gets out
    empty = tmp_path / "empty.xyz"
    for text in ("# nothing here\n", "", "\n \t\r\n\r", "\n# mid\n"):
        empty.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyCloud):
                read_cloud(empty)

    # a bad byte fails at its line, even in a comment, and lines end at
    # "\n", "\r\n" or "\r" as for every other error; the first bad line in
    # file order is the one reported
    latin1 = tmp_path / "latin1.xyz"
    for nl in (b"\n", b"\r\n", b"\r"):
        for lines, line, what in (([b"1 2 3", b"", b"# caf\xe9", b"4 5 6"], 3, "UTF-8"),
                                  ([b"1 2 3", b"x y z", b"# caf\xe9"], 2, "float")):
            latin1.write_bytes(nl.join(lines) + nl)
            with pytest.raises(ParseError, match=what) as info:
                read_cloud(latin1)
            assert (info.value.path, info.value.line) == (latin1, line)


@pytest.mark.parametrize("kind", ["cloud", "predictions", "summary"])
def test_readers_stream_their_input(tmp_path, kind):
    # a reader holds the parsed values, not copies of the file's text; sizes
    # are the benchmark's scan cloud and ModelNet40's 2,468-row test split
    path = tmp_path / kind
    if kind == "cloud":
        write_cloud(path, unit_sphere_cloud(8192, seed=7))
        reader = read_cloud
    elif kind == "summary":
        rng = np.random.default_rng(7)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_fileio.SUMMARY_HEADER)
            writer.writerows([f"s{i:04d}", i % 40, repr(sigma), repr(sigma / 7), i % 5]
                             for i, sigma in enumerate(rng.uniform(0.0, 0.02, 2468).tolist()))
        reader = read_sigma_summary
    else:
        probs = np.random.default_rng(7).dirichlet(np.ones(40), size=2468)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "true_label"] + [f"p_{i}" for i in range(40)])
            writer.writerows([f"s{i:04d}", i % 40, *map(repr, row)]
                             for i, row in enumerate(probs.tolist()))
        reader = read_predictions
    tracemalloc.start()
    try:
        reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_read_cloud_rejects_non_finite(tmp_path, token):
    path = tmp_path / "nonfinite.xyz"
    path.write_text(f"1.0 2.0 3.0\n# comment\n1.0 {token} 3.0\n")
    with pytest.raises(ParseError) as info:
        read_cloud(path)
    assert info.value.line == 3


def test_value_errors_found_by_the_c_reader_parse_once(tmp_path, monkeypatch):
    # a value rule broken in a file the C reader takes is reported at its
    # line by reading the file up to that row, not by parsing all of it again
    yielded = {}

    def counted(reader):
        def wrapper(*args):
            for item in reader(*args):
                yielded[reader.__name__] = yielded.get(reader.__name__, 0) + 1
                yield item
        return wrapper

    monkeypatch.setattr(_fileio, "data_lines", counted(_fileio.data_lines))
    monkeypatch.setattr(metrics, "csv_rows", counted(metrics.csv_rows))
    cloud = tmp_path / "nan.xyz"
    cloud.write_text("".join(f"{i} {'nan' if i == 2 else 0} 1\n" for i in range(50)))
    preds = tmp_path / "sum.csv"
    preds.write_text("sample_id,true_label,p_0,p_1\n" + "".join(
        f"s{i},0,{p},{p}\n" for i, p in enumerate([0.5, 0.5, 0.75] + [0.5] * 47)))
    for read, path, message in (
            (read_cloud, cloud, f"{cloud}:3: non-finite value in [2.0, nan, 1.0]"),
            (read_predictions, preds, f"{preds}:4: row 2 (sample 's2'): need finite "
             "probabilities >= 0 summing to 1 and 0 <= true_label < 2, got sum 1.5, min "
             "0.75, true_label 0")):
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value) == message
    assert yielded == {"data_lines": 3, "csv_rows": 3}


_EDGE_FLOATS = (-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308)
_NOT_A_LINE = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters="\r\n"), max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cloud_roundtrip_with_comments(tmp_path_factory, data):
    n = data.draw(st.integers(1, 10))
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))
    pts = data.draw(arrays(np.float64, (n, 3), elements=floats))
    sigma, mu = (data.draw(arrays(np.float64, n, elements=floats)) for _ in range(2))
    outlier = data.draw(arrays(np.bool_, n))
    ann = AnnotatedCloud(corrupted=pts, sigma=sigma, mu=mu, r=sigma, cos_theta=mu,
                         outlier=outlier, degenerate_normal=outlier)
    tmp = tmp_path_factory.mktemp("cloud")
    write_cloud(tmp / "cloud.xyz", pts)
    write_annotated(tmp / "cloud.xyzn", ann)
    for path in (tmp / "cloud.xyz", tmp / "cloud.xyzn"):
        lines = path.read_text(encoding="utf-8").splitlines()
        # a comment or blank line before any line, or after the last
        for i in sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=6)),
                        reverse=True):
            lines.insert(i, data.draw(st.one_of(st.sampled_from(["", "  ", "\t"]),
                                                _NOT_A_LINE.map(lambda t: "#" + t))))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert read_cloud(tmp / "cloud.xyz").tobytes() == pts.tobytes()
    cols = read_annotated(tmp / "cloud.xyzn")
    for got, want in zip(cols, (pts, sigma, mu, outlier)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [2, 4])
def test_write_cloud_rejects_wrong_width(tmp_path, width):
    path = tmp_path / "cloud.xyz"
    with pytest.raises(ValueError):
        write_cloud(path, np.zeros((5, width)))
    assert not path.exists()


def _joined_reprs(columns):
    return "".join(" ".join(map(repr, row)) + "\n"
                   for row in zip(*(column.tolist() for column in columns))).encode()


# one row, a few, and tables that cross _fileio's chunk of _CHUNK values
@pytest.mark.parametrize("rows", [1, 7, _fileio._CHUNK // 7 * 2 + 5])
def test_write_table_bytes_match_joined_reprs(tmp_path, rows):
    # the bytes must be those of joining each field's repr, for signed zeros,
    # subnormals, exponents, float32 and integer columns of any width
    values = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308, 0.1, -2.5]
    columns = [np.resize(np.array(values[i:] + values[:i]), rows) for i in range(3)]
    columns += [np.arange(rows, dtype=np.int8) % 2,
                np.resize(np.array([-2**63, 2**63 - 1, -1, 0, 10, -987654321012]), rows),
                np.resize(np.array([-32768, 4096, 7], np.int16), rows),
                np.resize(np.array([0.1, -1e-40, 3.4028235e38, 16777217.0], np.float32), rows)]
    path = tmp_path / "table.txt"
    _fileio.write_table(path, "# header\n", columns)
    assert path.read_bytes() == b"# header\n" + _joined_reprs(columns)


@pytest.mark.parametrize("column", [np.zeros(3, bool), np.zeros(3, np.uint64),
                                    np.zeros(3, np.longdouble), np.zeros(3, complex)])
def test_write_table_refuses_other_dtypes(tmp_path, column):
    # bools would read back as text floats cannot parse; the others are not
    # held exactly by int64 or float64
    with pytest.raises(TypeError):
        _fileio.write_table(tmp_path / "table.txt", "", [np.zeros(3), column])
    assert list(tmp_path.iterdir()) == []


def test_write_table_scratch_bounded_by_the_chunk(tmp_path):
    # the text is made _CHUNK values at a time, so a table of six chunks
    # peaks about where a table of one does, not six times as high
    peaks = []
    for rows in (_fileio._CHUNK // 6, _fileio._CHUNK // 6 * 6):
        rng = np.random.default_rng(rows)
        columns = [*rng.standard_normal((5, rows)), np.ones(rows, np.int8)]
        tracemalloc.start()
        try:
            _fileio.write_table(tmp_path / "table.txt", "", columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def _assert_written_as_repr(tmp_path, x):
    path = tmp_path / "values.txt"
    _fileio.write_table(path, "", [x])
    got, want = path.read_bytes(), _joined_reprs([x])
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got.split(), want.split())) if g != w)
        pytest.fail(f"{x.tolist()[bad]!r} written as {got.split()[bad].decode()}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_float_text_matches_repr_on_bit_patterns(tmp_path_factory, patterns):
    # any 64-bit pattern, an infinity or NaN made finite by clearing the top
    # exponent bit
    bits = np.array(patterns, np.uint64)
    bits[(bits >> 52) & 0x7FF == 0x7FF] ^= np.uint64(1 << 62)
    _assert_written_as_repr(tmp_path_factory.mktemp("bits"), bits.view(np.float64))


def test_float_text_matches_repr_on_edge_families(tmp_path):
    # every power of 2 and of 10, the first 2**16 subnormals, the signed
    # zeros and the neighbours of the layout's edges 1e-4 and 1e16, and of 2**53
    edges = np.array([1e-4, 1e16, 2.0 ** 53]).view(np.int64)
    x = np.concatenate([2.0 ** np.arange(-1074, 1024), [float(f"1e{i}") for i in range(-323, 309)],
                        np.arange(2**16).view(np.float64),
                        (edges[:, None] + np.arange(-300, 301)).ravel().view(np.float64)])
    _assert_written_as_repr(tmp_path, np.concatenate([x, -x]))


def test_writer_tables_match_their_definitions():
    # _G against Schubfach's g from its definition in plain big-int
    # arithmetic, and _QUADS against "%04d"; a fault in either would
    # otherwise show only as a wrong digit somewhere in the tests above
    def g(k):
        r = 125 - _fileio._flog2pow10(-k)
        return 10 ** max(-k, 0) * 2 ** max(r, 0) // (10 ** max(k, 0) * 2 ** max(-r, 0)) + 1

    gs = [g(k) for k in range(-324, 293)]
    # the r _flog2pow10 gives is the definition's: floor(10**-k 2**r) in [2**125, 2**126)
    assert all(2**125 <= x - 1 < 2**126 for x in gs)
    # rows g1 = g >> 63, g1's 32-bit halves, g0 = g mod 2**63's halves
    rows = [[x >> 63, x >> 95, (x >> 63) & 0xFFFFFFFF, (x >> 32) & 0x7FFFFFFF, x & 0xFFFFFFFF]
            for x in gs]
    assert _fileio._G.dtype == np.uint64 and _fileio._G.T.tolist() == rows
    assert _fileio._QUADS.dtype == np.uint32
    assert _fileio._QUADS.tobytes() == ("%04d" * 10_000 % tuple(range(10_000))).encode()


def test_writers_refuse_non_finite(tmp_path):
    # read_cloud and read_annotated reject such rows, so no writer may make one
    pts = unit_sphere_cloud(16, seed=42)
    pts[5, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_cloud(tmp_path / "cloud.xyz", pts)
    ann = corrupt_cloud(unit_sphere_cloud(32, seed=42), (0.0, -2.0, 0.0),
                        tier_params("light"), k=8, seed=1)
    ann.sigma[9] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        write_annotated(tmp_path / "sample.xyzn", ann)
    # nor rows of another width, nor fewer rows than the cloud has points
    flat = AnnotatedCloud(np.zeros((5, 2)), *np.zeros((6, 5)))
    with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
        write_annotated(tmp_path / "sample.xyzn", flat)
    ann = corrupt_cloud(unit_sphere_cloud(64, seed=42), (0.0, -2.0, 0.0),
                        tier_params("light"), k=8, seed=1)
    ann.sigma = ann.sigma[:5]
    with pytest.raises(ValueError, match="differ in length"):
        write_annotated(tmp_path / "sample.xyzn", ann)
    assert list(tmp_path.iterdir()) == []


def test_annotated_roundtrip(tmp_path):
    pts = unit_sphere_cloud(128, seed=41)
    ann = corrupt_cloud(pts, (0.0, -2.0, 0.0), tier_params("heavy"), k=16, seed=3)
    path = tmp_path / "sample.xyzn"
    write_annotated(path, ann)

    first = path.read_text().splitlines()[0]
    assert first == "# x y z sigma mu outlier"

    cols = read_annotated(path)
    assert_array_equal(cols.points, ann.corrupted)
    assert_array_equal(cols.sigma, ann.sigma)
    assert_array_equal(cols.mu, ann.mu)
    assert_array_equal(cols.outlier, ann.outlier)


@pytest.mark.parametrize("row", ["0 0 1 0.1 0.0 2", "0 0 1 0.1 0.0 x",
                                 "0 0 1 0.1 0.0 0.5", "0 0 1 0.1 0.0 nan",
                                 "nan 0 1 0.1 0.0 0", "0 0 1 inf 0.0 0",
                                 "0 0 1 0.1 -inf 0", "0 0 1 0.1 0.0"],
                         ids=["flag-2", "flag-x", "flag-0.5", "flag-nan", "nan-x",
                              "inf-sigma", "neg-inf-mu", "five-fields"])
def test_read_annotated_rejects_bad_row(tmp_path, row):
    path = tmp_path / "bad.xyzn"
    path.write_text(f"0 0 1 0.1 0.0 0\n# comment\n{row}\n")
    with pytest.raises(ParseError) as info:
        read_annotated(path)
    assert info.value.line == 3


def test_read_annotated_bad_flag_after_blank_line(tmp_path):
    # numpy's C reader takes this file and keeps no line numbers; the bad
    # flag still fails at its file line
    path = tmp_path / "bad.xyzn"
    path.write_text("0 0 1 0.1 0.0 0\n\n0 0 1 0.1 0.0 2\n")
    with pytest.raises(ParseError, match="outlier flag") as info:
        read_annotated(path)
    assert info.value.line == 3


def test_read_annotated_reads_float_flags(tmp_path):
    # the flag is parsed like every other field: any spelling of 0 or 1
    path = tmp_path / "flags.xyzn"
    path.write_text("0 0 1 0.1 0.0 1.0\n0 0 1 0.1 0.0 1e0\n0 0 1 0.1 0.0 -0.0\n")
    assert read_annotated(path).outlier.tolist() == [True, True, False]


def test_manifest_roundtrip(tmp_path):
    manifest_path = write_benchmark_manifest(tmp_path, n_samples=4, n_points=32,
                                             seed=42)
    manifest = read_manifest(manifest_path)
    assert len(manifest) == 4
    assert manifest.base_dir == tmp_path
    assert [e.sample_id for e in manifest.entries] == [f"s{i:04d}" for i in range(4)]


def test_manifest_validation(tmp_path):
    bad_header = tmp_path / "m1.csv"
    bad_header.write_text("id,label,path\n")
    with pytest.raises(ParseError):
        read_manifest(bad_header)

    dup = tmp_path / "m2.csv"
    dup.write_text("sample_id,label,path\na,0,x.xyz\na,1,y.xyz\n")
    with pytest.raises(ParseError):
        read_manifest(dup)

    neg = tmp_path / "m3.csv"
    neg.write_text("sample_id,label,path\na,-1,x.xyz\n")
    with pytest.raises(ParseError):
        read_manifest(neg)

    # errors cite the line a record starts on, not its record number
    multiline = tmp_path / "m4.csv"
    multiline.write_text('sample_id,label,path\n"two\nlines",0,x.xyz\na,-1,y.xyz\n')
    with pytest.raises(ParseError) as info:
        read_manifest(multiline)
    assert info.value.line == 4


@pytest.mark.parametrize("sid", ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"])
def test_manifest_rejects_unsafe_sample_id(tmp_path, sid):
    # sample ids name output files, so they must stay inside the tier dir
    path = tmp_path / "m.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["sample_id", "label", "path"],
                                  ["ok", 0, "x.xyz"], [sid, 0, "y.xyz"]])
    with pytest.raises(ParseError) as info:
        read_manifest(path)
    assert info.value.line == 3


def _safe_id(sid):
    return sid not in ("", ".", "..") and not any(c in sid for c in "/\\\0")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_manifest_roundtrip_unicode(tmp_path_factory, data):
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    ids = data.draw(st.lists(st.one_of(text, st.sampled_from(['a,b', 'q"t', 'x\ny', 'r\rs']))
                             .filter(_safe_id), min_size=1, max_size=8, unique=True))
    labels = data.draw(st.lists(st.integers(0, 10**6), min_size=len(ids),
                                max_size=len(ids)))
    paths = data.draw(st.lists(text, min_size=len(ids), max_size=len(ids)))
    path = tmp_path_factory.mktemp("manifest") / "m.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["sample_id", "label", "path"],
                                  *zip(ids, labels, paths)])
    manifest = read_manifest(path)
    assert [(e.sample_id, e.label, e.path) for e in manifest.entries] == \
        list(zip(ids, labels, paths))


def _csv_outcome(path):
    """The (line, row) pairs csv_rows yields for `path`, then its ParseError's
    line and message without the path, if any."""
    out = []
    try:
        out.extend(_fileio.csv_rows(path, "test", lambda header: header != ["reject"]))
    except ParseError as exc:
        out.append((exc.line, str(exc).removeprefix(f"{path}:{exc.line}: ")))
    return out


_LIMIT_ERROR = "malformed CSV (field larger than field limit (4))"


@pytest.mark.parametrize("text, limit, expected", [
    # a record starts on the line its quoted field opens; "\r" alone ends a line
    ('h,i\n"a\r\nb",1\r\n\rc,2', None, [(2, ["a\r\nb", "1"]), (5, ["c", "2"])]),
    ("h\ra\r\rb\r", None, [(2, ["a"]), (4, ["b"])]),
    # a quote inside a field is text, and one left open runs to the end
    ('h,i\na"b,"x""y"\n"a"b,c\n', None, [(2, ['a"b', 'x"y']), (3, ["ab", "c"])]),
    ('h,i\na,1\n"open\nb,2\n', None, [(2, ["a", "1"]), (3, "expected 2 columns, got 1")]),
    # past csv's field size limit, also across lines, at the record's start
    ("h,i\nab,1\nabcde,2\n", 4, [(2, ["ab", "1"]), (3, _LIMIT_ERROR)]),
    ('h,i\nab,1\n"ab\ncd",2\n', 4, [(2, ["ab", "1"]), (3, _LIMIT_ERROR)]),
    ("reject\na\n", None, [(1, "bad test header ['reject']")]),
    ("", None, [(1, "bad test header None")]),
], ids=["multiline", "cr", "quote-text", "open-quote", "limit", "limit-multiline",
        "header", "empty"])
def test_csv_rows_fixed_cases(tmp_path, text, limit, expected):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        assert _csv_outcome(path) == expected
    finally:
        csv.field_size_limit(old)


_CSV_FORMATS = {
    "manifest": (read_manifest, "sample_id,label,path", "{},0,x.xyz"),
    "summary": (read_sigma_summary, ",".join(_fileio.SUMMARY_HEADER), "{},0,0.01,0.0,0"),
    "predictions": (read_predictions, "sample_id,true_label,p_0,p_1", "{},0,0.5,0.5"),
}


@pytest.mark.parametrize("first", ["a", '"a"'], ids=["plain", "quoted"])
@pytest.mark.parametrize("kind", list(_CSV_FORMATS))
def test_repeated_sample_id_fails_at_its_line(tmp_path, kind, first):
    # rows are keyed by sample_id in every CSV format; a quoted field sends
    # predictions past numpy's C reader to the csv.reader path
    read, header, row = _CSV_FORMATS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join([header, row.format(first), row.format("a"),
                               row.format("b")]) + "\n")
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"{path}:3: duplicate sample_id 'a'"


@pytest.mark.parametrize("kind, limit, row", [("predictions", 9, "a,0,1,0"),
                                             ("summary", 12, "a,0,0.5,0,0")])
def test_header_field_past_field_size_limit_fails_at_line_1(tmp_path, kind, limit, row):
    # a header field ("true_label", "outlier_count") is past csv's field size
    # limit and every row line within it: the csv-free path must leave the
    # file to csv_rows, which refuses the header
    read, header, _ = _CSV_FORMATS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{row}\n")
    old = csv.field_size_limit()
    try:
        csv.field_size_limit(limit)
        with pytest.raises(ParseError) as info:
            read(path)
    finally:
        csv.field_size_limit(old)
    assert str(info.value) == \
        f"{path}:1: malformed CSV (field larger than field limit ({limit}))"


def _read_table_reference(path, width):
    """read_table as the line-numbered reader alone, with float() parsing every
    field; returns (file lines, table)."""
    lines, values = [], []
    for lineno, line in _fileio.data_lines(path):
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


def _read_annotated_reference(path):
    """read_annotated over _read_table_reference."""
    lines, table = _read_table_reference(path, 6)
    flag = table[:, 5]
    bad = (flag != 0.0) & (flag != 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"outlier flag must be 0 or 1, got {float(flag[i])!r}",
                         path=path, line=lines[i])
    return table[:, :3], table[:, 3], table[:, 4], flag == 1.0


def _read_predictions_reference(path):
    """read_predictions as csv_rows with float() parsing every probability."""
    lines, ids, labels, flat = [], [], [], []
    for lineno, row in _fileio.csv_rows(path, "predictions", lambda header: (
            len(header) >= 4 and header[:2] == ["sample_id", "true_label"]
            and header[2:] == [f"p_{i}" for i in range(len(header) - 2)])):
        try:
            labels.append(int(row[1]))
            if not -2**63 <= labels[-1] < 2**63:
                raise ParseError(f"true_label {row[1]} does not fit in 64 bits",
                                 path=path, line=lineno)
            flat.extend(map(float, row[2:]))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
        lines.append(lineno)
        ids.append(row[0])
    if not lines:
        raise EmptyInput(f"{path}: no prediction rows")
    try:
        return Predictions(ids, np.array(labels, dtype=np.int64),
                           np.array(flat).reshape(len(lines), -1))
    except ValueError as exc:
        row = getattr(exc, "row", None)
        raise ParseError(str(exc), path=path,
                         line=None if row is None else lines[row]) from None


def _read_outcome(read, path):
    """The arrays read(path) returns, as dtype, shape and bytes (a Predictions
    as its ids, labels and probs), the (key, repr(value)) pairs of a dict it
    returns, or its exception's type, message and line."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(got, dict):  # a sigma summary, each value by its repr
        return [(key, repr(value)) for key, value in got.items()]
    if isinstance(got, Predictions):
        got = (got.ids, got.labels, got.probs)
    return [(a.dtype.str, a.shape, a.tolist() if a.dtype == object else a.tobytes())
            for a in (got if isinstance(got, tuple) else (got,))]


# spellings that float() takes and numpy's C reader does not ("1_0",
# non-ASCII digits), that both take ("1e400", "nan", "infinity") or that
# neither takes (hex, NUL, "#", a BOM)
_SPELLINGS = ("1_0", "\u0661\u0662", "#", "1#", "#1", "nan", "1e400", "\u0660.\u0665", "\uff11",
              "-inf", "infinity", "\ufeff1", "1\x00", "0x1p3", "1e", "--1", "0", "-0.0", "+1",
              ".5", "5.", "1e-400", "1.0", "2")
# what str.split() splits at: ASCII and Unicode whitespace, NBSP, separators
_GAPS = (" ", "  ", "\t", "\xa0", "\x1c", "\x1f", "\x85", "\u2028", "\x0b", "\x0c", "\u3000")
_ENDS = ("\n", "\r\n", "\r")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _table_bytes(draw, width):
    # rows of round-trip floats (at width 6, the last a 0/1 flag) amid blank,
    # whitespace-only and '#' lines, with any gaps and line endings; then at
    # most one change: a field spelled oddly, a field more or less, a BOM or
    # a byte that is not UTF-8
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "row":
            fields = [repr(v) for v in draw(st.lists(_FINITE, min_size=width, max_size=width))]
            if width == 6:
                fields[-1] = draw(st.sampled_from(["0", "1", "1.0", "-0.0"]))
            lines.append(fields)
        else:
            lines.append(draw(st.sampled_from(
                ["", " ", "\t", "\xa0", "\x1c"] if kind == "blank"
                else ["#", "# x y z sigma mu outlier", "  #c", "#\x85"])))
    change = draw(st.sampled_from(["none", "spell", "spell", "count", "bom", "byte"]))
    rows = [line for line in lines if isinstance(line, list)]
    if rows and change in ("spell", "count"):
        fields = draw(st.sampled_from(rows))
        if change == "spell":
            fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(_SPELLINGS))
        else:
            fields[-1:] = [] if draw(st.booleans()) else [fields[-1], "0"]
    text = []
    for line in lines:
        if isinstance(line, list):
            gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(line), max_size=len(line)))
            gaps[-1] = draw(st.sampled_from(["", "", gaps[-1]]))  # after the last field
            line = draw(st.sampled_from(["", "", " ", "\t", "\xa0"])) + \
                "".join(f + g for f, g in zip(line, gaps))
        text += [line, draw(st.sampled_from(_ENDS))]
    if text and draw(st.booleans()):
        text.pop()  # no ending on the last line
    data = "".join(text).encode("utf-8")
    if change == "bom":
        data = b"\xef\xbb\xbf" + data
    elif change == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_table_readers_match_line_reader(tmp_path_factory, data):
    # the C parse first changes no value, error, message or line
    width = data.draw(st.sampled_from([3, 6]))
    path = tmp_path_factory.mktemp("table") / "t.txt"
    path.write_bytes(data.draw(_table_bytes(width)))
    reader = read_cloud if width == 3 else functools.partial(_fileio.read_table, width=6)
    assert _read_outcome(reader, path) == \
        _read_outcome(lambda p: _read_table_reference(p, width)[1], path)
    if width == 6:
        assert _read_outcome(read_annotated, path) == _read_outcome(_read_annotated_reference, path)


# 0.5 and 0.25 spelled for float() alone, for numpy's C reader alone (an
# ASCII information separator at an end), for both (csv unquotes '"0.5"'),
# or for neither
_HALF = ("\x1c0.5", "0.5\x1f", "0_0.5", "\u0660.\u0665", "\uff10.\uff15", '"0.5"', " 0.5",
         "0.5\xa0", "\u20280.5", "5e-1", ".5", "nan", "inf", "1e400", "0x1p-1", "", "0.5\x00",
         "0.5 0")
_QUARTER = ("\x1d0.25", "0.25\x1e", "0.2_5", "\u0660.\u0662\u0665", "2.5e-1", "-0.25")
_LABELS = ("0", "1", " 1", "+1", "0_1", "\u0661", "\x1c1", "-1", "x", "1.0", "", '"1"',
           "9223372036854775807", "9223372036854775808", "-9223372036854775809",
           "18446744073709551616")
_IDS = ("a", "", "\xe9", '"a,b"', '"a,b,c"', '"q""t"', 'x"y', '"x\ny"', "a\x00", "a\x1c", "x" * 41)


# the longest header line _predictions_text draws: 3 classes, a column more, "\r\n"
_LONGEST_HEADER = len("sample_id,true_label,p_0,p_1,p_2,p_x\r\n")


@st.composite
def _predictions_text(draw):
    # a 2- or 3-class header, rows of distinct ids and probabilities summing
    # to 1 and blank lines, with any line endings; then at most one change: a
    # wrong header, an id holding quotes, commas or a line end or repeating
    # the first row's, an odd or over-64-bit label, a spelled probability, a
    # column more, one less or none, a whitespace-only line. Half the files
    # hold only short probabilities (k/8), so their rows fit a low field size
    # limit
    classes = draw(st.sampled_from([2, 3]))
    header = ["sample_id", "true_label"] + [f"p_{i}" for i in range(classes)]
    lines = [header]
    short = draw(st.booleans())
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)):
            # k/8 in a short file, else mostly 17 digits
            p = draw(st.integers(0, 8)) / 8 if short else draw(st.integers(0, 2**53)) / 2**53
            probs = [p, 1.0 - p] if classes == 2 else [p / 2, p / 2, 1.0 - p]
            sid = f"s{sum(len(line) > 1 for line in lines)}"  # s1, s2, ...
            lines.append([sid, draw(st.sampled_from(["0", "1"])), *map(repr, probs)])
        else:
            lines.append([""])
    change = draw(st.sampled_from(["none", "header", "id", "repeat", "label", "prob", "prob",
                                   "count", "space"]))
    rows = [line for line in lines[1:] if len(line) > 1]
    row = draw(st.sampled_from(rows)) if rows else header[:]  # no row: change a throwaway
    if change == "header":
        lines[0] = draw(st.sampled_from([header[:-1], header + ["p_x"],
                                         ["sample_id", "label", *header[2:]]]))
    elif change == "id":
        row[0] = draw(st.sampled_from(_IDS))
    elif change == "repeat":
        row[0] = "s1"  # the first row's id
    elif change == "label":
        row[1] = draw(st.sampled_from(_LABELS))
    elif change == "prob":
        row[2:] = ["0.5", "0.5"] if classes == 2 else ["0.5", "0.25", "0.25"]
        i = draw(st.integers(2, len(row) - 1))
        row[i] = draw(st.sampled_from(_HALF if row[i] == "0.5" else _QUARTER))
    elif change == "count":
        # one probability less, none (with or without the comma), or one more
        row[2:] = draw(st.sampled_from([row[2:-1], [], [""], [*row[2:], "0"]]))
    elif change == "space":
        lines.insert(draw(st.integers(1, len(lines))), [draw(st.sampled_from([" ", "\t"]))])
    text = []
    for line in lines:
        text += [",".join(line), draw(st.sampled_from(_ENDS))]
    if draw(st.booleans()):
        text.pop()  # no ending on the last line
    return "".join(text)


@pytest.mark.parametrize("limit", [None, _LONGEST_HEADER + 1])
@settings(max_examples=300, deadline=None)
@given(text=_predictions_text())
@example(text="sample_id,true_label,p_0,p_1\ns,0,1,0\n")
@example(text="sample_id,true_label,p_0,p_1\n" + "x" * 41 + ",0,1,0\n")
@example(text='"sample_id",true_label,p_0,p_1\n')
@example(text="sample_id,true_label,p_0,p_1\na,0,0.5,0.5\nb,1,\n")
def test_read_predictions_matches_line_reader(tmp_path_factory, limit, text):
    # the C parse first changes no value, error, message or line, also where
    # csv's field size limit is below a row's line or field (an id of 41 x's)
    path = tmp_path_factory.mktemp("preds") / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        assert _read_outcome(read_predictions, path) == \
            _read_outcome(_read_predictions_reference, path)
    finally:
        csv.field_size_limit(old)


def _read_sigma_summary_reference(path):
    """read_sigma_summary as csv_rows with float() parsing every sigma."""
    table = {}
    for lineno, row in _fileio.csv_rows(path, "summary",
                                        lambda header: tuple(header) == _fileio.SUMMARY_HEADER):
        try:
            sigma = float(row[2])
        except ValueError:
            sigma = float("nan")
        if not np.isfinite(sigma):
            raise ParseError(f"bad mean_sigma {row[2]!r}", path=path, line=lineno)
        table[row[0]] = sigma
    if not table:
        raise EmptyInput(f"{path}: no summary rows")
    return table


# sigma spellings float() rejects or reads as non-finite, with an information
# separator at an end, quoted (csv unquotes '"0.5"'), with a NUL, or longer
# than the low field size limit
_SIGMAS = ("nan", "inf", "-Infinity", "1e400", "x", "", "\x1c0.5", "0.5\x1f", "\x1d0.5\x1e",
           '"0.5"', " 0.5", "0_0.5", "\u0660.\u0665", "0.5\x00", "0.5" + "0" * 60, "0x1p-1")
# the longest header line _summary_text draws: a column more, "\r\n"
_LONGEST_SUMMARY_HEADER = len(",".join(_fileio.SUMMARY_HEADER) + ",x\r\n")


@st.composite
def _summary_text(draw):
    # a summary header, rows of distinct ids and finite sigmas and blank
    # lines, with any line endings; then at most one change: a wrong header,
    # an id holding quotes, commas, a NUL or a line end, or repeating the
    # first row's, a spelled sigma, a quoted field, a column more or less, a
    # whitespace-only line. Half the files hold only short sigmas (k/64)
    lines = [list(_fileio.SUMMARY_HEADER)]
    floats = st.integers(0, 64).map(lambda k: k / 64) if draw(st.booleans()) else _FINITE
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)):
            sigma, mu = draw(st.lists(floats, min_size=2, max_size=2))
            sid = f"s{sum(len(line) > 1 for line in lines)}"  # s1, s2, ...
            lines.append([sid, draw(st.sampled_from(["0", "39"])), repr(sigma), repr(mu),
                          draw(st.sampled_from(["0", "12"]))])
        else:
            lines.append([""])
    change = draw(st.sampled_from(["none", "header", "id", "repeat", "sigma", "sigma", "quote",
                                   "count", "space"]))
    rows = [line for line in lines[1:] if len(line) > 1]
    row = draw(st.sampled_from(rows)) if rows else lines[0][:]  # no row: change a throwaway
    if change == "header":
        lines[0] = draw(st.sampled_from([lines[0][:-1], lines[0] + ["x"],
                                         ["sample_id", "label", "sigma", *lines[0][3:]]]))
    elif change == "id":
        row[0] = draw(st.sampled_from(_IDS + ("x" * 60,)))
    elif change == "repeat":
        row[0] = "s1"  # the first row's id
    elif change == "sigma":
        row[2] = draw(st.sampled_from(_SIGMAS))
    elif change == "quote":
        line = draw(st.sampled_from([lines[0], row]))
        i = draw(st.integers(0, len(line) - 1))
        line[i] = f'"{line[i]}"'
    elif change == "count":
        # one probability less, none (with or without the comma), or one more
        row[2:] = draw(st.sampled_from([row[2:-1], [], [""], [*row[2:], "0"]]))
    elif change == "space":
        lines.insert(draw(st.integers(1, len(lines))), [draw(st.sampled_from([" ", "\t"]))])
    text = []
    for line in lines:
        text += [",".join(line), draw(st.sampled_from(_ENDS))]
    if draw(st.booleans()):
        text.pop()  # no ending on the last line
    return "".join(text)


@pytest.mark.parametrize("limit", [None, _LONGEST_SUMMARY_HEADER + 1])
@settings(max_examples=200, deadline=None)
@given(text=_summary_text())
@example(text=",".join(_fileio.SUMMARY_HEADER) + "\ns1,0,0.5" + "0" * 60 + ",0.1,0\n")
def test_read_sigma_summary_matches_line_reader(tmp_path_factory, limit, text):
    # the plain-line path first changes no value, error, message or line, also
    # where csv's field size limit is below a row's line or field
    path = tmp_path_factory.mktemp("summary") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        assert _read_outcome(read_sigma_summary, path) == \
            _read_outcome(_read_sigma_summary_reference, path)
    finally:
        csv.field_size_limit(old)


def test_tier_config_file(tmp_path):
    path = tmp_path / "tier.cfg"
    path.write_text(
        "# custom severity\n"
        "a=0.004\n"
        "b = 0.0015\n"
        "p_out=0.03\n"
        "sensor_y=-3.0\n"
        "normal_k=8\n"
        "global_seed=99\n"
    )
    config = read_tier_config(path)
    assert config.name == "custom"
    assert config.params == NoiseParams(0.004, 0.0015, 0.0, 0.0, 0.03)
    assert config.sensor == (0.0, -3.0, 0.0)
    assert config.normal_k == 8
    assert config.global_seed == 99


def test_tier_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "tier.cfg"
    path.write_text("sigma=1.0\n")
    with pytest.raises(ParseError):
        read_tier_config(path)


@pytest.mark.parametrize("text", ["normal_k=2\n", "sensor_x=nan\n", "a=nan\n",
                                  "k=inf\n", "p_out=-1\n", "sensor_y=-1e200\n"])
def test_tier_config_invalid_value_is_parse_error(tmp_path, text):
    path = tmp_path / "tier.cfg"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_tier_config(path)


def test_generate_benchmark_layout_and_summary(tmp_path):
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 5, 64, seed=50))
    config = dataclasses.replace(preset_config("light"), global_seed=7)
    summary = generate_benchmark(manifest, config, tmp_path / "out")

    tier_dir = tmp_path / "out" / "light"
    assert summary.sample_count == 5
    assert summary.failure_count == 0
    assert sorted(p.name for p in tier_dir.glob("*.xyzn")) == \
        [f"s{i:04d}.xyzn" for i in range(5)]

    lines = (tier_dir / "summary.csv").read_text().splitlines()
    assert lines[0] == "sample_id,label,mean_sigma,mean_mu,outlier_count"
    ids = [line.split(",")[0] for line in lines[1:]]
    assert ids == sorted(ids)

    # summary row agrees exactly with the annotated file it describes
    for line in lines[1:]:
        sid, _, mean_sigma, mean_mu, outlier_count = line.split(",")
        cols = read_annotated(tier_dir / f"{sid}.xyzn")
        assert float(mean_sigma) == float(np.mean(cols.sigma))
        assert float(mean_mu) == float(np.mean(cols.mu))
        assert int(outlier_count) == int(cols.outlier.sum())


def test_sample_record_is_the_summary_row(tmp_path):
    # _corrupt_one's record is the summary header named; a run writes each
    # sample's record as its row, floats formatted by fmt
    assert pipeline.SampleRecord._fields[:5] == _fileio.SUMMARY_HEADER
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 4, 64, seed=52))
    config = dataclasses.replace(preset_config("heavy"), global_seed=8)
    summary = generate_benchmark(manifest, config, tmp_path / "out", threads=2)
    (tmp_path / "one").mkdir()
    records = [pipeline._corrupt_one(entry, config, tmp_path / "one", manifest.base_dir)
               for entry in manifest.entries]
    assert all(type(r) is pipeline.SampleRecord for r in records)
    with open(tmp_path / "out" / "heavy" / "summary.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [list(_fileio.SUMMARY_HEADER)] + [
            [r.sample_id, str(r.label), _fileio.fmt(r.mean_sigma), _fileio.fmt(r.mean_mu),
             str(r.outlier_count)] for r in records]
    assert summary.mean_sigma == np.mean([r.mean_sigma for r in records])


_SAMPLE_IDS =st.text(st.characters(whitelist_categories=("L", "Nd"),
                                    whitelist_characters="-_."),
                      min_size=1, max_size=8).filter(_safe_id)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_generate_benchmark_thread_invariant(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("invariant")
    (root / "clouds").mkdir()
    ids = data.draw(st.lists(_SAMPLE_IDS, min_size=1, max_size=5, unique=True))
    rows = []
    for i, sid in enumerate(ids):
        n_points = data.draw(st.integers(DEFAULT_NORMAL_K + 1, 64))
        cloud_seed = data.draw(st.integers(0, 2**32 - 1))
        write_cloud(root / "clouds" / f"{i}.xyz", unit_sphere_cloud(n_points, cloud_seed))
        rows.append([sid, data.draw(st.integers(0, 39)), f"clouds/{i}.xyz"])
    with open(root / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["sample_id", "label", "path"], *rows])
    manifest = read_manifest(root / "manifest.csv")
    config = dataclasses.replace(preset_config(data.draw(st.sampled_from(TIER_NAMES))),
                                 global_seed=data.draw(st.integers(0, 2**64 - 1)))
    generate_benchmark(manifest, config, root / "one", threads=1)
    generate_benchmark(manifest, config, root / "two", threads=2)
    assert tree_digest(root / "one") == tree_digest(root / "two")


def test_generate_benchmark_repeat_identical(tmp_path):
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 4, 48, seed=61))
    config = dataclasses.replace(preset_config("heavy"), global_seed=12)
    generate_benchmark(manifest, config, tmp_path / "a")
    generate_benchmark(manifest, config, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_generate_benchmark_rerun_any_tier_name(tmp_path):
    # the staged and the parked tree have fixed names inside the staging
    # directory, and a tier may be named like either of them
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 2, 48, seed=66))
    for name in ("new", "old"):
        out = tmp_path / name
        for seed in (1, 2):
            config = TierConfig(name=name, params=tier_params("light"), global_seed=seed)
            generate_benchmark(manifest, config, out, threads=1)
        generate_benchmark(manifest, config, tmp_path / "fresh" / name, threads=1)
        assert [p.name for p in out.iterdir()] == [name]  # no staging left
        assert tree_digest(out) == tree_digest(tmp_path / "fresh" / name)


def test_generate_benchmark_scale(tmp_path):
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 1, 64, seed=62))
    config = dataclasses.replace(preset_config("moderate"), global_seed=5, scale=2.0)
    generate_benchmark(manifest, config, tmp_path / "out")
    entry = manifest.entries[0]
    expected = corrupt_cloud(read_cloud(manifest.base_dir / entry.path) * 2.0,
                             config.sensor, config.params, k=config.normal_k,
                             seed=sample_seed(5, entry.sample_id))
    cols = read_annotated(tmp_path / "out" / "moderate" / f"{entry.sample_id}.xyzn")
    assert_array_equal(cols.points, expected.corrupted)
    assert_array_equal(cols.sigma, expected.sigma)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_generate_benchmark_refuses_bad_scale(scale):
    # a zero scale collapses every cloud onto the origin and a negative one
    # mirrors it; the recipe refuses both when it is built, so no run starts,
    # and it is frozen, so none is set past that check
    with pytest.raises(ValueError, match="scale must be finite and > 0"):
        TierConfig(name="custom", params=tier_params("none"), scale=scale)
    config = preset_config("moderate")
    with pytest.raises(ValueError, match="scale must be finite and > 0"):
        dataclasses.replace(config, scale=scale)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.scale = scale


def test_generate_benchmark_fail_fast(tmp_path):
    manifest_path = write_benchmark_manifest(tmp_path, 3, 48, seed=63)
    with open(manifest_path, "a", encoding="utf-8") as fh:
        fh.write("broken,0,clouds/missing.xyz\n")
    manifest = read_manifest(manifest_path)
    with pytest.raises(GenerationError) as info:
        generate_benchmark(manifest, preset_config("light"), tmp_path / "out")
    assert info.value.sample_id == "broken"
    # a failed first run leaves nothing behind, not even a tier directory
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("threads", [1, 2])
def test_generate_benchmark_fail_fast_names_lowest_id(tmp_path, threads):
    # results are read in sample-id order, so the manifest's order and the
    # thread count do not decide which failure is reported
    manifest_path = tmp_path / "manifest.csv"
    manifest_path.write_text("sample_id,label,path\n"
                             "s0003,0,clouds/missing3.xyz\n"
                             "s0001,0,clouds/missing1.xyz\n")
    with pytest.raises(GenerationError) as info:
        generate_benchmark(read_manifest(manifest_path), preset_config("light"),
                           tmp_path / "out", threads=threads)
    assert info.value.sample_id == "s0001"


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    """Run the test's pools with workers forked, then spawned."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param} start method here")
    monkeypatch.setattr(pipeline, "_start_method", lambda: request.param)
    return request.param


def test_start_method_forks_only_a_lone_thread_on_linux(monkeypatch):
    # fork only where it is multiprocessing's silent default and no other
    # Python thread could hold a lock the forked worker would copy
    linux_default = sys.platform == "linux" and sys.version_info < (3, 12)
    assert pipeline._start_method() == ("fork" if linux_default else "spawn")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert pipeline._start_method() == "spawn"
    finally:
        stop.set()
        other.join()
    monkeypatch.setattr(sys, "platform", "darwin")
    assert pipeline._start_method() == "spawn"


def test_generate_benchmark_called_from_a_thread(tmp_path, monkeypatch):
    # a caller with its own threads gets spawned workers, and the same bytes
    methods = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers, mp_context, **kwargs):
        methods.append(mp_context.get_start_method())
        return real(max_workers, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 3, 48, seed=72))
    generate_benchmark(manifest, preset_config("heavy"), tmp_path / "main", threads=2)
    caller = threading.Thread(target=generate_benchmark,
                              args=(manifest, preset_config("heavy"), tmp_path / "thread"),
                              kwargs={"threads": 2})
    caller.start()
    caller.join()
    assert methods[1:] == ["spawn"]
    assert tree_digest(tmp_path / "thread") == tree_digest(tmp_path / "main")


_REAL_CORRUPT_ONE = pipeline._corrupt_one


def _scripted_corrupt_one(action, parent, entry, config, tier_dir, base_dir):
    """_corrupt_one run in a pool worker, leaving a marker file per call.

    At sample s0001 it does `action`: "raise" raises KeyboardInterrupt, which
    the pool hands to the parent; "sigint" sends a real SIGINT to the
    process `parent`, the one running generate_benchmark; "die" ends the
    worker process at once (never `parent` itself). Later samples take
    0.2 s first, time for the parent to act before they finish.
    """
    (base_dir / f"{entry.sample_id}.called").touch()
    if entry.sample_id == "s0001":
        if action == "raise":
            raise KeyboardInterrupt
        if action == "sigint":
            os.kill(parent, signal.SIGINT)
        if action == "die" and os.getpid() != parent:
            os._exit(1)
    if entry.sample_id >= "s0001":
        time.sleep(0.2)
    return _REAL_CORRUPT_ONE(entry, config, tier_dir, base_dir)


@pytest.fixture
def default_sigint():
    """Python's own SIGINT handler for the test, so a real SIGINT raises
    KeyboardInterrupt also where pytest started with SIGINT ignored, as a
    background job of a non-interactive shell does."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


def _called(root):
    return sorted(p.name.removesuffix(".called") for p in root.glob("*.called"))


def _check_interrupted_run(root, finished):
    # samples run in id order, and at one worker at most 2 * 1 + 1 samples
    # beyond the `finished` ones were handed to it before the interrupt
    called = _called(root)
    assert called == [f"s{i:04d}" for i in range(len(called))]
    assert finished < len(called) <= finished + 2 * 1 + 1
    assert "s0005" not in called
    assert list((root / "out").iterdir()) == []
    assert multiprocessing.active_children() == []


def test_generate_benchmark_interrupt_stops_run(tmp_path, monkeypatch):
    # a KeyboardInterrupt raised in a sample cancels the samples not yet
    # handed to a worker
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 6, 48, seed=68))
    monkeypatch.setattr(pipeline, "_corrupt_one",
                        functools.partial(_scripted_corrupt_one, "raise", os.getpid()))
    with pytest.raises(KeyboardInterrupt):
        generate_benchmark(manifest, preset_config("light"), tmp_path / "out", threads=1)
    _check_interrupted_run(tmp_path, finished=2)


def test_generate_benchmark_sigint_stops_run(tmp_path, monkeypatch, start_method,
                                             default_sigint):
    # a real Ctrl-C reaches the parent alone; the worker finishes its sample.
    # _run raises it between waits, not the handler wherever it lands, which
    # can be inside a lock or condition wait of concurrent.futures
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 6, 48, seed=68))
    monkeypatch.setattr(pipeline, "_corrupt_one",
                        functools.partial(_scripted_corrupt_one, "sigint", os.getpid()))
    with pytest.raises(KeyboardInterrupt) as info:
        generate_benchmark(manifest, preset_config("light"), tmp_path / "out", threads=1)
    innermost = info.traceback[-1]
    assert (Path(innermost.path).name, innermost.name) == ("pipeline.py", "_run")
    _check_interrupted_run(tmp_path, finished=1)


@pytest.mark.parametrize("case", ["fail_fast", "interrupted", "keep_going", "fewer"])
def test_generate_benchmark_rerun_replaces_tree_whole(tmp_path, monkeypatch, case,
                                                      default_sigint):
    # a rerun publishes its own tree only when it finishes; a failed or
    # interrupted rerun leaves the earlier tree byte for byte
    manifest_path = write_benchmark_manifest(tmp_path, 3, 48, seed=65)
    out = tmp_path / "out"
    generate_benchmark(read_manifest(manifest_path), preset_config("light"), out,
                       threads=1)
    before = tree_digest(out / "light")
    config = dataclasses.replace(preset_config("light"), global_seed=1)
    if case == "fail_fast":
        with open(manifest_path, "a", encoding="utf-8") as fh:
            fh.write("broken,0,clouds/missing.xyz\n")
        with pytest.raises(GenerationError):
            generate_benchmark(read_manifest(manifest_path), config, out, threads=1)
    elif case == "interrupted":
        monkeypatch.setattr(pipeline, "_corrupt_one",
                            functools.partial(_scripted_corrupt_one, "sigint", os.getpid()))
        with pytest.raises(KeyboardInterrupt):
            generate_benchmark(read_manifest(manifest_path), config, out, threads=1)
    elif case == "keep_going":
        (tmp_path / "clouds" / "s0001.xyz").unlink()
        summary = generate_benchmark(read_manifest(manifest_path), config, out,
                                     threads=1, keep_going=True)
        assert [sid for sid, _ in summary.failures] == ["s0001"]
    else:
        manifest_path = write_benchmark_manifest(tmp_path, 2, 48, seed=65)
        generate_benchmark(read_manifest(manifest_path), config, out, threads=1)

    assert [p.name for p in out.iterdir()] == ["light"]  # no staging left
    if case in ("fail_fast", "interrupted"):
        assert tree_digest(out / "light") == before
        return
    kept = ["s0000", "s0002"] if case == "keep_going" else ["s0000", "s0001"]
    assert sorted(p.name for p in (out / "light").iterdir()) == \
        [f"{sid}.xyzn" for sid in kept] + ["summary.csv"]
    lines = (out / "light" / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == kept


def test_generate_benchmark_interrupted_swap_keeps_tree(tmp_path, monkeypatch):
    # an interrupt after the earlier tree is parked, before the new one
    # takes its place, puts the earlier tree back
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 2, 48, seed=65))
    out = tmp_path / "out"
    generate_benchmark(manifest, preset_config("light"), out, threads=1)
    before = tree_digest(out / "light")
    rename = Path.rename

    def interrupted(self, target):
        if self.name == "new":  # the staged tree
            raise KeyboardInterrupt
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", interrupted)
    config = dataclasses.replace(preset_config("light"), global_seed=1)
    with pytest.raises(KeyboardInterrupt):
        generate_benchmark(manifest, config, out, threads=1)
    assert [p.name for p in out.iterdir()] == ["light"]  # no staging left
    assert tree_digest(out / "light") == before


def test_generate_benchmark_interrupt_sweep(tmp_path, monkeypatch, default_sigint):
    # a Ctrl-C at every line the run's own frames execute, one run each.
    # The hook delivers it as Python delivers a real SIGINT, by calling the
    # handler installed at that moment: Python's own raises KeyboardInterrupt
    # there, the run's deferring one records it. Each wait blocks until its
    # sample is done, so the line events do not depend on timing
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 3, 48, seed=73))
    earlier = tmp_path / "earlier"
    generate_benchmark(manifest, preset_config("light"), earlier, threads=1)
    config = dataclasses.replace(preset_config("light"), global_seed=1)
    generate_benchmark(manifest, config, tmp_path / "whole", threads=1)
    before, after = tree_digest(earlier / "light"), tree_digest(tmp_path / "whole" / "light")
    wait = concurrent.futures.wait
    monkeypatch.setattr(concurrent.futures, "wait", lambda fs, timeout=None: wait(fs))
    codes = {pipeline._run.__code__, pipeline._publish.__wrapped__.__code__,
             pipeline.generate_benchmark.__code__}
    outcomes = set()
    for stop in range(1, 1000):
        events = []

        def line(frame, event, arg, events=events, stop=stop):
            if event == "line":
                events.append(frame.f_code.co_name)
                if len(events) == stop:
                    signal.getsignal(signal.SIGINT)(signal.SIGINT, frame)
            return line

        out = tmp_path / f"out{stop}"
        shutil.copytree(earlier, out)
        sys.settrace(lambda frame, event, arg: line if frame.f_code in codes else None)
        try:
            generate_benchmark(manifest, config, out, threads=1)
            done = True
        except KeyboardInterrupt:
            # cleaned up by the run itself: checked while the traceback, and
            # with it every frame of the run, is still held, as an
            # interactive session holds it
            assert [p.name for p in out.iterdir()] == ["light"], stop
            done = False
        finally:
            sys.settrace(None)
        assert [p.name for p in out.iterdir()] == ["light"]  # no staging left
        outcomes.add(tree_digest(out / "light"))
        assert outcomes <= {before, after}  # the earlier tree, or the new one whole
        assert multiprocessing.active_children() == []
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        if done:
            break
    # the last run met no Ctrl-C: every line before it stopped its run
    assert len(events) == stop - 1
    assert set(events) == {"generate_benchmark", "_publish", "_run"}
    assert outcomes == {before, after}


def test_generate_benchmark_worker_death(tmp_path, monkeypatch, capsys, start_method):
    # a worker that dies fails its sample and every one not yet finished;
    # nothing hangs, and fail-fast leaves the earlier tree as it was
    manifest_path = write_benchmark_manifest(tmp_path, 4, 48, seed=69)
    out = tmp_path / "out"
    generate_benchmark(read_manifest(manifest_path), preset_config("light"), out)
    before = tree_digest(out / "light")
    monkeypatch.setattr(pipeline, "_corrupt_one",
                        functools.partial(_scripted_corrupt_one, "die", os.getpid()))
    config = dataclasses.replace(preset_config("light"), global_seed=1)
    with pytest.raises(GenerationError) as info:
        generate_benchmark(read_manifest(manifest_path), config, out, threads=1)
    assert info.value.sample_id == "s0001"
    assert tree_digest(out / "light") == before
    assert [p.name for p in out.iterdir()] == ["light"]
    assert multiprocessing.active_children() == []

    assert main(["corrupt", str(manifest_path), "light", str(out), "--seed", "1",
                 "--threads", "1", "--keep-going"]) == 1
    err = capsys.readouterr().err
    assert [line.split(":")[0] for line in err.splitlines()] == \
        ["failed s0001", "failed s0002", "failed s0003"]
    assert sorted(p.name for p in (out / "light").iterdir()) == \
        ["s0000.xyzn", "summary.csv"]
    assert multiprocessing.active_children() == []


_KILLED_RUN = """
import os, sys, time
from noisebench import generate_benchmark, pipeline, preset_config, read_manifest

def hold(entry, config, tier_dir, base_dir):
    (base_dir / f"{os.getpid()}.worker").touch()
    time.sleep(120)

if __name__ == "__main__":
    pipeline._corrupt_one = hold
    pipeline._start_method = lambda: sys.argv[3]
    generate_benchmark(read_manifest(sys.argv[1]), preset_config("light"), sys.argv[2],
                       threads=2)
"""


def _gone(pid):
    """True once process `pid` has exited, also as a zombie not yet reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_generate_benchmark_killed_run_leaves_no_worker(tmp_path, start_method):
    # the workers of a run killed outright exit as well, instead of waiting
    # for work forever; a script file, so that spawned workers can find `hold`
    manifest = write_benchmark_manifest(tmp_path, 4, 48, seed=71)
    script = tmp_path / "killed_run.py"
    script.write_text(_KILLED_RUN)
    src = str(Path(pipeline.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, str(script), str(manifest), str(tmp_path / "out"),
                             start_method], env={**os.environ, "PYTHONPATH": src})
    try:
        deadline = time.monotonic() + 60
        while len(list(tmp_path.glob("*.worker"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    pids = [int(p.stem) for p in tmp_path.glob("*.worker")]
    try:
        assert len(pids) == 2
        deadline = time.monotonic() + 30
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone, pids))
    finally:
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("affinity", [True, False])
def test_generate_benchmark_default_workers_follow_affinity(tmp_path, monkeypatch,
                                                            affinity):
    # without `threads`, one worker per CPU this process may run on: the
    # affinity mask where the platform has one, else the CPU count
    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 4, 48, seed=70))
    summary = generate_benchmark(manifest, preset_config("light"), tmp_path / "out")
    assert summary.sample_count == 4
    assert sizes == [1]


def _error_classes(cls=NoiseBenchError):
    return [cls] + [sub for c in cls.__subclasses__() for sub in _error_classes(c)]


_ERROR_ARGS = {
    NoiseBenchError: ("message",),
    InsufficientPoints: ("need more than 16 points, got 9",),
    DegenerateRay: ("point 3 sits on the sensor",),
    UnknownTier: ("extreme", TIER_NAMES),
    ParseError: ("bad value", "cloud.xyz", 7),
    EmptyCloud: ("no points",),
    EmptyInput: ("no records",),
    ZeroVariance: ("sigma is constant",),
    MissingSigma: ([f"s{i}" for i in range(12)],),
    TooFewValues: ("3 values for 4 groups",),
    GenerationError: ("s0001", ParseError("bad value", "cloud.xyz", 7)),
}


def test_errors_survive_pickling():
    # a sample's error crosses from its worker process to the parent pickled
    assert sorted(c.__name__ for c in _error_classes()) == \
        sorted(c.__name__ for c in _ERROR_ARGS)
    for cls, args in _ERROR_ARGS.items():
        exc = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(exc, protocol))
            assert type(back) is cls
            assert str(back) == str(exc)
            assert back.args == exc.args
            assert repr(vars(back)) == repr(vars(exc))


def test_generate_benchmark_rejects_zero_threads(tmp_path):
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 1, 48, seed=67))
    with pytest.raises(ValueError):
        generate_benchmark(manifest, preset_config("light"), tmp_path / "out", threads=0)
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("ids", [["../../../escaped"], ["a", "a"]])
def test_generate_benchmark_refuses_ids_read_manifest_rejects(tmp_path, ids):
    # a Manifest built in code must not write outside the output tree, nor a
    # summary.csv that read_sigma_summary rejects
    write_cloud(tmp_path / "clouds" / "a.xyz", unit_sphere_cloud(48, seed=68))
    manifest = Manifest([SampleEntry(sid, 0, "clouds/a.xyz") for sid in ids], tmp_path)
    with pytest.raises(ValueError, match=re.escape(repr(ids[-1]))):
        generate_benchmark(manifest, preset_config("light"), tmp_path / "out" / "deep",
                           threads=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clouds"]


def test_generate_benchmark_tier_dir_applies_umask(tmp_path):
    manifest = read_manifest(write_benchmark_manifest(tmp_path, 1, 48, seed=66))
    old = os.umask(0o027)
    try:
        generate_benchmark(manifest, preset_config("light"), tmp_path / "out")
    finally:
        os.umask(old)
    assert (tmp_path / "out" / "light").stat().st_mode & 0o777 == 0o750


def test_generate_benchmark_keep_going(tmp_path):
    manifest_path = write_benchmark_manifest(tmp_path, 3, 48, seed=64)
    with open(manifest_path, "a", encoding="utf-8") as fh:
        fh.write("broken,0,clouds/missing.xyz\n")
    manifest = read_manifest(manifest_path)
    summary = generate_benchmark(manifest, preset_config("light"),
                                 tmp_path / "out", keep_going=True)
    assert summary.sample_count == 3
    assert summary.failure_count == 1
    assert summary.failures[0][0] == "broken"
    lines = (tmp_path / "out" / "light" / "summary.csv").read_text().splitlines()
    assert len(lines) == 4  # header + the three good samples


def test_atomic_write_leaves_no_partial_file(tmp_path):
    from noisebench._fileio import atomic_text

    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_text(target) as fh:
            fh.write("partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_applies_umask(tmp_path):
    from noisebench._fileio import atomic_text

    old = os.umask(0o027)
    try:
        with atomic_text(tmp_path / "out.txt") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o640


def test_bench_tracer_targets_exist(monkeypatch):
    # bench/tracer.py wraps each (module, attribute) of TARGETS by name and
    # fails on a missing one; the untraced benchmark runs never install it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [(module, attr) for module, attr, *_ in tracer.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
