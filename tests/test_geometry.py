"""Tests for ranges, incidence cosines, and PCA normal estimation."""

import hashlib
import inspect
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import shapes
from conftest import brute_force_knn, unit_sphere_cloud
from noisebench import (DegenerateRay, InsufficientPoints, estimate_normals,
                        incidence_cosine, perturb_points, range_to_sensor)
from noisebench import geometry
from noisebench.geometry import _knn_indices


def test_range_scalar_example():
    r = range_to_sensor([(1.0, 2.0, 0.0)], (0.0, 0.0, 0.0))
    assert r.shape == (1,)
    assert r[0] == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_range_zero_at_sensor():
    assert_array_equal(range_to_sensor([(1.0, 1.0, 1.0)], (1.0, 1.0, 1.0)), [0.0])


def test_range_translation_covariant_for_exact_shifts():
    # quantize everything to multiples of 2^-20 so point + shift is exact;
    # the computed coordinate differences are then bit-identical and the
    # range must not change at all
    rng = np.random.default_rng(7)
    scale = 2.0 ** -20
    pts = rng.integers(-2**20, 2**20, (200, 3)).astype(np.float64) * scale
    sensor = rng.integers(-2**20, 2**20, 3).astype(np.float64) * scale
    shift = rng.integers(-2**21, 2**21, 3).astype(np.float64) * scale
    assert_array_equal(range_to_sensor(pts, sensor),
                       range_to_sensor(pts + shift, sensor + shift))


def test_incidence_sixty_degrees():
    sensor = np.zeros(3)
    p = np.array([[math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)]])
    n = np.array([[0.0, 0.0, 1.0]])
    cos = incidence_cosine(p, n, sensor)
    assert cos.shape == (1,)
    assert cos[0] == pytest.approx(0.5, abs=1e-15)


def test_incidence_sign_insensitive():
    sensor = np.array([0.0, -2.0, 0.0])
    pts = unit_sphere_cloud(100, seed=1)
    est = estimate_normals(pts, 16, sensor)
    c1 = incidence_cosine(pts, est.vectors, sensor)
    c2 = incidence_cosine(pts, -est.vectors, sensor)
    assert_array_equal(c1, c2)


def test_incidence_clamped_to_unit_interval():
    sensor = np.array([0.3, -1.7, 0.9])
    pts = unit_sphere_cloud(500, seed=2)
    rays = pts - sensor
    units = rays / np.linalg.norm(rays, axis=1)[:, None]
    cos = incidence_cosine(pts, units, sensor)
    # ray parallel to "normal": exactly 1 after the clamp, never above
    assert np.all(cos <= 1.0)
    assert np.all(cos >= 0.0)
    assert cos == pytest.approx(np.ones_like(cos), abs=1e-12)


def test_incidence_degenerate_ray():
    sensor = (1.0, 2.0, 3.0)
    with pytest.raises(DegenerateRay):
        incidence_cosine([sensor], [(0.0, 0.0, 1.0)], sensor)


def test_knn_ties_break_to_lower_index():
    pts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],  # same distance from point 0 as point 1
        [5.0, 0.0, 0.0],
    ])
    nbrs = _knn_indices(pts, 1)
    assert nbrs[0, 0] == 1
    nbrs2 = _knn_indices(pts, 2)
    assert list(nbrs2[0]) == [1, 2]


def test_knn_coincident_points_tie_to_lower_index():
    # every pair is an exact tie; a.b from BLAS used to round differently
    # per matrix position, so point 0's nearest was point 16, not point 1
    rng = np.random.default_rng(22)
    pts = np.tile(rng.uniform(-5.0, 5.0, 3), (20, 1))
    nbrs = _knn_indices(pts, 3)
    assert list(nbrs[0]) == [1, 2, 3]
    assert all(list(row) == [0, 1, 2] for row in nbrs[3:])


def test_knn_excludes_self_not_duplicates():
    # a coincident pair: each twin's nearest neighbor is the other twin
    pts = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [3.0, 0.0, 0.0],
        [4.0, 0.0, 0.0],
    ])
    nbrs = _knn_indices(pts, 1)
    assert nbrs[0, 0] == 1
    assert nbrs[1, 0] == 0


@st.composite
def knn_cases(draw):
    """(cloud, k) pairs from the shapes that stress the grid search."""
    k = draw(st.integers(1, 16))
    n = draw(st.one_of(st.just(k + 1), st.integers(k + 1, 150)))
    kind = draw(st.sampled_from(["floats", "coincident", "duplicates", "grid",
                                 "collinear", "outliers", "clusters", "offset",
                                 "shell", "curve"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "floats":
        pts = draw(arrays(np.float64, (n, 3),
                          elements=st.floats(-1e3, 1e3, allow_nan=False)))
    elif kind == "coincident":  # zero extent on every axis
        pts = np.tile(rng.uniform(-5.0, 5.0, 3), (n, 1))
    elif kind == "duplicates":
        pts = rng.uniform(-1.0, 1.0, (n, 3))[rng.integers(0, max(1, n // 4), n)]
    elif kind == "grid":  # every distance exact, many exact ties
        pts = rng.integers(-4, 5, (n, 3)) * 2.0 ** -6
        pts[:, rng.integers(0, 3)] = 0.0
    elif kind == "collinear":
        pts = rng.integers(-20, 21, n)[:, None] * rng.integers(-3, 4, 3) * 0.25
    elif kind == "outliers":  # dense cluster: far points need the retry
        pts = rng.normal(0.0, 1e-2, (n, 3))
        far = rng.random(n) < 0.1
        pts[far] = rng.uniform(-1e3, 1e3, (far.sum(), 3))
    elif kind == "clusters":  # cells of very different widths, plus retries
        m = rng.integers(2, 5)
        which = rng.integers(0, m, n)
        spread = 10.0 ** rng.uniform(-4.0, -1.0, m)
        pts = (rng.uniform(-10.0, 10.0, (m, 3))[which]
               + rng.normal(0.0, 1.0, (n, 3)) * spread[which, None])
        far = rng.random(n) < 0.05
        pts[far] = rng.uniform(-1e3, 1e3, (far.sum(), 3))
    elif kind == "shell":  # a surface: cells shrink below the bounding-box size
        pts = rng.standard_normal((n, 3))
        pts *= 10.0 ** rng.uniform(-8.0, 2.0) / np.linalg.norm(pts, axis=1)[:, None]
        pts += rng.uniform(-1e2, 1e2, 3)
    elif kind == "curve":  # a helix, or a circle at zero pitch
        s = rng.uniform(0.0, 4.0 * math.pi, n)
        pitch = rng.choice([0.0, rng.uniform(0.01, 1.0)])
        pts = np.column_stack([np.cos(s), np.sin(s), pitch * s]) @ _rotation(rng)
        pts = pts * 10.0 ** rng.uniform(-4.0, 2.0) + rng.uniform(-1e2, 1e2, 3)
    else:  # rounding error of the expansion is ~eps * 1e6 here
        pts = rng.uniform(0.0, 1.0, (n, 3)) + rng.uniform(-1e3, 1e3, 3)
    return pts, k


def _rotation(rng):
    """A random 3x3 rotation."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


@settings(max_examples=300, deadline=None)
@given(knn_cases())
def test_knn_matches_brute_force(case):
    pts, k = case
    assert_array_equal(_knn_indices(pts, k), brute_force_knn(pts, k))


@settings(max_examples=200, deadline=None)
@given(knn_cases(), st.sampled_from([1, 7, 64, 1024, geometry._KNN_BLOCK]))
def test_knn_matches_brute_force_any_block_size(case, block):
    # small blocks split chunks into single cells and cells into one-row
    # blocks; the result must not depend on where those splits fall
    pts, k = case
    with mock.patch.object(geometry, "_KNN_BLOCK", block):
        assert_array_equal(_knn_indices(pts, k), brute_force_knn(pts, k))


def _tilted_plane(nx, ny):
    """An nx x ny grid in a plane tilted to all three axes."""
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return np.column_stack([i.ravel(), j.ravel(), i.ravel() + j.ravel()]) * 0.125


def _jittered_line(rng, n):
    """n points along x, off it by ~1e-3: the cell grid is long on x alone."""
    return np.column_stack([rng.uniform(0.0, 100.0, n), rng.normal(0.0, 1e-3, (n, 2))])


def _torus(rng, n):
    """n points on a torus of radii 1 and 0.3 about z."""
    u, v = rng.uniform(0.0, 2.0 * math.pi, (2, n))
    ring = 1.0 + 0.3 * np.cos(v)
    return np.column_stack([ring * np.cos(u), ring * np.sin(u), 0.3 * np.sin(v)])


def _dense_cluster(seed):
    """4,088 points of N(0, 1e-3) plus 8 far ones: one cell's block is almost
    the whole cloud, so the search broadcasts that one-cell table."""
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(0.0, 1e-3, (4088, 3)), rng.normal(0.0, 10.0, (8, 3))])


@pytest.fixture(scope="session")
def knn_clouds():
    """The slow kNN tests' clouds by name, each read-only with its 16
    brute-force nearest neighbours: built and searched once per session."""
    rng = np.random.default_rng(12)
    clouds = {
        "sphere_3000_far": unit_sphere_cloud(3000, seed=11) + 1e3,
        "cluster_12": np.vstack([rng.normal(0.0, 1e-3, (3000, 3)),
                                 rng.uniform(-50.0, 50.0, (40, 3))]),
        "tilted_plane": _tilted_plane(60, 50),
        # at 1e7 from the origin the expansion's rounding error (~eps * 1e14)
        # is as large as the neighbour distances themselves; the block test
        # must allow for it or rows with a closer point outside pass
        "far": rng.uniform(0.0, 1.0, (1500, 3)) + 1e7 * rng.uniform(0.5, 1.0, 3),
        # a jittered line: the 1-d hull sizes the cells at about k points each,
        # n / k cells on x, and its 3-cell blocks are too sparse to shrink them.
        # Surfaces (the spheres, the tilted plane, the torus) get cells smaller
        # than the hull size, so more points need a retry
        "line": _jittered_line(rng, 4000),
        "sphere_16384": unit_sphere_cloud(16384, seed=18),
        "torus": _torus(rng, 8192),
        "sphere_1024_16": unit_sphere_cloud(1024, seed=16),
        "sphere_1024_21": unit_sphere_cloud(1024, seed=21),
        "sphere_8192": unit_sphere_cloud(8192, seed=15),
        "grid_plane": shapes.grid_plane(128, 64),
        "table": shapes.table(1024, seed=0),
        "dense_cluster": _dense_cluster(22),
        # a dense cluster with few far points: its blocks hold about the whole
        # cloud, and the 8 far points its first pass rejects (8 x 4,096 rows x
        # points, just _KNN_BLOCK) are brute-forced with no second pass
        "cluster_20": _dense_cluster(20),
        "coincident": np.tile([1.0, -2.0, 3.0], (2000, 1)),
    }
    for pts in clouds.values():
        pts.flags.writeable = False
    return {name: (pts, brute_force_knn(pts, 16)) for name, pts in clouds.items()}


def test_knn_scratch_memory_bounded():
    # scratch is a few arrays of _KNN_BLOCK entries per chunk, not one per
    # candidate block: a dense cluster's block is almost the whole cloud.
    # The cell-sizing counts and the cell table are bounded by n, even where
    # shrinking cells for a surface or a thin line would make many of them
    rng = np.random.default_rng(14)
    cluster = np.vstack([rng.normal(0.0, 1e-3, (4088, 3)),
                         rng.normal(0.0, 10.0, (8, 3))])
    for pts in (cluster, unit_sphere_cloud(8192, seed=15),
                unit_sphere_cloud(16384, seed=17), _jittered_line(rng, 4000)):
        tracemalloc.start()
        try:
            _knn_indices(pts, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def test_knn_threads_match_serial():
    # two searches at once, switching often, give the serial answers: the
    # search keeps no state between calls or across threads
    clouds = (unit_sphere_cloud(1024, seed=16), shapes.grid_plane(128, 64))
    serial = [_knn_indices(pts, 16) for pts in clouds]
    results = [[], []]
    start = threading.Barrier(2, timeout=60)

    def run(slot):
        start.wait()
        for _ in range(20):
            results[slot].extend(_knn_indices(pts, 16) for pts in clouds)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == 2 * 20
        for i, nbrs in enumerate(got):
            assert_array_equal(nbrs, serial[i % 2])


def test_knn_tiny_blocks_on_sphere_plane_and_cluster(knn_clouds):
    # the search is exact at _KNN_BLOCK = 7, where most blocks hold one row,
    # and at the default, on a sphere, the tie plane and the dense cluster,
    # so a block reads only entries of its np.empty buffers that it (or its
    # chunk) wrote
    nearest_in = geometry._nearest_in
    one_cell = []

    def spy(xyzs, k, blk, cand, table, *rest):
        one_cell.append(len(table) == 1)
        return nearest_in(xyzs, k, blk, cand, table, *rest)

    for name in ("sphere_1024_21", "grid_plane", "dense_cluster"):
        pts, want = knn_clouds[name]
        for block in (7, geometry._KNN_BLOCK):
            one_cell.clear()
            with mock.patch.object(geometry, "_KNN_BLOCK", block), \
                    mock.patch.object(geometry, "_nearest_in", spy):
                assert_array_equal(_knn_indices(pts, 16), want)
    assert one_cell[0]  # the cluster's widest block, searched first, is one broadcast cell


def test_knn_matches_brute_force_on_tables():
    # ModelNet-like clouds: a table's thin top and legs make the first pass
    # reject tens of rows where a sphere rejects a few, and most take a
    # pass at a doubled side
    for seed in range(20):
        pts = shapes.table(1024, seed)
        assert_array_equal(_knn_indices(pts, 16), brute_force_knn(pts, 16))


def test_knn_matches_brute_force_large_clouds(knn_clouds):
    # clouds big enough for many cells, split row blocks and retries
    for name in ("sphere_3000_far", "cluster_12", "tilted_plane", "far", "line",
                 "sphere_16384", "torus"):
        pts, want = knn_clouds[name]
        assert_array_equal(_knn_indices(pts, 16), want)


def test_knn_sizing_ends_on_coincident_points(tmp_path):
    # zero extent gives one cell at any side, so shrinking cells never
    # thins a block; one distinct point makes a grid that grows with every
    # step. A sizing loop that did not end would fail here, not hang
    code = ("import sys; import numpy as np; from noisebench.geometry import _knn_indices; "
            "p = np.tile([1.0, -2.0, 3.0], (2000, 1)); "
            "np.save(sys.argv[1], _knn_indices(p, 16)); "
            "np.save(sys.argv[2], _knn_indices(np.vstack([p, [[1.5, -2.0, 3.0]]]), 16))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs = [tmp_path / "same.npy", tmp_path / "one_apart.npy"]
    subprocess.run([sys.executable, "-c", code, *map(str, outs)], env=env, check=True,
                   timeout=60)
    pts = np.tile([1.0, -2.0, 3.0], (2000, 1))
    assert_array_equal(np.load(outs[0]), brute_force_knn(pts, 16))
    pts = np.vstack([pts, [[1.5, -2.0, 3.0]]])
    assert_array_equal(np.load(outs[1]), brute_force_knn(pts, 16))


def test_knn_buckets_each_side_once(knn_clouds):
    # the sizing buckets each side it measures once, the first pass searches
    # the sizing's last grid with no bucketing of its own, and each later
    # pass is handed one bucketing of its side, doubled from the last pass's
    cells, grid_pass = geometry._cells, geometry._grid_pass
    # the dense cluster's 8 far points are brute-forced with no second pass;
    # the 8,192-point sphere's first pass rejects too many for that, so it
    # makes a pass at a doubled side. A 1-d hull crowded at one point (two
    # ends of a unit segment and a cluster at its middle) shrinks the side 16
    # times, so the sizing buckets a 17th side, never measured, for the pass
    rng = np.random.default_rng(36)
    segment = np.vstack([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                      [0.5, 0.0, 0.0] + 1e-9 * rng.standard_normal((398, 1)) * [1.0, 0.0, 0.0]])
    clouds = [(*knn_clouds[name], 16) for name in
              ("sphere_1024_16", "sphere_8192", "grid_plane", "cluster_20", "coincident")]
    doubled = 0
    for pts, want, k in [*clouds, (segment, brute_force_knn(segment, 60), 60)]:
        calls = []

        def spy_cells(points, lo, extent, h):
            calls.append(("cells", h))
            return cells(points, lo, extent, h)

        def spy_pass(xyzs, k, rows, out, lo, slack, grid):
            calls.append(("pass", grid[3]))
            return grid_pass(xyzs, k, rows, out, lo, slack, grid)

        with mock.patch.object(geometry, "_cells", spy_cells), \
                mock.patch.object(geometry, "_grid_pass", spy_pass):
            nbrs = _knn_indices(pts, k)
        first = next(i for i, (what, _) in enumerate(calls) if what == "pass")
        sizing, passes = [h for _, h in calls[:first]], calls[first:]
        assert sizing and len(sizing) == len(set(sizing)) <= 17, calls
        assert passes[0] == ("pass", sizing[-1]), calls
        assert passes[1::2] == [("cells", h) for _, h in passes[2::2]], calls
        sides = [h for what, h in passes if what == "pass"]
        assert passes[0::2] == [("pass", h) for h in sides], calls
        assert sides[1:] == [2.0 * h for h in sides[:-1]], calls
        doubled += len(sides) > 1
        assert_array_equal(nbrs, want)
    assert doubled  # the sides[1:] check above is not vacuous
    assert len(sizing) == 17  # the segment, searched last, ran the sizing to its end


def _knn_paths(pts, k=16):
    """Search pts and count the kNN's paths: grid passes and the rows each
    rejected, row blocks scored in a pass, each call scoring the rows left
    after the passes against all points, and blocks that padded ties."""
    grid_pass, nearest_in, pad_ties = geometry._grid_pass, geometry._nearest_in, geometry._pad_ties
    paths = {"rejected": [], "blocks": 0, "remainder": [], "ties": 0}
    in_pass = []

    def spy_pass(*args):
        in_pass.append(True)
        try:
            paths["rejected"].append(grid_pass(*args))
        finally:
            in_pass.pop()
        return paths["rejected"][-1]

    def spy_nearest(xyzs, k, blk, cand, table, *rest):
        if in_pass:
            paths["blocks"] += 1
        else:
            assert_array_equal(table, [np.arange(len(pts))])
            paths["remainder"].append(np.sort(blk))
        return nearest_in(xyzs, k, blk, cand, table, *rest)

    def spy_ties(*args):
        paths["ties"] += 1
        return pad_ties(*args)

    with mock.patch.object(geometry, "_grid_pass", spy_pass), \
            mock.patch.object(geometry, "_nearest_in", spy_nearest), \
            mock.patch.object(geometry, "_pad_ties", spy_ties):
        nbrs = _knn_indices(pts, k)
    assert_array_equal(nbrs, brute_force_knn(pts, k))
    return paths


def test_knn_takes_each_path(knn_clouds):
    # each path of the search is used where it should be, so none goes
    # unused unnoticed. A 1,024-point sphere makes one grid pass; the few
    # rows it rejects (none at seed 16, 3 at seed 21) are brute-forced in
    # one call. An 8,192-point sphere rejects too many rows for that
    # (rows x n > _KNN_BLOCK) and makes a pass at a doubled side. On a
    # sphere no row ties its k-th value, so every block selects exactly k
    # per row; the grid plane's exact ties take the padded selection. A
    # 1,024-point table rejects too many rows too (43 at seed 0)
    for seed, rows in ((16, 0), (21, 3)):
        paths = _knn_paths(knn_clouds[f"sphere_1024_{seed}"][0])
        assert [len(r) for r in paths["rejected"]] == [rows]
        assert len(paths["remainder"]) == (rows > 0)
        assert all(np.array_equal(got, np.sort(paths["rejected"][0]))
                   for got in paths["remainder"])
        assert paths["blocks"] and paths["ties"] == 0
    paths = _knn_paths(knn_clouds["sphere_8192"][0])
    first = len(paths["rejected"][0])
    assert first * 8192 > geometry._KNN_BLOCK and len(paths["rejected"]) >= 2
    assert paths["blocks"] and paths["ties"] == 0
    paths = _knn_paths(knn_clouds["table"][0])
    first = len(paths["rejected"][0])
    assert first * 1024 > geometry._KNN_BLOCK and len(paths["rejected"]) >= 2
    paths = _knn_paths(knn_clouds["grid_plane"][0])
    assert paths["ties"] > 0


def test_knn_remainder_boundary():
    # rejected rows x n at _KNN_BLOCK are brute-forced after the first
    # pass; one entry past it, they take a pass at a doubled side. Either
    # way the result is exact
    for pts in (unit_sphere_cloud(1024, seed=23), _dense_cluster(20)):
        rows = len(_knn_paths(pts)["rejected"][0])
        assert rows
        with mock.patch.object(geometry, "_KNN_BLOCK", rows * len(pts)):
            paths = _knn_paths(pts)
        assert [len(r) for r in paths["rejected"]] == [rows]
        assert [len(r) for r in paths["remainder"]] == [rows]
        with mock.patch.object(geometry, "_KNN_BLOCK", rows * len(pts) - 1):
            paths = _knn_paths(pts)
        assert len(paths["rejected"][0]) == rows and len(paths["rejected"]) >= 2


def test_knn_frees_grid_coordinates_before_search():
    # the (n, 3) float scratch of a pass's block bounds (cell-unit
    # coordinates, distances below and above) is freed before the first
    # search scores candidates, so the kNN's peak holds none of it: no
    # numpy buffer allocated on those lines is alive then
    code = geometry._grid_pass.__code__
    lines = inspect.getsource(code).splitlines()
    watched = {code.co_firstlineno + i for i, line in enumerate(lines)
               if line.lstrip().startswith(("t = ", "below = ", "above = "))}
    assert len(watched) == 3
    nearest_in = geometry._nearest_in
    for pts in (unit_sphere_cloud(8192, seed=15), shapes.grid_plane(128, 64)):
        alive = []

        def spy_nearest(*args):
            if not alive:
                snap = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, geometry.__file__)])
                alive.append(sum(trace.size for trace in snap.traces
                                 if trace.domain == np.lib.tracemalloc_domain
                                 and trace.traceback[0].lineno in watched))
            return nearest_in(*args)

        tracemalloc.start()
        try:
            with mock.patch.object(geometry, "_nearest_in", spy_nearest):
                _knn_indices(pts, 16)
        finally:
            tracemalloc.stop()
        assert alive == [0]


def test_knn_candidates_per_point_bounded():
    # on a surface inside a 3-d box, cells sized for the box crowd each
    # block with far more than k points, more as n grows; sized by measured
    # occupancy, the candidate d^2 entries per point stay a small multiple of k
    k = 16
    nearest_in = geometry._nearest_in
    for pts in (unit_sphere_cloud(16384, seed=19), _tilted_plane(60, 50)):
        entries = 0

        def spy(xyzs, k, blk, cand, table, *rest):
            nonlocal entries
            entries += len(blk) * table.shape[1]
            return nearest_in(xyzs, k, blk, cand, table, *rest)

        with mock.patch.object(geometry, "_nearest_in", spy):
            _knn_indices(pts, k)
        assert entries <= 16 * k * len(pts)


def test_knn_rejects_k_out_of_range():
    pts = unit_sphere_cloud(5, seed=13)
    for k in (0, 5, 6):
        with pytest.raises(ValueError):
            _knn_indices(pts, k)


def _golden_knn_clouds():
    """A sphere, an exact-tie grid plane and a thin far-offset cloud with duplicates."""
    sphere = unit_sphere_cloud(2048, seed=31)
    plane = shapes.grid_plane(64, 32)
    rng = np.random.default_rng(32)
    flat = rng.uniform(0.0, 1.0, (1000, 3)) * [1.0, 1e-3, 1.0] + [1e3, -2e3, 5e2]
    flat = np.vstack([flat, flat[::40]])
    return sphere, plane, flat


def test_knn_golden_digest():
    # neighbour arrays of the original brute-force search, frozen: any change
    # to the neighbour sets, their order or the tie rule changes this digest
    h = hashlib.sha256()
    for pts in _golden_knn_clouds():
        h.update(_knn_indices(pts, 16).astype("<i8").tobytes())
    assert h.hexdigest() == (
        "18237c910088faacee3b4e65e9555d6644c39713fe510fc6f6e261053ad92473")


def _solver_cases():
    """(n, 3, 3) symmetric matrices: all zero, exactly diagonal, subnormal
    off-diagonal entries, entries near 1e301, a 1e301 / 1e-300 mix, c I,
    and random SPD."""
    rng = np.random.default_rng(16)
    b = rng.standard_normal((200, 3, 3))
    spd = np.einsum("nik,njk->nij", b, b) + 1e-3 * np.eye(3)
    spd = (spd + spd.transpose(0, 2, 1)) / 2.0                  # exactly symmetric
    tiny = np.diag([1.0, 2.0, 1.0]) + 5e-324 * (np.ones((3, 3)) - np.eye(3))
    huge = spd[:3] / np.abs(spd[:3]).max(axis=(1, 2), keepdims=True) * 1e301
    skew = np.diag([1e301, 2e300, 1.0])
    skew[0, 1] = skew[1, 0] = skew[1, 2] = skew[2, 1] = 1e-300
    return np.concatenate([np.zeros((1, 3, 3)), np.diag([3.0, -1.0, 2.0])[None],
                           tiny[None], huge, skew[None], 7.5 * np.eye(3)[None], spd])


def test_jacobi_edge_cases():
    mats = _solver_cases()
    # the solver's rotation guards: no division by a zero entry, no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, v = geometry._jacobi3([[mats[:, i, j] for j in range(3)] for i in range(3)])
    lam, v = np.array(lam).T, np.array(v).transpose(2, 0, 1)   # (n, 3), (n, 3, 3)
    ref = np.linalg.eigh(mats)[0]
    scale = np.abs(ref).max(axis=1)                            # the 2-norm of each matrix
    assert (np.abs(np.sort(lam, axis=1) - ref) <= 1e-13 * scale[:, None]).all()
    low = lam.argmin(axis=1)
    vec = v[np.arange(len(mats)), :, low]                       # (n, 3)
    assert_allclose(np.sum(vec * vec, axis=1), 1.0, rtol=0.0, atol=1e-15)
    lam0 = lam[np.arange(len(mats)), low]
    resid = np.sum(mats * vec[:, None, :], axis=2) - lam0[:, None] * vec
    assert (np.abs(resid).max(axis=1) <= 1e-12 * scale).all()


def test_normals_axis_aligned_plane_exact():
    g = np.linspace(-1.0, 1.0, 15)
    xx, yy = np.meshgrid(g, g)
    plane = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
    est = estimate_normals(plane, 16, sensor=(0.0, 0.0, 5.0))
    expected = np.zeros_like(plane)
    expected[:, 2] = 1.0
    assert_array_equal(est.vectors, expected)
    assert not est.degenerate.any()


@pytest.mark.parametrize("seed", range(10))
def test_normals_cube_faces_exact(seed):
    # a point whose k neighbours all lie on its own face of the cube gets
    # exactly that face's axis, facing the sensor: every neighbour's
    # coordinate on the axis is the same +-1.0, so its variance is exactly 0
    pts = shapes.cube(1024, seed)
    sensor = np.array([0.0, -2.0, 0.0])
    rows, axis = np.nonzero(np.abs(pts) == 1.0)
    assert_array_equal(rows, np.arange(len(pts)))  # no point on an edge
    face = 2 * axis + (pts[rows, axis] > 0.0)
    flat = (face[brute_force_knn(pts, 16)] == face[:, None]).all(axis=1)
    assert flat.sum() > 300
    expected = np.zeros_like(pts)
    expected[rows, axis] = np.where(sensor[axis] > pts[rows, axis], 1.0, -1.0)
    est = estimate_normals(pts, 16, sensor)
    assert_array_equal(est.vectors[flat], expected[flat])
    assert not est.degenerate[flat].any()


def test_normals_tilted_plane():
    true_n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    v = np.cross(true_n, u)
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1.0, 1.0, (300, 2))
    plane = coeffs[:, :1] * u + coeffs[:, 1:] * v
    est = estimate_normals(plane, 12, sensor=true_n * 4.0)
    align = np.abs(est.vectors @ true_n)
    assert np.all(align > 1.0 - 1e-9)


def test_normals_oriented_toward_sensor():
    sensor = np.array([0.0, -2.0, 0.0])
    pts = unit_sphere_cloud(400, seed=4)
    est = estimate_normals(pts, 16, sensor)
    dots = np.sum(est.vectors * (sensor - pts), axis=1)
    assert np.all(dots >= 0.0)


def test_normals_unit_length():
    pts = unit_sphere_cloud(200, seed=5) * 2.5
    est = estimate_normals(pts, 10, sensor=(0.0, -2.0, 0.0))
    norms = np.linalg.norm(est.vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


def test_normals_collinear_fallback():
    t = np.linspace(0.0, 1.0, 30)
    line = np.column_stack([t, t, t])
    sensor = np.array([5.0, -3.0, 1.0])
    est = estimate_normals(line, 5, sensor)
    assert est.degenerate.all()
    d = sensor - line
    expected = d / np.linalg.norm(d, axis=1)[:, None]
    assert_array_equal(est.vectors, expected)


def test_normals_collinear_point_on_sensor_raises():
    # the fallback normal is the ray to the sensor, which a point on it lacks
    t = np.linspace(0.0, 1.0, 30)
    line = np.column_stack([t, t, t])
    with pytest.raises(DegenerateRay):
        estimate_normals(line, 5, sensor=line[7])


def test_normals_isotropic_neighborhood_degenerate():
    # regular tetrahedron around the origin: the center point's neighborhood
    # covariance is a multiple of the identity, so no direction is preferred
    pts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    sensor = np.array([0.0, -4.0, 0.0])
    est = estimate_normals(pts, 4, sensor)
    assert est.degenerate[0]
    assert_allclose(est.vectors[0], [0.0, -1.0, 0.0], atol=1e-15)


def test_normals_sphere_radial_accuracy():
    pts = unit_sphere_cloud(1500, seed=6)
    est = estimate_normals(pts, 16, sensor=(0.0, -2.0, 0.0))
    cos = np.clip(np.abs(np.sum(est.vectors * pts, axis=1)), -1.0, 1.0)
    mean_err = np.degrees(np.arccos(cos)).mean()
    assert mean_err < 10.0


def test_normals_permutation_equivariant():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.0, 1.0, (250, 3))  # distinct pairwise distances
    sensor = (0.0, -2.0, 0.0)
    base = estimate_normals(pts, 12, sensor)
    perm = rng.permutation(len(pts))
    permuted = estimate_normals(pts[perm], 12, sensor)
    assert_array_equal(permuted.vectors, base.vectors[perm])
    assert_array_equal(permuted.degenerate, base.degenerate[perm])


def test_normals_input_validation():
    pts = unit_sphere_cloud(10, seed=9)
    with pytest.raises(InsufficientPoints):
        estimate_normals(pts, 10, sensor=(0.0, -2.0, 0.0))
    with pytest.raises(ValueError):
        estimate_normals(pts, 2, sensor=(0.0, -2.0, 0.0))
    # a bare 3-vector is not a cloud; a single point is a 1-row cloud
    with pytest.raises(ValueError):
        estimate_normals(pts[0], 3, sensor=(0.0, -2.0, 0.0))
    with pytest.raises(ValueError):
        range_to_sensor(pts[0], (0.0, -2.0, 0.0))
    with pytest.raises(ValueError):
        incidence_cosine(pts[0], (0.0, 0.0, 1.0), (0.0, -2.0, 0.0))
    # one more point than k is enough
    est = estimate_normals(unit_sphere_cloud(11, seed=9), 10, (0.0, -2.0, 0.0))
    assert est.vectors.shape == (11, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normals_reject_non_finite(bad):
    pts = unit_sphere_cloud(40, seed=10)
    pts[7, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        estimate_normals(pts, 8, sensor=(0.0, -2.0, 0.0))


@pytest.mark.parametrize("scale", [1e110, 1e150])
def test_normals_huge_coordinates(scale):
    # the cell-size product of the grid search used to overflow above ~1e102
    # and fall back to one brute-force cell; d^2 overflowed above ~1e154
    pts = unit_sphere_cloud(48, seed=14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_array_equal(_knn_indices(pts * scale, 16), brute_force_knn(pts * scale, 16))
        est = estimate_normals(pts * scale, 16, sensor=(0.0, -2.0, 0.0))
    ref = estimate_normals(pts, 16, sensor=(0.0, -2.0, 0.0))
    assert_allclose(np.abs(np.sum(est.vectors * ref.vectors, axis=1)), 1.0, atol=1e-9)


def test_normals_reject_coordinates_that_overflow():
    pts = unit_sphere_cloud(48, seed=14) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"1e\+150"):
            estimate_normals(pts, 16, sensor=(0.0, -2.0, 0.0))


@pytest.mark.parametrize("call", [
    lambda pts, sensor: range_to_sensor(pts, sensor),
    lambda pts, sensor: incidence_cosine(pts, pts, sensor),
    lambda pts, sensor: perturb_points(pts, sensor, 0.01, 0.0, np.random.default_rng(0)),
], ids=["range_to_sensor", "incidence_cosine", "perturb_points"])
def test_sensor_beyond_coordinate_bound_rejected(call):
    # the sensor is held to the points' bound: beyond it squared ray lengths
    # overflow, and ranges and cosines come out inf or nan
    pts = unit_sphere_cloud(48, seed=15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"1e\+150"):
            call(pts, (0.0, -1e200, 0.0))
        call(pts, (0.0, -1e150, 0.0))  # the bound itself is accepted
