"""Tests for ranges, incidence cosines, and PCA normal estimation."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from conftest import unit_sphere_cloud
from noisebench import (DegenerateRay, InsufficientPoints, estimate_normals,
                        incidence_cosine, perturb_points, range_to_sensor)
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


def _brute_force_knn(pts, k):
    """The original O(n^2 log n) search, kept as the reference.

    Full distance rows and a stable argsort, so exact ties go to the lower
    index. d^2 is the same per-pair expansion as the grid search's; the
    original took a.b from BLAS, whose rounding depends on the call's shape.
    """
    n = len(pts)
    x, y, z = pts.T
    sq = x * x + y * y + z * z
    out = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        dot = (x[start:stop, None] * x + y[start:stop, None] * y
               + z[start:stop, None] * z)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * dot
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


@st.composite
def knn_cases(draw):
    """(cloud, k) pairs from the shapes that stress the grid search."""
    k = draw(st.integers(1, 16))
    n = draw(st.one_of(st.just(k + 1), st.integers(k + 1, 150)))
    kind = draw(st.sampled_from(["floats", "coincident", "duplicates", "grid",
                                 "collinear", "outliers", "offset"]))
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
    else:  # rounding error of the expansion is ~eps * 1e6 here
        pts = rng.uniform(0.0, 1.0, (n, 3)) + rng.uniform(-1e3, 1e3, 3)
    return pts, k


@settings(max_examples=300, deadline=None)
@given(knn_cases())
def test_knn_matches_brute_force(case):
    pts, k = case
    assert_array_equal(_knn_indices(pts, k), _brute_force_knn(pts, k))


def test_knn_matches_brute_force_large_clouds():
    # clouds big enough for many cells, split row blocks and retries
    rng = np.random.default_rng(12)
    cluster = np.vstack([rng.normal(0.0, 1e-3, (3000, 3)),
                         rng.uniform(-50.0, 50.0, (40, 3))])
    i, j = np.meshgrid(np.arange(60), np.arange(50), indexing="ij")
    tilted = np.column_stack([i.ravel(), j.ravel(), i.ravel() + j.ravel()]) * 0.125
    # at 1e7 from the origin the expansion's rounding error (~eps * 1e14)
    # is as large as the neighbour distances themselves; the block test
    # must allow for it or rows with a closer point outside pass
    far = rng.uniform(0.0, 1.0, (1500, 3)) + 1e7 * rng.uniform(0.5, 1.0, 3)
    for pts in (unit_sphere_cloud(3000, seed=11) + 1e3, cluster, tilted, far):
        assert_array_equal(_knn_indices(pts, 16), _brute_force_knn(pts, 16))


def test_knn_rejects_k_out_of_range():
    pts = unit_sphere_cloud(5, seed=13)
    for k in (0, 5, 6):
        with pytest.raises(ValueError):
            _knn_indices(pts, k)


def _golden_knn_clouds():
    """A sphere, an exact-tie grid plane and a thin far-offset cloud with duplicates."""
    sphere = unit_sphere_cloud(2048, seed=31)
    i, j = np.meshgrid(np.arange(64), np.arange(32), indexing="ij")
    plane = np.column_stack([i.ravel(), np.zeros(i.size), j.ravel()]) * 2.0 ** -6
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


def test_normals_axis_aligned_plane_exact():
    g = np.linspace(-1.0, 1.0, 15)
    xx, yy = np.meshgrid(g, g)
    plane = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
    est = estimate_normals(plane, 16, sensor=(0.0, 0.0, 5.0))
    expected = np.zeros_like(plane)
    expected[:, 2] = 1.0
    assert_array_equal(est.vectors, expected)
    assert not est.degenerate.any()


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
        assert_array_equal(_knn_indices(pts * scale, 16), _brute_force_knn(pts * scale, 16))
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
