"""Tests for the parametric noise model and cloud corruption."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import shapes
from conftest import brute_force_knn, unit_sphere_cloud
from noisebench import noise
from noisebench import (TIER_NAMES, DegenerateRay, InsufficientPoints, NoiseParams,
                        ParseError, angle_factor, bias_mu, bounding_box, corrupt_cloud,
                        inject_outliers, perturb_points, point_sigma, range_to_sensor,
                        read_tier_config, sigma_range, tier_params)

SENSOR = (0.0, -2.0, 0.0)


_BAD_PARAMS = [
    *({name: bad} for name in "abck" for bad in (-0.001, float("nan"), float("inf"))),
    {"p_out": -0.01}, {"p_out": 1.5}, {"p_out": float("nan")},
]


def test_params_validation(tmp_path):
    # every way a NoiseParams is built checks its values with one message
    none = tier_params("none")
    for bad in _BAD_PARAMS:
        (name, value), = bad.items()
        values = {**none._asdict(), **bad}
        msg = (f"p_out must be in [0, 1], got {value}" if name == "p_out"
               else f"{name} must be finite and >= 0, got {value}")
        builds = [lambda: NoiseParams(**values),
                  lambda: NoiseParams(*values.values()),
                  lambda: none._replace(**bad),
                  lambda: NoiseParams._make(values.values())]
        unchecked = tuple.__new__(NoiseParams, values.values())
        builds += [lambda proto=proto: pickle.loads(pickle.dumps(unchecked, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for build in builds:
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == msg
        path = tmp_path / "tier.cfg"
        path.write_text(f"{name}={value!r}\n")
        with pytest.raises(ParseError) as exc:
            read_tier_config(path)
        assert str(exc.value) == f"{path}: {msg}"


def test_sigma_range_examples():
    assert sigma_range(2.0, a=0.003, b=0.001) == 0.005
    # heavy preset at r = 3
    assert sigma_range(3.0, a=0.010, b=0.003) == pytest.approx(0.019, rel=1e-12)
    arr = sigma_range(np.array([0.0, 1.0]), a=0.003, b=0.001)
    assert_allclose(arr, [0.003, 0.004], rtol=1e-15)


def test_angle_factor_examples():
    assert angle_factor(1.0, c=3.0) == 1.0
    # heavy preset at 60 degrees incidence
    assert angle_factor(0.5, c=3.0) == 2.5
    cos = np.linspace(0.0, 1.0, 11)
    f = angle_factor(cos, c=2.0)
    assert np.all(f >= 1.0)
    assert np.all(np.diff(f) < 0.0)  # shallower incidence, less inflation


def test_bias_mu_examples():
    assert bias_mu(1.0, k=0.015) == 0.0
    assert bias_mu(0.0, k=0.010) == 0.010
    assert np.all(bias_mu(np.linspace(0, 1, 5), k=0.02) >= 0.0)


def test_point_sigma_composition():
    light = tier_params("light")
    # r = 2 at grazing incidence: (0.003 + 0.001 * 2) * (1 + 1.5) = 0.0125
    assert point_sigma(2.0, 0.0, light) == pytest.approx(0.0125, rel=1e-12)
    # the incidence factor multiplies whatever range noise is present
    r = np.array([1.0, 2.0, 4.0])
    combined = point_sigma(r, 0.25, light)
    assert_allclose(combined, sigma_range(r, light.a, light.b) * angle_factor(0.25, light.c),
                    rtol=0.0)


def test_sigma_never_below_base(seed=100):
    rng = np.random.default_rng(seed)
    for params in (tier_params("light"), tier_params("moderate"), tier_params("heavy")):
        r = rng.uniform(0.0, 10.0, 1000)
        cos = rng.uniform(0.0, 1.0, 1000)
        assert np.all(point_sigma(r, cos, params) >= params.a)


def test_perturb_zero_noise_is_identity():
    pts = unit_sphere_cloud(100, seed=34) * 1.5
    pts[::10, 1] = -0.0  # +0.0 added to -0.0 gives +0.0: bits, not values, must match
    out = perturb_points(pts, SENSOR, sigma=0.0, mu=0.0, rng=np.random.default_rng(0))
    assert out.tobytes() == pts.tobytes()


def test_perturb_pure_bias_moves_along_ray():
    mu = np.array([0.0, 0.01, 0.02, 0.03])
    out = perturb_points(np.zeros((4, 3)), SENSOR, sigma=0.0, mu=mu,
                         rng=np.random.default_rng(0))
    assert_array_equal(out, np.column_stack([np.zeros(4), mu, np.zeros(4)]))


def test_perturb_consumes_exactly_n_variates():
    n = 7
    rng_a = np.random.default_rng(11)
    out = perturb_points(np.zeros((n, 3)), SENSOR, sigma=0.5, mu=0.0, rng=rng_a)
    rng_b = np.random.default_rng(11)
    # one variate per point, in index order
    assert_array_equal(out[:, 1], 0.5 * rng_b.standard_normal(n))
    # both streams must now be in the same state
    assert rng_a.random() == rng_b.random()


def test_perturb_displacement_is_along_ray():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, (20, 3))
    out = perturb_points(pts, SENSOR, sigma=0.05, mu=0.01, rng=rng)
    disp = out - pts
    rays = pts - np.asarray(SENSOR, dtype=float)
    cross = np.cross(disp, rays)
    assert np.all(np.linalg.norm(cross, axis=1) <= 1e-12 * np.linalg.norm(rays, axis=1))


def test_perturb_sample_statistics():
    rng = np.random.default_rng(13)
    sigma, n = 0.01, 20000
    draws = perturb_points(np.zeros((n, 3)), SENSOR, sigma, 0.0, rng)[:, 1]
    assert draws.std() == pytest.approx(sigma, rel=0.05)
    assert abs(draws.mean()) < 5 * sigma / np.sqrt(n)


def test_perturb_at_sensor_raises():
    pts = unit_sphere_cloud(10, seed=35)
    pts[3] = SENSOR
    with pytest.raises(DegenerateRay):
        perturb_points(pts, SENSOR, 0.01, 0.0, np.random.default_rng(0))


def test_bounding_box():
    pts = np.array([[0.0, 1.0, -2.0], [3.0, -1.0, 0.5], [1.0, 0.0, 0.0]])
    lo, hi = bounding_box(pts)
    assert_array_equal(lo, [0.0, -1.0, -2.0])
    assert_array_equal(hi, [3.0, 1.0, 0.5])


def test_inject_outliers_rate_zero_and_one():
    pts = unit_sphere_cloud(500, seed=14)
    bbox = bounding_box(pts)
    out, mask = inject_outliers(pts, 0.0, bbox, np.random.default_rng(0))
    assert_array_equal(out, pts)
    assert out is not pts
    assert not mask.any()

    out, mask = inject_outliers(pts, 1.0, bbox, np.random.default_rng(0))
    assert mask.all()
    lo, hi = bbox
    assert np.all(out >= lo) and np.all(out <= hi)


def test_inject_outliers_empirical_rate():
    pts = np.random.default_rng(15).uniform(-1, 1, (100_000, 3))
    _, mask = inject_outliers(pts, 0.1, bounding_box(pts), np.random.default_rng(16))
    assert mask.mean() == pytest.approx(0.1, abs=0.006)


def test_inject_outliers_only_masked_points_change():
    pts = unit_sphere_cloud(2000, seed=17)
    out, mask = inject_outliers(pts, 0.2, bounding_box(pts), np.random.default_rng(18))
    assert_array_equal(out[~mask], pts[~mask])
    assert not np.array_equal(out[mask], pts[mask])


def test_inject_outliers_deterministic():
    pts = unit_sphere_cloud(300, seed=19)
    bbox = bounding_box(pts)
    a = inject_outliers(pts, 0.3, bbox, np.random.default_rng(20))
    b = inject_outliers(pts, 0.3, bbox, np.random.default_rng(20))
    assert_array_equal(a[0], b[0])
    assert_array_equal(a[1], b[1])


def test_inject_outliers_validation():
    pts = unit_sphere_cloud(10, seed=21)
    with pytest.raises(ValueError):
        inject_outliers(pts, 1.5, bounding_box(pts), np.random.default_rng(0))
    with pytest.raises(ValueError):
        inject_outliers(pts, 0.5, (np.ones(3), np.zeros(3)), np.random.default_rng(0))


@pytest.mark.parametrize("key", [0, (2 << 64) | 12345])
def test_philox_uniforms_are_top_53_bits(key):
    # outlier bytes rest on Generator.random being the top 53 bits of each
    # raw Philox word; a numpy release that changes it fails here by name
    drawn = np.random.Generator(np.random.Philox(key=key)).random(100_000)
    raw = np.random.Philox(key=key).random_raw(100_000)
    assert drawn.tobytes() == ((raw >> np.uint64(11)) * 2.0**-53).tobytes()


def test_philox_zero_size_draw_leaves_state():
    # inject_outliers draws its (0, 3) coordinate block when no point is
    # replaced, so that draw must not move the stream
    gen = np.random.Generator(np.random.Philox(key=(2 << 64) | 7))
    gen.random(5)
    before = pickle.dumps(gen.bit_generator.state)
    assert gen.random((0, 3)).shape == (0, 3)
    assert pickle.dumps(gen.bit_generator.state) == before


def test_corrupt_none_tier_identity():
    pts = unit_sphere_cloud(300, seed=22)
    pts[::10, 1] = -0.0
    ann = corrupt_cloud(pts, SENSOR, tier_params("none"), k=16, seed=5)
    assert ann.corrupted.tobytes() == pts.tobytes()
    assert not ann.sigma.any()
    assert not ann.mu.any()
    assert not ann.outlier.any()


def test_corrupt_annotations_are_self_consistent():
    pts = unit_sphere_cloud(300, seed=23)
    params = tier_params("moderate")
    ann = corrupt_cloud(pts, SENSOR, params, k=16, seed=6)
    assert_array_equal(ann.r, range_to_sensor(pts, SENSOR))
    assert_array_equal(ann.sigma, point_sigma(ann.r, ann.cos_theta, params))
    assert_array_equal(ann.mu, bias_mu(ann.cos_theta, params.k))
    assert np.all(ann.cos_theta >= 0.0) and np.all(ann.cos_theta <= 1.0)
    assert ann.seed == 6
    assert len(ann) == 300


def test_corrupt_non_outliers_displaced_along_ray():
    pts = unit_sphere_cloud(400, seed=24)
    ann = corrupt_cloud(pts, SENSOR, tier_params("heavy"), k=16, seed=7)
    keep = ~ann.outlier
    disp = ann.corrupted[keep] - pts[keep]
    rays = pts[keep] - np.asarray(SENSOR, dtype=float)
    cross = np.cross(disp, rays)
    assert np.all(np.linalg.norm(cross, axis=1) <= 1e-9)


def test_corrupt_outliers_inside_clean_bbox():
    pts = unit_sphere_cloud(3000, seed=25)
    ann = corrupt_cloud(pts, SENSOR, tier_params("heavy"), k=16, seed=8)
    assert ann.outlier.any()
    lo, hi = bounding_box(pts)
    replaced = ann.corrupted[ann.outlier]
    assert np.all(replaced >= lo) and np.all(replaced <= hi)
    # annotations describe the pre-replacement geometry, so they are
    # identical to what the clean cloud yields
    assert_array_equal(ann.sigma[ann.outlier],
                       point_sigma(ann.r, ann.cos_theta, tier_params("heavy"))[ann.outlier])


@st.composite
def corrupt_cases(draw):
    """(cloud, sensor, params, k, seed): small spheres, exact-tie grid planes
    and clusters with duplicates, a sensor off the points, preset or random
    noise parameters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(3, 24))
    n = draw(st.integers(k + 1, 256))
    kind = draw(st.sampled_from(["sphere", "plane", "cluster"]))
    if kind == "sphere":
        pts = unit_sphere_cloud(n, rng.integers(2**32)) * 10.0 ** rng.uniform(-1.0, 1.0)
    elif kind == "plane":  # dyadic lattice points: every d^2 exact, many ties
        cols = [rng.integers(-8, 9, n), np.zeros(n), rng.integers(-8, 9, n)]
        pts = np.column_stack([cols[i] for i in rng.permutation(3)]) * 2.0 ** -4
    else:
        m = rng.integers(1, 4)
        which = rng.integers(0, m, n)
        pts = rng.uniform(-2.0, 2.0, (m, 3))[which] + rng.normal(0.0, 0.1, (n, 3))
        dup = rng.random(n) < 0.25
        pts[dup] = pts[rng.integers(0, n, dup.sum())]
    pts = pts + rng.uniform(-5.0, 5.0, 3)
    sensor = pts.mean(axis=0) + rng.uniform(-3.0, 3.0, 3) * np.ptp(pts, axis=0).max()
    assume(np.linalg.norm(pts - sensor, axis=1).min() > 1e-6)
    params = draw(st.one_of(
        st.sampled_from(TIER_NAMES).map(tier_params),
        st.builds(NoiseParams, a=st.floats(0.0, 0.1), b=st.floats(0.0, 0.1),
                  c=st.floats(0.0, 4.0), k=st.floats(0.0, 0.1), p_out=st.floats(0.0, 1.0))))
    return pts, sensor, params, k, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(corrupt_cases())
def test_corrupt_matches_independent_oracle(case):
    # every stage of corrupt_cloud recomputed from its definition: normals
    # from brute-force neighbours and eigh, sigma and mu from the formulas,
    # draws from the Philox keys (purpose << 64) | seed, with the purposes
    # written out so that swapped stream tags fail here
    pts, sensor, params, k, seed = case
    ann = corrupt_cloud(pts, sensor, params, k=k, seed=seed)
    n = len(pts)
    nbhd = pts[brute_force_knn(pts, k)]
    centered = nbhd - nbhd.mean(axis=1, keepdims=True)
    evals, evecs = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered) / k)
    gap, top = evals[:, 1] - evals[:, 0], np.maximum(evals[:, 2], 0.0)
    rays = pts - sensor
    r = np.linalg.norm(rays, axis=1)
    u = rays / r[:, None]
    # a degenerate neighbourhood's normal is the ray to the sensor: cos = 1
    cos = np.where(gap <= 1e-9 * top, 1.0,
                   np.minimum(np.abs(np.sum(evecs[:, :, 0] * u, axis=1)), 1.0))
    # compared where rounding cannot move a point across the degeneracy
    # rule, and the normal's rounding error (~eps top / gap) is far below 1e-9
    clear = (gap <= 1e-12 * top) | (gap >= 1e-4 * top)
    assert_allclose(ann.cos_theta[clear], cos[clear], rtol=0.0, atol=1e-9)
    sigma = (params.a + params.b * r) * (1.0 + params.c * (1.0 - cos))
    assert_allclose(ann.sigma[clear], sigma[clear], rtol=1e-9 * params.c + 1e-14, atol=0.0)
    mu = params.k * (1.0 - cos)
    assert_allclose(ann.mu[clear], mu[clear], rtol=0.0, atol=2e-9 * params.k)

    z = np.random.Generator(np.random.Philox(key=(1 << 64) | seed)).standard_normal(n)
    moved = pts + (ann.mu + ann.sigma * z)[:, None] * u
    draws = np.random.Generator(np.random.Philox(key=(2 << 64) | seed))
    outlier = draws.random(n) < params.p_out
    assert_array_equal(ann.outlier, outlier)
    assert_array_equal(ann.corrupted[~outlier], moved[~outlier])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    assert_array_equal(ann.corrupted[outlier],
                       lo + draws.random((outlier.sum(), 3)) * (hi - lo))


_VIEW_CLOUDS = {
    "sphere": lambda: unit_sphere_cloud(1024, seed=27),
    "table": lambda: shapes.table(1024, 0),
    "grid_plane": lambda: shapes.grid_plane(128, 64),
}


@pytest.mark.parametrize("cloud", _VIEW_CLOUDS)
def test_one_view_geometry_serves_every_tier(cloud, monkeypatch):
    # the geometry step depends on no tier and no seed: computed once, it
    # gives every preset's tier step the bytes of a whole corrupt_cloud
    # call, and no tier step changes it; it estimates the normals once and
    # opens no random stream
    pts = _VIEW_CLOUDS[cloud]()
    seeds = [2**64 - 1 - i for i in range(len(TIER_NAMES))]
    whole = [corrupt_cloud(pts, SENSOR, tier_params(name), k=16, seed=seed)
             for name, seed in zip(TIER_NAMES, seeds)]
    calls = []
    for name in ("estimate_normals", "_substream"):
        real = getattr(noise, name)
        monkeypatch.setattr(noise, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    view = noise._view_geometry(pts, SENSOR, 16)
    assert calls == ["estimate_normals"]
    before = [a.copy() for a in view]
    for ann, name, seed in zip(whole, TIER_NAMES, seeds):
        split = noise._apply_tier(pts, SENSOR, view, tier_params(name), seed)
        assert split.seed == ann.seed == seed
        for field in dataclasses.fields(ann):
            x, y = getattr(split, field.name), getattr(ann, field.name)
            if field.name != "seed":
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    assert calls == ["estimate_normals"] + ["_substream"] * 2 * len(TIER_NAMES)
    for a, b in zip(view, before):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_corrupt_same_seed_reproduces():
    pts = unit_sphere_cloud(256, seed=26)
    a = corrupt_cloud(pts, SENSOR, tier_params("moderate"), k=16, seed=9)
    b = corrupt_cloud(pts, SENSOR, tier_params("moderate"), k=16, seed=9)
    assert_array_equal(a.corrupted, b.corrupted)
    assert_array_equal(a.outlier, b.outlier)


def test_corrupt_different_seeds_differ():
    pts = unit_sphere_cloud(256, seed=27)
    a = corrupt_cloud(pts, SENSOR, tier_params("moderate"), k=16, seed=10)
    b = corrupt_cloud(pts, SENSOR, tier_params("moderate"), k=16, seed=11)
    assert not np.array_equal(a.corrupted, b.corrupted)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_corrupt_seed_out_of_range_rejected(seed):
    # masking to 64 bits would alias these with 2**64 - 1 and 0
    pts = unit_sphere_cloud(64, seed=28)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        corrupt_cloud(pts, SENSOR, tier_params("heavy"), k=16, seed=seed)


def test_corrupt_seed_range_ends_are_distinct():
    pts = unit_sphere_cloud(64, seed=28)
    lo = corrupt_cloud(pts, SENSOR, tier_params("heavy"), k=16, seed=0)
    hi = corrupt_cloud(pts, SENSOR, tier_params("heavy"), k=16, seed=2**64 - 1)
    assert (lo.seed, hi.seed) == (0, 2**64 - 1)
    assert not np.array_equal(lo.corrupted, hi.corrupted)


def test_corrupt_gaussian_draws_not_shared_with_outlier_stage():
    # changing p_out must not shift the Gaussian stream: non-replaced points
    # keep bit-identical coordinates
    pts = unit_sphere_cloud(500, seed=28)
    base = NoiseParams(a=0.005, b=0.002, c=2.0, k=0.01, p_out=0.0)
    outl = NoiseParams(a=0.005, b=0.002, c=2.0, k=0.01, p_out=0.1)
    a = corrupt_cloud(pts, SENSOR, base, k=16, seed=12)
    b = corrupt_cloud(pts, SENSOR, outl, k=16, seed=12)
    keep = ~b.outlier
    assert keep.sum() > 0
    assert_array_equal(b.corrupted[keep], a.corrupted[keep])


def test_corrupt_gaussian_sample_statistics():
    # constant sigma, zero bias: normalized displacements are standard normal
    pts = unit_sphere_cloud(4000, seed=29)
    params = NoiseParams(a=0.01, b=0.0, c=0.0, k=0.0, p_out=0.0)
    ann = corrupt_cloud(pts, SENSOR, params, k=16, seed=13)
    unit = (pts - np.asarray(SENSOR, dtype=float))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    signed = np.sum((ann.corrupted - pts) * unit, axis=1)
    z = signed / 0.01
    assert z.std() == pytest.approx(1.0, rel=0.05)
    assert abs(z.mean()) < 5.0 / np.sqrt(len(z))


def test_corrupt_tier_severity_is_monotone():
    pts = unit_sphere_cloud(512, seed=30)
    means = [corrupt_cloud(pts, SENSOR, tier_params(t), k=16, seed=14).mean_sigma()
             for t in ("light", "moderate", "heavy")]
    assert means[0] < means[1] < means[2]


def test_corrupt_insufficient_points():
    with pytest.raises(InsufficientPoints):
        corrupt_cloud(unit_sphere_cloud(16, seed=31), SENSOR,
                      tier_params("light"), k=16, seed=0)


def test_corrupt_point_at_sensor_raises():
    pts = unit_sphere_cloud(64, seed=32)
    pts[10] = SENSOR
    with pytest.raises(DegenerateRay):
        corrupt_cloud(pts, SENSOR, tier_params("light"), k=8, seed=0)


def test_annotated_cloud_summary_helpers():
    pts = unit_sphere_cloud(200, seed=33)
    ann = corrupt_cloud(pts, SENSOR, tier_params("heavy"), k=16, seed=15)
    assert ann.mean_sigma() == float(np.mean(ann.sigma))
    assert ann.mean_mu() == float(np.mean(ann.mu))
    assert ann.outlier_count() == int(ann.outlier.sum())
