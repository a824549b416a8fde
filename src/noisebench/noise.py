"""Parametric sensor noise model for point clouds.

Measurement error along the view ray is Gaussian with range- and
incidence-dependent scale:

    sigma_range(r)      = a + b * r                 [m]
    angle_factor(cos t) = 1 + c * (1 - cos t)       [unitless, >= 1]
    sigma(r, t)         = sigma_range * angle_factor
    mu(t)               = k * (1 - cos t)           [m]

where r is the point's range from the sensor and t the incidence angle
between the view ray and the local surface normal. Each point is displaced
by eps ~ N(mu, sigma) along the sensor->point direction (perturb_points).
A fraction p_out of points is then replaced by uniform draws from the
clean cloud's axis-aligned bounding box (inject_outliers); replaced points
keep the sigma/mu computed for their original geometry and are marked in a
boolean mask. Every stage works on whole (n, 3) clouds.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (estimate_normals, incidence_cosine, range_to_sensor, _as_cloud,
                       _as_vec3, _unit_rays)
from .tiers import NoiseParams, _check_seed

# purpose tags for per-sample random substreams; each purpose gets its own
# counter-based stream so draws are indexed by (point order, purpose) and
# never shared between the Gaussian and outlier stages
_STREAM_PERTURB = 1
_STREAM_OUTLIER = 2


def sigma_range(r, a, b):
    """Range-dependent noise scale a + b*r. Works on scalars and arrays."""
    return a + b * np.asarray(r, dtype=np.float64)


def angle_factor(cos_theta, c):
    """Incidence multiplier 1 + c*(1 - cos_theta); equals 1 at normal incidence."""
    return 1.0 + c * (1.0 - np.asarray(cos_theta, dtype=np.float64))


def bias_mu(cos_theta, k):
    """Systematic range bias k*(1 - cos_theta); zero at normal incidence."""
    return k * (1.0 - np.asarray(cos_theta, dtype=np.float64))


def point_sigma(r, cos_theta, params):
    """Full per-point noise scale: sigma_range(r) * angle_factor(cos_theta).

    The two contributions compose multiplicatively, so the incidence factor
    scales whatever range noise is already present.
    """
    return sigma_range(r, params.a, params.b) * angle_factor(cos_theta, params.c)


def perturb_points(points, sensor, sigma, mu, rng):
    """Displace each point along its view ray by eps ~ N(mu, sigma).

    points is an (n, 3) cloud; sigma and mu are scalars or (n,) arrays,
    and eps = mu + sigma * z with z = rng.standard_normal(n): exactly n
    variates, one per point in index order. With sigma = mu = 0 the points
    are returned bit-identical. Raises DegenerateRay (via _unit_rays), before
    drawing, if any point sits exactly at the sensor position.
    """
    pts = _as_cloud(points)
    rays = _unit_rays(pts, _as_vec3(sensor, "sensor"))
    eps = mu + sigma * rng.standard_normal(len(pts))
    return pts + eps[:, None] * rays


def bounding_box(points):
    """Axis-aligned bounding box of a cloud as a (lo, hi) pair of 3-vectors."""
    pts = _as_cloud(points)
    return pts.min(axis=0), pts.max(axis=0)


def inject_outliers(points, p_out, bbox, rng):
    """Replace each point with probability p_out by a uniform draw from bbox.

    Draw order is fixed: one decision uniform per point in index order,
    then one coordinate triple per replaced point, again in index order.
    Returns (new_points, mask); the input is never modified.
    """
    pts = _as_cloud(points)
    if not (0.0 <= p_out <= 1.0):
        raise ValueError(f"p_out must be in [0, 1], got {p_out}")
    lo = _as_vec3(bbox[0], "bbox lo")
    hi = _as_vec3(bbox[1], "bbox hi")
    if np.any(hi < lo):
        raise ValueError("bbox upper corner below lower corner")

    out = pts.copy()
    mask = rng.random(len(pts)) < p_out
    count = int(mask.sum())
    if count:
        out[mask] = lo + rng.random((count, 3)) * (hi - lo)
    return out, mask


@dataclass
class AnnotatedCloud:
    """A corrupted cloud with per-point noise annotations.

    corrupted has the clean cloud's shape; sigma, mu, r and cos_theta
    describe the noise model evaluated on the clean geometry. outlier marks
    points whose coordinates were replaced by bounding-box draws (their
    sigma/mu annotations still describe the pre-replacement geometry). It
    holds no copy of the clean cloud; callers keep their own.
    """

    corrupted: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    r: np.ndarray
    cos_theta: np.ndarray
    outlier: np.ndarray
    degenerate_normal: np.ndarray
    seed: int = 0

    def __post_init__(self):
        n = len(self.corrupted)
        for name in ("sigma", "mu", "r", "cos_theta", "outlier", "degenerate_normal"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match the cloud ({n})")

    def __len__(self):
        return len(self.corrupted)

    def mean_sigma(self):
        """Arithmetic mean of the per-point sigma annotations."""
        return float(np.mean(self.sigma))

    def mean_mu(self):
        return float(np.mean(self.mu))

    def outlier_count(self):
        return int(np.count_nonzero(self.outlier))


def _substream(seed, purpose):
    """Counter-based generator for one (sample seed, purpose) pair.

    The Philox key is the 128-bit integer (purpose << 64) | seed, so streams
    for different purposes or samples never overlap, and the i-th draw from
    a stream always belongs to point i regardless of how the surrounding
    work is scheduled.
    """
    key = (int(purpose) << 64) | int(seed)
    return np.random.Generator(np.random.Philox(key=key))


def corrupt_cloud(points, sensor, params, k=16, seed=0):
    """Apply the full noise model to a clean cloud.

    Stages: estimate normals on the clean cloud (k nearest neighbors),
    evaluate sigma/mu per point, displace each point along its view ray by
    one Gaussian draw (perturb_points), then replace a p_out fraction with
    uniform samples from the clean cloud's bounding box (inject_outliers).
    All randomness derives from `seed` through fixed-purpose substreams
    (see _substream), so the result is byte-identical across runs and
    worker counts. Gaussian variates come from numpy's Philox generator
    (ziggurat method), which is stable for a given numpy build.

    :param points: (n, 3) clean cloud, n > k (InsufficientPoints otherwise).
    :param sensor: sensor position, 3-vector within +-1e150 (ValueError
        otherwise); no point may sit on it (DegenerateRay otherwise).
    :param params: NoiseParams tier bundle.
    :param k: normal-estimation neighborhood size.
    :param seed: sample seed in [0, 2^64) (ValueError otherwise).
    :returns: AnnotatedCloud.
    """
    _check_seed(seed)
    pts = _as_cloud(points)
    normals = estimate_normals(pts, k, sensor)
    r = range_to_sensor(pts, sensor)
    cos_t = incidence_cosine(pts, normals.vectors, sensor)
    sigma = point_sigma(r, cos_t, params)
    mu = bias_mu(cos_t, params.k)
    corrupted = perturb_points(pts, sensor, sigma, mu, _substream(seed, _STREAM_PERTURB))
    corrupted, mask = inject_outliers(
        corrupted, params.p_out, bounding_box(pts), _substream(seed, _STREAM_OUTLIER)
    )

    return AnnotatedCloud(
        corrupted=corrupted,
        sigma=sigma,
        mu=mu,
        r=r,
        cos_theta=cos_t,
        outlier=mask,
        degenerate_normal=normals.degenerate,
        seed=int(seed),
    )
