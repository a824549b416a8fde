"""Point cloud geometry: sensor ranges, surface normals, incidence angles.

Every function takes a cloud of shape (n, 3) and returns per-point arrays;
a single point is a 1-row cloud. Clouds are plain float64 numpy arrays; no
wrapper classes.
"""

from typing import NamedTuple

import numpy as np

from .errors import DegenerateRay, InsufficientPoints

# distance entries (query rows x candidates) computed at once; bounds the
# scratch memory of the kNN search at a few arrays of 8 MB each
_KNN_BLOCK = 1 << 20

# rounding: relative error of one operation, absolute error on underflow
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal

# largest |coordinate| c of a point (in estimate_normals) or of the sensor.
# The kNN's squared distances and squared view-ray lengths stay under 16 c^2
# and a neighborhood's covariance sums under 4 k c^2, so all are finite for
# any k below 4e7; c ~ 1e154 overflows d^2
_MAX_COORD = 1e150


class NormalEstimate(NamedTuple):
    """Per-point unit normals plus a flag for ill-conditioned neighborhoods."""

    vectors: np.ndarray    # (n, 3) unit normals, oriented toward the sensor
    degenerate: np.ndarray  # (n,) bool, True where the PCA fallback was used


def _as_cloud(points):
    """Coerce input to a float64 (n, 3) array."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected shape (n, 3), got {arr.shape}")
    return arr


def _as_vec3(v, name):
    """Coerce input to a float64 3-vector within +-_MAX_COORD, like points."""
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {np.shape(v)}")
    if not (np.abs(arr) <= _MAX_COORD).all():  # also false for nan and inf
        raise ValueError(f"{name} must be finite and within +-{_MAX_COORD:g}, "
                         f"got {arr.tolist()}")
    return arr


def _unit_rays(pts, sensor):
    """(n, 3) unit sensor->point rays; DegenerateRay if a point is on the sensor."""
    rays = pts - sensor
    r = np.linalg.norm(rays, axis=1)
    if np.any(r == 0.0):
        raise DegenerateRay("point coincides with the sensor position")
    return rays / r[:, None]


def range_to_sensor(points, sensor):
    """Euclidean distance from each point of an (n, 3) cloud to the sensor; (n,)."""
    return np.linalg.norm(_as_cloud(points) - _as_vec3(sensor, "sensor"), axis=1)


def incidence_cosine(points, normals, sensor):
    """Absolute cosine between each sensor->point ray and its surface normal.

    Takes (n, 3) points and normals and returns (n,), clamped to [0, 1].
    Raises DegenerateRay (via _unit_rays) if a point sits on the sensor.
    """
    pts = _as_cloud(points)
    nrm = _as_cloud(normals)
    if len(pts) != len(nrm):
        raise ValueError("points and normals must have matching shapes")
    cos = np.abs(np.sum(_unit_rays(pts, _as_vec3(sensor, "sensor")) * nrm, axis=1))
    return np.clip(cos, 0.0, 1.0)


def _knn_indices(pts, k):
    """Indices of the k nearest neighbors of every point (self excluded).

    Distance is the squared-norm expansion |a|^2 + |b|^2 - 2 a.b, clipped
    at 0, with each dot product taken as three products and two sums, so a
    pair's value does not depend on where it is computed and a point's
    duplicates are at exactly 0. Neighbors are ordered by that value; exact
    ties go to the lower point index. Coordinates must be finite.

    Exact uniform-grid search. Points are bucketed into cubic cells sized
    to hold about k points each, and a point's candidates are the points in
    the 3x3x3 cells around its own. Its k smallest candidates are the
    global answer when the k-th distance is below the squared distance from
    the point to the outside of that block, less the expansion's absolute
    rounding error (about eps * max |p|^2, which grows with the distance
    from the origin). A block side on the bounding box is infinitely far.
    Rejected points are searched again with cells twice as large; once a
    block spans the bounding box the search is brute force, so the loop
    ends and the result is always exact. Cost is O(n k) time on evenly
    spread clouds and O(n^2) at worst (one dense cluster plus far
    outliers); scratch memory is bounded by _KNN_BLOCK.
    """
    n = len(pts)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k} for n={n}")
    xyz = np.ascontiguousarray(pts.T)
    sq = xyz[0] * xyz[0] + xyz[1] * xyz[1] + xyz[2] * xyz[2]
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    # error bound for a computed d^2 (under 20 eps max|p|^2) plus that of
    # the squared block distance (under 60 eps max|p|^2), with margin
    slack = 128.0 * (_EPS * sq.max() + _TINY)
    # cell side that puts k points in a cell when they fill the bounding
    # box's 1-, 2- or 3-d hull; the largest of the three sizes flat and thin
    # clouds for their real extent. It only affects speed. Sides relative to
    # the longest keep the products from overflowing on huge extents.
    side = np.sort(extent)[::-1]
    rel = side / (side[0] or 1.0)
    h = side[0] * max((np.prod(rel[:d]) * k / n) ** (1.0 / d) for d in (1, 2, 3)) or 1.0

    out = np.empty((n, k), dtype=np.intp)
    todo = np.arange(n)
    while todo.size:
        todo = _grid_pass(xyz, sq, k, todo, out, lo, extent, h, slack)
        h *= 2.0
    return out


def _grid_pass(xyz, sq, k, rows, out, lo, extent, h, slack):
    """One grid search with cell side h for `rows`; returns the rejected rows."""
    ncell = np.floor(extent / h).astype(np.int64) + 1
    t = (xyz.T - lo) / h                                 # cell units
    cell = np.minimum(np.floor(t).astype(np.int64), ncell - 1)
    key = (cell[:, 0] * ncell[1] + cell[:, 1]) * ncell[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    rows = rows[np.argsort(key[rows], kind="stable")]

    # squared distance from each point to the outside of its block, less
    # the slack; a side whose next cell is off the grid is infinitely far
    below = np.where(cell - 1 > 0, t - (cell - 1), np.inf)
    above = np.where(cell + 1 < ncell - 1, (cell + 2) - t, np.inf)
    bound = (np.minimum(below, above).min(axis=1) * h) ** 2 - slack

    col = np.empty(len(sq), dtype=np.intp)  # point -> column in `cand`
    group_start = np.flatnonzero(np.diff(key[rows], prepend=-1))
    rejected = []
    for g0, g1 in zip(group_start, np.append(group_start[1:], len(rows))):
        cx, cy, cz = cell[rows[g0]]
        z0, z1 = max(cz - 1, 0), min(cz + 1, ncell[2] - 1)
        spans = []
        for x in range(max(cx - 1, 0), min(cx + 2, ncell[0])):
            for y in range(max(cy - 1, 0), min(cy + 2, ncell[1])):
                base = (x * ncell[1] + y) * ncell[2]
                spans.append(order[np.searchsorted(sorted_key, base + z0):
                                   np.searchsorted(sorted_key, base + z1, "right")])
        cand = np.concatenate(spans)
        if len(cand) <= k:
            rejected.append(rows[g0:g1])
            continue
        col[cand] = np.arange(len(cand))
        step = max(1, _KNN_BLOCK // len(cand))
        for b0 in range(g0, g1, step):
            blk = rows[b0:min(b0 + step, g1)]
            kth = _nearest_in(xyz, sq, k, blk, cand, col[blk], out)
            rejected.append(blk[kth >= bound[blk]])
    return np.concatenate(rejected) if rejected else rows[:0]


def _nearest_in(xyz, sq, k, blk, cand, self_col, out):
    """Write the k nearest of `cand` to each point of `blk`; return the k-th d^2."""
    # a.b as three products and two sums, the same for every pair wherever
    # it is computed; BLAS would round it differently per call shape
    (xb, yb, zb), (xc, yc, zc) = xyz[:, blk], xyz[:, cand]
    dot = np.multiply.outer(xb, xc)
    dot += np.multiply.outer(yb, yc)
    dot += np.multiply.outer(zb, zc)
    d2 = np.add.outer(sq[blk], sq[cand])
    dot *= 2.0
    d2 -= dot
    np.maximum(d2, 0.0, out=d2)  # clip rounding negatives
    m, width = d2.shape
    d2[np.arange(m), self_col] = np.inf
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    # every candidate up to the k-th value, ordered by (row, d^2, index)
    flat = np.flatnonzero(d2 <= kth[:, None])
    r, idx = flat // width, cand[flat % width]
    first = np.searchsorted(r, np.arange(m))
    pick = np.lexsort((idx, d2.ravel()[flat], r))[first[:, None] + np.arange(k)]
    out[blk] = idx[pick]
    return kth


def estimate_normals(points, k, sensor):
    """Per-point surface normals from PCA over k-nearest-neighbor sets.

    For each point the k nearest neighbors are gathered: by squared
    Euclidean distance, self excluded, exact ties to the lower index (see
    _knn_indices for the exact search, O(n k) on evenly spread clouds and
    O(n^2) at worst). The normal is the eigenvector of the smallest
    eigenvalue of the neighborhood covariance. Normals are flipped to face
    the sensor: dot(normal, sensor - point) >= 0.

    A neighborhood is degenerate when its two smallest principal variances
    are indistinguishable at relative tolerance 1e-9 (collinear or isotropic
    sets included); those points fall back to the unit vector pointing at
    the sensor and are flagged; one that sits on the sensor raises DegenerateRay.

    :param points: (n, 3) cloud of finite coordinates no larger than 1e150
        in magnitude (ValueError otherwise; beyond that squared distances
        overflow); n must exceed k.
    :param k: neighborhood size, at least 3.
    :param sensor: sensor position, 3-vector under the same bound.
    :returns: NormalEstimate(vectors, degenerate).
    """
    pts = _as_cloud(points)
    sensor = _as_vec3(sensor, "sensor")
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    n = len(pts)
    if n <= k:
        raise InsufficientPoints(f"need more than k={k} points, got {n}")
    if not (np.abs(pts) <= _MAX_COORD).all():  # also false for nan and inf
        raise ValueError(f"points must be finite and within +-{_MAX_COORD:g}, "
                         "beyond which squared distances overflow")

    nbrs = _knn_indices(pts, k)
    nbhd = pts[nbrs]                                   # (n, k, 3)
    centered = nbhd - nbhd.mean(axis=1, keepdims=True)
    cov = centered.transpose(0, 2, 1) @ centered / k   # (n, 3, 3)

    evals, evecs = np.linalg.eigh(cov)                 # ascending eigenvalues
    normals = evecs[:, :, 0].copy()
    lam0, lam1, lam2 = evals[:, 0], evals[:, 1], evals[:, 2]
    degenerate = (lam1 - lam0) <= 1e-9 * np.maximum(lam2, 0.0)

    flip = np.sum(normals * (sensor - pts), axis=1) < 0.0
    normals[flip] *= -1.0

    # eigh vectors are orthonormal to machine precision; renormalize anyway
    # so the unit-length contract holds exactly where it is cheap to enforce
    normals /= np.linalg.norm(normals, axis=1)[:, None]

    if degenerate.any():
        normals[degenerate] = -_unit_rays(pts[degenerate], sensor)

    return NormalEstimate(vectors=normals, degenerate=degenerate)
