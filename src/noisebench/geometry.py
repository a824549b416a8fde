"""Point cloud geometry: sensor ranges, surface normals, incidence angles.

Every function takes a cloud of shape (n, 3) and returns per-point arrays;
a single point is a 1-row cloud. Clouds are plain float64 numpy arrays; no
wrapper classes.
"""

from typing import NamedTuple

import numpy as np

from .errors import DegenerateRay, InsufficientPoints

# candidate table entries (cells x widest block) and distance entries
# (query rows x widest block) the kNN search holds at once: its scratch is a
# few arrays of 256 KB each, small enough to stay in cache
_KNN_BLOCK = 1 << 15

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
    from the cloud's measured occupancy (see the sizing loop), and a point's
    candidates are the points in the 3x3x3 cells around its own. Its k
    smallest candidates are the global answer when the k-th distance is
    below the squared distance from the point to the outside of that block,
    less the expansion's absolute rounding error (about eps * max |p|^2,
    which grows with the distance from the origin). A block side on the
    bounding box is infinitely far. Rejected points are searched again with
    cells twice as large; once a block spans the bounding box the search is
    brute force, so the loop ends and the result is always exact. Cost is
    O(n k) time on clouds evenly spread over a curve, surface or volume, and
    O(n^2) at worst (one dense cluster plus far outliers). Candidates are
    per-chunk tables, a row per query cell padded with a sentinel at d^2 =
    +inf; scratch beyond O(n) is a few _KNN_BLOCK-entry arrays.
    """
    n = len(pts)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k} for n={n}")
    # x, y, z and |p|^2 per point, then the sentinel: at the origin with
    # |p|^2 = +inf, so its d^2 to any point is +inf
    x, y, z = pts.T
    xyzs = np.append([x, y, z, x * x + y * y + z * z], [[0.0], [0.0], [0.0], [np.inf]], axis=1)
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    # error bound for a computed d^2 (under 20 eps max|p|^2) plus that of
    # the squared block distance (under 60 eps max|p|^2), with margin
    slack = 128.0 * (_EPS * xyzs[3, :n].max() + _TINY)

    # the first side only affects speed. It starts where k points fill a
    # cell of the bounding box's 1-, 2- or 3-d hull, the largest of the
    # three (sides relative to the longest keep the products from
    # overflowing on huge extents). A surface or curve inside that box
    # leaves most cells empty and crowds the rest, so the side then shrinks
    # by 0.8 while the point-weighted mean block count, from one bucketing
    # and a separable box sum, exceeds 6 k, unless the grid would pass n
    # cells or not grow (as at zero extent), for at most 16 steps; so all
    # scratch is O(n). At 4 k, a filled ball's blocks get too thin and many
    # of its points need a retry
    side = np.sort(extent)[::-1]
    rel = side / (side[0] or 1.0)
    h = side[0] * max((np.prod(rel[:d]) * k / n) ** (1.0 / d) for d in (1, 2, 3)) or 1.0
    for _ in range(16):
        ncell, cell, key = _cells(pts, lo, extent, h)[:3]
        occ = np.bincount(key, minlength=np.prod(ncell)).reshape(ncell)
        block = np.pad(occ, 1)
        for ax in range(3):
            b = block.swapaxes(0, ax)
            block = (b[:-2] + b[1:-1] + b[2:]).swapaxes(0, ax)
        nxt = np.floor(extent / (0.8 * h)) + 1
        if (occ * block).sum() <= 6 * k * n or nxt.prod() > n or (nxt == ncell).all():
            break
        h *= 0.8
    del cell, key, occ, block, b  # sizing scratch, not held through the search

    out = np.empty((n, k), dtype=np.intp)
    # the first pass's rows are a temporary, so none of its 8 n bytes is
    # held here through the search
    todo = _grid_pass(xyzs, k, np.arange(n), out, lo, extent, h, slack)
    while todo.size:
        h *= 2.0
        todo = _grid_pass(xyzs, k, todo, out, lo, extent, h, slack)
    return out


def _spans(starts, counts):
    """Concatenation of the index ranges [starts[i], starts[i] + counts[i])."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _cells(pts, lo, extent, h):
    """Grid shape, cell, flat cell key and cell-unit coordinates of each point."""
    ncell = np.floor(extent / h).astype(np.int64) + 1
    t = (pts - lo) / h
    cell = np.minimum(np.floor(t).astype(np.int64), ncell - 1)
    return ncell, cell, (cell[:, 0] * ncell[1] + cell[:, 1]) * ncell[2] + cell[:, 2], t


def _grid_pass(xyzs, k, rows, out, lo, extent, h, slack):
    """One search of `rows` on a grid of side h; returns the rejected rows."""
    n = xyzs.shape[1] - 1
    ncell, cell, key, t = _cells(xyzs[:3, :n].T, lo, extent, h)
    # squared distance from each point to the outside of its block, less
    # the slack; a side whose next cell is off the grid is infinitely far
    below = np.where(cell - 1 > 0, t - (cell - 1), np.inf)
    above = np.where(cell + 1 < ncell - 1, (cell + 2) - t, np.inf)
    bound = (np.minimum(below, above).min(axis=1) * h) ** 2 - slack
    del t, below, above  # (n, 3) scratch, not held through the search

    order = np.argsort(key, kind="stable")
    # order[start[c]:start[c + 1]] are cell c's points. The first pass's
    # grid is the hull's, at most about 8 n / k cells, or a shrunk one of
    # at most n; either way the table stays O(n) (doubling h on a retry
    # only shrinks it)
    start = np.searchsorted(key[order], np.arange(np.prod(ncell) + 1))

    # every occupied query cell's 3x3x3 block at once: each of its 9 (x, y)
    # columns is a run of consecutive cells, so its points are order[s0:s0 +
    # cnt] for the column's z range; an off-grid column is empty
    rows = rows[np.argsort(key[rows], kind="stable")]
    first = np.flatnonzero(np.diff(key[rows], prepend=-1))
    c = cell[rows[first]]
    x, y = c[:, :1] + np.arange(9) // 3 - 1, c[:, 1:2] + np.arange(9) % 3 - 1
    on = (x >= 0) & (x < ncell[0]) & (y >= 0) & (y < ncell[1])
    col = (x * ncell[1] + y) * ncell[2]
    s0 = start[np.where(on, col + np.maximum(c[:, 2:] - 1, 0), 0)]
    cnt = start[np.where(on, col + np.minimum(c[:, 2:] + 2, ncell[2]), 0)] - s0
    del x, y, on, col
    # cells widest block first, rows grouped by cell in that order; cells
    # whose block holds no more than k points besides their own come last
    # and are rejected
    by = np.argsort(-cnt.sum(axis=1), kind="stable")
    s0, cnt, nrow = s0[by], cnt[by], np.diff(first, append=len(rows))[by]
    width = cnt.sum(axis=1)
    rows = rows[_spans(first[by], nrow)]
    cum = np.concatenate(([0], np.cumsum(nrow)))
    wide = np.count_nonzero(width > k)
    rejected = [rows[cum[wide]:]]
    # a chunk from cell i is the cells whose rows x widest block fit
    # _KNN_BLOCK, up to cell fit[i], and at least cell i
    fit = (np.searchsorted(cum, cum[:wide] + _KNN_BLOCK // width[:wide], "right") - 1).tolist()
    i = 0
    while i < wide:
        w, j = width[i], min(max(i + 1, fit[i]), wide)
        # each cell's candidates ascending by index: sorted (cell, index) keys
        # spread into a table padded with the sentinel
        base = np.repeat(np.arange(j - i) * (n + 1), width[i:j])
        ckey = base + order[_spans(s0[i:j].ravel(), cnt[i:j].ravel())]
        ckey.sort()
        table = np.full((j - i, w), n)
        table[np.arange(w) < width[i:j, None]] = ckey - base
        blk = rows[cum[i]:cum[j]]
        q = np.repeat(np.arange(j - i), nrow[i:j])       # each row's cell
        # each row's own column: its key's place less its cell's first place
        self_col = ckey.searchsorted(q * (n + 1) + blk) - ckey.searchsorted(q * (n + 1))
        cand = xyzs[:, table]                            # (4, cells, w)
        step = max(1, _KNN_BLOCK // w)                   # rows per block
        for b0 in range(0, len(blk), step):
            b = slice(b0, b0 + step)
            kth = _nearest_in(xyzs, k, blk[b], cand, table, q[b], self_col[b], out)
            rejected.append(blk[b][kth >= bound[blk[b]]])
        i = j
    return np.concatenate(rejected)


def _nearest_in(xyzs, k, blk, cand, table, q, self_col, out):
    """Write the k nearest of candidates table[q] to each of `blk`; return the k-th d^2."""
    # cand holds the table's x, y, z and |p|^2. a.b is three products and
    # two sums, the same for every pair wherever it is computed; BLAS would
    # round it differently per call shape
    xb, yb, zb, sqb = xyzs[:, blk, None]
    if len(table) > 1:  # rows gather their cells' rows; the products overwrite them
        xc, yc, zc, sqc = buf = cand.take(q, axis=1)
    else:  # a one-cell table (a dense cell) is broadcast instead
        (xc, yc, zc, sqc), buf = cand, (None,) * 4
    dot = np.multiply(xc, xb, out=buf[0])
    dot += np.multiply(yc, yb, out=buf[1])
    dot += np.multiply(zc, zb, out=buf[2])
    d2 = np.add(sqc, sqb, out=buf[3])
    dot *= 2.0
    d2 -= dot
    np.maximum(d2, 0.0, out=d2)  # clip rounding negatives
    m, width = d2.shape
    d2[np.arange(m), self_col] = np.inf
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    # every candidate up to the k-th value, ordered by d^2 within its row:
    # flat is row-major and each row's values, padded with +inf, are sorted
    # stably, so equal d^2 keep column order, which is index order because
    # table rows are ascending. A row has at least k finite entries, so the
    # +inf padding never reaches its first k
    flat = np.flatnonzero(d2 <= kth[:, None])
    r = flat // width
    first = r.searchsorted(np.arange(m))
    pos = np.arange(len(flat)) - first[r]
    vals = np.full((m, pos.max() + 1), np.inf)
    vals[r, pos] = d2.ravel()[flat]
    pick = first[:, None] + vals.argsort(axis=1, kind="stable")[:, :k]
    out[blk] = table[q[:, None], flat[pick] % width]
    return kth


def _jacobi3(a):
    """Eigenvalues and eigenvectors of n symmetric 3x3 matrices at once.

    a is a 3x3 list of (n,) arrays, a[i][j] is a[j][i], and is overwritten.
    Cyclic Jacobi (Kopp 2008, arXiv physics/0610206): each rotation zeroes
    a[p][q]; t, the tangent of its angle, is the root of t^2 + 2 theta t = 1
    nearer 0, theta = (a[q][q] - a[p][p]) / (2 a[p][q]). Four sweeps left
    the off-diagonal under 1e-20 of the norm on 800,000 random matrices
    (three: 2e-5). Returns the diagonal, unordered, and v, a 3x3 list of
    (n,) arrays whose column v[.][j] is the unit eigenvector of diagonal
    entry j. Only + - * /, sqrt and copysign compute values, each correctly
    rounded on every CPU, so the bytes do not depend on it.
    """
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(4):  # sweeps
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq, h = a[p][q], a[q][q] - a[p][p]
            # z = 1 / theta where |theta| >= 1, t = z / (1 + sqrt(z^2 + 1)):
            # nothing overflows, and a zero a[p][q] gives t = 0, the
            # identity, without a division by it. Elsewhere z = theta, with
            # a[p][q] != 0, and t = 1 / (z + sign(z) sqrt(z^2 + 1))
            twice = apq + apq
            big = np.abs(h) >= np.abs(twice)
            z = np.where(big, twice, h) / np.where(big, np.where(h == 0.0, 1.0, h), twice)
            root = np.sqrt(z * z + 1.0)
            t = np.where(big, z, 1.0) / np.where(big, 1.0 + root, z + np.copysign(root, z))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            shift = t * apq
            a[p][p], a[q][q] = a[p][p] - shift, a[q][q] + shift
            a[p][q] = a[q][p] = 0.0
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            for row in v:
                vp, vq = row[p], row[q]
                row[p], row[q] = c * vp - s * vq, s * vp + c * vq
    return [a[i][i] for i in range(3)], v


def estimate_normals(points, k, sensor):
    """Per-point surface normals from PCA over k-nearest-neighbor sets.

    For each point the k nearest neighbors are gathered: by squared
    Euclidean distance, self excluded, exact ties to the lower index (see
    _knn_indices for the exact search, O(n k) on evenly spread clouds and
    O(n^2) at worst). The normal is the eigenvector of the smallest
    eigenvalue of the neighborhood covariance, from _jacobi3, not LAPACK.
    Normals are flipped to face the sensor: dot(normal, sensor - point) >= 0.

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

    # the six unique covariance entries of each neighborhood as flat (n,)
    # arrays: each coordinate gathered as a contiguous (k, n) array,
    # centred, and elementwise products summed over the neighbors in order.
    # BLAS would round them by the kernel OpenBLAS picks for the CPU
    cen = np.ascontiguousarray(pts.T).take(_knn_indices(pts, k).T, axis=1)  # (3, k, n)
    cen -= cen.sum(axis=1, keepdims=True) / k
    cov = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            cov[i][j] = cov[j][i] = np.sum(cen[i] * cen[j], axis=0) / k
    del cen

    (e0, e1, e2), evecs = _jacobi3(cov)
    lo, hi = np.minimum(e0, e1), np.maximum(e0, e1)
    lam0, lam1, lam2 = np.minimum(lo, e2), np.maximum(lo, np.minimum(hi, e2)), np.maximum(hi, e2)
    degenerate = (lam1 - lam0) <= 1e-9 * np.maximum(lam2, 0.0)
    # the eigenvector of the smallest eigenvalue, the first one on a tie
    col = np.where(e0 == lam0, 0, np.where(e1 == lam0, 1, 2))
    normals = np.array(evecs)[:, col, np.arange(n)].T.copy()

    flip = np.sum(normals * (sensor - pts), axis=1) < 0.0
    normals[flip] *= -1.0

    # Jacobi vectors are orthonormal to machine precision; renormalize anyway
    # so the unit-length contract holds exactly where it is cheap to enforce
    normals /= np.linalg.norm(normals, axis=1)[:, None]

    if degenerate.any():
        normals[degenerate] = -_unit_rays(pts[degenerate], sensor)

    return NormalEstimate(vectors=normals, degenerate=degenerate)
