"""Seeded ModelNet-like test clouds, and a grid plane of exact ties.

Importable from the tests and from a plain script with tests/ on the path,
so a report prints figures on the same clouds the tests check.
"""

import numpy as np

# a 2 x 1.2 x 0.05 table top on four 0.08 x 0.08 x 1.45 legs, each box as
# (lower corner, size)
_BOX_LO = np.array([[-1.0, -0.6, 1.45]]
                   + [[x, y, 0.0] for x in (-0.95, 0.87) for y in (-0.55, 0.47)])
_BOX_SIZE = np.array([[2.0, 1.2, 0.05]] + [[0.08, 0.08, 1.45]] * 4)


def table(n, seed):
    """n points sampled area-uniformly from the surfaces of a table's five
    boxes: thin faces and edges where a sphere has none."""
    rng = np.random.default_rng(seed)
    # area of each box's two faces normal to each axis, (5, 3)
    area = np.prod(_BOX_SIZE, axis=1)[:, None] / _BOX_SIZE
    box, axis = np.divmod(rng.choice(area.size, n, p=area.ravel() / area.sum()), 3)
    pts = _BOX_LO[box] + rng.random((n, 3)) * _BOX_SIZE[box]
    side = rng.integers(0, 2, n)
    pts[np.arange(n), axis] = _BOX_LO[box, axis] + side * _BOX_SIZE[box, axis]
    return pts


def cube(n, seed):
    """n points uniform on the six faces of [-1, 1]^3, each point's coordinate
    on its face's axis exactly -1.0 or 1.0: flat faces with exact normals."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    pts[np.arange(n), rng.integers(0, 3, n)] = rng.choice([-1.0, 1.0], n)
    return pts


def grid_plane(nx, nz):
    """An nx x nz grid in the y = 0 plane: many exactly tied distances."""
    i, j = np.meshgrid(np.arange(nx), np.arange(nz), indexing="ij")
    return np.column_stack([i.ravel(), np.zeros(i.size), j.ravel()]) * 2.0 ** -6
