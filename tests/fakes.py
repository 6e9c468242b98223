"""Stand-ins the tests hand to the library: fixed memberships, row stacking, sparse grids
and BEV maps from dense arrays, sequences whose sensor frames yaw, the paper's grid."""

from __future__ import annotations

from typing import Callable

import numpy as np

from modalpanoptic.cloud import PointCloudSweep, SweepSequence
from modalpanoptic.membership import DetectionRow, Detections, PairTable
from modalpanoptic.voxels import BevMap, GridSpec, SparseGrid

# The paper's grid: 0.075 m voxels in x and y, 0.2 m in z, 54 m planar range,
# z from -5 to 3 m, BEV stride 8. ``GridSpec()`` is the smaller grid the CLI runs.
PAPER_GRID = GridSpec((0.075, 0.075, 0.2), 54.0, -5.0, 3.0, 8)


def stack(rows) -> Detections:
    """One ``Detections`` from ``DetectionRow``s or (center, confidence, class, extent)
    tuples, the latter at velocity 0 m/s."""
    rows = [(*r, np.zeros(2))[:5] for r in rows]
    if not rows:
        return Detections(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=np.int64),
                          np.zeros((0, 3)), np.zeros((0, 2)))
    centers, confidences, classes, extents, velocities = zip(*rows)
    return Detections(np.array(centers, dtype=np.float64), np.array(confidences),
                      np.array(classes), np.array(extents, dtype=np.float64),
                      np.array(velocities, dtype=np.float64))


def row(center, conf=0.9, cid=1, extent=(1.0, 1.0, 1.0), velocity=(0.0, 0.0)) -> DetectionRow:
    return DetectionRow(np.asarray(center, dtype=np.float64), conf, cid,
                        np.asarray(extent, dtype=np.float64),
                        np.asarray(velocity, dtype=np.float64))


def make_table_membership(table: np.ndarray) -> Callable[[PairTable], np.ndarray]:
    """Membership from a precomputed (detections x points) probability table."""
    table = np.asarray(table, dtype=np.float64)
    return lambda pairs: table[pairs.det, pairs.point]


def sparse_of(dense, vector: bool = False) -> SparseGrid:
    """The cells of a dense grid that are not 0.0, NaN cells included.

    With ``vector`` the last axis is each cell's vector, as in a (W', D', 2)
    velocity map, and a cell is listed when any component is not 0.0.
    """
    dense = np.asarray(dense, dtype=np.float64)
    cells = dense.reshape((-1, dense.shape[-1]) if vector else -1)
    listed = cells != 0
    keys = np.flatnonzero(listed.any(axis=1) if vector else listed)
    return SparseGrid(dense.shape, keys, cells[keys])


def listed(grid: SparseGrid) -> np.ndarray:
    """Dense bool mask of the cells a sparse grid lists."""
    mask = np.zeros(grid.shape[:len(grid.shape) + 1 - grid.values.ndim], dtype=bool)
    mask.reshape(-1)[grid.keys] = True
    return mask


def dense_bev(data, cell_size, planar_range) -> BevMap:
    """A BEV map that lists every column of the dense (W', D', C) ``data``."""
    data = np.asarray(data, dtype=np.float64)
    w, d, c = data.shape
    return BevMap(SparseGrid(data.shape, np.arange(w * d), data.reshape(-1, c)), cell_size,
                  planar_range)


def yaw_pose(yaw, translation):
    pose = np.eye(4)
    c, s = np.cos(yaw), np.sin(yaw)
    pose[:2, :2] = [[c, -s], [s, c]]
    pose[:3, 3] = translation
    return pose


def rotated(seq, yaws):
    """``seq`` with each sweep's frame turned by a yaw about its origin, world points kept."""
    sweeps = []
    for sweep, yaw in zip(seq.sweeps, yaws):
        turn = yaw_pose(yaw, np.zeros(3))
        points = sweep.points.copy()
        points[:, :3] = points[:, :3] @ turn[:3, :3]
        sweeps.append(PointCloudSweep(sweep.timestamp, points, sweep.sem_labels,
                                      sweep.inst_labels, sweep.ego_pose @ turn))
    return SweepSequence(tuple(sweeps), seq.period)
