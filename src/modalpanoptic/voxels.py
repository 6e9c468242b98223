"""Sparse voxelization, majority-vote voxel labels and BEV flattening."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .cloud import IGNORE_CLASS, PointCloudSweep

_DIM_TOL = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Sensor-centered sparse grid geometry.

    The planar extent covers [-planar_range, planar_range) on x and y; the
    vertical extent covers [z_min, z_max). Derived cell counts must come out
    as whole numbers, and the BEV downsampling must divide the planar counts
    exactly.
    """

    voxel_size: tuple[float, float, float] = (0.075, 0.075, 0.2)
    planar_range: float = 54.0
    z_min: float = -5.0
    z_max: float = 3.0
    bev_downsample: int = 8

    def __post_init__(self):
        vx, vy, vz = self.voxel_size
        if min(vx, vy, vz) <= 0:
            raise ValueError("voxel sizes must be positive")
        if self.planar_range <= 0 or self.z_max <= self.z_min:
            raise ValueError("empty grid volume")
        if self.bev_downsample < 1:
            raise ValueError("bev_downsample must be >= 1")
        for name, count in (("W", self._exact(2 * self.planar_range / vx)),
                            ("D", self._exact(2 * self.planar_range / vy)),
                            ("H", self._exact((self.z_max - self.z_min) / vz))):
            if count is None or count <= 0:
                raise ValueError(f"grid dimension {name} is not a positive whole number")
        if self.width % self.bev_downsample or self.depth % self.bev_downsample:
            raise ValueError("bev_downsample must divide the planar cell counts exactly")

    @staticmethod
    def _exact(value: float) -> int | None:
        rounded = round(value)
        return rounded if abs(value - rounded) < _DIM_TOL else None

    @property
    def width(self) -> int:
        return round(2 * self.planar_range / self.voxel_size[0])

    @property
    def depth(self) -> int:
        return round(2 * self.planar_range / self.voxel_size[1])

    @property
    def height(self) -> int:
        return round((self.z_max - self.z_min) / self.voxel_size[2])

    @property
    def origin(self) -> np.ndarray:
        return np.array([-self.planar_range, -self.planar_range, self.z_min])

    @property
    def bev_width(self) -> int:
        return self.width // self.bev_downsample

    @property
    def bev_depth(self) -> int:
        return self.depth // self.bev_downsample

    @property
    def bev_cell_size(self) -> float:
        return self.voxel_size[0] * self.bev_downsample

    def voxel_index(self, xyz: np.ndarray) -> np.ndarray:
        """Integer voxel indices, computed regardless of range membership."""
        rel = np.atleast_2d(xyz)[:, :3] - self.origin
        return np.floor(rel / np.asarray(self.voxel_size)).astype(np.int64)

    def in_range(self, xyz: np.ndarray) -> np.ndarray:
        """True where the planar radius is below range and z lies in the slab."""
        p = np.atleast_2d(xyz)
        radius = np.hypot(p[:, 0], p[:, 1])
        return (radius < self.planar_range) & (p[:, 2] >= self.z_min) & (p[:, 2] < self.z_max)

    def bev_cell_of(self, xy: np.ndarray) -> tuple:
        """BEV cell (ix, iy) of a planar position, or index arrays for (D, 2+) positions."""
        cells = np.floor((np.asarray(xy)[..., :2] + self.planar_range) / self.bev_cell_size)
        return tuple(cells.astype(np.int64).T)

    def bev_cell_center(self, ix: int, iy: int) -> np.ndarray:
        cs = self.bev_cell_size
        return np.array([-self.planar_range + (ix + 0.5) * cs,
                         -self.planar_range + (iy + 0.5) * cs])


@dataclass(frozen=True)
class SparseVoxelGrid:
    """Occupied voxels of one cloud as arrays, in ascending (ix, iy, iz) key order.

    ``occupied`` is the (M, 3) int64 key of each occupied voxel. The in-range
    input rows of voxel ``m`` are ``point_index[starts[m]:starts[m + 1]]``,
    ascending. ``features`` is the (M, F) per-voxel mean of the input feature
    rows, or ``None`` when none were given. ``dropped`` counts out-of-range rows.
    """

    spec: GridSpec
    occupied: np.ndarray
    starts: np.ndarray
    point_index: np.ndarray
    features: np.ndarray | None
    dropped: int

    def __len__(self) -> int:
        return self.occupied.shape[0]


class FeatureProvider(Protocol):
    """Per-point encoder features and a BEV feature map for one sweep.

    Stands in for the convolutional backbone: implementations supply the
    point-level feature rows and the flattened planar feature map consumed by
    the membership stage. ``bev_map`` pools the rows ``point_features``
    returned for the same sweep, so a caller computes them once per sweep and
    passes them in.
    """

    def point_features(self, sweep: PointCloudSweep) -> np.ndarray: ...

    def bev_map(self, sweep: PointCloudSweep, point_features: np.ndarray) -> "BevMap": ...


def voxelize(points: np.ndarray, spec: GridSpec,
             features: np.ndarray | None = None) -> SparseVoxelGrid:
    """Group the in-range rows of ``points`` (N, >=3) by voxel; count the rest as dropped.

    When ``features`` (N, F) is given, each voxel gets the mean of its rows,
    summed from +0.0 one row at a time in ascending row order.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 3:
        raise ValueError("points must be (N, >=3)")
    kept = np.flatnonzero(spec.in_range(pts))
    vox = spec.voxel_index(pts[kept])
    # Group by voxel with a lexicographic sort; rows inside a voxel keep their
    # input order, so the grid is the same set under any point permutation.
    order = np.lexsort((kept, vox[:, 2], vox[:, 1], vox[:, 0]))
    vox = vox[order]
    point_index = kept[order]
    new_cell = np.ones(kept.size, dtype=bool)
    new_cell[1:] = np.any(vox[1:] != vox[:-1], axis=1)
    starts = np.append(np.flatnonzero(new_cell), kept.size)
    means = None
    if features is not None:
        sizes = np.diff(starts)
        rows = np.asarray(features, dtype=np.float64)[point_index]
        cell = np.repeat(np.arange(sizes.size), sizes)
        means = _group_sums(cell, rows, sizes.size) / sizes[:, None]
    return SparseVoxelGrid(spec, vox[starts[:-1]], starts, point_index, means,
                           int(pts.shape[0] - kept.size))


def _group_sums(group: np.ndarray, rows: np.ndarray, groups: int) -> np.ndarray:
    """(groups, F) sums of ``rows`` by ``group`` id; each adds its rows from +0.0 in row order."""
    f = rows.shape[1]
    codes = (group[:, None] * f + np.arange(f)).ravel()
    return np.bincount(codes, weights=rows.ravel(), minlength=groups * f).reshape(groups, f)


def majority_vote_labels(grid: SparseVoxelGrid, sem_labels: np.ndarray,
                         current_mask: np.ndarray | None = None) -> np.ndarray:
    """(M,) modal class per voxel of ``grid.occupied`` among its current-sweep points.

    One ``bincount`` over (voxel, class) counts the votes; ``argmax`` breaks
    ties toward the lower class id. Voxels holding only history points get
    the ignore class so the segmentation loss can mask them out.
    """
    sem = np.asarray(sem_labels)[grid.point_index]
    cell = np.repeat(np.arange(len(grid)), np.diff(grid.starts))
    if current_mask is not None:
        current = np.asarray(current_mask)[grid.point_index]
        sem, cell = sem[current], cell[current]
    classes = int(sem.max()) + 1 if sem.size else 1
    counts = np.bincount(cell * classes + sem, minlength=len(grid) * classes).reshape(-1, classes)
    return np.where(counts.any(axis=1), counts.argmax(axis=1), IGNORE_CLASS)


@dataclass(frozen=True)
class BevMap:
    """Dense (W', D', C) planar feature map over the grid footprint."""

    data: np.ndarray
    cell_size: float
    planar_range: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise ValueError("BEV data must be (W', D', C)")
        if not np.all(np.isfinite(data)):
            raise ValueError("BEV features must be finite")
        object.__setattr__(self, "data", data)

    @property
    def width(self) -> int:
        return self.data.shape[0]

    @property
    def depth(self) -> int:
        return self.data.shape[1]


def flatten_bev(grid: SparseVoxelGrid) -> BevMap:
    """Mean of the voxel features in each BEV column, as a dense (W', D', F) map.

    A column is a (bev_downsample x bev_downsample x H) block of voxels.
    Only occupied columns are reduced: each sums its voxel means from +0.0 in
    ascending key order, then divides by its voxel count. Empty columns are
    zero.
    """
    if grid.features is None:
        raise ValueError("grid carries no feature vectors")
    spec = grid.spec
    ds = spec.bev_downsample
    channels = grid.features.shape[1]
    column = (grid.occupied[:, 0] // ds) * spec.bev_depth + grid.occupied[:, 1] // ds
    columns, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
    data = np.zeros((spec.bev_width * spec.bev_depth, channels))
    data[columns] = _group_sums(inverse, grid.features, columns.size) / counts[:, None]
    return BevMap(data.reshape(spec.bev_width, spec.bev_depth, channels),
                  spec.bev_cell_size, spec.planar_range)


def interpolate_bev_many(bev: BevMap, xys: np.ndarray) -> np.ndarray:
    """Bilinear feature lookup among the four cell centers around each (M, 2) query.

    Queries must fall inside the grid footprint; within half a cell of the
    border the stencil clamps to edge cells.
    """
    q = np.atleast_2d(np.asarray(xys, dtype=np.float64))
    r = bev.planar_range
    if np.any((q < -r) | (q >= r)):
        raise ValueError("query outside grid range")
    cs = bev.cell_size
    u = (q[:, 0] + r) / cs - 0.5
    v = (q[:, 1] + r) / cs - 0.5
    i0 = np.clip(np.floor(u).astype(np.int64), 0, max(bev.width - 2, 0))
    j0 = np.clip(np.floor(v).astype(np.int64), 0, max(bev.depth - 2, 0))
    fu = np.clip(u - i0, 0.0, 1.0)[:, None]
    fv = np.clip(v - j0, 0.0, 1.0)[:, None]
    i1 = np.minimum(i0 + 1, bev.width - 1)
    j1 = np.minimum(j0 + 1, bev.depth - 1)
    d = bev.data
    return ((1 - fu) * (1 - fv) * d[i0, j0]
            + fu * (1 - fv) * d[i1, j0]
            + (1 - fu) * fv * d[i0, j1]
            + fu * fv * d[i1, j1])
