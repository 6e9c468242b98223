"""Sparse voxelization, majority-vote voxel labels and BEV flattening."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

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

    def bev_cell_of(self, xy: np.ndarray) -> tuple[int, int]:
        cs = self.bev_cell_size
        ix = int(np.floor((xy[0] + self.planar_range) / cs))
        iy = int(np.floor((xy[1] + self.planar_range) / cs))
        return ix, iy

    def bev_cell_center(self, ix: int, iy: int) -> np.ndarray:
        cs = self.bev_cell_size
        return np.array([-self.planar_range + (ix + 0.5) * cs,
                         -self.planar_range + (iy + 0.5) * cs])


@dataclass
class VoxelCell:
    point_indices: np.ndarray
    feature: np.ndarray | None = None
    current_sweep: bool = False


@dataclass
class SparseVoxelGrid:
    spec: GridSpec
    occupied: dict[tuple[int, int, int], VoxelCell]
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.occupied)


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


def voxelize(
    points: np.ndarray,
    spec: GridSpec,
    features: np.ndarray | None = None,
    feature_reduce: str = "mean",
) -> SparseVoxelGrid:
    """Assign points to sparse voxels; out-of-range points are counted as dropped.

    ``points`` is (N, >=3) with optional dt in column 4 (dt == 0 marks the
    current sweep). When ``features`` (N, F) is given, each occupied cell gets
    the reduction of its points' feature rows.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 3:
        raise ValueError("points must be (N, >=3)")
    n = pts.shape[0]
    keep = spec.in_range(pts) if n else np.zeros(0, dtype=bool)
    kept_idx = np.flatnonzero(keep)
    dropped = int(n - kept_idx.size)
    cells: dict[tuple[int, int, int], VoxelCell] = {}
    if kept_idx.size:
        vox = spec.voxel_index(pts[kept_idx])
        dts = pts[kept_idx, 4] if pts.shape[1] > 4 else np.zeros(kept_idx.size)
        # Group by voxel via lexicographic sort; ordering inside a cell follows
        # the original point order so the result is permutation-stable as a set.
        order = np.lexsort((kept_idx, vox[:, 2], vox[:, 1], vox[:, 0]))
        vox = vox[order]
        src = kept_idx[order]
        dts = dts[order]
        boundaries = np.flatnonzero(np.any(np.diff(vox, axis=0) != 0, axis=1)) + 1
        starts = np.concatenate([[0], boundaries])
        feats = [None] * starts.size
        if features is not None:
            feats = _reduce_cells(np.asarray(features, dtype=np.float64)[src], starts,
                                  feature_reduce)
        current = np.logical_or.reduceat(dts == 0.0, starts).tolist()
        cells = {key: VoxelCell(idx, feat, cur) for key, idx, feat, cur in
                 zip(map(tuple, vox[starts].tolist()), np.split(src, boundaries), feats, current)}
    return SparseVoxelGrid(spec, cells, dropped)


def _reduce_cells(rows: np.ndarray, starts: np.ndarray, how: str) -> np.ndarray:
    """Per-cell reduction of the consecutive row runs that begin at ``starts``.

    Sums accumulate sequentially in row order, so ``mean`` and ``sum`` equal
    ``run.mean(axis=0)`` and ``run.sum(axis=0)`` bit for bit.
    """
    if how == "max":
        return np.maximum.reduceat(rows, starts, axis=0)
    if how not in ("mean", "sum"):
        raise ValueError(f"unknown feature_reduce {how!r}")
    sizes = np.diff(np.append(starts, rows.shape[0]))
    cell = np.repeat(np.arange(starts.size), sizes)
    out = np.zeros((starts.size, rows.shape[1]))
    for j in range(rows.shape[1]):
        out[:, j] = np.bincount(cell, weights=rows[:, j], minlength=starts.size)
    if how == "mean":
        out /= sizes[:, None]
    return out


def majority_vote_labels(
    grid: SparseVoxelGrid,
    sem_labels: np.ndarray,
    current_mask: np.ndarray | None = None,
) -> dict[tuple[int, int, int], int]:
    """Modal class per occupied voxel among its current-sweep points.

    Ties break toward the lower class id; cells holding only history points
    get the ignore class so the segmentation loss can mask them out.
    """
    sem = np.asarray(sem_labels)
    out: dict[tuple[int, int, int], int] = {}
    for key, cell in grid.occupied.items():
        idx = cell.point_indices
        if current_mask is not None:
            idx = idx[current_mask[idx]]
        if idx.size == 0:
            out[key] = IGNORE_CLASS
            continue
        values, counts = np.unique(sem[idx], return_counts=True)
        out[key] = int(values[np.argmax(counts)])  # np.unique sorts ids ascending
    return out


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

    @property
    def channels(self) -> int:
        return self.data.shape[2]


_REDUCERS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": lambda acc, f: acc + f,
    "max": np.maximum,
}


def flatten_bev(grid: SparseVoxelGrid, reducer: str = "mean") -> BevMap:
    """Collapse voxel features along height into a dense BEV map.

    Each BEV cell reduces the feature vectors of every occupied voxel in its
    (bev_downsample x bev_downsample x H) footprint; empty columns are zero.
    """
    if reducer not in ("mean", "max", "sum"):
        raise ValueError(f"unknown reducer {reducer!r}")
    spec = grid.spec
    dim = None
    for cell in grid.occupied.values():
        if cell.feature is None:
            raise ValueError("grid carries no feature vectors")
        if dim is None:
            dim = cell.feature.shape[0]
        elif cell.feature.shape[0] != dim:
            raise ValueError("feature dimension mismatch across voxels")
    if dim is None:
        dim = 0
    data = np.zeros((spec.bev_width, spec.bev_depth, dim))
    counts = np.zeros((spec.bev_width, spec.bev_depth), dtype=np.int64)
    ds = spec.bev_downsample
    combine = _REDUCERS["sum" if reducer in ("sum", "mean") else "max"]
    for (ix, iy, _), cell in grid.occupied.items():
        bx, by = ix // ds, iy // ds
        if counts[bx, by] == 0:
            data[bx, by] = cell.feature
        else:
            data[bx, by] = combine(data[bx, by], cell.feature)
        counts[bx, by] += 1
    if reducer == "mean":
        nonzero = counts > 0
        data[nonzero] /= counts[nonzero, None]
    return BevMap(data, spec.bev_cell_size, spec.planar_range)


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
