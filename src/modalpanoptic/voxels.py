"""Sparse voxelization, BEV flattening and sparse BEV grids."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .cloud import PointCloudSweep

_DIM_TOL = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Sensor-centered sparse grid geometry.

    The planar extent covers [-planar_range, planar_range) on x and y; the
    vertical extent covers [z_min, z_max). Derived cell counts must come out
    as whole numbers, and the BEV downsampling must divide the planar counts
    exactly. The defaults are the desk-scale grid the CLI runs; the paper's is
    0.075 m voxels over 54 m, z from -5 to 3 m, BEV stride 8.
    """

    voxel_size: tuple[float, float, float] = (0.1, 0.1, 0.2)
    planar_range: float = 40.0
    z_min: float = -2.0
    z_max: float = 3.0
    bev_downsample: int = 2

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
    """Per-point encoder features and a BEV feature map for one sweep, on demand.

    Stands in for the convolutional backbone. The membership stage asks only
    for what its pair scorer reads: ``point_features`` returns the feature
    rows of the points ``rows``, and ``bev_map`` pools the in-range points
    ``rows``, given their feature rows, into a map on the BEV grid of
    ``spec``. A column of that map is the full-sweep value when ``rows``
    holds every in-range point of it (``column_points`` lists them), so a
    caller computes each point's row once per sweep and pools whole columns.
    """

    spec: GridSpec

    def point_features(self, sweep: PointCloudSweep, rows: np.ndarray) -> np.ndarray: ...

    def bev_map(self, sweep: PointCloudSweep, rows: np.ndarray,
                point_features: np.ndarray) -> "BevMap": ...


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


def covers(planar_range: float, xys: np.ndarray) -> np.ndarray:
    """Which (M, 2) planar positions lie inside the BEV footprint [-range, range)^2."""
    return np.all((xys >= -planar_range) & (xys < planar_range), axis=-1)


@dataclass(frozen=True, eq=False)
class BevMap:
    """A (W', D', C) planar feature map over the grid footprint, stored by column.

    ``columns`` is a (W', D', C) ``SparseGrid``: each listed BEV column
    ``ix * D' + iy`` holds its (C,) feature row, and every other column reads
    0.0. Validated once, on creation.
    """

    columns: SparseGrid
    cell_size: float
    planar_range: float

    def __post_init__(self):
        if len(self.columns.shape) != 3 or self.columns.values.ndim != 2:
            raise ValueError("BEV data must be (W', D', C)")
        if not np.all(np.isfinite(self.columns.values)):
            raise ValueError("BEV features must be finite")

    @property
    def width(self) -> int:
        return self.columns.shape[0]

    @property
    def depth(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True, eq=False)
class SparseGrid:
    """A grid that is zero outside its listed cells: ascending flat keys plus values.

    ``keys`` index the cells of ``shape`` in C order. A cell is one entry
    when ``values`` is (M,), as in a (K, W', D') heatmap, or the trailing
    axis when ``values`` is (M, C), as in a (K, W', D', 6) box grid. A cell
    that is not listed reads 0.0. Validated once, on creation.
    """

    shape: tuple[int, ...]
    keys: np.ndarray    # (M,) int64, strictly ascending
    values: np.ndarray  # (M,) or (M, C) float64

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        keys = np.asarray(self.keys, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        cell_axes = len(shape) + 1 - values.ndim
        if keys.ndim != 1 or not 0 < cell_axes <= len(shape) \
                or values.shape != keys.shape + shape[cell_axes:]:
            raise ValueError(f"a sparse {shape} grid needs (M,) keys and one value row per key")
        if keys.size and (np.any(keys[1:] <= keys[:-1]) or keys[0] < 0
                          or keys[-1] >= np.prod(shape[:cell_axes])):
            raise ValueError("sparse grid keys must be ascending, unique and inside the grid")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    def at(self, flat: np.ndarray) -> np.ndarray:
        """The values of the (D,) flat cells ``flat``, 0.0 where a cell is not listed."""
        flat = np.asarray(flat, dtype=np.int64)
        pos = np.searchsorted(self.keys, flat)
        hit = pos < self.keys.size
        hit[hit] = self.keys[pos[hit]] == flat[hit]
        out = np.zeros(flat.shape + self.values.shape[1:])
        out[hit] = self.values[pos[hit]]
        return out

    def dense(self) -> np.ndarray:
        """The whole grid as one array; every unlisted cell is +0.0."""
        out = np.zeros(self.shape)
        out.reshape((-1,) + self.values.shape[1:])[self.keys] = self.values
        return out


def flatten_bev(grid: SparseVoxelGrid) -> BevMap:
    """Mean of the voxel features in each BEV column, as a (W', D', F) map.

    A column is a (bev_downsample x bev_downsample x H) block of voxels.
    Only occupied columns are reduced and listed: each sums its voxel means
    from +0.0 in ascending key order, then divides by its voxel count. Empty
    columns read zero.
    """
    if grid.features is None:
        raise ValueError("grid carries no feature vectors")
    spec = grid.spec
    channels = grid.features.shape[1]
    columns, inverse, counts = np.unique(_bev_column(spec, grid.occupied), return_inverse=True,
                                         return_counts=True)
    means = _group_sums(inverse, grid.features, columns.size) / counts[:, None]
    return BevMap(SparseGrid((spec.bev_width, spec.bev_depth, channels), columns, means),
                  spec.bev_cell_size, spec.planar_range)


def _stencil(xys: np.ndarray, planar_range: float, cell_size: float, width: int,
             depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bilinear stencil of each (M, 2) query: the (4, M) flat cells ``ix * depth + iy``
    of its corners (00, 10, 01, 11) and its (M, 1) weights ``fu`` and ``fv``."""
    q = np.atleast_2d(np.asarray(xys, dtype=np.float64))
    if not covers(planar_range, q).all():
        raise ValueError("query outside grid range")
    u = (q[:, 0] + planar_range) / cell_size - 0.5
    v = (q[:, 1] + planar_range) / cell_size - 0.5
    i0 = np.clip(np.floor(u).astype(np.int64), 0, max(width - 2, 0))
    j0 = np.clip(np.floor(v).astype(np.int64), 0, max(depth - 2, 0))
    fu = np.clip(u - i0, 0.0, 1.0)[:, None]
    fv = np.clip(v - j0, 0.0, 1.0)[:, None]
    i1 = np.minimum(i0 + 1, width - 1) * depth
    j1 = np.minimum(j0 + 1, depth - 1)
    i0 = i0 * depth
    return np.stack([i0 + j0, i1 + j0, i0 + j1, i1 + j1]), fu, fv


def interpolate_bev_many(bev: BevMap, xys: np.ndarray) -> np.ndarray:
    """Bilinear feature lookup among the four cell centers around each (M, 2) query.

    Queries must fall inside the grid footprint; within half a cell of the
    border the stencil clamps to edge cells. ``stencil_columns`` lists the
    cells a set of queries reads.
    """
    cells, fu, fv = _stencil(xys, bev.planar_range, bev.cell_size, bev.width, bev.depth)
    f00, f10, f01, f11 = bev.columns.at(cells)
    return ((1 - fu) * (1 - fv) * f00
            + fu * (1 - fv) * f10
            + (1 - fu) * fv * f01
            + fu * fv * f11)


def stencil_columns(spec: GridSpec, xys: np.ndarray) -> np.ndarray:
    """Ascending flat BEV columns ``ix * D' + iy`` that ``interpolate_bev_many`` reads
    for the (M, 2) queries ``xys`` on the BEV grid of ``spec``; it raises as that does."""
    return np.unique(_stencil(xys, spec.planar_range, spec.bev_cell_size, spec.bev_width,
                              spec.bev_depth)[0])


def column_points(points: np.ndarray, spec: GridSpec, columns: np.ndarray) -> np.ndarray:
    """Ascending indices of the in-range rows of ``points`` whose BEV column is listed.

    A row's column is that of its voxel, as ``flatten_bev`` pools it.
    """
    pts = np.asarray(points, dtype=np.float64)
    kept = np.flatnonzero(spec.in_range(pts))
    return kept[np.isin(_bev_column(spec, spec.voxel_index(pts[kept])), columns)]


def _bev_column(spec: GridSpec, voxels: np.ndarray) -> np.ndarray:
    """Flat BEV column ``ix * D' + iy`` of each (M, 3) voxel key."""
    ds = spec.bev_downsample
    return (voxels[:, 0] // ds) * spec.bev_depth + voxels[:, 1] // ds
