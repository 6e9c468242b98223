"""Training target generation from point-level labels.

Modal centers and extents are statistics of the visible points of an
instance: the center is the mean of the point set, the extent the per-axis
maximum deviation from it; ``instance_boxes`` computes both for every
instance of a point set in one pass. ``build_trajectories`` lays out a
sequence's per-(instance, sweep) boxes, in the world and sensor frames, as
one ``Trajectories`` table of columns, and trajectory-level aggregation
(MAX / CWM / DSB), which refines the per-sweep shrink-wrapped extents that
occlusion makes unreliable, works on whole columns of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .cloud import NO_INSTANCE, SweepSequence, Taxonomy
from .voxels import GridSpec, SparseGrid, _group_sums

SW = "SW"
MAX = "MAX"
CWM = "CWM"
DSB = "DSB"
EXTENT_STRATEGIES = (SW, MAX, CWM, DSB)

# Extent components below this are treated as unobserved axes.
DEGENERATE_EXTENT = 0.05

# Replace a shrink-wrapped extent by the class mean when its largest component
# falls below this fraction of the class mean's largest component.
CWM_SMALL_FRACTION = 0.25

# Heatmap footprint: sigma never shrinks below this many BEV cells, and the
# Gaussian is rendered out to 3 sigma (values beyond contribute < 1.2% peak).
SIGMA_MIN_CELLS = 2.0
GAUSSIAN_CUTOFF_SIGMAS = 3.0

# Columns of a ``BevTargets.boxes`` row: z, half extent, planar velocity.
BOX_Z, BOX_EXTENT, BOX_VELOCITY = 0, slice(1, 4), slice(4, 6)
BOX_COLUMNS = 6


@dataclass(frozen=True)
class ExtentStrategy:
    """Which extent ends up as the detection-branch training target."""

    variant: str
    dsb_min_points: int | None = None
    cwm_stats: dict[int, np.ndarray] | None = None

    def __post_init__(self):
        if self.variant not in EXTENT_STRATEGIES:
            raise ValueError(f"unknown extent strategy {self.variant!r}")
        if self.variant == DSB and self.dsb_min_points is None:
            raise ValueError("DSB requires dsb_min_points")
        if self.variant == CWM and self.cwm_stats is None:
            raise ValueError("CWM requires cwm_stats")
        if self.variant != DSB and self.dsb_min_points is not None:
            raise ValueError(f"dsb_min_points is only valid for DSB, not {self.variant}")
        if self.variant != CWM and self.cwm_stats is not None:
            raise ValueError(f"cwm_stats is only valid for CWM, not {self.variant}")


@dataclass(frozen=True, eq=False)
class Trajectories:
    """One sequence's modal records as columns, one row per (instance, sweep).

    Rows are sorted by (instance id, sweep index), and the rows of the i-th
    instance are ``offsets[i]:offsets[i + 1]``. ``center``, ``extent`` and
    the planar velocity target ``velocity`` are in the world frame;
    ``sensor_center`` is the same record's center in its own sweep's sensor
    frame, where the simulated first stage places its peaks. An instance
    keeps one class over its rows. Validated once, on creation.
    """

    instance_id: np.ndarray    # (R,) int64
    sweep_index: np.ndarray    # (R,) int64
    class_id: np.ndarray       # (R,) int64
    point_count: np.ndarray    # (R,) int64
    center: np.ndarray         # (R, 3) world frame, meters
    extent: np.ndarray         # (R, 3) world-frame shrink-wrapped half extent, meters
    sensor_center: np.ndarray  # (R, 3) sensor frame of the record's sweep, meters
    velocity: np.ndarray       # (R, 2) world frame, m/s
    offsets: np.ndarray = field(init=False)       # (I + 1,) row offsets per instance
    row_instance: np.ndarray = field(init=False)  # (R,) instance index of each row

    def __post_init__(self):
        for name in ("instance_id", "sweep_index", "class_id", "point_count"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("center", "extent", "sensor_center", "velocity"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        iid, sweep = self.instance_id, self.sweep_index
        r = iid.shape[0] if iid.ndim == 1 else -1
        boxes = (self.center, self.extent, self.sensor_center)
        if (sweep.shape != (r,) or self.class_id.shape != (r,) or self.point_count.shape != (r,)
                or any(box.shape != (r, 3) for box in boxes) or self.velocity.shape != (r, 2)):
            raise ValueError("trajectories need (R,) ids/sweeps/classes/counts, (R, 3) "
                             "extents and centers in both frames and (R, 2) velocities")
        if np.any(self.point_count < 1):
            raise ValueError("an instance record needs at least one point")
        if np.any(self.extent < 0):
            raise ValueError("extent components must be >= 0")
        new = np.ones(r, dtype=bool)
        new[1:] = iid[1:] != iid[:-1]
        if np.any(iid[1:] < iid[:-1]) or np.any(~new[1:] & (sweep[1:] <= sweep[:-1])):
            raise ValueError("trajectory rows must be sorted by (instance id, sweep)")
        starts = np.flatnonzero(new)
        object.__setattr__(self, "offsets", np.append(starts, r))
        object.__setattr__(self, "row_instance", np.cumsum(new) - 1)
        changed = self.class_id != self.class_id[starts][self.row_instance]
        if changed.any():
            raise ValueError(f"instance {iid[changed][0]} changes class at sweep "
                             f"{sweep[changed][0]}")

    def __len__(self) -> int:
        return self.instance_id.size

    @property
    def instance_class(self) -> np.ndarray:
        """(I,) class of each instance."""
        return self.class_id[self.offsets[:-1]]

    @property
    def max_extents(self) -> np.ndarray:
        """(I, 3) componentwise maximum of each instance's extents."""
        return np.maximum.reduceat(self.extent, self.offsets[:-1], axis=0)

    def select(self, rows) -> Trajectories:
        """The table of the given rows (a mask or ascending indices), columns unchanged."""
        return Trajectories(*(getattr(self, column.name)[rows] for column in fields(self)
                              if column.init))


def modal_center(points: np.ndarray) -> np.ndarray:
    """Mean of the visible point set."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("modal_center needs a nonempty (N, >=3) point set")
    return pts[:, :3].mean(axis=0)


def instance_boxes(xyz: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Modal center and shrink-wrapped extent of every labeled group of points.

    Points whose label exceeds ``NO_INSTANCE`` are grouped by label. Returns
    (ascending labels, index of each group's first point, (K,) point counts,
    (K, 3) centers, (K, 3) half extents). The per-group sums accumulate in
    point order, so each center equals ``modal_center`` of that group's
    points bit for bit; each extent is the per-axis max |p - center|.
    """
    labeled = np.flatnonzero(labels > NO_INSTANCE)
    ids, first, which, count = np.unique(labels[labeled], return_index=True,
                                         return_inverse=True, return_counts=True)
    pts = xyz[labeled]
    center = _group_sums(which, pts, ids.size) / count[:, None]
    deviation = np.abs(pts - center[which])
    extent = np.zeros((ids.size, 3))
    for axis in range(3):
        # One 1-D grouped max per axis runs far faster than a 2-D ``at``.
        np.maximum.at(extent[:, axis], which, deviation[:, axis])
    return ids, labeled[first], count, center, extent


def build_trajectories(seq: SweepSequence, taxonomy: Taxonomy) -> Trajectories:
    """Every labeled instance's per-sweep modal record, in both frames, as one table.

    Each sweep's points are moved into the world frame through its ego pose
    (``xyz @ R.T + t``; left as they are under an identity pose), so centers
    and extents from different sweeps are comparable; one ``instance_boxes``
    pass keyed by (instance, sweep) then gives every world-frame box, and the
    same grouped sums over the sensor-frame points give each record's center
    in its own sweep's frame, bit-equal to ``instance_boxes`` of that sweep
    alone. A record's velocity is the centered difference (mu[t+1] -
    mu[t-1]) / (2 dt) of the planar centers when the instance has both
    neighboring sweeps, one-sided when it has one, and zero when it has
    neither. Raises ``ValueError`` naming the sweep and instance when an
    instance's first point is not of a thing class.
    """
    count = len(seq)
    xyz, keys, sem = [], [], []
    identity = np.eye(4)
    for t, sweep in enumerate(seq.sweeps):
        pose = sweep.ego_pose
        xyz.append(sweep.xyz if np.allclose(pose, identity)
                   else sweep.xyz @ pose[:3, :3].T + pose[:3, 3])
        inst = sweep.inst_labels.astype(np.int64)
        keys.append(np.where(inst > NO_INSTANCE, inst * count + t, NO_INSTANCE))
        sem.append(sweep.sem_labels)
    keys = np.concatenate(keys)
    key, first, points, center, extent = instance_boxes(np.concatenate(xyz), keys)
    labeled = keys > NO_INSTANCE
    sensor_xyz = np.concatenate([sweep.xyz for sweep in seq.sweeps])[labeled]
    sensor_center = _group_sums(np.searchsorted(key, keys[labeled]), sensor_xyz,
                                key.size) / points[:, None]
    iid, sweep_index = np.divmod(key, count)
    class_id = np.concatenate(sem)[first]
    stuff = np.flatnonzero(~np.isin(class_id, list(taxonomy.thing_ids)))
    if stuff.size:
        r = stuff[0]
        raise ValueError(f"sweep {sweep_index[r]}: instance {iid[r]} is on non-thing "
                         f"class {class_id[r]}")
    adjacent = (iid[1:] == iid[:-1]) & (sweep_index[1:] == sweep_index[:-1] + 1)
    has_prev, has_next = np.append(False, adjacent), np.append(adjacent, False)
    rows = np.arange(iid.size)
    span = (has_prev.astype(np.float64) + has_next) * seq.period
    delta = center[rows + has_next, :2] - center[rows - has_prev, :2]
    velocity = np.divide(delta, span[:, None], out=np.zeros((iid.size, 2)),
                         where=span[:, None] > 0)
    return Trajectories(iid, sweep_index, class_id, points, center, extent, sensor_center,
                        velocity)


def aggregate_extent(
    trajectories: Trajectories,
    strategy: ExtentStrategy,
) -> tuple[np.ndarray, np.ndarray]:
    """(R, 3) training extents plus an (R,) exclusion mask, one row per record.

    SW keeps each sweep's own extent, MAX assigns the trajectory-wide
    componentwise maximum everywhere, CWM swaps implausibly small extents for
    the class mean (classes without statistics keep SW), DSB keeps SW
    extents but flags records with too few points as excluded from detection
    training.
    """
    extents = trajectories.extent.copy()
    excluded = np.zeros(len(trajectories), dtype=bool)
    if strategy.variant == MAX:
        extents = trajectories.max_extents[trajectories.row_instance]
    elif strategy.variant == CWM:
        largest = trajectories.extent.max(axis=1)
        for cid, mean in strategy.cwm_stats.items():
            mean = np.asarray(mean, dtype=np.float64)
            extents[(trajectories.class_id == cid)
                    & (largest < CWM_SMALL_FRACTION * mean.max())] = mean
    elif strategy.variant == DSB:
        excluded = trajectories.point_count < strategy.dsb_min_points
    return extents, excluded


def widen_unobserved_axes(class_id, extent) -> np.ndarray:
    """(K, 3) extents whose never-observed components are raised to their class mean.

    Under occlusion a shrink-wrapped box collapses to near-zero thickness
    along axes no viewpoint ever spanned, where a regressor trained across
    many objects would still predict class-typical values. A component below
    ``DEGENERATE_EXTENT`` counts as unobserved and becomes the larger of
    itself and the mean of that component over the same-class rows that did
    observe it; an axis no row of the class observed stays as it is.
    """
    extent = np.reshape(np.asarray(extent, dtype=np.float64), (-1, 3))
    classes, which = np.unique(np.asarray(class_id, dtype=np.int64), return_inverse=True)
    seen = extent >= DEGENERATE_EXTENT
    mean = (_group_sums(which, np.where(seen, extent, 0.0), classes.size)
            / np.maximum(_group_sums(which, seen, classes.size), 1))
    return np.where(seen, extent, np.maximum(mean[which], extent))


def class_wise_mean_extents(
    trajectories: Trajectories | list[Trajectories],
    taxonomy: Taxonomy,
) -> dict[int, np.ndarray]:
    """Componentwise mean of per-instance MAX extents for each thing class.

    Takes one table or a list of them; instances are averaged in table and
    row order. Classes without a single observed instance are simply
    absent; callers fall back to shrink-wrapping for them.
    """
    tables = [trajectories] if isinstance(trajectories, Trajectories) else trajectories
    classes = np.concatenate([np.empty(0, dtype=np.int64)] + [t.instance_class for t in tables])
    extents = np.concatenate([np.empty((0, 3))] + [t.max_extents for t in tables])
    return {int(cid): extents[classes == cid].mean(axis=0)
            for cid in np.unique(classes) if taxonomy.is_thing(int(cid))}


def save_cwm_stats(stats: dict[int, np.ndarray], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cid in sorted(stats):
            rx, ry, rz = (float(v) for v in stats[cid])
            fh.write(f"{cid}\t{rx!r}\t{ry!r}\t{rz!r}\n")


@dataclass(frozen=True)
class BevTargets:
    """The first stage's BEV maps, held sparsely: training targets and simulated outputs.

    Both grids are keyed by the flat (class, x, y) cell. ``heatmaps`` lists
    the entries some Gaussian reaches with a nonzero value; ``boxes`` lists
    each object's center cell on its own class channel, one row per key laid
    out as ``BOX_Z``, ``BOX_EXTENT`` and ``BOX_VELOCITY`` say (z in meters,
    half extent in meters, world-frame velocity in m/s), which
    ``inference.nms_detect`` reads at each peak. Every other cell reads 0.0.
    Heatmap values must lie in [0, 1] (as with a dense ``min``/``max``
    scan, a NaN passes) and the box grid shares the heatmaps' cells.
    """

    heatmaps: SparseGrid  # (K, W', D') in [0, 1]
    boxes: SparseGrid     # (K, W', D', BOX_COLUMNS)

    def __post_init__(self):
        values = self.heatmaps.values
        if values.min(initial=0.0) < 0 or values.max(initial=0.0) > 1:
            raise ValueError("heatmap values must lie in [0, 1]")
        if self.boxes.shape != self.heatmaps.shape + (BOX_COLUMNS,) \
                or self.boxes.values.ndim != 2:
            raise ValueError("the box grid's shape does not match the heatmaps")


def heatmap_sigma(extent: np.ndarray, spec: GridSpec) -> float:
    """Gaussian sigma in meters from a projected planar extent."""
    return max(float(extent[0]), float(extent[1]), SIGMA_MIN_CELLS * spec.bev_cell_size)


def render_bev_targets(
    center: np.ndarray,
    class_id: np.ndarray,
    extent: np.ndarray,
    velocity: np.ndarray,
    spec: GridSpec,
    num_channels: int,
    peak_scale: np.ndarray | None = None,
) -> BevTargets:
    """Render per-class center heatmaps plus box targets, sparsely.

    Takes (K, 3) centers, (K,) classes, (K, 3) extents and (K, 2)
    velocities. Each object paints a 2-D Gaussian on its class channel,
    centered on its center cell so the peak value there is exactly 1 (or
    its ``peak_scale``, which must lie in [0, 1], so every heatmap value
    does too); overlapping Gaussians combine by a grouped maximum per
    (class, cell), and cells no Gaussian reaches with a nonzero value are
    not listed. Each object's box row (center z, extent and velocity) is
    written at its center cell on its own class channel, the heatmap's
    (class, x, y) key; a later object of the same class overwrites an
    earlier one's row in that cell. No dense grid is allocated: the result
    densifies byte for byte to the per-object painting of
    ``tests/oracles.render_bev_targets_reference``.
    """
    center = np.reshape(np.asarray(center, dtype=np.float64), (-1, 3))
    class_id = np.asarray(class_id, dtype=np.int64)
    extent = np.reshape(np.asarray(extent, dtype=np.float64), (-1, 3))
    velocity = np.reshape(np.asarray(velocity, dtype=np.float64), (-1, 2))
    k = center.shape[0]
    scale = np.ones(k) if peak_scale is None else np.asarray(peak_scale, dtype=np.float64)
    if class_id.shape != (k,) or extent.shape[0] != k or velocity.shape[0] != k \
            or scale.shape != (k,):
        raise ValueError("render_bev_targets needs one class, extent, velocity and scale "
                         "per center")
    if not np.all((scale >= 0.0) & (scale <= 1.0)):
        raise ValueError("peak_scale values must be finite and lie in [0, 1]")
    foreign = np.flatnonzero((class_id < 0) | (class_id >= num_channels))
    if foreign.size:
        raise ValueError(f"class {class_id[foreign[0]]} outside the {num_channels} channels")
    outside = np.flatnonzero(~spec.in_range(center))
    if outside.size:
        raise ValueError(f"center {outside[0]} outside the grid range")
    w, d = spec.bev_width, spec.bev_depth
    cs = spec.bev_cell_size
    cell_x, cell_y = spec.bev_cell_of(center)
    keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for i in range(k):
        cx, cy = int(cell_x[i]), int(cell_y[i])
        sigma = heatmap_sigma(extent[i], spec)
        reach = int(np.ceil(GAUSSIAN_CUTOFF_SIGMAS * sigma / cs))
        xs = np.arange(max(0, cx - reach), min(w - 1, cx + reach) + 1)
        ys = np.arange(max(0, cy - reach), min(d - 1, cy + reach) + 1)
        # Distances measured from the snapped center cell keep the peak at 1.
        dx = (xs - cx)[:, None] * cs
        dy = (ys - cy)[None, :] * cs
        d2 = dx * dx + dy * dy
        inside = d2 <= (GAUSSIAN_CUTOFF_SIGMAS * sigma) ** 2
        patch = scale[i] * np.exp(-d2[inside] / (2.0 * sigma * sigma))
        key = ((class_id[i] * w + xs[:, None]) * d + ys[None, :])[inside]
        nonzero = patch > 0
        keys.append(key[nonzero])
        values.append(patch[nonzero])
    # Each patch is one ascending run of keys, which the stable sort merges.
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    heat = SparseGrid((num_channels, w, d), key[first],
                      np.maximum.reduceat(np.concatenate(values)[order], first))
    # The last object written to a (class, cell) key owns its box row.
    peak = (class_id * w + cell_x) * d + cell_y
    order = np.argsort(peak, kind="stable")
    last = order[np.flatnonzero(np.diff(peak[order], append=num_channels * w * d))]
    box = np.empty((last.size, BOX_COLUMNS))
    box[:, BOX_Z] = center[last, 2]
    box[:, BOX_EXTENT] = extent[last]
    box[:, BOX_VELOCITY] = velocity[last]
    return BevTargets(heat, SparseGrid((num_channels, w, d, BOX_COLUMNS), peak[last], box))
