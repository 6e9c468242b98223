"""Training target generation from point-level labels.

Modal centers and extents are statistics of the visible points of an
instance: the center is the mean of the point set, the extent the per-axis
maximum deviation from it. Trajectory-level aggregation (MAX / CWM / DSB)
refines the per-sweep shrink-wrapped extents that occlusion makes unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import NO_INSTANCE, PointCloudSweep, SweepSequence, Taxonomy, transform_to_frame
from .voxels import GridSpec

SW = "SW"
MAX = "MAX"
CWM = "CWM"
DSB = "DSB"

# Extent components below this are treated as unobserved axes.
DEGENERATE_EXTENT = 0.05

# Replace a shrink-wrapped extent by the class mean when its largest component
# falls below this fraction of the class mean's largest component.
CWM_SMALL_FRACTION = 0.25

# Heatmap footprint: sigma never shrinks below this many BEV cells, and the
# Gaussian is rendered out to 3 sigma (values beyond contribute < 1.2% peak).
SIGMA_MIN_CELLS = 2.0
GAUSSIAN_CUTOFF_SIGMAS = 3.0


@dataclass(frozen=True)
class ModalInstance:
    """Per-sweep modal summary of one instance's visible points."""

    instance_id: int
    class_id: int
    center: np.ndarray       # (3,) meters
    extent: np.ndarray       # (3,) per-axis half extent, meters
    point_count: int
    sweep_timestamp: float
    sweep_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        object.__setattr__(self, "extent", np.asarray(self.extent, dtype=np.float64))
        if self.point_count < 1:
            raise ValueError("an instance record needs at least one point")
        if np.any(self.extent < 0):
            raise ValueError("extent components must be >= 0")


@dataclass(frozen=True)
class InstanceTrajectory:
    """Time-ordered per-sweep records of one instance."""

    instance_id: int
    class_id: int
    records: tuple[ModalInstance, ...]

    def __post_init__(self):
        if not self.records:
            raise ValueError("trajectory needs at least one record")
        times = [r.sweep_timestamp for r in self.records]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("trajectory records must be time-ordered")

    @property
    def max_extent(self) -> np.ndarray:
        return np.max([r.extent for r in self.records], axis=0)

    def record_at(self, sweep_index: int) -> ModalInstance | None:
        for r in self.records:
            if r.sweep_index == sweep_index:
                return r
        return None


@dataclass(frozen=True)
class ExtentStrategy:
    """Which extent ends up as the detection-branch training target."""

    variant: str
    dsb_min_points: int | None = None
    cwm_stats: dict[int, np.ndarray] | None = None

    def __post_init__(self):
        if self.variant not in (SW, MAX, CWM, DSB):
            raise ValueError(f"unknown extent strategy {self.variant!r}")
        if self.variant == DSB and self.dsb_min_points is None:
            raise ValueError("DSB requires dsb_min_points")
        if self.variant == CWM and self.cwm_stats is None:
            raise ValueError("CWM requires cwm_stats")
        if self.variant != DSB and self.dsb_min_points is not None:
            raise ValueError(f"dsb_min_points is only valid for DSB, not {self.variant}")
        if self.variant != CWM and self.cwm_stats is not None:
            raise ValueError(f"cwm_stats is only valid for CWM, not {self.variant}")


def modal_center(points: np.ndarray) -> np.ndarray:
    """Mean of the visible point set."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("modal_center needs a nonempty (N, >=3) point set")
    return pts[:, :3].mean(axis=0)


def instance_centers(sweep: PointCloudSweep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modal centers of every labeled instance of one sweep, in ascending id order.

    Returns (instance ids, index of each instance's first point, (K, 3)
    centers). The per-instance sums accumulate in point order, so each center
    equals ``modal_center`` of that instance's points bit for bit.
    """
    labeled = np.flatnonzero(sweep.inst_labels > NO_INSTANCE)
    ids, first, which = np.unique(sweep.inst_labels[labeled], return_index=True,
                                  return_inverse=True)
    sums = np.column_stack([np.bincount(which, weights=sweep.xyz[labeled, axis],
                                        minlength=ids.size) for axis in range(3)])
    return ids, labeled[first], sums / np.bincount(which, minlength=ids.size)[:, None]


def extent_sw(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Shrink-wrapped per-axis half extent: max |p_axis - c_axis| over the set."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("extent_sw needs a nonempty (N, >=3) point set")
    return np.abs(pts[:, :3] - np.asarray(center, dtype=np.float64)).max(axis=0)


def build_trajectories(seq: SweepSequence, taxonomy: Taxonomy) -> dict[int, InstanceTrajectory]:
    """Group labeled instance points into world-frame trajectories.

    Sweeps are moved into the world frame through their ego poses so centers
    and extents from different sweeps are comparable.
    """
    partial: dict[int, list[ModalInstance]] = {}
    classes: dict[int, int] = {}
    identity = np.eye(4)
    for t, sweep in enumerate(seq.sweeps):
        world = sweep if np.allclose(sweep.ego_pose, identity) else transform_to_frame(sweep, identity)
        inst = world.inst_labels
        for iid in np.unique(inst[inst > NO_INSTANCE]):
            sel = inst == iid
            cid = int(world.sem_labels[sel][0])
            if not taxonomy.is_thing(cid):
                continue
            pts = world.xyz[sel]
            c = modal_center(pts)
            rec = ModalInstance(int(iid), cid, c, extent_sw(pts, c), int(sel.sum()),
                                world.timestamp, sweep_index=t)
            partial.setdefault(int(iid), []).append(rec)
            classes[int(iid)] = cid
    return {
        iid: InstanceTrajectory(iid, classes[iid], tuple(recs))
        for iid, recs in sorted(partial.items())
    }


def aggregate_extent(
    trajectory: InstanceTrajectory,
    strategy: ExtentStrategy,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sweep training extents plus an exclusion mask.

    SW keeps each sweep's own extent, MAX assigns the trajectory-wide
    componentwise maximum everywhere, CWM swaps implausibly small extents for
    the class mean, DSB keeps SW extents but flags records with too few points
    as excluded from detection training.
    """
    per_sweep = np.stack([r.extent for r in trajectory.records])
    excluded = np.zeros(len(trajectory.records), dtype=bool)
    if strategy.variant == SW:
        return per_sweep, excluded
    if strategy.variant == MAX:
        agg = per_sweep.max(axis=0)
        return np.tile(agg, (per_sweep.shape[0], 1)), excluded
    if strategy.variant == CWM:
        mean = strategy.cwm_stats.get(trajectory.class_id)
        if mean is None:
            return per_sweep, excluded  # no statistics for this class: fall back to SW
        mean = np.asarray(mean, dtype=np.float64)
        out = per_sweep.copy()
        small = per_sweep.max(axis=1) < CWM_SMALL_FRACTION * mean.max()
        out[small] = mean
        return out, excluded
    counts = np.array([r.point_count for r in trajectory.records])
    excluded = counts < strategy.dsb_min_points
    return per_sweep, excluded


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

    def class_sums(values: np.ndarray) -> np.ndarray:
        # bincount accumulates in row order, one running sum per class.
        return np.column_stack([np.bincount(which, weights=values[:, axis],
                                            minlength=classes.size) for axis in range(3)])

    mean = class_sums(np.where(seen, extent, 0.0)) / np.maximum(class_sums(seen), 1)
    return np.where(seen, extent, np.maximum(mean[which], extent))


def class_wise_mean_extents(
    trajectories: dict[int, InstanceTrajectory] | list[InstanceTrajectory],
    taxonomy: Taxonomy,
) -> dict[int, np.ndarray]:
    """Componentwise mean of per-trajectory MAX extents for each thing class.

    Classes without a single observed instance are simply absent; callers fall
    back to shrink-wrapping for them.
    """
    trajs = trajectories.values() if isinstance(trajectories, dict) else trajectories
    per_class: dict[int, list[np.ndarray]] = {}
    for traj in trajs:
        if taxonomy.is_thing(traj.class_id):
            per_class.setdefault(traj.class_id, []).append(traj.max_extent)
    return {cid: np.mean(extents, axis=0) for cid, extents in sorted(per_class.items())}


def save_cwm_stats(stats: dict[int, np.ndarray], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cid in sorted(stats):
            rx, ry, rz = (float(v) for v in stats[cid])
            fh.write(f"{cid}\t{rx!r}\t{ry!r}\t{rz!r}\n")


def load_cwm_stats(path) -> dict[int, np.ndarray]:
    stats: dict[int, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            cid, rx, ry, rz = line.split("\t")
            stats[int(cid)] = np.array([float(rx), float(ry), float(rz)])
    return stats


@dataclass(frozen=True)
class BevTargets:
    """Dense detection-branch targets over the BEV grid."""

    heatmaps: np.ndarray   # (K, W', D') in [0, 1]
    height: np.ndarray     # (W', D') meters, valid at instance center cells
    velocity: np.ndarray   # (W', D', 2) m/s, valid at instance center cells
    valid_mask: np.ndarray  # (W', D') bool, cells carrying regression targets

    def __post_init__(self):
        if self.heatmaps.min(initial=0.0) < 0 or self.heatmaps.max(initial=0.0) > 1:
            raise ValueError("heatmap values must lie in [0, 1]")


def heatmap_sigma(extent: np.ndarray, spec: GridSpec) -> float:
    """Gaussian sigma in meters from a projected planar extent."""
    return max(float(extent[0]), float(extent[1]), SIGMA_MIN_CELLS * spec.bev_cell_size)


def render_bev_targets(
    instances: list[ModalInstance],
    velocities: dict[int, np.ndarray],
    spec: GridSpec,
    num_channels: int,
    extents: list[np.ndarray] | None = None,
    peak_scale: list[float] | None = None,
) -> BevTargets:
    """Render per-class center heatmaps plus height and velocity targets.

    Each instance paints a 2-D Gaussian on its class channel, centered on its
    center cell so the peak value there is exactly 1 (or ``peak_scale``);
    overlapping Gaussians combine by per-cell maximum. Height and velocity are
    written at the center cell only, recorded in ``valid_mask``.
    """
    hm = np.zeros((num_channels, spec.bev_width, spec.bev_depth))
    height = np.zeros((spec.bev_width, spec.bev_depth))
    velocity = np.zeros((spec.bev_width, spec.bev_depth, 2))
    valid = np.zeros((spec.bev_width, spec.bev_depth), dtype=bool)
    cs = spec.bev_cell_size
    for k, inst in enumerate(instances):
        if not (0 <= inst.class_id < num_channels):
            raise ValueError(f"class {inst.class_id} outside the {num_channels} channels")
        if not spec.in_range(inst.center[None, :])[0]:
            raise ValueError(f"instance {inst.instance_id} center outside the grid range")
        extent = inst.extent if extents is None else np.asarray(extents[k], dtype=np.float64)
        scale = 1.0 if peak_scale is None else float(peak_scale[k])
        cx, cy = spec.bev_cell_of(inst.center[:2])
        sigma = heatmap_sigma(extent, spec)
        reach = int(np.ceil(GAUSSIAN_CUTOFF_SIGMAS * sigma / cs))
        x_lo, x_hi = max(0, cx - reach), min(spec.bev_width - 1, cx + reach)
        y_lo, y_hi = max(0, cy - reach), min(spec.bev_depth - 1, cy + reach)
        xs = np.arange(x_lo, x_hi + 1)
        ys = np.arange(y_lo, y_hi + 1)
        # Distances measured from the snapped center cell keep the peak at 1.
        dx = (xs - cx)[:, None] * cs
        dy = (ys - cy)[None, :] * cs
        d2 = dx * dx + dy * dy
        patch = scale * np.exp(-d2 / (2.0 * sigma * sigma))
        patch[d2 > (GAUSSIAN_CUTOFF_SIGMAS * sigma) ** 2] = 0.0
        region = hm[inst.class_id, x_lo:x_hi + 1, y_lo:y_hi + 1]
        np.maximum(region, patch, out=region)
        height[cx, cy] = inst.center[2]
        vel = velocities.get(inst.instance_id)
        if vel is not None:
            velocity[cx, cy] = np.asarray(vel, dtype=np.float64)
        valid[cx, cy] = True
    return BevTargets(hm, height, velocity, valid)


def velocity_target(trajectory: InstanceTrajectory, sweep_index: int, dt: float) -> np.ndarray:
    """Planar velocity at one sweep from neighboring modal centers.

    Centered difference (mu[t+dt] - mu[t-dt]) / (2 dt) when both neighbors
    exist, one-sided at trajectory ends, zero for single-appearance instances.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    here = trajectory.record_at(sweep_index)
    if here is None:
        raise ValueError(f"instance {trajectory.instance_id} absent at sweep {sweep_index}")
    prev = trajectory.record_at(sweep_index - 1)
    nxt = trajectory.record_at(sweep_index + 1)
    if prev is not None and nxt is not None:
        return (nxt.center[:2] - prev.center[:2]) / (2.0 * dt)
    if nxt is not None:
        return (nxt.center[:2] - here.center[:2]) / dt
    if prev is not None:
        return (here.center[:2] - prev.center[:2]) / dt
    return np.zeros(2)
