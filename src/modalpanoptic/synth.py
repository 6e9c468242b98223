"""Synthetic scene oracle: sequences with known geometry plus a detector simulator.

Boxes move at constant velocity over a ground disk; surface points land only
on the face most squarely facing the sensor (plus the top face when the
sensor sits above it), with density falling off as 1/range^2. Every output is
a pure function of (config, seed), which is what makes the desk-scale
experiments reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import NO_INSTANCE, ClassDef, PointCloudSweep, SweepSequence, Taxonomy
from .targets import BevTargets, Trajectories, render_bev_targets
from .voxels import BevMap, FeatureProvider, GridSpec, flatten_bev, voxelize

CAR = 1
PEDESTRIAN = 2
GROUND = 3

REF_RANGE = 10.0  # meters; point densities are quoted at this range
GROUND_POINTS_PER_M2 = 1.5  # at REF_RANGE
GROUND_RADIUS = 30.0  # meters of ground disk around the sensor
SENSOR_HEIGHT = 1.0  # meters above the ground plane
MOTIONS = ("pass", "drift", "static")  # SceneConfig.motion
EGO_MOTIONS = ("static", "orbit")  # SceneConfig.ego_motion

_NEIGHBOR_RADIUS = 0.6  # meters, for the handcrafted local features
_PAIR_CHUNK = 1 << 13  # candidate pairs expanded at a time by point_features
_CELL_KEY_LIMIT = 1 << 30  # |neighbor cell key| bound; keeps every cell code below 2**63


def default_taxonomy(min_instance_points: int = 15) -> Taxonomy:
    return Taxonomy(
        (
            ClassDef(0, "unlabeled", "ignore"),
            ClassDef(CAR, "car", "thing"),
            ClassDef(PEDESTRIAN, "pedestrian", "thing"),
            ClassDef(GROUND, "ground", "stuff"),
        ),
        min_instance_points,
    )


@dataclass(frozen=True)
class BoxSpec:
    """Per-class half-extent distribution (per-axis normal, clipped positive)."""

    half_extent_mean: tuple[float, float, float]
    half_extent_std: tuple[float, float, float]


DEFAULT_BOX_SPECS = {
    CAR: BoxSpec((2.25, 1.0, 0.75), (0.35, 0.12, 0.08)),
    PEDESTRIAN: BoxSpec((0.4, 0.4, 0.85), (0.08, 0.08, 0.1)),
}


@dataclass(frozen=True)
class SceneConfig:
    seed: int = 0
    sweep_count: int = 10
    period: float = 0.5
    box_specs: dict[int, BoxSpec] = field(default_factory=lambda: dict(DEFAULT_BOX_SPECS))
    count_range: tuple[int, int] = (3, 4)
    speed_range: tuple[float, float] = (0.5, 4.0)
    points_per_m2: float = 40.0        # on instance faces, at REF_RANGE
    occlusion: bool = True
    min_separation: float = 7.0
    max_range: float = 38.0            # instances beyond this leave no points
    motion: str = "pass"               # one of MOTIONS
    approach_range: tuple[float, float] = (3.0, 12.0)
    pair_gap_range: tuple[float, float] | None = None  # adjacent same-class rows
    pair_offset_range: tuple[float, float] = (0.3, 1.8)
    row_partners: int = 1              # boxes added beside each base instance
    ego_motion: str = "static"         # one of EGO_MOTIONS
    orbit_radius: float = 8.0
    spawn_radius_range: tuple[float, float] | None = None  # drift/static placement

    def __post_init__(self):
        if self.sweep_count < 1 or self.period <= 0:
            raise ValueError("need at least one sweep and a positive period")
        if self.points_per_m2 <= 0:
            raise ValueError("points_per_m2 must be positive")
        if self.count_range[0] < 1 or self.count_range[0] > self.count_range[1]:
            raise ValueError("bad instance count range")
        if self.motion not in MOTIONS:
            raise ValueError(f"unknown motion {self.motion!r}")
        if self.ego_motion not in EGO_MOTIONS:
            raise ValueError(f"unknown ego motion {self.ego_motion!r}")


@dataclass(frozen=True)
class TrueInstance:
    """Ground-truth box: world-frame base center at t=0 and constant velocity."""

    instance_id: int
    class_id: int
    half_extent: np.ndarray  # (3,)
    base_center: np.ndarray  # (3,) world frame
    velocity: np.ndarray     # (3,) m/s, vz = 0
    group: int = 0           # adjacency group; partners share it

    def center_at(self, t: float) -> np.ndarray:
        return self.base_center + self.velocity * t


@dataclass
class SceneRegistry:
    """Everything the generator knows: true boxes, motion and sweep times."""

    instances: dict[int, TrueInstance]
    sweep_times: list[float]
    config: SceneConfig

    def center_at(self, instance_id: int, sweep_index: int) -> np.ndarray:
        return self.instances[instance_id].center_at(self.sweep_times[sweep_index])


def _sensor_position(cfg: SceneConfig, t: float) -> np.ndarray:
    if cfg.ego_motion == "orbit":
        # Pure-translation orbit: the frame never rotates, only the viewpoint moves.
        omega = 2.0 * np.pi / (cfg.sweep_count * cfg.period)
        return np.array([cfg.orbit_radius * np.cos(omega * t),
                         cfg.orbit_radius * np.sin(omega * t),
                         SENSOR_HEIGHT])
    return np.array([0.0, 0.0, SENSOR_HEIGHT])


# Axis-aligned box faces: (normal axis, sign). Lateral faces first.
_LATERAL_FACES = [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)]


def visible_faces(center: np.ndarray, half: np.ndarray, sensor: np.ndarray,
                  occlusion: bool) -> list[tuple[int, float]]:
    """Faces to sample for one box seen from one sensor position.

    With occlusion on, only the lateral face most squarely facing the sensor
    is kept (real sweeps rarely resolve more than the dominant surface), plus
    the top face whenever the sensor sits above the box. Occlusion off samples
    every face as if the box were transparent.
    """
    faces = list(_LATERAL_FACES) + [(2, 1.0), (2, -1.0)]
    if not occlusion:
        return faces
    to_sensor = sensor - center
    best, best_score = None, 0.0
    for axis, sign in _LATERAL_FACES:
        # The outward normal must point toward the sensor for the face to be lit.
        score = sign * (sensor[axis] - (center[axis] + sign * half[axis]))
        if score > best_score:
            best, best_score = (axis, sign), score
    keep = [best] if best is not None else []
    if sensor[2] > center[2] + half[2]:
        keep.append((2, 1.0))
    return keep


def _sample_face(center, half, axis, sign, density, rng) -> np.ndarray:
    """Stratified-jittered samples on one face; count follows area * density."""
    axes = [a for a in range(3) if a != axis]
    spans = [2.0 * half[a] for a in axes]
    area = spans[0] * spans[1]
    n = max(1, int(round(area * density)))
    cols = max(1, int(np.ceil(np.sqrt(n * spans[0] / max(spans[1], 1e-6)))))
    rows = max(1, int(np.ceil(n / cols)))
    u = (np.tile(np.arange(cols), rows)[: cols * rows] + rng.uniform(0, 1, cols * rows)) / cols
    v = (np.repeat(np.arange(rows), cols)[: cols * rows] + rng.uniform(0, 1, cols * rows)) / rows
    pts = np.empty((cols * rows, 3))
    pts[:, axes[0]] = center[axes[0]] + (u - 0.5) * spans[0]
    pts[:, axes[1]] = center[axes[1]] + (v - 0.5) * spans[1]
    pts[:, axis] = center[axis] + sign * half[axis]
    return pts


def _sample_ground(sensor: np.ndarray, rng) -> np.ndarray:
    """Annulus-by-annulus disk sampling around the sensor footprint, z = 0."""
    points = []
    edges = np.arange(1.0, GROUND_RADIUS + 1.0, 1.0)
    for r_in, r_out in zip(edges, edges[1:]):
        r_mid = 0.5 * (r_in + r_out)
        area = np.pi * (r_out ** 2 - r_in ** 2)
        density = GROUND_POINTS_PER_M2 * (REF_RANGE / r_mid) ** 2
        n = int(round(area * density))
        radius = np.sqrt(rng.uniform(r_in ** 2, r_out ** 2, n))
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        ring = np.column_stack([
            sensor[0] + radius * np.cos(theta),
            sensor[1] + radius * np.sin(theta),
            np.zeros(n),
        ])
        points.append(ring)
    return np.concatenate(points, axis=0)


def _place_instances(cfg: SceneConfig, rng) -> dict[int, TrueInstance]:
    """Draw boxes whose trajectories keep min_separation between groups."""
    duration = cfg.sweep_count * cfg.period
    times = np.arange(cfg.sweep_count) * cfg.period
    count = int(rng.integers(cfg.count_range[0], cfg.count_range[1] + 1))
    spawn_range = cfg.spawn_radius_range or (4.0, 0.8 * cfg.max_range)
    class_ids = sorted(cfg.box_specs)
    placed: list[TrueInstance] = []
    next_id = 1

    def trajectory_ok(base, vel, group):
        for other in placed:
            if other.group == group:
                continue
            mine = base[None, :2] + vel[None, :2] * times[:, None]
            theirs = other.base_center[None, :2] + other.velocity[None, :2] * times[:, None]
            if np.linalg.norm(mine - theirs, axis=1).min() < cfg.min_separation:
                return False
        return True

    for _ in range(count):
        cid = class_ids[int(rng.integers(len(class_ids)))]
        spec = cfg.box_specs[cid]
        for _attempt in range(1000):
            half = np.abs(rng.normal(spec.half_extent_mean, spec.half_extent_std))
            half = np.maximum(half, 0.05)
            speed = rng.uniform(*cfg.speed_range)
            heading = rng.uniform(0.0, 2.0 * np.pi)
            direction = np.array([np.cos(heading), np.sin(heading), 0.0])
            if cfg.motion == "pass":
                offset = rng.uniform(*cfg.approach_range) * (1 if rng.uniform() < 0.5 else -1)
                perp = np.array([-direction[1], direction[0], 0.0])
                t_star = rng.uniform(0.15, 0.85) * duration
                base = perp * offset - direction * speed * t_star
                vel = direction * speed
            else:
                radius = rng.uniform(*spawn_range)
                angle = rng.uniform(0.0, 2.0 * np.pi)
                base = np.array([radius * np.cos(angle), radius * np.sin(angle), 0.0])
                vel = direction * speed if cfg.motion == "drift" else np.zeros(3)
            base[2] = half[2]  # box rests on the ground plane
            group = next_id
            if not trajectory_ok(base, vel, group):
                continue
            placed.append(TrueInstance(next_id, cid, half, base, vel, group))
            next_id += 1
            if cfg.pair_gap_range is not None:
                # Row-parking partners: stacked along the axis most
                # perpendicular to the sensor bearing, so all boxes show the
                # sensor the same face side by side, staggered in depth by a
                # fraction of the depth half extent (pair_offset_range is
                # dimensionless). The boundary points are exactly the fuzzy
                # ones a nearest-center rule misassigns.
                mid = base[:2] + vel[:2] * 0.5 * duration
                lat = int(np.abs(mid).argmin())
                depth = 1 - lat
                side = 1 if rng.uniform() < 0.5 else -1
                prev_base, prev_half = base, half
                for _partner in range(cfg.row_partners):
                    partner_half = np.maximum(
                        np.abs(rng.normal(spec.half_extent_mean, spec.half_extent_std)), 0.05)
                    gap = rng.uniform(*cfg.pair_gap_range)
                    stagger = (rng.uniform(*cfg.pair_offset_range) * partner_half[depth]
                               * (1 if rng.uniform() < 0.5 else -1))
                    shift = np.zeros(3)
                    shift[lat] = side * (prev_half[lat] + partner_half[lat] + gap)
                    shift[depth] = stagger
                    pbase = prev_base + shift
                    pbase[2] = partner_half[2]
                    placed.append(TrueInstance(next_id, cid, partner_half, pbase, vel, group))
                    next_id += 1
                    prev_base, prev_half = pbase, partner_half
            break
        else:
            raise ValueError("could not place instances under min_separation; relax the config")
    return {inst.instance_id: inst for inst in placed}


def generate_sequence(cfg: SceneConfig, taxonomy: Taxonomy | None = None
                      ) -> tuple[SweepSequence, SceneRegistry]:
    """Sample a labeled sweep sequence plus the registry of true boxes."""
    taxonomy = taxonomy or default_taxonomy()
    for cid in cfg.box_specs:
        if not taxonomy.is_thing(cid):
            raise ValueError(f"box class {cid} is not a thing class")
    root = np.random.SeedSequence(cfg.seed)
    place_rng = np.random.default_rng(root.spawn(1)[0])
    instances = _place_instances(cfg, place_rng)
    sweep_seeds = root.spawn(cfg.sweep_count + 1)[1:]
    sweeps = []
    times = [t * cfg.period for t in range(cfg.sweep_count)]
    for t_idx, t in enumerate(times):
        rng = np.random.default_rng(sweep_seeds[t_idx])
        sensor = _sensor_position(cfg, t)
        xyz_world = [_sample_ground(sensor, rng)]
        sems = [np.full(xyz_world[0].shape[0], GROUND, dtype=np.int32)]
        insts = [np.zeros(xyz_world[0].shape[0], dtype=np.int32)]
        for inst in instances.values():
            center = inst.center_at(t)
            planar = np.hypot(*(center[:2] - sensor[:2]))
            if planar > cfg.max_range:
                continue
            density = cfg.points_per_m2 * (REF_RANGE / max(planar, 1.0)) ** 2
            for axis, sign in visible_faces(center, inst.half_extent, sensor, cfg.occlusion):
                pts = _sample_face(center, inst.half_extent, axis, sign, density, rng)
                xyz_world.append(pts)
                sems.append(np.full(pts.shape[0], inst.class_id, dtype=np.int32))
                insts.append(np.full(pts.shape[0], inst.instance_id, dtype=np.int32))
        world = np.concatenate(xyz_world, axis=0)
        rows = np.zeros((world.shape[0], 4))
        # Stored at float32 precision so on-disk round trips are bit exact.
        rows[:, :3] = (world - sensor).astype(np.float32)
        rows[:, 3] = rng.uniform(0.0, 1.0, world.shape[0]).astype(np.float32)
        pose = np.eye(4)
        pose[:3, 3] = sensor
        sweeps.append(PointCloudSweep(t, rows, np.concatenate(sems), np.concatenate(insts), pose))
    seq = SweepSequence(tuple(sweeps), cfg.period)
    seq.validate_labels(taxonomy)
    return seq, SceneRegistry(instances, times, cfg)


@dataclass(frozen=True)
class DetectorNoise:
    """Imperfection model for the simulated first-stage network."""

    center_jitter: float = 0.0      # sigma, meters
    confidence_noise: float = 0.0   # sigma of the confidence knockdown
    drop_probability: float = 0.0   # per instance per sweep
    semantic_flip_probability: float = 0.0
    velocity_noise: float = 0.0     # sigma, m/s

    def __post_init__(self):
        for p in (self.drop_probability, self.semantic_flip_probability):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        for s in (self.center_jitter, self.confidence_noise, self.velocity_noise):
            if s < 0:
                raise ValueError("noise sigmas must be >= 0")


NO_NOISE = DetectorNoise()


class HandcraftedFeatures(FeatureProvider):
    """Deterministic per-point features standing in for the learned encoder.

    Channels: log local density, height above the ground estimate, the offset
    vector from the point to its local neighborhood centroid, and planar
    range / 10. The centroid-offset channels are what let the pair scorer
    recognize which body a boundary point sits on: the local mass of a point
    near an instance gap leans toward its own object.

    Features are computed on demand: ``point_features(sweep, rows)`` returns
    the rows of points ``rows`` only, each the value it has in a full-sweep
    pass. The neighborhood of a point is every point of the sweep within
    0.6 m in the plane, found among the 9 surrounding 0.6 m grid cells, and
    the ground estimate is the 5th percentile of every point's height. The
    centroid is a sequential float64 sum divided by the count, taken over the
    cells in ``dx`` order then ``dy`` order (each over -1, 0, 1) and, within
    a cell, over points in ascending index; the distance test is
    ``sqrt(dx*dx + dy*dy) <= 0.6``. Cell keys beyond 2**30 cells (6.4e8 m)
    from the origin are clamped to that bound, which merges those far cells
    and finds the same neighbors. Outputs are fixed bit for bit by that
    contract, which ``tests/oracles.handcrafted_features_reference`` spells
    out as a per-point loop. ``bev_map`` pools the points it is given into
    BEV column means (``voxelize`` then ``flatten_bev``).
    """

    DIM = 6

    def __init__(self, spec: GridSpec):
        self.spec = spec

    def point_features(self, sweep: PointCloudSweep, rows: np.ndarray) -> np.ndarray:
        xyz = sweep.xyz
        rows = np.asarray(rows, dtype=np.int64)
        out = np.zeros((rows.size, self.DIM))
        if rows.size == 0:
            return out
        # Cell keys encoded so that sorted codes follow (kx, ky) order, with
        # ky in [1, span - 2]: the cells (kx + dx, ky - 1 .. ky + 1) are one
        # contiguous code range, so each point's 9 neighbor cells are 3 runs
        # of the sorted order, in dx order, each in dy order. Clamping keeps
        # codes in int64 and moves no two keys apart, so no neighbor is lost.
        keys = np.clip(np.floor(xyz[:, :2] / _NEIGHBOR_RADIUS), -_CELL_KEY_LIMIT,
                       _CELL_KEY_LIMIT).astype(np.int64)
        keys -= keys.min(axis=0) - 1
        span = int(keys[:, 1].max()) + 2
        code = keys[:, 0] * span + keys[:, 1]
        order = np.argsort(code, kind="stable")  # ascending index within a cell
        sorted_code = code[order]
        runs = code[rows, None] + np.array([-1, 0, 1]) * span
        run_start = np.searchsorted(sorted_code, runs - 1, side="left")  # (rows, 3)
        run_size = np.searchsorted(sorted_code, runs + 1, side="right") - run_start
        row_pairs = run_size.sum(axis=1)
        # Expand (row, candidate) pairs a bounded chunk of whole rows at a time.
        chunk = (np.cumsum(row_pairs) - row_pairs) // _PAIR_CHUNK
        cuts = np.concatenate([[0], np.flatnonzero(np.diff(chunk)) + 1, [rows.size]])
        sorted_xyz = [xyz[order, axis] for axis in range(3)]
        own = [xyz[rows, axis] for axis in range(3)]
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            seg_size = run_size[r0:r1].ravel()
            owner = np.repeat(np.arange(r1 - r0), row_pairs[r0:r1])
            cand = np.arange(owner.size) - np.repeat(
                np.cumsum(seg_size) - seg_size - run_start[r0:r1].ravel(), seg_size)
            dx = sorted_xyz[0][cand] - np.repeat(own[0][r0:r1], row_pairs[r0:r1])
            dy = sorted_xyz[1][cand] - np.repeat(own[1][r0:r1], row_pairs[r0:r1])
            close = np.sqrt(dx * dx + dy * dy) <= _NEIGHBOR_RADIUS
            owner, cand = owner[close], cand[close]
            count = np.bincount(owner, minlength=r1 - r0)
            out[r0:r1, 0] = np.log1p(count)
            for axis, coord in enumerate(sorted_xyz):
                total = np.bincount(owner, weights=coord[cand], minlength=r1 - r0)
                out[r0:r1, 2 + axis] = total / count - own[axis][r0:r1]
        out[:, 1] = own[2] - np.percentile(xyz[:, 2], 5.0)
        out[:, 5] = np.hypot(own[0], own[1]) / 10.0
        return out

    def bev_map(self, sweep: PointCloudSweep, rows: np.ndarray,
                point_features: np.ndarray) -> BevMap:
        return flatten_bev(voxelize(sweep.points[rows], self.spec, point_features))


def flip_semantics(labels: np.ndarray, class_ids, probability: float,
                   rng: np.random.Generator) -> None:
    """Relabel each point with ``probability`` to a uniformly drawn other class, in place.

    One uniform draw per point picks the flipped points; then one bounded
    integer draw per flipped point, in point order, indexes ``class_ids``
    with the point's own class left out (all of them when its class is not
    listed).
    """
    flip = np.flatnonzero(rng.uniform(size=labels.size) < probability)
    classes = np.asarray(class_ids, dtype=np.int64)
    own = labels[flip, None] == classes
    listed = own.any(axis=1)
    pick = rng.integers(classes.size - listed)
    pick += listed & (pick >= own.argmax(axis=1))
    labels[flip] = classes[pick]


def simulate_detector(
    sweep: PointCloudSweep,
    sweep_index: int,
    trajectories: Trajectories,
    extents: np.ndarray,
    noise: DetectorNoise,
    spec: GridSpec,
    taxonomy: Taxonomy | None = None,
    seed: int = 0,
) -> tuple[BevTargets, np.ndarray]:
    """Backbone-output simulation for one sweep: (BEV maps, (N,) point semantics).

    ``sweep`` is sweep ``sweep_index`` of a sequence, and ``trajectories``
    holds the records the detector was trained on: the caller's
    ``targets.build_trajectories(seq, taxonomy)``, built once per sequence,
    or rows selected from it. ``extents`` is (R, 3), one row per record: the
    half extent the detector was trained to predict. Each instance with a
    record at this sweep gets a peak on its ``class_id`` heatmap at the
    sensor-frame ``sensor_center``, with jitter, sized by its ``extents``
    row and scaled by a noisy confidence; dropped instances, and instances
    without a record here, leave no peak. The peak's center cell carries
    the record's height, its ``extents`` row, and its world-frame
    ``velocity`` plus noise in m/s (what a trained offset head regresses).
    The maps are ``render_bev_targets``' sparse ``BevTargets``, the one type
    of first-stage map, which ``inference.nms_detect`` reads every box
    attribute from at each peak. The semantics are the labels with
    ``semantic_flip_probability`` noise. A record whose point count the
    sweep does not match raises.

    Deterministic per (inputs, seed, sweep_index): the sweep draws from
    ``SeedSequence(seed, spawn_key=(sweep_index,))``, the stream
    ``SeedSequence(seed).spawn(n)[sweep_index]`` gives, so sweeps can be
    simulated one at a time in any order. Each instance draws its drop,
    jitter, confidence and velocity noise in that order, in ascending id
    order.
    """
    taxonomy = taxonomy or default_taxonomy()
    class_ids = [c for c in taxonomy.class_ids if c not in taxonomy.ignore_ids]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(sweep_index,)))
    sem_pred = sweep.sem_labels.astype(np.int32)
    if noise.semantic_flip_probability > 0:
        flip_semantics(sem_pred, class_ids, noise.semantic_flip_probability, rng)
    extents = np.asarray(extents, dtype=np.float64)
    if extents.shape != (len(trajectories), 3):
        raise ValueError(f"need one (3,) extent per trajectory row, got {extents.shape}")
    rows = np.flatnonzero(trajectories.sweep_index == sweep_index)
    iid = trajectories.instance_id[rows]
    count = np.bincount(sweep.inst_labels[sweep.inst_labels > NO_INSTANCE],
                        minlength=iid.max(initial=0) + 1)
    if np.any(count[iid] != trajectories.point_count[rows]):
        raise ValueError(f"sweep {sweep_index}: trajectories hold an instance the sweep lacks")
    picked, jittered, velocities, peaks = [], [], [], []
    for row in rows.tolist():
        if rng.uniform() < noise.drop_probability:
            continue
        center = trajectories.sensor_center[row] + rng.normal(0.0, noise.center_jitter, 3) \
            if noise.center_jitter else trajectories.sensor_center[row]
        # ``spec.in_range`` and ``np.clip`` on scalars: array calls cost more per row.
        x, y, z = center.tolist()
        if not (np.hypot(x, y) < spec.planar_range and spec.z_min <= z < spec.z_max):
            continue
        conf = min(max(1.0 - abs(rng.normal(0.0, noise.confidence_noise)), 0.05), 1.0) \
            if noise.confidence_noise else 1.0
        vel = trajectories.velocity[row]
        if noise.velocity_noise:
            vel = vel + rng.normal(0.0, noise.velocity_noise, 2)
        picked.append(row)
        jittered.append(center)
        velocities.append(vel)
        peaks.append(conf)
    maps = render_bev_targets(jittered, trajectories.class_id[picked], extents[picked],
                              velocities, spec, taxonomy.num_channels, peak_scale=peaks)
    return maps, sem_pred
