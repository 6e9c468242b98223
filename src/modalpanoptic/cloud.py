"""Core point cloud types: sweeps, sequences, taxonomy and panoptic labelings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Reserved label values. Class 0 is ignore/unlabeled and excluded from all
# losses and metrics; instance 0 means "no instance" (stuff or unassigned).
IGNORE_CLASS = 0
NO_INSTANCE = 0

POINT_DIMS = 4  # x, y, z, intensity
RIGID_TOL = 1e-9  # largest accepted deviation of a pose from a rigid transform


class TaxonomyError(ValueError):
    pass


class DuplicateClassId(TaxonomyError):
    pass


class RigidTransformError(ValueError):
    pass


@dataclass(frozen=True)
class ClassDef:
    id: int
    name: str
    kind: str  # thing | stuff | ignore


@dataclass(frozen=True)
class Taxonomy:
    """Semantic classes with the thing/stuff partition and per-dataset filters."""

    classes: tuple[ClassDef, ...]
    min_instance_points: int

    def __post_init__(self):
        ids = [c.id for c in self.classes]
        if len(ids) != len(set(ids)):
            dup = sorted(i for i in set(ids) if ids.count(i) > 1)
            raise DuplicateClassId(f"duplicate class ids: {dup}")
        for c in self.classes:
            if c.kind not in ("thing", "stuff", "ignore"):
                raise TaxonomyError(f"class {c.id}: unknown kind {c.kind!r}")
        if not self.thing_ids:
            raise TaxonomyError("taxonomy declares no thing class")
        if not self.stuff_ids:
            raise TaxonomyError("taxonomy declares no stuff class")
        if self.min_instance_points < 1:
            raise TaxonomyError("min_instance_points must be >= 1")

    @property
    def thing_ids(self) -> frozenset[int]:
        return frozenset(c.id for c in self.classes if c.kind == "thing")

    @property
    def stuff_ids(self) -> frozenset[int]:
        return frozenset(c.id for c in self.classes if c.kind == "stuff")

    @property
    def ignore_ids(self) -> frozenset[int]:
        # Class id 0 is reserved as ignore even when not declared.
        declared = frozenset(c.id for c in self.classes if c.kind == "ignore")
        return declared | frozenset([IGNORE_CLASS])

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.classes)

    @property
    def num_channels(self) -> int:
        """Channel count for dense class-indexed maps (max id + 1)."""
        return max(self.class_ids) + 1

    def is_thing(self, class_id: int) -> bool:
        return class_id in self.thing_ids

    def name_of(self, class_id: int) -> str:
        for c in self.classes:
            if c.id == class_id:
                return c.name
        return f"class_{class_id}"


def load_taxonomy(path) -> Taxonomy:
    """Parse a taxonomy file.

    Format: a header line ``min_instance_points=<N>`` followed by one class
    per line as ``id<TAB>name<TAB>kind``.
    """
    min_points = None
    classes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("min_instance_points"):
                key, _, value = line.partition("=")
                if key.strip() != "min_instance_points":
                    raise TaxonomyError(f"line {lineno}: bad header {line!r}")
                try:
                    min_points = int(value.strip())
                except ValueError as exc:
                    raise TaxonomyError(f"line {lineno}: bad count {value!r}") from exc
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise TaxonomyError(f"line {lineno}: expected id<TAB>name<TAB>kind, got {line!r}")
            try:
                cid = int(parts[0])
            except ValueError as exc:
                raise TaxonomyError(f"line {lineno}: bad class id {parts[0]!r}") from exc
            classes.append(ClassDef(cid, parts[1], parts[2]))
    if min_points is None:
        raise TaxonomyError("missing min_instance_points header")
    return Taxonomy(tuple(classes), min_points)


def save_taxonomy(taxonomy: Taxonomy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"min_instance_points={taxonomy.min_instance_points}\n")
        for c in taxonomy.classes:
            fh.write(f"{c.id}\t{c.name}\t{c.kind}\n")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


def check_rigid(pose: np.ndarray) -> None:
    """Raise unless pose is a proper rigid transform (4x4, finite, orthonormal R, det +1)."""
    pose = np.asarray(pose, dtype=np.float64)
    if pose.shape != (4, 4):
        raise RigidTransformError(f"pose must be 4x4, got {pose.shape}")
    # NaN slips through every comparison below, so it is rejected first.
    if not np.all(np.isfinite(pose)):
        raise RigidTransformError("pose entries must be finite")
    if not np.allclose(pose[3], [0.0, 0.0, 0.0, 1.0], atol=RIGID_TOL):
        raise RigidTransformError("bottom row must be [0, 0, 0, 1]")
    rot = pose[:3, :3]
    err = np.abs(rot.T @ rot - np.eye(3)).max()
    if err > RIGID_TOL:
        raise RigidTransformError(f"rotation block not orthonormal (|R^T R - I| = {err:.3e})")
    if np.linalg.det(rot) < 0:
        raise RigidTransformError("rotation block has negative determinant")


def invert_pose(pose: np.ndarray) -> np.ndarray:
    rot = pose[:3, :3]
    t = pose[:3, 3]
    inv = np.eye(4)
    inv[:3, :3] = rot.T
    inv[:3, 3] = -rot.T @ t
    return inv


def apply_pose(pose: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(K, 3) points mapped through a 4x4 rigid pose.

    The stacked product keeps every row bit-equal to ``R @ center + t``.
    """
    return (pose[:3, :3] @ centers[:, :, None])[:, :, 0] + pose[:3, 3]


@dataclass(frozen=True)
class PointCloudSweep:
    """One timestamped sweep with per-point labels, immutable after construction.

    ``points`` is (N, 4) float64 ``[x, y, z, intensity]`` in the sensor frame.
    ``ego_pose`` maps sensor-frame coordinates into the world frame.
    """

    timestamp: float
    points: np.ndarray
    sem_labels: np.ndarray
    inst_labels: np.ndarray
    ego_pose: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != POINT_DIMS:
            raise ValueError(f"points must be (N, {POINT_DIMS}), got {pts.shape}")
        if not np.all(np.isfinite(pts[:, :3])):
            raise ValueError("point coordinates must be finite")
        sem = np.asarray(self.sem_labels, dtype=np.int32)
        inst = np.asarray(self.inst_labels, dtype=np.int32)
        if sem.shape != (pts.shape[0],) or inst.shape != (pts.shape[0],):
            raise ValueError("label arrays must match the point count")
        check_rigid(self.ego_pose)
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "sem_labels", _freeze(sem))
        object.__setattr__(self, "inst_labels", _freeze(inst))
        object.__setattr__(self, "ego_pose", _freeze(np.asarray(self.ego_pose, dtype=np.float64)))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    def validate_labels(self, taxonomy: Taxonomy) -> None:
        """Check instance ids only appear on thing-class points."""
        has_inst = self.inst_labels > NO_INSTANCE
        thing = np.isin(self.sem_labels, list(taxonomy.thing_ids))
        bad = has_inst & ~thing
        if bad.any():
            idx = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"point {idx}: instance {self.inst_labels[idx]} on non-thing class {self.sem_labels[idx]}"
            )


@dataclass(frozen=True)
class SweepSequence:
    """Time-ordered sweeps with temporally consistent instance ids."""

    sweeps: tuple[PointCloudSweep, ...]
    period: float

    def __post_init__(self):
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        if not self.sweeps:
            raise ValueError("sequence must contain at least one sweep")
        times = [s.timestamp for s in self.sweeps]
        stray = np.flatnonzero(~np.isfinite(times))
        if stray.size:
            raise ValueError(f"sweep {stray[0]}: timestamp {times[stray[0]]} is not finite")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sweep timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.sweeps)

    def __iter__(self):
        return iter(self.sweeps)

    def validate_labels(self, taxonomy: Taxonomy) -> None:
        """Per-sweep label coherence plus one class per instance id over time."""
        inst_class: dict[int, int] = {}
        for t, sweep in enumerate(self.sweeps):
            sweep.validate_labels(taxonomy)
            ids = sweep.inst_labels
            sems = sweep.sem_labels
            for iid in np.unique(ids[ids > NO_INSTANCE]):
                classes = np.unique(sems[ids == iid])
                if classes.size != 1:
                    raise ValueError(f"sweep {t}: instance {iid} spans classes {classes.tolist()}")
                cid = int(classes[0])
                if inst_class.setdefault(int(iid), cid) != cid:
                    raise ValueError(
                        f"instance {iid} changes class {inst_class[int(iid)]} -> {cid} at sweep {t}"
                    )


@dataclass(frozen=True)
class PanopticLabeling:
    """Per-point (semantic class, instance id); instance 0 marks stuff."""

    sem: np.ndarray
    inst: np.ndarray

    def __post_init__(self):
        sem = np.asarray(self.sem, dtype=np.int32)
        inst = np.asarray(self.inst, dtype=np.int32)
        if sem.shape != inst.shape or sem.ndim != 1:
            raise ValueError("sem and inst must be equal-length 1-D arrays")
        object.__setattr__(self, "sem", _freeze(sem))
        object.__setattr__(self, "inst", _freeze(inst))

    def __len__(self) -> int:
        return self.sem.shape[0]

    def validate(self, taxonomy: Taxonomy, allow_unassigned_things: bool = True) -> None:
        """Check structural coherence against a taxonomy.

        Instance ids must sit on thing points and keep a single class each.
        Thing points with instance 0 are tolerated unless
        ``allow_unassigned_things`` is False.
        """
        has_inst = self.inst > NO_INSTANCE
        thing = np.isin(self.sem, list(taxonomy.thing_ids))
        if (has_inst & ~thing).any():
            raise ValueError("instance id on a non-thing point")
        if not allow_unassigned_things:
            unassigned = thing & ~has_inst
            if unassigned.any():
                raise ValueError(f"{int(unassigned.sum())} thing points without an instance id")
        for iid in np.unique(self.inst[has_inst]):
            if np.unique(self.sem[self.inst == iid]).size != 1:
                raise ValueError(f"instance {iid} spans multiple classes")
