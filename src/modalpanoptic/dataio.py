"""On-disk formats: point/label binaries, dataset layout, run configuration.

Layout follows the usual lidar-benchmark convention::

    root/
      taxonomy.txt
      sequences/<seq>/velodyne/<frame>.bin   # float32 LE x,y,z,intensity
      sequences/<seq>/labels/<frame>.label   # uint32 LE, low 16 sem, high 16 inst
      sequences/<seq>/poses.txt              # 12 floats per line, row-major 3x4
      sequences/<seq>/times.txt              # one timestamp per frame

Frame names are zero-padded 6-digit consecutive integers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .cloud import PointCloudSweep, SweepSequence, Taxonomy, load_taxonomy, save_taxonomy
from .voxels import GridSpec

SEM_MASK = 0xFFFF
MAX_PACKED_ID = 0xFFFF


class TruncatedRecord(ValueError):
    pass


class LabelRangeError(ValueError):
    pass


def encode_labels(sem: np.ndarray, inst: np.ndarray) -> np.ndarray:
    sem = np.asarray(sem, dtype=np.int64)
    inst = np.asarray(inst, dtype=np.int64)
    if sem.shape != inst.shape:
        raise ValueError("sem and inst must have the same length")
    if sem.size and (sem.min() < 0 or sem.max() > SEM_MASK):
        raise LabelRangeError("semantic id outside the 16-bit range")
    if inst.size and (inst.min() < 0 or inst.max() > MAX_PACKED_ID):
        raise LabelRangeError("instance id outside the 16-bit range")
    return ((inst.astype(np.uint32) << 16) | sem.astype(np.uint32)).astype("<u4")


def decode_labels(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    words = np.asarray(words).astype(np.uint32)
    sem = (words & SEM_MASK).astype(np.int32)
    inst = (words >> 16).astype(np.int32)
    return sem, inst


def write_point_bin(path, points: np.ndarray) -> None:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 4:
        raise ValueError("points must be (N, >=4) with x, y, z, intensity")
    if pts.shape[0] == 0:
        raise ValueError("refusing to write an empty sweep")
    np.ascontiguousarray(pts[:, :4], dtype="<f4").tofile(path)


def read_point_bin(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % 16 != 0:
        raise TruncatedRecord(f"{path}: {len(raw)} bytes is not a whole number of records")
    return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(-1, 4)


def write_label_file(path, sem: np.ndarray, inst: np.ndarray) -> None:
    encode_labels(sem, inst).tofile(path)


def read_label_file(path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) % 4 != 0:
        raise TruncatedRecord(f"{path}: {len(raw)} bytes is not a whole number of labels")
    return decode_labels(np.frombuffer(raw, dtype="<u4"))


def _format_floats(values) -> str:
    return " ".join(f"{float(v):.17g}" for v in values)


def write_sequence(root, name: str, seq: SweepSequence, taxonomy: Taxonomy) -> Path:
    """Write one sequence; creates taxonomy.txt at the root when missing."""
    root = Path(root)
    seq_dir = root / "sequences" / name
    (seq_dir / "velodyne").mkdir(parents=True, exist_ok=True)
    (seq_dir / "labels").mkdir(parents=True, exist_ok=True)
    poses, times = [], []
    for idx, sweep in enumerate(seq.sweeps):
        frame = f"{idx:06d}"
        write_point_bin(seq_dir / "velodyne" / f"{frame}.bin", sweep.points)
        write_label_file(seq_dir / "labels" / f"{frame}.label",
                         sweep.sem_labels, sweep.inst_labels)
        poses.append(_format_floats(sweep.ego_pose[:3].reshape(-1)))
        times.append(f"{sweep.timestamp:.17g}")
    (seq_dir / "poses.txt").write_text("\n".join(poses) + "\n", encoding="utf-8")
    (seq_dir / "times.txt").write_text("\n".join(times) + "\n", encoding="utf-8")
    tax_path = root / "taxonomy.txt"
    if not tax_path.exists():
        save_taxonomy(taxonomy, tax_path)
    return seq_dir


def list_sequences(root) -> list[str]:
    seq_root = Path(root) / "sequences"
    if not seq_root.is_dir():
        raise FileNotFoundError(f"{seq_root} does not exist")
    return sorted(p.name for p in seq_root.iterdir() if p.is_dir())


def _frame_names(directory: Path, suffix: str) -> list[str]:
    names = sorted(p.stem for p in directory.glob(f"*{suffix}"))
    for i, name in enumerate(names):
        if name != f"{i:06d}":
            raise ValueError(f"{directory}: frames are not consecutive 6-digit names")
    return names


def read_sequence(root, name: str, period: float | None = None) -> SweepSequence:
    seq_dir = Path(root) / "sequences" / name
    if not seq_dir.is_dir():
        raise FileNotFoundError(f"{seq_dir} does not exist")
    frames = _frame_names(seq_dir / "velodyne", ".bin")
    label_frames = _frame_names(seq_dir / "labels", ".label")
    if frames != label_frames:
        raise ValueError(f"{seq_dir}: velodyne and label frame sets differ")
    pose_lines = (seq_dir / "poses.txt").read_text(encoding="utf-8").splitlines()
    times_path = seq_dir / "times.txt"
    if times_path.exists():
        times = [float(x) for x in times_path.read_text(encoding="utf-8").split()]
    else:
        step = period if period else 0.1
        times = [i * step for i in range(len(frames))]
    for path, count in ((seq_dir / "poses.txt", len(pose_lines)), (times_path, len(times))):
        if count < len(frames):
            raise ValueError(f"{path}: {count} entries for {len(frames)} frames")
    sweeps = []
    for idx, frame in enumerate(frames):
        pts4 = read_point_bin(seq_dir / "velodyne" / f"{frame}.bin")
        sem, inst = read_label_file(seq_dir / "labels" / f"{frame}.label")
        if sem.shape[0] != pts4.shape[0]:
            raise ValueError(f"{seq_dir}/{frame}: label/point count mismatch")
        pose = np.eye(4)
        pose[:3] = np.array([float(v) for v in pose_lines[idx].split()]).reshape(3, 4)
        pts = np.zeros((pts4.shape[0], 5))
        pts[:, :4] = pts4
        sweeps.append(PointCloudSweep(times[idx], pts, sem, inst, pose))
    if period is None:
        diffs = np.diff(times)
        period = float(np.median(diffs)) if len(diffs) else 0.1
    return SweepSequence(tuple(sweeps), period)


def dataset_taxonomy(root) -> Taxonomy:
    path = Path(root) / "taxonomy.txt"
    if not path.exists():
        raise FileNotFoundError(f"{path} does not exist")
    return load_taxonomy(path)


def write_predictions(pred_root, name: str, labelings) -> Path:
    out = Path(pred_root) / name
    out.mkdir(parents=True, exist_ok=True)
    for idx, lab in enumerate(labelings):
        write_label_file(out / f"{idx:06d}.label", lab.sem, lab.inst)
    return out


def read_predictions(pred_root, name: str):
    from .cloud import PanopticLabeling

    directory = Path(pred_root) / name
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} does not exist")
    out = []
    for frame in _frame_names(directory, ".label"):
        sem, inst = read_label_file(directory / f"{frame}.label")
        out.append(PanopticLabeling(sem, inst))
    return out


@dataclass(frozen=True)
class RunConfig:
    """Flat key = value run configuration with CLI-friendly defaults."""

    seed: int = 0
    # grid
    voxel_size_x: float = 0.1
    voxel_size_y: float = 0.1
    voxel_size_z: float = 0.2
    planar_range: float = 40.0
    z_min: float = -2.0
    z_max: float = 3.0
    bev_downsample: int = 2
    # extents
    extent_strategy: str = "MAX"
    dsb_min_points: int = 10
    extent_source: str = "model"  # model | cwm
    # detection / fusion
    nms_threshold: float = 0.3
    nms_max_detections: int = 500
    roi_margin_frac: float = 0.1
    roi_margin_floor: float = 0.25
    conflict: str = "first_wins"
    membership: str = "nn"  # nn | mlp | oracle
    # tracking
    gate_scale: float = 2.0
    default_gate: float = 2.0
    max_age: int = 2
    # detector noise
    center_jitter: float = 0.0
    confidence_noise: float = 0.0
    drop_probability: float = 0.0
    semantic_flip_probability: float = 0.0
    velocity_noise: float = 0.0
    # membership training
    train_epochs: int = 20
    train_learning_rate: float = 5e-4
    train_batch_size: int = 64
    train_center_jitter: float = 0.2
    train_hidden: int = 64
    features: str = "full"  # geo | geo+bev | full
    # loss weights
    w_det: float = 1.0
    w_seg: float = 1.0
    w_mem: float = 1.0
    w_track: float = 1.0

    def grid_spec(self) -> GridSpec:
        return GridSpec((self.voxel_size_x, self.voxel_size_y, self.voxel_size_z),
                        self.planar_range, self.z_min, self.z_max, self.bev_downsample)

    def with_seed_override(self) -> "RunConfig":
        env = os.environ.get("MODAL_PANOPTIC_SEED")
        return replace(self, seed=int(env)) if env else self


def parse_run_config(path) -> RunConfig:
    return replace(RunConfig(), **read_run_config_values(path))


def read_run_config_values(path) -> dict:
    """The keys a run-config file sets, with values typed like the defaults."""
    values = {}
    names = {f.name for f in fields(RunConfig)}
    defaults = RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in names:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            current = getattr(defaults, key)
            try:
                values[key] = type(current)(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def write_run_config(cfg: RunConfig, path) -> None:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
