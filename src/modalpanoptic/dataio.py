"""On-disk formats: point/label binaries, dataset layout, config-file lines.

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

import math
from pathlib import Path

import numpy as np

from .cloud import POINT_DIMS, PointCloudSweep, RigidTransformError, SweepSequence, Taxonomy, \
    load_taxonomy, save_taxonomy

SEM_MASK = 0xFFFF
MAX_PACKED_ID = 0xFFFF
_PREDICTED_FRAME = "[0-9]" * 6 + ".label"


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
    if pts.ndim != 2 or pts.shape[1] != POINT_DIMS:
        raise ValueError(f"points must be (N, {POINT_DIMS}) with x, y, z, intensity, "
                         f"got {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("refusing to write an empty sweep")
    np.ascontiguousarray(pts, dtype="<f4").tofile(path)


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


def _numbers(path: Path, lineno: int, line: str) -> list[float]:
    try:
        return [float(token) for token in line.split()]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_sequence(root, name: str) -> SweepSequence:
    """Read one sequence; without ``times.txt`` sweeps are 0.1 s apart.

    ``poses.txt`` holds one pose line and ``times.txt`` one timestamp per
    frame, no more and no fewer; trailing blank lines are fine. A malformed
    entry raises a ``ValueError`` that names the file and the line.
    """
    seq_dir = Path(root) / "sequences" / name
    if not seq_dir.is_dir():
        raise FileNotFoundError(f"{seq_dir} does not exist")
    frames = _frame_names(seq_dir / "velodyne", ".bin")
    label_frames = _frame_names(seq_dir / "labels", ".label")
    if frames != label_frames:
        raise ValueError(f"{seq_dir}: velodyne and label frame sets differ")
    poses_path = seq_dir / "poses.txt"
    pose_lines = poses_path.read_text(encoding="utf-8").rstrip().splitlines()
    times_path = seq_dir / "times.txt"
    if times_path.exists():
        times = []
        for lineno, line in enumerate(times_path.read_text(encoding="utf-8").splitlines(), 1):
            for value in _numbers(times_path, lineno, line):
                if not math.isfinite(value):
                    raise ValueError(f"{times_path}:{lineno}: sweep {len(times)}: "
                                     f"timestamp {value} is not finite")
                times.append(value)
    else:
        times = [i * 0.1 for i in range(len(frames))]
    for path, count in ((poses_path, len(pose_lines)), (times_path, len(times))):
        if count != len(frames):
            raise ValueError(f"{path}: {count} entries for {len(frames)} frames")
    sweeps = []
    for idx, frame in enumerate(frames):
        pts = read_point_bin(seq_dir / "velodyne" / f"{frame}.bin")
        sem, inst = read_label_file(seq_dir / "labels" / f"{frame}.label")
        if sem.shape[0] != pts.shape[0]:
            raise ValueError(f"{seq_dir}/{frame}: label/point count mismatch")
        values = _numbers(poses_path, idx + 1, pose_lines[idx])
        if len(values) != 12:
            raise ValueError(f"{poses_path}:{idx + 1}: {len(values)} values, a pose needs 12")
        pose = np.eye(4)
        pose[:3] = np.reshape(values, (3, 4))
        try:
            sweeps.append(PointCloudSweep(times[idx], pts, sem, inst, pose))
        except RigidTransformError as exc:
            raise RigidTransformError(f"{poses_path}:{idx + 1}: {exc}") from None
    diffs = np.diff(times)
    return SweepSequence(tuple(sweeps), float(np.median(diffs)) if len(diffs) else 0.1)


def dataset_taxonomy(root) -> Taxonomy:
    path = Path(root) / "taxonomy.txt"
    if not path.exists():
        raise FileNotFoundError(f"{path} does not exist")
    return load_taxonomy(path)


def write_predictions(pred_root, name: str, labelings) -> Path:
    """One ``NNNNNN.label`` per labeling; higher-numbered frames of an earlier run are removed."""
    out = Path(pred_root) / name
    out.mkdir(parents=True, exist_ok=True)
    labelings = list(labelings)
    for idx, lab in enumerate(labelings):
        write_label_file(out / f"{idx:06d}.label", lab.sem, lab.inst)
    for frame in out.glob(_PREDICTED_FRAME):
        if int(frame.stem) >= len(labelings):
            frame.unlink()
    return out


def prune_predictions(pred_root, names) -> None:
    """Remove the sequence directories of an earlier run that ``names`` does not list.

    Only a directory that holds nothing but ``NNNNNN.label`` files goes, as
    ``write_predictions`` leaves one; any other entry, symbolic links
    included, is kept.
    """
    keep = set(names)
    for directory in Path(pred_root).iterdir():
        if directory.name in keep or directory.is_symlink() or not directory.is_dir():
            continue
        entries = list(directory.iterdir())
        if all(entry.is_file() and entry.match(_PREDICTED_FRAME) for entry in entries):
            for entry in entries:
                entry.unlink()
            directory.rmdir()


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


def read_config_lines(path) -> list[tuple[int, str, str]]:
    """(line number, key, value) of each ``key = value`` line; ``#`` starts a comment."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            entries.append((lineno, key.strip(), value.strip()))
    return entries
