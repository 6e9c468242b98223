"""Detection from heatmaps and panoptic fusion of semantics + memberships."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .cloud import PanopticLabeling, Taxonomy
from .membership import ROI_MARGIN_FLOOR, ROI_MARGIN_FRAC, Detection, PairTable, gather_pairs
from .voxels import BevMap, GridSpec

NMS_THRESHOLD = 0.3
NMS_MAX_DETECTIONS = 500


@dataclass(frozen=True)
class PredictedMaps:
    """Simulated (or one day, regressed) first-stage outputs for one sweep."""

    heatmaps: np.ndarray       # (K, W', D') in [0, 1]
    height: np.ndarray         # (W', D') meters
    velocity: np.ndarray       # (W', D', 2) m/s
    point_sem: np.ndarray      # (N,) predicted class per point
    bev_features: BevMap
    point_features: np.ndarray  # (N, P)

    def __post_init__(self):
        if self.heatmaps.min(initial=0.0) < 0 or self.heatmaps.max(initial=0.0) > 1:
            raise ValueError("heatmap values must lie in [0, 1]")
        k, w, d = self.heatmaps.shape
        if self.height.shape != (w, d) or self.velocity.shape != (w, d, 2):
            raise ValueError("height/velocity shapes do not match the heatmaps")


class ExtentProvider(Protocol):
    def extent_for(self, class_id: int, center: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class CwmExtents:
    """Class-wise mean extents with a fallback for unseen classes."""

    stats: dict[int, np.ndarray]
    default: np.ndarray = None

    def extent_for(self, class_id: int, center: np.ndarray) -> np.ndarray:
        if class_id in self.stats:
            return np.asarray(self.stats[class_id], dtype=np.float64)
        if self.default is not None:
            return np.asarray(self.default, dtype=np.float64)
        raise KeyError(f"no extent statistics for class {class_id}")


@dataclass(frozen=True)
class NearestCenterExtents:
    """Per-sweep lookup: extent of the nearest known same-class center."""

    centers: np.ndarray    # (M, 3)
    class_ids: np.ndarray  # (M,)
    extents: np.ndarray    # (M, 3)
    default: np.ndarray | None = None

    def extent_for(self, class_id: int, center: np.ndarray) -> np.ndarray:
        mask = np.asarray(self.class_ids) == class_id
        if not mask.any():
            if self.default is not None:
                return np.asarray(self.default, dtype=np.float64)
            raise KeyError(f"no extent entry for class {class_id}")
        idx = np.flatnonzero(mask)
        dist = np.linalg.norm(self.centers[idx, :2] - np.asarray(center)[:2], axis=1)
        return np.asarray(self.extents[idx[np.argmin(dist)]], dtype=np.float64)


def nms_detect(
    maps: PredictedMaps,
    spec: GridSpec,
    extent_provider: ExtentProvider,
    threshold: float = NMS_THRESHOLD,
    max_detections: int = NMS_MAX_DETECTIONS,
) -> list[Detection]:
    """3x3 local maxima of the class heatmaps, ordered by decreasing confidence.

    A cell detects when its value equals the maximum of its 3x3 neighborhood
    in its own channel and strictly exceeds the threshold. Detection centers
    snap to cell centers with z read from the height map; extents come from
    the provider.
    """
    k, w, d = maps.heatmaps.shape
    hm = maps.heatmaps
    padded = np.full((k, w + 2, d + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = hm
    neighborhood = np.full_like(hm, -np.inf)
    for dx in (0, 1, 2):
        for dy in (0, 1, 2):
            np.maximum(neighborhood, padded[:, dx:dx + w, dy:dy + d], out=neighborhood)
    is_peak = (hm == neighborhood) & (hm > threshold)
    cls, ix, iy = np.nonzero(is_peak)
    order = np.lexsort((iy, ix, cls, -hm[cls, ix, iy]))
    detections = []
    for c, x, y in zip(cls[order], ix[order], iy[order]):
        if len(detections) >= max_detections:
            break
        xy = spec.bev_cell_center(int(x), int(y))
        center = np.array([xy[0], xy[1], maps.height[x, y]])
        detections.append(Detection(center, float(hm[c, x, y]), int(c),
                                    extent_provider.extent_for(int(c), center)))
    return detections


@dataclass(frozen=True)
class FusionResult:
    """Panoptic labeling plus which detection claimed each point (-1 for none)."""

    labeling: PanopticLabeling
    point_detection: np.ndarray

    @property
    def sem(self) -> np.ndarray:
        return self.labeling.sem

    @property
    def inst(self) -> np.ndarray:
        return self.labeling.inst


def fuse_panoptic(
    points_xyz: np.ndarray,
    detections: list[Detection],
    maps: PredictedMaps,
    membership: Callable[[PairTable], np.ndarray],
    taxonomy: Taxonomy,
    margin_frac: float = ROI_MARGIN_FRAC,
    margin_floor: float = ROI_MARGIN_FLOOR,
    conflict: str = "first_wins",
) -> FusionResult:
    """Fuse semantics, detections and memberships into per-point (class, id).

    ``gather_pairs`` collects each detection's RoI points whose predicted
    class is its own, and ``membership(pairs)`` scores the whole table in one
    call, one probability per pair. Detections are then consumed in
    decreasing-confidence order; each claims the still-unassigned points of
    its group whose membership strictly exceeds 0.5. Claimed points take the
    detection class and a fresh id (starting at 1, in detection order).
    Leftover points fall back to their predicted semantics with instance 0.

    ``conflict`` picks the overlap rule: "first_wins" freezes earlier
    (more confident) assignments; "argmax" gives contested points to the
    detection with the highest membership among those scoring above 0.5.
    """
    if conflict not in ("first_wins", "argmax"):
        raise ValueError(f"unknown conflict rule {conflict!r}")
    confidences = [d.confidence for d in detections]
    if any(b > a for a, b in zip(confidences, confidences[1:])):
        raise ValueError("detections must be sorted by decreasing confidence")
    for det in detections:
        if det.class_id not in taxonomy.class_ids:
            raise ValueError(f"detection class {det.class_id} not in the taxonomy")
    pairs = gather_pairs(points_xyz, maps.point_sem, detections, margin_frac, margin_floor)
    probs = np.asarray(membership(pairs), dtype=np.float64)
    if probs.shape != (len(pairs),):
        raise ValueError(f"membership gave {probs.shape} scores for {len(pairs)} pairs")
    n = np.asarray(points_xyz).shape[0]
    point_det = np.full(n, -1, dtype=np.int64)
    best_prob = np.zeros(n)
    for d in range(len(detections)):
        group = pairs.group(d)
        roi, p = pairs.point[group], probs[group]
        if conflict == "first_wins":
            point_det[roi[(p > 0.5) & (point_det[roi] < 0)]] = d
        else:
            better = (p > 0.5) & (p > best_prob[roi])
            best_prob[roi[better]] = p[better]
            point_det[roi[better]] = d
    claimed = point_det >= 0
    sem_out = np.asarray(maps.point_sem, dtype=np.int32).copy()
    inst_out = np.zeros(n, dtype=np.int32)
    _, rank = np.unique(point_det[claimed], return_inverse=True)
    inst_out[claimed] = rank + 1
    class_ids = np.array([det.class_id for det in detections], dtype=np.int32)
    sem_out[claimed] = class_ids[point_det[claimed]]
    return FusionResult(PanopticLabeling(sem_out, inst_out), point_det)


def make_table_membership(table: np.ndarray) -> Callable[[PairTable], np.ndarray]:
    """Membership from a precomputed (detections x points) probability table."""
    table = np.asarray(table, dtype=np.float64)
    return lambda pairs: table[pairs.det, pairs.point]
