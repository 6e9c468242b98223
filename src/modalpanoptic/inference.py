"""Detection from heatmaps and panoptic fusion of semantics + memberships."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .cloud import PanopticLabeling, Taxonomy
from .membership import ROI_MARGIN_FLOOR, ROI_MARGIN_FRAC, Detections, PairTable, gather_pairs
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
    def extents_for(self, class_ids: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """(D, 3) extents for detections of (D,) classes at (D, 3) centers."""


@dataclass(frozen=True)
class NearestCenterExtents:
    """Per-sweep lookup: extent of the nearest known same-class center."""

    centers: np.ndarray    # (M, 3)
    class_ids: np.ndarray  # (M,)
    extents: np.ndarray    # (M, 3)
    default: np.ndarray | None = None

    def extents_for(self, class_ids: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Planar-nearest same-class entry per detection, the lower index on ties."""
        same = np.asarray(self.class_ids) == class_ids[:, None]
        known = same.any(axis=1)
        out = np.empty((class_ids.size, 3))
        if known.any():
            dist = np.linalg.norm(self.centers[:, :2] - centers[known, None, :2], axis=2)
            out[known] = self.extents[np.argmin(np.where(same[known], dist, np.inf), axis=1)]
        if not known.all():
            if self.default is None:
                raise KeyError(f"no extent entry for class {class_ids[~known][0]}")
            out[~known] = self.default
        return out


def nms_detect(
    maps: PredictedMaps,
    spec: GridSpec,
    extent_provider: ExtentProvider,
    threshold: float = NMS_THRESHOLD,
    max_detections: int = NMS_MAX_DETECTIONS,
) -> Detections:
    """3x3 local maxima of the class heatmaps, ordered by decreasing confidence.

    A cell detects when its value strictly exceeds the threshold and is
    ``>=`` each in-bounds cell of its 3x3 neighborhood in its own channel,
    which is ``hm == max(3x3)`` with out-of-bounds cells at ``-inf``; a NaN
    neighbour vetoes the peak. After one pass over the grid for the
    threshold test, the work scales with the cells above the threshold, not
    with the grid. Detection centers snap to cell centers with z read from
    the height map; extents come from the provider.
    """
    hm = maps.heatmaps
    _, w, d = hm.shape
    cells = hm.reshape(-1)
    flat = np.flatnonzero(cells > threshold)
    for dx, dy in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        x, y = flat // d % w + dx, flat % d + dy
        inside = (x >= 0) & (x < w) & (y >= 0) & (y < d)
        at = flat[inside]
        keep = ~inside
        keep[inside] = cells[at] >= cells[at + (dx * d + dy)]
        flat = flat[keep]
    # Flat indices ascend in (class, x, y) order, which breaks confidence ties.
    top = flat[np.lexsort((flat, -cells[flat]))[:max(max_detections, 0)]]
    cls, x, y = np.unravel_index(top, hm.shape)
    center = np.column_stack([*spec.bev_cell_center(x, y), maps.height[x, y]])
    return Detections(center, cells[top], cls, extent_provider.extents_for(cls, center))


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
    detections: Detections,
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
    call, one probability per pair. A pair whose membership strictly exceeds
    0.5 is a claim. Claimed points take the detection class and a fresh id
    (starting at 1, in detection order). Leftover points fall back to their
    predicted semantics with instance 0.

    ``conflict`` picks the overlap rule: "first_wins" gives a contested point
    to its first (most confident) claimant; "argmax" to the claimant with
    the highest membership, the first one on ties. One sort of the claims by
    (point, rule key) resolves every point at once.
    """
    if conflict not in ("first_wins", "argmax"):
        raise ValueError(f"unknown conflict rule {conflict!r}")
    foreign = detections.class_id[~np.isin(detections.class_id, taxonomy.class_ids)]
    if foreign.size:
        raise ValueError(f"detection class {foreign[0]} not in the taxonomy")
    pairs = gather_pairs(points_xyz, maps.point_sem, detections, margin_frac, margin_floor)
    probs = np.asarray(membership(pairs), dtype=np.float64)
    if probs.shape != (len(pairs),):
        raise ValueError(f"membership gave {probs.shape} scores for {len(pairs)} pairs")
    n = np.asarray(points_xyz).shape[0]
    claims = np.flatnonzero(probs > 0.5)
    point, det = pairs.point[claims], pairs.det[claims]
    rule = (det,) if conflict == "first_wins" else (det, -probs[claims])
    order = np.lexsort((*rule, point))
    point, det = point[order], det[order]
    first = np.ones(point.size, dtype=bool)
    first[1:] = point[1:] != point[:-1]
    point_det = np.full(n, -1, dtype=np.int64)
    point_det[point[first]] = det[first]
    claimed = point_det >= 0
    sem_out = np.asarray(maps.point_sem, dtype=np.int32).copy()
    inst_out = np.zeros(n, dtype=np.int32)
    _, rank = np.unique(point_det[claimed], return_inverse=True)
    inst_out[claimed] = rank + 1
    sem_out[claimed] = detections.class_id[point_det[claimed]]
    return FusionResult(PanopticLabeling(sem_out, inst_out), point_det)
