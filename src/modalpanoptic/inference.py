"""Detection from heatmaps and panoptic fusion of semantics + memberships."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cloud import PanopticLabeling, Taxonomy
from .membership import ROI_MARGIN_FLOOR, ROI_MARGIN_FRAC, Detections, PairTable, gather_pairs
from .targets import BOX_EXTENT, BOX_VELOCITY, BOX_Z, BevTargets
from .voxels import GridSpec

NMS_THRESHOLD = 0.3
NMS_MAX_DETECTIONS = 500
CONFLICT_RULES = ("first_wins", "argmax")  # fuse_panoptic's overlap rules
DEFAULT_CONFLICT = CONFLICT_RULES[0]


def nms_detect(
    maps: BevTargets,
    spec: GridSpec,
    threshold: float = NMS_THRESHOLD,
    max_detections: int = NMS_MAX_DETECTIONS,
) -> Detections:
    """3x3 local maxima of the class heatmaps, ordered by decreasing confidence.

    A cell detects when its value strictly exceeds the threshold and is
    ``>=`` each in-bounds cell of its 3x3 neighborhood in its own channel,
    which is ``hm == max(3x3)`` with out-of-bounds cells at ``-inf``; a NaN
    neighbour vetoes the peak. Only the listed heatmap entries above the
    threshold are tested (every cell when the threshold is negative, since
    an unlisted cell reads 0.0), so the work scales with those entries, not
    with the grid.

    The y-neighbours (0, -1) and (0, +1) are tested first, by key order:
    keys ascend in (class, x, y) order, so a listed y-neighbour is the
    previous or next key, except at y = 0 and y = D' - 1, where that key
    lies in another row or channel and the neighbour is out of bounds. The
    six x-neighbours of the few cells left, along each ridge, are then
    looked up in the sparse map in one call.

    Ties in confidence fall to (class, x, y) order. Detection centers snap
    to cell centers; every other box attribute is read from the box row at
    the peak's own (class, x, y) key, in one lookup: z, the half extent and
    the planar velocity (world-frame m/s, as the grid stores it). Two
    classes peaking in one cell read their own rows, and a peak at a key
    the box grid does not list reads 0.0.
    """
    hm = maps.heatmaps
    _, w, d = hm.shape
    if threshold < 0:
        keys = np.arange(np.prod(hm.shape))
        values = hm.at(keys)
    else:
        keys, values = hm.keys, hm.values
    pos = np.flatnonzero(values > threshold)
    flat, value = keys[pos], values[pos]
    for dy, edge in ((-1, 0), (1, d - 1)):
        near = np.clip(pos + dy, 0, keys.size - 1)  # a clipped one reads its own key
        listed = keys[near] == flat + dy
        keep = (flat % d == edge) | (value >= np.where(listed, values[near], 0.0))
        pos, flat, value = pos[keep], flat[keep], value[keep]
    dx, dy = np.array([[-1, -1, -1, 1, 1, 1], [-1, 0, 1, -1, 0, 1]])
    x, y = (flat // d % w)[:, None] + dx, (flat % d)[:, None] + dy
    inside = (x >= 0) & (x < w) & (y >= 0) & (y < d)
    # An out-of-bounds neighbour reads the cell itself, which never vetoes it.
    near = np.where(inside, flat[:, None] + (dx * d + dy), flat[:, None])
    keep = np.all(value[:, None] >= hm.at(near), axis=1)
    flat, value = flat[keep], value[keep]
    # Flat indices ascend in (class, x, y) order, which breaks confidence ties.
    order = np.lexsort((flat, -value))[:max(max_detections, 0)]
    flat = flat[order]
    cls, x, y = np.unravel_index(flat, hm.shape)
    box = maps.boxes.at(flat)
    center = np.column_stack([*spec.bev_cell_center(x, y), box[:, BOX_Z]])
    return Detections(center, value[order], cls, box[:, BOX_EXTENT], box[:, BOX_VELOCITY])


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
    point_sem: np.ndarray,
    membership: Callable[[PairTable], np.ndarray],
    taxonomy: Taxonomy,
    margin_frac: float = ROI_MARGIN_FRAC,
    margin_floor: float = ROI_MARGIN_FLOOR,
    conflict: str = DEFAULT_CONFLICT,
) -> FusionResult:
    """Fuse semantics, detections and memberships into per-point (class, id).

    ``gather_pairs`` collects each detection's RoI points whose predicted
    class ``point_sem`` is its own, and ``membership(pairs)`` scores the
    whole table in one call, one probability per pair. A pair whose
    membership strictly exceeds 0.5 is a claim. Claimed points take the
    detection class and a fresh id (starting at 1, in detection order; a
    detection that wins no point takes no id). Leftover points fall back to
    their predicted semantics with instance 0.

    ``conflict`` picks the overlap rule: "first_wins" gives a contested point
    to its first (most confident) claimant; "argmax" to the claimant with
    the highest membership, the first one on ties. One sort of the claims by
    (point, rule key) resolves every point at once. Nearest-center
    membership (``nn_scores``) gives each point at most one claimant, so
    under it both rules give the same result.
    """
    if conflict not in CONFLICT_RULES:
        raise ValueError(f"unknown conflict rule {conflict!r}")
    foreign = detections.class_id[~np.isin(detections.class_id, taxonomy.class_ids)]
    if foreign.size:
        raise ValueError(f"detection class {foreign[0]} not in the taxonomy")
    pairs = gather_pairs(points_xyz, point_sem, detections, margin_frac, margin_floor)
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
    sem_out = np.asarray(point_sem, dtype=np.int32).copy()
    inst_out = np.zeros(n, dtype=np.int32)
    claiming = np.bincount(det[first], minlength=len(detections)) > 0
    inst_out[claimed] = np.cumsum(claiming)[point_det[claimed]]
    sem_out[claimed] = detections.class_id[point_det[claimed]]
    return FusionResult(PanopticLabeling(sem_out, inst_out), point_det)
