"""Stand-ins the tests hand to the library: fixed extents, fixed memberships, row stacking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from modalpanoptic.membership import DetectionRow, Detections, PairTable


def stack(rows) -> Detections:
    """One ``Detections`` from ``DetectionRow``s or (center, confidence, class, extent) tuples."""
    rows = list(rows)
    if not rows:
        return Detections(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=np.int64),
                          np.zeros((0, 3)))
    centers, confidences, classes, extents = zip(*rows)
    return Detections(np.array(centers, dtype=np.float64), np.array(confidences),
                      np.array(classes), np.array(extents, dtype=np.float64))


def row(center, conf=0.9, cid=1, extent=(1.0, 1.0, 1.0)) -> DetectionRow:
    return DetectionRow(np.asarray(center, dtype=np.float64), conf, cid,
                        np.asarray(extent, dtype=np.float64))


@dataclass(frozen=True)
class CwmExtents:
    """Class-wise mean extents with a fallback for unseen classes."""

    stats: dict[int, np.ndarray]
    default: np.ndarray = None

    def extents_for(self, class_ids: np.ndarray, centers: np.ndarray) -> np.ndarray:
        out = []
        for cid in np.asarray(class_ids).tolist():
            if cid in self.stats:
                out.append(self.stats[cid])
            elif self.default is not None:
                out.append(self.default)
            else:
                raise KeyError(f"no extent statistics for class {cid}")
        return np.array(out, dtype=np.float64).reshape(-1, 3)


def make_table_membership(table: np.ndarray) -> Callable[[PairTable], np.ndarray]:
    """Membership from a precomputed (detections x points) probability table."""
    table = np.asarray(table, dtype=np.float64)
    return lambda pairs: table[pairs.det, pairs.point]
