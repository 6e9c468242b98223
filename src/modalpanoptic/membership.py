"""Point-to-center instance segmentation.

A detected center claims the points inside its extent-sized RoI either by a
nearest-center heuristic or by a learned pair scorer: each (point, center)
pair is encoded as one feature row and pushed through a small MLP that emits
a membership probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .cloud import PointCloudSweep, SweepSequence, Taxonomy, apply_pose
from .mlp import MlpModel, OptimizerState, build_mlp, forward, train_epochs
from .targets import build_trajectories, widen_unobserved_axes
from .voxels import (BevMap, FeatureProvider, column_points, covers, interpolate_bev_many,
                     stencil_columns)

if TYPE_CHECKING:
    from .tracking import SweepInputs

ROI_MARGIN_FRAC = 0.1
ROI_MARGIN_FLOOR = 0.25


class DetectionRow(NamedTuple):
    """One detection of a ``Detections`` set, as iterating it yields."""

    center: np.ndarray     # (3,) meters
    confidence: float
    class_id: int
    extent: np.ndarray     # (3,) per-axis half extent, meters
    velocity: np.ndarray   # (2,) world frame, m/s


@dataclass(frozen=True, eq=False)
class Detections:
    """One sweep's detected boxes, one row per ``nms_detect`` peak, as arrays.

    Velocities are world-frame m/s, as the velocity map stores them, so
    ``to_world`` moves only the centers. Validated once, on creation: (D, 3)
    centers and half extents, (D, 2) velocities, (D,) confidences and class
    ids, finite extents >= 0, confidences in [0, 1] and non-increasing down the
    rows, which is the order fusion consumes them in. ``len`` counts the
    rows and iteration yields ``DetectionRow``s; that is all
    ``bench/spans.py`` reads of them (``len``, then each row's ``.center``,
    ``.class_id`` and ``.extent``).
    """

    center: np.ndarray      # (D, 3) meters
    confidence: np.ndarray  # (D,)
    class_id: np.ndarray    # (D,) int64
    extent: np.ndarray      # (D, 3) per-axis half extent, meters
    velocity: np.ndarray    # (D, 2) world frame, m/s

    def __post_init__(self):
        for name, dtype in (("center", np.float64), ("confidence", np.float64),
                            ("class_id", np.int64), ("extent", np.float64),
                            ("velocity", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        d = self.confidence.shape[0] if self.confidence.ndim == 1 else -1
        if (self.confidence.shape != (d,) or self.class_id.shape != (d,)
                or self.center.shape != (d, 3) or self.extent.shape != (d, 3)
                or self.velocity.shape != (d, 2)):
            raise ValueError("detections need (D, 3) centers/extents, (D, 2) velocities, "
                             "(D,) confidences/classes")
        if not np.all((self.extent >= 0) & (self.extent < np.inf)):
            raise ValueError("extent components must be finite and >= 0")
        if not np.all((self.confidence >= 0.0) & (self.confidence <= 1.0)):
            raise ValueError("confidence must lie in [0, 1]")
        if np.any(self.confidence[1:] > self.confidence[:-1]):
            raise ValueError("detections must be sorted by decreasing confidence")

    def __len__(self) -> int:
        return self.confidence.size

    def __iter__(self) -> Iterator[DetectionRow]:
        return map(DetectionRow, self.center, self.confidence.tolist(),
                   self.class_id.tolist(), self.extent, self.velocity)

    def to_world(self, pose: np.ndarray) -> Detections:
        """The same detections with centers mapped through a 4x4 rigid pose."""
        return Detections(apply_pose(pose, self.center), self.confidence, self.class_id,
                          self.extent, self.velocity)


def roi_radius(det, margin_frac: float, margin_floor: float) -> np.ndarray:
    """Half size of the inflated RoI, for one ``DetectionRow`` or a whole ``Detections``."""
    return det.extent + np.maximum(margin_frac * det.extent, margin_floor)


def roi_points(
    det: DetectionRow,
    points_xyz: np.ndarray,
    inflate: bool = True,
    margin_frac: float = ROI_MARGIN_FRAC,
    margin_floor: float = ROI_MARGIN_FLOOR,
) -> np.ndarray:
    """Indices of points strictly inside the detection's axis-aligned box.

    The box is the predicted extent around the center, optionally inflated by
    a per-axis margin (zero margins without ``inflate``): one row of ``roi_mask``.
    """
    one = det._replace(center=np.reshape(det.center, (1, 3)),
                       extent=np.reshape(det.extent, (1, 3)))
    margins = (margin_frac, margin_floor) if inflate else (0.0, 0.0)
    return np.flatnonzero(roi_mask(one, points_xyz, *margins)[0])


def roi_mask(detections: Detections, points_xyz: np.ndarray, margin_frac: float,
             margin_floor: float) -> np.ndarray:
    """(D, N) mask: point n lies strictly inside detection d's inflated RoI, axis by axis."""
    pts = np.asarray(points_xyz, dtype=np.float64)
    center, radius = detections.center, roi_radius(detections, margin_frac, margin_floor)
    inside = np.abs(pts[:, 0] - center[:, 0, None]) < radius[:, 0, None]
    for axis in (1, 2):
        inside &= np.abs(pts[:, axis] - center[:, axis, None]) < radius[:, axis, None]
    return inside


@dataclass(frozen=True)
class PairFeatureConfig:
    """Which feature blocks enter the point-center pair encoding.

    A block of width 0 is left out: point features when ``point_feature_dim``
    is 0, BEV features when ``bev_feature_dim`` is 0.
    """

    num_classes: int
    point_feature_dim: int = 0
    bev_feature_dim: int = 0

    @property
    def needs_features(self) -> bool:
        """Whether any block reads a ``FeatureProvider``'s output."""
        return self.point_feature_dim > 0 or self.bev_feature_dim > 0

    @property
    def point_block(self) -> int:
        return 3 + self.num_classes + self.point_feature_dim + self.bev_feature_dim

    @property
    def center_block(self) -> int:
        return 3 + self.num_classes + self.bev_feature_dim

    @property
    def width(self) -> int:
        return self.point_block + self.center_block


def _one_hot(ids: np.ndarray, num_classes: int) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_classes):
        raise ValueError("class id outside one-hot range")
    out = np.zeros((ids.size, num_classes))
    out[np.arange(ids.size), ids] = 1.0
    return out


def assemble_pair_features(
    points_xyz: np.ndarray,
    point_sem: np.ndarray,
    detections: Detections,
    pairs: PairTable,
    cfg: PairFeatureConfig,
    point_features: np.ndarray | None = None,
    bev: BevMap | None = None,
) -> np.ndarray:
    """One row per pair of the table: [p - c; F_point; F_bev(p); sem] + [c; F_bev(c); class].

    ``points_xyz``, ``point_sem`` and ``point_features`` cover the whole
    sweep, and each pair reads its point's rows; the center and class are
    those of ``detections[pairs.det]``. Blocks the configuration leaves out
    are not read.

    The point position enters relative to the detection center: jointly with
    the absolute center in the second block this carries exactly the same
    information as two absolute positions, but the membership rule the scorer
    must learn (is the offset inside a class-typical box?) becomes
    translation-invariant instead of being re-learned per scene location. The
    center block is built once per detection that owns a pair, so a center
    with an empty group is never looked up in the BEV map.
    """
    pts = np.asarray(points_xyz, dtype=np.float64)[:, :3]
    point = pairs.point
    blocks = [pts[point] - detections.center[pairs.det]]
    if cfg.point_feature_dim > 0:
        if point_features is None:
            raise ValueError("configuration expects point features")
        pf = np.asarray(point_features, dtype=np.float64)
        if pf.shape != (pts.shape[0], cfg.point_feature_dim):
            raise ValueError(f"point features must be ({pts.shape[0]}, {cfg.point_feature_dim})")
        blocks.append(pf[point])
    if cfg.bev_feature_dim > 0:
        if bev is None:
            raise ValueError("configuration expects a BEV feature map")
        blocks.append(interpolate_bev_many(bev, pts[point, :2]))
    blocks.append(_one_hot(np.asarray(point_sem)[point], cfg.num_classes))
    sizes = np.diff(pairs.offsets)
    owners = np.flatnonzero(sizes)
    center = detections.center[owners]
    # The center's own position enters as (planar range / 10, height, 0):
    # membership does not depend on bearing, and feeding raw coordinates lets
    # a desk-scale scorer memorize where training instances stood (measured:
    # 0.996 accuracy on training scenes vs 0.945 held out) instead of
    # learning geometry.
    center_parts = [np.column_stack([np.hypot(center[:, 0], center[:, 1]) / 10.0,
                                     center[:, 2], np.zeros(owners.size)])]
    if cfg.bev_feature_dim > 0:
        center_parts.append(interpolate_bev_many(bev, center[:, :2]))
    center_parts.append(_one_hot(detections.class_id[owners], cfg.num_classes))
    # Pairs are grouped by detection, so each owner's row repeats over its group.
    blocks.append(np.repeat(np.concatenate(center_parts, axis=1), sizes[owners], axis=0))
    rows = np.concatenate(blocks, axis=1)
    if rows.shape[1] != cfg.width:
        raise ValueError(f"assembled width {rows.shape[1]} != configured {cfg.width}")
    return rows


def predict_membership(model: MlpModel, pairs: np.ndarray) -> np.ndarray:
    """Sigmoid membership probabilities for a batch of pair rows."""
    pairs = np.atleast_2d(np.asarray(pairs, dtype=np.float64))
    if pairs.shape[1] != model.in_dim:
        raise ValueError(f"pair width {pairs.shape[1]} != model input {model.in_dim}")
    model.set_eval()
    out, _ = forward(model, pairs)
    return out.reshape(-1)


@dataclass(frozen=True)
class PairTable:
    """Every (detection, point) pair of one sweep that membership scores.

    Pairs are grouped by detection in row order, which is decreasing
    confidence, with ascending point indices inside each group; detection
    ``d`` owns ``group(d)``. The margins record the RoI the pairs came from.
    """

    det: np.ndarray       # (P,) detection index per pair
    point: np.ndarray     # (P,) point index per pair
    offsets: np.ndarray   # (D + 1,) group bounds
    margin_frac: float = ROI_MARGIN_FRAC
    margin_floor: float = ROI_MARGIN_FLOOR

    def __len__(self) -> int:
        return self.point.size

    def group(self, d: int) -> slice:
        return slice(int(self.offsets[d]), int(self.offsets[d + 1]))


def gather_pairs(
    points_xyz: np.ndarray,
    point_sem: np.ndarray,
    detections: Detections,
    margin_frac: float = ROI_MARGIN_FRAC,
    margin_floor: float = ROI_MARGIN_FLOOR,
) -> PairTable:
    """Points inside each detection's inflated RoI whose predicted class is its own.

    One (D, N') mask over the points whose class some detection has; its
    nonzero entries in row-major order are already the table's order.
    """
    pts = np.asarray(points_xyz, dtype=np.float64)
    sem = np.asarray(point_sem)
    candidates = np.flatnonzero(np.isin(sem, detections.class_id))
    inside = (roi_mask(detections, pts[candidates], margin_frac, margin_floor)
              & (sem[candidates] == detections.class_id[:, None]))
    det, column = np.nonzero(inside)
    sizes = np.bincount(det, minlength=len(detections))
    return PairTable(det, candidates[column], np.concatenate([[0], np.cumsum(sizes)]),
                     margin_frac, margin_floor)


def nn_baseline(
    points_xyz: np.ndarray,
    point_sem: np.ndarray,
    detections: Detections,
    margin_frac: float = ROI_MARGIN_FRAC,
    margin_floor: float = ROI_MARGIN_FLOOR,
    pairs: PairTable | None = None,
) -> np.ndarray:
    """Nearest semantically-compatible center within RoI, per point.

    Returns the chosen detection index per point, -1 where no detection
    qualifies. Ties break toward the lower index, which is the higher
    confidence: ``Detections`` rows are in decreasing confidence.
    ``pairs`` is the table ``gather_pairs`` builds from the same arguments,
    when the caller already has it. The tie rule rests on the table's
    order: its pairs come grouped by ascending detection, so a stable sort
    by (point, distance) keeps tied pairs in detection order.
    """
    pts = np.asarray(points_xyz, dtype=np.float64)[:, :3]
    if pairs is None:
        pairs = gather_pairs(pts, point_sem, detections, margin_frac, margin_floor)
    best = np.full(pts.shape[0], -1, dtype=np.int64)
    if len(pairs) == 0:
        return best
    dx, dy, dz = (pts[pairs.point] - detections.center[pairs.det]).T
    order = np.lexsort((np.sqrt(dx * dx + dy * dy + dz * dz), pairs.point))
    point, det = pairs.point[order], pairs.det[order]
    first = np.concatenate([[True], point[1:] != point[:-1]])
    best[point[first]] = det[first]
    return best


# Membership scorers share one signature, ``score(inputs, detections, pairs)``:
# the sweep's inputs, its detections and their gathered pairs in, one
# membership probability per pair out, in one call per sweep.

def nn_scores(inputs: SweepInputs, detections: Detections, pairs: PairTable) -> np.ndarray:
    """Hard membership induced by the nearest-center baseline assignment."""
    assignment = nn_baseline(inputs.sweep.xyz, inputs.point_sem, detections,
                             pairs.margin_frac, pairs.margin_floor, pairs=pairs)
    return (assignment[pairs.point] == pairs.det).astype(np.float64)


def features_for_pairs(
    provider: FeatureProvider,
    cfg: PairFeatureConfig,
    sweep: PointCloudSweep,
    detections: Detections,
    pairs: PairTable,
) -> tuple[np.ndarray | None, BevMap | None]:
    """The point features and BEV map ``assemble_pair_features`` reads for ``pairs``.

    One ``provider.point_features`` call computes the rows read: the pair
    points' rows for the point block and, for the BEV block, every in-range
    point of each column the bilinear stencils of the pair points and of the
    detections that own pairs touch (``stencil_columns``). ``bev_map`` pools
    those whole columns. Every value read is the one full-sweep features
    give; the (N, P) point features hold zeros in the rows no pair reads,
    and the map is empty outside the read columns. ``None`` stands for a
    block the configuration leaves out.
    """
    if provider is None:
        raise ValueError("feature configuration requires a provider")
    points = np.unique(pairs.point)
    rows = points if cfg.point_feature_dim > 0 else points[:0]
    if cfg.bev_feature_dim > 0:
        owners = np.flatnonzero(np.diff(pairs.offsets))
        read = stencil_columns(provider.spec, np.concatenate(
            [sweep.xyz[points, :2], detections.center[owners, :2]]))
        pooled = column_points(sweep.points, provider.spec, read)
        rows = np.union1d(rows, pooled)
    feats = provider.point_features(sweep, rows)
    point_features = np.zeros((len(sweep), feats.shape[1]))
    point_features[rows] = feats
    bev = None
    if cfg.bev_feature_dim > 0:
        bev = provider.bev_map(sweep, pooled, point_features[pooled])
    return (point_features if cfg.point_feature_dim > 0 else None), bev


def mlp_scores(
    model: MlpModel,
    pair_cfg: PairFeatureConfig,
    provider: FeatureProvider | None,
    inputs: SweepInputs,
    detections: Detections,
    pairs: PairTable,
) -> np.ndarray:
    """Pair-scorer membership: the whole table assembled and scored in one forward.

    Bind the model, configuration and feature provider first, e.g.
    ``partial(mlp_scores, model, cfg, provider)``; the provider may be
    ``None`` when the configuration reads no features. Features are computed
    per sweep, after the pairs are known, and only where the pairs read them
    (``features_for_pairs``).
    """
    feats = bev = None
    if pair_cfg.needs_features:
        feats, bev = features_for_pairs(provider, pair_cfg, inputs.sweep, detections, pairs)
    return predict_membership(model, assemble_pair_features(
        inputs.sweep.xyz, inputs.point_sem, detections, pairs, pair_cfg, feats, bev))


def oracle_scores(inputs: SweepInputs, detections: Detections, pairs: PairTable) -> np.ndarray:
    """Ground-truth membership: each detection claims exactly its source instance.

    A detection's source is the nearest same-class true modal center within
    1 m in the plane, the lower instance id on ties; unmatched detections
    claim nothing. Candidates are the ``sensor_center``s of the sweep's rows
    of ``inputs.trajectories``, every labeled instance of the sweep. Used to
    exercise the fusion and tracking plumbing under perfect inputs.
    """
    truth = inputs.trajectories
    rows = np.flatnonzero(truth.sweep_index == inputs.sweep_index)
    source = np.full(len(detections), -1, dtype=np.int64)
    if rows.size:
        gap = truth.sensor_center[rows, :2] - detections.center[:, None, :2]
        dist = np.where(truth.class_id[rows] == detections.class_id[:, None],
                        np.linalg.norm(gap, axis=2), np.inf)
        nearest = np.argmin(dist, axis=1)
        close = dist[np.arange(len(detections)), nearest] < 1.0
        source[close] = truth.instance_id[rows[nearest[close]]]
    return (inputs.sweep.inst_labels[pairs.point] == source[pairs.det]).astype(np.float64)


@dataclass(frozen=True)
class MembershipTrainConfig:
    """Stage-2 training setup; the first stage is frozen by construction here."""

    features: PairFeatureConfig
    center_jitter: float = 0.2
    margin_frac: float = ROI_MARGIN_FRAC
    margin_floor: float = ROI_MARGIN_FLOOR
    epochs: int = 20
    learning_rate: float = 5e-4
    optimizer: str = "sgd"
    batch_size: int = 64
    hidden_dims: tuple[int, ...] = (64, 64, 64)
    seed: int = 0


def build_training_pairs(
    sequences: list[SweepSequence],
    taxonomy: Taxonomy,
    cfg: MembershipTrainConfig,
    provider: FeatureProvider | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair rows and binary labels from jittered ground-truth centers.

    Each sweep's thing instances stand in for its detections: one
    ``Detections`` holds their sensor-frame ``sensor_center``s, each jittered, with
    trajectory-level maximum extents whose never-observed axes are widened to
    the class mean (``widen_unobserved_axes``) as a trained extent head would
    predict them. ``gather_pairs`` then applies the RoI margins and class
    filter inference uses, over the sweep's ground-truth semantics; without
    the margin, neighboring-instance points never enter the training set and
    the scorer sees no boundary negatives. A pair is positive when its point
    belongs to the detection's instance. With BEV pair features, a jittered
    center that leaves the BEV footprint is dropped. Features come from one
    ``provider.point_features`` call per sweep, only where the pairs read
    them (``features_for_pairs``).
    """
    pair_cfg = cfg.features
    if pair_cfg.needs_features and provider is None:
        raise ValueError("feature configuration requires a provider")
    rng = np.random.default_rng(cfg.seed)
    tables = [build_trajectories(seq, taxonomy) for seq in sequences]
    extents = widen_unobserved_axes(
        np.concatenate([np.empty(0, dtype=np.int64)] + [t.instance_class for t in tables]),
        np.concatenate([np.empty((0, 3))] + [t.max_extents for t in tables]))
    per_seq_extents = np.split(extents, np.cumsum([t.offsets.size - 1 for t in tables])[:-1])
    rows, labels = [], []
    for seq, table, seq_extents in zip(sequences, tables, per_seq_extents):
        for t, sweep in enumerate(seq.sweeps):
            # Pairs live in the sweep's own sensor frame, exactly like the
            # pairs the scorer will see at inference time.
            at = np.flatnonzero(table.sweep_index == t)
            centers = table.sensor_center[at] + rng.normal(0.0, cfg.center_jitter, (at.size, 3))
            if pair_cfg.bev_feature_dim > 0:
                # Inference proposes centers only on grid cells, so a center
                # jittered off the BEV footprint has no map to read there.
                on_grid = covers(provider.spec.planar_range, centers[:, :2])
                at, centers = at[on_grid], centers[on_grid]
            dets = Detections(centers, np.ones(at.size), table.class_id[at],
                              seq_extents[table.row_instance[at]], table.velocity[at])
            pairs = gather_pairs(sweep.xyz, sweep.sem_labels, dets, cfg.margin_frac,
                                 cfg.margin_floor)
            feats = bev = None
            if pair_cfg.needs_features:
                feats, bev = features_for_pairs(provider, pair_cfg, sweep, dets, pairs)
            if len(pairs):
                rows.append(assemble_pair_features(sweep.xyz, sweep.sem_labels, dets, pairs,
                                                   pair_cfg, feats, bev))
                labels.append(sweep.inst_labels[pairs.point] == table.instance_id[at][pairs.det])
    if not rows:
        raise ValueError("no training pairs were produced")
    return np.concatenate(rows, axis=0), np.concatenate(labels).astype(np.float64)


def train_membership_stage2(
    sequences: list[SweepSequence],
    taxonomy: Taxonomy,
    cfg: MembershipTrainConfig,
    provider: FeatureProvider | None = None,
) -> tuple[MlpModel, list[float]]:
    """Train the pair scorer on ground-truth-derived pairs; returns (model, trace)."""
    pairs, labels = build_training_pairs(sequences, taxonomy, cfg, provider)
    if np.unique(labels).size < 2:
        raise ValueError("training pairs carry a single label value")
    dims = [cfg.features.width, *cfg.hidden_dims, 1]
    model = build_mlp(dims, batchnorm=True, seed=cfg.seed)
    state = OptimizerState(cfg.optimizer, cfg.learning_rate)
    model, trace = train_epochs(model, pairs, labels, state, cfg.epochs,
                                seed=cfg.seed + 1, batch_size=cfg.batch_size)
    return model, trace
