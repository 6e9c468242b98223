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

from .cloud import NO_INSTANCE, SweepSequence, Taxonomy
from .mlp import MlpModel, OptimizerState, build_mlp, forward, train_epochs
from .targets import build_trajectories, membership_target, modal_center, observed_component_means
from .voxels import BevMap, FeatureProvider, interpolate_bev_many

if TYPE_CHECKING:
    from .tracking import SweepInputs

ROI_MARGIN_FRAC = 0.1
ROI_MARGIN_FLOOR = 0.1

# Extent components below this are treated as unobserved axes.
DEGENERATE_EXTENT = 0.05


class DetectionRow(NamedTuple):
    """One detection of a ``Detections`` set, as iterating it yields."""

    center: np.ndarray     # (3,) meters
    confidence: float
    class_id: int
    extent: np.ndarray     # (3,) per-axis half extent, meters


@dataclass(frozen=True, eq=False)
class Detections:
    """One sweep's detected modal centers, one row per detection, as arrays.

    Validated once, on creation: (D, 3) centers and half extents, (D,)
    confidences and class ids, extents >= 0, confidences in [0, 1] and
    non-increasing down the rows, which is the order fusion consumes them in.
    ``len`` counts the rows and iteration yields ``DetectionRow``s; that is
    all ``bench/spans.py`` reads of them (``len``, then each row's
    ``.center``, ``.class_id`` and ``.extent``).
    """

    center: np.ndarray      # (D, 3) meters
    confidence: np.ndarray  # (D,)
    class_id: np.ndarray    # (D,) int64
    extent: np.ndarray      # (D, 3) per-axis half extent, meters

    def __post_init__(self):
        for name, dtype in (("center", np.float64), ("confidence", np.float64),
                            ("class_id", np.int64), ("extent", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        d = self.confidence.shape[0] if self.confidence.ndim == 1 else -1
        if (self.confidence.shape != (d,) or self.class_id.shape != (d,)
                or self.center.shape != (d, 3) or self.extent.shape != (d, 3)):
            raise ValueError("detections need (D, 3) centers/extents, (D,) confidences/classes")
        if np.any(self.extent < 0):
            raise ValueError("extent components must be >= 0")
        if not np.all((self.confidence >= 0.0) & (self.confidence <= 1.0)):
            raise ValueError("confidence must lie in [0, 1]")
        if np.any(self.confidence[1:] > self.confidence[:-1]):
            raise ValueError("detections must be sorted by decreasing confidence")

    def __len__(self) -> int:
        return self.confidence.size

    def __iter__(self) -> Iterator[DetectionRow]:
        return map(DetectionRow, self.center, self.confidence.tolist(),
                   self.class_id.tolist(), self.extent)

    def to_world(self, pose: np.ndarray) -> Detections:
        """The same detections with centers mapped through a 4x4 rigid pose."""
        # The stacked product keeps every row bit-equal to ``R @ center + t``.
        center = (pose[:3, :3] @ self.center[:, :, None])[:, :, 0] + pose[:3, 3]
        return Detections(center, self.confidence, self.class_id, self.extent)


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
    a per-axis margin; training targets use the uninflated box.
    """
    pts = np.asarray(points_xyz, dtype=np.float64)
    radius = roi_radius(det, margin_frac, margin_floor) if inflate else det.extent
    inside = np.all(np.abs(pts[:, :3] - det.center) < radius, axis=1)
    return np.flatnonzero(inside)


def roi_mask(detections: Detections, points_xyz: np.ndarray, margin_frac: float,
             margin_floor: float) -> np.ndarray:
    """(D, N) mask: point n lies strictly inside detection d's inflated RoI."""
    pts = np.asarray(points_xyz, dtype=np.float64)[:, :3]
    radius = roi_radius(detections, margin_frac, margin_floor)
    return np.all(np.abs(pts - detections.center[:, None, :]) < radius[:, None, :], axis=2)


@dataclass(frozen=True)
class PairFeatureConfig:
    """Which feature blocks enter the point-center pair encoding."""

    num_classes: int
    point_feature_dim: int = 0
    bev_feature_dim: int = 0
    include_point_features: bool = True
    include_bev: bool = True

    @property
    def point_block(self) -> int:
        width = 3 + self.num_classes
        if self.include_point_features:
            width += self.point_feature_dim
        if self.include_bev:
            width += self.bev_feature_dim
        return width

    @property
    def center_block(self) -> int:
        width = 3 + self.num_classes
        if self.include_bev:
            width += self.bev_feature_dim
        return width

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
    center: np.ndarray,
    class_id: int,
    cfg: PairFeatureConfig,
    point_features: np.ndarray | None = None,
    bev: BevMap | None = None,
) -> np.ndarray:
    """Concatenated per-pair rows: [p - c; F_point; F_bev(p); sem] + [c; F_bev(c); class].

    The point position enters relative to the detection center: jointly with
    the absolute center in the second block this carries exactly the same
    information as two absolute positions, but the membership rule the scorer
    must learn (is the offset inside a class-typical box?) becomes
    translation-invariant instead of being re-learned per scene location. All
    rows share the center block, so the output width is constant for a given
    configuration.
    """
    pts = np.atleast_2d(np.asarray(points_xyz, dtype=np.float64))[:, :3]
    n = pts.shape[0]
    blocks = [pts - center]
    # The center's own position enters as (planar range / 10, height, 0):
    # membership does not depend on bearing, and feeding raw coordinates lets
    # a desk-scale scorer memorize where training instances stood (measured:
    # 0.996 accuracy on training scenes vs 0.945 held out) instead of
    # learning geometry.
    center_pos = np.array([np.hypot(center[0], center[1]) / 10.0, center[2], 0.0])
    if cfg.include_point_features:
        if point_features is None:
            raise ValueError("configuration expects point features")
        pf = np.atleast_2d(np.asarray(point_features, dtype=np.float64))
        if pf.shape != (n, cfg.point_feature_dim):
            raise ValueError(f"point features must be ({n}, {cfg.point_feature_dim})")
        blocks.append(pf)
    if cfg.include_bev:
        if bev is None:
            raise ValueError("configuration expects a BEV feature map")
        blocks.append(interpolate_bev_many(bev, pts[:, :2]))
    blocks.append(_one_hot(point_sem, cfg.num_classes))
    center_parts = [center_pos]
    if cfg.include_bev:
        center_parts.append(interpolate_bev_many(bev, center[None, :2])[0])
    center_parts.append(_one_hot(np.array([class_id]), cfg.num_classes)[0])
    center_row = np.concatenate(center_parts)
    rows = np.concatenate(blocks + [np.tile(center_row, (n, 1))], axis=1)
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
    when the caller already has it.
    """
    pts = np.asarray(points_xyz, dtype=np.float64)[:, :3]
    if pairs is None:
        pairs = gather_pairs(pts, point_sem, detections, margin_frac, margin_floor)
    best = np.full(pts.shape[0], -1, dtype=np.int64)
    if len(pairs) == 0:
        return best
    dist = np.linalg.norm(pts[pairs.point] - detections.center[pairs.det], axis=1)
    order = np.lexsort((pairs.det, dist, pairs.point))
    point, det = pairs.point[order], pairs.det[order]
    first = np.concatenate([[True], point[1:] != point[:-1]])
    best[point[first]] = det[first]
    return best


# Membership scorers share one signature, ``score(inputs, detections, pairs)``:
# the sweep's inputs, its detections and their gathered pairs in, one
# membership probability per pair out, in one call per sweep.

def nn_scores(inputs: SweepInputs, detections: Detections, pairs: PairTable) -> np.ndarray:
    """Hard membership induced by the nearest-center baseline assignment."""
    assignment = nn_baseline(inputs.sweep.xyz, inputs.maps.point_sem, detections,
                             pairs.margin_frac, pairs.margin_floor, pairs=pairs)
    return (assignment[pairs.point] == pairs.det).astype(np.float64)


def mlp_scores(
    model: MlpModel,
    pair_cfg: PairFeatureConfig,
    inputs: SweepInputs,
    detections: Detections,
    pairs: PairTable,
) -> np.ndarray:
    """Pair-scorer membership: rows assembled per detection, one forward per sweep.

    Bind the model and configuration first, e.g. ``partial(mlp_scores, model, cfg)``.
    """
    pts, maps = inputs.sweep.xyz, inputs.maps
    bev = maps.bev_features if pair_cfg.include_bev else None
    rows = []
    for d in range(len(detections)):
        idx = pairs.point[pairs.group(d)]
        if idx.size == 0:
            continue
        feats = maps.point_features[idx] if pair_cfg.include_point_features else None
        rows.append(assemble_pair_features(pts[idx], maps.point_sem[idx], detections.center[d],
                                           detections.class_id[d], pair_cfg,
                                           point_features=feats, bev=bev))
    return predict_membership(model, np.concatenate(rows)) if rows else np.zeros(0)


def oracle_scores(
    inputs: SweepInputs,
    detections: Detections,
    pairs: PairTable,
    match_radius: float = 1.0,
) -> np.ndarray:
    """Ground-truth membership: each detection claims exactly its source instance.

    A detection's source is the nearest same-class true modal center within
    ``match_radius`` in the plane, the lower instance id on ties; unmatched
    detections claim nothing. Used to exercise the fusion and tracking
    plumbing under perfect inputs.
    """
    sweep = inputs.sweep
    ids = sweep.inst_labels
    iids = np.unique(ids[ids > NO_INSTANCE])
    members = [np.flatnonzero(ids == iid) for iid in iids]
    centers = np.array([modal_center(sweep.xyz[m])[:2] for m in members]).reshape(-1, 2)
    classes = np.array([sweep.sem_labels[m[0]] for m in members], dtype=np.int64)
    source = np.full(len(detections), -1, dtype=np.int64)
    if iids.size:
        dist = np.where(classes == detections.class_id[:, None],
                        np.linalg.norm(centers - detections.center[:, None, :2], axis=2), np.inf)
        nearest = np.argmin(dist, axis=1)
        close = dist[np.arange(len(detections)), nearest] < match_radius
        source[close] = iids[nearest[close]]
    return (ids[pairs.point] == source[pairs.det]).astype(np.float64)


@dataclass(frozen=True)
class MembershipTrainConfig:
    """Stage-2 training setup; the first stage is frozen by construction here."""

    num_classes: int
    point_feature_dim: int = 0
    bev_feature_dim: int = 0
    include_point_features: bool = True
    include_bev: bool = True
    center_jitter: float = 0.2
    margin_frac: float = ROI_MARGIN_FRAC
    margin_floor: float = ROI_MARGIN_FLOOR
    epochs: int = 20
    learning_rate: float = 5e-4
    optimizer: str = "sgd"
    batch_size: int = 64
    hidden_dims: tuple[int, ...] = (64, 64, 64)
    seed: int = 0

    def pair_config(self) -> PairFeatureConfig:
        return PairFeatureConfig(
            self.num_classes,
            self.point_feature_dim,
            self.bev_feature_dim,
            self.include_point_features,
            self.include_bev,
        )


def build_training_pairs(
    sequences: list[SweepSequence],
    taxonomy: Taxonomy,
    cfg: MembershipTrainConfig,
    provider: FeatureProvider | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair rows and binary labels from ground-truth centers with jitter.

    Each labeled instance stands in for a detection: its per-sweep modal
    center is jittered, its RoI box comes from the trajectory-level maximum
    extent with never-observed axes widened to the class mean (shrink-wrapped
    boxes collapse to zero thickness along axes no viewpoint ever spanned,
    where a trained extent head would still predict class-typical values),
    and class-mismatched points are filtered before feature assembly. Pairs
    are gathered with the same RoI margins inference uses; without the
    margin, neighboring-instance points never enter the training set and the
    scorer sees no boundary negatives.
    """
    pair_cfg = cfg.pair_config()
    rng = np.random.default_rng(cfg.seed)
    rows, labels = [], []
    per_seq_trajs = [build_trajectories(seq, taxonomy) for seq in sequences]
    all_exts, all_cls = {}, {}
    for s, trajs in enumerate(per_seq_trajs):
        for iid, traj in trajs.items():
            all_exts[(s, iid)] = traj.max_extent
            all_cls[(s, iid)] = traj.class_id
    class_mean = observed_component_means(all_cls, all_exts, floor=DEGENERATE_EXTENT)
    for seq, trajs in zip(sequences, per_seq_trajs):
        max_extents = {
            iid: np.maximum(traj.max_extent,
                            np.where(traj.max_extent < DEGENERATE_EXTENT,
                                     class_mean.get(traj.class_id, traj.max_extent), 0.0))
            for iid, traj in trajs.items()
        }
        for sweep in seq.sweeps:
            # Pairs live in the sweep's own sensor frame, exactly like the
            # pairs the scorer will see at inference time.
            feats = bev = None
            if pair_cfg.include_point_features or pair_cfg.include_bev:
                if provider is None:
                    raise ValueError("feature configuration requires a provider")
                feats = provider.point_features(sweep)
                if pair_cfg.include_bev:
                    bev = provider.bev_map(sweep, feats)
            xyz = sweep.xyz
            inst = sweep.inst_labels
            sem = sweep.sem_labels
            for iid in np.unique(inst[inst > NO_INSTANCE]):
                members = np.flatnonzero(inst == iid)
                cid = int(sem[members[0]])
                if not taxonomy.is_thing(cid):
                    continue
                center = modal_center(xyz[members])
                extent = max_extents[int(iid)]
                det = DetectionRow(center + rng.normal(0.0, cfg.center_jitter, 3), 1.0, cid,
                                   extent)
                roi = roi_points(det, xyz, inflate=True,
                                 margin_frac=cfg.margin_frac, margin_floor=cfg.margin_floor)
                roi = roi[sem[roi] == cid]
                if roi.size == 0:
                    continue
                rows.append(assemble_pair_features(
                    xyz[roi], sem[roi], det.center, cid, pair_cfg,
                    point_features=feats[roi] if pair_cfg.include_point_features else None,
                    bev=bev,
                ))
                labels.append(membership_target(members, roi))
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
    dims = [cfg.pair_config().width, *cfg.hidden_dims, 1]
    model = build_mlp(dims, batchnorm=True, seed=cfg.seed)
    state = OptimizerState(cfg.optimizer, cfg.learning_rate)
    model, trace = train_epochs(model, pairs, labels, state, cfg.epochs,
                                seed=cfg.seed + 1, batch_size=cfg.batch_size)
    return model, trace
