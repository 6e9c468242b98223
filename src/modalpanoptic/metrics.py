"""Evaluation: panoptic quality family, mIoU, LSTQ and membership accuracy."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .cloud import NO_INSTANCE, PanopticLabeling, Taxonomy
from .membership import ROI_MARGIN_FLOOR, ROI_MARGIN_FRAC, Detections, roi_mask

IOU_MATCH_THRESHOLD = 0.5
_OFFSET = 2 ** 32


@dataclass
class ClassPq:
    iou_sum: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def sq(self) -> float:
        return self.iou_sum / self.tp if self.tp else 0.0

    @property
    def rq(self) -> float:
        denom = self.tp + 0.5 * self.fp + 0.5 * self.fn
        return self.tp / denom if denom else 0.0

    @property
    def pq(self) -> float:
        return self.sq * self.rq

    @property
    def populated(self) -> bool:
        return bool(self.tp or self.fp or self.fn)


@dataclass(frozen=True)
class PqReport:
    per_class: dict[int, ClassPq]
    per_class_iou: dict[int, float]
    taxonomy: Taxonomy

    def _classes(self) -> list[int]:
        return [cid for cid, st in sorted(self.per_class.items())
                if st.populated or cid in self.per_class_iou]

    def _mean(self, values: list[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    @property
    def pq(self) -> float:
        return self._mean([self.per_class[c].pq for c in self._classes()])

    @property
    def sq(self) -> float:
        return self._mean([self.per_class[c].sq for c in self._classes()])

    @property
    def rq(self) -> float:
        return self._mean([self.per_class[c].rq for c in self._classes()])

    @property
    def pq_dagger(self) -> float:
        """PQ with stuff classes scored by plain IoU instead of segments."""
        values = []
        for c in self._classes():
            if c in self.taxonomy.stuff_ids:
                values.append(self.per_class_iou.get(c, 0.0))
            else:
                values.append(self.per_class[c].pq)
        return self._mean(values)

    def _subset(self, ids) -> list[int]:
        return [c for c in self._classes() if c in ids]

    @property
    def pq_things(self) -> float:
        return self._mean([self.per_class[c].pq for c in self._subset(self.taxonomy.thing_ids)])

    @property
    def pq_stuff(self) -> float:
        return self._mean([self.per_class[c].pq for c in self._subset(self.taxonomy.stuff_ids)])

    @property
    def miou(self) -> float:
        return self._mean(list(self.per_class_iou.values()))


class PqAccumulator:
    """Streaming PQ/IoU bookkeeping over any number of sweeps."""

    def __init__(self, taxonomy: Taxonomy):
        self.taxonomy = taxonomy
        self.stats: dict[int, ClassPq] = {}
        k = taxonomy.num_channels
        self.confusion = np.zeros((k, k), dtype=np.int64)

    def _effective_ignore(self, gt: PanopticLabeling) -> np.ndarray:
        """Ignore-class points plus points of undersized GT instances."""
        tax = self.taxonomy
        ignore = np.isin(gt.sem, list(tax.ignore_ids))
        thing = np.isin(gt.sem, list(tax.thing_ids))
        keyed = gt.inst.astype(np.int64) * tax.num_channels + gt.sem
        inst_pts = keyed[thing & (gt.inst > NO_INSTANCE)]
        if inst_pts.size:
            uniq, counts = np.unique(inst_pts, return_counts=True)
            small = set(uniq[counts < tax.min_instance_points].tolist())
            if small:
                ignore = ignore | np.isin(keyed, list(small)) & thing & (gt.inst > NO_INSTANCE)
        return ignore

    def add(self, gt: PanopticLabeling, pred: PanopticLabeling) -> None:
        if len(gt) != len(pred):
            raise ValueError("gt and pred must label the same points")
        tax = self.taxonomy
        _check_class_ids(tax, gt.sem, pred.sem)
        ignore = self._effective_ignore(gt)
        keep = ~ignore
        gsem, psem = gt.sem[keep], pred.sem[keep]
        valid_conf = ~np.isin(psem, list(tax.ignore_ids))
        self.confusion += _confusion(gsem[valid_conf], psem[valid_conf], tax.num_channels)
        for cid in sorted(set(tax.thing_ids) | set(tax.stuff_ids)):
            st = self.stats.setdefault(cid, ClassPq())
            # Segment ids of class cid over all points: instance ids, or 1 for stuff.
            if cid in tax.thing_ids:
                g_all = np.where((gt.sem == cid) & (gt.inst > NO_INSTANCE), gt.inst, 0)
                p_all = np.where((pred.sem == cid) & (pred.inst > NO_INSTANCE), pred.inst, 0)
            else:
                g_all, p_all = gt.sem == cid, pred.sem == cid
            p_all = p_all.astype(np.int64)
            g_ids, p_ids = g_all[keep].astype(np.int64), p_all[keep]
            g_uniq, g_counts = np.unique(g_ids[g_ids > 0], return_counts=True)
            p_uniq, p_counts = np.unique(p_ids[p_ids > 0], return_counts=True)
            g_size = dict(zip(g_uniq.tolist(), g_counts.tolist()))
            p_size = dict(zip(p_uniq.tolist(), p_counts.tolist()))
            both = (g_ids > 0) & (p_ids > 0)
            combo = g_ids[both] * _OFFSET + p_ids[both]
            c_uniq, c_counts = np.unique(combo, return_counts=True)
            matched_g, matched_p = set(), set()
            for key, inter in zip(c_uniq.tolist(), c_counts.tolist()):
                g, p = key // _OFFSET, key % _OFFSET
                union = g_size[g] + p_size[p] - inter
                iou = inter / union
                if iou > IOU_MATCH_THRESHOLD:
                    st.tp += 1
                    st.iou_sum += iou
                    matched_g.add(g)
                    matched_p.add(p)
            st.fn += len(g_size) - len(matched_g)
            # Unmatched predictions mostly covering ignored points are not FPs.
            void_ids, void_counts = np.unique(p_all[ignore & (p_all > 0)], return_counts=True)
            void = dict(zip(void_ids.tolist(), void_counts.tolist()))
            for p, kept in p_size.items():
                if p not in matched_p and void.get(p, 0) / (kept + void.get(p, 0)) <= 0.5:
                    st.fp += 1

    def report(self) -> PqReport:
        per_class_iou, _ = _class_iou(self.confusion, self.taxonomy)
        return PqReport(dict(self.stats), per_class_iou, self.taxonomy)


def _check_class_ids(taxonomy: Taxonomy, gt_sem: np.ndarray, pred_sem: np.ndarray) -> None:
    k = taxonomy.num_channels
    for what, sem in (("ground-truth", gt_sem), ("predicted", pred_sem)):
        bad = sem[(sem < 0) | (sem >= k)]
        if bad.size:
            raise ValueError(f"{what} class id {int(bad[0])} is outside the taxonomy's "
                             f"ids 0..{k - 1}")


def _confusion(gt_sem: np.ndarray, pred_sem: np.ndarray, k: int) -> np.ndarray:
    """(k, k) point counts indexed [gt class, predicted class]."""
    codes = gt_sem.astype(np.int64) * k + pred_sem
    return np.bincount(codes, minlength=k * k).reshape(k, k)


def _class_iou(conf: np.ndarray, taxonomy: Taxonomy) -> tuple[dict[int, float], float]:
    """Point IoU per thing or stuff class in a row or column of ``conf``, and their mean."""
    out = {}
    for cid in sorted(set(taxonomy.thing_ids) | set(taxonomy.stuff_ids)):
        tp = int(conf[cid, cid])
        fp = int(conf[:, cid].sum()) - tp
        fn = int(conf[cid, :].sum()) - tp
        if tp + fp + fn == 0:
            continue
        out[cid] = tp / (tp + fp + fn)
    return out, float(np.mean(list(out.values()))) if out else 0.0


def compute_pq(gt: PanopticLabeling, pred: PanopticLabeling, taxonomy: Taxonomy) -> PqReport:
    acc = PqAccumulator(taxonomy)
    acc.add(gt, pred)
    return acc.report()


def compute_miou(gt_sem: np.ndarray, pred_sem: np.ndarray, taxonomy: Taxonomy
                 ) -> tuple[dict[int, float], float]:
    """Per-class point IoU and its mean over classes present in gt or pred.

    Ground-truth ignore points are skipped; a prediction in an ignore class
    is a miss of the true class.
    """
    gt_sem = np.asarray(gt_sem)
    pred_sem = np.asarray(pred_sem)
    if gt_sem.shape != pred_sem.shape:
        raise ValueError("label arrays must have equal length")
    _check_class_ids(taxonomy, gt_sem, pred_sem)
    keep = ~np.isin(gt_sem, list(taxonomy.ignore_ids))
    return _class_iou(_confusion(gt_sem[keep], pred_sem[keep], taxonomy.num_channels), taxonomy)


@dataclass(frozen=True)
class LstqReport:
    s_assoc: float
    s_cls: float

    @property
    def lstq(self) -> float:
        return float(np.sqrt(self.s_assoc * self.s_cls))


class LstqAccumulator:
    """Tube association and semantic quality pooled over whole sequences.

    Instances pool into spatio-temporal point tubes within each sequence. For
    every ground-truth thing tube t, the class-agnostic predicted tubes s
    overlapping it score sum(|s n t| * IoU(s, t)) / |t|; the association term
    averages this over all ground-truth tubes of all sequences. The semantic
    term is the pooled point mIoU (``compute_miou``), kept as a running
    confusion matrix.
    """

    def __init__(self, taxonomy: Taxonomy):
        self.taxonomy = taxonomy
        self.outer_sum = 0.0
        self.num_tubes = 0
        k = taxonomy.num_channels
        self.confusion = np.zeros((k, k), dtype=np.int64)

    def add_sequence(self, gt_labelings: list[PanopticLabeling],
                     pred_labelings: list[PanopticLabeling]) -> None:
        if len(gt_labelings) != len(pred_labelings):
            raise ValueError("sequences must have the same sweep count")
        thing = list(self.taxonomy.thing_ids)
        ignore = list(self.taxonomy.ignore_ids)
        gt_sizes: dict[int, int] = {}
        pred_sizes: dict[int, int] = {}
        inter: dict[tuple[int, int], int] = {}
        for gt, pred in zip(gt_labelings, pred_labelings):
            if len(gt) != len(pred):
                raise ValueError("gt and pred must label the same points")
            _check_class_ids(self.taxonomy, gt.sem, pred.sem)
            keep = ~np.isin(gt.sem, ignore)
            g_tube = np.where(keep & np.isin(gt.sem, thing) & (gt.inst > NO_INSTANCE), gt.inst, 0)
            p_tube = np.where(keep & (pred.inst > NO_INSTANCE), pred.inst, 0)
            for iid, count in zip(*np.unique(g_tube[g_tube > 0], return_counts=True)):
                gt_sizes[int(iid)] = gt_sizes.get(int(iid), 0) + int(count)
            for iid, count in zip(*np.unique(p_tube[p_tube > 0], return_counts=True)):
                pred_sizes[int(iid)] = pred_sizes.get(int(iid), 0) + int(count)
            both = (g_tube > 0) & (p_tube > 0)
            combos = g_tube[both].astype(np.int64) * _OFFSET + p_tube[both]
            for key, count in zip(*np.unique(combos, return_counts=True)):
                pair = (int(key // _OFFSET), int(key % _OFFSET))
                inter[pair] = inter.get(pair, 0) + int(count)
            self.confusion += _confusion(gt.sem[keep], pred.sem[keep],
                                         self.taxonomy.num_channels)
        for (g, p), ov in inter.items():
            union = gt_sizes[g] + pred_sizes[p] - ov
            self.outer_sum += (ov * (ov / union)) / gt_sizes[g]
        self.num_tubes += len(gt_sizes)

    def report(self) -> LstqReport:
        _, s_cls = _class_iou(self.confusion, self.taxonomy)
        s_assoc = self.outer_sum / self.num_tubes if self.num_tubes else 1.0
        return LstqReport(s_assoc, s_cls)


def compute_lstq(
    gt_labelings: list[PanopticLabeling],
    pred_labelings: list[PanopticLabeling],
    taxonomy: Taxonomy,
) -> LstqReport:
    """Sequence-level quality for a single sequence; see LstqAccumulator."""
    acc = LstqAccumulator(taxonomy)
    acc.add_sequence(gt_labelings, pred_labelings)
    return acc.report()


def match_instances_to_detections(
    instance_centers: dict[int, np.ndarray],
    instance_classes: dict[int, int],
    detections: Detections,
) -> dict[int, int]:
    """Greedy one-to-one nearest-center matching within each class.

    Returns {instance id -> detection index} for the matched pairs.
    """
    pairs = []
    for iid, center in instance_centers.items():
        for d, det in enumerate(detections):
            if det.class_id != instance_classes.get(iid):
                continue
            dist = float(np.linalg.norm(np.asarray(center)[:3] - det.center))
            pairs.append((dist, iid, d))
    pairs.sort()
    matched: dict[int, int] = {}
    used_dets: set[int] = set()
    for _dist, iid, d in pairs:
        if iid in matched or d in used_dets:
            continue
        matched[iid] = d
        used_dets.add(d)
    return matched


def membership_accuracy(
    points_xyz: np.ndarray,
    gt_inst: np.ndarray,
    instance_centers: dict[int, np.ndarray],
    instance_classes: dict[int, int],
    detections: Detections,
    assignments: np.ndarray,
    margin_frac: float = ROI_MARGIN_FRAC,
    margin_floor: float = ROI_MARGIN_FLOOR,
) -> tuple[float, int]:
    """Fraction of in-RoI instance points assigned to their matched detection.

    A point counts as correct only when its ground-truth instance is matched
    to some detection and the point was assigned exactly to it; unassigned
    instance points inside an RoI count as wrong. Returns (accuracy,
    evaluated point count).
    """
    pts = np.asarray(points_xyz, dtype=np.float64)
    gt = np.asarray(gt_inst)
    in_roi = roi_mask(detections, pts, margin_frac, margin_floor).any(axis=0)
    evaluated = np.flatnonzero(in_roi & (gt > NO_INSTANCE))
    if evaluated.size == 0:
        return 0.0, 0
    matched = match_instances_to_detections(instance_centers, instance_classes, detections)
    ids, inverse = np.unique(gt[evaluated], return_inverse=True)
    # -2 never equals a real detection index or -1 (unassigned).
    want = np.array([matched.get(iid, -2) for iid in ids.tolist()], dtype=np.int64)[inverse]
    correct = int(np.count_nonzero(np.asarray(assignments)[evaluated] == want))
    return correct / evaluated.size, int(evaluated.size)


def pq_report_csv(report: PqReport) -> str:
    """CSV rows per class plus aggregate rows, fixed column order."""
    buf = io.StringIO()
    buf.write("class,pq,sq,rq,iou,tp,fp,fn\n")
    for cid in sorted(report.per_class):
        st = report.per_class[cid]
        if not st.populated and cid not in report.per_class_iou:
            continue
        iou = report.per_class_iou.get(cid, 0.0)
        name = report.taxonomy.name_of(cid)
        buf.write(f"{name},{st.pq:.17g},{st.sq:.17g},{st.rq:.17g},{iou:.17g},"
                  f"{st.tp},{st.fp},{st.fn}\n")
    buf.write(f"all,{report.pq:.17g},{report.sq:.17g},{report.rq:.17g},"
              f"{report.miou:.17g},,,\n")
    buf.write(f"all_dagger,{report.pq_dagger:.17g},,,,,,\n")
    buf.write(f"things,{report.pq_things:.17g},,,,,,\n")
    buf.write(f"stuff,{report.pq_stuff:.17g},,,,,,\n")
    return buf.getvalue()


def lstq_report_csv(report: LstqReport) -> str:
    return ("metric,value\n"
            f"s_assoc,{report.s_assoc:.17g}\n"
            f"s_cls,{report.s_cls:.17g}\n"
            f"lstq,{report.lstq:.17g}\n")
