import numpy as np
import pytest

from modalpanoptic.cloud import ClassDef, PanopticLabeling, Taxonomy
from modalpanoptic.membership import roi_points
from modalpanoptic.metrics import (
    LstqAccumulator,
    PqAccumulator,
    compute_lstq,
    compute_miou,
    compute_pq,
    lstq_report_csv,
    match_instances_to_detections,
    membership_accuracy,
    pq_report_csv,
)

from fakes import stack
from oracles import pq_counts, tube_s_assoc

TAX = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "ped", "thing"),
                ClassDef(3, "road", "stuff"), ClassDef(4, "grass", "stuff")), 3)


def lab(sem, inst):
    return PanopticLabeling(np.asarray(sem, dtype=np.int32), np.asarray(inst, dtype=np.int32))


def random_scene(rng, n_points=400, n_inst=5):
    """Random labeling pair with splits, merges and void points."""
    gt_sem = rng.choice([0, 1, 2, 3, 4], size=n_points, p=[0.05, 0.3, 0.15, 0.3, 0.2])
    gt_inst = np.zeros(n_points, dtype=np.int64)
    thing = np.isin(gt_sem, [1, 2])
    if thing.any():
        gt_inst[thing] = rng.integers(1, n_inst + 1, size=int(thing.sum()))
        # Keep each instance id single-class.
        for iid in np.unique(gt_inst[gt_inst > 0]):
            classes = gt_sem[(gt_inst == iid)]
            gt_sem[gt_inst == iid] = classes[0]
    pred_sem = gt_sem.copy()
    flip = rng.uniform(size=n_points) < 0.15
    pred_sem[flip] = rng.choice([1, 2, 3, 4], size=int(flip.sum()))
    pred_inst = np.zeros(n_points, dtype=np.int64)
    pthing = np.isin(pred_sem, [1, 2])
    pred_inst[pthing] = rng.integers(0, n_inst + 3, size=int(pthing.sum()))
    # Mimic real predictions: correlate with gt ids, with splits/merges.
    agree = pthing & thing & (rng.uniform(size=n_points) < 0.75)
    pred_inst[agree] = gt_inst[agree] + 10
    for iid in np.unique(pred_inst[pred_inst > 0]):
        sel = pred_inst == iid
        pred_sem[sel] = pred_sem[sel][0]
    return lab(gt_sem, gt_inst), lab(pred_sem, pred_inst)


def assert_matches_oracle(gt, pred, taxonomy=TAX):
    report = compute_pq(gt, pred, taxonomy)
    want = pq_counts(gt.sem, gt.inst, pred.sem, pred.inst,
                     set(taxonomy.thing_ids), set(taxonomy.stuff_ids),
                     set(taxonomy.ignore_ids), taxonomy.min_instance_points)
    for cid, (iou_sum, tp, fp, fn) in want.items():
        st = report.per_class[cid]
        assert (st.tp, st.fp, st.fn) == (tp, fp, fn), f"class {cid} counts"
        assert abs(st.iou_sum - iou_sum) < 1e-12, f"class {cid} iou_sum"


class TestComputePq:
    def test_perfect_prediction(self):
        gt = lab([1, 1, 1, 3, 3, 2, 2, 2], [4, 4, 4, 0, 0, 7, 7, 7])
        report = compute_pq(gt, gt, TAX)
        for cid in (1, 2, 3):
            st = report.per_class[cid]
            assert st.pq == st.sq == st.rq == 1.0
        assert report.pq == 1.0

    def test_empty_predictions(self):
        gt = lab([1, 1, 1, 3, 3], [5, 5, 5, 0, 0])
        pred = lab([0, 0, 0, 0, 0], [0, 0, 0, 0, 0])
        report = compute_pq(gt, pred, TAX)
        assert report.per_class[1].fn == 1
        assert report.per_class[1].pq == 0.0
        assert report.per_class[3].pq == 0.0

    def test_split_instance_matches_oracle(self):
        # One 12-point car predicted as two 6-point halves: IoU 0.5 each, no match.
        gt_sem = np.full(20, 1); gt_sem[12:] = 3
        gt_inst = np.zeros(20, dtype=int); gt_inst[:12] = 4
        pred_sem = gt_sem.copy()
        pred_inst = np.zeros(20, dtype=int)
        pred_inst[:6] = 21; pred_inst[6:12] = 22
        gt, pred = lab(gt_sem, gt_inst), lab(pred_sem, pred_inst)
        assert_matches_oracle(gt, pred)
        report = compute_pq(gt, pred, TAX)
        assert report.per_class[1].tp == 0
        assert report.per_class[1].fn == 1
        assert report.per_class[1].fp == 2

    def test_min_points_filter(self):
        # 2-point instance below the threshold becomes ignore on both sides.
        gt = lab([1, 1, 3, 3, 3, 3], [9, 9, 0, 0, 0, 0])
        pred = lab([1, 1, 3, 3, 3, 3], [1, 1, 0, 0, 0, 0])
        report = compute_pq(gt, pred, TAX)
        assert not report.per_class[1].populated
        assert_matches_oracle(gt, pred)

    def test_unmatched_pred_on_void_not_fp(self):
        gt = lab([0, 0, 0, 3, 3, 3], [0, 0, 0, 0, 0, 0])
        pred = lab([1, 1, 1, 3, 3, 3], [5, 5, 5, 0, 0, 0])
        report = compute_pq(gt, pred, TAX)
        assert report.per_class[1].fp == 0
        assert_matches_oracle(gt, pred)

    def test_id_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        gt, pred = random_scene(rng)
        base = compute_pq(gt, pred, TAX)
        remap_g = {i: 1000 - i for i in np.unique(gt.inst[gt.inst > 0])}
        remap_p = {i: 77 + 3 * i for i in np.unique(pred.inst[pred.inst > 0])}
        gt2 = lab(gt.sem, [remap_g.get(i, 0) for i in gt.inst])
        pred2 = lab(pred.sem, [remap_p.get(i, 0) for i in pred.inst])
        other = compute_pq(gt2, pred2, TAX)
        for cid, st in base.per_class.items():
            st2 = other.per_class[cid]
            assert (st.tp, st.fp, st.fn) == (st2.tp, st2.fp, st2.fn)
            assert abs(st.iou_sum - st2.iou_sum) < 1e-12

    def test_matches_oracle_on_random_scenes(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            gt, pred = random_scene(rng, n_points=int(rng.integers(50, 400)))
            assert_matches_oracle(gt, pred)

    def test_pq_equals_sq_times_rq(self):
        rng = np.random.default_rng(2)
        gt, pred = random_scene(rng)
        report = compute_pq(gt, pred, TAX)
        for st in report.per_class.values():
            assert abs(st.pq - st.sq * st.rq) < 1e-12

    def test_accumulation_over_sweeps(self):
        rng = np.random.default_rng(3)
        acc = PqAccumulator(TAX)
        pairs = [random_scene(rng) for _ in range(3)]
        for gt, pred in pairs:
            acc.add(gt, pred)
        # Class counts must equal the sum of per-scene oracle counts.
        totals = {}
        for gt, pred in pairs:
            want = pq_counts(gt.sem, gt.inst, pred.sem, pred.inst,
                             set(TAX.thing_ids), set(TAX.stuff_ids),
                             set(TAX.ignore_ids), TAX.min_instance_points)
            for cid, (iou, tp, fp, fn) in want.items():
                agg = totals.setdefault(cid, [0.0, 0, 0, 0])
                agg[0] += iou; agg[1] += tp; agg[2] += fp; agg[3] += fn
        report = acc.report()
        for cid, (iou, tp, fp, fn) in totals.items():
            st = report.per_class[cid]
            assert (st.tp, st.fp, st.fn) == (tp, fp, fn)
            assert abs(st.iou_sum - iou) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_pq(lab([1], [1]), lab([1, 1], [1, 1]), TAX)


class TestComputeMiou:
    def test_identical(self):
        sem = np.array([1, 2, 3, 3, 4])
        per_class, mean = compute_miou(sem, sem, TAX)
        assert mean == 1.0

    def test_fully_disjoint(self):
        gt = np.array([1, 1, 3, 3])
        pred = np.array([2, 2, 4, 4])
        _, mean = compute_miou(gt, pred, TAX)
        assert mean == 0.0

    def test_ignore_class_prediction_is_a_miss(self):
        per_class, mean = compute_miou(np.array([1, 1, 3, 0]), np.array([0, 1, 3, 3]), TAX)
        assert per_class == {1: 0.5, 3: 1.0}
        assert mean == 0.75

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(4)
        gt = rng.choice([0, 1, 2, 3, 4], size=300)
        pred = rng.choice([1, 2, 3, 4], size=300)
        per_class, mean = compute_miou(gt, pred, TAX)
        keep = gt != 0
        for cid, iou in per_class.items():
            tp = int(((gt == cid) & (pred == cid) & keep).sum())
            fp = int(((gt != cid) & (pred == cid) & keep).sum())
            fn = int(((gt == cid) & (pred != cid) & keep).sum())
            assert abs(iou - tp / (tp + fp + fn)) < 1e-12


class TestComputeLstq:
    def seq_lab(self, sems, insts):
        return [lab(s, i) for s, i in zip(sems, insts)]

    def test_perfect(self):
        gts = self.seq_lab([[1, 1, 3]] * 4, [[5, 5, 0]] * 4)
        report = compute_lstq(gts, gts, TAX)
        assert report.s_assoc == 1.0
        assert report.lstq == 1.0

    def test_id_switch_halves_association(self):
        # One 10-sweep tube, uniform density, id switch at halfway.
        gt_sems = [[1] * 8 for _ in range(10)]
        gt_insts = [[3] * 8 for _ in range(10)]
        pred_insts = [[1] * 8 if t < 5 else [2] * 8 for t in range(10)]
        gts = self.seq_lab(gt_sems, gt_insts)
        preds = self.seq_lab(gt_sems, pred_insts)
        report = compute_lstq(gts, preds, TAX)
        assert abs(report.s_assoc - 0.5) < 1e-12
        assert abs(report.lstq - np.sqrt(0.5)) < 1e-12

    def test_empty_predictions(self):
        gts = self.seq_lab([[1, 1, 1, 3]] * 3, [[2, 2, 2, 0]] * 3)
        preds = self.seq_lab([[0, 0, 0, 0]] * 3, [[0, 0, 0, 0]] * 3)
        report = compute_lstq(gts, preds, TAX)
        assert report.s_assoc == 0.0
        assert report.lstq == 0.0

    def test_matches_tube_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            sweeps = int(rng.integers(1, 6))
            gts, preds = [], []
            for _ in range(sweeps):
                gt, pred = random_scene(rng, n_points=int(rng.integers(30, 150)))
                gts.append(gt)
                preds.append(pred)
            got = compute_lstq(gts, preds, TAX).s_assoc
            want = tube_s_assoc([g.sem for g in gts], [g.inst for g in gts],
                                [p.sem for p in preds], [p.inst for p in preds],
                                set(TAX.thing_ids), set(TAX.ignore_ids))
            assert abs(got - want) < 1e-12

    def test_sequence_id_bijection_invariance(self):
        rng = np.random.default_rng(6)
        gts, preds = [], []
        for _ in range(4):
            gt, pred = random_scene(rng)
            gts.append(gt)
            preds.append(pred)
        base = compute_lstq(gts, preds, TAX)
        preds2 = [lab(p.sem, np.where(p.inst > 0, p.inst * 7 + 3, 0)) for p in preds]
        again = compute_lstq(gts, preds2, TAX)
        assert abs(base.s_assoc - again.s_assoc) < 1e-12

    def test_single_sweep_perfect_iff_projected(self):
        gt = lab([1, 1, 2, 3], [4, 4, 6, 0])
        good = lab([1, 1, 2, 3], [9, 9, 2, 0])
        bad = lab([1, 1, 2, 3], [9, 8, 2, 0])
        assert compute_lstq([gt], [good], TAX).s_assoc == 1.0
        assert compute_lstq([gt], [bad], TAX).s_assoc < 1.0

    def test_accumulator_pools_sequences(self):
        rng = np.random.default_rng(7)
        acc = LstqAccumulator(TAX)
        total_outer, total_tubes = 0.0, 0
        for _ in range(3):
            gts, preds = [], []
            for _ in range(3):
                gt, pred = random_scene(rng, n_points=80)
                gts.append(gt)
                preds.append(pred)
            acc.add_sequence(gts, preds)
            single = LstqAccumulator(TAX)
            single.add_sequence(gts, preds)
            total_outer += single.outer_sum
            total_tubes += single.num_tubes
        assert abs(acc.report().s_assoc - total_outer / total_tubes) < 1e-12


    def test_s_cls_matches_pooled_miou(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            acc = LstqAccumulator(TAX)
            gt_sems, pred_sems = [], []
            for _ in range(int(rng.integers(1, 4))):
                gts, preds = [], []
                for _ in range(int(rng.integers(1, 4))):
                    gt, pred = random_scene(rng, n_points=int(rng.integers(1, 120)))
                    sem = pred.sem.copy()
                    sem[rng.uniform(size=sem.size) < 0.1] = 0  # predictions in the ignore class
                    pred = lab(sem, np.where(sem == 0, 0, pred.inst))
                    gts.append(gt)
                    preds.append(pred)
                    gt_sems.append(gt.sem)
                    pred_sems.append(pred.sem)
                acc.add_sequence(gts, preds)
            _, want = compute_miou(np.concatenate(gt_sems), np.concatenate(pred_sems), TAX)
            assert acc.report().s_cls == want

    def test_no_sequences(self):
        report = LstqAccumulator(TAX).report()
        assert (report.s_assoc, report.s_cls) == (1.0, 0.0)


class TestClassIdRange:
    @pytest.mark.parametrize("bad", [5, 200, -1])
    @pytest.mark.parametrize("side", ["gt", "pred"])
    def test_out_of_taxonomy_class_rejected(self, side, bad):
        good = lab([1, 3, 4], [2, 0, 0])
        broken = lab([1, bad, 4], [2, 0, 0])
        gt, pred = (broken, good) if side == "gt" else (good, broken)
        with pytest.raises(ValueError, match="outside the taxonomy"):
            PqAccumulator(TAX).add(gt, pred)
        with pytest.raises(ValueError, match="outside the taxonomy"):
            LstqAccumulator(TAX).add_sequence([gt], [pred])
        with pytest.raises(ValueError, match="outside the taxonomy"):
            compute_miou(gt.sem, pred.sem, TAX)

class TestMembershipAccuracy:
    def scene(self):
        pts = np.array([
            [0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-0.5, 0.0, 0.0],   # instance 1
            [5.0, 0.0, 0.0], [5.5, 0.0, 0.0], [4.5, 0.0, 0.0],   # instance 2
        ])
        gt_inst = np.array([1, 1, 1, 2, 2, 2])
        centers = {1: np.zeros(3), 2: np.array([5.0, 0.0, 0.0])}
        classes = {1: 1, 2: 1}
        dets = stack([(np.array([0.05, 0, 0]), 0.9, 1, np.array([1.0, 0.5, 0.5])),
                      (np.array([5.05, 0, 0]), 0.8, 1, np.array([1.0, 0.5, 0.5]))])
        return pts, gt_inst, centers, classes, dets

    def test_perfect_assignment(self):
        pts, gt_inst, centers, classes, dets = self.scene()
        assign = np.array([0, 0, 0, 1, 1, 1])
        acc, n = membership_accuracy(pts, gt_inst, centers, classes, dets, assign)
        assert acc == 1.0 and n == 6

    def test_everything_swapped(self):
        pts, gt_inst, centers, classes, dets = self.scene()
        assign = np.array([1, 1, 1, 0, 0, 0])
        acc, _ = membership_accuracy(pts, gt_inst, centers, classes, dets, assign)
        assert acc == 0.0

    def test_unassigned_counts_wrong(self):
        pts, gt_inst, centers, classes, dets = self.scene()
        assign = np.array([0, 0, -1, 1, 1, 1])
        acc, _ = membership_accuracy(pts, gt_inst, centers, classes, dets, assign)
        assert abs(acc - 5 / 6) < 1e-12

    def test_matches_per_point_count(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pts = rng.uniform(-4, 4, size=(150, 3))
            gt_inst = rng.integers(0, 6, size=150)
            centers = {i: rng.uniform(-3, 3, size=3) for i in range(1, 6)}
            classes = {i: int(rng.integers(1, 3)) for i in range(1, 6)}
            dets = stack((rng.uniform(-3, 3, size=3), 0.9, int(rng.integers(1, 3)),
                          rng.uniform(0.5, 2.0, size=3)) for _ in range(4))
            assign = rng.integers(-1, 4, size=150)
            acc, n = membership_accuracy(pts, gt_inst, centers, classes, dets, assign)
            matched = match_instances_to_detections(centers, classes, dets)
            in_roi = np.zeros(150, dtype=bool)
            for det in dets:
                in_roi[roi_points(det, pts, inflate=True, margin_frac=0.1, margin_floor=0.1)] = True
            evaluated = [i for i in range(150) if in_roi[i] and gt_inst[i] > 0]
            correct = sum(assign[i] == matched.get(int(gt_inst[i]), -2) for i in evaluated)
            assert n == len(evaluated)
            assert acc == (correct / n if n else 0.0)

    def test_matching_is_greedy_one_to_one(self):
        centers = {1: np.zeros(3), 2: np.array([1.0, 0.0, 0.0])}
        classes = {1: 1, 2: 1}
        dets = stack([(np.array([0.1, 0, 0]), 0.9, 1, np.ones(3)),
                      (np.array([1.2, 0, 0]), 0.9, 1, np.ones(3))])
        matched = match_instances_to_detections(centers, classes, dets)
        assert matched == {1: 0, 2: 1}

    def test_class_mismatch_never_matches(self):
        centers = {1: np.zeros(3)}
        classes = {1: 2}
        dets = stack([(np.zeros(3), 0.9, 1, np.ones(3))])
        assert match_instances_to_detections(centers, classes, dets) == {}


class TestCsvReports:
    def test_pq_csv_columns(self):
        gt = lab([1, 1, 1, 3], [2, 2, 2, 0])
        report = compute_pq(gt, gt, TAX)
        text = pq_report_csv(report)
        assert text.splitlines()[0] == "class,pq,sq,rq,iou,tp,fp,fn"
        assert "car,1," in text
        assert "all," in text

    def test_lstq_csv(self):
        gt = lab([1, 1], [3, 3])
        text = lstq_report_csv(compute_lstq([gt], [gt], TAX))
        assert "s_assoc,1" in text
        assert "lstq,1" in text
