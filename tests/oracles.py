"""Brute-force reference implementations the test suite checks against.

Everything here is written as plainly as possible (explicit loops, sets,
dicts) and stays independent of the library's vectorized code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from modalpanoptic.cloud import PointCloudSweep, check_rigid, invert_pose
from modalpanoptic.losses import bce_loss
from modalpanoptic.membership import PairTable, assemble_pair_features, predict_membership
from modalpanoptic.mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BN_EPS, recalibrate_batchnorm
from modalpanoptic.synth import flip_semantics
from modalpanoptic.targets import (
    CWM_SMALL_FRACTION,
    GAUSSIAN_CUTOFF_SIGMAS,
    heatmap_sigma,
    instance_boxes,
    modal_center,
)
from modalpanoptic.tracking import MAX_TRACK_ID, TrackIdOverflow, Tracklet
from modalpanoptic.voxels import interpolate_bev_many

from fakes import stack


def focal_sum(pred, target, alpha=2.0, beta=4.0, eps=1e-6):
    """Direct per-cell summation of the penalty-reduced focal loss."""
    p = np.clip(np.asarray(pred, dtype=float), eps, 1 - eps).ravel()
    y = np.asarray(target, dtype=float).ravel()
    total = 0.0
    peaks = 0
    for pi, yi in zip(p, y):
        if yi == 1.0:
            peaks += 1
            total += -((1 - pi) ** alpha) * math.log(pi)
        else:
            total += -((1 - yi) ** beta) * (pi ** alpha) * math.log(1 - pi)
    return total / max(peaks, 1)


def softmax_ce(logits, target, mask, ignore=0):
    """Explicit softmax + log cross-entropy, averaged over counted voxels."""
    total, n = 0.0, 0
    for row, t, m in zip(np.asarray(logits, dtype=float), np.asarray(target), np.asarray(mask)):
        if not m or t == ignore:
            continue
        exps = [math.exp(v) for v in row]
        total += -math.log(exps[int(t)] / sum(exps))
        n += 1
    return (total / n, n) if n else (0.0, 0)


def bilinear_4term(data, cell_size, planar_range, x, y):
    """Four-term bilinear expansion among surrounding cell centers."""
    w, d = data.shape[0], data.shape[1]
    u = (x + planar_range) / cell_size - 0.5
    v = (y + planar_range) / cell_size - 0.5
    i0 = int(min(max(math.floor(u), 0), w - 2))
    j0 = int(min(max(math.floor(v), 0), d - 2))
    fu, fv = u - i0, v - j0
    return (data[i0, j0] * (1 - fu) * (1 - fv)
            + data[i0 + 1, j0] * fu * (1 - fv)
            + data[i0, j0 + 1] * (1 - fu) * fv
            + data[i0 + 1, j0 + 1] * fu * fv)


def interpolate_bev_reference(bev, xy):
    """One bilinear query, scalar code: the four surrounding cell centers, clamped at the border."""
    x, y = float(xy[0]), float(xy[1])
    r = bev.planar_range
    if not (-r <= x < r and -r <= y < r):
        raise ValueError(f"query ({x:.3f}, {y:.3f}) outside grid range {r}")
    cs = bev.cell_size
    u = (x + r) / cs - 0.5
    v = (y + r) / cs - 0.5
    i0 = int(np.clip(np.floor(u), 0, bev.width - 2)) if bev.width > 1 else 0
    j0 = int(np.clip(np.floor(v), 0, bev.depth - 2)) if bev.depth > 1 else 0
    fu = np.clip(u - i0, 0.0, 1.0)
    fv = np.clip(v - j0, 0.0, 1.0)
    i1 = min(i0 + 1, bev.width - 1)
    j1 = min(j0 + 1, bev.depth - 1)
    d = bev.data
    return ((1 - fu) * (1 - fv) * d[i0, j0]
            + fu * (1 - fv) * d[i1, j0]
            + (1 - fu) * fv * d[i0, j1]
            + fu * fv * d[i1, j1])


def fd_gradient(fn, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def pq_counts(gt_sem, gt_inst, pred_sem, pred_inst, thing_ids, stuff_ids,
              ignore_ids, min_points):
    """Exhaustive panoptic-quality bookkeeping over one scene.

    Enumerates every (gt segment, pred segment) pair per class, matches at
    IoU > 0.5 and applies the standard crowd rules: ground-truth instances
    below the point threshold become ignore for both sides, and unmatched
    predictions mostly overlapping ignored points are not false positives.
    Returns {class: (iou_sum, tp, fp, fn)}.
    """
    gt_sem = np.asarray(gt_sem); gt_inst = np.asarray(gt_inst)
    pred_sem = np.asarray(pred_sem); pred_inst = np.asarray(pred_inst)
    n = gt_sem.size
    ignored = set()
    for i in range(n):
        if int(gt_sem[i]) in ignore_ids:
            ignored.add(i)
    for cid in thing_ids:
        seen = {}
        for i in range(n):
            if int(gt_sem[i]) == cid and int(gt_inst[i]) > 0:
                seen.setdefault(int(gt_inst[i]), []).append(i)
        for pts in seen.values():
            if len(pts) < min_points:
                ignored.update(pts)
    kept = [i for i in range(n) if i not in ignored]

    def segments(sem, inst, cid, thing):
        segs = {}
        if thing:
            for i in kept:
                if int(sem[i]) == cid and int(inst[i]) > 0:
                    segs.setdefault(int(inst[i]), set()).add(i)
        else:
            pts = {i for i in kept if int(sem[i]) == cid}
            if pts:
                segs[0] = pts
        return segs

    def all_points(sem, inst, cid, thing, seg_id):
        if thing:
            return {i for i in range(n) if int(sem[i]) == cid and int(inst[i]) == seg_id}
        return {i for i in range(n) if int(sem[i]) == cid}

    result = {}
    for cid in sorted(set(thing_ids) | set(stuff_ids)):
        thing = cid in thing_ids
        gsegs = segments(gt_sem, gt_inst, cid, thing)
        psegs = segments(pred_sem, pred_inst, cid, thing)
        iou_sum, tp = 0.0, 0
        matched_g, matched_p = set(), set()
        for gid, gpts in gsegs.items():
            for pid, ppts in psegs.items():
                inter = len(gpts & ppts)
                union = len(gpts | ppts)
                if union and inter / union > 0.5:
                    iou_sum += inter / union
                    tp += 1
                    matched_g.add(gid)
                    matched_p.add(pid)
        fn = len(gsegs) - len(matched_g)
        fp = 0
        for pid, ppts in psegs.items():
            if pid in matched_p:
                continue
            full = all_points(pred_sem, pred_inst, cid, thing, pid)
            void = len([i for i in full if i in ignored])
            if len(full) and void / len(full) > 0.5:
                continue
            fp += 1
        result[cid] = (iou_sum, tp, fp, fn)
    return result


def tube_s_assoc(gt_sems, gt_insts, pred_sems, pred_insts, thing_ids, ignore_ids):
    """Dict-based 4D tube association score over a pooled sweep sequence."""
    gt_tubes = {}
    pred_tubes = {}
    inter = {}
    for t in range(len(gt_sems)):
        for i in range(len(gt_sems[t])):
            if int(gt_sems[t][i]) in ignore_ids:
                continue
            key = (t, i)
            g = int(gt_insts[t][i])
            p = int(pred_insts[t][i])
            if g > 0 and int(gt_sems[t][i]) in thing_ids:
                gt_tubes.setdefault(g, set()).add(key)
                if p > 0:
                    inter.setdefault((g, p), set()).add(key)
            if p > 0:
                pred_tubes.setdefault(p, set()).add(key)
    if not gt_tubes:
        return 1.0
    outer = 0.0
    for g, gpts in gt_tubes.items():
        inner = 0.0
        for p, ppts in pred_tubes.items():
            ov = inter.get((g, p))
            if not ov:
                continue
            iou = len(ov) / len(gpts | ppts)
            inner += len(ov) * iou
        outer += inner / len(gpts)
    return outer / len(gt_tubes)


def fuse_reference(points_xyz, point_sem, detections, membership_table,
                   thing_ids, margin_frac=0.0, margin_floor=0.0, conflict="first_wins"):
    """Line-by-line re-statement of the confidence-ordered fusion loop.

    ``membership_table[d, i]`` holds the membership probability of point i
    for detection d. Detections must already be ordered by decreasing
    confidence. Under "first_wins" each detection in turn claims the
    still-unassigned points; under "argmax" a point goes to the claimant with
    the highest membership, the earliest on ties. Returns (sem, inst) arrays;
    fresh ids start at 1 and advance only when a detection actually claims
    points.
    """
    pts = np.asarray(points_xyz, dtype=float)
    sem_out = np.array(point_sem, dtype=np.int32, copy=True)
    inst_out = np.zeros(pts.shape[0], dtype=np.int32)
    assigned = np.zeros(pts.shape[0], dtype=bool)
    claimants = [[] for _ in range(pts.shape[0])]
    for d, det in enumerate(detections):
        radius = det.extent + np.maximum(margin_frac * det.extent, margin_floor)
        for i in range(pts.shape[0]):
            if (np.all(np.abs(pts[i] - det.center) < radius)
                    and int(point_sem[i]) == det.class_id and membership_table[d, i] > 0.5):
                claimants[i].append(d)
    next_id = 1
    for d, det in enumerate(detections):
        members = []
        for i in range(pts.shape[0]):
            if assigned[i] or d not in claimants[i]:
                continue
            if conflict == "argmax":
                best = claimants[i][0]
                for other in claimants[i]:
                    if membership_table[other, i] > membership_table[best, i]:
                        best = other
                if best != d:
                    continue
            members.append(i)
        if members:
            for i in members:
                sem_out[i] = det.class_id
                inst_out[i] = next_id
                assigned[i] = True
            next_id += 1
    return sem_out, inst_out


def nms_detect_reference(heatmaps, height, extent, velocity, spec, threshold=0.3,
                         max_detections=500):
    """Dense 3x3 max-pooling NMS: the peak rule ``nms_detect`` must reproduce.

    Takes dense (K, W', D') heatmaps, a dense (W', D') height map, a dense
    (W', D', 3) extent map and a dense (W', D', 2) velocity map. Every cell
    of every channel is compared with the maximum of its 3x3 neighborhood
    (``-inf`` beyond the grid); peaks strictly above the threshold are
    ordered by (-confidence, class, x, y) and cut at ``max_detections``, and
    each reads its height, extent and velocity at its own cell.
    """
    k, w, d = heatmaps.shape
    hm = heatmaps
    padded = np.full((k, w + 2, d + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = hm
    neighborhood = np.full_like(hm, -np.inf)
    for dx in (0, 1, 2):
        for dy in (0, 1, 2):
            np.maximum(neighborhood, padded[:, dx:dx + w, dy:dy + d], out=neighborhood)
    is_peak = (hm == neighborhood) & (hm > threshold)
    cls, ix, iy = np.nonzero(is_peak)
    order = np.lexsort((iy, ix, cls, -hm[cls, ix, iy]))
    rows = []
    for c, x, y in zip(cls[order], ix[order], iy[order]):
        if len(rows) >= max_detections:
            break
        xy = spec.bev_cell_center(int(x), int(y))
        center = np.array([xy[0], xy[1], height[x, y]])
        rows.append((center, float(hm[c, x, y]), int(c), extent[x, y], velocity[x, y]))
    return stack(rows)


def nn_baseline_reference(points_xyz, point_sem, detections, margin_frac=0.1,
                          margin_floor=0.1):
    """Per-pair tuple-key loop: the nearest-center membership contract.

    Every point inside a same-class detection's inflated RoI keeps the
    smallest key (distance, -confidence, detection index) seen over all
    detections; points no detection reaches stay at -1.
    """
    pts = np.asarray(points_xyz, dtype=np.float64)[:, :3]
    sem = np.asarray(point_sem)
    n = pts.shape[0]
    best = np.full(n, -1, dtype=np.int64)
    best_key = [None] * n
    for d, det in enumerate(detections):
        radius = det.extent + np.maximum(margin_frac * det.extent, margin_floor)
        candidates = np.flatnonzero(
            (sem == det.class_id) & np.all(np.abs(pts - det.center) < radius, axis=1)
        )
        if candidates.size == 0:
            continue
        dist = np.linalg.norm(pts[candidates] - det.center, axis=1)
        for i, dd in zip(candidates, dist):
            key = (dd, -det.confidence, d)
            if best_key[i] is None or key < best_key[i]:
                best_key[i] = key
                best[i] = d
    return best


def handcrafted_features_reference(xyz, radius=0.6):
    """Per-point loop over a dict of planar cells: the handcrafted feature contract.

    For each point the candidates are the points of the 9 surrounding cells,
    visited in dx order then dy order (each over -1, 0, 1), in ascending index
    within a cell; the centroid of the candidates within ``radius`` is their
    sequential float64 mean. Returns (N, 6) rows [log1p(count), z - ground,
    centroid - p, planar range / 10].
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    n = xyz.shape[0]
    out = np.zeros((n, 6))
    if n == 0:
        return out
    ground = np.percentile(xyz[:, 2], 5.0)
    cells = {}
    keys = np.floor(xyz[:, :2] / radius).astype(np.int64)
    for i, key in enumerate(map(tuple, keys)):
        cells.setdefault(key, []).append(i)
    for i in range(n):
        kx, ky = keys[i]
        neighborhood = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighborhood.extend(cells.get((kx + dx, ky + dy), ()))
        nb = np.asarray(neighborhood)
        close = nb[np.linalg.norm(xyz[nb, :2] - xyz[i, :2], axis=1) <= radius]
        centroid = xyz[close].mean(axis=0)
        out[i, 0] = np.log1p(close.size)
        out[i, 1] = xyz[i, 2] - ground
        out[i, 2:5] = centroid - xyz[i]
        out[i, 5] = np.hypot(xyz[i, 0], xyz[i, 1]) / 10.0
    return out


def voxel_features_reference(points, spec, features):
    """{voxel key: mean feature row} in ascending key order, one cell at a time.

    Each in-range point joins the cell of its voxel index. A cell adds its
    rows one at a time to +0.0, in ascending point index, then divides by its
    point count.
    """
    pts = np.asarray(points, dtype=np.float64)
    feats = np.asarray(features, dtype=np.float64)
    members = {}
    for i in range(pts.shape[0]):
        if spec.in_range(pts[i])[0]:
            members.setdefault(tuple(int(v) for v in spec.voxel_index(pts[i])[0]), []).append(i)
    out = {}
    for key in sorted(members):
        total = np.zeros(feats.shape[1])
        for i in members[key]:
            total = total + feats[i]
        out[key] = total / len(members[key])
    return out


def bev_mean_reference(points, spec, features):
    """Dense (W', D', F) BEV map: the mean over each column's voxel means.

    Voxels enter their column in ascending key order and their feature rows
    are summed one at a time, then divided by the column's voxel count.
    """
    cells = voxel_features_reference(points, spec, features)
    dim = np.asarray(features).shape[1]
    data = np.zeros((spec.bev_width, spec.bev_depth, dim))
    counts = np.zeros((spec.bev_width, spec.bev_depth), dtype=np.int64)
    ds = spec.bev_downsample
    for (ix, iy, _), feat in cells.items():
        bx, by = ix // ds, iy // ds
        data[bx, by] = feat if counts[bx, by] == 0 else data[bx, by] + feat
        counts[bx, by] += 1
    for bx in range(spec.bev_width):
        for by in range(spec.bev_depth):
            if counts[bx, by]:
                data[bx, by] /= counts[bx, by]
    return data


def gather_pairs_reference(points_xyz, point_sem, detections, margin_frac=0.1,
                           margin_floor=0.1):
    """One RoI scan per detection: the pair table ``gather_pairs`` must reproduce.

    Detection d's group holds, in ascending index, the points strictly inside
    its inflated box whose predicted class is its own.
    """
    pts = np.asarray(points_xyz, dtype=np.float64)[:, :3]
    sem = np.asarray(point_sem)
    groups = []
    for det in detections:
        radius = det.extent + np.maximum(margin_frac * det.extent, margin_floor)
        inside = np.all(np.abs(pts - det.center) < radius, axis=1)
        groups.append(np.flatnonzero(inside & (sem == det.class_id)))
    sizes = [g.size for g in groups]
    return PairTable(np.repeat(np.arange(len(groups), dtype=np.int64), sizes),
                     np.concatenate([np.zeros(0, dtype=np.int64), *groups]),
                     np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]),
                     margin_frac, margin_floor)


def greedy_associate_reference(tracks, detections, velocities, dt, sweep_index,
                               next_track_id, gates=None, default_gate=2.0, max_age=2,
                               ages=None):
    """Tuple-sort greedy matching: the association contract, one pair at a time.

    Every same-class (track, detection) pair within the gate becomes a tuple
    (distance, track id, detection, track); tuples are consumed in sorted
    order, one detection per track. Mutates ``tracks`` like the library does.
    ``ages`` maps track id to sweeps since its last match, counted here one
    call at a time and updated in place; pass the same dict on every sweep.
    """
    ages = {} if ages is None else ages
    rows = list(detections)
    velocities = [np.array(v, dtype=np.float64) for v in velocities]
    predicted = [det.center[:2] - v * dt for det, v in zip(rows, velocities)]
    candidates = []
    for ti, tr in enumerate(tracks):
        gate = (gates or {}).get(tr.class_id, default_gate)
        for d, det in enumerate(rows):
            if det.class_id != tr.class_id:
                continue
            dist = float(np.linalg.norm(tr.last_center[:2] - predicted[d]))
            if dist < gate:
                candidates.append((dist, tr.track_id, d, ti))
    candidates.sort()
    used_tracks = set()
    det_track = [-1] * len(rows)
    track_of_det = {}
    for _dist, _tid, d, ti in candidates:
        if ti in used_tracks or det_track[d] != -1:
            continue
        used_tracks.add(ti)
        det_track[d] = tracks[ti].track_id
        track_of_det[d] = ti
    tracks = list(tracks)
    for d, det in enumerate(rows):
        if det_track[d] != -1:
            tr = tracks[track_of_det[d]]
            tr.last_center = det.center.copy()
            tr.last_velocity = velocities[d]
            ages[tr.track_id] = 0
            tr.last_seen = sweep_index
        else:
            if next_track_id > MAX_TRACK_ID:
                raise TrackIdOverflow("track ids exhausted")
            tracks.append(Tracklet(next_track_id, det.class_id, det.center.copy(),
                                   velocities[d], last_seen=sweep_index))
            det_track[d] = next_track_id
            next_track_id += 1
    alive = []
    for tr in tracks:
        if tr.last_seen == sweep_index:
            alive.append(tr)
        else:
            ages[tr.track_id] = ages.get(tr.track_id, 0) + 1
            if ages[tr.track_id] <= max_age:
                alive.append(tr)
    return alive, det_track, next_track_id


def _one_hot_rows(ids, num_classes):
    out = np.zeros((len(ids), num_classes))
    for r, cid in enumerate(np.asarray(ids).tolist()):
        if not 0 <= cid < num_classes:
            raise ValueError("class id outside one-hot range")
        out[r, cid] = 1.0
    return out


def pair_rows_one_center(pts, sem, center, class_id, cfg, point_features=None, bev=None):
    """Pair rows for points that all face one center: the per-detection assembly."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))[:, :3]
    blocks = [pts - center]
    if cfg.point_feature_dim > 0:
        blocks.append(np.asarray(point_features, dtype=np.float64))
    if cfg.bev_feature_dim > 0:
        blocks.append(interpolate_bev_many(bev, pts[:, :2]))
    blocks.append(_one_hot_rows(sem, cfg.num_classes))
    center_row = [np.array([np.hypot(center[0], center[1]) / 10.0, center[2], 0.0])]
    if cfg.bev_feature_dim > 0:
        center_row.append(interpolate_bev_many(bev, center[None, :2])[0])
    center_row.append(_one_hot_rows([class_id], cfg.num_classes)[0])
    return np.concatenate(blocks + [np.tile(np.concatenate(center_row), (len(pts), 1))],
                          axis=1)


def pair_rows_reference(points_xyz, point_sem, detections, pairs, cfg, point_features=None,
                        bev=None):
    """One detection at a time, empty groups skipped: the rows of a whole pair table."""
    pts = np.asarray(points_xyz, dtype=np.float64)
    rows = [np.zeros((0, cfg.width))]
    for d, det in enumerate(detections):
        idx = pairs.point[pairs.group(d)]
        if idx.size == 0:
            continue
        feats = point_features[idx] if cfg.point_feature_dim > 0 else None
        rows.append(pair_rows_one_center(pts[idx], np.asarray(point_sem)[idx], det.center,
                                         det.class_id, cfg, feats, bev))
    return np.concatenate(rows)


def eager_features(provider, sweep):
    """Every point's feature row and the full BEV map of one sweep, as a first stage
    that computes its features before detection would."""
    every = np.arange(len(sweep))
    feats = provider.point_features(sweep, every)
    return feats, provider.bev_map(sweep, every, feats)


def stencil_cells_reference(spec, x, y):
    """The four BEV cells (ix, iy) a bilinear lookup at (x, y) reads on ``spec``'s grid:
    the cell centers around the query, clamped to the edge cells at the border."""
    r, cs = spec.planar_range, spec.bev_cell_size
    i0 = min(max(math.floor((x + r) / cs - 0.5), 0), spec.bev_width - 2)
    j0 = min(max(math.floor((y + r) / cs - 0.5), 0), spec.bev_depth - 2)
    return {(i0 + a, j0 + b) for a in (0, 1) for b in (0, 1)}


def feature_rows_reference(sweep, detections, pairs, spec):
    """The sorted rows a full pair encoding reads: the pair points, plus every
    in-range point whose voxel's BEV column is a corner of some bilinear stencil
    around a pair point or around a detection that owns a pair."""
    xyz = sweep.xyz
    queries = [xyz[i, :2] for i in set(pairs.point.tolist())]
    queries += [detections.center[k, :2] for k in set(pairs.det.tolist())]
    corners = set()
    for x, y in queries:
        corners.update(stencil_cells_reference(spec, x, y))
    ds = spec.bev_downsample
    rows = set(pairs.point.tolist())
    for i in range(len(xyz)):
        if spec.in_range(xyz[i])[0]:
            ix, iy, _ = spec.voxel_index(xyz[i])[0]
            if (ix // ds, iy // ds) in corners:
                rows.add(i)
    return sorted(rows)


def mlp_scores_reference(model, pair_cfg, provider, inputs, detections, pairs):
    """``mlp_scores`` over eager full-sweep features: the pair rows read them in place."""
    feats, bev = eager_features(provider, inputs.sweep) if pair_cfg.needs_features \
        else (None, None)
    return predict_membership(model, assemble_pair_features(
        inputs.sweep.xyz, inputs.point_sem, detections, pairs, pair_cfg, feats, bev))


def build_training_pairs_reference(sequences, taxonomy, cfg, provider=None, skipped=None):
    """Training rows and labels one ground-truth instance at a time.

    Each thing instance of each sweep draws its center jitter in ascending id
    order, takes its trajectory's maximum extent with components below 0.05
    raised to the class mean over the trajectories that observed them, and
    claims the same-class points strictly inside the inflated box. Instances
    with no such point, or (with BEV features) whose jittered center leaves
    the BEV footprint, are left out; their jittered centers are appended to
    ``skipped`` when it is given.
    """
    pair_cfg = cfg.features
    rng = np.random.default_rng(cfg.seed)
    per_seq = [build_trajectories_reference(seq, taxonomy) for seq in sequences]
    sums, counts = {}, {}
    for trajs in per_seq:
        for class_id, records in trajs.values():
            ext = np.max([r.extent for r in records], axis=0)
            for axis in range(3):
                key = (class_id, axis)
                sums[key] = sums.get(key, 0.0) + (ext[axis] if ext[axis] >= 0.05 else 0.0)
                counts[key] = counts.get(key, 0) + (ext[axis] >= 0.05)
    rows, labels = [], []
    for seq, trajs in zip(sequences, per_seq):
        for sweep in seq.sweeps:
            feats, bev = eager_features(provider, sweep) \
                if pair_cfg.point_feature_dim > 0 or pair_cfg.bev_feature_dim > 0 else (None, None)
            xyz, inst, sem = sweep.xyz, sweep.inst_labels, sweep.sem_labels
            for iid in sorted(set(inst[inst > 0].tolist())):
                members = np.flatnonzero(inst == iid)
                cid = int(sem[members[0]])
                if cid not in taxonomy.thing_ids:
                    continue
                extent = np.max([r.extent for r in trajs[iid][1]], axis=0)
                for axis in range(3):
                    if extent[axis] < 0.05:
                        mean = sums[cid, axis] / max(counts[cid, axis], 1)
                        extent[axis] = max(mean, extent[axis])
                center = modal_center(xyz[members]) + rng.normal(0.0, cfg.center_jitter, 3)
                radius = extent + np.maximum(cfg.margin_frac * extent, cfg.margin_floor)
                roi = np.flatnonzero(np.all(np.abs(xyz - center) < radius, axis=1)
                                     & (sem == cid))
                off_grid = bev is not None and not all(
                    -bev.planar_range <= c < bev.planar_range for c in center[:2])
                if roi.size == 0 or off_grid:
                    if skipped is not None:
                        skipped.append(center)
                    continue
                rows.append(pair_rows_one_center(
                    xyz[roi], sem[roi], center, cid, pair_cfg,
                    feats[roi] if pair_cfg.point_feature_dim > 0 else None, bev))
                labels.append([float(inst[i] == iid) for i in roi])
    return np.concatenate(rows), np.concatenate(labels)


def transform_to_frame(sweep, target_pose):
    """Re-express a sweep in the frame given by ``target_pose`` (frame -> world).

    Labels are unchanged; the result's ego_pose is ``target_pose``.
    """
    check_rigid(target_pose)
    rel = invert_pose(np.asarray(target_pose, dtype=np.float64)) @ sweep.ego_pose
    pts = sweep.points.copy()
    pts[:, :3] = pts[:, :3] @ rel[:3, :3].T + rel[:3, 3]
    return PointCloudSweep(sweep.timestamp, pts, sweep.sem_labels, sweep.inst_labels, target_pose)


@dataclass(frozen=True)
class ModalRecord:
    """One instance's modal summary in one sweep, world frame."""

    instance_id: int
    class_id: int
    center: np.ndarray
    extent: np.ndarray
    point_count: int
    sweep_index: int


def build_trajectories_reference(seq, taxonomy):
    """{instance id: (class id, [records in sweep order])}, one instance and sweep at a time.

    A sweep moves into the world frame through ``transform_to_frame`` unless
    its pose is close to the identity. An instance whose first point in a
    sweep is not of a thing class leaves no record there. The class is that
    of the instance's last record; ids ascend.
    """
    partial, classes = {}, {}
    identity = np.eye(4)
    for t, sweep in enumerate(seq.sweeps):
        world = sweep if np.allclose(sweep.ego_pose, identity) \
            else transform_to_frame(sweep, identity)
        inst = world.inst_labels
        for iid in np.unique(inst[inst > 0]):
            sel = inst == iid
            cid = int(world.sem_labels[sel][0])
            if not taxonomy.is_thing(cid):
                continue
            pts = world.xyz[sel]
            center = modal_center(pts)
            extent = np.abs(pts - center).max(axis=0)
            partial.setdefault(int(iid), []).append(
                ModalRecord(int(iid), cid, center, extent, int(sel.sum()), t))
            classes[int(iid)] = cid
    return {iid: (classes[iid], records) for iid, records in sorted(partial.items())}


def record_at_reference(records, sweep_index):
    for r in records:
        if r.sweep_index == sweep_index:
            return r
    return None


def velocity_reference(records, sweep_index, dt):
    """Planar velocity at one sweep from the neighboring sweeps' modal centers.

    Centered difference when both neighbors exist, one-sided at trajectory
    ends and gaps, zero for an isolated record.
    """
    prev = record_at_reference(records, sweep_index - 1)
    nxt = record_at_reference(records, sweep_index + 1)
    here = record_at_reference(records, sweep_index)
    if prev is not None and nxt is not None:
        return (nxt.center[:2] - prev.center[:2]) / (2.0 * dt)
    if nxt is not None:
        return (nxt.center[:2] - here.center[:2]) / dt
    if prev is not None:
        return (here.center[:2] - prev.center[:2]) / dt
    return np.zeros(2)


def aggregate_extent_reference(class_id, records, strategy):
    """One trajectory's (training extents, excluded flags), record by record."""
    per_sweep = np.stack([r.extent for r in records])
    excluded = np.zeros(len(records), dtype=bool)
    if strategy.variant == "MAX":
        return np.tile(per_sweep.max(axis=0), (len(records), 1)), excluded
    if strategy.variant == "CWM":
        mean = strategy.cwm_stats.get(class_id)
        out = per_sweep.copy()
        if mean is not None:
            mean = np.asarray(mean, dtype=np.float64)
            for i, ext in enumerate(per_sweep):
                if ext.max() < CWM_SMALL_FRACTION * mean.max():
                    out[i] = mean
        return out, excluded
    if strategy.variant == "DSB":
        excluded = np.array([r.point_count < strategy.dsb_min_points for r in records])
    return per_sweep, excluded


def flip_semantics_reference(labels, class_ids, probability, rng):
    """One uniform draw per point, then one scalar draw per flipped point in point order.

    A flipped point takes ``choices[j]``, where ``choices`` lists
    ``class_ids`` without the point's own class and ``j`` is drawn in
    ``[0, len(choices))``. Relabels ``labels`` in place.
    """
    flip = rng.uniform(size=len(labels)) < probability
    for i in np.flatnonzero(flip):
        choices = [c for c in class_ids if c != labels[i]]
        labels[i] = choices[int(rng.integers(len(choices)))]


def _param_dict(layer):
    params = {"weights": layer.weights, "bias": layer.bias}
    if layer.batchnorm is not None:
        params.update(gamma=layer.batchnorm.gamma, beta=layer.batchnorm.beta)
    return params


def train_epochs_reference(model, features, labels, kind, learning_rate, epochs, seed=0,
                           batch_size=64):
    """The BCE training loop with one dict per layer for cache, gradients and moments.

    Same batch order, arithmetic and operation order as ``mlp.train_epochs``,
    written one named array at a time: every parameter is updated in place,
    Adam's moments are kept per array, and the finite check runs per array.
    Returns the model in eval mode and the per-epoch mean batch loss.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    order = np.random.default_rng(seed).permutation(x.shape[0])
    moments = [{name: {"m": np.zeros_like(p), "v": np.zeros_like(p)}
                for name, p in _param_dict(layer).items()} for layer in model.layers]
    step = 0
    trace = []
    for _ in range(epochs):
        losses = []
        for start in range(0, order.size, batch_size):
            sel = order[start:start + batch_size]
            if sel.size < 2:
                continue
            h = x[sel]
            cache = []
            for layer in model.layers:
                z = h @ layer.weights.T + layer.bias
                entry = {"x": h}
                out = z
                bn = layer.batchnorm
                if bn is not None:
                    mean = z.mean(axis=0)
                    var = z.var(axis=0)
                    bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
                    bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
                    inv_std = 1.0 / np.sqrt(var + BN_EPS)
                    xhat = (z - mean) * inv_std
                    out = bn.gamma * xhat + bn.beta
                    entry.update(xhat=xhat, inv_std=inv_std)
                entry["h"] = out
                if layer.activation == "relu":
                    out = np.maximum(out, 0.0)
                elif layer.activation == "sigmoid":
                    out = 1.0 / (1.0 + np.exp(-out))
                entry["a"] = out
                cache.append(entry)
                h = out
            loss = bce_loss(h.reshape(-1), y[sel])
            losses.append(loss.value)
            grads = [None] * len(model.layers)
            da = loss.gradient.reshape(-1, 1)
            for i in range(len(model.layers) - 1, -1, -1):
                layer, ent = model.layers[i], cache[i]
                if layer.activation == "relu":
                    dh = da * (ent["h"] > 0)
                elif layer.activation == "sigmoid":
                    dh = da * ent["a"] * (1.0 - ent["a"])
                else:
                    dh = da
                g = {}
                if layer.batchnorm is not None:
                    n = dh.shape[0]
                    g["gamma"] = (dh * ent["xhat"]).sum(axis=0)
                    g["beta"] = dh.sum(axis=0)
                    dxhat = dh * layer.batchnorm.gamma
                    dz = (ent["inv_std"] / n) * (n * dxhat - dxhat.sum(axis=0)
                                                 - ent["xhat"] * (dxhat * ent["xhat"]).sum(axis=0))
                else:
                    dz = dh
                g["weights"] = dz.T @ ent["x"]
                g["bias"] = dz.sum(axis=0)
                grads[i] = g
                da = dz @ layer.weights
            for g in grads:
                for arr in g.values():
                    if not np.all(np.isfinite(arr)):
                        raise ValueError("gradient contains NaN or inf")
            step += 1
            b1c = 1.0 - ADAM_BETA1 ** step
            b2c = 1.0 - ADAM_BETA2 ** step
            for layer, g, mom in zip(model.layers, grads, moments):
                for name, param in _param_dict(layer).items():
                    if kind == "sgd":
                        param -= learning_rate * g[name]
                        continue
                    m = mom[name]["m"] = ADAM_BETA1 * mom[name]["m"] + (1 - ADAM_BETA1) * g[name]
                    v = mom[name]["v"] = ADAM_BETA2 * mom[name]["v"] + (1 - ADAM_BETA2) * g[name] ** 2
                    param -= learning_rate * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
        trace.append(float(np.mean(losses)) if losses else 0.0)
    recalibrate_batchnorm(model, x)
    model.set_eval()
    return model, trace


@dataclass(frozen=True)
class DenseTargets:
    heatmaps: np.ndarray    # (K, W', D')
    height: np.ndarray      # (W', D')
    velocity: np.ndarray    # (W', D', 2)
    extent: np.ndarray      # (W', D', 3)
    valid_mask: np.ndarray  # (W', D') bool


def render_bev_targets_reference(center, class_id, extent, velocity, spec, num_channels,
                                 peak_scale=None):
    """Dense per-object painting: the grids ``render_bev_targets`` must densify to.

    Each object paints its cut-off Gaussian patch into the dense heatmap with
    ``np.maximum`` and writes height, velocity and extent at its center cell,
    later objects overwriting earlier ones.
    """
    center = np.reshape(np.asarray(center, dtype=np.float64), (-1, 3))
    class_id = np.asarray(class_id, dtype=np.int64)
    extent = np.reshape(np.asarray(extent, dtype=np.float64), (-1, 3))
    velocity = np.reshape(np.asarray(velocity, dtype=np.float64), (-1, 2))
    scale = np.ones(len(center)) if peak_scale is None else np.asarray(peak_scale, float)
    hm = np.zeros((num_channels, spec.bev_width, spec.bev_depth))
    height = np.zeros((spec.bev_width, spec.bev_depth))
    vel_map = np.zeros((spec.bev_width, spec.bev_depth, 2))
    ext_map = np.zeros((spec.bev_width, spec.bev_depth, 3))
    valid = np.zeros((spec.bev_width, spec.bev_depth), dtype=bool)
    cs = spec.bev_cell_size
    cell_x, cell_y = spec.bev_cell_of(center)
    for i in range(len(center)):
        cx, cy = int(cell_x[i]), int(cell_y[i])
        sigma = heatmap_sigma(extent[i], spec)
        reach = int(np.ceil(GAUSSIAN_CUTOFF_SIGMAS * sigma / cs))
        x_lo, x_hi = max(0, cx - reach), min(spec.bev_width - 1, cx + reach)
        y_lo, y_hi = max(0, cy - reach), min(spec.bev_depth - 1, cy + reach)
        dx = (np.arange(x_lo, x_hi + 1) - cx)[:, None] * cs
        dy = (np.arange(y_lo, y_hi + 1) - cy)[None, :] * cs
        d2 = dx * dx + dy * dy
        patch = scale[i] * np.exp(-d2 / (2.0 * sigma * sigma))
        patch[d2 > (GAUSSIAN_CUTOFF_SIGMAS * sigma) ** 2] = 0.0
        region = hm[class_id[i], x_lo:x_hi + 1, y_lo:y_hi + 1]
        np.maximum(region, patch, out=region)
        height[cx, cy] = center[i, 2]
        vel_map[cx, cy] = velocity[i]
        ext_map[cx, cy] = extent[i]
        valid[cx, cy] = True
    return DenseTargets(hm, height, vel_map, ext_map, valid)


def simulate_detector_reference(seq, trajectories, extents, noise, spec, taxonomy, seed=0):
    """Every sweep of a sequence at once, each from ``SeedSequence(seed).spawn(n)[t]``.

    Each record's peak sits at its instance's modal center in that sweep's
    points and is rendered from the record's ``extents`` row. Returns one
    (dense targets, point semantics, generator) tuple per sweep, the
    generator as the sweep's draws left it.
    """
    class_ids = [c for c in taxonomy.class_ids if c not in taxonomy.ignore_ids]
    out = []
    for t, (sweep, sweep_seed) in enumerate(zip(seq.sweeps,
                                                np.random.SeedSequence(seed).spawn(len(seq)))):
        rng = np.random.default_rng(sweep_seed)
        sem_pred = sweep.sem_labels.astype(np.int32)
        if noise.semantic_flip_probability > 0:
            flip_semantics(sem_pred, class_ids, noise.semantic_flip_probability, rng)
        ids, first, _, centers, _ = instance_boxes(sweep.xyz, sweep.inst_labels)
        objects = []
        for row in np.flatnonzero(trajectories.sweep_index == t):
            k = int(np.flatnonzero(ids == trajectories.instance_id[row])[0])
            if rng.uniform() < noise.drop_probability:
                continue
            center = centers[k] + rng.normal(0.0, noise.center_jitter, 3) \
                if noise.center_jitter else centers[k]
            if not spec.in_range(center[None, :])[0]:
                continue
            conf = float(np.clip(1.0 - abs(rng.normal(0.0, noise.confidence_noise)), 0.05, 1.0)) \
                if noise.confidence_noise else 1.0
            vel = trajectories.velocity[row]
            if noise.velocity_noise:
                vel = vel + rng.normal(0.0, noise.velocity_noise, 2)
            objects.append((center, sweep.sem_labels[first[k]], extents[row], vel, conf))
        center, cls, extent, vel, conf = (list(col) for col in zip(*objects)) if objects \
            else ([], [], [], [], [])
        dense = render_bev_targets_reference(center, cls, extent, vel, spec,
                                             taxonomy.num_channels, conf)
        out.append((dense, sem_pred, rng))
    return out
