"""Brute-force reference implementations the test suite checks against.

Everything here is written as plainly as possible (explicit loops, sets,
dicts) and stays independent of the library's vectorized code paths.
"""

from __future__ import annotations

import math

import numpy as np

from modalpanoptic.membership import PairTable
from modalpanoptic.tracking import MAX_TRACK_ID, TrackIdOverflow, Tracklet

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


def nms_detect_reference(maps, spec, extent_provider, threshold=0.3, max_detections=500):
    """Dense 3x3 max-pooling NMS: the peak rule ``nms_detect`` must reproduce.

    Every cell of every channel is compared with the maximum of its 3x3
    neighborhood (``-inf`` beyond the grid); peaks strictly above the
    threshold are ordered by (-confidence, class, x, y) and cut at
    ``max_detections``.
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
    rows = []
    for c, x, y in zip(cls[order], ix[order], iy[order]):
        if len(rows) >= max_detections:
            break
        xy = spec.bev_cell_center(int(x), int(y))
        center = np.array([xy[0], xy[1], maps.height[x, y]])
        extent = extent_provider.extents_for(np.array([c]), center[None, :])[0]
        rows.append((center, float(hm[c, x, y]), int(c), extent))
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
                               next_track_id, gates=None, default_gate=2.0, max_age=2):
    """Tuple-sort greedy matching: the association contract, one pair at a time.

    Every same-class (track, detection) pair within the gate becomes a tuple
    (distance, track id, detection, track); tuples are consumed in sorted
    order, one detection per track. Mutates ``tracks`` like the library does.
    """
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
            tr.age = 0
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
            tr.age += 1
            if tr.age <= max_age:
                alive.append(tr)
    return alive, det_track, next_track_id
