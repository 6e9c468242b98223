import numpy as np
import pytest

from modalpanoptic.cloud import ClassDef, PointCloudSweep, SweepSequence, Taxonomy
from modalpanoptic.inference import fuse_panoptic, nms_detect
from modalpanoptic.membership import (
    PairTable,
    gather_pairs,
    nn_baseline,
    nn_scores,
    oracle_scores,
)
from modalpanoptic.targets import BevTargets, build_trajectories
from modalpanoptic.tracking import SweepInputs
from modalpanoptic.voxels import GridSpec

from fakes import make_table_membership, row, sparse_of, stack, yaw_pose
from oracles import fuse_reference, nms_detect_reference

TAX = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "ped", "thing"),
                ClassDef(3, "road", "stuff")), 5)
SPEC = GridSpec((0.5, 0.5, 0.5), 8.0, -2.0, 2.0, 2)  # 32x32 voxels, 16x16 BEV


def maps_of(heat, height=None, velocity=None, extent=None):
    k = TAX.num_channels
    hm = np.zeros((k, SPEC.bev_width, SPEC.bev_depth))
    for cid, grid in heat.items():
        hm[cid] = grid
    return BevTargets(
        sparse_of(hm),
        sparse_of(np.zeros((SPEC.bev_width, SPEC.bev_depth)) if height is None else height),
        sparse_of(np.zeros((SPEC.bev_width, SPEC.bev_depth, 2)) if velocity is None else velocity,
                  vector=True),
        sparse_of(np.zeros((SPEC.bev_width, SPEC.bev_depth, 3)) if extent is None else extent,
                  vector=True),
    )


class TestNmsDetect:
    def test_single_peak(self):
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        grid[5, 7] = 0.9
        grid[5, 8] = 0.5
        maps = maps_of({1: grid})
        dets = nms_detect(maps, SPEC, 0.3, 10)
        assert len(dets) == 1
        assert dets.confidence[0] == 0.9
        assert dets.class_id[0] == 1
        np.testing.assert_allclose(dets.center[0, :2], SPEC.bev_cell_center(5, 7))

    def test_uniform_zero_gives_nothing(self):
        dets = nms_detect(maps_of({}), SPEC)
        assert len(dets) == 0

    def test_two_separated_peaks_match_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        for cx, cy, peak in [(4, 4, 0.9), (4, 14, 0.7)]:
            for i in range(SPEC.bev_width):
                for j in range(SPEC.bev_depth):
                    d2 = (i - cx) ** 2 + (j - cy) ** 2
                    grid[i, j] = max(grid[i, j], peak * np.exp(-d2 / 4.0))
        maps = maps_of({1: grid})
        dets = nms_detect(maps, SPEC, 0.3, 10)
        # Exhaustive local-maximum scan.
        want = []
        for i in range(SPEC.bev_width):
            for j in range(SPEC.bev_depth):
                window = grid[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
                if grid[i, j] > 0.3 and grid[i, j] == window.max():
                    want.append((i, j))
        got = {SPEC.bev_cell_of(d.center[:2]) for d in dets}
        assert got == set(want) == {(4, 4), (4, 14)}

    def test_threshold_strict(self):
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        grid[3, 3] = 0.3
        dets = nms_detect(maps_of({1: grid}), SPEC, 0.3, 10)
        assert len(dets) == 0

    def test_max_detections_keeps_strongest(self):
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        peaks = [(2, 2, 0.9), (2, 10, 0.8), (10, 2, 0.7), (10, 10, 0.6)]
        for i, j, v in peaks:
            grid[i, j] = v
        dets = nms_detect(maps_of({1: grid}), SPEC, 0.3, 2)
        assert [d.confidence for d in dets] == [0.9, 0.8]

    def test_height_and_extent_lookup(self):
        # Each peak reads the height, extent and velocity listed at its own
        # cell, whatever a same-class cell nearby lists; a peak at an unlisted
        # cell reads 0.0.
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        grid[5, 7], grid[5, 9], grid[12, 3] = 0.9, 0.8, 0.7
        height = np.zeros_like(grid)
        height[5, 7], height[5, 9] = 1.25, -0.5
        extent = np.zeros((SPEC.bev_width, SPEC.bev_depth, 3))
        extent[5, 7] = [2.0, 1.0, 0.5]
        extent[5, 8] = [0.3, 0.3, 0.3]   # one cell from both peaks, no peak of its own
        extent[5, 9] = [0.4, 0.5, 0.9]
        extent[12, 4] = [1.5, 1.5, 1.5]  # beside the peak at (12, 3), which lists nothing
        velocity = np.zeros((SPEC.bev_width, SPEC.bev_depth, 2))
        velocity[5, 7] = [3.0, -1.5]
        velocity[5, 8] = [9.0, 9.0]      # one cell from both peaks, no peak of its own
        velocity[5, 9] = [0.0, 0.25]     # one zero component: the cell is still listed
        velocity[12, 2] = [-4.0, 2.0]    # beside the peak at (12, 3), which lists nothing
        dets = nms_detect(maps_of({1: grid}, height=height, extent=extent, velocity=velocity),
                          SPEC, 0.3, 10)
        assert dets.class_id.tolist() == [1, 1, 1]
        assert dets.center[:, 2].tolist() == [1.25, -0.5, 0.0]
        np.testing.assert_array_equal(dets.extent, [[2.0, 1.0, 0.5], [0.4, 0.5, 0.9],
                                                    [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(dets.velocity, [[3.0, -1.5], [0.0, 0.25], [0.0, 0.0]])
        assert [r.velocity.tolist() for r in dets] == dets.velocity.tolist()

    def test_sorted_by_decreasing_confidence(self):
        rng = np.random.default_rng(1)
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        for _ in range(6):
            i, j = rng.integers(1, 15, 2) * 1
            grid[i, j] = max(grid[i, j], rng.uniform(0.35, 1.0))
        dets = nms_detect(maps_of({1: grid}), SPEC, 0.3, 50)
        confs = [d.confidence for d in dets]
        assert confs == sorted(confs, reverse=True)


class TestPredictedMapsRange:
    """``BevTargets``, the one first-stage map type, checks its heatmap range and shapes."""

    @pytest.mark.parametrize("cells", [[], [0.5, 1.0], [1.5], [-0.1], [np.nan], [np.nan, 2.0],
                                       [0.5, -np.inf], [np.inf]])
    def test_accepts_what_a_dense_scan_accepts(self, cells):
        hm = np.zeros((TAX.num_channels, SPEC.bev_width, SPEC.bev_depth))
        hm[1].reshape(-1)[:len(cells)] = cells
        if hm.min(initial=0.0) < 0 or hm.max(initial=0.0) > 1:
            with pytest.raises(ValueError, match=r"heatmap values must lie in \[0, 1\]"):
                maps_of({1: hm[1]})
        else:
            assert maps_of({1: hm[1]}).heatmaps.keys.size == np.count_nonzero(hm)

    @pytest.mark.parametrize("field, shape", [("height", (16, 15)), ("velocity", (16, 16, 3)),
                                              ("extent", (16, 16, 2)), ("extent", (16, 16))])
    def test_box_maps_must_match_the_heatmaps(self, field, shape):
        with pytest.raises(ValueError, match="shapes do not match the heatmaps"):
            maps_of({}, **{field: np.ones(shape)})


def assert_same_detections(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.center.tobytes() == w.center.tobytes()
        assert g.extent.tobytes() == w.extent.tobytes()
        assert g.velocity.tobytes() == w.velocity.tobytes()
        assert (g.confidence, g.class_id) == (w.confidence, w.class_id)
        assert type(g.confidence) is float and type(g.class_id) is int


def check_nms_against_reference(hm, threshold=0.3, max_detections=500):
    _, w, d = hm.shape
    rng = np.random.default_rng(0)
    height = rng.normal(size=(w, d))
    # Every fourth cell lists no extent and, independently, no velocity, so
    # peaks there read 0.0.
    extent = rng.uniform(0.1, 2.0, size=(w, d, 3)) * (rng.uniform(size=(w, d, 1)) < 0.75)
    velocity = np.where(rng.uniform(size=(w, d, 1)) < 0.75, rng.normal(size=(w, d, 2)), 0.0)
    maps = BevTargets(sparse_of(hm), sparse_of(height), sparse_of(velocity, True),
                      sparse_of(extent, True))
    want = nms_detect_reference(hm, height, extent, velocity, SPEC, threshold, max_detections)
    got = nms_detect(maps, SPEC, threshold, max_detections)
    assert_same_detections(got, want)
    return got


class TestNmsMatchesDenseReference:
    """Peak-only NMS against the dense 3x3 max-pool in ``oracles``."""

    SHAPE = (TAX.num_channels, SPEC.bev_width, SPEC.bev_depth)

    def test_random_multichannel_maps(self):
        rng = np.random.default_rng(42)
        found = 0
        for trial in range(300):
            hm = rng.uniform(size=self.SHAPE) * (rng.uniform(size=self.SHAPE) < rng.uniform())
            if trial % 2:
                hm = np.round(hm * 4) / 4  # coarse levels: many ties and plateaus
            threshold = float(rng.choice([0.0, 0.25, 0.3, 0.5, 0.75]))
            max_det = int(rng.choice([1, 5, 500]))
            found += len(check_nms_against_reference(hm, threshold, max_det))
        assert found > 1000

    def test_plateau_of_equal_neighbours(self):
        hm = np.zeros(self.SHAPE)
        hm[1, 4:7, 4:7] = 0.8
        hm[2, 9:11, 2] = 0.6
        hm[2, 10, 3] = 0.6
        dets = check_nms_against_reference(hm)
        assert len(dets) == 9 + 3

    def test_border_and_corner_peaks(self):
        hm = np.zeros(self.SHAPE)
        w, d = SPEC.bev_width - 1, SPEC.bev_depth - 1
        for i, (x, y) in enumerate([(0, 0), (0, d), (w, 0), (w, d), (0, 7), (w, 8), (5, 0),
                                    (9, d)]):
            hm[1, x, y] = 0.9 - 0.05 * i
        hm[2, 0, 1] = 0.7   # a border cell beside a higher corner: not a peak
        hm[2, 0, 0] = 0.8
        dets = check_nms_against_reference(hm)
        assert len(dets) == 9

    def test_value_exactly_at_threshold(self):
        hm = np.zeros(self.SHAPE)
        hm[1, 3, 3] = 0.3
        hm[1, 8, 8] = np.nextafter(0.3, 1.0)
        hm[2, 8, 9] = 0.3   # the threshold value beside a peak of another channel
        dets = check_nms_against_reference(hm, threshold=0.3)
        assert [(d.class_id, d.confidence) for d in dets] == [(1, np.nextafter(0.3, 1.0))]

    def test_same_cell_peaks_in_two_channels(self):
        hm = np.zeros(self.SHAPE)
        hm[1, 6, 6] = hm[2, 6, 6] = 0.7
        hm[3, 6, 6] = 0.9
        hm[3, 6, 7] = 0.95
        dets = check_nms_against_reference(hm)
        assert [d.class_id for d in dets] == [3, 1, 2]

    @pytest.mark.parametrize("max_det", [-1, 0, 1, 3, 4, 500])
    def test_max_detections_cut(self, max_det):
        hm = np.zeros(self.SHAPE)
        for i, (x, y) in enumerate([(2, 2), (2, 10), (10, 2), (10, 10)]):
            hm[1 + i % 2, x, y] = 0.6   # equal confidences: order falls to class, x, y
        dets = check_nms_against_reference(hm, max_detections=max_det)
        assert len(dets) == min(max(max_det, 0), 4)

    def test_all_zero_map(self):
        assert len(check_nms_against_reference(np.zeros(self.SHAPE))) == 0

    @pytest.mark.parametrize("threshold", [-1.0, 0.1])
    def test_every_cell_above_threshold(self, threshold):
        rng = np.random.default_rng(5)
        hm = np.round(rng.uniform(0.2, 1.0, size=self.SHAPE), 1)
        everything = 10 ** 6
        assert check_nms_against_reference(hm, threshold, everything)
        uniform = check_nms_against_reference(np.full(self.SHAPE, 0.5), threshold, everything)
        assert len(uniform) == np.prod(self.SHAPE)

    def test_negative_threshold_counts_unlisted_cells(self):
        hm = np.zeros(self.SHAPE)
        hm[1, 5, 5] = 0.9
        hm[2, 0, 0] = 0.4
        dets = check_nms_against_reference(hm, threshold=-0.5, max_detections=10 ** 6)
        # Every zero cell away from the two peaks is a 3x3 maximum above -0.5.
        assert len(dets) == np.prod(self.SHAPE) - 8 - 3

    @pytest.mark.parametrize("threshold", [0.3, -1.0])
    def test_key_neighbours_across_row_and_channel_ends(self, threshold):
        # Each pair is adjacent in key order but not in the grid: the higher
        # cell must not veto the lower one, whichever comes first.
        hm = np.zeros(self.SHAPE)
        k, w, d = self.SHAPE
        hm[1, 5, d - 1], hm[1, 6, 0] = 0.6, 0.9   # row end, then a higher row start
        hm[1, 8, d - 1], hm[1, 9, 0] = 0.9, 0.6   # a higher row end, then row start
        hm[1, w - 1, d - 1], hm[2, 0, 0] = 0.5, 0.8   # channel end, then next channel
        hm[2, w - 1, d - 1], hm[3, 0, 0] = 0.8, 0.5
        hm[0, 0, 0], hm[k - 1, w - 1, d - 1] = 0.7, 0.65  # the first and last keys
        dets = check_nms_against_reference(hm, threshold, max_detections=10 ** 6)
        assert {(c, v) for c, v in zip(dets.class_id.tolist(), dets.confidence.tolist())
                if v > 0} == {(1, 0.6), (1, 0.9), (1, 0.5), (2, 0.8), (3, 0.5), (0, 0.7),
                              (k - 1, 0.65)}
        assert np.count_nonzero(dets.confidence) == 10

    def test_nan_cell(self):
        hm = np.zeros(self.SHAPE)
        hm[1, 5, 5] = 0.9
        hm[1, 5, 6] = np.nan   # vetoes its neighbour's peak in both versions
        hm[1, 10, 10] = np.nan
        hm[2, 5, 5] = 0.8      # other channels are unaffected
        hm[1, 12, 3] = 0.7
        dets = check_nms_against_reference(hm)
        assert [(d.class_id, d.confidence) for d in dets] == [(2, 0.8), (1, 0.7)]


def random_fusion_case(rng, n_points=60, n_dets=4, include_half=False):
    pts = rng.uniform(-6, 6, size=(n_points, 3)) * [1, 1, 0.25]
    sems = rng.choice([1, 2, 3], size=n_points)
    rows = []
    confs = np.sort(rng.uniform(0.3, 1.0, n_dets))[::-1]
    for d in range(n_dets):
        rows.append((rng.uniform(-5, 5, 3) * [1, 1, 0.2], float(confs[d]),
                     int(rng.integers(1, 3)), rng.uniform(0.5, 2.5, 3)))
    dets = stack(rows)
    table = rng.uniform(0, 1, size=(n_dets, n_points))
    if include_half:
        table[rng.uniform(size=table.shape) < 0.15] = 0.5  # exact boundary cells
    return pts, sems, dets, table


class TestFusePanoptic:
    def test_stuff_only_scene(self):
        pts = np.zeros((4, 3))
        result = fuse_panoptic(pts, stack([]), [3, 3, 3, 3],
                               make_table_membership(np.zeros((0, 4))), TAX, margin_floor=0.1)
        np.testing.assert_array_equal(result.sem, [3, 3, 3, 3])
        np.testing.assert_array_equal(result.inst, [0, 0, 0, 0])

    def test_single_instance_and_boundary_strictness(self):
        pts = np.array([[0.0, 0, 0], [0.2, 0, 0], [0.4, 0, 0], [5.0, 0, 0]])
        sems = [1, 1, 1, 3]
        det = row(np.array([0.2, 0, 0]), 0.9)
        table = np.array([[0.9, 0.500000, 0.51, 0.9]])  # membership 0.5 exactly -> out
        result = fuse_panoptic(pts, stack([det]), sems, make_table_membership(table), TAX,
                               margin_floor=0.1)
        np.testing.assert_array_equal(result.inst, [1, 0, 1, 0])
        assert result.sem[1] == 1  # falls back to predicted semantics
        assert result.sem[3] == 3

    def test_class_mismatch_filtered(self):
        pts = np.zeros((2, 3))
        det = row(np.zeros(3), 0.9)
        table = np.ones((1, 2))
        result = fuse_panoptic(pts, stack([det]), [2, 1], make_table_membership(table), TAX,
                               margin_floor=0.1)
        np.testing.assert_array_equal(result.inst, [0, 1])

    def test_confident_detection_wins_contested_points(self):
        pts = np.zeros((1, 3))
        d1 = row(np.array([0.1, 0, 0]), 0.9)
        d2 = row(np.array([-0.1, 0, 0]), 0.6)
        table = np.array([[0.7], [0.99]])
        result = fuse_panoptic(pts, stack([d1, d2]), [1], make_table_membership(table), TAX,
                               margin_floor=0.1)
        assert result.point_detection[0] == 0  # first (more confident) keeps it

    def test_argmax_mode_prefers_higher_membership(self):
        pts = np.zeros((1, 3))
        d1 = row(np.array([0.1, 0, 0]), 0.9)
        d2 = row(np.array([-0.1, 0, 0]), 0.6)
        table = np.array([[0.7], [0.99]])
        result = fuse_panoptic(pts, stack([d1, d2]), [1], make_table_membership(table), TAX,
                               margin_floor=0.1, conflict="argmax")
        assert result.point_detection[0] == 1

    def test_matches_line_by_line_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            pts, sems, dets, table = random_fusion_case(
                rng, n_points=int(rng.integers(20, 80)),
                n_dets=int(rng.integers(1, 6)), include_half=True)
            got = fuse_panoptic(pts, dets, sems, make_table_membership(table), TAX,
                                margin_frac=0.1, margin_floor=0.1)
            want_sem, want_inst = fuse_reference(pts, sems, dets, table,
                                                 set(TAX.thing_ids),
                                                 margin_frac=0.1, margin_floor=0.1)
            np.testing.assert_array_equal(got.sem, want_sem, err_msg=f"trial {trial}")
            np.testing.assert_array_equal(got.inst, want_inst, err_msg=f"trial {trial}")

    def test_fusion_invariants_on_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pts, sems, dets, table = random_fusion_case(rng)
            result = fuse_panoptic(pts, dets, sems, make_table_membership(table), TAX,
                                   margin_floor=0.1)
            result.labeling.validate(TAX)
            inst = result.inst
            assert len(np.unique(inst[inst > 0])) <= len(dets)
            thing = np.isin(result.sem, list(TAX.thing_ids))
            assert np.all(inst[~thing] == 0)
            # Claimed points really were in RoI with matching class and > 0.5.
            rows = list(dets)
            for i in np.flatnonzero(result.point_detection >= 0):
                d = result.point_detection[i]
                det = rows[d]
                radius = det.extent + np.maximum(0.1 * det.extent, 0.1)
                assert np.all(np.abs(pts[i] - det.center) < radius)
                assert sems[i] == det.class_id
                assert table[d, i] > 0.5

    def test_determinism(self):
        rng = np.random.default_rng(4)
        pts, sems, dets, table = random_fusion_case(rng)
        a = fuse_panoptic(pts, dets, sems, make_table_membership(table), TAX, margin_floor=0.1)
        b = fuse_panoptic(pts, dets, sems, make_table_membership(table), TAX, margin_floor=0.1)
        np.testing.assert_array_equal(a.sem, b.sem)
        np.testing.assert_array_equal(a.inst, b.inst)


def inputs_of(pts, sems, inst=None, pose=None):
    pts = np.asarray(pts, dtype=float)
    inst = np.zeros(len(pts)) if inst is None else inst
    sweep = PointCloudSweep(0.0, np.column_stack([pts, np.zeros(len(pts))]), sems, inst,
                            np.eye(4) if pose is None else pose)
    table = build_trajectories(SweepSequence((sweep,), 1.0), TAX)
    return SweepInputs(sweep, maps_of({}), np.asarray(sems), table, 0)


def one_group(n_points):
    """All points paired with detection 0."""
    return PairTable(np.zeros(n_points, dtype=np.int64), np.arange(n_points),
                     np.array([0, n_points]), margin_floor=0.1)


class TestMembershipAdapters:
    def test_nn_membership_is_indicator_of_assignment(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, size=(30, 3))
        sems = rng.choice([1, 2], size=30)
        dets = stack((rng.uniform(-2, 2, 3), 0.9, int(rng.integers(1, 3)), rng.uniform(1, 2, 3))
                     for _ in range(3))
        pairs = gather_pairs(pts, sems, dets, margin_floor=0.1)
        probs = nn_scores(inputs_of(pts, sems), dets, pairs)
        assert set(np.unique(probs)) <= {0.0, 1.0}
        np.testing.assert_array_equal(
            probs, nn_baseline(pts, sems, dets, margin_floor=0.1)[pairs.point] == pairs.det)

    def test_oracle_membership_claims_source_instance(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [3.0, 0, 0]])
        gt_inst = np.array([7, 7, 9])
        det = row(np.array([0.05, 0, 0]), 1.0)
        probs = oracle_scores(inputs_of(pts, [1, 1, 1], gt_inst), stack([det]), one_group(3))
        np.testing.assert_array_equal(probs, [1.0, 1.0, 0.0])

    def test_oracle_membership_reads_the_sensor_frame(self):
        # The sensor sits 10 m along x and turned a quarter circle in the world;
        # detections live in the sensor frame, so the sources must too.
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [3.0, 0, 0]])
        det = row(np.array([0.05, 0, 0]), 1.0)
        pose = yaw_pose(np.pi / 2, [10.0, 0.0, 0.0])
        probs = oracle_scores(inputs_of(pts, [1, 1, 1], np.array([7, 7, 9]), pose),
                              stack([det]), one_group(3))
        np.testing.assert_array_equal(probs, [1.0, 1.0, 0.0])

    def test_oracle_membership_reads_only_its_sweep(self):
        # Instance 9 sat on the detection in sweep 0 and is 5 m away in sweep 1,
        # where instance 7 is the nearest source.
        xyz = ([[0.0, 0, 0], [0.1, 0, 0]], [[0.6, 0, 0], [0.7, 0, 0], [5.0, 0, 0], [5.1, 0, 0]])
        ids = ([9, 9], [7, 7, 9, 9])
        sweeps = tuple(PointCloudSweep(float(t), np.column_stack([xyz[t], np.zeros(len(xyz[t]))]),
                                       np.ones(len(ids[t])), ids[t]) for t in (0, 1))
        table = build_trajectories(SweepSequence(sweeps, 1.0), TAX)
        inputs = SweepInputs(sweeps[1], maps_of({}), np.ones(4), table, 1)
        probs = oracle_scores(inputs, stack([row(np.array([0.05, 0, 0]), 1.0)]), one_group(4))
        np.testing.assert_array_equal(probs, [1.0, 1.0, 0.0, 0.0])

    def test_oracle_membership_unmatched_detection_claims_nothing(self):
        pts = np.zeros((2, 3))
        det = row(np.array([10.0, 0, 0]), 1.0)
        probs = oracle_scores(inputs_of(pts, [1, 1], np.array([1, 1])), stack([det]),
                              one_group(2))
        np.testing.assert_array_equal(probs, [0.0, 0.0])
