import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modalpanoptic as mp
from modalpanoptic.cloud import ClassDef, PointCloudSweep, SweepSequence, Taxonomy
from modalpanoptic.targets import (
    CWM,
    DSB,
    MAX,
    SW,
    ExtentStrategy,
    Trajectories,
    aggregate_extent,
    build_trajectories,
    class_wise_mean_extents,
    heatmap_sigma,
    instance_boxes,
    modal_center,
    render_bev_targets,
    save_cwm_stats,
)
from modalpanoptic.voxels import GridSpec

from fakes import listed, rotated, yaw_pose
from oracles import (
    aggregate_extent_reference,
    build_trajectories_reference,
    render_bev_targets_reference,
    velocity_reference,
)

TAX = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "ped", "thing"),
                ClassDef(3, "road", "stuff")), 10)
SPEC = GridSpec(voxel_size=(0.1, 0.1, 0.2), planar_range=20.0, z_min=-2.0, z_max=2.0,
                bev_downsample=4)
PROPERTY = settings(max_examples=60, deadline=None)


def record(iid, cid, center, extent, count=10, idx=0, sensor=None):
    """One (instance, sweep) row: id, sweep, class, point count, center, extent, then the
    sensor-frame center, which is the world one unless ``sensor`` gives it."""
    return (iid, idx, cid, count, np.asarray(center, float), np.asarray(extent, float),
            np.asarray(center if sensor is None else sensor, float))


def traj(records):
    """A table of the given rows, sorted by (instance, sweep), with zero velocities."""
    iid, sweep, cid, count, center, extent, sensor_center = zip(*records)
    return Trajectories(iid, sweep, cid, count, np.reshape(center, (-1, 3)),
                        np.reshape(extent, (-1, 3)), np.array(sensor_center),
                        np.zeros((len(records), 2)))


def extent_sw(points, center):
    """The one shrink-wrapped extent of a single labeled point set, via ``instance_boxes``."""
    pts = np.asarray(points, dtype=np.float64)
    _, _, _, got_center, extent = instance_boxes(pts, np.ones(len(pts), dtype=np.int64))
    np.testing.assert_array_equal(got_center[0], center)
    return extent[0]


def point_sequence(centers, period=0.5):
    """Car 1 as one point per sweep at each center: its modal centers are exact."""
    sweeps = [PointCloudSweep(period * t, [[*c, 0.0]], [1], [1])
              for t, c in enumerate(centers)]
    return SweepSequence(tuple(sweeps), period)


def boxes_of(records, spec=SPEC):
    """``render_bev_targets``' (center, class, extent, velocity) columns of ``record`` rows."""
    _, _, cid, _, center, extent, _ = zip(*records)
    return (np.reshape(center, (-1, 3)), np.array(cid), np.reshape(extent, (-1, 3)),
            np.zeros((len(records), 2)))


class TestModalCenter:
    def test_single_point(self):
        np.testing.assert_array_equal(modal_center(np.array([[1.0, 2.0, 3.0]])), [1, 2, 3])

    def test_symmetric_pair(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        np.testing.assert_array_equal(modal_center(pts), [0, 0, 0])

    def test_matches_running_sum(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(100, 3))
        acc = np.zeros(3)
        for p in pts:
            acc += p
        np.testing.assert_allclose(modal_center(pts), acc / 100, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            modal_center(np.zeros((0, 3)))


class TestExtentSw:
    def test_single_point_zero(self):
        np.testing.assert_array_equal(extent_sw(np.array([[2.0, 1.0, 0.5]]), [2.0, 1.0, 0.5]),
                                      [0, 0, 0])

    def test_symmetric_pair(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        np.testing.assert_array_equal(extent_sw(pts, np.zeros(3)), [1, 0, 0])

    def test_front_face_underestimates_length(self):
        # Only the front bumper plane of a 4.5 m car is visible.
        rng = np.random.default_rng(1)
        n = 200
        pts = np.column_stack([
            np.full(n, 2.25),
            rng.uniform(-1.0, 1.0, n),
            rng.uniform(0.0, 1.5, n),
        ])
        c = modal_center(pts)
        r = extent_sw(pts, c)
        assert r[0] < 0.01  # x half-extent collapses, truth is 2.25
        assert r[1] > 0.9


class TestAggregateExtent:
    def test_max_takes_componentwise_max(self):
        records = [record(1, 1, [0, 0, 0], [x, 1.0, 0.5], idx=i)
                   for i, x in enumerate([0.4, 2.1, 1.0])]
        extents, excluded = aggregate_extent(traj(records), ExtentStrategy(MAX))
        np.testing.assert_allclose(extents[:, 0], [2.1, 2.1, 2.1])
        assert not excluded.any()

    def test_single_sweep_max_equals_sw(self):
        records = [record(1, 1, [0, 0, 0], [0.7, 0.3, 0.2])]
        for_max, _ = aggregate_extent(traj(records), ExtentStrategy(MAX))
        for_sw, _ = aggregate_extent(traj(records), ExtentStrategy(SW))
        np.testing.assert_array_equal(for_max, for_sw)

    def test_dsb_flags_small_instances(self):
        records = [record(1, 1, [0, 0, 0], [0.1, 0.1, 0.1], count=2)]
        extents, excluded = aggregate_extent(traj(records), ExtentStrategy(DSB, dsb_min_points=5))
        assert excluded.tolist() == [True]
        np.testing.assert_array_equal(extents, [[0.1, 0.1, 0.1]])

    def test_cwm_replaces_small(self):
        stats = {1: np.array([2.0, 1.0, 0.8])}
        records = [
            record(1, 1, [0, 0, 0], [0.2, 0.1, 0.1], idx=0),       # max comp 0.2 < 0.25*2.0
            record(1, 1, [1, 0, 0], [1.9, 0.9, 0.7], idx=1),
        ]
        extents, _ = aggregate_extent(traj(records), ExtentStrategy(CWM, cwm_stats=stats))
        np.testing.assert_array_equal(extents[0], stats[1])
        np.testing.assert_array_equal(extents[1], [1.9, 0.9, 0.7])

    def test_max_dominates_sw_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = rng.integers(1, 8)
            records = [record(1, 1, [0, 0, 0], rng.uniform(0.05, 2.0, 3), idx=i)
                       for i in range(n)]
            t = traj(records)
            max_ext, _ = aggregate_extent(t, ExtentStrategy(MAX))
            sw_ext, _ = aggregate_extent(t, ExtentStrategy(SW))
            assert np.all(max_ext >= sw_ext - 1e-15)

    def test_strategy_field_validation(self):
        with pytest.raises(ValueError):
            ExtentStrategy(DSB)
        with pytest.raises(ValueError):
            ExtentStrategy(CWM)
        with pytest.raises(ValueError):
            ExtentStrategy(SW, dsb_min_points=3)


class TestClassWiseMean:
    def test_one_trajectory(self):
        t = traj([record(1, 1, [0, 0, 0], [2.0, 1.0, 1.0])])
        stats = class_wise_mean_extents(t, TAX)
        np.testing.assert_array_equal(stats[1], [2.0, 1.0, 1.0])

    def test_mean_of_two(self):
        t1 = traj([record(1, 1, [0, 0, 0], [2.0, 1.0, 1.0])])
        t2 = traj([record(2, 1, [0, 0, 0], [4.0, 1.0, 1.0])])
        stats = class_wise_mean_extents([t1, t2], TAX)
        np.testing.assert_array_equal(stats[1], [3.0, 1.0, 1.0])

    def test_unseen_class_absent(self):
        t = traj([record(1, 1, [0, 0, 0], [2.0, 1.0, 1.0])])
        stats = class_wise_mean_extents(t, TAX)
        assert 2 not in stats

    def test_sampled_corpus_mean(self):
        rng = np.random.default_rng(3)
        true_mean = np.array([2.0, 0.9, 0.7])
        records = []
        for i in range(400):
            ext = rng.normal(true_mean, 0.1)
            records.append(record(i, 1, [0, 0, 0], np.abs(ext)))
        stats = class_wise_mean_extents(traj(records), TAX)
        np.testing.assert_allclose(stats[1], true_mean, atol=0.05)

    def test_sidecar_roundtrip(self, tmp_path):
        stats = {1: np.array([2.0, 1.0, 0.5]), 2: np.array([0.3, 0.3, 0.9])}
        f = tmp_path / "cwm.tsv"
        save_cwm_stats(stats, f)
        loaded = {int(cid): np.array([float(v) for v in values])
                  for cid, *values in (line.split("\t") for line in f.read_text().splitlines())}
        assert set(loaded) == {1, 2}
        for cid in stats:
            np.testing.assert_array_equal(loaded[cid], stats[cid])


def cell_center(spec, ix, iy):
    return spec.bev_cell_center(ix, iy)


class TestRenderBevTargets:
    def test_peak_exactly_one(self):
        center_xy = cell_center(SPEC, 50, 60)
        inst = record(1, 1, [center_xy[0], center_xy[1], 0.5], [1.0, 0.5, 0.4])
        out = render_bev_targets(*boxes_of([inst]), SPEC, TAX.num_channels)
        assert out.heatmaps.dense()[1, 50, 60] == 1.0
        assert out.heatmaps.dense()[1].max() == 1.0
        assert out.heatmaps.dense()[[0, 2, 3]].max() == 0.0
        # The box row is z, half extent, velocity, at the peak's (class, x, y) key.
        assert out.boxes.dense()[1, 50, 60].tolist() == [0.5, 1.0, 0.5, 0.4, 0.0, 0.0]
        assert out.boxes.keys.tolist() == [(1 * SPEC.bev_width + 50) * SPEC.bev_depth + 60]

    def test_value_at_sigma(self):
        center_xy = cell_center(SPEC, 50, 60)
        extent = np.array([0.3, 0.2, 0.5])  # small: sigma hits the 2-cell floor
        inst = record(1, 1, [center_xy[0], center_xy[1], 0.0], extent)
        out = render_bev_targets(*boxes_of([inst]), SPEC, TAX.num_channels)
        sigma = heatmap_sigma(extent, SPEC)
        assert sigma == 2.0 * SPEC.bev_cell_size
        got = out.heatmaps.dense()[1, 52, 60]  # two cells away = one sigma, bitwise
        np.testing.assert_allclose(got, np.exp(-0.5), atol=1e-9)

    def test_overlap_max_against_two_pass(self):
        a_xy = cell_center(SPEC, 50, 60)
        b_xy = cell_center(SPEC, 52, 60)
        a = record(1, 1, [a_xy[0], a_xy[1], 0.0], [1.0, 1.0, 0.5], idx=0)
        b = record(2, 1, [b_xy[0], b_xy[1], 0.0], [1.2, 0.9, 0.5], idx=0)
        both = render_bev_targets(*boxes_of([a, b]), SPEC, TAX.num_channels)
        only_a = render_bev_targets(*boxes_of([a]), SPEC, TAX.num_channels)
        only_b = render_bev_targets(*boxes_of([b]), SPEC, TAX.num_channels)
        np.testing.assert_allclose(both.heatmaps.dense(), np.maximum(only_a.heatmaps.dense(),
                                                                     only_b.heatmaps.dense()),
                                   atol=0)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(4)
        instances = []
        for i in range(6):
            xy = rng.uniform(-15, 15, 2)
            instances.append(record(i, int(rng.integers(1, 3)), [xy[0], xy[1], 0.0],
                                    rng.uniform(0.1, 2.0, 3), idx=0))
        out = render_bev_targets(*boxes_of(instances), SPEC, TAX.num_channels)
        assert out.heatmaps.dense().min() >= 0.0
        assert out.heatmaps.dense().max() <= 1.0

    def test_out_of_range_center_rejected(self):
        inst = record(1, 1, [25.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            render_bev_targets(*boxes_of([inst]), SPEC, TAX.num_channels)

    @pytest.mark.parametrize("scale", [1.5, -0.1, np.nan, np.inf])
    def test_peak_scale_outside_unit_interval_rejected(self, scale):
        xy = cell_center(SPEC, 50, 60)
        insts = [record(1, 1, [xy[0], xy[1], 0.0], [1.0, 1.0, 0.5]),
                 record(2, 1, [-xy[0], xy[1], 0.0], [1.0, 1.0, 0.5])]
        with pytest.raises(ValueError, match=r"peak_scale .*\[0, 1\]"):
            render_bev_targets(*boxes_of(insts), SPEC, TAX.num_channels,
                               peak_scale=[0.5, scale])


@st.composite
def bev_objects(draw):
    """Objects on a few shared positions: same-cell pairs, overlaps and border clipping."""
    coord = st.one_of(st.floats(-19.99, 19.99), st.sampled_from([-19.9, -19.7, 0.0, 19.7, 19.9]))
    spots = draw(st.lists(st.tuples(coord, coord, st.floats(-1.9, 1.9))
                          .filter(lambda p: np.hypot(p[0], p[1]) < SPEC.planar_range),
                          min_size=1, max_size=4))
    objects = draw(st.lists(st.tuples(
        st.sampled_from(spots), st.integers(0, TAX.num_channels - 1),
        st.lists(st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 0.3, 1.0])),
                 min_size=3, max_size=3),
        st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))), max_size=8))
    if not objects:
        return np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros((0, 2)), []
    center, cls, extent, velocity, scale = zip(*objects)
    return (np.array(center), np.array(cls), np.array(extent), np.array(velocity),
            list(scale))


class TestSparseRenderMatchesDense:
    @PROPERTY
    @given(bev_objects())
    def test_densifies_byte_for_byte(self, objects):
        center, cls, extent, velocity, scale = objects
        got = render_bev_targets(center, cls, extent, velocity, SPEC, TAX.num_channels,
                                 peak_scale=scale)
        want = render_bev_targets_reference(center, cls, extent, velocity, SPEC,
                                            TAX.num_channels, peak_scale=scale)
        assert got.heatmaps.dense().tobytes() == want.heatmaps.tobytes()
        assert got.boxes.dense().tobytes() == want.boxes.tobytes()
        assert listed(got.boxes).tobytes() == want.valid.tobytes()
        assert np.all(got.heatmaps.values > 0)

    def test_same_cell_last_writer_and_overlap_maximum(self):
        xy = cell_center(SPEC, 98, 50)  # two cells from the border: patches clip
        center = [[xy[0], xy[1], 0.5], [xy[0] + 0.1, xy[1], -0.25], [xy[0] - 0.8, xy[1], 1.0]]
        args = (center, [1, 1, 1], [[1.0, 0.8, 0.5], [1.1, 0.7, 0.6], [0.9, 0.9, 0.4]],
                [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], SPEC, TAX.num_channels)
        got = render_bev_targets(*args, peak_scale=[1.0, 0.0, 0.5])
        want = render_bev_targets_reference(*args, peak_scale=[1.0, 0.0, 0.5])
        assert got.heatmaps.dense().tobytes() == want.heatmaps.tobytes()
        assert got.boxes.dense().tobytes() == want.boxes.tobytes()
        np.testing.assert_array_equal(got.boxes.dense()[1, 98, 50],
                                      [-0.25, 1.1, 0.7, 0.6, 3.0, 4.0])
        assert got.boxes.keys.tolist() == [(100 + 96) * 100 + 50, (100 + 98) * 100 + 50]


class TestVelocityTarget:
    def test_static_zero(self):
        table = build_trajectories(point_sequence([[1.0, 2.0, 0.0]] * 3), TAX)
        np.testing.assert_array_equal(table.velocity, np.zeros((3, 2)))

    def test_centered_difference(self):
        table = build_trajectories(point_sequence([[float(i), 0.0, 0.0] for i in range(3)]), TAX)
        np.testing.assert_allclose(table.velocity[1], [2.0, 0.0])

    def test_one_sided_at_ends(self):
        table = build_trajectories(point_sequence([[float(i), 0.0, 0.0] for i in range(3)]), TAX)
        np.testing.assert_allclose(table.velocity[0], [2.0, 0.0])
        np.testing.assert_allclose(table.velocity[2], [2.0, 0.0])

    def test_single_appearance_zero(self):
        table = build_trajectories(point_sequence([[3.0, 1.0, 0.0]]), TAX)
        np.testing.assert_array_equal(table.velocity, [[0, 0]])

    def test_exact_for_constant_velocity(self):
        v = np.array([1.5, -0.5])
        table = build_trajectories(point_sequence([[v[0] * 0.5 * i, v[1] * 0.5 * i, 0.0]
                                                   for i in range(5)]), TAX)
        for t in range(1, 4):
            np.testing.assert_allclose(table.velocity[t], v, atol=1e-12)


# ---------------------------------------------------------------- the table

@st.composite
def generated_sequences(draw):
    """Crowded pass-motion or orbit-ego scenes, each optionally yaw-rotated per sweep."""
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        cfg = mp.SceneConfig(seed=seed, sweep_count=4, count_range=(6, 8), min_separation=4.0,
                             points_per_m2=60.0)
    else:
        cfg = mp.SceneConfig(seed=seed, sweep_count=4, count_range=(3, 4), min_separation=6.0,
                             ego_motion="orbit", orbit_radius=8.0, points_per_m2=60.0)
    seq, _ = mp.generate_sequence(cfg, mp.default_taxonomy())
    if draw(st.booleans()):
        seq = rotated(seq, draw(st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4)))
    return seq


@st.composite
def gappy_sequences(draw):
    """Hand-built sweeps whose instances skip sweeps, appear once, or stay throughout.

    Points lie in a random rigid sensor frame per sweep; instance ids are
    sparse and the points of a sweep come in random order.
    """
    n_sweeps = draw(st.integers(1, 6))
    n_inst = draw(st.integers(1, 4))
    present = draw(st.lists(st.lists(st.booleans(), min_size=n_sweeps, max_size=n_sweeps),
                            min_size=n_inst, max_size=n_inst))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.choice(np.arange(1, 60), n_inst, replace=False)
    classes = rng.choice([1, 2], n_inst)
    start, step = rng.uniform(-10, 10, (n_inst, 3)), rng.uniform(-1, 1, (n_inst, 3))
    sweeps = []
    for t in range(n_sweeps):
        world, sem, inst = [rng.uniform(-10, 10, (3, 3))], [np.full(3, 3)], [np.zeros(3)]
        for i in range(n_inst):
            if present[i][t]:
                n = int(rng.integers(1, 6))
                world.append(start[i] + t * step[i] + rng.normal(0.0, 0.5, (n, 3)))
                sem.append(np.full(n, classes[i]))
                inst.append(np.full(n, ids[i]))
        order = rng.permutation(sum(len(w) for w in world))
        pose = yaw_pose(rng.uniform(-np.pi, np.pi), rng.normal(0.0, 5.0, 3)) \
            if draw(st.booleans()) else np.eye(4)
        world = np.concatenate(world)[order]
        sensor = (world - pose[:3, 3]) @ pose[:3, :3]
        points = np.column_stack([sensor, np.zeros(len(order))])
        sweeps.append(PointCloudSweep(0.5 * t, points, np.concatenate(sem)[order],
                                      np.concatenate(inst)[order], pose))
    return SweepSequence(tuple(sweeps), 0.5)


def reference_rows(seq, taxonomy):
    ref = build_trajectories_reference(seq, taxonomy)
    return [(rec, cid, records) for cid, records in ref.values() for rec in records]


def assert_table_is_reference(table, seq, taxonomy):
    rows = reference_rows(seq, taxonomy)
    assert len(table) == len(rows)
    for r, (rec, _, records) in enumerate(rows):
        assert (table.instance_id[r], table.sweep_index[r], table.class_id[r],
                table.point_count[r]) == (rec.instance_id, rec.sweep_index, rec.class_id,
                                          rec.point_count)
        assert table.center[r].tobytes() == rec.center.tobytes(), r
        assert table.extent[r].tobytes() == rec.extent.tobytes(), r
        want = velocity_reference(records, rec.sweep_index, seq.period)
        assert table.velocity[r].tobytes() == want.tobytes(), r
    # The sensor-frame centers are each sweep's own grouping, bit for bit.
    for t, sweep in enumerate(seq.sweeps):
        ids, first, _, centers, _ = instance_boxes(sweep.xyz, sweep.inst_labels)
        at = table.sweep_index == t
        assert table.instance_id[at].tolist() == ids.tolist(), t
        assert table.class_id[at].tolist() == sweep.sem_labels[first].tolist(), t
        assert table.sensor_center[at].tobytes() == centers.tobytes(), t


def assert_aggregates_are_reference(table, seq, taxonomy):
    ref = build_trajectories_reference(seq, taxonomy)
    per_class = {}
    for cid, records in ref.values():
        per_class.setdefault(cid, []).append(np.max([r.extent for r in records], axis=0))
    cwm = class_wise_mean_extents(table, taxonomy)
    assert sorted(cwm) == sorted(per_class)
    for cid, extents in per_class.items():
        assert cwm[cid].tobytes() == np.mean(extents, axis=0).tobytes()
    # Halved class means make CWM replace some records but not all.
    strategies = [ExtentStrategy(SW), ExtentStrategy(MAX), ExtentStrategy(DSB, dsb_min_points=3),
                  ExtentStrategy(CWM, cwm_stats={c: m / 2 for c, m in cwm.items()})]
    for strategy in strategies:
        extents, excluded = aggregate_extent(table, strategy)
        for i, (cid, records) in enumerate(ref.values()):
            lo, hi = table.offsets[i], table.offsets[i + 1]
            want_ext, want_excl = aggregate_extent_reference(cid, records, strategy)
            assert extents[lo:hi].tobytes() == want_ext.tobytes(), strategy.variant
            assert excluded[lo:hi].tolist() == want_excl.tolist(), strategy.variant


class TestTrajectoryTable:
    @PROPERTY
    @given(generated_sequences())
    def test_generated_scenes_match_reference(self, seq):
        taxonomy = mp.default_taxonomy()
        table = build_trajectories(seq, taxonomy)
        assert_table_is_reference(table, seq, taxonomy)
        assert_aggregates_are_reference(table, seq, taxonomy)

    @PROPERTY
    @given(gappy_sequences())
    def test_gaps_and_singletons_match_reference(self, seq):
        table = build_trajectories(seq, TAX)
        assert_table_is_reference(table, seq, TAX)
        assert_aggregates_are_reference(table, seq, TAX)

    @PROPERTY
    @given(gappy_sequences(), st.randoms(use_true_random=False))
    def test_relabelling_instances_permutes_rows(self, seq, random):
        old_ids = sorted({int(i) for s in seq.sweeps for i in s.inst_labels if i > 0})
        new_ids = dict(zip(old_ids, random.sample(range(1, 1000), len(old_ids))))
        relabel = np.vectorize(lambda i: new_ids.get(int(i), 0), otypes=[np.int32])
        moved = SweepSequence(tuple(
            PointCloudSweep(s.timestamp, s.points, s.sem_labels, relabel(s.inst_labels),
                            s.ego_pose) for s in seq.sweeps), seq.period)
        base, got = build_trajectories(seq, TAX), build_trajectories(moved, TAX)
        mapped = np.array([new_ids[int(i)] for i in base.instance_id], dtype=np.int64)
        perm = np.lexsort((base.sweep_index, mapped))
        np.testing.assert_array_equal(got.instance_id, mapped[perm])
        for name in ("sweep_index", "class_id", "point_count", "center", "extent",
                     "sensor_center", "velocity"):
            assert getattr(got, name).tobytes() == getattr(base, name)[perm].tobytes(), name

    def test_columns_and_offsets(self):
        seq = point_sequence([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        table = build_trajectories(seq, TAX)
        assert table.offsets.tolist() == [0, 2] and table.row_instance.tolist() == [0, 0]
        assert table.instance_class.tolist() == [1]
        empty = build_trajectories(SweepSequence((PointCloudSweep(
            0.0, np.zeros((2, 4)), [3, 3], [0, 0]),), 0.5), TAX)
        assert len(empty) == 0 and empty.offsets.tolist() == [0]
        assert empty.max_extents.shape == (0, 3) and class_wise_mean_extents(empty, TAX) == {}

    def test_select_carries_every_column(self):
        seq, _ = mp.generate_sequence(mp.SceneConfig(seed=3, sweep_count=3, count_range=(3, 4),
                                                     min_separation=6.0, points_per_m2=60.0),
                                      mp.default_taxonomy())
        table = build_trajectories(rotated(seq, [0.4, 1.1, -2.0]), mp.default_taxonomy())
        rows = np.flatnonzero(table.sweep_index == 1)
        got = table.select(rows)
        columns = ("instance_id", "sweep_index", "class_id", "point_count", "center", "extent",
                   "sensor_center", "velocity")
        assert {c.name for c in dataclasses.fields(table) if c.init} == set(columns)
        for name in columns:
            assert getattr(got, name).tobytes() == getattr(table, name)[rows].tobytes(), name
        assert not np.array_equal(got.center, got.sensor_center)

    def test_instance_on_a_stuff_point_rejected(self):
        sweeps = [PointCloudSweep(0.5 * t, np.zeros((2, 4)), [1, 3], [1, 777 if t else 0])
                  for t in range(2)]
        with pytest.raises(ValueError, match="sweep 1: instance 777 is on non-thing class 3"):
            build_trajectories(SweepSequence(tuple(sweeps), 0.5), TAX)

    @pytest.mark.parametrize("rows, message", [
        ([record(2, 1, [0, 0, 0], [1, 1, 1]), record(1, 1, [0, 0, 0], [1, 1, 1])], "sorted"),
        ([record(1, 1, [0, 0, 0], [1, 1, 1], idx=1),
          record(1, 1, [0, 0, 0], [1, 1, 1], idx=1)], "sorted"),
        ([record(1, 1, [0, 0, 0], [1, 1, 1], idx=0),
          record(1, 2, [0, 0, 0], [1, 1, 1], idx=1)], "instance 1 changes class at sweep 1"),
        ([record(1, 1, [0, 0, 0], [1, -1, 1])], "extent"),
        ([record(1, 1, [0, 0, 0], [1, 1, 1], count=0)], "at least one point"),
        ([record(1, 1, [0, 0, 0], [1, 1, 1], idx=0),
          record(1, 1, [0, 0, 0], [1, 1, -1], idx=1)], "extent"),
        ([record(1, 1, [0, 0, 0], [1, 1, 1], sensor=[0, 0])], "both frames"),
    ])
    def test_malformed_rows_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            traj(rows)
