import numpy as np
import pytest

from modalpanoptic.cloud import ClassDef, Taxonomy
from modalpanoptic.targets import (
    CWM,
    DSB,
    MAX,
    SW,
    ExtentStrategy,
    InstanceTrajectory,
    ModalInstance,
    aggregate_extent,
    class_wise_mean_extents,
    extent_sw,
    heatmap_sigma,
    load_cwm_stats,
    modal_center,
    render_bev_targets,
    save_cwm_stats,
    velocity_target,
)
from modalpanoptic.voxels import GridSpec

TAX = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "ped", "thing"),
                ClassDef(3, "road", "stuff")), 10)
SPEC = GridSpec(voxel_size=(0.1, 0.1, 0.2), planar_range=20.0, z_min=-2.0, z_max=2.0,
                bev_downsample=4)


def record(iid, cid, center, extent, count=10, t=0.0, idx=0):
    return ModalInstance(iid, cid, np.asarray(center, float), np.asarray(extent, float),
                         count, t, idx)


def traj(records, iid=1, cid=1):
    return InstanceTrajectory(iid, cid, tuple(records))


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
        records = [record(1, 1, [0, 0, 0], [x, 1.0, 0.5], t=float(i), idx=i)
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
            record(1, 1, [1, 0, 0], [1.9, 0.9, 0.7], t=1.0, idx=1),
        ]
        extents, _ = aggregate_extent(traj(records), ExtentStrategy(CWM, cwm_stats=stats))
        np.testing.assert_array_equal(extents[0], stats[1])
        np.testing.assert_array_equal(extents[1], [1.9, 0.9, 0.7])

    def test_max_dominates_sw_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = rng.integers(1, 8)
            records = [record(1, 1, [0, 0, 0], rng.uniform(0.05, 2.0, 3), t=float(i), idx=i)
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
        stats = class_wise_mean_extents({1: t}, TAX)
        np.testing.assert_array_equal(stats[1], [2.0, 1.0, 1.0])

    def test_mean_of_two(self):
        t1 = traj([record(1, 1, [0, 0, 0], [2.0, 1.0, 1.0])], iid=1)
        t2 = traj([record(2, 1, [0, 0, 0], [4.0, 1.0, 1.0])], iid=2)
        stats = class_wise_mean_extents({1: t1, 2: t2}, TAX)
        np.testing.assert_array_equal(stats[1], [3.0, 1.0, 1.0])

    def test_unseen_class_absent(self):
        t = traj([record(1, 1, [0, 0, 0], [2.0, 1.0, 1.0])])
        stats = class_wise_mean_extents({1: t}, TAX)
        assert 2 not in stats

    def test_sampled_corpus_mean(self):
        rng = np.random.default_rng(3)
        true_mean = np.array([2.0, 0.9, 0.7])
        trajs = {}
        for i in range(400):
            ext = rng.normal(true_mean, 0.1)
            trajs[i] = traj([record(i, 1, [0, 0, 0], np.abs(ext))], iid=i)
        stats = class_wise_mean_extents(trajs, TAX)
        np.testing.assert_allclose(stats[1], true_mean, atol=0.05)

    def test_sidecar_roundtrip(self, tmp_path):
        stats = {1: np.array([2.0, 1.0, 0.5]), 2: np.array([0.3, 0.3, 0.9])}
        f = tmp_path / "cwm.tsv"
        save_cwm_stats(stats, f)
        loaded = load_cwm_stats(f)
        assert set(loaded) == {1, 2}
        for cid in stats:
            np.testing.assert_array_equal(loaded[cid], stats[cid])


def cell_center(spec, ix, iy):
    return spec.bev_cell_center(ix, iy)


class TestRenderBevTargets:
    def test_peak_exactly_one(self):
        center_xy = cell_center(SPEC, 50, 60)
        inst = record(1, 1, [center_xy[0], center_xy[1], 0.5], [1.0, 0.5, 0.4])
        out = render_bev_targets([inst], {}, SPEC, TAX.num_channels)
        assert out.heatmaps[1, 50, 60] == 1.0
        assert out.heatmaps[1].max() == 1.0
        assert out.heatmaps[[0, 2, 3]].max() == 0.0
        assert out.height[50, 60] == 0.5
        assert out.valid_mask[50, 60]
        assert out.valid_mask.sum() == 1

    def test_value_at_sigma(self):
        center_xy = cell_center(SPEC, 50, 60)
        extent = np.array([0.3, 0.2, 0.5])  # small: sigma hits the 2-cell floor
        inst = record(1, 1, [center_xy[0], center_xy[1], 0.0], extent)
        out = render_bev_targets([inst], {}, SPEC, TAX.num_channels)
        sigma = heatmap_sigma(extent, SPEC)
        assert sigma == 2.0 * SPEC.bev_cell_size
        got = out.heatmaps[1, 52, 60]  # two cells away = one sigma, bitwise
        np.testing.assert_allclose(got, np.exp(-0.5), atol=1e-9)

    def test_overlap_max_against_two_pass(self):
        a_xy = cell_center(SPEC, 50, 60)
        b_xy = cell_center(SPEC, 52, 60)
        a = record(1, 1, [a_xy[0], a_xy[1], 0.0], [1.0, 1.0, 0.5], idx=0)
        b = record(2, 1, [b_xy[0], b_xy[1], 0.0], [1.2, 0.9, 0.5], idx=0)
        both = render_bev_targets([a, b], {}, SPEC, TAX.num_channels)
        only_a = render_bev_targets([a], {}, SPEC, TAX.num_channels)
        only_b = render_bev_targets([b], {}, SPEC, TAX.num_channels)
        np.testing.assert_allclose(both.heatmaps,
                                   np.maximum(only_a.heatmaps, only_b.heatmaps), atol=0)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(4)
        instances = []
        for i in range(6):
            xy = rng.uniform(-15, 15, 2)
            instances.append(record(i, int(rng.integers(1, 3)), [xy[0], xy[1], 0.0],
                                    rng.uniform(0.1, 2.0, 3), idx=0))
        out = render_bev_targets(instances, {}, SPEC, TAX.num_channels)
        assert out.heatmaps.min() >= 0.0
        assert out.heatmaps.max() <= 1.0

    def test_out_of_range_center_rejected(self):
        inst = record(1, 1, [25.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            render_bev_targets([inst], {}, SPEC, TAX.num_channels)


class TestVelocityTarget:
    def test_static_zero(self):
        records = [record(1, 1, [1.0, 2.0, 0.0], [1, 1, 1], t=float(i), idx=i) for i in range(3)]
        np.testing.assert_array_equal(velocity_target(traj(records), 1, 0.5), [0, 0])

    def test_centered_difference(self):
        records = [record(1, 1, [float(i), 0.0, 0.0], [1, 1, 1], t=0.5 * i, idx=i)
                   for i in range(3)]
        np.testing.assert_allclose(velocity_target(traj(records), 1, 0.5), [2.0, 0.0])

    def test_one_sided_at_ends(self):
        records = [record(1, 1, [float(i), 0.0, 0.0], [1, 1, 1], t=0.5 * i, idx=i)
                   for i in range(3)]
        np.testing.assert_allclose(velocity_target(traj(records), 0, 0.5), [2.0, 0.0])
        np.testing.assert_allclose(velocity_target(traj(records), 2, 0.5), [2.0, 0.0])

    def test_single_appearance_zero(self):
        records = [record(1, 1, [3.0, 1.0, 0.0], [1, 1, 1])]
        np.testing.assert_array_equal(velocity_target(traj(records), 0, 0.5), [0, 0])

    def test_exact_for_constant_velocity(self):
        v = np.array([1.5, -0.5])
        records = [record(1, 1, [v[0] * 0.5 * i, v[1] * 0.5 * i, 0.0], [1, 1, 1],
                          t=0.5 * i, idx=i) for i in range(5)]
        for t in range(1, 4):
            np.testing.assert_allclose(velocity_target(traj(records), t, 0.5), v, atol=1e-12)
