import numpy as np
import pytest

from modalpanoptic.voxels import (
    BevMap,
    GridSpec,
    flatten_bev,
    interpolate_bev_many,
    majority_vote_labels,
    voxelize,
)

from oracles import bilinear_4term, interpolate_bev_reference, voxel_features_reference

SMALL = GridSpec(voxel_size=(0.5, 0.5, 0.5), planar_range=8.0, z_min=-2.0, z_max=2.0,
                 bev_downsample=2)


def pts(rows):
    arr = np.zeros((len(rows), 5))
    arr[:, :3] = [r[:3] for r in rows]
    for i, r in enumerate(rows):
        if len(r) > 3:
            arr[i, 4] = r[3]  # dt
    return arr


class TestGridSpec:
    def test_paper_defaults(self):
        spec = GridSpec()
        assert (spec.width, spec.depth) == (1440, 1440)
        assert spec.bev_width == spec.bev_depth == 180
        assert spec.height == 40  # z in [-5, 3] at 0.2 m

    def test_inexact_division_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(voxel_size=(0.3, 0.3, 0.2), planar_range=1.0)

    def test_bev_downsample_must_divide(self):
        with pytest.raises(ValueError):
            GridSpec(voxel_size=(0.5, 0.5, 0.5), planar_range=8.0, z_min=-2, z_max=2,
                     bev_downsample=7)


class TestVoxelize:
    def test_origin_point_index(self):
        grid = voxelize(pts([(0.0, 0.0, 0.0)]), GridSpec())
        assert list(grid.occupied) == [(720, 720, 25)]

    def test_out_of_range_dropped(self):
        xy = 60.0 / np.sqrt(2.0)
        grid = voxelize(pts([(xy, xy, 0.0)]), GridSpec())
        assert grid.dropped == 1
        assert len(grid) == 0

    def test_nearby_points_share_voxel(self):
        grid = voxelize(pts([(1.0, 1.0, 0.0), (1.0005, 1.0, 0.0)]), GridSpec())
        assert len(grid) == 1
        cell = next(iter(grid.occupied.values()))
        assert cell.point_indices.tolist() == [0, 1]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        cloud = np.zeros((200, 5))
        cloud[:, :3] = rng.uniform(-7, 7, size=(200, 3)) * [1, 1, 0.25]
        grid_a = voxelize(cloud, SMALL)
        perm = rng.permutation(200)
        grid_b = voxelize(cloud[perm], SMALL)
        assert set(grid_a.occupied) == set(grid_b.occupied)
        for key in grid_a.occupied:
            orig = set(grid_a.occupied[key].point_indices.tolist())
            back = set(perm[grid_b.occupied[key].point_indices].tolist())
            assert orig == back

    def test_count_conservation(self):
        rng = np.random.default_rng(1)
        cloud = np.zeros((500, 5))
        cloud[:, :3] = rng.uniform(-12, 12, size=(500, 3))
        grid = voxelize(cloud, SMALL)
        in_cells = sum(c.point_indices.size for c in grid.occupied.values())
        assert in_cells + grid.dropped == 500


class TestMajorityVote:
    def test_strict_majority(self):
        grid = voxelize(pts([(0.1, 0.1, 0.1)] * 3), SMALL)
        votes = majority_vote_labels(grid, np.array([1, 1, 2]))
        assert list(votes.values()) == [1]

    def test_tie_breaks_low_id(self):
        grid = voxelize(pts([(0.1, 0.1, 0.1)] * 2), SMALL)
        votes = majority_vote_labels(grid, np.array([2, 1]))
        assert list(votes.values()) == [1]

    def test_history_only_cell_is_ignore(self):
        cloud = pts([(0.1, 0.1, 0.1, -0.1), (3.0, 3.0, 0.1, 0.0)])
        grid = voxelize(cloud, SMALL)
        votes = majority_vote_labels(grid, np.array([1, 2]), current_mask=cloud[:, 4] == 0.0)
        by_cell = {k: v for k, v in votes.items()}
        history_cell = SMALL.voxel_index(np.array([[0.1, 0.1, 0.1]]))[0]
        assert by_cell[tuple(history_cell)] == 0
        current_cell = SMALL.voxel_index(np.array([[3.0, 3.0, 0.1]]))[0]
        assert by_cell[tuple(current_cell)] == 2

    def test_no_foreign_classes(self):
        rng = np.random.default_rng(2)
        cloud = np.zeros((300, 5))
        cloud[:, :3] = rng.uniform(-7, 7, size=(300, 3)) * [1, 1, 0.2]
        sems = rng.integers(1, 5, size=300)
        grid = voxelize(cloud, SMALL)
        votes = majority_vote_labels(grid, sems)
        for key, cell in grid.occupied.items():
            assert votes[key] in set(sems[cell.point_indices].tolist())


class TestVoxelFeatureReduction:
    @pytest.mark.parametrize("how", ["mean", "sum", "max"])
    def test_bytes_match_per_cell_reference(self, how):
        rng = np.random.default_rng(8)
        cloud = np.zeros((600, 5))
        cloud[:, :3] = rng.uniform(-2.0, 2.0, size=(600, 3)) * [1, 1, 0.5]
        cloud[:40, :3] = rng.uniform(-10.0, 10.0, size=(40, 3))  # some out of range
        cloud[::7, 4] = -0.5  # history points
        feats = rng.normal(size=(600, 5)) * 10.0 ** rng.uniform(-6, 6, size=(600, 1))
        grid = voxelize(cloud, SMALL, features=feats, feature_reduce=how)
        ref = voxel_features_reference(cloud, SMALL, feats, how)
        assert list(grid.occupied) == list(ref)
        assert max(len(c.point_indices) for c in grid.occupied.values()) > 5
        for key, cell in grid.occupied.items():
            assert cell.feature.tobytes() == ref[key].tobytes()
            assert cell.current_sweep == bool(np.any(cloud[cell.point_indices, 4] == 0.0))

    def test_unknown_reduce(self):
        with pytest.raises(ValueError):
            voxelize(pts([(0.3, 0.3, 0.0)]), SMALL, features=np.ones((1, 2)),
                     feature_reduce="median")


class TestFlattenBev:
    def test_single_voxel_max(self):
        feats = np.array([[3.0, -1.0]])
        grid = voxelize(pts([(0.3, 0.3, 0.0)]), SMALL, features=feats)
        bev = flatten_bev(grid, reducer="max")
        cell = SMALL.bev_cell_of(np.array([0.3, 0.3]))
        np.testing.assert_array_equal(bev.data[cell], [3.0, -1.0])
        assert np.count_nonzero(bev.data) == 2

    def test_elementwise_max_in_column(self):
        cloud = pts([(0.3, 0.3, 0.0), (0.3, 0.3, 1.0)])
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        bev = flatten_bev(voxelize(cloud, SMALL, features=feats), reducer="max")
        cell = SMALL.bev_cell_of(np.array([0.3, 0.3]))
        np.testing.assert_array_equal(bev.data[cell], [1.0, 1.0])

    def test_sum_conservation(self):
        rng = np.random.default_rng(3)
        cloud = np.zeros((120, 5))
        cloud[:, :3] = rng.uniform(-7, 7, size=(120, 3)) * [1, 1, 0.25]
        feats = rng.normal(size=(120, 4))
        grid = voxelize(cloud, SMALL, features=feats, feature_reduce="sum")
        bev = flatten_bev(grid, reducer="sum")
        total_cells = sum(c.feature for c in grid.occupied.values())
        np.testing.assert_allclose(bev.data.sum(axis=(0, 1)), total_cells, atol=1e-9)

    def test_feature_dim_mismatch(self):
        grid = voxelize(pts([(0.3, 0.3, 0.0), (3.0, 3.0, 0.0)]), SMALL,
                        features=np.ones((2, 2)))
        grid.occupied[next(iter(grid.occupied))].feature = np.ones(3)
        with pytest.raises(ValueError):
            flatten_bev(grid, reducer="max")


class TestInterpolateBev:
    def make_bev(self, seed=4):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(8, 8, 3))
        return BevMap(data, cell_size=1.0, planar_range=4.0)

    def one(self, bev, x, y):
        return interpolate_bev_many(bev, np.array([[x, y]]))[0]

    def test_cell_center_exact(self):
        bev = self.make_bev()
        np.testing.assert_allclose(self.one(bev, -4.0 + 2.5, -4.0 + 5.5), bev.data[2, 5],
                                   atol=1e-12)

    def test_midpoint_average(self):
        bev = self.make_bev()
        expected = 0.5 * (bev.data[2, 5] + bev.data[3, 5])  # between cells (2,5) and (3,5)
        np.testing.assert_allclose(self.one(bev, -4.0 + 3.0, -4.0 + 5.5), expected, atol=1e-12)

    def test_border_clamps_to_edge_cells(self):
        bev = self.make_bev()
        np.testing.assert_allclose(self.one(bev, -3.9, -3.9), bev.data[0, 0], atol=1e-12)
        np.testing.assert_allclose(self.one(bev, 3.9, -3.9), bev.data[7, 0], atol=1e-12)
        np.testing.assert_allclose(self.one(bev, -3.9, 3.99), bev.data[0, 7], atol=1e-12)

    def test_matches_four_term_expansion(self):
        bev = self.make_bev()
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.uniform(-3.4, 3.4, size=2)
            want = bilinear_4term(bev.data, 1.0, 4.0, x, y)
            np.testing.assert_allclose(self.one(bev, x, y), want, atol=1e-12)

    def test_vectorized_matches_scalar(self):
        bev = self.make_bev()
        rng = np.random.default_rng(6)
        queries = rng.uniform(-4.0, 4.0, size=(40, 2))
        batch = interpolate_bev_many(bev, queries)
        for q, row in zip(queries, batch):
            np.testing.assert_allclose(row, interpolate_bev_reference(bev, q), atol=1e-12)

    def test_out_of_range_rejected(self):
        bev = self.make_bev()
        for x, y in [(4.5, 0.0), (4.0, 0.0), (0.0, -4.01)]:
            with pytest.raises(ValueError):
                self.one(bev, x, y)
