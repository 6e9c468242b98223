import numpy as np
import pytest

from modalpanoptic.voxels import (
    GridSpec,
    _group_sums,
    column_points,
    flatten_bev,
    interpolate_bev_many,
    stencil_columns,
    voxelize,
)

from fakes import PAPER_GRID, dense_bev
from oracles import (
    bev_mean_reference,
    bilinear_4term,
    interpolate_bev_reference,
    stencil_cells_reference,
    voxel_features_reference,
)

SMALL = GridSpec(voxel_size=(0.5, 0.5, 0.5), planar_range=8.0, z_min=-2.0, z_max=2.0,
                 bev_downsample=2)


def pts(rows):
    arr = np.zeros((len(rows), 4))
    arr[:, :3] = rows
    return arr


class TestGridSpec:
    def test_paper_defaults(self):
        spec = PAPER_GRID
        assert (spec.width, spec.depth) == (1440, 1440)
        assert spec.bev_width == spec.bev_depth == 180
        assert spec.height == 40  # z in [-5, 3] at 0.2 m

    def test_inexact_division_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(voxel_size=(0.3, 0.3, 0.2), planar_range=1.0, z_min=-5.0, z_max=3.0,
                     bev_downsample=8)

    def test_bev_downsample_must_divide(self):
        with pytest.raises(ValueError):
            GridSpec(voxel_size=(0.5, 0.5, 0.5), planar_range=8.0, z_min=-2, z_max=2,
                     bev_downsample=7)

    @pytest.mark.parametrize("spec", [GridSpec(), PAPER_GRID, SMALL],
                             ids=["default", "paper", "small"])
    def test_cell_centers_fall_in_their_cells(self, spec):
        # A detection's center is its peak cell's center, so a lookup by
        # center reads the cell ``nms_detect`` read its box attributes at.
        ix, iy = np.meshgrid(np.arange(spec.bev_width), np.arange(spec.bev_depth), indexing="ij")
        ix, iy = ix.ravel(), iy.ravel()
        gx, gy = spec.bev_cell_of(np.column_stack(spec.bev_cell_center(ix, iy)))
        assert gx.tolist() == ix.tolist() and gy.tolist() == iy.tolist()


def cells(grid):
    """{voxel key: its input rows} read from the grid's CSR arrays."""
    return {tuple(key): grid.point_index[a:b].tolist()
            for key, a, b in zip(grid.occupied.tolist(), grid.starts[:-1], grid.starts[1:])}


def random_cloud(seed, n, scale):
    rng = np.random.default_rng(seed)
    cloud = np.zeros((n, 4))
    cloud[:, :3] = rng.uniform(-1.0, 1.0, size=(n, 3)) * scale
    return cloud


class TestVoxelize:
    def test_origin_point_index(self):
        grid = voxelize(pts([(0.0, 0.0, 0.0)]), PAPER_GRID)
        assert grid.occupied.dtype == np.int64
        assert grid.occupied.tolist() == [[720, 720, 25]]
        assert grid.starts.tolist() == [0, 1]
        assert grid.point_index.tolist() == [0]
        assert grid.features is None

    def test_out_of_range_dropped(self):
        xy = 60.0 / np.sqrt(2.0)
        grid = voxelize(pts([(xy, xy, 0.0)]), PAPER_GRID)
        assert grid.dropped == 1
        assert len(grid) == 0
        assert grid.occupied.shape == (0, 3)
        assert grid.starts.tolist() == [0]

    def test_nearby_points_share_voxel(self):
        grid = voxelize(pts([(1.0, 1.0, 0.0), (1.0005, 1.0, 0.0)]), PAPER_GRID)
        assert len(grid) == 1
        assert list(cells(grid).values()) == [[0, 1]]

    def test_keys_ascending_and_rows_ascending_within_cells(self):
        cloud = random_cloud(9, 400, [7, 7, 1.5])
        grid = voxelize(cloud, SMALL)
        keys = [tuple(k) for k in grid.occupied.tolist()]
        assert keys == sorted(set(keys))
        for key, rows in cells(grid).items():
            assert rows == sorted(rows)
            assert all(tuple(SMALL.voxel_index(cloud[i])[0]) == key for i in rows)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        cloud = np.zeros((200, 4))
        cloud[:, :3] = rng.uniform(-7, 7, size=(200, 3)) * [1, 1, 0.25]
        grid_a = voxelize(cloud, SMALL)
        perm = rng.permutation(200)
        grid_b = voxelize(cloud[perm], SMALL)
        np.testing.assert_array_equal(grid_a.occupied, grid_b.occupied)
        cells_b = cells(grid_b)
        for key, rows in cells(grid_a).items():
            assert set(rows) == set(perm[cells_b[key]].tolist())

    def test_count_conservation(self):
        rng = np.random.default_rng(1)
        cloud = np.zeros((500, 4))
        cloud[:, :3] = rng.uniform(-12, 12, size=(500, 3))
        grid = voxelize(cloud, SMALL)
        assert grid.starts[-1] == grid.point_index.size
        assert np.all(np.diff(grid.starts) > 0)
        assert grid.point_index.size + grid.dropped == 500


class TestVoxelFeatureReduction:
    def check_cells(self, cloud, feats):
        grid = voxelize(cloud, SMALL, features=feats)
        ref = voxel_features_reference(cloud, SMALL, feats)
        assert [tuple(k) for k in grid.occupied.tolist()] == list(ref)
        assert grid.features.shape == (len(ref), feats.shape[1])
        for row, want in zip(grid.features, ref.values()):
            assert row.tobytes() == want.tobytes()
        return grid

    def test_bytes_match_per_cell_reference(self):
        rng = np.random.default_rng(8)
        cloud = np.zeros((600, 4))
        cloud[:, :3] = rng.uniform(-2.0, 2.0, size=(600, 3)) * [1, 1, 0.5]
        cloud[:40, :3] = rng.uniform(-10.0, 10.0, size=(40, 3))  # some out of range
        feats = rng.normal(size=(600, 5)) * 10.0 ** rng.uniform(-6, 6, size=(600, 1))
        grid = self.check_cells(cloud, feats)
        assert np.diff(grid.starts).max() > 5
        assert grid.dropped > 0

    def test_negative_zero_row(self):
        cloud = pts([(0.3, 0.3, 0.0), (3.0, 3.0, 0.0), (3.1, 3.1, 0.1)])
        feats = np.array([[-0.0, 1.0], [-0.0, -0.0], [-0.0, 2.0]])
        grid = self.check_cells(cloud, feats)
        assert not np.any(np.signbit(grid.features))

    def test_empty_grid_keeps_channels(self):
        xy = 60.0 / np.sqrt(2.0)
        grid = voxelize(pts([(xy, xy, 0.0)]), SMALL, features=np.ones((1, 3)))
        assert grid.features.shape == (0, 3)


def test_group_sums_match_per_axis_bincounts():
    # Each group adds its rows from 0.0 in row order, the way a per-axis
    # bincount does, so the two agree bit for bit.
    rng = np.random.default_rng(50)
    for _ in range(200):
        groups, n, f = int(rng.integers(1, 12)), int(rng.integers(0, 60)), int(rng.integers(1, 4))
        group = rng.integers(0, groups, size=n)
        rows = rng.normal(size=(n, f)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
        want = np.column_stack([np.bincount(group, weights=rows[:, k], minlength=groups)
                                for k in range(f)])
        assert _group_sums(group, rows, groups).tobytes() == want.tobytes()


class TestFlattenBev:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_bytes_match_mean_reference(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(seed, 800, [3, 3, 1.8])  # many voxels per BEV column
        feats = rng.normal(size=(800, 4)) * 10.0 ** rng.uniform(-6, 6, size=(800, 1))
        grid = voxelize(cloud, SMALL, features=feats)
        column = grid.occupied[:, 0] // 2 * SMALL.bev_depth + grid.occupied[:, 1] // 2
        assert np.unique(column, return_counts=True)[1].max() > 5
        bev = flatten_bev(grid)
        assert bev.columns.dense().tobytes() == bev_mean_reference(cloud, SMALL, feats).tobytes()

    def test_single_voxel(self):
        feats = np.array([[3.0, -1.0]])
        bev = flatten_bev(voxelize(pts([(0.3, 0.3, 0.0)]), SMALL, features=feats))
        cell = SMALL.bev_cell_of(np.array([0.3, 0.3]))
        np.testing.assert_array_equal(bev.columns.dense()[cell], [3.0, -1.0])
        assert np.count_nonzero(bev.columns.dense()) == 2
        assert bev.columns.dense().tobytes() == bev_mean_reference(
            pts([(0.3, 0.3, 0.0)]), SMALL, feats).tobytes()

    def test_column_mean_of_voxel_means(self):
        cloud = pts([(0.3, 0.3, 0.0), (0.3, 0.3, 0.1), (0.3, 0.3, 1.0)])
        feats = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
        bev = flatten_bev(voxelize(cloud, SMALL, features=feats))
        cell = SMALL.bev_cell_of(np.array([0.3, 0.3]))
        np.testing.assert_array_equal(bev.columns.dense()[cell], [1.0, 0.5])

    def test_sum_conservation(self):
        rng = np.random.default_rng(3)
        cloud = np.zeros((120, 4))
        cloud[:, :3] = rng.uniform(-7, 7, size=(120, 3)) * [1, 1, 0.25]
        feats = rng.normal(size=(120, 4))
        grid = voxelize(cloud, SMALL, features=feats)
        bev = flatten_bev(grid)
        voxels_per_column = np.zeros((SMALL.bev_width, SMALL.bev_depth))
        np.add.at(voxels_per_column, (grid.occupied[:, 0] // 2, grid.occupied[:, 1] // 2), 1)
        weighted = bev.columns.dense() * voxels_per_column[..., None]
        np.testing.assert_allclose(weighted.sum(axis=(0, 1)),
                                   grid.features.sum(axis=0), atol=1e-9)

    def test_negative_zero_row(self):
        cloud = pts([(0.3, 0.3, 0.0), (0.3, 0.3, 1.0), (3.0, 3.0, 0.0)])
        feats = np.array([[-0.0, 2.0], [-0.0, -0.0], [-0.0, -0.0]])
        bev = flatten_bev(voxelize(cloud, SMALL, features=feats))
        assert bev.columns.dense().tobytes() == bev_mean_reference(cloud, SMALL, feats).tobytes()
        assert not np.any(np.signbit(bev.columns.dense()))

    def test_empty_grid_keeps_channels(self):
        grid = voxelize(np.zeros((0, 4)), SMALL, features=np.zeros((0, 3)))
        bev = flatten_bev(grid)
        assert bev.columns.dense().shape == (SMALL.bev_width, SMALL.bev_depth, 3)
        assert not np.any(bev.columns.dense())

    def test_all_out_of_range(self):
        cloud = pts([(9.0, 0.0, 0.0), (0.0, 0.0, 2.5), (-6.0, -6.0, 0.0)])
        grid = voxelize(cloud, SMALL, features=np.ones((3, 2)))
        assert (len(grid), grid.dropped) == (0, 3)
        bev = flatten_bev(grid)
        want = bev_mean_reference(cloud, SMALL, np.ones((3, 2)))
        assert bev.columns.dense().tobytes() == want.tobytes()

    def test_grid_without_features_rejected(self):
        with pytest.raises(ValueError, match="no feature vectors"):
            flatten_bev(voxelize(pts([(0.3, 0.3, 0.0)]), SMALL))


class TestInterpolateBev:
    def make_bev(self, seed=4):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(8, 8, 3))
        return dense_bev(data, cell_size=1.0, planar_range=4.0)

    def one(self, bev, x, y):
        return interpolate_bev_many(bev, np.array([[x, y]]))[0]

    def test_cell_center_exact(self):
        bev = self.make_bev()
        np.testing.assert_allclose(self.one(bev, -4.0 + 2.5, -4.0 + 5.5),
                                   bev.columns.dense()[2, 5], atol=1e-12)

    def test_midpoint_average(self):
        bev = self.make_bev()
        data = bev.columns.dense()
        expected = 0.5 * (data[2, 5] + data[3, 5])  # between cells (2,5) and (3,5)
        np.testing.assert_allclose(self.one(bev, -4.0 + 3.0, -4.0 + 5.5), expected, atol=1e-12)

    def test_border_clamps_to_edge_cells(self):
        bev = self.make_bev()
        data = bev.columns.dense()
        np.testing.assert_allclose(self.one(bev, -3.9, -3.9), data[0, 0], atol=1e-12)
        np.testing.assert_allclose(self.one(bev, 3.9, -3.9), data[7, 0], atol=1e-12)
        np.testing.assert_allclose(self.one(bev, -3.9, 3.99), data[0, 7], atol=1e-12)

    def test_matches_four_term_expansion(self):
        bev = self.make_bev()
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.uniform(-3.4, 3.4, size=2)
            want = bilinear_4term(bev.columns.dense(), 1.0, 4.0, x, y)
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


def stencil_queries(spec):
    """Planar positions at cell centers, on cell edges, and within half a cell of
    the footprint's border, where the bilinear stencil clamps to the edge cells."""
    r, cs = spec.planar_range, spec.bev_cell_size
    cells = np.arange(spec.bev_width)
    axis = np.concatenate([-r + (cells + 0.5) * cs, -r + cells * cs,
                           [-r + 0.25 * cs, r - 0.25 * cs, r - 0.5 * cs, np.nextafter(r, 0.0)]])
    return np.array([(x, y) for x in axis for y in axis])


class TestStencilColumns:
    """A map pooled from the points of the stencil columns only reads, through
    ``interpolate_bev_many``, the bytes of the full map."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_restricted_map_reads_the_full_bytes(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(seed, 1500, [8.5, 8.5, 2.2])  # some points out of range
        feats = rng.normal(size=(len(cloud), 3))
        full = flatten_bev(voxelize(cloud, SMALL, features=feats))
        candidates = stencil_queries(SMALL)
        d = SMALL.bev_depth
        partial_maps = 0
        for _ in range(40):
            queries = candidates[rng.choice(len(candidates), int(rng.integers(1, 6)))]
            columns = stencil_columns(SMALL, queries)
            want = sorted(ix * d + iy for x, y in queries
                          for ix, iy in stencil_cells_reference(SMALL, x, y))
            assert columns.tolist() == sorted(set(want))
            rows = column_points(cloud, SMALL, columns)
            assert np.all(SMALL.in_range(cloud[rows]))
            restricted = flatten_bev(voxelize(cloud[rows], SMALL, features=feats[rows]))
            got = interpolate_bev_many(restricted, queries)
            assert got.tobytes() == interpolate_bev_many(full, queries).tobytes()
            part, whole = restricted.columns.dense(), full.columns.dense()
            flat = part.reshape(-1, 3)
            assert flat[columns].tobytes() == whole.reshape(-1, 3)[columns].tobytes()
            assert not np.any(np.delete(flat, columns, axis=0))
            partial_maps += bool(np.any(whole)) and not np.array_equal(part, whole)
        assert partial_maps == 40

    def test_column_points_follow_the_pooled_voxels(self):
        cloud = random_cloud(10, 600, [8.5, 8.5, 2.2])
        grid = voxelize(cloud, SMALL)
        column = grid.occupied[:, 0] // 2 * SMALL.bev_depth + grid.occupied[:, 1] // 2
        picked = np.unique(column)[::3]
        owner = np.repeat(column, np.diff(grid.starts))
        want = np.sort(grid.point_index[np.isin(owner, picked)])
        assert column_points(cloud, SMALL, picked).tolist() == want.tolist()

    def test_query_outside_the_footprint_rejected(self):
        r = SMALL.planar_range
        for q in [(r, 0.0), (0.0, -np.nextafter(r, np.inf)), (np.nan, 0.0)]:
            with pytest.raises(ValueError, match="query outside grid range"):
                stencil_columns(SMALL, np.array([[0.0, 0.0], q]))
