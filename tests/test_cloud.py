import numpy as np
import pytest

from modalpanoptic.cloud import (
    DuplicateClassId,
    PanopticLabeling,
    PointCloudSweep,
    RigidTransformError,
    SweepSequence,
    TaxonomyError,
    Taxonomy,
    ClassDef,
    check_rigid,
    load_taxonomy,
    save_taxonomy,
)

from oracles import transform_to_frame

NUSCENES_CLASSES = [
    (1, "barrier", "thing"), (2, "bicycle", "thing"), (3, "bus", "thing"),
    (4, "car", "thing"), (5, "construction_vehicle", "thing"), (6, "motorcycle", "thing"),
    (7, "pedestrian", "thing"), (8, "traffic_cone", "thing"), (9, "trailer", "thing"),
    (10, "truck", "thing"), (11, "driveable_surface", "stuff"), (12, "other_flat", "stuff"),
    (13, "sidewalk", "stuff"), (14, "terrain", "stuff"), (15, "manmade", "stuff"),
    (16, "vegetation", "stuff"),
]


def write_taxonomy(path, classes, min_points):
    lines = [f"min_instance_points={min_points}"]
    lines += [f"{cid}\t{name}\t{kind}" for cid, name, kind in classes]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_sweep(xyz, sem, inst, timestamp=0.0, pose=None):
    pts = np.zeros((len(xyz), 4))
    pts[:, :3] = xyz
    return PointCloudSweep(timestamp, pts, np.asarray(sem), np.asarray(inst),
                           np.eye(4) if pose is None else pose)


def translation(t):
    pose = np.eye(4)
    pose[:3, 3] = t
    return pose


class TestTaxonomy:
    def test_smallest_valid(self, tmp_path):
        f = tmp_path / "tax.txt"
        write_taxonomy(f, [(1, "car", "thing"), (2, "road", "stuff")], 50)
        tax = load_taxonomy(f)
        assert tax.thing_ids == {1}
        assert tax.stuff_ids == {2}
        assert tax.min_instance_points == 50

    def test_duplicate_id_rejected(self, tmp_path):
        f = tmp_path / "tax.txt"
        write_taxonomy(f, [(1, "car", "thing"), (1, "road", "stuff")], 50)
        with pytest.raises(DuplicateClassId):
            load_taxonomy(f)

    def test_nuscenes_style_partition(self, tmp_path):
        f = tmp_path / "tax.txt"
        write_taxonomy(f, NUSCENES_CLASSES, 15)
        tax = load_taxonomy(f)
        assert len(tax.thing_ids) == 10
        assert len(tax.stuff_ids) == 6
        assert tax.min_instance_points == 15

    def test_requires_both_kinds(self):
        with pytest.raises(TaxonomyError):
            Taxonomy((ClassDef(1, "car", "thing"),), 10)
        with pytest.raises(TaxonomyError):
            Taxonomy((ClassDef(1, "road", "stuff"),), 10)

    def test_roundtrip(self, tmp_path):
        tax = Taxonomy(tuple(ClassDef(*c) for c in NUSCENES_CLASSES), 15)
        f = tmp_path / "tax.txt"
        save_taxonomy(tax, f)
        assert load_taxonomy(f) == tax

    def test_class_zero_always_ignored(self):
        tax = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "road", "stuff")), 10)
        assert 0 in tax.ignore_ids


class TestTransform:
    def test_identity(self):
        sweep = make_sweep([[1.0, 2.0, 3.0]], [1], [5])
        out = transform_to_frame(sweep, np.eye(4))
        np.testing.assert_array_equal(out.xyz, sweep.xyz)
        np.testing.assert_array_equal(out.inst_labels, sweep.inst_labels)

    def test_pure_translation(self):
        sweep = make_sweep([[0.0, 0.0, 0.0], [2.0, 1.0, 0.5]], [1, 1], [0, 0])
        out = transform_to_frame(sweep, translation([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.xyz[:, 0], sweep.xyz[:, 0] - 1.0)
        np.testing.assert_allclose(out.xyz[:, 1:], sweep.xyz[:, 1:])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        angle = 0.7
        pose_b = np.eye(4)
        pose_b[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        pose_b[:3, 3] = [4.0, -2.0, 1.0]
        sweep = make_sweep(rng.normal(size=(50, 3)), np.ones(50, dtype=int), np.zeros(50, dtype=int))
        back = transform_to_frame(transform_to_frame(sweep, pose_b), sweep.ego_pose)
        np.testing.assert_allclose(back.xyz, sweep.xyz, atol=1e-9)

    def test_rigidity_preserves_distances(self):
        rng = np.random.default_rng(11)
        sweep = make_sweep(rng.normal(scale=10, size=(40, 3)),
                           np.ones(40, dtype=int), np.zeros(40, dtype=int))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = 1.1
        k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        pose = np.eye(4)
        pose[:3, :3] = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
        pose[:3, 3] = [1.0, 2.0, 3.0]
        out = transform_to_frame(sweep, pose)
        d_in = np.linalg.norm(sweep.xyz[:, None] - sweep.xyz[None, :], axis=-1)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None, :], axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9

    def test_non_rigid_rejected(self):
        sweep = make_sweep([[0.0, 0.0, 0.0]], [1], [0])
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(RigidTransformError):
            transform_to_frame(sweep, bad)

    @pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((0, 3), np.inf),
                                              ((1, 3), np.nan), ((2, 1), -np.inf)])
    def test_non_finite_pose_rejected(self, entry, value):
        # NaN fails every tolerance comparison, so only an explicit check catches it.
        pose = np.eye(4)
        pose[entry] = value
        with pytest.raises(RigidTransformError, match="finite"):
            check_rigid(pose)
        with pytest.raises(RigidTransformError, match="finite"):
            make_sweep([[0.0, 0.0, 0.0]], [1], [0], pose=pose)


class TestSweepValidation:
    def test_five_point_columns_rejected(self):
        # A row is x, y, z, intensity; a fifth column (a history-point age) has no meaning.
        with pytest.raises(ValueError, match=r"points must be \(N, 4\), got \(1, 5\)"):
            PointCloudSweep(0.0, np.zeros((1, 5)), np.array([1]), np.array([0]))

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloudSweep(0.0, np.zeros((2, 4)), np.array([1]), np.array([0, 0]))

    def test_instance_on_stuff_rejected(self):
        tax = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "road", "stuff")), 10)
        sweep = make_sweep([[0, 0, 0]], [2], [3])
        with pytest.raises(ValueError):
            sweep.validate_labels(tax)

    def test_arrays_are_immutable(self):
        sweep = make_sweep([[0, 0, 0]], [1], [0])
        with pytest.raises(ValueError):
            sweep.points[0, 0] = 1.0


class TestSequence:
    def test_timestamps_strictly_increasing(self):
        a = make_sweep([[0, 0, 0]], [1], [0], timestamp=0.0)
        b = make_sweep([[0, 0, 0]], [1], [0], timestamp=0.0)
        with pytest.raises(ValueError):
            SweepSequence((a, b), period=0.1)

    @pytest.mark.parametrize("times, period, message", [
        ((0.0, np.nan, 1.0), 0.5, "sweep 1: timestamp nan is not finite"),
        ((0.0, 0.5, np.inf), 0.5, "sweep 2: timestamp inf is not finite"),
        ((0.0, 0.5, 1.0), np.inf, "period"),
        ((0.0, 0.5, 1.0), np.nan, "period"),
    ])
    def test_non_finite_times_rejected(self, times, period, message):
        sweeps = tuple(make_sweep([[0, 0, 0]], [1], [0], timestamp=t) for t in times)
        with pytest.raises(ValueError, match=message):
            SweepSequence(sweeps, period=period)

    def test_instance_keeps_one_class(self):
        tax = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "ped", "thing"),
                        ClassDef(3, "road", "stuff")), 10)
        a = make_sweep([[0, 0, 0]], [1], [7], timestamp=0.0)
        b = make_sweep([[0, 0, 0]], [2], [7], timestamp=0.1)
        seq = SweepSequence((a, b), period=0.1)
        with pytest.raises(ValueError):
            seq.validate_labels(tax)


class TestPanopticLabeling:
    def test_instance_on_thing_only(self):
        tax = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "road", "stuff")), 10)
        lab = PanopticLabeling(np.array([2, 1]), np.array([4, 0]))
        with pytest.raises(ValueError):
            lab.validate(tax)

    def test_unassigned_thing_toggle(self):
        tax = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "road", "stuff")), 10)
        lab = PanopticLabeling(np.array([1, 2]), np.array([0, 0]))
        lab.validate(tax)  # allowed by default
        with pytest.raises(ValueError):
            lab.validate(tax, allow_unassigned_things=False)
