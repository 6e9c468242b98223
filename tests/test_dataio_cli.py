import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modalpanoptic as mp
from modalpanoptic.cli import _grid, _noise, build_parser, main
from modalpanoptic.cloud import apply_pose, invert_pose
from modalpanoptic.dataio import (
    LabelRangeError,
    TruncatedRecord,
    decode_labels,
    encode_labels,
    read_label_file,
    read_point_bin,
    read_predictions,
    read_sequence,
    write_label_file,
    write_point_bin,
    write_sequence,
)
from modalpanoptic.inference import CONFLICT_RULES
from modalpanoptic.membership import ROI_MARGIN_FLOOR, MembershipTrainConfig, PairFeatureConfig
from modalpanoptic.mlp import OPTIMIZERS
from modalpanoptic.synth import CAR, GROUND, MOTIONS, DetectorNoise
from modalpanoptic.targets import EXTENT_STRATEGIES
from modalpanoptic.tracking import PipelineConfig

from oracles import transform_to_frame

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from worker import check_predictions, sweep_sizes  # noqa: E402


def tree_bytes(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


class TestLabelBits:
    def test_bit_split(self):
        word = np.array([0x0005_0001], dtype=np.uint32)
        sem, inst = decode_labels(word)
        assert sem[0] == 1 and inst[0] == 5

    def test_encode_decode_roundtrip(self):
        rng = np.random.default_rng(0)
        sem = rng.integers(0, 2 ** 16, size=100)
        inst = rng.integers(0, 2 ** 16, size=100)
        got_sem, got_inst = decode_labels(encode_labels(sem, inst))
        np.testing.assert_array_equal(got_sem, sem)
        np.testing.assert_array_equal(got_inst, inst)

    def test_masking_identities(self):
        words = encode_labels(np.array([7]), np.array([1234]))
        assert int(words[0]) & 0xFFFF == 7
        assert int(words[0]) >> 16 == 1234

    def test_overflow_rejected(self):
        with pytest.raises(LabelRangeError):
            encode_labels(np.array([1]), np.array([65536]))
        with pytest.raises(LabelRangeError):
            encode_labels(np.array([70000]), np.array([1]))


class TestBinaryFiles:
    def test_point_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-50, 50, size=(200, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "s.bin"
        write_point_bin(path, pts)
        back = read_point_bin(path)
        np.testing.assert_array_equal(back, pts)

    def test_extra_point_columns_rejected(self, tmp_path):
        path = tmp_path / "s.bin"
        with pytest.raises(ValueError, match=r"\(N, 4\).*got \(3, 5\)"):
            write_point_bin(path, np.zeros((3, 5)))
        assert not path.exists()

    def test_truncated_bin_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(TruncatedRecord):
            read_point_bin(path)

    def test_truncated_label_rejected(self, tmp_path):
        path = tmp_path / "bad.label"
        path.write_bytes(b"\x00" * 6)
        with pytest.raises(TruncatedRecord):
            read_label_file(path)

    def test_empty_sweep_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_point_bin(tmp_path / "e.bin", np.zeros((0, 4)))

    def test_label_file_roundtrip(self, tmp_path):
        sem = np.array([1, 2, 3], dtype=np.int32)
        inst = np.array([0, 7, 0], dtype=np.int32)
        path = tmp_path / "f.label"
        write_label_file(path, sem, inst)
        got_sem, got_inst = read_label_file(path)
        np.testing.assert_array_equal(got_sem, sem)
        np.testing.assert_array_equal(got_inst, inst)


class TestSequenceRoundtrip:
    def test_write_read_identical(self, tmp_path):
        tax = mp.default_taxonomy()
        seq, _ = mp.generate_sequence(mp.SceneConfig(seed=2, sweep_count=3, count_range=(2, 2),
                                                     points_per_m2=60.0), tax)
        write_sequence(tmp_path, "0000", seq, tax)
        back = read_sequence(tmp_path, "0000")
        assert len(back) == len(seq)
        for a, b in zip(seq.sweeps, back.sweeps):
            np.testing.assert_array_equal(a.points, b.points)
            np.testing.assert_array_equal(a.sem_labels, b.sem_labels)
            np.testing.assert_array_equal(a.inst_labels, b.inst_labels)
            np.testing.assert_allclose(a.ego_pose, b.ego_pose, atol=0)
            assert a.timestamp == b.timestamp

    def test_without_times_file_sweeps_are_a_tenth_apart(self, tmp_path):
        tax = mp.default_taxonomy()
        seq, _ = mp.generate_sequence(mp.SceneConfig(seed=2, sweep_count=4, count_range=(2, 2),
                                                     points_per_m2=60.0), tax)
        write_sequence(tmp_path, "0000", seq, tax)
        (tmp_path / "sequences" / "0000" / "times.txt").unlink()
        back = read_sequence(tmp_path, "0000")
        assert seq.period == 0.5
        assert [s.timestamp for s in back.sweeps] == [0.0, 0.1, 0.2, 0.30000000000000004]
        assert back.period == 0.1

    def test_missing_sequence_raises(self, tmp_path):
        (tmp_path / "sequences").mkdir()
        with pytest.raises(FileNotFoundError):
            read_sequence(tmp_path, "0042")


SYNTH_ARGS = ["synth", "--sequences", "2", "--sweeps", "3", "--seed", "11",
              "--min-instances", "2", "--max-instances", "2"]


class TestCli:
    def test_synth_is_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(SYNTH_ARGS + ["--out", str(a)]) == 0
        assert main(SYNTH_ARGS + ["--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_full_pipeline_and_self_eval(self, tmp_path):
        data = tmp_path / "data"
        pred = tmp_path / "pred"
        evald = tmp_path / "eval"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        assert main(["infer", "--data", str(data), "--out", str(pred),
                     "--membership", "oracle", "--margin-floor", "0.3"]) == 0
        assert main(["eval", "--data", str(data), "--pred", str(pred),
                     "--out", str(evald)]) == 0
        pq_csv = (evald / "pq.csv").read_text()
        assert pq_csv.splitlines()[0] == "class,pq,sq,rq,iou,tp,fp,fn"
        for line in pq_csv.splitlines()[1:]:
            name, pq = line.split(",")[:2]
            if name in ("car", "pedestrian", "ground", "all"):
                assert float(pq) == 1.0

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_eval_out_of_taxonomy_class_exit_code(self, tmp_path, capsys, side):
        data, pred = tmp_path / "data", tmp_path / "pred"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        assert main(["infer", "--data", str(data), "--out", str(pred),
                     "--membership", "oracle"]) == 0
        name = sorted(p.name for p in (data / "sequences").iterdir())[0]
        path = (pred / name if side == "pred" else data / "sequences" / name / "labels")
        path = path / "000001.label"
        sem, inst = read_label_file(path)
        sem[3] = 200
        write_label_file(path, sem, inst)
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--pred", str(pred),
                     "--out", str(tmp_path / "eval")])
        assert code == 4
        assert "class id 200 is outside the taxonomy" in capsys.readouterr().err

    def test_infer_is_deterministic(self, tmp_path):
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        p1, p2 = tmp_path / "p1", tmp_path / "p2"
        noise = ["--center-jitter", "0.2", "--drop-probability", "0.1",
                 "--semantic-flip", "0.05", "--seed", "4"]
        assert main(["infer", "--data", str(data), "--out", str(p1)] + noise) == 0
        assert main(["infer", "--data", str(data), "--out", str(p2)] + noise) == 0
        assert tree_bytes(p1) == tree_bytes(p2)

    def test_track_predictions_have_stable_ids(self, tmp_path):
        data = tmp_path / "data"
        pred = tmp_path / "pred"
        evald = tmp_path / "eval"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        assert main(["track", "--data", str(data), "--out", str(pred),
                     "--membership", "oracle", "--margin-floor", "0.3"]) == 0
        assert main(["eval", "--data", str(data), "--pred", str(pred),
                     "--out", str(evald)]) == 0
        lstq = dict(line.split(",") for line in
                    (evald / "lstq.csv").read_text().splitlines()[1:])
        assert float(lstq["s_assoc"]) == 1.0
        assert float(lstq["lstq"]) == 1.0

    def test_shorter_rerun_removes_stale_frames(self, tmp_path):
        # A 3-sweep corpus tracked into the output of a 4-sweep one: frame
        # 000003 is removed, nothing else is, and eval reads the tree.
        pred = tmp_path / "pred"
        for sweeps in ("4", "3"):
            data = tmp_path / f"data{sweeps}"
            assert main(["synth", "--out", str(data), "--sequences", "1", "--sweeps", sweeps,
                         "--seed", "11", "--min-instances", "2", "--max-instances", "2"]) == 0
            assert main(["track", "--data", str(data), "--out", str(pred),
                         "--membership", "oracle"]) == 0
            (pred / "notes.txt").write_text("kept")
            (pred / "0000" / "notes.txt").write_text("kept")
        assert sorted(p.name for p in (pred / "0000").iterdir()) \
            == ["000000.label", "000001.label", "000002.label", "notes.txt"]
        assert (pred / "notes.txt").is_file()
        assert main(["eval", "--data", str(tmp_path / "data3"), "--pred", str(pred),
                     "--out", str(tmp_path / "eval")]) == 0

    @pytest.mark.parametrize("command", ["track", "infer"])
    def test_smaller_corpus_removes_stale_sequences(self, tmp_path, command):
        # A 2-sequence corpus written over the output of a 3-sequence one:
        # sequence 0002 goes, but a directory holding any other file stays,
        # and so does a link to a directory of frames.
        pred, elsewhere = tmp_path / "pred", tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "000000.label").write_bytes(b"")
        for count in ("3", "2"):
            data = tmp_path / f"data{count}"
            assert main(["synth", "--out", str(data), "--sequences", count, "--sweeps", "2",
                         "--seed", "11", "--min-instances", "2", "--max-instances", "2"]) == 0
            if count == "2":
                for name in ("notes", "0009"):
                    (pred / name).mkdir()
                    (pred / name / "000000.label").write_bytes(b"")
                (pred / "notes" / "readme.txt").write_text("kept")
                (pred / "0009" / "000001").mkdir()
                (pred / "link").symlink_to(elsewhere)
            assert main([command, "--data", str(data), "--out", str(pred),
                         "--membership", "oracle"]) == 0
        assert sorted(p.name for p in pred.iterdir()) == ["0000", "0001", "0009", "link", "notes"]
        assert sorted(p.name for p in (pred / "notes").iterdir()) \
            == ["000000.label", "readme.txt"]
        assert (elsewhere / "000000.label").is_file()
        assert main(["eval", "--data", str(tmp_path / "data2"), "--pred", str(pred),
                     "--out", str(tmp_path / "eval")]) == 0
        shutil.rmtree(pred / "notes")
        shutil.rmtree(pred / "0009")
        (pred / "link").unlink()
        assert check_predictions(tmp_path / "data2", pred, sweep_sizes(tmp_path / "data2")) \
            is None

    @pytest.mark.parametrize("command", [
        ["train-mem", "--features", "full"],
        ["train-mem", "--features", "geo+bev"],
        ["track", "--membership", "mlp", "--features", "full"],
    ], ids=["train-mem-full", "train-mem-geo+bev", "track-mlp-full"])
    def test_far_point_in_a_sweep(self, tmp_path, command):
        # One ground point moved to (1e20, 1e20, 0) m: the 0.6 m neighbor
        # cell keys of the point features must still give int64 cell codes.
        data, model, out = tmp_path / "data", tmp_path / "model.bin", tmp_path / "out"
        assert main(["synth", "--out", str(data), "--sequences", "1", "--sweeps", "1",
                     "--seed", "1000000", "--motion", "drift", "--min-instances", "2",
                     "--max-instances", "3", "--min-separation", "10", "--max-range", "24",
                     "--pair-gap", "0.1", "0.35", "--row-partners", "2"]) == 0
        train = ["train-mem", "--data", str(data), "--out", str(model), "--epochs", "1",
                 "--margin-floor", "0.3"]
        if command[0] == "track":
            assert main(train + command[-2:]) == 0  # the model, before the point moves
        sweep = read_sequence(data, "0000").sweeps[0]
        ground = np.flatnonzero(sweep.sem_labels == GROUND)[0]
        path = data / "sequences" / "0000" / "velodyne" / "000000.bin"
        points = read_point_bin(path)
        points[ground, :3] = (1e20, 1e20, 0.0)
        write_point_bin(path, points)
        if command[0] == "track":
            run = command + ["--data", str(data), "--out", str(out), "--model", str(model)]
        else:
            run = train + command[1:]
        assert main(run) == 0

    def test_targets_dump(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "targets"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        assert main(["targets", "--data", str(data), "--out", str(out),
                     "--strategy", "MAX"]) == 0
        assert (out / "cwm.tsv").exists()
        hm = np.load(out / "0000" / "000000_heatmaps.npy")
        assert hm.max() == 1.0
        members = np.load(out / "0000" / "000000_membership.npy")
        assert members.shape[1] == 3
        # Rows are (detection, point, label): each detection's positives are one
        # instance's points, and none of its negatives belong to that instance.
        inst = read_sequence(data, "0000").sweeps[0].inst_labels
        det, point, label = members.T
        assert members.shape[0] > 0 and np.all(np.diff(det) >= 0)
        for d in np.unique(det):
            owners = np.unique(inst[point[(det == d) & (label == 1)]])
            assert owners.size == 1 and owners[0] != 0
            assert not np.any(inst[point[(det == d) & (label == 0)]] == owners[0])

    def test_targets_sensor_frame_is_the_inference_frame(self, tmp_path):
        # Under poses that roll, pitch and yaw, centers must reach the sensor
        # frame through ``invert_pose``, as ``prepare_sweep_inputs`` takes them.
        tax = mp.default_taxonomy()
        seq, _ = mp.generate_sequence(mp.SceneConfig(seed=207, sweep_count=4, count_range=(3, 4),
                                                     points_per_m2=60.0), tax)
        sweeps = []
        for t, sweep in enumerate(seq.sweeps):
            (cr, sr), (cp, sp), (cy, sy) = ((np.cos(a), np.sin(a)) for a in
                                            (0.02 + 0.01 * t, -0.03 + 0.005 * t, 0.3 + 0.7 * t))
            pose = np.eye(4)
            pose[:3, :3] = (np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
                            @ np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
                            @ np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]]))
            pose[:3, 3] = [1.5 * t, -0.5 * t, 0.1]
            sweeps.append(transform_to_frame(sweep, pose))
        data, out = tmp_path / "data", tmp_path / "targets"
        write_sequence(data, "0000", mp.SweepSequence(tuple(sweeps), seq.period), tax)
        assert main(["targets", "--data", str(data), "--out", str(out), "--strategy", "SW"]) == 0
        seq = read_sequence(data, "0000")
        table = mp.build_trajectories(seq, tax)
        spec = mp.GridSpec()  # the grid the CLI runs by default
        for t, sweep in enumerate(seq.sweeps):
            rows = np.flatnonzero(table.sweep_index == t)
            want = mp.render_bev_targets(
                apply_pose(invert_pose(sweep.ego_pose), table.center[rows]),
                table.class_id[rows], table.extent[rows], table.velocity[rows], spec,
                tax.num_channels)
            height = np.load(out / "0000" / f"{t:06d}_height.npy")
            heatmaps = np.load(out / "0000" / f"{t:06d}_heatmaps.npy")
            assert height.tobytes() == want.height.dense().tobytes(), t
            np.testing.assert_array_equal(np.argwhere(heatmaps == 1.0),
                                          np.argwhere(want.heatmaps.dense() == 1.0))

    @pytest.mark.parametrize("command", ["track", "targets"])
    def test_instance_on_stuff_points_exit_code(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        path = data / "sequences" / "0000" / "labels" / "000001.label"
        sem, inst = read_label_file(path)
        inst[np.flatnonzero(sem == GROUND)[:20]] = 777
        write_label_file(path, sem, inst)
        capsys.readouterr()
        assert main([command, "--data", str(data), "--out", str(tmp_path / "out")]) == 4
        assert "sweep 1: instance 777 is on non-thing class" in capsys.readouterr().err

    def test_nn_membership_conflict_rules_write_same_bytes(self, tmp_path):
        # Nearest-center membership never gives a point two claimants, so
        # the two overlap rules cannot disagree under it.
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--sequences", "2", "--sweeps", "4",
                     "--seed", "5", "--min-instances", "8", "--max-instances", "12",
                     "--min-separation", "4.0"]) == 0
        trees = []
        for conflict in ("first_wins", "argmax"):
            out = tmp_path / conflict
            assert main(["track", "--data", str(data), "--out", str(out), "--membership", "nn",
                         "--conflict", conflict, "--center-jitter", "0.15",
                         "--confidence-noise", "0.1", "--margin-floor", "0.4"]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_report_builds_table_and_svg(self, tmp_path):
        data = tmp_path / "data"
        pred = tmp_path / "pred"
        evald = tmp_path / "eval"
        out = tmp_path / "report"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        assert main(["infer", "--data", str(data), "--out", str(pred),
                     "--membership", "oracle", "--margin-floor", "0.3"]) == 0
        assert main(["eval", "--data", str(data), "--pred", str(pred),
                     "--out", str(evald)]) == 0
        assert main(["report", "--runs", f"oracle={evald}", "--out", str(out)]) == 0
        table = (out / "table.csv").read_text()
        assert table.splitlines()[0].startswith("name,pq")
        svg = (out / "chart.svg").read_text()
        assert svg.startswith("<svg") and "oracle" in svg

    @pytest.mark.parametrize("pq_csv", ["", "class,pq,sq,rq\nall\n"])
    def test_report_malformed_csv_exit_code(self, tmp_path, capsys, pq_csv):
        evald = tmp_path / "eval"
        evald.mkdir()
        (evald / "pq.csv").write_text(pq_csv)
        code = main(["report", "--runs", f"run={evald}", "--out", str(tmp_path / "report")])
        assert code == 4
        assert str(evald / "pq.csv") in capsys.readouterr().err

    def test_truncated_model_exit_code(self, tmp_path, capsys):
        data, model = tmp_path / "data", tmp_path / "model.bin"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        model.write_bytes(b"MPMLP\x00\x01")
        capsys.readouterr()
        code = main(["track", "--data", str(data), "--out", str(tmp_path / "pred"),
                     "--membership", "mlp", "--model", str(model)])
        assert code == 4
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_missing_input_exit_code(self, tmp_path):
        code = main(["eval", "--data", str(tmp_path / "nope"), "--pred",
                     str(tmp_path / "nope2"), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("name", ["poses.txt", "times.txt"])
    def test_short_sequence_file_exit_code(self, tmp_path, name, capsys):
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        path = data / "sequences" / "0000" / name
        path.write_text(path.read_text().splitlines()[0] + "\n")
        code = main(["infer", "--data", str(data), "--out", str(tmp_path / "pred"),
                     "--membership", "oracle"])
        assert code == 4
        assert f"{name}: 1 entries for 3 frames" in capsys.readouterr().err

    @pytest.mark.parametrize("name, extra, message", [
        ("poses.txt", ["garbage line", "1 0 0"], "5 entries for 3 frames"),
        ("times.txt", ["99"], "4 entries for 3 frames"),
        ("poses.txt", ["", ""], None),
        ("times.txt", ["", ""], None),
    ], ids=["surplus-poses", "surplus-time", "blank-pose-lines", "blank-time-lines"])
    def test_surplus_sequence_entries_exit_code(self, tmp_path, name, extra, message, capsys):
        # Entries past the last frame are an error; trailing blank lines are not.
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        path = data / "sequences" / "0000" / name
        path.write_text(path.read_text() + "".join(line + "\n" for line in extra))
        capsys.readouterr()
        code = main(["infer", "--data", str(data), "--out", str(tmp_path / "pred"),
                     "--membership", "oracle"])
        if message is None:
            assert code == 0
        else:
            assert code == 4
            assert f"{path}: {message}" in capsys.readouterr().err

    @staticmethod
    def track_after_editing_line_2(tmp_path, capsys, name, edit):
        """``track``'s exit code, stderr and ``<file>:2: `` after ``edit`` rewrites that line."""
        data, pred = tmp_path / "data", tmp_path / "pred"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        path = data / "sequences" / "0000" / name
        lines = path.read_text().splitlines()
        lines[1] = edit(lines[1])
        path.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        code = main(["track", "--data", str(data), "--out", str(pred)])
        assert not pred.exists() or not any(pred.rglob("*.label"))
        return code, capsys.readouterr().err, f"{path}:2: "

    @pytest.mark.parametrize("name, message", [
        ("poses.txt", "pose entries must be finite"),
        ("times.txt", "sweep 1: timestamp nan is not finite"),
    ])
    def test_non_finite_sequence_file_exit_code(self, tmp_path, name, message, capsys):
        # Sweep 1's pose gets a nan x translation (its 4th value), or its timestamp a nan.
        def nan_entry(line):
            values = line.split()
            values[3 if name == "poses.txt" else 0] = "nan"
            return " ".join(values)

        code, err, where = self.track_after_editing_line_2(tmp_path, capsys, name, nan_entry)
        assert code == 4
        assert where + message in err

    @pytest.mark.parametrize("name, line, message", [
        ("poses.txt", "2 0 0 0 0 1 0 0 0 0 1 0", "rotation block not orthonormal"),
        ("poses.txt", "1 0 0 x 0 1 0 0 0 0 1 0", "could not convert string to float: 'x'"),
        ("poses.txt", "1 0 0 0 0 1 0 0 0 0 1", "11 values, a pose needs 12"),
        ("times.txt", "0.5s", "could not convert string to float: '0.5s'"),
    ], ids=["non-rigid-pose", "non-numeric-pose", "short-pose", "non-numeric-time"])
    def test_malformed_sequence_line_exit_code(self, tmp_path, name, line, message, capsys):
        code, err, where = self.track_after_editing_line_2(tmp_path, capsys, name,
                                                           lambda _: line)
        assert code == 4
        assert where + message in err

    def test_unknown_flag_exit_code(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "modalpanoptic.cli",
                               "synth", "--bogus-flag"], capture_output=True, env=env)
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", ["synth-config-dir", "track-model-dir",
                                         "synth-config-under-file"])
    def test_wrong_kind_of_path_exit_code(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        a_file = tmp_path / "a_file"
        a_file.write_text("seed = 1\n")
        argv = {
            "synth-config-dir": SYNTH_ARGS + ["--out", str(data), "--config", str(tmp_path)],
            "track-model-dir": ["track", "--data", str(data), "--out", str(tmp_path / "p"),
                                "--membership", "mlp", "--model", str(tmp_path)],
            "synth-config-under-file": SYNTH_ARGS + ["--out", str(data),
                                                     "--config", str(a_file / "run.cfg")],
        }[command]
        if command == "track-model-dir":
            assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
            capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        code = main(["infer", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 4

    @pytest.mark.parametrize("key,value", [
        ("membership", "bogus"),     # outside the option's choices
        ("strategy", "sw"),          # choices are case-sensitive, as for the flag
        ("seed", "1.5"),             # not an int
        ("voxel_size_y", "0.1"),     # no option has this dest
        ("data", "x"),               # required options come from the command line
        ("no_occlusion", "1"),       # store_true flags take no value
    ])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# header\n{key} = {value}\n")
        code = main(["infer", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 4
        assert f"{cfg}:2:" in capsys.readouterr().err

    def test_config_comments_and_spacing(self, tmp_path):
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# detector noise\nsemantic_flip = 0.05\n\n  center_jitter=0.2  # m\n"
                       "strategy =SW\n\nseed = 4 # trailing\n")
        track = ["track", "--data", str(data)]
        p1, p2, p3 = tmp_path / "p1", tmp_path / "p2", tmp_path / "p3"
        assert main(track + ["--out", str(p1), "--config", str(cfg)]) == 0
        assert main(track + ["--out", str(p2), "--semantic-flip", "0.05", "--center-jitter",
                             "0.2", "--strategy", "SW", "--seed", "4"]) == 0
        assert main(track + ["--out", str(p3)]) == 0
        assert tree_bytes(p1) == tree_bytes(p2)
        assert tree_bytes(p1) != tree_bytes(p3)

    def test_config_file_defaults_flags_override(self, tmp_path):
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("membership = oracle\nmargin_floor = 0.3\n")
        p1 = tmp_path / "p1"
        assert main(["infer", "--data", str(data), "--out", str(p1),
                     "--config", str(cfg)]) == 0
        # The oracle membership from the config reproduces ground truth.
        seq = read_sequence(data, "0000")
        preds = read_predictions(p1, "0000")
        gt = mp.PanopticLabeling(seq.sweeps[0].sem_labels, seq.sweeps[0].inst_labels)
        acc = mp.PqAccumulator(mp.default_taxonomy())
        acc.add(gt, preds[0])
        assert acc.report().pq == 1.0

    def test_config_sets_only_its_own_keys(self, tmp_path):
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        track = ["track", "--data", str(data), "--strategy", "DSB"]
        p1, p2, p3 = tmp_path / "p1", tmp_path / "p2", tmp_path / "p3"
        assert main(track + ["--out", str(p1), "--config", str(cfg)]) == 0
        assert main(track + ["--out", str(p2), "--seed", "3"]) == 0
        assert tree_bytes(p1) == tree_bytes(p2)
        # A DSB floor of 10 points, not the CLI's 40, changes the output on this corpus.
        assert main(track + ["--out", str(p3), "--seed", "3", "--dsb-min-points", "10"]) == 0
        assert tree_bytes(p3) != tree_bytes(p2)

    def test_cwm_replaces_a_small_extent(self, tmp_path):
        # Car 1 is seen whole in sweep 0 and by three close points in sweep 1,
        # far below CWM_SMALL_FRACTION of its class mean's largest extent.
        rng = np.random.default_rng(3)
        whole = rng.uniform(-1, 1, size=(60, 3)) * [2.0, 0.9, 0.7] + [8.0, 0.0, 0.0]
        other = rng.uniform(-1, 1, size=(60, 3)) * [2.1, 1.0, 0.7] + [-8.0, 4.0, 0.0]
        glimpse = np.array([[9.9, 0.0, 0.1], [9.95, 0.05, 0.1], [9.9, 0.05, 0.15]])
        ground = np.column_stack([rng.uniform(-15, 15, (200, 2)), np.full(200, -0.8)])
        sweeps = []
        for t, car in enumerate([whole, glimpse]):
            xyz = np.concatenate([car, other + [0.5 * t, 0, 0], ground])
            n_car, n_other = len(car), len(other)
            sem = np.r_[np.full(n_car + n_other, CAR), np.full(len(ground), GROUND)]
            inst = np.r_[np.full(n_car, 1), np.full(n_other, 2), np.zeros(len(ground))]
            points = np.column_stack([xyz, np.zeros(len(xyz))])
            sweeps.append(mp.PointCloudSweep(0.1 * t, points, sem, inst))
        data = tmp_path / "data"
        write_sequence(data, "0000", mp.SweepSequence(tuple(sweeps), 0.1), mp.default_taxonomy())
        frames = {}
        for strategy in ("SW", "CWM"):
            out = tmp_path / f"targets-{strategy}"
            assert main(["targets", "--data", str(data), "--out", str(out),
                         "--strategy", strategy]) == 0
            frames[strategy] = [(out / "0000" / f"00000{t}_heatmaps.npy").read_bytes()
                                for t in (0, 1)]
        assert frames["CWM"][0] == frames["SW"][0]
        assert frames["CWM"][1] != frames["SW"][1]
        assert main(["track", "--data", str(data), "--out", str(tmp_path / "pred"),
                     "--strategy", "CWM"]) == 0
        assert len(read_predictions(tmp_path / "pred", "0000")) == 2

    def test_parallel_jobs_match_serial(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--sequences", "3", "--sweeps", "2", "--seed", "3",
                "--min-instances", "2", "--max-instances", "2"]
        assert main(args + ["--out", str(a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(b), "--jobs", "3"]) == 0
        assert tree_bytes(a) == tree_bytes(b)


# Each command with only its required arguments.
BARE = {
    "synth": ["synth", "--out", "o"],
    "targets": ["targets", "--data", "d", "--out", "o"],
    "train-mem": ["train-mem", "--data", "d", "--out", "o"],
    "infer": ["infer", "--data", "d", "--out", "o"],
    "track": ["track", "--data", "d", "--out", "o"],
}


class TestFlagDefaults:
    """A flag that sets a library knob defaults to the library's value."""

    @staticmethod
    def parse(command):
        return build_parser().parse_args(BARE[command])

    def test_synth_flags_are_scene_defaults(self):
        args, scene = self.parse("synth"), mp.SceneConfig()
        assert args.sweeps == scene.sweep_count
        assert args.period == scene.period
        assert (args.min_instances, args.max_instances) == scene.count_range
        assert (args.min_speed, args.max_speed) == scene.speed_range
        assert args.density == scene.points_per_m2
        assert args.motion == scene.motion
        assert args.pair_gap == scene.pair_gap_range
        assert args.row_partners == scene.row_partners
        assert args.min_separation == scene.min_separation
        assert args.max_range == scene.max_range
        assert (not args.no_occlusion) == scene.occlusion
        assert args.min_instance_points == mp.default_taxonomy().min_instance_points

    @pytest.mark.parametrize("command", ["targets", "train-mem", "infer", "track"])
    def test_grid_flags_are_the_default_grid(self, command):
        assert _grid(self.parse(command)) == mp.GridSpec()

    @pytest.mark.parametrize("command", ["infer", "track"])
    def test_inference_flags_are_library_defaults(self, command):
        args, cfg = self.parse(command), PipelineConfig()
        assert _noise(args) == DetectorNoise()
        assert args.margin_floor == cfg.margin_floor == ROI_MARGIN_FLOOR
        assert args.conflict == cfg.conflict
        assert inspect.signature(mp.fuse_panoptic).parameters["conflict"].default == cfg.conflict

    def test_train_flags_are_library_defaults(self):
        args, cfg = self.parse("train-mem"), MembershipTrainConfig(PairFeatureConfig(1))
        assert args.margin_floor == cfg.margin_floor == ROI_MARGIN_FLOOR
        assert (args.hidden,) * 3 == cfg.hidden_dims

    @pytest.mark.parametrize("command, dest, allowed", [
        ("synth", "motion", MOTIONS),
        ("targets", "strategy", EXTENT_STRATEGIES),
        ("track", "strategy", EXTENT_STRATEGIES),
        ("train-mem", "optimizer", OPTIMIZERS),
        ("infer", "conflict", CONFLICT_RULES),
    ], ids=["synth-motion", "targets-strategy", "track-strategy", "train-mem-optimizer",
            "infer-conflict"])
    def test_choices_are_the_library_tuples(self, command, dest, allowed):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        (action,) = [a for a in sub._actions if a.dest == dest]
        assert action.choices is allowed
