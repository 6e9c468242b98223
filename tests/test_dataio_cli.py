import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modalpanoptic as mp
from modalpanoptic.cli import main
from modalpanoptic.dataio import (
    LabelRangeError,
    RunConfig,
    TruncatedRecord,
    decode_labels,
    encode_labels,
    parse_run_config,
    read_label_file,
    read_point_bin,
    read_predictions,
    read_sequence,
    write_label_file,
    write_point_bin,
    write_run_config,
    write_sequence,
)


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
        write_point_bin(path, np.column_stack([pts, np.zeros(200)]))
        back = read_point_bin(path)
        np.testing.assert_array_equal(back, pts)

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
        seq, _ = mp.generate_sequence(mp.SceneConfig(seed=2, sweep_count=3,
                                                     count_range=(2, 2)), tax)
        write_sequence(tmp_path, "0000", seq, tax)
        back = read_sequence(tmp_path, "0000")
        assert len(back) == len(seq)
        for a, b in zip(seq.sweeps, back.sweeps):
            np.testing.assert_array_equal(a.points[:, :4], b.points[:, :4])
            np.testing.assert_array_equal(a.sem_labels, b.sem_labels)
            np.testing.assert_array_equal(a.inst_labels, b.inst_labels)
            np.testing.assert_allclose(a.ego_pose, b.ego_pose, atol=0)
            assert a.timestamp == b.timestamp

    def test_missing_sequence_raises(self, tmp_path):
        (tmp_path / "sequences").mkdir()
        with pytest.raises(FileNotFoundError):
            read_sequence(tmp_path, "0042")


class TestRunConfig:
    def test_roundtrip(self, tmp_path):
        cfg = RunConfig(seed=9, extent_strategy="SW", nms_threshold=0.25)
        path = tmp_path / "run.cfg"
        write_run_config(cfg, path)
        assert parse_run_config(path) == cfg

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 5\n\nnms_threshold=0.4  # trailing\n")
        cfg = parse_run_config(path)
        assert cfg.seed == 5
        assert cfg.nms_threshold == 0.4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ValueError):
            parse_run_config(path)

    def test_grid_spec_derivation(self):
        spec = RunConfig().grid_spec()
        assert spec.bev_width == spec.width // RunConfig().bev_downsample


SYNTH_ARGS = ["synth", "--sequences", "2", "--sweeps", "3", "--seed", "11",
              "--min-instances", "2", "--max-instances", "2"]


class TestCli:
    def test_synth_is_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(SYNTH_ARGS + ["--out", str(a)]) == 0
        assert main(SYNTH_ARGS + ["--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("MODAL_PANOPTIC_SEED", "99")
        assert main(SYNTH_ARGS + ["--out", str(a)]) == 0
        monkeypatch.delenv("MODAL_PANOPTIC_SEED")
        assert main(SYNTH_ARGS + ["--seed", "99", "--out", str(b)]) == 0
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

    def test_unknown_flag_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "modalpanoptic.cli",
                               "synth", "--bogus-flag"], capture_output=True)
        assert proc.returncode == 2

    def test_bad_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        code = main(["infer", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 4

    def test_config_file_defaults_flags_override(self, tmp_path):
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("membership = oracle\nroi_margin_floor = 0.3\n")
        p1 = tmp_path / "p1"
        assert main(["infer", "--data", str(data), "--out", str(p1),
                     "--config", str(cfg)]) == 0
        # The oracle membership from the config reproduces ground truth.
        seq = read_sequence(data, "0000")
        preds = read_predictions(p1, "0000")
        gt = mp.PanopticLabeling(seq.sweeps[0].sem_labels, seq.sweeps[0].inst_labels)
        rep = mp.compute_pq(gt, preds[0], mp.default_taxonomy())
        assert rep.pq == 1.0

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
        # The run-config default (10) differs from the CLI's (40) on this corpus.
        assert main(track + ["--out", str(p3), "--seed", "3", "--dsb-min-points", "10"]) == 0
        assert tree_bytes(p3) != tree_bytes(p2)

    def test_parallel_jobs_match_serial(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--sequences", "3", "--sweeps", "2", "--seed", "3",
                "--min-instances", "2", "--max-instances", "2"]
        assert main(args + ["--out", str(a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(b), "--jobs", "3"]) == 0
        assert tree_bytes(a) == tree_bytes(b)
