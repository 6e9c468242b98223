"""Command line pipeline: synth, targets, train-mem, infer, track, eval, report.

Every command is deterministic given its seed: rerunning with identical
arguments produces byte-identical outputs.

Flag defaults come from the library types and constants that own each knob
(``GridSpec``, ``SceneConfig``, ``DetectorNoise``, ``ROI_MARGIN_FLOOR``, ...) and
``choices`` are the tuples the library checks, so the CLI runs library defaults.

``--config PATH`` reads ``key = value`` lines; ``#`` starts a comment. A key
is an option's long name without the dashes and with ``-`` written as ``_``
(``margin_floor = 0.3`` for ``--margin-floor 0.3``); its value is checked
like the flag's. Each key sets the default of that option in every command
that has it, and flags on the command line override the file.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import dataio
from .cloud import PanopticLabeling, apply_pose, invert_pose
from .inference import CONFLICT_RULES, NMS_MAX_DETECTIONS, NMS_THRESHOLD
from .membership import (
    ROI_MARGIN_FLOOR,
    ROI_MARGIN_FRAC,
    Detections,
    MembershipTrainConfig,
    PairFeatureConfig,
    mlp_scores,
    nn_scores,
    oracle_scores,
    roi_mask,
    train_membership_stage2,
)
from .metrics import LstqAccumulator, PqAccumulator, lstq_report_csv, pq_report_csv
from .mlp import OPTIMIZERS, load_model, save_model
from .pipeline import infer_sequence, prepare_sweep_inputs
from .synth import (
    MOTIONS,
    DetectorNoise,
    HandcraftedFeatures,
    SceneConfig,
    default_taxonomy,
    generate_sequence,
)
from .targets import (
    EXTENT_STRATEGIES,
    ExtentStrategy,
    aggregate_extent,
    build_trajectories,
    class_wise_mean_extents,
    render_bev_targets,
    save_cwm_stats,
)
from .tracking import DEFAULT_MAX_AGE, PipelineConfig, class_gates, panoptic_track_sequence
from .voxels import GridSpec

EXIT_MISSING_INPUT = 3
EXIT_BAD_DATA = 4


class MissingInput(FileNotFoundError):
    pass


def _strategy(args, class_means: dict[int, np.ndarray]) -> ExtentStrategy:
    """The ``--strategy`` extents; CWM takes the sequence's ``class_means``."""
    name = args.strategy.upper()
    if name == "DSB":
        return ExtentStrategy("DSB", dsb_min_points=args.dsb_min_points)
    if name == "CWM":
        return ExtentStrategy("CWM", cwm_stats=class_means)
    return ExtentStrategy(name)


def _noise(args) -> DetectorNoise:
    return DetectorNoise(
        center_jitter=args.center_jitter,
        confidence_noise=args.confidence_noise,
        drop_probability=args.drop_probability,
        semantic_flip_probability=args.semantic_flip,
        velocity_noise=args.velocity_noise,
    )


def _grid(args) -> GridSpec:
    return GridSpec((args.voxel_size, args.voxel_size, args.voxel_size_z),
                    args.planar_range, args.z_min, args.z_max, args.bev_downsample)


def _pair_config(args, taxonomy) -> PairFeatureConfig:
    """The ``--features`` pair encoding over the handcrafted feature widths."""
    dim = HandcraftedFeatures.DIM
    point_dim, bev_dim = {"geo": (0, 0), "geo+bev": (0, dim), "full": (dim, dim)}[args.features]
    return PairFeatureConfig(taxonomy.num_channels, point_dim, bev_dim)


def _synth_one(task) -> str:
    root, name, cfg, taxonomy = task
    seq, registry = generate_sequence(cfg, taxonomy)
    dataio.write_sequence(root, name, seq, taxonomy)
    _write_registry(Path(root) / "sequences" / name / "registry.json", registry)
    return name


def _write_registry(path, registry) -> None:
    import json

    payload = {
        "period": registry.config.period,
        "sweep_times": registry.sweep_times,
        "instances": {
            str(iid): {
                "class_id": inst.class_id,
                "half_extent": [float(v) for v in inst.half_extent],
                "base_center": [float(v) for v in inst.base_center],
                "velocity": [float(v) for v in inst.velocity],
            }
            for iid, inst in sorted(registry.instances.items())
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def cmd_synth(args) -> int:
    taxonomy = default_taxonomy(args.min_instance_points)
    pair_gap = tuple(args.pair_gap) if args.pair_gap else None
    tasks = []
    for i in range(args.sequences):
        cfg = SceneConfig(
            seed=args.seed + i,
            sweep_count=args.sweeps,
            period=args.period,
            count_range=(args.min_instances, args.max_instances),
            speed_range=(args.min_speed, args.max_speed),
            points_per_m2=args.density,
            motion=args.motion,
            pair_gap_range=pair_gap,
            row_partners=args.row_partners,
            min_separation=args.min_separation,
            max_range=args.max_range,
            occlusion=not args.no_occlusion,
        )
        tasks.append((args.out, f"{i:04d}", cfg, taxonomy))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            names = list(pool.map(_synth_one, tasks))
    else:
        names = [_synth_one(t) for t in tasks]
    print(f"wrote {len(names)} sequences under {args.out}")
    return 0


def cmd_targets(args) -> int:
    taxonomy = dataio.dataset_taxonomy(args.data)
    spec = _grid(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tables = []
    for name in dataio.list_sequences(args.data):
        seq = dataio.read_sequence(args.data, name)
        trajectories = build_trajectories(seq, taxonomy)
        tables.append(trajectories)
        strategy = _strategy(args, class_wise_mean_extents(trajectories, taxonomy))
        extents, excluded = aggregate_extent(trajectories, strategy)
        max_extents = trajectories.max_extents
        seq_out = out / name
        seq_out.mkdir(parents=True, exist_ok=True)
        for t, sweep in enumerate(seq.sweeps):
            at = trajectories.sweep_index == t
            rows = np.flatnonzero(at & ~excluded)
            rendered = render_bev_targets(
                apply_pose(invert_pose(sweep.ego_pose), trajectories.center[rows]),
                trajectories.class_id[rows], extents[rows], trajectories.velocity[rows],
                spec, taxonomy.num_channels)
            frame = f"{t:06d}"
            np.save(seq_out / f"{frame}_heatmaps.npy", rendered.heatmaps.dense())
            np.save(seq_out / f"{frame}_height.npy", rendered.height.dense())
            np.save(seq_out / f"{frame}_velocity.npy", rendered.velocity.dense())
            np.save(seq_out / f"{frame}_valid.npy", rendered.valid_mask())
            rows = _membership_rows(sweep, trajectories, np.flatnonzero(at), max_extents)
            np.save(seq_out / f"{frame}_membership.npy", rows)
    stats = class_wise_mean_extents(tables, taxonomy)
    save_cwm_stats(stats, out / "cwm.tsv")
    print(f"wrote targets for {len(dataio.list_sequences(args.data))} sequences to {out}")
    return 0


def _membership_rows(sweep, trajectories, rows, max_extents) -> np.ndarray:
    """(detection_index, point_index, label) triples for GT-center RoIs.

    ``rows`` are the sweep's records in ``trajectories``. Each RoI sits at
    the sensor-frame ``sensor_center`` with its instance's (world-frame)
    ``max_extents`` row.
    """
    gt = Detections(trajectories.sensor_center[rows], np.ones(rows.size),
                    trajectories.class_id[rows], max_extents[trajectories.row_instance[rows]],
                    trajectories.velocity[rows])
    # Zero margins leave each RoI the uninflated box.
    det, point = np.nonzero(roi_mask(gt, sweep.xyz, 0.0, 0.0))
    label = sweep.inst_labels[point] == trajectories.instance_id[rows][det]
    return np.column_stack([det, point, label.astype(np.int8)])


def cmd_train_mem(args) -> int:
    taxonomy = dataio.dataset_taxonomy(args.data)
    spec = _grid(args)
    pair_cfg = _pair_config(args, taxonomy)
    provider = HandcraftedFeatures(spec) if pair_cfg.needs_features else None
    sequences = [dataio.read_sequence(args.data, name)
                 for name in dataio.list_sequences(args.data)]
    cfg = MembershipTrainConfig(
        pair_cfg,
        center_jitter=args.train_jitter,
        margin_floor=args.margin_floor,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        hidden_dims=(args.hidden,) * len(MembershipTrainConfig.hidden_dims),
        seed=args.seed,
    )
    model, trace = train_membership_stage2(sequences, taxonomy, cfg, provider)
    save_model(model, args.out)
    if args.trace:
        lines = ["epoch,bce"] + [f"{i},{v:.17g}" for i, v in enumerate(trace)]
        Path(args.trace).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"trained {args.features} membership model -> {args.out} "
          f"(final BCE {trace[-1]:.4f})")
    return 0


def _run_inference(args, track: bool) -> int:
    taxonomy = dataio.dataset_taxonomy(args.data)
    spec = _grid(args)
    if args.membership == "mlp":
        if not args.model:
            raise MissingInput("--membership mlp requires --model")
        pair_cfg = _pair_config(args, taxonomy)
        provider = HandcraftedFeatures(spec) if pair_cfg.needs_features else None
        score = partial(mlp_scores, load_model(args.model), pair_cfg, provider)
    else:
        score = oracle_scores if args.membership == "oracle" else nn_scores

    def predict(seq) -> list[PanopticLabeling]:
        # One sequence per call: none of it is alive while the next is read.
        trajectories = build_trajectories(seq, taxonomy)
        class_means = class_wise_mean_extents(trajectories, taxonomy)
        pcfg = PipelineConfig(
            nms_threshold=args.nms_threshold,
            nms_max_detections=args.nms_max_detections,
            margin_frac=args.margin_frac,
            margin_floor=args.margin_floor,
            conflict=args.conflict,
            gates=class_gates(class_means) or None,
            max_age=args.max_age if track else DEFAULT_MAX_AGE,
        )
        stream = prepare_sweep_inputs(seq, trajectories, taxonomy, spec,
                                      _strategy(args, class_means), _noise(args), seed=args.seed)
        if track:
            return panoptic_track_sequence(stream, taxonomy, spec, score, seq.period, pcfg)
        return infer_sequence(stream, taxonomy, spec, score, pcfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = dataio.list_sequences(args.data)
    for name in names:
        dataio.write_predictions(out, name, predict(dataio.read_sequence(args.data, name)))
    dataio.prune_predictions(out, names)
    print(f"wrote predictions to {out}")
    return 0


def cmd_infer(args) -> int:
    return _run_inference(args, track=False)


def cmd_track(args) -> int:
    return _run_inference(args, track=True)


def cmd_eval(args) -> int:
    taxonomy = dataio.dataset_taxonomy(args.data)
    pq = PqAccumulator(taxonomy)
    lstq = LstqAccumulator(taxonomy)
    for name in dataio.list_sequences(args.data):
        seq = dataio.read_sequence(args.data, name)
        preds = dataio.read_predictions(args.pred, name)
        if len(preds) != len(seq):
            raise ValueError(f"{name}: prediction sweep count mismatch")
        gts = [PanopticLabeling(s.sem_labels, s.inst_labels) for s in seq.sweeps]
        for gt, pred in zip(gts, preds):
            pq.add(gt, pred)
        lstq.add_sequence(gts, preds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pq.csv").write_text(pq_report_csv(pq.report()), encoding="utf-8")
    (out / "lstq.csv").write_text(lstq_report_csv(lstq.report()), encoding="utf-8")
    rep = pq.report()
    lrep = lstq.report()
    print(f"PQ {rep.pq:.4f}  PQ_dagger {rep.pq_dagger:.4f}  mIoU {rep.miou:.4f}  "
          f"S_assoc {lrep.s_assoc:.4f}  LSTQ {lrep.lstq:.4f}")
    return 0


def _read_csv_value(path, row_name, column):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if column not in header:
        raise ValueError(f"{path}: no column {column!r}")
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] == row_name:
            if len(cells) != len(header):
                raise ValueError(f"{path}: row {row_name!r} has {len(cells)} cells, "
                                 f"header has {len(header)}")
            return float(cells[header.index(column)])
    raise ValueError(f"{path}: no row {row_name!r}")


def cmd_report(args) -> int:
    runs = []
    for spec in args.runs:
        if "=" not in spec:
            raise ValueError(f"--runs entries look like name=EVALDIR, got {spec!r}")
        name, _, path = spec.partition("=")
        path = Path(path)
        if not (path / "pq.csv").exists():
            raise MissingInput(f"{path}/pq.csv does not exist")
        entry = {"name": name, "pq": _read_csv_value(path / "pq.csv", "all", "pq")}
        lstq_path = path / "lstq.csv"
        if lstq_path.exists():
            entry["lstq"] = _read_csv_value(lstq_path, "lstq", "value")
        runs.append(entry)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    columns = ["name", "pq"] + (["lstq"] if any("lstq" in r for r in runs) else [])
    lines = [",".join(columns)]
    for r in runs:
        lines.append(",".join(str(r.get(c, "")) for c in columns))
    (out / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "chart.svg").write_text(_bar_chart_svg(runs), encoding="utf-8")
    print("\n".join(lines))
    return 0


def _bar_chart_svg(runs) -> str:
    """Simple PQ bar chart; deterministic text output."""
    width, height, pad = 640, 360, 48
    bar_zone = width - 2 * pad
    n = max(len(runs), 1)
    bar_w = bar_zone / n * 0.6
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{pad - 12}" font-size="14">PQ by run</text>',
    ]
    for i, r in enumerate(runs):
        x = pad + bar_zone * (i + 0.2) / n
        h = (height - 2 * pad) * max(0.0, min(1.0, r["pq"]))
        y = height - pad - h
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
                     f'fill="#4878b0"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - pad + 16}" font-size="12">'
                     f'{r["name"]}</text>')
        parts.append(f'<text x="{x:.1f}" y="{y - 4:.1f}" font-size="12">{r["pq"]:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_parser() -> argparse.ArgumentParser:
    # Options shared by several commands are declared once, in parent parsers.
    # ``parents=`` hands the same action objects to each command, so they are
    # built anew for every parser that ``_apply_config`` may change.
    seed, extent, pairs, grid, infer = (argparse.ArgumentParser(add_help=False)
                                        for _ in range(5))
    seed.add_argument("--seed", type=int, default=0)
    extent.add_argument("--strategy", default="MAX", choices=EXTENT_STRATEGIES)
    extent.add_argument("--dsb-min-points", type=int, default=40)
    pairs.add_argument("--features", default="full", choices=["geo", "geo+bev", "full"])
    pairs.add_argument("--margin-floor", type=float, default=ROI_MARGIN_FLOOR)
    grid.add_argument("--voxel-size", type=float, default=GridSpec.voxel_size[0])
    grid.add_argument("--voxel-size-z", type=float, default=GridSpec.voxel_size[2])
    grid.add_argument("--planar-range", type=float, default=GridSpec.planar_range)
    grid.add_argument("--z-min", type=float, default=GridSpec.z_min)
    grid.add_argument("--z-max", type=float, default=GridSpec.z_max)
    grid.add_argument("--bev-downsample", type=int, default=GridSpec.bev_downsample)
    infer.add_argument("--membership", default="nn", choices=["nn", "mlp", "oracle"])
    infer.add_argument("--model", help="checkpoint path (required for --membership mlp)")
    infer.add_argument("--nms-threshold", type=float, default=NMS_THRESHOLD)
    infer.add_argument("--nms-max-detections", type=int, default=NMS_MAX_DETECTIONS)
    infer.add_argument("--margin-frac", type=float, default=ROI_MARGIN_FRAC)
    infer.add_argument("--conflict", default=PipelineConfig.conflict, choices=CONFLICT_RULES,
                       help="owner of a point two detections claim: the first (most "
                            "confident) claimant, or the highest membership; under "
                            "--membership nn no point has two claimants, so both write "
                            "the same bytes")
    infer.add_argument("--center-jitter", type=float, default=DetectorNoise.center_jitter)
    infer.add_argument("--confidence-noise", type=float,
                       default=DetectorNoise.confidence_noise)
    infer.add_argument("--drop-probability", type=float,
                       default=DetectorNoise.drop_probability)
    infer.add_argument("--semantic-flip", type=float,
                       default=DetectorNoise.semantic_flip_probability)
    infer.add_argument("--velocity-noise", type=float, default=DetectorNoise.velocity_noise)

    parser = argparse.ArgumentParser(prog="modalpanoptic",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset", parents=[seed])
    p.add_argument("--out", required=True)
    p.add_argument("--sequences", type=int, default=1)
    p.add_argument("--sweeps", type=int, default=SceneConfig.sweep_count)
    p.add_argument("--period", type=float, default=SceneConfig.period)
    p.add_argument("--min-instances", type=int, default=SceneConfig.count_range[0])
    p.add_argument("--max-instances", type=int, default=SceneConfig.count_range[1])
    p.add_argument("--min-speed", type=float, default=SceneConfig.speed_range[0])
    p.add_argument("--max-speed", type=float, default=SceneConfig.speed_range[1])
    p.add_argument("--density", type=float, default=SceneConfig.points_per_m2)
    p.add_argument("--motion", default=SceneConfig.motion, choices=MOTIONS)
    p.add_argument("--pair-gap", type=float, nargs=2, metavar=("LO", "HI"),
                   default=SceneConfig.pair_gap_range)
    p.add_argument("--row-partners", type=int, default=SceneConfig.row_partners)
    p.add_argument("--min-separation", type=float, default=SceneConfig.min_separation)
    p.add_argument("--max-range", type=float, default=SceneConfig.max_range)
    p.add_argument("--min-instance-points", type=int,
                   default=default_taxonomy().min_instance_points)
    p.add_argument("--no-occlusion", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("targets", help="dump detection/membership training targets",
                       parents=[extent, grid])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("train-mem", help="train the membership pair scorer",
                       parents=[seed, pairs, grid])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--epochs", type=int, default=MembershipTrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=MembershipTrainConfig.learning_rate)
    p.add_argument("--optimizer", default=MembershipTrainConfig.optimizer, choices=OPTIMIZERS)
    p.add_argument("--batch-size", type=int, default=MembershipTrainConfig.batch_size)
    p.add_argument("--hidden", type=int, default=MembershipTrainConfig.hidden_dims[0])
    p.add_argument("--train-jitter", type=float, default=MembershipTrainConfig.center_jitter)
    p.set_defaults(func=cmd_train_mem)

    p = sub.add_parser("infer", help="per-sweep panoptic fusion",
                       parents=[seed, extent, pairs, grid, infer])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("track", help="fusion plus temporal association",
                       parents=[seed, extent, pairs, grid, infer])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-age", type=int, default=DEFAULT_MAX_AGE)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="PQ and LSTQ against ground truth")
    p.add_argument("--data", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="comparison table and SVG chart across runs")
    p.add_argument("--runs", nargs="+", required=True, metavar="NAME=EVALDIR")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    for sub_parser in sub.choices.values():
        sub_parser.add_argument(
            "--config", metavar="PATH",
            help="file of key = value lines, # comments; a key is a long option name "
                 "with - written as _ (margin_floor = 0.3); flags override the file")
    return parser


def _apply_config(parser: argparse.ArgumentParser, path) -> None:
    """Make each ``key = value`` line of ``path`` the default of its options.

    A key names every optional, one-value option with that dest, in any
    command; the value goes through the option's ``type`` and ``choices``.
    """
    commands = parser._subparsers._group_actions[0].choices.values()
    for lineno, key, text in dataio.read_config_lines(path):
        where = f"{path}:{lineno}"
        matches = [(sub, action) for sub in commands for action in sub._actions
                   if action.dest == key and key != "config" and action.option_strings
                   and not action.required and action.nargs is None]
        if not matches:
            raise ValueError(f"{where}: no option takes the key {key!r}")
        for sub, action in matches:
            try:
                value = action.type(text) if action.type else text
            except ValueError:
                raise ValueError(f"{where}: bad value for {key}: {text!r}") from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{where}: {key} must be one of "
                                 f"{', '.join(map(str, action.choices))}, got {text!r}")
            sub.set_defaults(**{key: value})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA


if __name__ == "__main__":
    sys.exit(main())
