"""Generate a synthetic labeled sweep sequence and derive training targets.

Walks the data side of the pipeline: scene -> sparse voxels -> BEV -> modal
centers/extents -> center heatmaps and velocity targets.
"""

import numpy as np

import modalpanoptic as mp
from modalpanoptic.targets import aggregate_extent

taxonomy = mp.default_taxonomy()
spec = mp.GridSpec()

cfg = mp.SceneConfig(seed=7, sweep_count=6, period=0.5, count_range=(3, 4),
                     min_separation=8.0, points_per_m2=60.0)
seq, registry = mp.generate_sequence(cfg, taxonomy)
print(f"sequence: {len(seq)} sweeps, {len(seq.sweeps[0])} points in sweep 0")
print(f"true boxes: { {i: t.half_extent.round(2).tolist() for i, t in registry.instances.items()} }")

sweep = seq.sweeps[0]
grid = mp.voxelize(sweep.points, spec)
print(f"\nvoxel grid: {len(grid)} occupied cells, {grid.dropped} points out of range")

trajectories = mp.build_trajectories(seq, taxonomy)
print("\nper-instance modal statistics (sweep 0 vs trajectory MAX):")
max_extent, _ = aggregate_extent(trajectories, mp.ExtentStrategy("MAX"))
for row in trajectories.offsets[:-1]:
    iid = int(trajectories.instance_id[row])
    true = registry.instances[iid].half_extent
    print(f"  instance {iid}: SW {trajectories.extent[row].round(2)}  "
          f"MAX {max_extent[row].round(2)}  true {true.round(2)}")

at = np.flatnonzero(trajectories.sweep_index == 1)
velocities = dict(zip(trajectories.instance_id[at].tolist(), trajectories.velocity[at]))
# Targets are rendered in the sweep's own sensor frame.
targets = mp.render_bev_targets(trajectories.sensor_center[at], trajectories.class_id[at],
                                trajectories.extent[at], trajectories.velocity[at], spec,
                                taxonomy.num_channels)
print(f"\nheatmap peak value: {targets.heatmaps.values.max():.3f} "
      f"({targets.boxes.keys.size} center cells carry box targets)")
print("true velocities:", {i: np.round(v, 2).tolist() for i, v in velocities.items()})
