"""Detection-centric lidar panoptic segmentation and tracking from point labels.

The library covers the full desk-scale loop: synthetic labeled sweep
sequences, modal target generation with trajectory-level extent refinement,
the training objectives with exact gradients, a small from-scratch MLP for
point-to-center membership, heatmap NMS plus confidence-ordered panoptic
fusion, greedy velocity-offset tracking, and the PQ / mIoU / LSTQ metric
family.
"""

from .cloud import PanopticLabeling, PointCloudSweep, SweepSequence
from .voxels import GridSpec, SparseGrid, voxelize
from .targets import ExtentStrategy, build_trajectories, instance_boxes, render_bev_targets
from .inference import fuse_panoptic
from .metrics import LstqAccumulator, PqAccumulator
from .synth import BoxSpec, SceneConfig, default_taxonomy, generate_sequence, simulate_detector

__version__ = "0.1.0"
