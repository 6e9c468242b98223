"""Detection-centric lidar panoptic segmentation and tracking from point labels.

The library covers the full desk-scale loop: synthetic labeled sweep
sequences, modal target generation with trajectory-level extent refinement,
the training objectives with exact gradients, a small from-scratch MLP for
point-to-center membership, heatmap NMS plus confidence-ordered panoptic
fusion, greedy velocity-offset tracking, and the PQ / mIoU / LSTQ metric
family.
"""

from .cloud import (
    ClassDef,
    PanopticLabeling,
    PointCloudSweep,
    SweepSequence,
    Taxonomy,
    load_taxonomy,
    save_taxonomy,
    transform_to_frame,
)
from .voxels import BevMap, GridSpec, SparseGrid, SparseVoxelGrid, flatten_bev, \
    majority_vote_labels, voxelize
from .targets import (
    BevTargets,
    ExtentStrategy,
    Trajectories,
    aggregate_extent,
    build_trajectories,
    class_wise_mean_extents,
    instance_boxes,
    modal_center,
    render_bev_targets,
)
from .losses import LossValue, bce_loss, focal_loss, l1_loss, masked_cross_entropy, total_loss
from .mlp import MlpModel, OptimizerState, backward, build_mlp, forward, load_model, \
    optimizer_step, save_model, train_epochs
from .membership import (
    Detections,
    MembershipTrainConfig,
    PairFeatureConfig,
    PairTable,
    assemble_pair_features,
    gather_pairs,
    mlp_scores,
    nn_baseline,
    nn_scores,
    oracle_scores,
    predict_membership,
    roi_points,
    train_membership_stage2,
)
from .inference import (
    FusionResult,
    NearestCenterExtents,
    PredictedMaps,
    fuse_panoptic,
    nms_detect,
)
from .tracking import PipelineConfig, Scorer, Tracklet, greedy_associate, panoptic_track_sequence
from .metrics import (
    LstqAccumulator,
    LstqReport,
    PqAccumulator,
    PqReport,
    compute_lstq,
    compute_miou,
    compute_pq,
    membership_accuracy,
)
from .synth import (
    BoxSpec,
    DetectorNoise,
    HandcraftedFeatures,
    SceneConfig,
    SceneRegistry,
    default_taxonomy,
    generate_sequence,
    simulate_detector,
)

__version__ = "0.1.0"
