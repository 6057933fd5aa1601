"""redkit: measure and prune annotation redundancy in multi-camera and
camera-LiDAR perception datasets.

The library models a surround camera rig as arcs on a viewing circle, groups
repeated annotations of one object across overlapping cameras, scores each
2D box by how much of it survives image clipping, and prunes the heavily
clipped duplicates. A parallel set of tools measures cross-modal redundancy
between camera-or-fusion 3D detections and LiDAR-only detections, and how
distance-based LiDAR filtering erodes it.
"""

from .geometry import (
    Box2D,
    Box3D,
    CameraModel,
    Cuboid3D,
    angle_to_column,
    bcs,
    centroid_distance,
    cuboid_corners,
    horizontal_fov,
    iou3d,
    project_cuboid,
    yaw_center,
)
from .ingest import (
    Annotation,
    Dataset,
    Frame,
    GrayImage,
    ParseError,
    Scene,
    ValidationError,
    emit_labels,
    parse_dataset,
    parse_pgm,
    serialize_pgm,
    write_dataset,
)
from .multimodal import (
    DistanceSweepRow,
    FrameMatch,
    distance_ttest,
    match_frame,
    pooled_sweep,
    welch_t_test,
)
from .multisource import (
    SweepRow,
    cosine_similarity,
    crop_overlap,
    group_stats,
    overlap_similarity,
    prune_dataset,
    sweep_tau,
)

# Not public API. perfbench's tracer wraps only functions that are public or
# imported by another redkit module, and its grouping metrics hook this one.
from .multisource import _index_dataset  # noqa: F401
from .overlap import (
    OverlapGraph,
    OverlapPair,
    ViewArc,
    build_overlap_graph,
    overlap_arc,
    preset_nuscenes,
    view_arc,
)
from .synth import (
    GroundTruth,
    SynthParams,
    Xorshift64Star,
    brute_force_prune,
    brute_force_rr,
    camera_at_yaw,
    generate_scene,
    nuscenes_like_cameras,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "Box2D",
    "Box3D",
    "CameraModel",
    "Cuboid3D",
    "Dataset",
    "DistanceSweepRow",
    "Frame",
    "FrameMatch",
    "GrayImage",
    "GroundTruth",
    "OverlapGraph",
    "OverlapPair",
    "ParseError",
    "Scene",
    "SweepRow",
    "SynthParams",
    "ValidationError",
    "ViewArc",
    "Xorshift64Star",
    "angle_to_column",
    "bcs",
    "brute_force_prune",
    "brute_force_rr",
    "build_overlap_graph",
    "camera_at_yaw",
    "centroid_distance",
    "cosine_similarity",
    "crop_overlap",
    "cuboid_corners",
    "distance_ttest",
    "emit_labels",
    "generate_scene",
    "group_stats",
    "horizontal_fov",
    "iou3d",
    "match_frame",
    "nuscenes_like_cameras",
    "overlap_arc",
    "overlap_similarity",
    "parse_dataset",
    "parse_pgm",
    "pooled_sweep",
    "preset_nuscenes",
    "project_cuboid",
    "prune_dataset",
    "serialize_pgm",
    "sweep_tau",
    "view_arc",
    "welch_t_test",
    "write_dataset",
    "yaw_center",
]
