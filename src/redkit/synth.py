"""Seeded synthetic scenes with analytic ground truth, plus brute-force
reference implementations of the pruning and redundancy measures, of the
3D IoU and of the scene file text.

Determinism contract: generation consumes randomness only from the
xorshift64* generator below, so identical parameters reproduce bit-identical
datasets on any platform. Objects are placed at seeded-uniform polar
positions with guaranteed ground-plane separation; camera visibility is
decided purely by the bearing of the object center, which keeps the expected
grouping and redundancy bookkeeping exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import AbstractSet, Any, Mapping, Sequence

from .geometry import (
    Box2D,
    Box3D,
    CameraModel,
    Cuboid3D,
    check_threshold,
    iou3d,
    normalize_deg,
    project_cuboid,
    quat_about_z,
    quat_mul,
)
from .ingest import Annotation, Dataset, Frame, Scene
from .overlap import OverlapGraph, build_overlap_graph, view_arc

_MASK64 = (1 << 64) - 1
_SEED_FALLBACK = 0x9E3779B97F4A7C15

# quaternion of a forward-looking camera: camera z -> ego x, x -> -y, y -> -z
FORWARD_CAMERA_ROTATION = (0.5, -0.5, 0.5, -0.5)

_CATEGORIES = ("car", "truck", "pedestrian", "cyclist")


class Xorshift64Star:
    """xorshift64* pseudo-random generator.

    The state is a single nonzero 64-bit word. One step is

    .. code-block:: text

        x ^= x >> 12
        x ^= (x << 25) mod 2**64
        x ^= x >> 27
        output = (x * 0x2545F4914F6CDD1D) mod 2**64

    and uniform doubles in ``[0, 1)`` take the top 53 output bits. A zero
    seed is replaced by 0x9E3779B97F4A7C15 so the recurrence cannot stick
    at zero. The recurrence is the portability contract: any implementation
    of it reproduces the same stream.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        s = seed & _MASK64
        self.state = s if s else _SEED_FALLBACK

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()


@dataclass(frozen=True)
class SynthParams:
    """Knobs of the scene generator. All randomness derives from ``seed``."""

    seed: int
    n_cameras: int = 6
    camera_fov: float = 70.0
    camera_yaw_offsets: tuple[float, ...] | None = None
    n_objects: int = 8
    n_frames: int = 1
    radial_range: tuple[float, float] = (4.0, 40.0)
    size_range: tuple[float, float] = (1.0, 4.0)
    detection_noise: float = 0.0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.n_cameras < 1:
            raise ValueError("need at least one camera")
        if not 0.0 < self.camera_fov < 180.0:
            raise ValueError(f"camera_fov must be in (0, 180), got {self.camera_fov}")
        if self.camera_yaw_offsets is not None:
            if len(self.camera_yaw_offsets) != self.n_cameras:
                raise ValueError("camera_yaw_offsets length must equal n_cameras")
            if not all(map(math.isfinite, self.camera_yaw_offsets)):
                raise ValueError("camera_yaw_offsets must be finite, got "
                                 f"{self.camera_yaw_offsets}")
        if self.n_objects < 0:
            raise ValueError("n_objects must be nonnegative")
        if self.n_frames < 1:
            raise ValueError("need at least one frame")
        # each comparison fails for NaN; the upper bounds exclude infinity
        lo, hi = self.radial_range
        if not 0.0 < lo < hi < math.inf:
            raise ValueError(f"bad radial_range {self.radial_range}")
        slo, shi = self.size_range
        if not 0.0 < slo <= shi < math.inf:
            raise ValueError(f"bad size_range {self.size_range}")
        check_threshold(self.detection_noise, "detection_noise")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be within [0, 1]")


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows about the scene it emitted.

    ``expected_groups`` lists ``(track_id, cameras)`` for every track whose
    observing cameras contain a subset of two or more connected in the
    rig's :func:`build_overlap_graph` at its default threshold (none for a
    one-camera rig);
    ``expected_rr`` is the pooled redundancy ratio implied by the drop list,
    exact only for zero detection noise (``None`` otherwise or when no
    objects exist).
    """

    expected_groups: tuple[tuple[str, frozenset[str]], ...]
    expected_distances: dict[str, float]
    expected_rr: float | None


def camera_at_yaw(name: str, yaw_deg: float, fov_deg: float = 70.0,
                  width: int = 1600, height: int = 900,
                  translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
                  ) -> CameraModel:
    """A pinhole camera whose optical axis points at ``yaw_deg`` in the ego frame."""
    fx = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    return CameraModel(
        name=name,
        fx=fx,
        fy=fx,
        cx=width / 2.0,
        cy=height / 2.0,
        width=width,
        height=height,
        rotation=quat_mul(quat_about_z(yaw_deg), FORWARD_CAMERA_ROTATION),
        translation=translation,
    )


def nuscenes_like_cameras() -> tuple[CameraModel, ...]:
    """The standard six-camera surround rig.

    70 degree cameras at 0, +-55 and +-110 degrees plus a 110 degree rear
    camera; adjacent front/side views share 15 degrees, rear pairs 20.
    """
    return (
        camera_at_yaw("CAM_FRONT", 0.0, 70.0),
        camera_at_yaw("CAM_FRONT_LEFT", 55.0, 70.0),
        camera_at_yaw("CAM_FRONT_RIGHT", -55.0, 70.0),
        camera_at_yaw("CAM_BACK_LEFT", 110.0, 70.0),
        camera_at_yaw("CAM_BACK_RIGHT", -110.0, 70.0),
        camera_at_yaw("CAM_BACK", 180.0, 110.0),
    )


def _ring_cameras(params: SynthParams) -> tuple[CameraModel, ...]:
    if params.camera_yaw_offsets is not None:
        yaws = params.camera_yaw_offsets
    else:
        yaws = tuple(
            normalize_deg(i * 360.0 / params.n_cameras) for i in range(params.n_cameras)
        )
    return tuple(
        camera_at_yaw(f"CAM_{i:02d}", yaw, params.camera_fov)
        for i, yaw in enumerate(yaws)
    )


def _graph_components(members: Sequence[str],
                      adjacency: Mapping[str, AbstractSet[str]]) -> list[frozenset[str]]:
    present = set(members)
    seen: set[str] = set()
    comps = []
    for start in sorted(present):
        if start in seen:
            continue
        comp: set[str] = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(
                p for p in adjacency.get(cur, set()) if p in present and p not in comp
            )
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def generate_scene(params: SynthParams,
                   cameras: Sequence[CameraModel] | None = None
                   ) -> tuple[Dataset, GroundTruth]:
    """Generate one synthetic scene and its ground truth.

    Objects are point-placed at seeded-uniform polar positions, then inflated
    to cuboids; placement rejects draws whose ground-plane exclusion circles
    (half diagonal plus a jitter margin) would intersect an earlier object,
    so distinct objects can never overlap, even after LiDAR jitter. A camera
    sees an object exactly when its view arc contains the center bearing;
    each visible camera gets a native 2D box whose center column follows the
    bearing and whose apparent size scales with 1/range, so clipped area is
    positive for precisely the cameras the ground truth lists.

    Per frame, ``fusion_baseline`` holds every object's exact 3D box and
    ``lidar_only`` a copy with seeded drops (``drop_rate``) and center jitter
    (uniform per axis within ``+-detection_noise``).

    Args:
        params: generator knobs.
        cameras: optional explicit rig, overriding the parameter-built ring
            (e.g. :func:`nuscenes_like_cameras`).

    Returns:
        A one-scene dataset and the matching :class:`GroundTruth`.
    """
    rng = Xorshift64Star(params.seed)
    cams = tuple(cameras) if cameras is not None else _ring_cameras(params)
    arcs = [view_arc(c) for c in cams]
    adjacency = build_overlap_graph(cams).adjacency

    frames = []
    visibility: list[tuple[str, list[str]]] = []
    expected_distances: dict[str, float] = {}
    kept_total = 0

    for fi in range(params.n_frames):
        placed: list[tuple[float, float, float]] = []
        annotations = []
        base_set: list[Box3D] = []
        lidar_set: list[Box3D] = []
        for oi in range(params.n_objects):
            for _ in range(200):
                bearing = rng.uniform(-180.0, 180.0)
                radius = rng.uniform(*params.radial_range)
                length = rng.uniform(*params.size_range)
                width = rng.uniform(*params.size_range)
                height = rng.uniform(*params.size_range)
                excl = 0.5 * math.hypot(length, width) + 2.0 * params.detection_noise + 0.05
                x = radius * math.cos(math.radians(bearing))
                y = radius * math.sin(math.radians(bearing))
                if all(
                    (x - px) ** 2 + (y - py) ** 2 > (excl + pe) ** 2
                    for px, py, pe in placed
                ):
                    break
            else:
                raise RuntimeError(
                    f"could not place object {oi} of frame {fi}: the radial range "
                    "is too crowded for the requested object count"
                )
            placed.append((x, y, excl))
            obj_yaw = rng.uniform(-math.pi, math.pi)
            category = _CATEGORIES[int(rng.random() * len(_CATEGORIES)) % len(_CATEGORIES)]
            score = 0.5 + 0.5 * rng.random()
            track_id = f"t{fi:05d}o{oi:04d}"
            center = (x, y, height / 2.0)
            size = (length, width, height)

            visible = []
            boxes2d = {}
            for cam, arc in zip(cams, arcs):
                rel = normalize_deg(bearing - arc.center)
                if abs(rel) >= arc.half_width:
                    continue
                visible.append(cam.name)
                u = cam.cx + cam.fx * math.tan(math.radians(rel))
                su = cam.fx * (0.5 * math.hypot(length, width)) / radius
                sv = cam.fy * (0.5 * height) / radius
                boxes2d[cam.name] = Box2D(u - su, cam.cy - sv, u + su, cam.cy + sv)

            annotations.append(Annotation(
                track_id=track_id,
                category=category,
                cuboid=Cuboid3D(center, size, obj_yaw),
                boxes2d=boxes2d,
            ))
            visibility.append((track_id, visible))
            expected_distances[track_id] = math.sqrt(
                radius * radius + (height / 2.0) ** 2)

            base_set.append(Box3D(center, size, obj_yaw, score))
            if rng.random() >= params.drop_rate:
                if params.detection_noise > 0.0:
                    jx = rng.uniform(-params.detection_noise, params.detection_noise)
                    jy = rng.uniform(-params.detection_noise, params.detection_noise)
                    jz = rng.uniform(-params.detection_noise, params.detection_noise)
                    jittered = (center[0] + jx, center[1] + jy, center[2] + jz)
                else:
                    jittered = center
                lidar_set.append(Box3D(jittered, size, obj_yaw, score))
                kept_total += 1

        frames.append(Frame(
            timestamp_ns=fi * 100_000_000,
            annotations=tuple(annotations),
            detection_sets={
                "fusion_baseline": tuple(base_set),
                "lidar_only": tuple(lidar_set),
            },
        ))

    expected_groups = []
    for track_id, cams_seen in sorted(visibility):
        if len(cams_seen) < 2:
            continue
        for comp in _graph_components(sorted(cams_seen), adjacency):
            if len(comp) >= 2:
                expected_groups.append((track_id, comp))

    if params.n_objects > 0 and params.detection_noise == 0.0:
        expected_rr: float | None = kept_total / (params.n_objects * params.n_frames)
    else:
        expected_rr = None

    scene = Scene(
        scene_id=f"synth-{params.seed & _MASK64:016x}",
        cameras=cams,
        frames=tuple(frames),
    )
    dataset = Dataset((scene,), {name: i for i, name in enumerate(_CATEGORIES)})
    truth = GroundTruth(
        expected_groups=tuple(expected_groups),
        expected_distances=expected_distances,
        expected_rr=expected_rr,
    )
    return dataset, truth


# --------------------------------------------------------------------------
# brute-force references
#
# These recompute the published measures by direct enumeration, sharing no
# grouping, clipping or counting code with the production implementations.


def brute_force_prune(dataset: Dataset, graph: OverlapGraph, tau: float,
                      source: str = "native-2d",
                      pair_taus: Mapping | None = None
                      ) -> set[tuple[str, int, str, str]]:
    """Reference pruner: literal rule application by exhaustive enumeration.

    Returns the kept ``(scene_id, timestamp_ns, camera, track_id)`` keys.
    """
    overrides = {frozenset(k): float(v) for k, v in (pair_taus or {}).items()}
    edges = {frozenset((p.camera_a, p.camera_b)) for p in graph.pairs}
    adjacency: dict[str, set[str]] = {}
    for p in graph.pairs:
        adjacency.setdefault(p.camera_a, set()).add(p.camera_b)
        adjacency.setdefault(p.camera_b, set()).add(p.camera_a)

    kept: set[tuple[str, int, str, str]] = set()
    for scene in dataset.scenes:
        for frame in scene.frames:
            for ann in frame.annotations:
                scores: dict[str, float] = {}
                for cam in scene.cameras:
                    if source == "native-2d":
                        box = ann.boxes2d.get(cam.name)
                        if box is None:
                            continue
                        fx0, fy0, fx1, fy1 = box.x0, box.y0, box.x1, box.y1
                    elif source == "projected-3d":
                        if ann.cuboid is None:
                            continue
                        projected = project_cuboid(ann.cuboid, cam)
                        if projected is None:
                            continue
                        full = projected[0]
                        fx0, fy0, fx1, fy1 = full.x0, full.y0, full.x1, full.y1
                    else:
                        raise ValueError(f"unknown label source {source!r}")
                    w = float(cam.width)
                    h = float(cam.height)
                    cx0 = min(max(fx0, 0.0), w)
                    cy0 = min(max(fy0, 0.0), h)
                    cx1 = min(max(fx1, 0.0), w)
                    cy1 = min(max(fy1, 0.0), h)
                    clipped_area = (cx1 - cx0) * (cy1 - cy0)
                    if clipped_area <= 0.0:
                        continue
                    scores[cam.name] = clipped_area / ((fx1 - fx0) * (fy1 - fy0))
                for name in scores:
                    kept.add((scene.scene_id, frame.timestamp_ns, name, ann.track_id))
                if len(scores) < 2:
                    continue
                for comp in _graph_components(sorted(scores), adjacency):
                    if len(comp) < 2:
                        continue
                    if overrides:
                        member_edges = [
                            frozenset((a, b))
                            for a in comp for b in comp
                            if a < b and frozenset((a, b)) in edges
                        ]
                        eff = min(
                            (overrides.get(e, tau) for e in member_edges),
                            default=tau,
                        )
                    else:
                        eff = tau
                    anchor = max(scores[c] for c in comp)
                    for name in comp:
                        if anchor - scores[name] > eff:
                            kept.discard(
                                (scene.scene_id, frame.timestamp_ns, name, ann.track_id)
                            )
    return kept


def brute_force_rr(base: Sequence[Cuboid3D], lidar: Sequence[Cuboid3D],
                   theta: float) -> float:
    """Reference redundancy ratio: full double loop, no early exit."""
    if not base:
        raise ValueError("redundancy ratio undefined for an empty baseline set")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    hits = 0
    for b in base:
        overlaps = 0
        for l in lidar:
            if iou3d(b, l) >= theta:
                overlaps += 1
        if overlaps > 0:
            hits += 1
    return hits / len(base)


def reference_iou3d(a: Cuboid3D, b: Cuboid3D) -> float:
    """Reference 3D IoU, which ``redkit.geometry.iou3d`` must reproduce bit
    for bit: the same footprints, clip and areas, written as plainly as
    possible (each clip edge lists every vertex's side value first, and the
    shoelace indexes its vertices). A ratio that rounding lifts above 1 is
    1; NaN stays NaN."""
    za0 = a.center[2] - 0.5 * a.size[2]
    za1 = a.center[2] + 0.5 * a.size[2]
    zb0 = b.center[2] - 0.5 * b.size[2]
    zb1 = b.center[2] + 0.5 * b.size[2]
    dz = min(za1, zb1) - max(za0, zb0)
    if dz <= 0.0:
        return 0.0
    fa = _reference_footprint(a)
    fb = _reference_footprint(b)
    inter_poly = _reference_clip(fa, fb)
    if len(inter_poly) < 3:
        return 0.0
    inter_area = _reference_area(inter_poly)
    if inter_area <= 0.0:
        return 0.0
    vol_a = _reference_area(fa) * (za1 - za0)
    vol_b = _reference_area(fb) * (zb1 - zb0)
    inter = inter_area * dz
    union = vol_a + vol_b - inter
    if union <= 0.0:
        return 0.0
    return min(inter / union, 1.0)


def _reference_footprint(box: Cuboid3D) -> list[tuple[float, float]]:
    """Ground-plane footprint corners, counterclockwise starting at local
    (+x, +y)."""
    cx, cy = box.center[0], box.center[1]
    hl = 0.5 * box.size[0]
    hw = 0.5 * box.size[1]
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    return [
        (cx + hl * c - hw * s, cy + hl * s + hw * c),
        (cx - hl * c - hw * s, cy - hl * s + hw * c),
        (cx - hl * c + hw * s, cy - hl * s - hw * c),
        (cx + hl * c + hw * s, cy + hl * s - hw * c),
    ]


def _reference_clip(subject: list[tuple[float, float]],
                    clip: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a convex CCW subject by a convex CCW polygon."""
    output = subject
    m = len(clip)
    for i in range(m):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % m]
        ex = bx - ax
        ey = by - ay
        # interior is to the left of the directed clip edge; boundary counts
        side = [ex * (py - ay) - ey * (px - ax) for px, py in output]
        result: list[tuple[float, float]] = []
        for j in range(len(output)):
            if side[j] >= 0.0:
                if side[j - 1] < 0.0:
                    result.append(_reference_crossing(output[j - 1], output[j],
                                                      side[j - 1], side[j]))
                result.append(output[j])
            elif side[j - 1] >= 0.0:
                result.append(_reference_crossing(output[j - 1], output[j],
                                                  side[j - 1], side[j]))
        output = result
    return output


def _reference_crossing(p: tuple[float, float], q: tuple[float, float],
                        sp: float, sq: float) -> tuple[float, float]:
    """Where segment ``p``-``q`` crosses the clip edge; ``sp`` and ``sq`` are
    the endpoints' signed distances to it."""
    t = sp / (sp - sq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _reference_area(points: list[tuple[float, float]]) -> float:
    """Shoelace area of a simple polygon."""
    k = len(points)
    acc = 0.0
    for i in range(k):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % k]
        acc += x0 * y1 - x1 * y0
    return 0.5 * abs(acc)


def brute_force_distance(box: Cuboid3D) -> float:
    """Reference centroid distance: average the corners explicitly."""
    corners = []
    cx, cy, cz = box.center
    hl, hw, hh = box.size[0] / 2.0, box.size[1] / 2.0, box.size[2] / 2.0
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                lx = sx * hl
                ly = sy * hw
                corners.append((
                    cx + lx * math.cos(box.yaw) - ly * math.sin(box.yaw),
                    cy + lx * math.sin(box.yaw) + ly * math.cos(box.yaw),
                    cz + sz * hh,
                ))
    mx = sum(c[0] for c in corners) / 8.0
    my = sum(c[1] for c in corners) / 8.0
    mz = sum(c[2] for c in corners) / 8.0
    return math.sqrt(mx * mx + my * my + mz * mz)


def scene_to_dict(scene: Scene, class_map: Mapping[str, int]) -> dict[str, Any]:
    """Reference scene document: the schema's JSON-ready form of a scene,
    built field by field as ``redkit.ingest``'s module docstring lays it
    out."""
    by_id = sorted(class_map.items(), key=lambda kv: kv[1])
    return {
        "scene_id": scene.scene_id,
        "class_map": [name for name, _ in by_id],
        "cameras": [
            {
                "name": c.name,
                "intrinsics": {
                    "fx": c.fx, "fy": c.fy, "cx": c.cx, "cy": c.cy,
                    "width": c.width, "height": c.height,
                },
                "extrinsics": {
                    "rotation": list(c.rotation),
                    "translation": list(c.translation),
                },
            }
            for c in scene.cameras
        ],
        "frames": [
            {
                "timestamp_ns": f.timestamp_ns,
                "annotations": [
                    _annotation_to_dict(a) for a in f.annotations
                ],
                **(
                    {
                        "detection_sets": {
                            name: [
                                {
                                    "center": list(b.center),
                                    "size": list(b.size),
                                    "yaw": b.yaw,
                                    "score": b.score,
                                }
                                for b in boxes
                            ]
                            for name, boxes in f.detection_sets.items()
                        }
                    }
                    if f.detection_sets
                    else {}
                ),
            }
            for f in scene.frames
        ],
    }


def _annotation_to_dict(a: Annotation) -> dict[str, Any]:
    out: dict[str, Any] = {"track_id": a.track_id, "category": a.category}
    if a.cuboid is not None:
        out["cuboid"] = {
            "center": list(a.cuboid.center),
            "size": list(a.cuboid.size),
            "yaw": a.cuboid.yaw,
        }
    if a.boxes2d:
        out["boxes2d"] = {
            cam: {"x0": b.x0, "y0": b.y0, "x1": b.x1, "y1": b.y1}
            for cam, b in a.boxes2d.items()
        }
    return out


def reference_scene_text(scene: Scene, class_map: Mapping[str, int]) -> str:
    """Reference scene file text, which ``redkit.ingest.write_dataset``
    must reproduce byte for byte: :func:`scene_to_dict` through
    ``json.dumps(indent=1)``, and a final newline."""
    return json.dumps(scene_to_dict(scene, class_map), indent=1) + "\n"


__all__ = [
    "FORWARD_CAMERA_ROTATION",
    "GroundTruth",
    "SynthParams",
    "Xorshift64Star",
    "brute_force_distance",
    "brute_force_prune",
    "brute_force_rr",
    "camera_at_yaw",
    "generate_scene",
    "nuscenes_like_cameras",
    "reference_iou3d",
    "reference_scene_text",
    "scene_to_dict",
]
