"""Cross-camera redundancy: grouping, completeness-based pruning, sweeps.

An object annotated in several overlapping cameras yields one redundancy
group per frame. Within a group the observation with the highest box
completeness score anchors the pruning rule: observations whose score falls
more than ``tau`` below the anchor are deleted, everything else is kept.
Ungrouped observations are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .geometry import CameraModel, angle_to_column, bcs, check_threshold, \
    frustum_screen, normalize_deg
from .geometry import Box2D
from .ingest import LABEL_SOURCES, Annotation, Dataset, GrayImage, Scene, ValidationError, \
    parse_pgm, resolve_box
from .overlap import OverlapGraph, OverlapPair, view_arc

# (scene_id, timestamp_ns, camera, track_id)
LabelKey = tuple[str, int, str, str]

_RESAMPLE_GRID = 64
_BCS_BINS = 20


@dataclass(frozen=True)
class Observation:
    """One camera's view of a grouped object."""

    camera: str
    clipped: Box2D
    bcs: float


@dataclass(frozen=True)
class RedundancyGroup:
    """All observations of one object across graph-connected cameras, and
    the overlap edges between them: the pairs of its scene's graph in
    ``graphs`` (``{s.scene_id: g for s in dataset.scenes}`` for one shared
    rig) whose two cameras both observe the object, in graph order."""

    scene_id: str
    frame: int
    track_id: str
    observations: tuple[Observation, ...]
    edges: tuple[OverlapPair, ...]


@dataclass(frozen=True)
class SweepRow:
    """Dataset-level label counts after pruning at one threshold."""

    tau: float
    deleted: int
    remaining: int
    tracks: int


def _observations(scene: Scene, source: str
                  ) -> Iterator[tuple[int, Annotation, list[Observation]]]:
    """Every annotation of ``scene`` in frame order, with its frame's
    timestamp and its observations under ``source`` (checked by the caller):
    the tried cameras, in name order, where it resolves to a box with
    positive clipped area. Under ``native-2d`` it tries the cameras it has a
    box in, under ``projected-3d`` those :func:`frustum_screen` keeps."""
    frames = scene.frames
    cameras = scene.camera_map
    if source == "native-2d":
        # only the cameras that actually carry a box; avoids a full rig scan
        tried = (sorted(ann.boxes2d) for f in frames for ann in f.annotations)
    else:
        names = sorted(cameras)
        keep = iter(frustum_screen(
            [cameras[n] for n in names],
            [ann.cuboid for f in frames for ann in f.annotations
             if ann.cuboid is not None]).tolist())
        tried = ([n for n, k in zip(names, next(keep)) if k]
                 if ann.cuboid is not None else []
                 for f in frames for ann in f.annotations)
    for f in frames:
        for ann in f.annotations:
            observations = []
            for name in next(tried):
                resolved = resolve_box(ann, cameras[name], source)
                if resolved is not None and resolved[1].area > 0.0:
                    full, clipped = resolved
                    observations.append(Observation(name, clipped, bcs(full, clipped)))
            yield f.timestamp_ns, ann, observations


# --------------------------------------------------------------------------
# dataset-level pruning


@dataclass
class _DatasetIndex:
    """One pass over a dataset: every label's clipped box, the formed
    groups and the number of tracks with a label."""

    labels: dict[LabelKey, Box2D]
    groups: list[RedundancyGroup]
    # pruning never removes a group's highest-scoring observation, so every
    # one of these tracks keeps a label at any threshold
    tracks: int


def _index_dataset(dataset: Dataset, graphs: Mapping[str, OverlapGraph],
                   source: str) -> _DatasetIndex:
    if source not in LABEL_SOURCES:
        raise ValueError(f"unknown label source {source!r}, expected one of "
                         f"{LABEL_SOURCES}")
    labels: dict[LabelKey, Box2D] = {}
    groups: list[RedundancyGroup] = []
    tracks: set[tuple[str, str]] = set()
    for scene in dataset.scenes:
        sid = scene.scene_id
        pairs = graphs[sid].pairs
        for ts, ann, observations in _observations(scene, source):
            if not observations:
                continue
            tracks.add((sid, ann.track_id))
            for o in observations:
                labels[(sid, ts, o.camera, ann.track_id)] = o.clipped
            if len(observations) < 2:
                continue
            # a group is a component, of at least two cameras, of the pairs
            # whose two cameras both observe the object
            seen = {o.camera for o in observations}
            edges = [p for p in pairs if p.camera_a in seen and p.camera_b in seen]
            component: dict[str, set[str]] = {}
            for p in edges:
                merged = (component.get(p.camera_a, {p.camera_a})
                          | component.get(p.camera_b, {p.camera_b}))
                for camera in merged:
                    component[camera] = merged
            # observations come in name order, so each group is emitted at
            # its first camera
            for o in observations:
                members = component.get(o.camera, ())
                if len(members) >= 2 and min(members) == o.camera:
                    groups.append(RedundancyGroup(
                        sid, ts, ann.track_id,
                        tuple(x for x in observations if x.camera in members),
                        tuple(p for p in edges if p.camera_a in members)))
    return _DatasetIndex(labels, groups, len(tracks))


def _normalize_pair_taus(pair_taus: Mapping | None, dataset: Dataset,
                         graphs: Mapping[str, OverlapGraph]
                         ) -> dict[frozenset[str], float]:
    """The overrides keyed by camera pair. An override whose cameras form
    an edge in no scene's graph could never apply, so it is an error."""
    out: dict[frozenset[str], float] = {}
    for pair, value in (pair_taus or {}).items():
        key = frozenset(pair)
        if len(key) != 2:
            raise ValueError(f"pair override key must name two cameras, got {pair!r}")
        value = float(value)
        check_threshold(value, f"pair override for {pair!r}")
        a, b = key
        if all(b not in graphs[s.scene_id].adjacency.get(a, ()) for s in dataset.scenes):
            raise ValueError(f"pair override for {pair!r} names no overlapping "
                             "camera pair of any scene")
        out[key] = value
    return out


def _removed_keys(index: _DatasetIndex, tau: float,
                  pair_taus: dict[frozenset[str], float]) -> list[LabelKey]:
    """The pruning rule: every group's labels whose score falls more than
    the group's threshold below its highest score, in group order. The
    threshold is the smallest, over the group's edges, of each edge's
    override or else ``tau``."""
    removed: list[LabelKey] = []
    for group in index.groups:
        threshold = tau
        if pair_taus:
            threshold = min(pair_taus.get(frozenset((e.camera_a, e.camera_b)), tau)
                            for e in group.edges)
        anchor = max(o.bcs for o in group.observations)
        removed += [(group.scene_id, group.frame, o.camera, group.track_id)
                    for o in group.observations if anchor - o.bcs > threshold]
    return removed


def prune_dataset(dataset: Dataset, graphs: Mapping[str, OverlapGraph],
                  tau: float, source: str = "native-2d",
                  pair_taus: Mapping | None = None
                  ) -> tuple[dict[LabelKey, Box2D], SweepRow]:
    """Prune every redundancy group in a dataset at one threshold.

    Args:
        dataset: parsed dataset.
        graphs: each scene's overlap graph, keyed by scene id; pass
            ``{s.scene_id: g for s in dataset.scenes}`` for one shared rig.
        tau: global completeness-gap threshold in ``[0, 1]`` scale.
        source: ``native-2d`` or ``projected-3d`` label source.
        pair_taus: optional per-camera-pair overrides, keyed by any
            two-element camera-name pair; each pair must be an edge of
            some scene's graph.

    Returns:
        The kept labels, each key ``(scene_id, timestamp_ns, camera,
        track_id)`` mapped to its box clipped to the image (what
        :func:`redkit.ingest.emit_labels` formats), and the count row for
        this threshold.
    """
    check_threshold(tau, "tau")
    overrides = _normalize_pair_taus(pair_taus, dataset, graphs)
    index = _index_dataset(dataset, graphs, source)
    removed = _removed_keys(index, tau, overrides)
    kept = index.labels
    for key in removed:
        del kept[key]
    return kept, SweepRow(tau, len(removed), len(kept), index.tracks)


def sweep_tau(dataset: Dataset, graphs: Mapping[str, OverlapGraph],
              taus: Sequence[float], source: str = "native-2d",
              pair_taus: Mapping | None = None) -> list[SweepRow]:
    """Prune at several thresholds, reusing one grouping pass.

    ``graphs`` is keyed by scene id as in :func:`prune_dataset`, e.g.
    ``{s.scene_id: g for s in dataset.scenes}``. Rows come back in the
    order of ``taus`` (no sorting, no deduplication).
    """
    if not taus:
        raise ValueError("sweep needs at least one tau")
    for tau in taus:
        check_threshold(tau, "tau")
    overrides = _normalize_pair_taus(pair_taus, dataset, graphs)
    index = _index_dataset(dataset, graphs, source)
    deleted = [len(_removed_keys(index, tau, overrides)) for tau in taus]
    return [SweepRow(tau, d, len(index.labels) - d, index.tracks)
            for tau, d in zip(taus, deleted)]


def group_stats(dataset: Dataset, graphs: Mapping[str, OverlapGraph],
                source: str = "native-2d") -> dict:
    """The group sections of an audit report: label totals, per-pair group
    counts and the BCS histogram of the grouped observations. ``graphs`` is
    keyed by scene id, e.g. ``{s.scene_id: g for s in dataset.scenes}``.

    A pair's count is the number of groups that contain both its cameras,
    keyed ``"camera_a|camera_b"``. The histogram has ``_BCS_BINS`` equal
    bins; a score of exactly 1 falls in the last bin.
    """
    index = _index_dataset(dataset, graphs, source)
    hist = [0] * _BCS_BINS
    pair_group_counts: dict[str, int] = {}
    grouped_obs = 0
    for group in index.groups:
        for o in group.observations:
            grouped_obs += 1
            hist[min(int(o.bcs * _BCS_BINS), _BCS_BINS - 1)] += 1
        for pair in group.edges:
            key = f"{pair.camera_a}|{pair.camera_b}"
            pair_group_counts[key] = pair_group_counts.get(key, 0) + 1
    return {
        "label_totals": {
            "labels": len(index.labels),
            "grouped_observations": grouped_obs,
            "groups": len(index.groups),
            "tracks": index.tracks,
        },
        "per_pair_group_counts": dict(sorted(pair_group_counts.items())),
        "bcs_histogram": {
            "bin_edges": [i / _BCS_BINS for i in range(_BCS_BINS + 1)],
            "counts": hist,
        },
    }


# --------------------------------------------------------------------------
# overlap-region image comparison


def crop_overlap(img: GrayImage, cam: CameraModel,
                 arc: tuple[float, float]) -> GrayImage:
    """Cut the pixel columns a shared arc covers in one camera's image.

    ``arc`` is ``(start, end)`` in ego degrees with ``0 < end - start <=
    180`` (the pair may represent a seam crossing as ``end > 180``). The arc
    is intersected with the camera's own view arc, which is narrower than a
    semicircle, so they meet in at most one region; an empty intersection
    is an error. The crop spans the full image height.
    """
    if img.width != cam.width:
        raise ValueError(
            f"image width {img.width} does not match camera {cam.name!r} "
            f"width {cam.width}"
        )
    start, end = arc
    span = end - start
    if span <= 0.0 or span > 180.0:
        raise ValueError(f"bad arc {arc!r}: end must exceed start by at most 180")
    view = view_arc(cam)
    half = view.half_width
    rel = normalize_deg(start - view.center)
    # an arc that wraps past the seam meets the view one turn back
    for shift in (rel - 360.0, rel):
        lo = max(shift, -half)
        hi = min(shift + span, half)
        if hi > lo:
            break
    else:
        raise ValueError(
            f"arc {arc!r} does not intersect the view of camera {cam.name!r}"
        )
    # pull exact-edge bounds inside the open FOV interval before conversion
    eps = 1e-9
    lo = max(lo, -half + eps)
    hi = min(hi, half - eps)
    c0 = angle_to_column(lo, cam)
    c1 = angle_to_column(hi, cam)
    return GrayImage(img.pixels[:, c0 : c1 + 1])


def overlap_similarity(dataset: Dataset, graphs: Mapping[str, OverlapGraph],
                       image_root: str | Path | None) -> dict:
    """The crop-similarity prescreen of an audit report.

    For every overlapping pair of every scene, the mean cosine similarity of
    the two cameras' :func:`crop_overlap` crops over the frames that have
    both images, read as ``<image_root>/<scene_id>/<timestamp_ns>/<camera>.pgm``.
    A pair naming a camera the scene lacks compares no frames. The status
    is ``skipped`` when there is no image root or no frame had images for
    any pair.
    """
    if image_root is None:
        return {"status": "skipped", "reason": "no images supplied"}
    root = Path(image_root)
    if not root.is_dir():
        raise ValidationError(f"{root}: no such directory")
    per_scene: dict[str, dict] = {}
    compared = 0
    for scene in dataset.scenes:
        cam_map = scene.camera_map
        pair_stats: dict[str, dict] = {}
        for pair in graphs[scene.scene_id].pairs:
            sims = []
            cam_a = cam_map.get(pair.camera_a)
            cam_b = cam_map.get(pair.camera_b)
            # a preset pair may name a camera this scene's rig lacks
            for frame in scene.frames if cam_a and cam_b else ():
                base = root / scene.scene_id / str(frame.timestamp_ns)
                path_a = base / f"{pair.camera_a}.pgm"
                path_b = base / f"{pair.camera_b}.pgm"
                if not path_a.is_file() or not path_b.is_file():
                    continue
                crop_a = _crop(path_a, cam_a, pair.arc)
                crop_b = _crop(path_b, cam_b, pair.arc)
                try:
                    sims.append(cosine_similarity(crop_a, crop_b))
                except ValueError as exc:
                    raise ValueError(f"{path_a}, {path_b}: {exc}") from None
            key = f"{pair.camera_a}|{pair.camera_b}"
            if sims:
                compared += len(sims)
                pair_stats[key] = {
                    "mean": sum(sims) / len(sims),
                    "frames": len(sims),
                }
            else:
                pair_stats[key] = {"mean": None, "frames": 0}
        per_scene[scene.scene_id] = pair_stats
    if compared == 0:
        return {"status": "skipped", "reason": "no frame had images for any pair"}
    return {"status": "ok", "per_scene": per_scene}


def _crop(path: Path, cam: CameraModel, arc: tuple[float, float]) -> GrayImage:
    """:func:`crop_overlap` of the PGM at ``path``; an error names the file."""
    try:
        return crop_overlap(parse_pgm(path.read_bytes()), cam, arc)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _resample_to_grid(img: GrayImage) -> np.ndarray:
    """Bilinear resample to the fixed comparison grid (identity at 64x64)."""
    src = img.pixels.astype(np.float64)
    h, w = src.shape
    ys = np.clip((np.arange(_RESAMPLE_GRID) + 0.5) * (h / _RESAMPLE_GRID) - 0.5,
                 0.0, h - 1.0)
    xs = np.clip((np.arange(_RESAMPLE_GRID) + 0.5) * (w / _RESAMPLE_GRID) - 0.5,
                 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    return (
        src[np.ix_(y0, x0)] * (1.0 - wy) * (1.0 - wx)
        + src[np.ix_(y0, x1)] * (1.0 - wy) * wx
        + src[np.ix_(y1, x0)] * wy * (1.0 - wx)
        + src[np.ix_(y1, x1)] * wy * wx
    )


def cosine_similarity(a: GrayImage, b: GrayImage) -> float:
    """Cosine of two crops after resampling both to a common 64x64 grid.

    All-zero crops have no direction and raise ``ValueError``. Intensities
    are nonnegative, so the result lies in ``[0, 1]``.
    """
    va = _resample_to_grid(a).ravel()
    vb = _resample_to_grid(b).ravel()
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for an all-zero crop")
    return float(np.dot(va, vb) / (na * nb))
