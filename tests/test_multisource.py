"""Redundancy grouping, completeness pruning, sweeps, and the crop prescreen."""

import dataclasses
import re

import numpy as np
import pytest

import redkit.multisource
from conftest import box_with_bcs, chain_ring_dataset, dataset_of, scene_with_boxes
from redkit.geometry import Box2D, project_cuboid
from redkit.ingest import LABEL_SOURCES, Dataset, Frame, GrayImage, Scene, ValidationError, \
    resolve_box
from redkit.multisource import (
    _index_dataset,
    cosine_similarity,
    crop_overlap,
    group_stats,
    prune_dataset,
    sweep_tau,
)
from redkit.overlap import build_overlap_graph, preset_nuscenes
from redkit.synth import SynthParams, camera_at_yaw, generate_scene, nuscenes_like_cameras

GRAPH = preset_nuscenes()
RING = {cam.name: cam for cam in nuscenes_like_cameras()}

BOX = Box2D(100.0, 100.0, 200.0, 200.0)


def frame_with(tracks):
    """tracks: {track_id: [camera, ...]}, every box fully inside the image."""
    from redkit.ingest import Annotation

    annotations = tuple(
        Annotation(track_id=t, category="car", boxes2d={c: BOX for c in cams})
        for t, cams in sorted(tracks.items())
    )
    return Frame(timestamp_ns=0, annotations=annotations)


def groups_in(frame):
    """The redundancy groups the grouping index forms for one frame on the
    six-camera rig, in index order."""
    scene = Scene(scene_id="s", cameras=tuple(RING.values()), frames=(frame,))
    return _index_dataset(dataset_of(scene), GRAPH, "native-2d").groups


# ---------------------------------------------------------------- grouping


def test_pair_observation_forms_one_group():
    frame = frame_with({"obj": ["CAM_FRONT", "CAM_FRONT_RIGHT"]})
    groups = groups_in(frame)
    assert len(groups) == 1
    group = groups[0]
    assert group.track_id == "obj"
    assert sorted(o.camera for o in group.observations) == [
        "CAM_FRONT", "CAM_FRONT_RIGHT",
    ]


def test_single_camera_observation_is_not_grouped():
    frame = frame_with({"obj": ["CAM_FRONT"]})
    assert groups_in(frame) == []


def test_nonadjacent_cameras_do_not_group():
    # front and back share no overlap arc, so the pair cannot be redundant
    frame = frame_with({"obj": ["CAM_FRONT", "CAM_BACK"]})
    assert groups_in(frame) == []


def test_transitive_chain_groups_three_cameras():
    frame = frame_with({"obj": ["CAM_FRONT_LEFT", "CAM_FRONT", "CAM_FRONT_RIGHT"]})
    groups = groups_in(frame)
    assert len(groups) == 1
    assert len(groups[0].observations) == 3


def test_disconnected_cameras_split_into_components():
    # {front, front-left} and {back, back-right} induce separate components;
    # the right-side bridge cameras are absent from the observation set
    frame = frame_with(
        {"obj": ["CAM_FRONT", "CAM_FRONT_LEFT", "CAM_BACK", "CAM_BACK_RIGHT"]}
    )
    groups = groups_in(frame)
    assert len(groups) == 2
    sizes = sorted(len(g.observations) for g in groups)
    assert sizes == [2, 2]


def test_offscreen_boxes_do_not_join_groups():
    from redkit.ingest import Annotation

    ann = Annotation(
        track_id="obj", category="car",
        boxes2d={
            "CAM_FRONT": BOX,
            "CAM_FRONT_RIGHT": Box2D(-50.0, 100.0, -10.0, 200.0),
        },
    )
    frame = Frame(timestamp_ns=0, annotations=(ann,))
    assert groups_in(frame) == []


# ----------------------------------------------------------------- pruning


# a chain of overlapping cameras: each is an overlap edge with the next
CHAIN = ("CAM_FRONT", "CAM_FRONT_RIGHT", "CAM_BACK_RIGHT", "CAM_BACK")


def group_dataset(scores):
    """One track seen along ``CHAIN``, forming a single group; the box in
    ``CHAIN[i]`` has completeness score ``scores[i]``."""
    front = camera_at_yaw("CAM_FRONT", 0.0)
    spec = {"t": {cam: box_with_bcs(score, front) for cam, score in zip(CHAIN, scores)}}
    return dataset_of(scene_with_boxes(RING.values(), [spec]))


def prune_one_group(scores, tau):
    """The kept and the removed cameras of ``group_dataset(scores)``."""
    kept, row = prune_dataset(group_dataset(scores), GRAPH, tau)
    kept_cams = sorted(key[2] for key in kept)
    removed_cams = sorted(set(CHAIN[:len(scores)]) - set(kept_cams))
    assert (row.deleted, row.remaining) == (len(removed_cams), len(kept_cams))
    return kept_cams, removed_cams


def test_prune_pair_keeps_anchor_drops_laggard():
    kept, removed = prune_one_group([0.9, 0.6], tau=0.2)
    assert kept == ["CAM_FRONT"]
    assert removed == ["CAM_FRONT_RIGHT"]


def test_prune_pair_within_tolerance_keeps_both():
    kept, removed = prune_one_group([0.9, 0.6], tau=0.4)
    assert kept == ["CAM_FRONT", "CAM_FRONT_RIGHT"]
    assert removed == []


def test_prune_triple_uses_max_anchor():
    kept, removed = prune_one_group([1.0, 0.8, 0.5], tau=0.3)
    assert kept == ["CAM_FRONT", "CAM_FRONT_RIGHT"]
    assert removed == ["CAM_BACK_RIGHT"]


def test_prune_never_removes_everything():
    for tau in (0.0, 0.1, 0.5):
        kept, _ = prune_one_group([0.4, 0.4, 0.1], tau)
        assert len(kept) >= 1
        # the anchor score always survives
        assert "CAM_FRONT" in kept


def test_prune_partitions_the_group():
    ds = group_dataset([0.9, 0.7, 0.3, 0.2])
    kept, row = prune_dataset(ds, GRAPH, 0.25)
    assert row.deleted + row.remaining == 4
    assert kept.keys() <= all_keys(ds)
    assert len(all_keys(ds) - kept.keys()) == row.deleted


def test_prune_tau_one_removes_nothing():
    assert prune_one_group([1.0, 0.0001], 1.0)[1] == []


def test_prune_rejects_negative_tau():
    with pytest.raises(ValueError):
        prune_dataset(group_dataset([0.9, 0.6]), GRAPH, -0.1)


# --------------------------------------------------------- dataset pruning


def two_group_dataset():
    """One frame, two redundant pairs in different graph edges.

    The front pair has a 0.4 completeness gap and the back pair a 0.4 gap as
    well, so a global tau below 0.4 removes one label from each.
    """
    cams = nuscenes_like_cameras()
    front = camera_at_yaw("CAM_FRONT", 0.0)
    spec = {
        "front-obj": {
            "CAM_FRONT": box_with_bcs(1.0, front),
            "CAM_FRONT_RIGHT": box_with_bcs(0.6, front),
        },
        "back-obj": {
            "CAM_BACK": box_with_bcs(0.9, front),
            "CAM_BACK_LEFT": box_with_bcs(0.5, front),
        },
        "loner": {"CAM_FRONT": box_with_bcs(0.2, front)},
    }
    scene = scene_with_boxes(cams, [spec])
    return dataset_of(scene)


def test_prune_dataset_global_tau():
    ds = two_group_dataset()
    kept, row = prune_dataset(ds, GRAPH, tau=0.3)
    assert row.deleted == 2
    assert row.remaining == 3
    removed_cams = {key[2] for key in all_keys(ds) - kept.keys()}
    assert removed_cams == {"CAM_FRONT_RIGHT", "CAM_BACK_LEFT"}


def test_prune_dataset_tau_one_is_identity():
    ds = two_group_dataset()
    kept, row = prune_dataset(ds, GRAPH, tau=1.0)
    assert row.deleted == 0
    assert kept.keys() == all_keys(ds)


def test_ungrouped_labels_survive_any_tau():
    ds = two_group_dataset()
    kept, _ = prune_dataset(ds, GRAPH, tau=0.0)
    assert ("scene-0", 0, "CAM_FRONT", "loner") in kept


def test_no_overlap_graph_means_no_deletion():
    cams = [camera_at_yaw("CAM_A", 0.0, 60.0), camera_at_yaw("CAM_B", 180.0, 60.0)]
    from redkit.overlap import build_overlap_graph

    graph = build_overlap_graph(cams, min_overlap=0.0)
    assert graph.pairs == ()
    scene = scene_with_boxes(
        cams, [{"t": {"CAM_A": BOX, "CAM_B": BOX}}]
    )
    ds = dataset_of(scene)
    kept, row = prune_dataset(ds, graph, tau=0.0)
    assert row.deleted == 0
    assert row.remaining == 2


def test_per_pair_tau_override_localizes_pruning():
    ds = two_group_dataset()
    overrides = {("CAM_FRONT", "CAM_FRONT_RIGHT"): 0.1}
    kept, row = prune_dataset(ds, GRAPH, tau=1.0, pair_taus=overrides)
    assert row.deleted == 1
    assert ("scene-0", 0, "CAM_BACK_LEFT", "back-obj") in kept
    assert ("scene-0", 0, "CAM_FRONT_RIGHT", "front-obj") not in kept


def test_pair_tau_order_does_not_matter():
    ds = two_group_dataset()
    a, _ = prune_dataset(ds, GRAPH, 1.0, pair_taus={("CAM_FRONT", "CAM_FRONT_RIGHT"): 0.1})
    b, _ = prune_dataset(ds, GRAPH, 1.0, pair_taus={("CAM_FRONT_RIGHT", "CAM_FRONT"): 0.1})
    assert a == b


def test_nan_thresholds_rejected():
    ds = two_group_dataset()
    nan = float("nan")
    with pytest.raises(ValueError):
        prune_dataset(group_dataset([0.9, 0.6]), GRAPH, nan)
    with pytest.raises(ValueError):
        prune_dataset(ds, GRAPH, nan)
    with pytest.raises(ValueError):
        sweep_tau(ds, GRAPH, [0.2, nan])
    for bad in (nan, -0.1, float("inf")):
        with pytest.raises(ValueError):
            prune_dataset(ds, GRAPH, 0.5,
                          pair_taus={("CAM_FRONT", "CAM_FRONT_RIGHT"): bad})
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        prune_dataset(ds, GRAPH, float("inf"))
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        sweep_tau(ds, GRAPH, [0.2, float("inf")])


def test_unknown_label_source_is_rejected_without_annotations():
    # only resolve_box checked the source, so a scene without annotations
    # let any name through, and then a per-scene check let a dataset
    # without scenes through
    no_annotations = dataset_of(Scene(scene_id="s", cameras=tuple(RING.values()),
                                      frames=(Frame(0, ()),)))
    for ds in (no_annotations, Dataset((), {})):
        for entry in (lambda: prune_dataset(ds, GRAPH, 0.3, "bogus"),
                      lambda: sweep_tau(ds, GRAPH, [0.3], "bogus"),
                      lambda: group_stats(ds, GRAPH, "bogus")):
            with pytest.raises(ValueError, match="unknown label source 'bogus'"):
                entry()


@pytest.mark.parametrize("cause", ["track", "timestamp", "scene"])
def test_two_labels_under_one_key_are_rejected(cause):
    # each cause puts two labels under one key, and the second used to
    # overwrite the first: the counts came out wrong, and pruning one of them
    # ended in a bare KeyError. The record holding the repeated id rejects it
    # however it is built, so the grouping pass never sees such a dataset.
    frame = frame_with({"obj": ["CAM_FRONT", "CAM_FRONT_RIGHT"]})
    scene = Scene(scene_id="s", cameras=tuple(RING.values()), frames=(frame,))
    builds = {
        "track": (lambda: dataclasses.replace(
            frame, annotations=frame.annotations * 2), "duplicate track_id 'obj'"),
        "timestamp": (lambda: dataclasses.replace(scene, frames=(frame, frame)),
                      "frame 0: timestamps must be strictly increasing"),
        "scene": (lambda: dataset_of(scene, scene), "duplicate scene_id 's'"),
    }
    build, message = builds[cause]
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("source", ["native-2d", "projected-3d"])
@pytest.mark.parametrize("seed", [3, 29, 311])
def test_kept_box_is_the_resolved_clipped_box(seed, source):
    ds, _ = generate_scene(SynthParams(seed=seed, n_objects=14, n_frames=3),
                           cameras=nuscenes_like_cameras())
    scene = ds.scenes[0]
    anns = {(f.timestamp_ns, a.track_id): a for f in scene.frames for a in f.annotations}
    cut = 0
    for tau in (0.3, 1.0):
        kept, row = prune_dataset(ds, GRAPH, tau, source)
        assert len(kept) == row.remaining > 0
        for (_, ts, camera, track_id), box in kept.items():
            full, clipped = resolve_box(anns[(ts, track_id)], scene.camera_map[camera],
                                        source)
            assert (box.x0, box.y0, box.x1, box.y1) == (
                clipped.x0, clipped.y0, clipped.x1, clipped.y1)
            cut += full != clipped
    # boxes cut by the image border tell the clipped box from the full one
    assert cut > 0


def test_projection_skips_the_pairs_the_screen_drops(monkeypatch):
    # ten 60-degree cameras: most cuboids lie outside most cameras' views,
    # so the frustum screen spares most of the rig's projections
    ds = chain_ring_dataset()
    scene = ds.scenes[0]
    calls = []

    def counting_resolve_box(ann, cam, source):
        calls.append((ann.track_id, cam.name))
        return resolve_box(ann, cam, source)

    monkeypatch.setattr(redkit.multisource, "resolve_box", counting_resolve_box)
    _, row = prune_dataset(ds, build_overlap_graph(scene.cameras), 1.0,
                           "projected-3d")
    pairs = sum(len(f.annotations) for f in scene.frames) * len(scene.cameras)
    assert row.remaining <= len(calls) < pairs / 3


@pytest.mark.parametrize("source", LABEL_SOURCES)
def test_each_annotation_tries_its_cameras_in_name_order(monkeypatch, source):
    # native-2d resolves exactly the stored boxes; projected-3d resolves the
    # rig's pairs in the same order, skipping only pairs that project to no
    # box inside the image
    ds = chain_ring_dataset()
    scene = ds.scenes[0]
    calls = []

    def recording_resolve_box(ann, cam, source):
        calls.append((ann.track_id, cam.name))
        return resolve_box(ann, cam, source)

    monkeypatch.setattr(redkit.multisource, "resolve_box", recording_resolve_box)
    prune_dataset(ds, build_overlap_graph(scene.cameras), 0.3, source)
    pairs = [(ann, cam) for f in scene.frames for ann in f.annotations
             for cam in sorted(scene.cameras, key=lambda c: c.name)]
    keys = [(ann.track_id, cam.name) for ann, cam in pairs]
    assert len(set(keys)) == len(keys)
    if source == "native-2d":
        assert calls == [(ann.track_id, cam.name) for ann, cam in pairs
                         if cam.name in ann.boxes2d]
        return
    tried = set(calls)
    assert calls == [key for key in keys if key in tried]
    skipped = [(ann, cam) for ann, cam in pairs if (ann.track_id, cam.name) not in tried]
    assert len(skipped) > len(calls)
    for ann, cam in skipped:
        projected = project_cuboid(ann.cuboid, cam)
        assert projected is None or projected[1].area == 0.0


def all_keys(ds):
    return {
        (scene.scene_id, frame.timestamp_ns, cam, ann.track_id)
        for scene in ds.scenes
        for frame in scene.frames
        for ann in frame.annotations
        for cam in ann.boxes2d
    }


# ------------------------------------------------------------------- sweeps


def test_sweep_rows_monotone_and_conserving():
    ds = two_group_dataset()
    taus = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    rows = sweep_tau(ds, GRAPH, taus)
    assert [row.tau for row in rows] == taus
    total = len(all_keys(ds))
    for earlier, later in zip(rows, rows[1:]):
        assert earlier.deleted >= later.deleted
    for row in rows:
        assert row.deleted + row.remaining == total


def test_sweep_single_tau_one():
    ds = two_group_dataset()
    rows = sweep_tau(ds, GRAPH, [1.0])
    assert len(rows) == 1
    assert rows[0].deleted == 0


def test_sweep_duplicate_taus_repeat_rows():
    ds = two_group_dataset()
    rows = sweep_tau(ds, GRAPH, [0.3, 0.3])
    assert rows[0] == rows[1]


def test_sweep_tracks_constant():
    ds = two_group_dataset()
    rows = sweep_tau(ds, GRAPH, [0.0, 0.2, 0.5, 1.0])
    tracks = {row.tracks for row in rows}
    assert len(tracks) == 1
    assert tracks.pop() == 3
    # the same tracks labelled again in a second frame still count once each
    scene = ds.scenes[0]
    again = dataclasses.replace(scene.frames[0], timestamp_ns=1)
    twice = dataset_of(dataclasses.replace(scene, frames=(scene.frames[0], again)))
    assert {row.tracks for row in sweep_tau(twice, GRAPH, [0.0, 0.5, 1.0])} == {3}


def test_sweep_matches_individual_prunes():
    ds = two_group_dataset()
    for tau, row in zip([0.0, 0.35, 0.9], sweep_tau(ds, GRAPH, [0.0, 0.35, 0.9])):
        _, single = prune_dataset(ds, GRAPH, tau)
        assert row == single


def _chain_rig():
    ds = chain_ring_dataset()
    return ds, build_overlap_graph(ds.scenes[0].cameras), "projected-3d"


def _ring_rig():
    ds, _ = generate_scene(SynthParams(seed=29, n_objects=16, n_frames=3),
                           cameras=nuscenes_like_cameras())
    return ds, GRAPH, "native-2d"


@pytest.mark.parametrize("rig", [_ring_rig, _chain_rig], ids=["ring", "chain"])
def test_group_stats_agree_with_groups_and_prune_counts(rig):
    ds, graph, source = rig()
    stats = group_stats(ds, graph, source)
    totals = stats["label_totals"]
    counts = stats["bcs_histogram"]["counts"]
    groups = _index_dataset(ds, graph, source).groups
    _, row = prune_dataset(ds, graph, 1.0, source)
    assert totals["groups"] == len(groups) > 0
    assert totals["grouped_observations"] == sum(len(g.observations) for g in groups)
    assert sum(counts) == totals["grouped_observations"]
    assert len(counts) == len(stats["bcs_histogram"]["bin_edges"]) - 1
    assert (totals["labels"], totals["tracks"]) == (row.remaining, row.tracks)
    # each pair's count from the graph and the groups' cameras alone
    want = {}
    for g in groups:
        cams = {o.camera for o in g.observations}
        for p in graph.pairs:
            if p.camera_a in cams and p.camera_b in cams:
                key = f"{p.camera_a}|{p.camera_b}"
                want[key] = want.get(key, 0) + 1
    assert len(want) > 1
    # the chain rig has groups spanning two or more edges
    assert max(len(g.observations) for g in groups) >= (3 if rig is _chain_rig else 2)
    assert list(stats["per_pair_group_counts"].items()) == sorted(want.items())


# ------------------------------------------------------------ crop prescreen


def gradient_image(width=1600, height=900):
    col = np.arange(width, dtype=np.uint8)
    return GrayImage(np.tile(col, (height, 1)))


def test_crop_full_arc_returns_whole_image():
    cam = camera_at_yaw("CAM_FRONT", 0.0, 70.0)
    img = gradient_image()
    crop = crop_overlap(img, cam, (-35.0, 35.0))
    assert crop.width == img.width
    assert crop.height == img.height


def test_crop_known_arc_columns():
    cam = camera_at_yaw("CAM_FRONT", 0.0, 77.31961650818019)
    # fx comes out at 1000 for this fov; columns 1164 through 1500 inclusive
    assert cam.fx == pytest.approx(1000.0, abs=1e-9)
    img = gradient_image()
    crop = crop_overlap(img, cam, (20.0, 35.0))
    assert crop.width == 1500 - 1164 + 1
    assert int(crop.pixels[0, 0]) == 1164 % 256
    assert int(crop.pixels[0, -1]) == 1500 % 256


def test_crop_arc_outside_view_rejected():
    cam = camera_at_yaw("CAM_FRONT", 0.0, 70.0)
    with pytest.raises(ValueError):
        crop_overlap(gradient_image(), cam, (50.0, 60.0))


def test_crop_wrong_image_width_rejected():
    cam = camera_at_yaw("CAM_FRONT", 0.0, 70.0)
    with pytest.raises(ValueError):
        crop_overlap(gradient_image(width=640, height=480), cam, (-10.0, 10.0))


def test_crop_respects_wraparound_arcs():
    cam = camera_at_yaw("CAM_BACK", 180.0, 110.0)
    img = gradient_image()
    # the back camera's seam arc is expressed as an unwrapped interval
    crop = crop_overlap(img, cam, (125.0, 145.0))
    assert crop.width > 0


# --------------------------------------------------------------- similarity


def test_cosine_identical_crops():
    rng = np.random.default_rng(3)
    img = GrayImage(rng.integers(1, 255, size=(64, 64), dtype=np.uint8))
    assert cosine_similarity(img, img) == pytest.approx(1.0, abs=1e-12)


def test_cosine_disjoint_supports():
    a = np.zeros((64, 64), dtype=np.uint8)
    b = np.zeros((64, 64), dtype=np.uint8)
    a[0, 0] = 255
    b[63, 63] = 255
    assert cosine_similarity(GrayImage(a), GrayImage(b)) == 0.0


def test_cosine_scale_invariant():
    rng = np.random.default_rng(5)
    half = rng.integers(0, 128, size=(64, 64), dtype=np.uint8)
    doubled = (half * 2).astype(np.uint8)
    assert cosine_similarity(GrayImage(half), GrayImage(doubled)) == pytest.approx(1.0, abs=1e-12)


def test_cosine_symmetric():
    rng = np.random.default_rng(7)
    a = GrayImage(rng.integers(0, 255, size=(32, 48), dtype=np.uint8))
    b = GrayImage(rng.integers(0, 255, size=(17, 29), dtype=np.uint8))
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-15)


def test_cosine_zero_crop_rejected():
    zero = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    ok = GrayImage(np.full((8, 8), 9, dtype=np.uint8))
    with pytest.raises(ValueError):
        cosine_similarity(zero, ok)


def test_cosine_mixed_sizes_resample():
    big = GrayImage(np.full((128, 128), 50, dtype=np.uint8))
    small = GrayImage(np.full((16, 16), 200, dtype=np.uint8))
    assert cosine_similarity(big, small) == pytest.approx(1.0, abs=1e-12)
