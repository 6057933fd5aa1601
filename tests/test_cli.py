"""Command-line surface: subcommands, report files, exit codes, determinism."""

import argparse
import ast
import contextlib
import copy
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redkit
import redkit.cli
from conftest import box_with_bcs, dataset_of, holder, json_values, scene_with_boxes
from redkit.cli import build_parser, main
from redkit.geometry import Box2D, Box3D, centroid_distance
from redkit.ingest import Frame, Scene, ValidationError, parse_dataset, write_dataset
from redkit.synth import (
    SynthParams,
    brute_force_prune,
    brute_force_rr,
    camera_at_yaw,
    generate_scene,
    nuscenes_like_cameras,
    reference_scene_text,
)


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def ring_dataset(tmp_path):
    """A seeded nuScenes-like dataset on disk, plus its in-memory twin."""
    data_dir = tmp_path / "data"
    params = SynthParams(seed=311, n_objects=14, n_frames=4, drop_rate=0.25)
    ds, _ = generate_scene(params, cameras=nuscenes_like_cameras())
    write_dataset(ds, data_dir)
    return data_dir, ds


def known_gap_dataset(tmp_path):
    """Two redundant pairs with 0.4 completeness gaps plus one loner."""
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
    ds = dataset_of(scene_with_boxes(cams, [spec]))
    data_dir = tmp_path / "gap-data"
    write_dataset(ds, data_dir)
    return data_dir


# ----------------------------------------------------------------------- sim


def test_sim_writes_scene(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sim", "--out", out, "--seed", 5, "--n-objects", 6) == 0
    files = list(out.glob("*.json"))
    assert len(files) == 1
    doc = json.loads(files[0].read_text())
    assert doc["scene_id"] == "synth-0000000000000005"


def test_sim_is_byte_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run_cli("sim", "--out", tmp_path / name, "--seed", 5,
                       "--n-objects", 6, "--n-frames", 2) == 0
    a = next((tmp_path / "a").glob("*.json")).read_bytes()
    b = next((tmp_path / "b").glob("*.json")).read_bytes()
    assert a == b


def test_sim_out_may_name_a_scene_file(tmp_path):
    out = tmp_path / "scene.json"
    assert run_cli("sim", "--out", out, "--seed", 5, "--n-objects", 6) == 0
    assert json.loads(out.read_text())["scene_id"] == "synth-0000000000000005"


def test_sim_ring_flag_uses_named_cameras(tmp_path):
    assert run_cli("sim", "--out", tmp_path, "--seed", 1, "--nuscenes-ring") == 0
    doc = json.loads(next(tmp_path.glob("*.json")).read_text())
    names = {cam["name"] for cam in doc["cameras"]}
    assert "CAM_FRONT" in names and "CAM_BACK_LEFT" in names


# the SHA-256 of one sim scene per rig, as json.dumps(indent=1) writes it:
# the scene file format, pinned byte for byte
SIM_SCENE_DIGESTS = {
    "--n-cameras=8": "f9d117db1e2454e677116ceb04387bb469dbceb34821ec56316faa1dfc0711b0",
    "--nuscenes-ring": "97e58c03e48d216d27890a0f6a84ea58a02a8fd64a7b8d729f2dc77ace6efd23",
}


@pytest.mark.parametrize("rig", sorted(SIM_SCENE_DIGESTS))
def test_sim_scene_bytes_are_fixed(tmp_path, rig):
    assert run_cli("sim", "--out", tmp_path, "--seed", 16, rig, "--n-objects", 10,
                   "--n-frames", 3, "--detection-noise", 0.1, "--drop-rate", 0.25) == 0
    data = (tmp_path / "synth-0000000000000010.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SIM_SCENE_DIGESTS[rig]
    params = SynthParams(seed=16, n_cameras=8, n_objects=10, n_frames=3,
                         detection_noise=0.1, drop_rate=0.25)
    ds, _ = generate_scene(params, nuscenes_like_cameras() if rig == "--nuscenes-ring"
                           else None)
    assert data == reference_scene_text(ds.scenes[0], ds.class_map).encode()


@pytest.mark.parametrize("args,message", [
    (["--detection-noise", "inf"], "detection_noise must be nonnegative and finite"),
    (["--detection-noise", "nan"], "detection_noise must be nonnegative and finite"),
    (["--radial-range", "4,inf"], "bad radial_range (4.0, inf)"),
    (["--size-range", "1,inf"], "bad size_range (1.0, inf)"),
    (["--yaw-offsets", "inf,60,120,180,240,300"],
     "camera_yaw_offsets must be finite, got (inf, 60.0"),
    (["--yaw-offsets", "nan,60,120,180,240,300"],
     "camera_yaw_offsets must be finite, got (nan, 60.0"),
])
def test_sim_rejects_non_finite_parameters(tmp_path, capsys, args, message):
    # these used to write a scene with NaN or infinite coordinates, to treat
    # NaN noise as none, or to fail naming no option
    out = tmp_path / "x"
    assert run_cli("sim", "--out", out, "--n-objects", 1, *args) == 1
    assert f"redkit sim: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,named", [
    (["--n-cameras", "6"], "--n-cameras"),
    (["--camera-fov", "70"], "--camera-fov"),
    (["--yaw-offsets", "0,55,-55,110,-110,180"], "--yaw-offsets"),
    (["--yaw-offsets", "0,55,-55,110,-110,180", "--camera-fov", "70", "--n-cameras", "6"],
     "--n-cameras, --camera-fov, --yaw-offsets"),
])
def test_nuscenes_ring_rejects_the_ring_options(tmp_path, capsys, args, named):
    # they used to be checked and then dropped
    out = tmp_path / "x"
    assert run_cli("sim", "--out", out, "--nuscenes-ring", *args) == 1
    assert capsys.readouterr().err == (
        f"redkit sim: error: --nuscenes-ring sets its own cameras; drop {named}\n")
    assert not out.exists()


# one non-default value for each sim option but --out and --help
SIM_OPTION_VALUES = {
    "--seed": ["1"],
    "--n-cameras": ["5"],
    "--camera-fov": ["80"],
    "--yaw-offsets": ["0,50,120,180,240,300"],
    "--n-objects": ["3"],
    "--n-frames": ["2"],
    "--radial-range": ["5,30"],
    "--size-range": ["1.5,3"],
    "--detection-noise": ["0.1"],
    "--drop-rate": ["0.5"],
    "--nuscenes-ring": [],
}


def test_every_sim_option_changes_what_sim_writes(tmp_path):
    # an option that changes nothing is a knob that does nothing
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices["sim"]._actions for o in a.option_strings
               if o.startswith("--")}
    assert options - {"--out", "--help"} == SIM_OPTION_VALUES.keys()

    def written(out):
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    assert run_cli("sim", "--out", tmp_path / "default") == 0
    default = written(tmp_path / "default")
    for option, value in SIM_OPTION_VALUES.items():
        out = tmp_path / option
        assert run_cli("sim", "--out", out, option, *value) == 0
        assert written(out) != default, option


# a rig of one camera, and a ring whose cameras share no view, have no pairs
EMPTY_GRAPH_RIGS = [["--n-cameras", "1"], ["--n-cameras", "2", "--camera-fov", "20"]]


@pytest.mark.parametrize(
    "sim_args",
    [[option, *value] for option, value in SIM_OPTION_VALUES.items()] + EMPTY_GRAPH_RIGS,
    ids=" ".join)
def test_every_command_reads_every_scene_sim_writes(tmp_path, sim_args):
    data = tmp_path / "data"
    assert run_cli("sim", "--out", data, *sim_args) == 0
    for source in ("native-2d", "projected-3d"):
        for command in (["audit"], ["prune", "--tau", "0.3"], ["sweep", "--taus", "0.1,0.3"]):
            out = tmp_path / f"{command[0]}-{source}"
            assert run_cli(*command, "--dataset", data, "--out", out,
                           "--label-source", source) == 0, (command, source)
        if sim_args in EMPTY_GRAPH_RIGS:
            report = json.loads((tmp_path / f"prune-{source}" / "prune_report.json").read_text())
            assert report["deleted"] == 0
    assert run_cli("mm", "--dataset", data, "--out", tmp_path / "mm") == 0


# --------------------------------------------------------------------- audit


def test_audit_reports_ring_pairs(ring_dataset, tmp_path):
    data_dir, _ = ring_dataset
    out = tmp_path / "audit"
    assert run_cli("audit", "--dataset", data_dir, "--out", out) == 0
    report = json.loads((out / "audit.json").read_text())
    pairs = report["scenes"][0]["overlap_graph"]
    assert len(pairs) == 6
    angles = sorted(round(p["overlap_degrees"], 6) for p in pairs)
    assert angles == [15.0, 15.0, 15.0, 15.0, 20.0, 20.0]
    assert report["cosine_similarity"]["status"] == "skipped"
    totals = report["label_totals"]
    assert totals["labels"] == totals["grouped_observations"] + (
        totals["labels"] - totals["grouped_observations"]
    )
    assert report["config"]["command"] == "audit"


def test_audit_preset_and_calibration_agree_on_ring(ring_dataset, tmp_path):
    data_dir, _ = ring_dataset
    reports = {}
    for mode in ("calibration", "preset-nuscenes"):
        out = tmp_path / mode
        assert run_cli("audit", "--dataset", data_dir, "--out", out,
                       "--overlap-mode", mode) == 0
        doc = json.loads((out / "audit.json").read_text())
        reports[mode] = {
            (p["camera_a"], p["camera_b"])
            for p in doc["scenes"][0]["overlap_graph"]
        }
    assert reports["calibration"] == reports["preset-nuscenes"]


def test_audit_empty_dataset_fails(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run_cli("audit", "--dataset", empty, "--out", tmp_path / "x") == 1
    assert "no scene files" in capsys.readouterr().err


def image_dataset(tmp_path):
    """A two-camera scene on disk with one frame of random PGM images under
    ``tmp_path / "img"``: the data directory and the frame's image directory."""
    import numpy as np

    from redkit.ingest import serialize_pgm, GrayImage

    cams = (
        camera_at_yaw("CAM_A", 0.0, 70.0, width=64, height=8),
        camera_at_yaw("CAM_B", -55.0, 70.0, width=64, height=8),
    )
    scene = scene_with_boxes(
        cams, [{"t0": {"CAM_A": Box2D(1.0, 1.0, 5.0, 5.0)}}], scene_id="s0"
    )
    data_dir = tmp_path / "data"
    write_dataset(dataset_of(scene), data_dir)

    frame_dir = tmp_path / "img" / "s0" / "0"
    frame_dir.mkdir(parents=True)
    rng = np.random.default_rng(0)
    for cam in cams:
        pixels = rng.integers(1, 255, size=(8, 64), dtype=np.uint8)
        (frame_dir / f"{cam.name}.pgm").write_bytes(serialize_pgm(GrayImage(pixels)))
    return data_dir, frame_dir


def test_audit_with_images_runs_similarity_prescreen(tmp_path):
    data_dir, _ = image_dataset(tmp_path)
    out = tmp_path / "audit"
    assert run_cli("audit", "--dataset", data_dir, "--out", out,
                   "--images", tmp_path / "img") == 0
    report = json.loads((out / "audit.json").read_text())
    section = report["cosine_similarity"]
    assert section["status"] == "ok"
    stats = section["per_scene"]["s0"]["CAM_A|CAM_B"]
    assert stats["frames"] == 1
    assert 0.0 <= stats["mean"] <= 1.0


def test_audit_images_root_must_be_a_directory(tmp_path, capsys):
    # a mistyped root used to read as "no frame had images" and exit 0
    data_dir, _ = image_dataset(tmp_path)
    for root in (tmp_path / "imgs", data_dir / "scene-s0.json"):
        out = tmp_path / "audit"
        assert run_cli("audit", "--dataset", data_dir, "--out", out,
                       "--images", root) == 1
        assert capsys.readouterr().err == (
            f"redkit audit: error: {root}: no such directory\n")
        assert not out.exists()
    # a root that holds no image of the dataset still skips the prescreen
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("audit", "--dataset", data_dir, "--out", tmp_path / "audit",
                   "--images", empty) == 0
    report = json.loads((tmp_path / "audit" / "audit.json").read_text())
    assert report["cosine_similarity"] == {
        "status": "skipped", "reason": "no frame had images for any pair"}


@pytest.mark.parametrize("image,message", [
    (b"P5 8 8 255\n\x01\x02\x03", "truncated PGM payload: 3 bytes, expected 64"),
    (b"P5 32 8 255\n" + b"\x07" * 256,
     "image width 32 does not match camera 'CAM_A' width 64"),
], ids=["truncated", "wrong-width"])
def test_audit_names_the_image_it_cannot_use(tmp_path, capsys, image, message):
    data_dir, frame_dir = image_dataset(tmp_path)
    path = frame_dir / "CAM_A.pgm"
    path.write_bytes(image)
    out = tmp_path / "audit"
    assert run_cli("audit", "--dataset", data_dir, "--out", out,
                   "--images", tmp_path / "img") == 1
    assert capsys.readouterr().err == f"redkit audit: error: {path}: {message}\n"
    assert not out.exists()


def test_audit_names_both_images_of_an_all_zero_crop(tmp_path, capsys):
    data_dir, frame_dir = image_dataset(tmp_path)
    for name in ("CAM_A", "CAM_B"):
        (frame_dir / f"{name}.pgm").write_bytes(b"P5 64 8 255\n" + bytes(512))
    out = tmp_path / "audit"
    assert run_cli("audit", "--dataset", data_dir, "--out", out,
                   "--images", tmp_path / "img") == 1
    assert capsys.readouterr().err == (
        f"redkit audit: error: {frame_dir / 'CAM_A.pgm'}, {frame_dir / 'CAM_B.pgm'}: "
        "cosine similarity undefined for an all-zero crop\n")
    assert not out.exists()


def test_audit_preset_with_images_skips_pairs_of_cameras_the_rig_lacks(tmp_path):
    # a preset pair naming a camera the scene lacks used to raise KeyError
    data_dir = tmp_path / "data"
    assert run_cli("sim", "--out", data_dir, "--seed", 5, "--n-cameras", 4) == 0
    frame_dir = tmp_path / "img" / "synth-0000000000000005" / "0"
    frame_dir.mkdir(parents=True)
    for name in ("CAM_FRONT", "CAM_FRONT_LEFT"):
        (frame_dir / f"{name}.pgm").write_bytes(b"P5 2 2 255\n" + b"\x07" * 4)
    out = tmp_path / "audit"
    assert run_cli("audit", "--dataset", data_dir, "--out", out, "--images",
                   tmp_path / "img", "--overlap-mode", "preset-nuscenes") == 0
    report = json.loads((out / "audit.json").read_text())
    assert report["cosine_similarity"] == {
        "status": "skipped", "reason": "no frame had images for any pair"}


def test_audit_histogram_covers_all_grouped_boxes(ring_dataset, tmp_path):
    data_dir, _ = ring_dataset
    out = tmp_path / "audit"
    run_cli("audit", "--dataset", data_dir, "--out", out)
    report = json.loads((out / "audit.json").read_text())
    hist = report["bcs_histogram"]
    assert len(hist["bin_edges"]) == len(hist["counts"]) + 1
    assert sum(hist["counts"]) == report["label_totals"]["grouped_observations"]


# --------------------------------------------------------------------- prune


def test_main_restores_the_garbage_collector(ring_dataset, tmp_path):
    data_dir, _ = ring_dataset
    missing = tmp_path / "missing"
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run_cli("prune", "--dataset", data_dir,
                           "--out", tmp_path / "prune", "--tau", 0.3) == 0
            assert gc.isenabled() is enabled
            assert run_cli("prune", "--dataset", missing,
                           "--out", tmp_path / "x", "--tau", 0.3) == 1
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_prune_tau_one_keeps_every_label(ring_dataset, tmp_path):
    data_dir, ds = ring_dataset
    out = tmp_path / "prune"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", 1.0) == 0
    report = json.loads((out / "prune_report.json").read_text())
    total = sum(
        len(ann.boxes2d)
        for scene in ds.scenes for frame in scene.frames for ann in frame.annotations
    )
    assert report["deleted"] == 0
    assert report["remaining"] == total


def test_prune_counts_match_brute_force(ring_dataset, tmp_path):
    data_dir, ds = ring_dataset
    out = tmp_path / "prune"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", 0.3) == 0
    report = json.loads((out / "prune_report.json").read_text())
    from redkit.overlap import build_overlap_graph

    graph = build_overlap_graph(ds.scenes[0].cameras)
    kept = brute_force_prune(ds, graph, 0.3)
    assert report["remaining"] == len(kept)
    emitted = sum(
        1
        for path in (out / "labels").glob("*.txt")
        for line in path.read_text().splitlines()
        if line
    )
    assert emitted == len(kept)


def test_prune_pair_override_only_touches_that_pair(tmp_path):
    data_dir = known_gap_dataset(tmp_path)
    out = tmp_path / "pruned"
    assert run_cli(
        "prune", "--dataset", data_dir, "--out", out, "--tau", 1.0,
        "--pair-tau", "CAM_FRONT:CAM_FRONT_RIGHT=0.1",
        "--overlap-mode", "preset-nuscenes",
    ) == 0
    report = json.loads((out / "prune_report.json").read_text())
    assert report["deleted"] == 1
    front_right = (out / "labels" / "scene-0__0__CAM_FRONT_RIGHT.txt").read_text()
    back_left = (out / "labels" / "scene-0__0__CAM_BACK_LEFT.txt").read_text()
    assert front_right == ""
    assert back_left != ""


def test_label_files_sharing_a_name_fail_the_prune(tmp_path, capsys):
    # scene "a" with camera "X__0__Y" and scene "a__0__X" with camera "Y"
    # both name their label file a__0__X__0__Y.txt; one would overwrite
    # the other
    box = Box2D(10.0, 10.0, 20.0, 20.0)
    scenes = [
        scene_with_boxes([camera_at_yaw(cam, 0.0), camera_at_yaw("Z", 180.0)],
                         [{"t": {cam: box}}], scene_id=scene_id)
        for scene_id, cam in (("a", "X__0__Y"), ("a__0__X", "Y"))
    ]
    data_dir = tmp_path / "data"
    write_dataset(dataset_of(*scenes), data_dir)
    out = tmp_path / "pruned"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", "0.3") == 1
    assert "'a__0__X__0__Y.txt'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cause", ["timestamp", "scene_id", "multibyte-scene_id"])
def test_label_file_name_too_long_fails_the_prune(tmp_path, capsys, ring_dataset,
                                                  cause):
    # used to create --out and write label files before the file system
    # refused the name with "File name too long"; 120 two-byte characters
    # make a name of 138 characters but 257 bytes
    data_dir, ds = ring_dataset
    scene_id, ts = ds.scenes[0].scene_id, 0
    if cause == "timestamp":
        ts = 10**300
        edit = lambda doc: doc["frames"][-1].update(timestamp_ns=ts)
    else:
        scene_id = "s" * 300 if cause == "scene_id" else "\u00e9" * 120
        edit = lambda doc: doc.update(scene_id=scene_id)
    edit_scene_file(data_dir, edit)
    out = tmp_path / "pruned"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", "0.3") == 1
    camera = ds.scenes[0].cameras[0].name
    size = len(f"{scene_id}__{ts}__{camera}.txt".encode())
    assert (f"label file name for scene {scene_id!r}, frame {ts}, camera "
            f"{camera!r} is {size} bytes, longer than 255"
            in capsys.readouterr().err)
    assert not out.exists()


def _scene_id_for_label_names_of(size, scene):
    """A scene id that makes the scene's longest label file name ``size``
    bytes long."""
    longest = max(len(f"__{f.timestamp_ns}__{c.name}.txt")
                  for f in scene.frames for c in scene.cameras)
    return "s" * (size - longest)


READING_COMMANDS = {"audit": [], "sweep": ["--taus", "0.3"], "prune": ["--tau", "0.3"],
                    "mm": []}


def _rename_first_camera(doc, name):
    doc["cameras"][0]["name"] = name


@pytest.mark.parametrize("command", READING_COMMANDS)
@pytest.mark.parametrize("field, value", [
    ("scene_id", "a\ud800b"), ("scene_id", "a\udc80b"),
    ("camera", "CAM\ud800"), ("camera", "CAM\udc80"),
    ("scene_id", 256),
])
def test_a_string_that_cannot_name_a_file_fails_every_command(
        tmp_path, capsys, ring_dataset, command, field, value):
    # a lone surrogate passed the file-name check: prune failed on writing
    # its labels naming no scene or field, and audit and sweep exited 0; a
    # label file name over 255 bytes failed prune alone
    data_dir, ds = ring_dataset
    too_long = value == 256
    if too_long:
        value = _scene_id_for_label_names_of(256, ds.scenes[0])
    if field == "scene_id":
        edit_scene_file(data_dir, lambda doc: doc.update(scene_id=value))
    else:
        edit_scene_file(data_dir, lambda doc: _rename_first_camera(doc, value))
    out = tmp_path / "out"
    assert run_cli(command, "--dataset", data_dir, "--out", out,
                   *READING_COMMANDS[command]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"redkit {command}: error: ")
    if too_long:
        assert "is 256 bytes, longer than 255" in err[0]
    else:
        what = "scene_id" if field == "scene_id" else "camera name"
        assert f"{what} must be a non-empty string usable as a file name" in err[0]
        assert repr(value) in err[0]
    assert not out.exists()


def test_label_file_name_of_255_bytes_is_written(tmp_path, ring_dataset):
    data_dir, ds = ring_dataset
    scene = ds.scenes[0]
    scene_id = _scene_id_for_label_names_of(255, scene)
    edit_scene_file(data_dir, lambda doc: doc.update(scene_id=scene_id))
    for command, args in READING_COMMANDS.items():
        assert run_cli(command, "--dataset", data_dir, "--out", tmp_path / command,
                       *args) == 0
    names = [p.name for p in (tmp_path / "prune" / "labels").iterdir()]
    assert len(names) == len(scene.frames) * len(scene.cameras)
    assert max(len(name.encode()) for name in names) == 255


def label_changes(before, after):
    """How each label file of ``before`` changed in ``after``, both output
    trees; unchanged files are left out."""
    kinds = set()
    for name, old in before.items():
        new = after[name]
        if not name.startswith("labels/") or new == old:
            continue
        if not old or not new:
            kinds.add("became empty" if old else "stopped being empty")
        else:
            kinds.add("shrank" if len(new) < len(old) else "grew")
    return kinds


@pytest.mark.parametrize("source", ["native-2d", "projected-3d"])
def test_prune_into_a_used_out_matches_a_fresh_out(tmp_path, source):
    # label files are rewritten in place, not truncated first: whatever a
    # previous run at another tau left, the tree must end as a fresh run's
    data_dir = tmp_path / "data"
    assert run_cli("sim", "--out", data_dir, "--seed", 6, "--n-frames", 3,
                   "--n-objects", 12) == 0

    def prune(out, tau):
        assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", tau,
                       "--label-source", source) == 0
        return output_tree(out)

    fresh = {tau: prune(tmp_path / f"fresh-{tau}", tau) for tau in ("0.05", "0.9")}
    used = tmp_path / "used"
    prune(used, "0.05")
    assert prune(used, "0.9") == fresh["0.9"]
    assert prune(used, "0.05") == fresh["0.05"]
    assert (label_changes(fresh["0.05"], fresh["0.9"])
            | label_changes(fresh["0.9"], fresh["0.05"])) == {
        "shrank", "grew", "became empty", "stopped being empty"}


def test_prune_rerun_rewrites_every_label_file(ring_dataset, tmp_path):
    # an in-place rewrite of unchanged bytes, and of an empty file, must
    # still move the file's mtime, as a truncate-and-write did
    data_dir, _ = ring_dataset
    out = tmp_path / "prune"
    args = ("prune", "--dataset", data_dir, "--out", out, "--tau", 0.3)
    assert run_cli(*args) == 0
    before = output_tree(out)
    labels = sorted((out / "labels").iterdir())
    assert any(path.stat().st_size == 0 for path in labels)
    past = 10**9  # one second after the epoch
    for path in labels:
        os.utime(path, ns=(past, past))
    assert run_cli(*args) == 0
    assert output_tree(out) == before
    assert [p.name for p in labels if p.stat().st_mtime_ns <= past] == []


def test_label_path_taken_by_a_directory_fails_the_prune(ring_dataset, tmp_path,
                                                         capsys):
    data_dir, ds = ring_dataset
    scene = ds.scenes[0]
    out = tmp_path / "run" / "out"
    # the last file written, so every other one is written first
    taken = out / "labels" / (f"{scene.scene_id}__{scene.frames[-1].timestamp_ns}"
                              f"__{scene.cameras[-1].name}.txt")
    taken.mkdir(parents=True)
    before = set(tmp_path.rglob("*"))
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", 0.3) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("redkit prune: error: ")
    assert repr(str(taken)) in err[0]
    assert taken.is_dir()
    assert all(out in p.parents for p in set(tmp_path.rglob("*")) - before)
    assert not (out / "prune_report.json").exists()


@pytest.mark.parametrize("command,args,taken,report", [
    ("sweep", ["--taus", "0.3"], "sweep.csv", "sweep_report.json"),
    ("mm", [], "mm_sweep.csv", "mm_report.json"),
])
def test_report_path_taken_by_a_directory_fails_the_command(
        ring_dataset, tmp_path, capsys, command, args, taken, report):
    # main writes a command's files in order, its JSON report last
    data_dir, _ = ring_dataset
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert run_cli(command, "--dataset", data_dir, "--out", out, *args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"redkit {command}: error: ")
    assert repr(str(out / taken)) in err[0]
    assert not (out / report).exists()


def label_name(scene, frame, camera):
    return (f"labels/{scene.scene_id}__{scene.frames[frame].timestamp_ns}"
            f"__{scene.cameras[camera].name}.txt")


# command -> (options of a first run, options of a rerun, each position in
# the rerun's write order -> the file there, the JSON report last)
RERUNS = {
    "audit": (["--min-overlap", "1"], ["--min-overlap", "5"],
              {"report": lambda s: "audit.json"}),
    "prune": (["--tau", "0.3"], ["--tau", "0.05"],
              {"first": lambda s: label_name(s, 0, 0),
               "middle": lambda s: label_name(s, len(s.frames) // 2, 1),
               "report": lambda s: "prune_report.json"}),
    "sweep": (["--taus", "0.3"], ["--taus", "0.1,0.2"],
              {"first": lambda s: "sweep.csv",
               "middle": lambda s: "sweep_deleted.xy",
               "report": lambda s: "sweep_report.json"}),
    "mm": (["--theta", "0.5"], ["--theta", "0.2", "--t-dist", "0,1,2"],
           {"first": lambda s: "mm_sweep.csv",
            "middle": lambda s: "mm_ttest.txt",
            "report": lambda s: "mm_report.json"}),
}


@pytest.mark.parametrize("command,position", [
    (command, position) for command, (_, _, taken) in RERUNS.items()
    for position in taken])
def test_failed_rerun_into_a_used_out_leaves_no_report_that_parses(
        ring_dataset, tmp_path, capsys, command, position):
    # the first run's report used to stay whole beside the files the failed
    # rerun wrote before its failure, and claim them
    data_dir, ds = ring_dataset
    first, rerun, taken = RERUNS[command]
    out = tmp_path / "out"
    assert run_cli(command, "--dataset", data_dir, "--out", out, *first) == 0
    names = {name: make(ds.scenes[0]) for name, make in taken.items()}
    report = out / names["report"]
    assert json.loads(report.read_bytes())
    path = out / names[position]
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert run_cli(command, "--dataset", data_dir, "--out", out, *rerun) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"redkit {command}: error: ")
    assert repr(str(path)) in err[0]
    if position == "report":
        assert report.is_dir()
    else:
        assert report.read_bytes() == b""


@pytest.mark.parametrize("command", ["prune", "sweep"])
@pytest.mark.parametrize("pair", ["X:Y", "CAM_FRONT:CAM_BACK"])
def test_pair_override_that_names_no_edge_fails(tmp_path, capsys, command, pair):
    # unknown cameras, and two cameras of the rig that do not overlap
    data_dir = known_gap_dataset(tmp_path)
    out = tmp_path / "pruned"
    threshold = ["--tau", "0.3"] if command == "prune" else ["--taus", "0.3"]
    assert run_cli(command, "--dataset", data_dir, "--out", out, *threshold,
                   "--pair-tau", f"{pair}=0") == 1
    assert "names no overlapping camera pair" in capsys.readouterr().err
    assert not out.exists()


def test_pair_override_must_name_two_cameras(tmp_path, capsys):
    data_dir = known_gap_dataset(tmp_path)
    out = tmp_path / "pruned"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", "0.3",
                   "--pair-tau", "CAM_FRONT:CAM_FRONT=0.1") == 1
    assert "pair override key must name two cameras" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------- sweep


def test_sweep_csv_exact_rows(tmp_path):
    data_dir = known_gap_dataset(tmp_path)
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--dataset", data_dir, "--out", out,
                   "--taus", "0.3,0.5") == 0
    text = (out / "sweep.csv").read_text()
    assert text == "tau,deleted,remaining,tracks\n0.300000,2,3,3\n0.500000,0,5,3\n"


def test_sweep_is_byte_deterministic(ring_dataset, tmp_path):
    data_dir, _ = ring_dataset
    payloads = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run_cli("sweep", "--dataset", data_dir, "--out", out,
                       "--taus", "0.1,0.2,0.3,0.4,0.5,0.6") == 0
        payloads.append((out / "sweep.csv").read_bytes())
    assert payloads[0] == payloads[1]


def test_sweep_plot_data_files(ring_dataset, tmp_path):
    # every sweep writes its plot series: columns of its table, no option
    # asked for
    data_dir, _ = ring_dataset
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--dataset", data_dir, "--out", out,
                   "--taus", "0.2,0.4") == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert (out / "sweep_deleted.xy").read_text() == "".join(
        f"{tau} {deleted}\n" for tau, deleted, _, _ in rows)
    assert (out / "sweep_remaining.xy").read_text() == "".join(
        f"{tau} {remaining}\n" for tau, _, remaining, _ in rows)


# ------------------------------------------------------------------------ mm


def known_distance_dataset(tmp_path):
    """One frame whose detection sets sit at ego distances 2, 7, and 12."""
    cams = (camera_at_yaw("CAM_A", 0.0), camera_at_yaw("CAM_B", -55.0))
    boxes = tuple(
        Box3D((d, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, score=0.9)
        for d in (2.0, 7.0, 12.0)
    )
    frame = Frame(
        timestamp_ns=0,
        annotations=(),
        detection_sets={"fusion_baseline": boxes, "lidar_only": boxes},
    )
    scene = Scene(scene_id="dist-scene", cameras=cams, frames=(frame,))
    data_dir = tmp_path / "dist-data"
    write_dataset(dataset_of(scene), data_dir)
    return data_dir


def test_mm_threshold_counts(tmp_path):
    data_dir = known_distance_dataset(tmp_path)
    out = tmp_path / "mm"
    assert run_cli("mm", "--dataset", data_dir, "--out", out,
                   "--t-dist", "0,5,10") == 0
    text = (out / "mm_sweep.csv").read_text()
    assert text == (
        "t_dist,pruned_count,lost_ratio\n"
        "0.000000,0,0.000000\n"
        "5.000000,1,0.333333\n"
        "10.000000,2,0.666667\n"
    )


def test_mm_single_frame_skips_ttest(tmp_path):
    data_dir = known_distance_dataset(tmp_path)
    out = tmp_path / "mm"
    assert run_cli("mm", "--dataset", data_dir, "--out", out, "--t-dist", "0") == 0
    ttest = (out / "mm_ttest.txt").read_text()
    assert "skipped" in ttest


def test_mm_report_and_determinism(ring_dataset, tmp_path):
    data_dir, _ = ring_dataset
    payloads = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert run_cli("mm", "--dataset", data_dir, "--out", out,
                       "--t-dist", "0,5,10,20") == 0
        payloads.append(
            (out / "mm_sweep.csv").read_bytes()
            + (out / "mm_ttest.txt").read_bytes()
        )
        report = json.loads((out / "mm_report.json").read_text())
        assert report["config"]["theta"] == 0.5
        assert len(report["per_frame_rr"]) == 4
    assert payloads[0] == payloads[1]
    # the plot series is the table's first and last column
    rows = [line.split(",") for line in (out / "mm_sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    assert (out / "mm_lost_ratio.xy").read_text() == "".join(
        f"{t_dist} {lost}\n" for t_dist, _, lost in rows)


def test_mm_missing_detection_sets_fail(tmp_path, capsys):
    data_dir = known_gap_dataset(tmp_path)
    out = tmp_path / "mm"
    assert run_cli("mm", "--dataset", data_dir, "--out", out, "--t-dist", "0") == 1
    assert "no usable frames" in capsys.readouterr().err


def test_mm_rejects_negative_threshold(tmp_path, capsys):
    data_dir = known_distance_dataset(tmp_path)
    assert run_cli("mm", "--dataset", data_dir, "--out", tmp_path / "x",
                   "--t-dist", "0,-3") == 1
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("args", [
    ["--theta", "nan"],
    ["--t-dist", "nan,5"],
    ["--t-dist", ""],
    ["--rr-split", "nan"],
    ["--rr-split", "inf"],
    ["--rr-split", "high"],
    ["--t-dist", "0,inf"],
])
def test_mm_rejects_nan_or_empty_settings(tmp_path, capsys, args):
    data_dir = known_distance_dataset(tmp_path)
    out = tmp_path / "x"
    assert run_cli("mm", "--dataset", data_dir, "--out", out, *args) == 1
    assert capsys.readouterr().err != ""
    assert not out.exists()


def edit_scene_file(data_dir, edit):
    """Rewrite the dataset's scene file after ``edit`` changed its JSON."""
    path = next(data_dir.glob("*.json"))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("field,index,value", [
    ("center", 0, math.nan),
    ("center", 1, math.inf),
    ("size", 2, math.nan),
    ("yaw", None, -math.inf),
    ("score", None, math.nan),
    ("size", 0, -1.0),
])
def test_mm_rejects_non_finite_detections(tmp_path, capsys, field, index, value):
    # a NaN LiDAR centre used to count as pruned even at --t-dist 0; a
    # finite but negative size is rejected too
    data_dir = known_distance_dataset(tmp_path)

    def edit(doc):
        box = doc["frames"][0]["detection_sets"]["lidar_only"][0]
        if index is None:
            box[field] = value
        else:
            box[field][index] = value

    edit_scene_file(data_dir, edit)
    out = tmp_path / "x"
    assert run_cli("mm", "--dataset", data_dir, "--out", out, "--t-dist", "0") == 1
    want = "must be finite" if not math.isfinite(value) else "size must be positive"
    assert want in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x,reason", [
    # the distances overflow to inf
    (1e200, "a baseline distance is not finite"),
    # the distances are finite, but their variance squared is not
    (1e100, "the samples' variances overflow a float, t undefined"),
])
def test_mm_skips_the_ttest_on_far_away_boxes(ring_dataset, tmp_path, x, reason):
    # the t-test used to fail on these with "incomplete beta did not converge"
    data_dir, _ = ring_dataset

    def edit(doc):
        for k, box in enumerate(doc["frames"][0]["detection_sets"]["fusion_baseline"]):
            box["center"][0] = x * (k + 1)

    edit_scene_file(data_dir, edit)
    out = tmp_path / "mm"
    assert run_cli("mm", "--dataset", data_dir, "--out", out, "--t-dist", "0,5",
                   "--rr-split", "0.5") == 0
    ttest = json.loads((out / "mm_report.json").read_text())["t_test"]
    assert (ttest["status"], ttest["reason"]) == ("skipped", reason)
    assert f"skipped: {reason}\n" in (out / "mm_ttest.txt").read_text()
    for path in out.iterdir():
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text and "nan" not in text


@pytest.mark.parametrize("field,index,value", [
    ("size", 0, math.nan),
    ("center", 2, math.inf),
    ("yaw", None, math.nan),
])
def test_prune_rejects_non_finite_cuboids(tmp_path, capsys, ring_dataset,
                                          field, index, value):
    data_dir, _ = ring_dataset

    def edit(doc):
        cuboid = doc["frames"][0]["annotations"][0]["cuboid"]
        if index is None:
            cuboid[field] = value
        else:
            cuboid[field][index] = value

    edit_scene_file(data_dir, edit)
    out = tmp_path / "x"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", "0.3") == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_prune_names_the_camera_with_a_nan_intrinsic(tmp_path, capsys, ring_dataset):
    # used to fail while projecting, with an inverted box naming no camera
    data_dir, _ = ring_dataset
    edit_scene_file(data_dir, lambda doc: doc["cameras"][2]["intrinsics"]
                    .update(cx=math.nan))
    out = tmp_path / "x"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", "0.3",
                   "--label-source", "projected-3d") == 1
    assert "camera 'CAM_FRONT_RIGHT': cx must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_audit_names_the_box_with_a_nan_coordinate(tmp_path, capsys, ring_dataset):
    # used to die in the BCS histogram: "cannot convert float NaN to integer"
    data_dir, ds = ring_dataset
    ann = ds.scenes[0].frames[1].annotations[0]
    camera = next(iter(ann.boxes2d))

    def edit(doc):
        doc["frames"][1]["annotations"][0]["boxes2d"][camera]["y1"] = math.nan

    edit_scene_file(data_dir, edit)
    out = tmp_path / "x"
    assert run_cli("audit", "--dataset", data_dir, "--out", out) == 1
    assert (f"annotation {ann.track_id!r} box in {camera!r}: y1 must be finite, "
            "got nan") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["prune", "--tau", "nan"],
    ["sweep", "--taus", "nan,0.2"],
    ["prune", "--tau", "0.3", "--pair-tau", "CAM_FRONT:CAM_FRONT_RIGHT=nan"],
    ["sweep", "--taus", "0.3", "--pair-tau", "CAM_FRONT:CAM_FRONT_RIGHT=nan"],
    ["sweep", "--taus", ""],
    ["prune", "--tau", "0", "--min-overlap", "nan"],
    ["prune", "--tau", "inf"],
    ["prune", "--tau", "0.3", "--pair-tau", "CAM_FRONT:CAM_FRONT_RIGHT=inf"],
    ["prune", "--tau", "0", "--min-overlap", "inf"],
    ["sweep", "--taus", "0.1,inf"],
])
def test_prune_and_sweep_reject_nan_or_empty_thresholds(tmp_path, capsys, args):
    data_dir = known_gap_dataset(tmp_path)
    command, *rest = args
    out = tmp_path / "x"
    assert run_cli(command, "--dataset", data_dir, "--out", out, *rest) == 1
    assert capsys.readouterr().err != ""
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command,args", [
    ("audit", []),
    ("prune", ["--tau", "0.3"]),
    ("sweep", ["--taus", "0.3"]),
])
def test_min_overlap_is_checked_in_every_overlap_mode(ring_dataset, tmp_path, capsys,
                                                      command, args, value):
    # the preset builds no graph; it used to echo the value, NaN included,
    # into a report that was then not valid JSON
    data_dir, _ = ring_dataset
    errors = []
    for mode in ("calibration", "preset-nuscenes"):
        out = tmp_path / mode
        assert run_cli(command, "--dataset", data_dir, "--out", out, *args,
                       "--overlap-mode", mode, "--min-overlap", value) == 1
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "min_overlap must be nonnegative" in errors[0]


def test_number_written_as_a_string_is_rejected(ring_dataset, tmp_path, capsys):
    data_dir, _ = ring_dataset
    edit_scene_file(data_dir, lambda doc: doc["cameras"][2]["intrinsics"]
                    .update(fx="1266.4"))
    out = tmp_path / "x"
    assert run_cli("audit", "--dataset", data_dir, "--out", out) == 1
    assert ("camera 'CAM_FRONT_RIGHT': fx must be a number, got a string"
            in capsys.readouterr().err)
    assert not out.exists()


def test_integer_past_the_digit_limit_names_the_file(ring_dataset, tmp_path, capsys):
    data_dir, _ = ring_dataset
    path = next(data_dir.glob("*.json"))
    text = path.read_text()
    assert '"timestamp_ns": 0' in text
    path.write_text(text.replace('"timestamp_ns": 0', '"timestamp_ns": ' + "7" * 5000))
    out = tmp_path / "x"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", "0.3") == 1
    assert f"redkit prune: error: {path}: " in capsys.readouterr().err
    assert not out.exists()


def test_json_nested_too_deep_names_the_file(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    path = data_dir / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    out = tmp_path / "x"
    assert run_cli("audit", "--dataset", data_dir, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"redkit audit: error: {path}: maximum recursion depth")
    assert err.count("\n") == 1
    assert not out.exists()


# ------------------------------------------------------ single-field edits


def name_edits(doc):
    """Strings that make a scene id or camera name unusable or awkward: lone
    surrogates, the label file name separator, another camera's name, and
    names that make the longest label file name 255 or 256 bytes long."""
    digits = max(len(str(f["timestamp_ns"])) for f in doc["frames"])
    cameras = [c["name"] for c in doc["cameras"]]
    as_scene_id = 255 - len(f"__{'0' * digits}__{max(cameras, key=len)}.txt")
    as_camera = 255 - len(f"{doc['scene_id']}__{'0' * digits}__.txt")
    return ["\ud800", "a\udc80b", "__", "a__0__b", *cameras,
            *("s" * (n + extra) for n in (as_scene_id, as_camera) for extra in (0, 1))]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_single_field_edit_runs_or_fails_cleanly(fuzz_base, data):
    # the parser's single-field edits, run through every command that reads
    # a dataset, with the names the label files are made of edited as often
    # as all other fields together
    base, paths, _ = fuzz_base
    names = [("scene_id",)] + [("cameras", i, "name") for i in range(len(base["cameras"]))]
    doc = copy.deepcopy(base)
    target, key = holder(doc, data.draw(st.sampled_from(paths) | st.sampled_from(names),
                                        label="path"))
    if data.draw(st.booleans(), label="delete"):
        del target[key]
    else:
        target[key] = data.draw(json_values | st.sampled_from(name_edits(base)),
                                label="value")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scene_file = root / "scene.json"
        scene_file.write_text(json.dumps(doc))
        for command, args in READING_COMMANDS.items():
            out = root / command
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = run_cli(command, "--dataset", scene_file, "--out", out, *args)
            errors = [line for line in stderr.getvalue().splitlines()
                      if line.startswith(f"redkit {command}: error: ")]
            assert (code, len(errors)) in ((0, 0), (1, 1))
            assert code == 0 or not out.exists()
        # each command writes only under its own --out
        assert {p.relative_to(root).parts[0] for p in root.rglob("*")} <= {
            scene_file.name, *READING_COMMANDS}


# ------------------------------------------------- records a command reads


def output_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# one record of each part: mm reads only detection records, the other
# commands only annotations
RECORDS = {
    "detection": (("frames", 1, "detection_sets", "lidar_only"), {"score": 2.0}),
    "annotation": (("frames", 1, "annotations"), {"category": "no-such-class"}),
}


def records_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("record", sorted(RECORDS))
@pytest.mark.parametrize("command,args", [
    ("audit", []),
    ("prune", ["--tau", "0.3"]),
    ("sweep", ["--taus", "0.1,0.5"]),
    ("mm", []),
])
def test_a_command_checks_the_records_it_reads_and_no_others(
        ring_dataset, tmp_path, capsys, record, command, args):
    data_dir, _ = ring_dataset
    path, breakage = RECORDS[record]
    without, broken = tmp_path / "without", tmp_path / "broken"
    for copy, edit in ((without, lambda doc: records_at(doc, path).pop(0)),
                       (broken, lambda doc: records_at(doc, path)[0].update(breakage))):
        shutil.copytree(data_dir, copy)
        edit_scene_file(copy, edit)
    with pytest.raises(ValidationError):
        parse_dataset(broken)

    out_without, out_broken = tmp_path / "out-without", tmp_path / "out-broken"
    assert run_cli(command, "--dataset", without, "--out", out_without, *args) == 0
    err_without = capsys.readouterr().err
    code = run_cli(command, "--dataset", broken, "--out", out_broken, *args)
    err_broken = capsys.readouterr().err
    if (command == "mm") == (record == "detection"):
        assert code == 1
        assert err_broken.startswith(f"redkit {command}: error: ")
        assert not out_broken.exists()
    else:
        assert code == 0
        assert err_broken == err_without
        assert output_tree(out_broken) == output_tree(out_without)


def with_tied_lidar_box(frame):
    """The frame plus a LiDAR box mirrored across the ego x axis: a second
    box at exactly the distance of the first."""
    lidar = frame.detection_sets["lidar_only"]
    first = lidar[0]
    x, y, z = first.center
    twin = Box3D((x, -y, z), first.size, -first.yaw, score=first.score)
    sets = dict(frame.detection_sets, lidar_only=lidar + (twin,))
    return dataclasses.replace(frame, detection_sets=sets)


def test_mm_sweep_pools_frames_like_the_reference(tmp_path):
    ds, _ = generate_scene(
        SynthParams(seed=41, n_objects=12, n_frames=4, drop_rate=0.3,
                    detection_noise=0.2, radial_range=(4.0, 30.0)),
        cameras=nuscenes_like_cameras(),
    )
    scene = ds.scenes[0]
    frames = (with_tied_lidar_box(scene.frames[0]),) + scene.frames[1:]
    data_dir = tmp_path / "data"
    write_dataset(dataclasses.replace(
        ds, scenes=(dataclasses.replace(scene, frames=frames),)), data_dir)
    frames = parse_dataset(data_dir).scenes[0].frames
    sets = [(f.detection_sets["fusion_baseline"], f.detection_sets["lidar_only"])
            for f in frames]
    tied = centroid_distance(sets[0][1][0])
    assert centroid_distance(sets[0][1][-1]) == tied
    # a threshold exactly at the tied distance and at a box of another frame
    thresholds = [0.0, 6.0, tied, centroid_distance(sets[2][1][1]), 18.5, 1e6]

    out = tmp_path / "mm"
    assert run_cli("mm", "--dataset", data_dir, "--out", out, "--theta", "0.3",
                   "--t-dist", ",".join(repr(t) for t in thresholds)) == 0

    total = sum(len(base) for base, _ in sets)
    want = ["t_dist,pruned_count,lost_ratio"]
    for t in thresholds:
        pruned = 0
        matched = 0
        for base, lidar in sets:
            kept = [l for l in lidar if centroid_distance(l) >= t]
            pruned += len(lidar) - len(kept)
            matched += round(brute_force_rr(base, kept, 0.3) * len(base))
        want.append(f"{t:.6f},{pruned},{1.0 - matched / total:.6f}")
    assert (out / "mm_sweep.csv").read_text() == "\n".join(want) + "\n"


# ------------------------------------------------------------ config echo


DATASET_DEFAULTS = [("overlap_mode", "calibration"), ("label_source", "native-2d"),
                    ("min_overlap", 1.0)]


@pytest.mark.parametrize("command,args,report,want", [
    ("audit", [], "audit.json", DATASET_DEFAULTS),
    ("audit", ["--overlap-mode", "preset-nuscenes", "--label-source",
               "projected-3d", "--min-overlap", "2"], "audit.json",
     [("overlap_mode", "preset-nuscenes"), ("label_source", "projected-3d"),
      ("min_overlap", 2.0)]),
    ("prune", ["--tau", "0.3"], "prune_report.json",
     [*DATASET_DEFAULTS, ("tau", 0.3), ("pair_taus", {})]),
    # pairs come back sorted, and a repeated pair keeps its last value
    ("prune", ["--tau", "0.7", "--pair-tau", "CAM_FRONT_RIGHT:CAM_FRONT=0.2",
               "--pair-tau", "CAM_BACK:CAM_BACK_LEFT=0.9",
               "--pair-tau", "CAM_BACK:CAM_BACK_LEFT=0.4"], "prune_report.json",
     [*DATASET_DEFAULTS, ("tau", 0.7), ("pair_taus", {"CAM_BACK:CAM_BACK_LEFT": 0.4,
                                   "CAM_FRONT_RIGHT:CAM_FRONT": 0.2})]),
    # mm has no overlap options, so it echoes none
    ("mm", [], "mm_report.json",
     [("theta", 0.5), ("t_dist", [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]),
      ("rr_split", "median"), ("base_set", "fusion_baseline"),
      ("lidar_set", "lidar_only")]),
    ("mm", ["--theta", "0.3", "--t-dist", "12,0", "--rr-split", "0.5",
            "--base-set", "lidar_only", "--lidar-set", "fusion_baseline"],
     "mm_report.json",
     [("theta", 0.3), ("t_dist", [12.0, 0.0]), ("rr_split", "0.5"),
      ("base_set", "lidar_only"), ("lidar_set", "fusion_baseline")]),
    # thresholds keep the order given
    ("sweep", ["--taus", "0.3,0.1", "--pair-tau", "CAM_FRONT:CAM_FRONT_RIGHT=0.1"],
     "sweep_report.json",
     [*DATASET_DEFAULTS, ("taus", [0.3, 0.1]),
      ("pair_taus", {"CAM_FRONT:CAM_FRONT_RIGHT": 0.1})]),
    ("sweep", ["--taus", "0.2"], "sweep_report.json",
     [*DATASET_DEFAULTS, ("taus", [0.2]), ("pair_taus", {})]),
])
def test_reports_echo_their_config(ring_dataset, tmp_path, command, args,
                                   report, want):
    data_dir, _ = ring_dataset
    out = tmp_path / "out"
    assert run_cli(command, "--dataset", data_dir, "--out", out, *args) == 0
    config = json.loads((out / report).read_text())["config"]
    # key order is part of the byte-stable report
    assert list(config.items()) == [("command", command), *want]


def declared_options(command):
    """The dests of the options ``build_parser`` declares for ``command``,
    in the order it declares them; ``--help`` stores nothing."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a.dest for a in sub.choices[command]._actions
            if a.default != argparse.SUPPRESS]


@pytest.mark.parametrize("command,args,report", [
    ("audit", [], "audit.json"),
    ("prune", ["--tau", "0.3"], "prune_report.json"),
    ("sweep", ["--taus", "0.3"], "sweep_report.json"),
    ("mm", [], "mm_report.json"),
])
def test_report_config_is_the_options_its_command_declares(
        ring_dataset, tmp_path, command, args, report):
    # one rule for every report: a default set for no option, or an option
    # the report leaves out, fails it
    data_dir, _ = ring_dataset
    out = tmp_path / "out"
    assert run_cli(command, "--dataset", data_dir, "--out", out, *args) == 0
    config = json.loads((out / report).read_text())["config"]
    want = ["command"] + [{"pair_tau": "pair_taus"}.get(dest, dest)
                          for dest in declared_options(command)
                          if dest not in ("dataset", "out", "images")]
    assert list(config) == want


# ------------------------------------------------------------- infrastructure


def test_cli_imports_no_private_names_or_iou3d():
    # cli parses, calls the library and writes files; analysis stays in the
    # library modules
    analysis = {"iou3d", "crop_overlap", "cosine_similarity", "parse_pgm",
                "resolve_box"}
    tree = ast.parse(Path(redkit.cli.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("redkit")):
            for alias in node.names:
                assert not alias.name.startswith("_"), alias.name
                assert alias.name not in analysis, alias.name


def calls_by_function(module, names):
    """``(function, name)`` for each call in ``module``'s source to a function
    or method called ``name`` of ``names``; ``function`` is the innermost
    function around the call, or ``"<module>"``."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.add((where, name))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(Path(module.__file__).read_text(encoding="utf-8")), "<module>")
    return found


def redkit_modules():
    modules = [redkit] + [importlib.import_module(f"redkit.{m.name}")
                          for m in pkgutil.iter_modules(redkit.__path__)]
    assert "redkit.cli" in {m.__name__ for m in modules}
    return modules


def test_only_write_files_creates_directories_or_opens_files_for_writing():
    # one writer for every file: commands return their files and main writes
    # them, so no command can create --out before a check of its own fails,
    # and every file is written in place by the same code
    writes = {"mkdir", "makedirs", "open", "write_text", "write_bytes"}
    writers = {(m.__name__, where) for m in redkit_modules()
               for where, _ in calls_by_function(m, writes)}
    assert writers == {("redkit.ingest", "write_files")}
    assert calls_by_function(redkit.cli, {"write_files", "truncate", "write_dataset"}) == {
        ("main", "write_files"), ("main", "truncate"), ("cmd_sim", "write_dataset")}


def test_only_overlap_view_arc_turns_a_camera_into_an_arc():
    # one arc formula: outside geometry, which defines them, only
    # overlap.view_arc reads a camera's optical-axis yaw and field of view
    arc_parts = {"yaw_center", "horizontal_fov"}
    callers = {(m.__name__, where, name) for m in redkit_modules()
               if m.__name__ != "redkit.geometry"
               for where, name in calls_by_function(m, arc_parts)}
    assert callers == {("redkit.overlap", "view_arc", "yaw_center"),
                       ("redkit.overlap", "view_arc", "horizontal_fov")}


def test_unsafe_scene_id_writes_nothing_outside_out(tmp_path, capsys):
    data_dir = known_gap_dataset(tmp_path)
    path = next(data_dir.glob("*.json"))
    doc = json.loads(path.read_text())
    doc["scene_id"] = "../../evil"
    path.write_text(json.dumps(doc))
    before = set(tmp_path.rglob("*"))
    out = tmp_path / "run" / "out"
    assert run_cli("prune", "--dataset", data_dir, "--out", out, "--tau", "0.3") == 1
    assert "scene_id" in capsys.readouterr().err
    assert all(out in p.parents or p == out
               for p in set(tmp_path.rglob("*")) - before - {out.parent})


def test_missing_out_is_reported_before_the_dataset_is_read(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.delenv("REDKIT_OUTPUT_DIR", raising=False)
    assert run_cli("audit", "--dataset", tmp_path / "missing") == 1
    assert capsys.readouterr().err == (
        "redkit audit: error: no output directory: pass --out or set "
        "REDKIT_OUTPUT_DIR\n")


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REDKIT_OUTPUT_DIR", str(tmp_path / "env-root"))
    assert run_cli("sim", "--out", "nested", "--seed", 3) == 0
    assert (tmp_path / "env-root" / "nested").is_dir()


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path):
    built = []
    original = redkit.cli.build_parser
    monkeypatch.setattr(redkit.cli, "build_parser",
                        lambda: built.append(None) or original())
    redkit.cli._shared_parser.cache_clear()
    try:
        for seed in (1, 2):
            assert run_cli("sim", "--out", tmp_path / str(seed), "--seed", seed) == 0
    finally:
        redkit.cli._shared_parser.cache_clear()
    assert len(built) == 1


def test_consecutive_main_calls_share_no_state(ring_dataset, tmp_path, monkeypatch,
                                               capsys):
    data_dir, _ = ring_dataset
    prune = ["prune", "--dataset", data_dir, "--tau", "0.3"]

    def report(name):
        return (tmp_path / name / "prune_report.json").read_bytes()

    # an appended option given, then absent
    assert run_cli(*prune, "--out", tmp_path / "a",
                   "--pair-tau", "CAM_FRONT:CAM_FRONT_RIGHT=0.1") == 0
    assert run_cli(*prune, "--out", tmp_path / "b") == 0
    assert json.loads(report("a"))["config"]["pair_taus"] == {
        "CAM_FRONT:CAM_FRONT_RIGHT": 0.1}
    assert json.loads(report("b"))["config"]["pair_taus"] == {}

    # the output directory variable set, then unset
    monkeypatch.setenv("REDKIT_OUTPUT_DIR", str(tmp_path / "env-root"))
    assert run_cli("sim", "--out", "nested", "--seed", 3) == 0
    assert (tmp_path / "env-root" / "nested").is_dir()
    monkeypatch.delenv("REDKIT_OUTPUT_DIR")
    assert run_cli("sim", "--seed", 3) == 1
    assert "no output directory" in capsys.readouterr().err

    # a usage error after an appended option, then a valid run
    with pytest.raises(SystemExit) as exc:
        run_cli(*prune, "--out", tmp_path / "c",
                "--pair-tau", "CAM_FRONT:CAM_FRONT_RIGHT=0.1", "--tau", "high")
    assert exc.value.code == 2
    assert run_cli(*prune, "--out", tmp_path / "c") == 0
    assert report("c") == report("b")


def test_help_and_usage_errors_match_a_freshly_built_parser(monkeypatch, capsys):
    argvs = [[*command, flag]
             for command in ([], ["audit"], ["prune"], ["sweep"], ["mm"], ["sim"])
             for flag in ("--help", "-h")]
    argvs += [["prune", "--dataset", "d", "--tau", "high"], ["frobnicate"], []]
    top_help = {}
    for columns in ("200", "40", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in argvs:
            seen = []
            for parse in (main, build_parser().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                seen.append((exc.value.code, *capsys.readouterr()))
            assert seen[0] == seen[1], argv
            if argv == ["--help"]:
                top_help[columns] = seen[0]
    # the width is read when help is printed, not when the parser is built
    assert top_help["40"] != top_help["200"]


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_pair_tau_syntax_exits_cleanly(tmp_path, capsys):
    data_dir = known_gap_dataset(tmp_path)
    with pytest.raises(SystemExit):
        main(["prune", "--dataset", str(data_dir), "--out", str(tmp_path / "o"),
              "--tau", "1.0", "--pair-tau", "CAM_FRONT=0.1"])


@pytest.mark.parametrize("argv", [
    ["sweep", "--dataset", "d", "--taus", "0.1,abc"],
    ["sim", "--radial-range", "5"],
])
def test_malformed_number_lists_are_usage_errors(tmp_path, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", out)
    assert exc.value.code == 2
    assert not out.exists()


def test_console_script_is_installed():
    exe = shutil.which("redkit")
    if exe is None:
        pytest.skip("entry point not on PATH in this environment")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("audit", "prune", "sweep", "mm", "sim"):
        assert command in proc.stdout


def test_module_invocation():
    # the child finds redkit where this process did, with or without PYTHONPATH
    src = str(Path(redkit.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "redkit.cli", "sweep", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "--taus" in proc.stdout
