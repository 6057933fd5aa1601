"""Shared fixture builders for the redkit test suite."""

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from redkit.geometry import Box2D, CameraModel
from redkit.ingest import Annotation, Dataset, Frame, GrayImage, Scene, serialize_pgm
from redkit.synth import (
    SynthParams,
    camera_at_yaw,
    generate_scene,
    nuscenes_like_cameras,
    scene_to_dict,
)


@pytest.fixture(scope="session")
def ring():
    """The six-camera surround rig used throughout the suite."""
    return nuscenes_like_cameras()


@pytest.fixture
def front_cam():
    return camera_at_yaw("CAM_FRONT", 0.0, 70.0)


def two_overlapping_cameras():
    """A front pair whose view arcs share 15 degrees."""
    return (
        camera_at_yaw("CAM_FRONT", 0.0, 70.0),
        camera_at_yaw("CAM_FRONT_RIGHT", -55.0, 70.0),
    )


def chain_ring_dataset():
    """Ten 60-degree cameras, where only neighbours overlap, and near
    objects. Projected from their cuboids, some span three or four cameras,
    each such group a chain whose end cameras share no edge (track
    t00001o0010 spans CAM_00 to CAM_03)."""
    ds, _ = generate_scene(SynthParams(seed=56, n_objects=20, n_frames=2,
                                       n_cameras=10, camera_fov=60.0,
                                       radial_range=(3.0, 12.0)))
    return ds


def scene_with_boxes(cameras, frames_spec, scene_id="scene-0"):
    """Build a Scene from a list of per-frame {track: {camera: Box2D}} maps.

    Timestamps are assigned as consecutive multiples of 10^8 ns. Categories
    default to "car".
    """
    frames = []
    for fi, spec in enumerate(frames_spec):
        annotations = []
        for track_id in sorted(spec):
            boxes = dict(spec[track_id])
            annotations.append(
                Annotation(track_id=track_id, category="car", boxes2d=boxes)
            )
        frames.append(
            Frame(timestamp_ns=fi * 100_000_000, annotations=tuple(annotations))
        )
    return Scene(scene_id=scene_id, cameras=tuple(cameras), frames=tuple(frames))


def dataset_of(*scenes, class_map=None):
    if class_map is None:
        class_map = {"car": 0, "truck": 1, "pedestrian": 2, "cyclist": 3}
    return Dataset(scenes=tuple(scenes), class_map=class_map)


def graphs_of(dataset, graph):
    """``graph`` as the overlap graph of every scene of ``dataset``, keyed
    by scene id as the grouping functions take it."""
    return {s.scene_id: graph for s in dataset.scenes}


def box_with_bcs(fraction, cam: CameraModel, row=100.0):
    """A 10px-wide box hanging off the left image edge.

    After clipping to the camera bounds exactly ``fraction`` of its area
    survives, so the BCS of the stored (full, clipped) pair equals
    ``fraction`` up to float rounding of ``10 * fraction``.
    """
    width = 10.0
    x1 = width * fraction
    return Box2D(x1 - width, row, x1, row + 10.0)


# single-field edits of a valid scene file, which the parser's and the
# command line's property tests share

# an integer literal with 401 digits: valid JSON, and no float can hold it
HUGE = 10**400


def holder(doc, path):
    """The container in ``doc`` that holds the value at ``path``, and the
    value's key or index there."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    return doc, last


def json_paths(doc, prefix=()):
    """The path of every value inside ``doc``, the root excluded."""
    keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
    for key in keys:
        path = prefix + (key,)
        yield path
        if isinstance(doc[key], (dict, list)):
            yield from json_paths(doc[key], path)


json_scalars = (
    st.none() | st.booleans() | st.text(max_size=8) | st.integers()
    # integers that no float holds
    | st.sampled_from([2**1024, -(2**1024), HUGE])
    | st.floats()  # NaN and the infinities included
)
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A valid scene with every record kind (cameras, cuboids, native boxes
    and detection sets), the path of each of its values, and a file to
    write edited copies to."""
    ds, _ = generate_scene(SynthParams(seed=13, n_cameras=3, n_objects=2,
                                       detection_noise=0.1))
    doc = json.loads(json.dumps(scene_to_dict(ds.scenes[0], ds.class_map)))
    target = tmp_path_factory.mktemp("fuzz") / "scene.json"
    return doc, sorted(json_paths(doc), key=repr), target


PGM_WHITESPACE = b" \t\n\r\x0b\x0c"


@st.composite
def pgm_mutants(draw, base=None):
    """A small valid PGM from ``serialize_pgm`` (or ``base``), then one to
    three edits: byte flips, cuts, long digit or non-space runs spliced into
    the header, and inserted comments."""
    if base is None:
        w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        pixels = draw(st.binary(min_size=w * h, max_size=w * h))
        base = serialize_pgm(GrayImage(np.frombuffer(pixels, np.uint8).reshape(h, w)))
    data = bytearray(base)
    header_end = base.index(b"\n255\n") + 5
    lengths = st.sampled_from([1, 2, 17, 18, 19, 40, 4000, 5000]) | st.integers(1, 64)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["flip", "cut", "digits", "non-space", "comment"]))
        if edit == "flip":
            if data:
                data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
            continue
        if edit == "cut":
            at = draw(st.integers(0, len(data)))
            del data[at:draw(st.integers(at, len(data)))]
            continue
        if edit == "digits":
            run = bytes([draw(st.sampled_from(b"0123456789"))]) * draw(lengths)
        elif edit == "non-space":
            unit = draw(st.binary(min_size=1, max_size=4)).translate(None, PGM_WHITESPACE)
            n = draw(lengths)
            run = ((unit or b"x") * n)[:n]
        else:
            text = draw(st.binary(max_size=20)).translate(None, b"\r\n")
            run = b"#" + text + draw(st.sampled_from([b"\n", b"\r", b""]))
        # after the magic, so most splices reach the header number reader
        at = draw(st.integers(min(2, len(data)), min(header_end, len(data))))
        data[at:at] = run
    return bytes(data)
