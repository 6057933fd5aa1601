"""Parsing, validation, serialization, and label emission."""

import copy
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    HUGE,
    dataset_of,
    holder,
    json_values,
    scene_with_boxes,
    two_overlapping_cameras,
)
from redkit.geometry import Box2D, Box3D, CameraModel, Cuboid3D
from redkit.ingest import (
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
    resolve_box,
    scene_text,
    serialize_pgm,
    write_dataset,
    write_files,
)
from redkit.multisource import prune_dataset
from redkit.overlap import build_overlap_graph
from redkit.synth import (
    SynthParams,
    camera_at_yaw,
    generate_scene,
    reference_scene_text,
    scene_to_dict,
)

# ------------------------------------------------------------------- PGM


def test_parse_pgm_two_pixel_image():
    img = parse_pgm(b"P5\n2 1\n255\n" + bytes([0, 255]))
    assert (img.width, img.height) == (2, 1)
    assert img.pixels[0, 0] == 0
    assert img.pixels[0, 1] == 255


def test_parse_pgm_allows_comments():
    img = parse_pgm(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
    assert (img.width, img.height) == (2, 2)


def test_parse_pgm_rejects_ascii_variant():
    with pytest.raises(ParseError):
        parse_pgm(b"P2\n2 1\n255\n0 255\n")


def test_parse_pgm_rejects_other_maxval():
    with pytest.raises(ParseError):
        parse_pgm(b"P5\n2 1\n127\n" + bytes(2))


def test_parse_pgm_rejects_truncated_payload():
    with pytest.raises(ParseError):
        parse_pgm(b"P5\n4 4\n255\n" + bytes(15))


def test_parse_pgm_rejects_trailing_bytes():
    with pytest.raises(ParseError):
        parse_pgm(b"P5\n2 1\n255\n" + bytes(3))


@pytest.mark.parametrize("data,message", [
    (b"P5 x 2 255\n", "bad PGM header token b'x'"),
    (b"P5 2 2 255", "PGM header not terminated by whitespace"),
    (b"P5 0 2 255\n", "bad PGM dimensions 0x2"),
    pytest.param(b"P5 " + b"9" * 5000 + b" 2 255\n",
                 "PGM header number too long: 5000 digits", id="long-number"),
])
def test_parse_pgm_rejects_bad_headers(data, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_pgm(data)


def test_serialize_pgm_header():
    img = GrayImage(np.zeros((1, 2), dtype=np.uint8))
    assert serialize_pgm(img) == b"P5\n2 1\n255\n\x00\x00"


@st.composite
def small_images(draw):
    w = draw(st.integers(1, 64))
    h = draw(st.integers(1, 64))
    payload = draw(st.binary(min_size=w * h, max_size=w * h))
    return GrayImage(np.frombuffer(payload, dtype=np.uint8).reshape(h, w))


@given(small_images())
def test_pgm_round_trip(img):
    assert parse_pgm(serialize_pgm(img)) == img


# ------------------------------------------------------------- scene files


@pytest.fixture
def minimal_scene_dict():
    cams = two_overlapping_cameras()
    scene = scene_with_boxes(
        cams,
        [{"track-1": {"CAM_FRONT": Box2D(100.0, 100.0, 200.0, 200.0)}}],
        scene_id="scene-a",
    )
    return scene_to_dict(scene, {"car": 0})


def write_scene(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_minimal_fixture(tmp_path, minimal_scene_dict):
    ds = parse_dataset(write_scene(tmp_path, minimal_scene_dict))
    assert len(ds.scenes) == 1
    scene = ds.scenes[0]
    assert scene.scene_id == "scene-a"
    assert len(scene.cameras) == 2
    assert len(scene.frames) == 1
    assert len(scene.frames[0].annotations) == 1
    assert ds.class_map == {"car": 0}


def test_unknown_camera_reference_is_named(tmp_path, minimal_scene_dict):
    doc = copy.deepcopy(minimal_scene_dict)
    ann = doc["frames"][0]["annotations"][0]
    ann["boxes2d"]["CAM_X"] = ann["boxes2d"].pop("CAM_FRONT")
    with pytest.raises(ValidationError, match="CAM_X"):
        parse_dataset(write_scene(tmp_path, doc))


def test_duplicate_track_in_frame_rejected(tmp_path, minimal_scene_dict):
    doc = copy.deepcopy(minimal_scene_dict)
    doc["frames"][0]["annotations"].append(
        copy.deepcopy(doc["frames"][0]["annotations"][0])
    )
    with pytest.raises(ValidationError, match="track"):
        parse_dataset(write_scene(tmp_path, doc))


def test_duplicate_scene_ids_rejected(tmp_path, minimal_scene_dict):
    write_scene(tmp_path, minimal_scene_dict, "a.json")
    write_scene(tmp_path, minimal_scene_dict, "b.json")
    with pytest.raises(ValidationError, match="scene-a"):
        parse_dataset(tmp_path)


def test_scenes_must_share_one_class_map(tmp_path, minimal_scene_dict):
    write_scene(tmp_path, minimal_scene_dict, "a.json")
    doc = copy.deepcopy(minimal_scene_dict)
    doc["scene_id"] = "scene-b"
    doc["class_map"] = ["truck"]
    write_scene(tmp_path, doc, "b.json")
    with pytest.raises(ValidationError, match="class_map differs from the first scene's"):
        parse_dataset(tmp_path)


def test_duplicate_category_rejected(tmp_path, minimal_scene_dict):
    doc = copy.deepcopy(minimal_scene_dict)
    doc["class_map"] = ["car", "car"]
    with pytest.raises(ValidationError, match="duplicate category in class_map"):
        parse_dataset(write_scene(tmp_path, doc))


def test_scene_file_must_hold_an_object(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text("[]")
    with pytest.raises(ParseError, match="top level must be an object"):
        parse_dataset(path)


def test_timestamps_must_increase(tmp_path, minimal_scene_dict):
    doc = copy.deepcopy(minimal_scene_dict)
    doc["frames"].append(copy.deepcopy(doc["frames"][0]))
    with pytest.raises(ValidationError, match="timestamp"):
        parse_dataset(write_scene(tmp_path, doc))


def test_annotation_needs_some_geometry(tmp_path, minimal_scene_dict):
    doc = copy.deepcopy(minimal_scene_dict)
    ann = doc["frames"][0]["annotations"][0]
    del ann["boxes2d"]
    with pytest.raises(ValidationError):
        parse_dataset(write_scene(tmp_path, doc))


@pytest.mark.parametrize("field", ["scene_id", "camera name"])
@pytest.mark.parametrize("name", ["../evil", "..", ".", "", "a/b", "a\\b", "a\0b", 5, None,
                                  # lone surrogates, which strict UTF-8 cannot encode
                                  "a\ud800b", "a\udc80b"])
def test_names_that_form_file_names_must_be_safe(tmp_path, minimal_scene_dict,
                                                 field, name):
    doc = copy.deepcopy(minimal_scene_dict)
    if field == "scene_id":
        doc["scene_id"] = name
    else:
        doc["cameras"][1]["name"] = name
    with pytest.raises(ValidationError, match=field):
        parse_dataset(write_scene(tmp_path, doc))


ANNOTATION = ("frames", 0, "annotations", 0)


@pytest.mark.parametrize("path,value,where", [
    (("frames",), [1, 2], "frame 0 must be an object"),
    (ANNOTATION, 5, "frame 0: annotation 0 must be an object"),
    (ANNOTATION + ("boxes2d",), [{"x0": 0}], "annotation 'track-1': boxes2d must be"),
    (("frames", 0, "detection_sets"), ["lidar_only"], "frame 0: detection_sets must be"),
    (ANNOTATION + ("track_id",), ["a"], "frame 0: track_id must be a string"),
    (ANNOTATION + ("category",), ["car"], "'track-1': category must be a string"),
    (("cameras",), {"CAM_FRONT": {}}, "cameras must be an array"),
    (("cameras", 1), "CAM_FRONT_RIGHT", "camera must be an object"),
    (("cameras", 0, "intrinsics"), [1, 2], "'CAM_FRONT': intrinsics must be"),
    (("frames", 0, "annotations"), None, "frame 0: annotations must be an array"),
    (ANNOTATION + ("boxes2d", "CAM_FRONT"), [0, 0, 1, 1], "in 'CAM_FRONT': box must be"),
    (ANNOTATION + ("boxes2d", "CAM_FRONT", "x0"), [0],
     "box in 'CAM_FRONT': x0 must be a number, got an array"),
    (ANNOTATION + ("cuboid",), 5, "'track-1': cuboid must be an object"),
    (("frames", 0, "detection_sets"), {"lidar_only": {}}, "'lidar_only': detection set must"),
    (("frames", 0, "detection_sets"), {"lidar_only": [5]}, "detection record must be"),
])
def test_wrong_json_types_are_parse_errors_that_say_where(
        tmp_path, minimal_scene_dict, path, value, where):
    doc = copy.deepcopy(minimal_scene_dict)
    target, key = holder(doc, path)
    target[key] = value
    with pytest.raises(ParseError, match=re.escape(where)):
        parse_dataset(write_scene(tmp_path, doc))


@pytest.mark.parametrize("field,value,message", [
    ("cx", math.nan, "cx must be finite"),
    ("cy", -math.inf, "cy must be finite"),
    ("fx", math.inf, "fx must be finite"),
    ("fy", math.nan, "fy must be finite"),
    ("width", 1600.7, "width must be an integer"),
    ("width", 1600.0, "width must be an integer"),
    ("height", True, "height must be an integer"),
    ("height", "900", "height must be an integer"),
])
def test_intrinsics_are_checked_and_name_the_camera(tmp_path, minimal_scene_dict,
                                                    field, value, message):
    doc = copy.deepcopy(minimal_scene_dict)
    doc["cameras"][1]["intrinsics"][field] = value
    with pytest.raises(ValidationError,
                       match=re.escape(f"camera 'CAM_FRONT_RIGHT': {message}")):
        parse_dataset(write_scene(tmp_path, doc))


def test_boolean_timestamp_rejected(tmp_path, minimal_scene_dict):
    # Frame's own check gives the message; the parser makes it a
    # ParseError naming the scene, before the frame is named by its stamp
    doc = copy.deepcopy(minimal_scene_dict)
    doc["frames"][0]["timestamp_ns"] = True
    path = write_scene(tmp_path, doc)
    with pytest.raises(ParseError) as exc:
        parse_dataset(path)
    assert str(exc.value) == (f"{path} scene {doc['scene_id']!r}: "
                              "timestamp_ns must be an integer, got True")


@pytest.mark.parametrize("field", ["x0", "y0", "x1", "y1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_native_box_coordinates_must_be_finite(tmp_path, minimal_scene_dict,
                                               field, value):
    doc = copy.deepcopy(minimal_scene_dict)
    doc["frames"][0]["annotations"][0]["boxes2d"]["CAM_FRONT"][field] = value
    with pytest.raises(ValidationError, match=re.escape(
            f"annotation 'track-1' box in 'CAM_FRONT': {field} must be finite, "
            f"got {value!r}")):
        parse_dataset(write_scene(tmp_path, doc))


def test_native_box_without_area_is_rejected_naming_the_frame(tmp_path,
                                                              minimal_scene_dict):
    doc = copy.deepcopy(minimal_scene_dict)
    doc["frames"][0]["annotations"][0]["boxes2d"]["CAM_FRONT"]["x1"] = 100.0
    with pytest.raises(ValidationError, match=re.escape(
            "scene 'scene-a' frame 0: annotation 'track-1' box in 'CAM_FRONT': "
            "native box must have positive area")):
        parse_dataset(write_scene(tmp_path, doc))


def with_cuboid_and_detection(scene_dict):
    """A copy of the scene whose annotation also has a cuboid and whose
    frame has a one-box ``lidar_only`` detection set."""
    doc = copy.deepcopy(scene_dict)
    frame = doc["frames"][0]
    frame["annotations"][0]["cuboid"] = {
        "center": [10.0, 0.0, 0.0], "size": [4.0, 2.0, 1.5], "yaw": 0.0}
    frame["detection_sets"] = {"lidar_only": [{
        "center": [10.0, 0.0, 0.0], "size": [4.0, 2.0, 1.5], "yaw": 0.0,
        "score": 0.5}]}
    return doc


@pytest.mark.parametrize("path,where", [
    (ANNOTATION + ("cuboid", "center", 1), "annotation 'track-1': center entry"),
    (ANNOTATION + ("cuboid", "yaw"), "annotation 'track-1': yaw"),
    (("cameras", 1, "intrinsics", "fx"), "camera 'CAM_FRONT_RIGHT': fx"),
    (("cameras", 1, "intrinsics", "width"), "camera 'CAM_FRONT_RIGHT': width"),
    (ANNOTATION + ("boxes2d", "CAM_FRONT", "x1"), "box in 'CAM_FRONT': x1"),
    (("frames", 0, "detection_sets", "lidar_only", 0, "score"),
     "detection set 'lidar_only': score"),
])
def test_integers_too_large_for_a_float_name_the_field(tmp_path, minimal_scene_dict,
                                                       path, where):
    doc = with_cuboid_and_detection(minimal_scene_dict)
    target, key = holder(doc, path)
    target[key] = HUGE
    with pytest.raises(ValidationError, match=re.escape(
            f"{where} is an integer too large for a float")):
        parse_dataset(write_scene(tmp_path, doc))


def test_empty_embedded_detection_set_is_valid(tmp_path, minimal_scene_dict):
    doc = copy.deepcopy(minimal_scene_dict)
    doc["frames"][0]["detection_sets"] = {"lidar_only": []}
    frame = parse_dataset(write_scene(tmp_path, doc)).scenes[0].frames[0]
    assert frame.detection_sets == {"lidar_only": ()}


@pytest.mark.parametrize("value,got", [
    ("1266.4", "a string"), (" 1e1 ", "a string"), (True, "a boolean"),
    (None, "null"), ([0], "an array"),
])
@pytest.mark.parametrize("path,where", [
    (("cameras", 1, "intrinsics", "fx"), "camera 'CAM_FRONT_RIGHT': fx"),
    (("cameras", 1, "extrinsics", "translation", 0),
     "camera 'CAM_FRONT_RIGHT': translation entry"),
    (ANNOTATION + ("cuboid", "center", 1), "annotation 'track-1': center entry"),
    (ANNOTATION + ("cuboid", "yaw"), "annotation 'track-1': yaw"),
    (ANNOTATION + ("boxes2d", "CAM_FRONT", "x1"), "box in 'CAM_FRONT': x1"),
    (("frames", 0, "detection_sets", "lidar_only", 0, "score"),
     "detection set 'lidar_only': score"),
])
def test_numbers_written_as_strings_or_booleans_are_rejected(
        tmp_path, minimal_scene_dict, path, where, value, got):
    # float() reads "1266.4", " 1e1 " and true as numbers
    doc = with_cuboid_and_detection(minimal_scene_dict)
    target, key = holder(doc, path)
    target[key] = value
    with pytest.raises(ParseError, match=re.escape(f"{where} must be a number, got {got}")):
        parse_dataset(write_scene(tmp_path, doc))


def test_integers_past_the_digit_limit_are_parse_errors_naming_the_file(
        tmp_path, minimal_scene_dict):
    # json.loads raises a plain ValueError for an integer literal of more
    # than 4300 digits (Python's integer string-conversion limit)
    path = write_scene(tmp_path, minimal_scene_dict)
    text = path.read_text()
    assert '"timestamp_ns": 0' in text
    path.write_text(text.replace('"timestamp_ns": 0', '"timestamp_ns": ' + "9" * 5000))
    with pytest.raises(ParseError, match=re.escape(f"{path}: ")):
        parse_dataset(path)


BOTH_PARTS = {"annotations", "detection_sets"}


@pytest.mark.parametrize("path,value,part", [
    (("frames", 0, "detection_sets", "lidar_only", 0, "score"), 2.0, "detection_sets"),
    (("frames", 0, "detection_sets", "lidar_only", 0, "size", 0), "4", "detection_sets"),
    (ANNOTATION + ("category",), "bus", "annotations"),
    (ANNOTATION + ("boxes2d", "CAM_FRONT", "y1"), math.nan, "annotations"),
])
def test_only_the_parses_that_build_a_record_check_it(tmp_path, minimal_scene_dict,
                                                      path, value, part):
    good = with_cuboid_and_detection(minimal_scene_dict)
    bad = copy.deepcopy(good)
    target, key = holder(bad, path)
    target[key] = value
    good_file = write_scene(tmp_path, good, "good.json")
    bad_file = write_scene(tmp_path, bad, "bad.json")
    for parts in (BOTH_PARTS, {part}):
        with pytest.raises((ParseError, ValidationError)):
            parse_dataset(bad_file, parts=parts)
    # the other part is built as from the valid scene; this one is left empty
    other = BOTH_PARTS - {part}
    selective = parse_dataset(bad_file, parts=other)
    assert selective == parse_dataset(good_file, parts=other)
    assert not getattr(selective.scenes[0].frames[0], part)


@pytest.mark.parametrize("parts", [(), ("annotations",), ("detection_sets",)])
@pytest.mark.parametrize("path,value,where", [
    (("frames", 0, "annotations"), {"track-1": {}}, "frame 0: annotations must be an array"),
    (("frames", 0, "detection_sets"), ["lidar_only"], "frame 0: detection_sets must be"),
    (("frames", 0, "detection_sets"), {"lidar_only": {}}, "'lidar_only': detection set must"),
])
def test_parts_left_out_keep_their_container_checks(tmp_path, minimal_scene_dict,
                                                    parts, path, value, where):
    doc = with_cuboid_and_detection(minimal_scene_dict)
    target, key = holder(doc, path)
    target[key] = value
    with pytest.raises(ParseError, match=re.escape(where)):
        parse_dataset(write_scene(tmp_path, doc), parts=parts)


def test_unknown_frame_part_is_rejected(tmp_path, minimal_scene_dict):
    with pytest.raises(ValueError, match="cuboids"):
        parse_dataset(write_scene(tmp_path, minimal_scene_dict), parts=("cuboids",))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_single_field_edit_parses_or_is_rejected(fuzz_base, data):
    base, paths, scene_file = fuzz_base
    doc = copy.deepcopy(base)
    target, key = holder(doc, data.draw(st.sampled_from(paths), label="path"))
    if data.draw(st.booleans(), label="delete"):
        del target[key]
    else:
        target[key] = data.draw(json_values, label="value")
    scene_file.write_text(json.dumps(doc))
    try:
        assert isinstance(parse_dataset(scene_file), Dataset)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_selective_parse_accepts_what_the_full_parse_accepts(fuzz_base, data):
    base, paths, scene_file = fuzz_base
    doc = copy.deepcopy(base)
    target, key = holder(doc, data.draw(st.sampled_from(paths), label="path"))
    target[key] = data.draw(json_values, label="value")
    scene_file.write_text(json.dumps(doc))
    try:
        full = parse_dataset(scene_file)
    except (ParseError, ValidationError):
        full = None
    for part, left_out in (("annotations", "detection_sets"),
                           ("detection_sets", "annotations")):
        try:
            selective = parse_dataset(scene_file, parts=(part,))
        except (ParseError, ValidationError):
            assert full is None
            continue
        if full is not None:
            for want, got in zip(full.scenes[0].frames, selective.scenes[0].frames):
                assert getattr(got, part) == getattr(want, part)
                assert not getattr(got, left_out)


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scene_id": "x", ')
    with pytest.raises(ParseError):
        parse_dataset(path)


def test_empty_directory_rejected(tmp_path):
    with pytest.raises((ParseError, ValidationError)):
        parse_dataset(tmp_path)


def test_write_then_parse_round_trips(tmp_path):
    ds, _ = generate_scene(
        SynthParams(seed=21, n_objects=6, n_frames=3, drop_rate=0.25, detection_noise=0.1)
    )
    paths = write_dataset(ds, tmp_path)
    assert len(paths) == 1
    again = parse_dataset(tmp_path)
    assert again == ds


def test_a_scene_file_holds_one_scene(tmp_path, minimal_scene_dict):
    one = parse_dataset(write_scene(tmp_path, minimal_scene_dict)).scenes[0]
    two = dataclasses.replace(one, scene_id="scene-b")
    target = tmp_path / "out" / "both.json"
    with pytest.raises(ValueError, match="a single scene file can hold exactly one scene"):
        write_dataset(dataset_of(one, two, class_map={"car": 0}), target)
    assert not target.parent.exists()


def test_round_trip_is_byte_stable(tmp_path):
    ds, _ = generate_scene(SynthParams(seed=4, n_objects=3))
    first = write_dataset(ds, tmp_path / "a")[0].read_bytes()
    second = write_dataset(parse_dataset(tmp_path / "a"), tmp_path / "b")[0].read_bytes()
    assert first == second


# a float subclass, which json writes by float's repr and the parser reads
# back as a float
class Meters(float):
    pass


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# what a float field of an in-memory record may hold: mostly finite
# floats, and every other number json writes, which the writer refuses
# unless the parser reads it back as itself
reals = st.one_of(finite_floats, finite_floats, st.floats(), st.integers(-10**30, 10**30),
                  st.booleans(), st.floats().map(Meters))
# values that records check to be positive, or within [0, 1], let through
sizes = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
positive = st.one_of(sizes, sizes, st.sampled_from([math.nan, math.inf]),
                     st.integers(1, 10**30), st.just(True), sizes.map(Meters))
scores = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 1),
                   st.booleans(), st.floats(0.0, 1.0).map(Meters))
# characters that json escapes: quotes, backslashes, control characters,
# non-ASCII and lone surrogates; file names take those that a file name may
# hold
name_chars = '"\x1f\x7f\xe9\u2028\U00010080'
escaped = st.characters() | st.sampled_from(name_chars + "\\\x00\ud800\udc80")
names = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\\\0")
                | st.sampled_from(name_chars), min_size=1, max_size=5
                ).filter(lambda s: s not in (".", ".."))


def any_text(max_size):
    return st.text(escaped, max_size=max_size)


def readable_text(max_size):
    # json reads a high surrogate written before a low one back as one character
    return any_text(max_size).filter(lambda s: json.loads(json.dumps(s)) == s)


def vectors(values, floats=finite_floats):
    """Mostly three values, the schema's length, but any length too, also
    of floats alone."""
    return (st.tuples(values, values, values) | st.lists(values, max_size=4).map(tuple)
            | st.lists(floats, max_size=5).map(tuple))


# the numbers an in-memory record may hold: any the records let through, or
# only those the parser reads back as themselves (finite floats, integers
# that a float holds exactly, vectors of the schema's length)
ANY_NUMBERS = {
    "real": reals, "positive": positive, "score": scores, "vector": vectors,
    "width": st.integers(1, 4000) | positive,
    # center vectors may also hold arrays, which json lays out over lines
    "center": reals | st.lists(finite_floats, max_size=2),
    "rotations": [(1.0, 0.0, 0.0, 0.0), (0.5, -0.5, 0.5, -0.5), (True, 0, 0, 0),
                  (Meters(1.0), 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0)]}
exact = finite_floats | st.integers(-2**53, 2**53)
READABLE_NUMBERS = {
    "real": exact, "positive": sizes | st.integers(1, 2**53),
    "score": st.floats(0.0, 1.0) | st.integers(0, 1), "width": st.integers(1, 10**30),
    "vector": lambda values, floats=None: st.tuples(values, values, values),
    "center": exact,
    "rotations": [(1.0, 0.0, 0.0, 0.0), (0.5, -0.5, 0.5, -0.5), (1, 0, 0, 0)]}


@st.composite
def native_boxes(draw, real):
    corners = []
    for _ in range(2):
        low, high = draw(real), draw(real)
        # Box2D refuses a NaN coordinate itself
        assume(low == low and high == high)
        corners.append((high, low) if high < low else (low, high))
    (x0, x1), (y0, y1) = corners
    assume(not (x1 - x0) * (y1 - y0) <= 0)
    return Box2D(x0, y0, x1, y1)


def cuboids(kind, numbers, *scores):
    return st.builds(kind, numbers["vector"](numbers["center"]),
                     numbers["vector"](numbers["positive"], sizes), numbers["real"], *scores)


@st.composite
def in_memory_datasets(draw, numbers=ANY_NUMBERS, text=any_text):
    """One scene whose records hold any value they accept of ``numbers``,
    and names and ids of ``text``, with its class map."""
    real, positive = numbers["real"], numbers["positive"]
    categories = draw(st.lists(text(4), min_size=1, max_size=3,
                               unique=True))
    ids = draw(st.permutations(range(len(categories))))
    cameras = tuple(
        CameraModel(name, draw(positive), draw(positive), draw(real), draw(real),
                    draw(numbers["width"]), draw(st.integers(1, 4000)),
                    draw(st.sampled_from(numbers["rotations"])),
                    draw(numbers["vector"](real)))
        for name in draw(st.lists(names, max_size=3, unique=True)))
    detections = cuboids(Box3D, numbers, numbers["score"])
    frames = []
    for ts in sorted(draw(st.sets(st.integers(0, 10**18), min_size=1, max_size=3))):
        annotations = []
        for track_id in draw(st.sets(text(5), max_size=3)):
            boxes = {cam.name: draw(native_boxes(real)) for cam in cameras
                     if draw(st.booleans())}
            cuboid = draw((st.none() | cuboids(Cuboid3D, numbers)) if boxes
                          else cuboids(Cuboid3D, numbers))
            annotations.append(Annotation(track_id, draw(st.sampled_from(categories)),
                                          cuboid, boxes))
        sets = draw(st.dictionaries(
            text(4), st.lists(detections, max_size=2).map(tuple),
            max_size=3))
        frames.append(Frame(ts, tuple(annotations), sets))
    scene = Scene(draw(names), cameras, tuple(frames))
    return Dataset((scene,), dict(zip(categories, ids)))


def leaves(doc):
    """Every value inside ``doc`` that is not an object or an array."""
    if isinstance(doc, (dict, list)):
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from leaves(value)
    else:
        yield doc


def reads_back_as_written(ds, path):
    """Whether every value of ``ds``'s one scene is a ``str``, ``int`` or
    ``float`` (not a subclass, which json writes as its base type), and
    ``parse_dataset`` reads the reference text back as the values it holds:
    not rejected, no integer read back as another number, and no string as
    another string (json joins a surrogate pair held as two code points
    into one character)."""
    scene = ds.scenes[0]
    doc = scene_to_dict(scene, ds.class_map)
    if not all(type(v) in (str, int, float) for v in leaves(doc)):
        return False
    text = reference_scene_text(scene, ds.class_map)
    path.write_text(text, encoding="utf-8")
    try:
        parsed = parse_dataset(path)
    except (ParseError, ValidationError):
        return False
    return scene_to_dict(parsed.scenes[0], parsed.class_map) == doc


# json reads this class map back as {'\U00010080': 0}
SURROGATE_PAIR_CLASS_MAP = Dataset((Scene("s", (), (Frame(0),)),), {"\ud800\udc80": 0})


@settings(max_examples=150, deadline=None)
@given(ds=in_memory_datasets())
@example(ds=SURROGATE_PAIR_CLASS_MAP)
def test_scene_text_is_the_json_reference(tmp_path_factory, ds):
    # the writer has one path: a dataset that reads back as written is
    # written as json.dumps writes it, and any other is refused
    path = tmp_path_factory.getbasetemp() / "scene_text_reference.json"
    scene = ds.scenes[0]
    try:
        text = scene_text(scene, ds.class_map)
    except ValidationError:
        assert not reads_back_as_written(ds, path)
    else:
        assert text == reference_scene_text(scene, ds.class_map)
        assert reads_back_as_written(ds, path)


@settings(max_examples=100, deadline=None)
@given(ds=in_memory_datasets(READABLE_NUMBERS, readable_text))
def test_scene_text_writes_every_dataset_that_reads_back(tmp_path_factory, ds):
    # most datasets of any numbers and strings hold one the writer refuses;
    # these hold none, so each is written, cameras and native boxes included
    path = tmp_path_factory.getbasetemp() / "scene_text_readable.json"
    scene = ds.scenes[0]
    assert scene_text(scene, ds.class_map) == reference_scene_text(scene, ds.class_map)
    assert reads_back_as_written(ds, path)


def test_scene_text_splits_each_vector_by_its_own_length():
    # six floats split 2 + 4 fill as many slots as the usual 3 + 3; the
    # general path wrote them, and the parser rejected the file
    ds, _ = generate_scene(SynthParams(seed=4, n_objects=1))
    frame = ds.scenes[0].frames[0]
    box = frame.detection_sets["fusion_baseline"][0]
    odd = dataclasses.replace(box, center=box.center[:2], size=(box.center[2], *box.size))
    frame = dataclasses.replace(frame, detection_sets={"fusion_baseline": (odd,)})
    scene = dataclasses.replace(ds.scenes[0], frames=(frame,))
    with pytest.raises(ValidationError, match=re.escape(
            "frame 0 detection set 'fusion_baseline': center must be an array of 3 "
            "numbers")):
        scene_text(scene, ds.class_map)


def scene_with_yaw(value):
    """A synth scene whose first frame holds one annotation, its cuboid's
    yaw ``value``, and its class map."""
    ds, _ = generate_scene(SynthParams(seed=4, n_objects=3))
    ann = ds.scenes[0].frames[0].annotations[0]
    odd = dataclasses.replace(ann, cuboid=dataclasses.replace(ann.cuboid, yaw=value))
    frame = dataclasses.replace(ds.scenes[0].frames[0], annotations=(odd,))
    return dataclasses.replace(ds.scenes[0], frames=(frame,)), ds.class_map


@pytest.mark.parametrize("value", [object(), 1 + 2j, {1.0}])
def test_scene_text_rejects_what_json_rejects(value):
    scene, class_map = scene_with_yaw(value)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        reference_scene_text(scene, class_map)
    with pytest.raises(ValidationError, match=re.escape(
            f"annotation 't00000o0000': yaw must be a number, got {type(value).__name__}")):
        scene_text(scene, class_map)


@pytest.mark.parametrize("value,message", [
    (math.nan, "yaw must be finite, got nan"),
    (-math.inf, "yaw must be finite, got -inf"),
    (True, "yaw must be a number, got a boolean"),
    (Meters(0.5), "yaw must be a number, got Meters"),
    ([0.5], "yaw must be a number, got an array"),
    (None, "yaw must be a number, got null"),
    (HUGE, "yaw is an integer too large for a float"),
    # json writes it, and the parser reads back 1e+20
    (10**20 + 1, "yaw is an integer that no float holds exactly, got 100000000000000000001"),
], ids=["nan", "-inf", "bool", "float-subclass", "array", "none", "huge-int", "inexact-int"])
def test_scene_text_refuses_what_the_parser_would_not_read_back(tmp_path, value, message):
    # the general path wrote each of these, as NaN, true, 0.5, [0.5], null
    # or the integer's digits: a file the parser rejects or reads back as
    # another type or number
    scene, class_map = scene_with_yaw(value)
    with pytest.raises(ValidationError, match=re.escape(
            f"scene {scene.scene_id!r} frame 0 annotation 't00000o0000': {message}")):
        write_dataset(Dataset((scene,), class_map), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where,message", [
    ("class map", ": class map name"),
    ("track", " frame 0 annotation 'a\\ud800\\udc80': track_id"),
    ("detection set", " frame 0: detection set name"),
])
def test_scene_text_refuses_a_surrogate_pair_held_as_two_code_points(tmp_path, where,
                                                                    message):
    # json writes the two code points as two escapes and reads them back as
    # one character, '\U00010080'
    pair = "a\ud800\udc80"
    ds, _ = generate_scene(SynthParams(seed=4, n_objects=1))
    scene, class_map = ds.scenes[0], ds.class_map
    frame = scene.frames[0]
    if where == "class map":
        class_map = {**class_map, pair: len(class_map)}
    elif where == "track":
        ann = dataclasses.replace(frame.annotations[0], track_id=pair)
        frame = dataclasses.replace(frame, annotations=(ann,))
    else:
        frame = dataclasses.replace(frame, detection_sets={pair: ()})
    scene = dataclasses.replace(scene, frames=(frame,))
    with pytest.raises(ValidationError, match=re.escape(
            f"scene {scene.scene_id!r}{message} "
            "holds a surrogate pair as two code points")):
        write_dataset(Dataset((scene,), class_map), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value,message", [
    ("rotation", (1.0, 0.0, 0.0), "rotation must be an array of 4 numbers"),
    ("translation", 5.0, "translation must be an array of 3 numbers, got 5.0"),
    ("translation", (1.0, "2", 0.5), "translation entry must be a number, got a string"),
    ("cx", math.inf, "cx must be finite, got inf"),
    ("width", 1600.0, "width must be an integer, got 1600.0"),
])
def test_scene_text_names_the_camera_and_field_it_refuses(field, value, message):
    ds, _ = generate_scene(SynthParams(seed=4, n_objects=1))
    scene = ds.scenes[0]
    cam = scene.cameras[1]
    if field == "rotation":
        # CameraModel itself unpacks four rotation entries, so the record is
        # bent after it is built
        cam = dataclasses.replace(cam)
        object.__setattr__(cam, field, value)
    else:
        cam = dataclasses.replace(cam, **{field: value})
    scene = dataclasses.replace(scene, cameras=(scene.cameras[0], cam, *scene.cameras[2:]))
    with pytest.raises(ValidationError, match=re.escape(f"camera {cam.name!r}: {message}")):
        scene_text(scene, ds.class_map)


def test_writing_a_synth_scene_never_calls_json_dumps(monkeypatch):
    # the templates are built at import; a fallback to json for values the
    # templates cannot take would call it again
    ds, _ = generate_scene(SynthParams(seed=4, n_objects=3, detection_noise=0.1))
    expected = reference_scene_text(ds.scenes[0], ds.class_map)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called while writing a scene")

    monkeypatch.setattr(json, "dumps", refuse)
    assert scene_text(ds.scenes[0], ds.class_map) == expected


# ------------------------------------------------------------ label output


def read_lines(text):
    return [ln for ln in text.split("\n") if ln]


def test_full_image_box_label_line():
    cams = two_overlapping_cameras()
    scene = scene_with_boxes(
        cams, [{"t0": {"CAM_FRONT": Box2D(0.0, 0.0, 1600.0, 900.0)}}]
    )
    ds = dataset_of(scene, class_map={"car": 0})
    kept = {("scene-0", 0, "CAM_FRONT", "t0"): Box2D(0.0, 0.0, 1600.0, 900.0)}
    lines = read_lines(emit_labels(ds, kept)["scene-0__0__CAM_FRONT.txt"])
    assert lines == ["0 0.500000 0.500000 1.000000 1.000000"]


def test_quarter_box_label_line():
    cams = two_overlapping_cameras()
    scene = scene_with_boxes(
        cams, [{"t0": {"CAM_FRONT": Box2D(400.0, 225.0, 800.0, 450.0)}}]
    )
    ds = dataset_of(scene, class_map={"car": 3, "truck": 0, "pedestrian": 1, "cyclist": 2})
    kept = {("scene-0", 0, "CAM_FRONT", "t0"): Box2D(400.0, 225.0, 800.0, 450.0)}
    lines = read_lines(emit_labels(ds, kept)["scene-0__0__CAM_FRONT.txt"])
    assert lines == ["3 0.375000 0.375000 0.250000 0.250000"]


def test_empty_label_files_are_emitted():
    cams = two_overlapping_cameras()
    scene = scene_with_boxes(
        cams, [{"t0": {"CAM_FRONT": Box2D(10.0, 10.0, 20.0, 20.0)}}]
    )
    ds = dataset_of(scene)
    # in frame and camera order
    assert list(emit_labels(ds, {}).items()) == [
        ("scene-0__0__CAM_FRONT.txt", ""), ("scene-0__0__CAM_FRONT_RIGHT.txt", "")]


def test_label_lines_are_five_normalized_fields():
    ds, _ = generate_scene(SynthParams(seed=9, n_objects=10, n_frames=2))
    all_keys = {
        (scene.scene_id, frame.timestamp_ns, cam.name, ann.track_id):
            resolve_box(ann, cam, "native-2d")[1]
        for scene in ds.scenes
        for frame in scene.frames
        for ann in frame.annotations
        for cam in scene.cameras
        if cam.name in ann.boxes2d
    }
    files = emit_labels(ds, all_keys)
    assert len(files) == sum(len(s.frames) * len(s.cameras) for s in ds.scenes)
    total = 0
    for text in files.values():
        for line in read_lines(text):
            fields = line.split(" ")
            assert len(fields) == 5
            int(fields[0])
            for value in fields[1:]:
                assert 0.0 <= float(value) <= 1.0
            total += 1
    assert total == len(all_keys)


def test_labels_sorted_by_track_within_file():
    cams = two_overlapping_cameras()
    scene = scene_with_boxes(
        cams,
        [{
            "zz": {"CAM_FRONT": Box2D(30.0, 30.0, 40.0, 40.0)},
            "aa": {"CAM_FRONT": Box2D(10.0, 10.0, 20.0, 20.0)},
        }],
    )
    ds = dataset_of(scene)
    kept = {("scene-0", 0, "CAM_FRONT", "zz"): Box2D(30.0, 30.0, 40.0, 40.0),
            ("scene-0", 0, "CAM_FRONT", "aa"): Box2D(10.0, 10.0, 20.0, 20.0)}
    lines = read_lines(emit_labels(ds, kept)["scene-0__0__CAM_FRONT.txt"])
    assert len(lines) == 2
    a_center = (10.0 + 20.0) / 2 / 1600.0
    assert float(lines[0].split()[1]) == pytest.approx(a_center, abs=1e-6)


# (old bytes, new text) of a file that shrinks, grows, becomes empty,
# stops being empty, keeps its bytes and stays empty
REWRITES = {
    "shorter": (b"9 0.1 0.1 0.1 0.1\n" * 300, "0 0.5 0.5 1 1\n"),
    "longer": (b"stale\n", "0 0.5 0.5 1 1\n" * 300),
    "emptied": (b"stale\n", ""),
    "filled": (b"", "0 0.5 0.5 1 1\n"),
    "unchanged": (b"same\n", "same\n"),
    "still-empty": (b"", ""),
}


@pytest.mark.parametrize("case", sorted(REWRITES))
def test_write_files_rewrites_each_existing_file_whole(tmp_path, case):
    # files are overwritten in place and then cut to length: an old tail
    # must not survive, each file named moves its mtime even when its bytes
    # do not change, and a file not named stays as it was
    old, new = REWRITES[case]
    names = ["prune_report.json", "labels/scene-0__0__CAM_FRONT.txt", "data/scene-0.json"]
    paths = [tmp_path / name for name in names]
    other = tmp_path / "labels" / "scene-0__7__CAM_FRONT.txt"
    for path in paths + [other]:
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(other.name.encode() if path == other else old)
        path.chmod(0o640)
    past = 10**9  # one second after the epoch
    for path in paths:
        os.utime(path, ns=(past, past))
    write_files(tmp_path, {name: new for name in names})
    for path in paths:
        assert path.read_bytes() == new.encode()
        assert path.stat().st_mtime_ns > past
        assert path.stat().st_mode & 0o777 == 0o640
    assert other.read_bytes() == other.name.encode()


def test_write_files_creates_each_parent_once(tmp_path, monkeypatch):
    made = []
    makedirs = os.makedirs
    monkeypatch.setattr(os, "makedirs", lambda p, **kw: made.append(p) or makedirs(p, **kw))
    files = {"a/b/one.txt": "1", "a/b/two.txt": "ü\n", "top.json": "{}", "a/c.txt": ""}
    write_files(tmp_path / "new", files)
    assert {name: (tmp_path / "new" / name).read_bytes() for name in files} == {
        name: text.encode("utf-8") for name, text in files.items()}
    # into existing directories, so makedirs does not call itself for the
    # missing ancestors
    made.clear()
    write_files(tmp_path / "new", files)
    assert made == [str(tmp_path / "new" / d) for d in ("a/b", "", "a")]
    made.clear()
    write_files(tmp_path / "nothing", {})
    assert made == [] and not (tmp_path / "nothing").exists()


def test_label_lines_format_the_kept_box():
    # emission formats the box it is given; it does not resolve one again
    cams = two_overlapping_cameras()
    scene = scene_with_boxes(
        cams, [{"t0": {"CAM_FRONT": Box2D(0.0, 0.0, 1600.0, 900.0)}}]
    )
    ds = dataset_of(scene, class_map={"car": 0})
    kept = {("scene-0", 0, "CAM_FRONT", "t0"): Box2D(400.0, 225.0, 800.0, 450.0)}
    lines = read_lines(emit_labels(ds, kept)["scene-0__0__CAM_FRONT.txt"])
    assert lines == ["0 0.375000 0.375000 0.250000 0.250000"]


def test_kept_key_naming_an_unknown_track_is_rejected():
    cams = two_overlapping_cameras()
    scene = scene_with_boxes(cams, [{"t0": {"CAM_FRONT": Box2D(10.0, 10.0, 20.0, 20.0)}}])
    kept = {("scene-0", 0, "CAM_FRONT", "ghost"): Box2D(10.0, 10.0, 20.0, 20.0)}
    with pytest.raises(ValidationError, match="unknown track 'ghost'"):
        emit_labels(dataset_of(scene), kept)


@pytest.mark.parametrize("key", [
    ("scene-0", 0, "CAM_NOPE", "t0"),
    ("scene-0", 5, "CAM_FRONT", "t0"),
    ("scene-9", 0, "CAM_FRONT", "t0"),
])
def test_kept_key_naming_no_frame_or_camera_is_rejected(key):
    # such a key used to be dropped without a word
    cams = two_overlapping_cameras()
    scene = scene_with_boxes(cams, [{"t0": {"CAM_FRONT": Box2D(10.0, 10.0, 20.0, 20.0)}}])
    kept = {("scene-0", 0, "CAM_FRONT", "t0"): Box2D(10.0, 10.0, 20.0, 20.0),
            key: Box2D(10.0, 10.0, 20.0, 20.0)}
    with pytest.raises(ValidationError, match=re.escape(repr(key))):
        emit_labels(dataset_of(scene), kept)


@pytest.mark.parametrize("scene_id", ["a\ud800b", "a\udc80b"])
def test_label_file_name_holding_a_lone_surrogate_is_rejected(scene_id):
    # an in-memory scene used to skip the parser's name check: emit_labels
    # failed on "\ud800" with a bare UnicodeEncodeError, and wrote a file
    # whose name is not UTF-8 for "\udc80". The scene rejects both names.
    cams = two_overlapping_cameras()
    spec = [{"t0": {"CAM_FRONT": Box2D(10.0, 10.0, 20.0, 20.0)}}]
    with pytest.raises(ValidationError, match="scene_id must be a non-empty string"):
        scene_with_boxes(cams, spec, scene_id=scene_id)
    renamed = (dataclasses.replace(cams[0], name=scene_id), cams[1])
    with pytest.raises(ValidationError, match="camera name must be a non-empty string"):
        scene_with_boxes(renamed, spec)


BOX = Box2D(10.0, 10.0, 20.0, 20.0)


@pytest.mark.parametrize("build,message", [
    (lambda cams: scene_with_boxes(cams + cams[:1], [{"t": {"CAM_FRONT": BOX}}]),
     "duplicate camera name"),
    (lambda cams: scene_with_boxes(cams, []), "a scene needs at least one frame"),
    (lambda cams: scene_with_boxes(cams, [{"t": {"CAM_X": BOX}}]),
     "frame 0 annotation 't': 2D box names unknown camera 'CAM_X'"),
    (lambda cams: dataset_of(scene_with_boxes(cams, [{"t": {"CAM_FRONT": BOX}}]),
                             class_map={"boat": 0}),
     "scene 'scene-0' frame 0 annotation 't': category 'car' not in the class map"),
    (lambda cams: scene_with_boxes(cams, [{"t": {"CAM_FRONT": BOX}}],
                                   scene_id="s" * 232),
     "camera 'CAM_FRONT_RIGHT' is 256 bytes, longer than 255"),
    (lambda cams: scene_with_boxes(cams, [{"t": {"CAM_FRONT": Box2D(10, 10, 10, 50)}}]),
     "annotation 't' box in 'CAM_FRONT': native box must have positive area"),
    (lambda cams: Annotation(5, "car", boxes2d={"CAM_FRONT": BOX}),
     "annotation track_id and category must be strings, got 5 and 'car'"),
    (lambda cams: Annotation("t", b"car", boxes2d={"CAM_FRONT": BOX}),
     "annotation track_id and category must be strings, got 't' and b'car'"),
    (lambda cams: Frame(0, (), {"fusion_baseline": (), 1: ()}),
     "frame 0: detection set name must be a string, got 1"),
], ids=["duplicate-camera", "no-frames", "unknown-box-camera", "unknown-category",
        "long-label-file-name", "box-without-area", "track-id-not-a-string",
        "category-not-a-string", "detection-set-name-not-a-string"])
def test_records_built_in_memory_are_checked(build, message):
    # only the parser checked these: a repeated camera name failed emission
    # claiming two scenes of one id shared a file, an unknown category
    # ended in a bare KeyError, and prune_dataset and group_stats silently
    # dropped a box without area, which write_dataset then wrote to a file
    # that parse_dataset rejects; a track id or category that is not a
    # string was written to a file that parse_dataset rejects, and a
    # detection set named 1 was parsed back as "1"
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(two_overlapping_cameras())


@pytest.mark.parametrize("class_map", [
    {"car": 5, "truck": 6},
    {"car": 0, "truck": 0},
    {"car": "0", "truck": "1"},
    {"car": False, "truck": True},
    {"car": 0.0, "truck": 1.0},
    {"car": 1, "truck": 2},
], ids=["offset", "all-zero", "strings", "bools", "floats", "from-one"])
def test_dataset_rejects_class_ids_other_than_0_to_n_minus_1(tmp_path, class_map):
    # such a map was accepted, and written as a name list that parsed back
    # numbered from 0: prune labelled a car 5 in memory and 0 once written
    scene = scene_with_boxes(two_overlapping_cameras(), [{"t": {"CAM_FRONT": BOX}}])
    with pytest.raises(ValidationError, match=re.escape(
            f"class map ids must be the integers 0 to 1, each once, got {class_map!r}")):
        dataset_of(scene, class_map=class_map)
    ds = dataset_of(scene, class_map={"truck": 1, "car": 0})
    write_dataset(ds, tmp_path)
    assert parse_dataset(tmp_path).class_map == ds.class_map


@pytest.mark.parametrize("name", [7, None, b"truck"])
def test_dataset_rejects_class_map_keys_that_are_not_strings(name):
    # such a map was written as a name list that parse_dataset rejected
    # ("class_map must be a list of category names")
    scene = scene_with_boxes(two_overlapping_cameras(), [{"t": {"CAM_FRONT": BOX}}])
    class_map = {"car": 0, name: 1}
    with pytest.raises(ValidationError, match=re.escape(
            f"class map keys must be strings, got {class_map!r}")):
        dataset_of(scene, class_map=class_map)


@pytest.mark.parametrize("timestamp", [True, 0.5, "7"])
def test_frame_rejects_a_timestamp_that_is_not_an_integer(timestamp):
    # only the parser checked the type: emit_labels wrote
    # scene-0__True__CAM_FRONT.txt, a name no parsed dataset can produce
    scene = scene_with_boxes(two_overlapping_cameras(), [{"t": {"CAM_FRONT": BOX}}])
    with pytest.raises(ValidationError, match=re.escape(
            f"timestamp_ns must be an integer, got {timestamp!r}")):
        dataclasses.replace(scene.frames[0], timestamp_ns=timestamp)


def test_unsafe_scene_id_built_in_memory_writes_nothing(tmp_path):
    # prune_dataset and emit_labels used to write out/evil__0__CAM_*.txt,
    # outside the label directory
    ds, _ = generate_scene(SynthParams(seed=7, n_objects=4))
    graph = build_overlap_graph(ds.scenes[0].cameras)
    with pytest.raises(ValidationError, match="scene_id must be a non-empty string"):
        evil = dataclasses.replace(
            ds, scenes=(dataclasses.replace(ds.scenes[0], scene_id="../evil"),))
        kept, _ = prune_dataset(evil, graph, 0.3)
        write_files(tmp_path / "out" / "labels", emit_labels(evil, kept))
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------- resolve_box


def test_resolve_box_native_source_clips_stored_box():
    cam = camera_at_yaw("CAM_FRONT", 0.0, 70.0)
    from redkit.ingest import Annotation

    ann = Annotation(
        track_id="t", category="car",
        boxes2d={"CAM_FRONT": Box2D(-10.0, 0.0, 10.0, 10.0)},
    )
    full, clipped = resolve_box(ann, cam, "native-2d")
    assert full.x0 == -10.0
    assert clipped.x0 == 0.0


def test_resolve_box_projected_source_uses_cuboid():
    cam = camera_at_yaw("CAM_FRONT", 0.0, 70.0)
    from redkit.ingest import Annotation

    ann = Annotation(track_id="t", category="car",
                     cuboid=Cuboid3D((10.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0))
    full, clipped = resolve_box(ann, cam, "projected-3d")
    cx = (full.x0 + full.x1) / 2
    assert cx == pytest.approx(cam.cx, abs=1.0)


def test_resolve_box_missing_source_returns_none():
    cam = camera_at_yaw("CAM_FRONT", 0.0, 70.0)
    from redkit.ingest import Annotation

    ann = Annotation(track_id="t", category="car",
                     cuboid=Cuboid3D((10.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0))
    assert resolve_box(ann, cam, "native-2d") is None


def test_resolve_box_rejects_unknown_source():
    cam = camera_at_yaw("CAM_FRONT", 0.0, 70.0)
    from redkit.ingest import Annotation

    ann = Annotation(track_id="t", category="car",
                     boxes2d={"CAM_FRONT": Box2D(0.0, 0.0, 10.0, 10.0)})
    with pytest.raises(ValueError):
        resolve_box(ann, cam, "mystery")
