"""Dataset schema, parsing and emission.

The canonical on-disk form is one JSON document per scene:

.. code-block:: text

    {
      "scene_id": "...",
      "class_map": ["car", "pedestrian", ...],          # index = class id
      "cameras": [
        {"name": "CAM_FRONT",
         "intrinsics": {"fx", "fy", "cx", "cy", "width", "height"},
         "extrinsics": {"rotation": [w, x, y, z],       # camera -> ego
                        "translation": [x, y, z]}}      # meters, ego frame
      ],
      "frames": [
        {"timestamp_ns": 0,
         "annotations": [
           {"track_id": "...", "category": "...",
            "cuboid": {"center": [x, y, z], "size": [l, w, h], "yaw": r},
            "boxes2d": {"CAM_FRONT": {"x0", "y0", "x1", "y1"}}}
         ],
         "detection_sets": {"fusion_baseline": [
            {"center": [x, y, z], "size": [l, w, h], "yaw": r, "score": s}
         ]}}
      ]
    }

``cuboid``, ``boxes2d`` and ``detection_sets`` are optional; an annotation
must carry a cuboid, native 2D boxes, or both. A dataset directory holds one
such file per scene; ``parse(write(dataset))`` round-trips every field
bit-exactly. A caller that reads only some per-frame parts (``annotations``,
``detection_sets``) can ask :func:`parse_dataset` to build only those.

:func:`write_dataset` writes exactly the bytes of ``json.dumps(doc,
indent=1)`` and a newline, ``doc`` being the document above, so the format
is that of ``json`` itself. It emits that text from one template per record
kind (:func:`scene_text`) rather than through ``json``, whose encoder runs
in pure Python whenever ``indent`` is set. It refuses with
``ValidationError`` any value the parser would reject and any number the
parser would read back as another type or number (NaN, a bool, a float
subclass, a vector of another length, ...) or as another string (a
surrogate pair held as two code points, which ``json`` joins into one).
:func:`redkit.synth.reference_scene_text` builds the document and calls
``json.dumps``, and is what the tests compare the writer with.

Grayscale images use binary PGM (P5, maxval 255). Label emission formats one
text file per frame and camera in the normalized ``class x y w h`` format;
:func:`write_files` writes every file redkit writes.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .geometry import Box2D, Box3D, CameraModel, Cuboid3D, project_cuboid

LABEL_SOURCES = ("native-2d", "projected-3d")
# the longest file name, in bytes, that common file systems accept
_MAX_NAME_BYTES = 255
# the per-frame parts whose records parse_dataset can build or leave out
FRAME_PARTS = ("annotations", "detection_sets")


class ParseError(ValueError):
    """Raised when an input document cannot be decoded at all."""


class ValidationError(ValueError):
    """Raised when a decoded document violates the schema contract."""


def _file_name_part(value: Any, what: str) -> str:
    """``value`` if it is a string that can only name a file inside the
    output directory it is joined to: no separators, NUL, ``.`` or ``..``,
    and no lone UTF-16 surrogate, which strict UTF-8 cannot encode."""
    if (not isinstance(value, str) or value in ("", ".", "..")
            or any(ch in value for ch in "/\\\0") or not _encodes(value)):
        raise ValidationError(
            f"{what} must be a non-empty string usable as a file name "
            f"(no '/', '\\', NUL, '.', '..' or lone surrogate), got {value!r}")
    return value


def _encodes(value: str) -> bool:
    # strict UTF-8: os.fsencode's surrogateescape would pass "\udc80"
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _timestamp(value: Any) -> int:
    """``value`` if it is an ``int``: not a ``bool`` (a subclass of
    ``int``), float or string, which would give label file names that no
    parsed dataset can produce."""
    if type(value) is not int:
        raise ValidationError(f"timestamp_ns must be an integer, got {value!r}")
    return value


def _label_file_name(scene_id: str, ts: int, camera: str) -> str:
    """The name of one frame and camera's label file."""
    return f"{scene_id}__{ts}__{camera}.txt"


def _check_label_file_names(scene_id: str, frames: Sequence[Frame],
                            cameras: Sequence[str]) -> None:
    """Reject a scene with a label file name over the byte limit of common
    file systems, naming the first name too long."""
    for frame in frames:
        for camera in cameras:
            size = len(_label_file_name(scene_id, frame.timestamp_ns, camera).encode())
            if size > _MAX_NAME_BYTES:
                raise ValidationError(
                    f"label file name for scene {scene_id!r}, frame "
                    f"{frame.timestamp_ns}, camera {camera!r} is {size} bytes, "
                    f"longer than {_MAX_NAME_BYTES}")


@dataclass(frozen=True)
class Annotation:
    """One object instance in one frame; its track id and category are
    strings, and each native 2D box has positive area."""

    track_id: str
    category: str
    cuboid: Cuboid3D | None = None
    boxes2d: dict[str, Box2D] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (isinstance(self.track_id, str) and isinstance(self.category, str)):
            raise ValidationError("annotation track_id and category must be strings, "
                                  f"got {self.track_id!r} and {self.category!r}")
        if self.cuboid is None and not self.boxes2d:
            raise ValidationError(
                f"annotation {self.track_id!r}: needs a cuboid or native 2D boxes"
            )
        for camera, box in self.boxes2d.items():
            if box.area <= 0.0:
                raise ValidationError(
                    f"annotation {self.track_id!r} box in {camera!r}: native box "
                    "must have positive area")


@dataclass(frozen=True)
class Frame:
    """One timestamp's annotations, at most one per track, and detection sets."""

    timestamp_ns: int
    annotations: tuple[Annotation, ...] = ()
    detection_sets: dict[str, tuple[Box3D, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _timestamp(self.timestamp_ns)
        for name in self.detection_sets:
            if not isinstance(name, str):
                raise ValidationError(f"frame {self.timestamp_ns}: detection set "
                                      f"name must be a string, got {name!r}")
        tracks: set[str] = set()
        for ann in self.annotations:
            if ann.track_id in tracks:
                raise ValidationError(f"duplicate track_id {ann.track_id!r}")
            tracks.add(ann.track_id)


@dataclass(frozen=True)
class Scene:
    """One rig's frames, checked for every rule that makes each label key
    and label file name of the scene well defined."""

    scene_id: str
    cameras: tuple[CameraModel, ...]
    frames: tuple[Frame, ...]

    def __post_init__(self) -> None:
        _file_name_part(self.scene_id, "scene_id")
        names = [_file_name_part(c.name, "camera name") for c in self.cameras]
        known = frozenset(names)
        if len(known) != len(names):
            raise ValidationError("duplicate camera name")
        if not self.frames:
            raise ValidationError("a scene needs at least one frame")
        prev_ts = None
        for frame in self.frames:
            ts = frame.timestamp_ns
            if prev_ts is not None and ts <= prev_ts:
                raise ValidationError(
                    f"frame {ts}: timestamps must be strictly increasing")
            prev_ts = ts
            for ann in frame.annotations:
                if not known.issuperset(ann.boxes2d):
                    camera = next(c for c in ann.boxes2d if c not in known)
                    raise ValidationError(
                        f"frame {ts} annotation {ann.track_id!r}: 2D box names "
                        f"unknown camera {camera!r}")
        _check_label_file_names(self.scene_id, self.frames, names)

    @cached_property
    def camera_map(self) -> dict[str, CameraModel]:
        return {c.name: c for c in self.cameras}


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of scenes with unique ids sharing one class map,
    which holds every annotation's category and numbers its ``n`` classes
    ``0`` to ``n - 1``, as a written and parsed class map does."""

    scenes: tuple[Scene, ...]
    class_map: dict[str, int]

    def __post_init__(self) -> None:
        if not all(isinstance(name, str) for name in self.class_map):
            raise ValidationError(f"class map keys must be strings, got {self.class_map!r}")
        ids = self.class_map.values()
        # type, not isinstance: True and False would pass as 1 and 0
        if not ({int}.issuperset(map(type, ids))
                and set(ids) == set(range(len(self.class_map)))):
            raise ValidationError(
                f"class map ids must be the integers 0 to {len(self.class_map) - 1}, "
                f"each once, got {self.class_map!r}")
        scene_ids: set[str] = set()
        for scene in self.scenes:
            if scene.scene_id in scene_ids:
                raise ValidationError(f"duplicate scene_id {scene.scene_id!r}")
            scene_ids.add(scene.scene_id)
            for frame in scene.frames:
                for ann in frame.annotations:
                    if ann.category not in self.class_map:
                        raise ValidationError(
                            f"scene {scene.scene_id!r} frame {frame.timestamp_ns} "
                            f"annotation {ann.track_id!r}: category "
                            f"{ann.category!r} not in the class map")


class GrayImage:
    """8-bit grayscale image; pixels are a ``(height, width)`` uint8 array."""

    __slots__ = ("pixels",)

    def __init__(self, pixels: Any):
        arr = np.asarray(pixels, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"expected 2D pixel data, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("image must be non-empty")
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


# whitespace and ``#`` comments, then one header token
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def parse_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM (magic ``P5``, maxval 255).

    Header comments (``#`` to end of line) are allowed. Anything else, wrong
    magic, a header number of more than 18 significant digits, other
    maxvals, or a short or over-long pixel payload, is a ``ParseError``
    whose message quotes at most the first 16 bytes of a bad token.
    """
    if not data.startswith(b"P5"):
        raise ParseError("not a binary PGM: expected magic 'P5'")
    pos = 2
    fields: list[int] = []
    for _ in range(3):
        match = _PGM_TOKEN.match(data, pos)
        token = match[1]
        if not token.isdigit():
            shown = repr(token[:16])
            if len(token) > 16:
                shown += f"... ({len(token)} bytes)"
            raise ParseError(f"bad PGM header token {shown}")
        number = token.lstrip(b"0") or b"0"
        # no valid size or maxval has more digits; the message stays short
        if len(number) > 18:
            raise ParseError(f"PGM header number too long: {len(number)} digits")
        fields.append(int(number))
        pos = match.end()
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ParseError("PGM header not terminated by whitespace")
    pos += 1
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ParseError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"unsupported PGM maxval {maxval}, only 255 is accepted")
    payload = data[pos:]
    expected = width * height
    if len(payload) < expected:
        raise ParseError(
            f"truncated PGM payload: {len(payload)} bytes, expected {expected}"
        )
    if len(payload) > expected:
        raise ParseError(
            f"trailing bytes after PGM payload: {len(payload) - expected}"
        )
    return GrayImage(np.frombuffer(payload, dtype=np.uint8).reshape(height, width))


def serialize_pgm(img: GrayImage) -> bytes:
    """Encode an image as binary PGM; inverse of :func:`parse_pgm`."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


# --------------------------------------------------------------------------
# canonical schema parsing


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", int: "a number", float: "a number",
               type(None): "null"}


def _typed(value: Any, kind: type, what: str, ctx: str) -> Any:
    """``value`` if it has the JSON type ``kind`` (object, array or string)."""
    if not isinstance(value, kind):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ParseError(f"{ctx}: {what} must be {_JSON_NAMES[kind]}, got {got}")
    return value


def _ctx_get(obj: Mapping[str, Any], key: str, ctx: str) -> Any:
    if key not in obj:
        raise ParseError(f"{ctx}: missing required field {key!r}")
    return obj[key]


_NUMBER_TYPES = frozenset((int, float))
_INTRINSICS = ("fx", "fy", "cx", "cy")
_BOX_KEYS = ("x0", "y0", "x1", "y1")
# a detection record's numbers in file order, named as the parser names
# them; a cuboid's are the first seven
_POSE_NUMBERS = ("center entry",) * 3 + ("size entry",) * 3 + ("yaw", "score")


def _finite(value: Any, what: str, ctx: str) -> float:
    """``value`` as a float if it is a JSON number. Any other JSON type
    (``float()`` would take "1.5" and true), NaN, infinities and integers
    too large for a float are rejected, naming ``what``."""
    if type(value) not in _NUMBER_TYPES:
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ParseError(f"{ctx}: {what} must be a number, got {got}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(
            f"{ctx}: {what} is an integer too large for a float") from None
    if not math.isfinite(number):
        raise ValidationError(f"{ctx}: {what} must be finite, got {value!r}")
    return number


def _floats(values: Sequence[Any], names: Sequence[str], ctx: str
            ) -> tuple[float, ...]:
    """``values`` as floats by :func:`_finite`'s rule; the first entry that
    breaks it is named by its entry of ``names``."""
    if _NUMBER_TYPES.issuperset(map(type, values)):
        try:
            floats = tuple(map(float, values))
            if all(map(math.isfinite, floats)):
                return floats
        except OverflowError:
            pass
    return tuple(_finite(v, name, ctx) for v, name in zip(values, names))


def _array(value: Any, n: int, what: str, ctx: str) -> Sequence[Any]:
    """``value`` if it is an array of ``n`` entries: a JSON array, or a
    record's list or tuple."""
    if type(value) not in (list, tuple) or len(value) != n:
        raise ParseError(f"{ctx}: {what} must be an array of {n} numbers, "
                         f"got {value!r}")
    return value


def _vec(value: Any, n: int, what: str, ctx: str) -> tuple[float, ...]:
    """``value`` as ``n`` floats if it is an array of ``n`` JSON numbers."""
    return _floats(_array(value, n, what, ctx), (f"{what} entry",) * n, ctx)


def _integer(value: Any, what: str, ctx: str) -> int:
    """``value`` if it is a JSON integer that converts to a float: not a
    float, string or boolean."""
    if type(value) is not int:
        raise ValidationError(f"{ctx}: {what} must be an integer, got {value!r}")
    _finite(value, what, ctx)
    return value


def _record(kind: type, ctx: str, *fields: Any) -> Any:
    """``kind(*fields)`` from fields already read; the constructor's
    ``ValueError`` becomes a ``ValidationError`` naming the record."""
    try:
        return kind(*fields)
    except ValueError as exc:
        raise ValidationError(f"{ctx}: {exc}") from None


def _parse_camera(obj: Any, ctx: str) -> CameraModel:
    _typed(obj, dict, "camera", ctx)
    name = _ctx_get(obj, "name", ctx)
    c = f"{ctx} camera {name!r}"
    intr = _typed(_ctx_get(obj, "intrinsics", c), dict, "intrinsics", c)
    extr = _typed(_ctx_get(obj, "extrinsics", c), dict, "extrinsics", c)
    return _record(
        CameraModel, ctx, name,
        *_floats([_ctx_get(intr, k, c) for k in _INTRINSICS], _INTRINSICS, c),
        _integer(_ctx_get(intr, "width", c), "width", c),
        _integer(_ctx_get(intr, "height", c), "height", c),
        _vec(_ctx_get(extr, "rotation", c), 4, "rotation", c),
        _vec(_ctx_get(extr, "translation", c), 3, "translation", c))


def _parse_cuboid(obj: Any, ctx: str) -> Cuboid3D:
    _typed(obj, dict, "cuboid", ctx)
    return _record(Cuboid3D, ctx,
                   _vec(_ctx_get(obj, "center", ctx), 3, "center", ctx),
                   _vec(_ctx_get(obj, "size", ctx), 3, "size", ctx),
                   _finite(_ctx_get(obj, "yaw", ctx), "yaw", ctx))


def _parse_detection(obj: Any, ctx: str) -> Box3D:
    _typed(obj, dict, "detection record", ctx)
    center = _array(_ctx_get(obj, "center", ctx), 3, "center", ctx)
    size = _array(_ctx_get(obj, "size", ctx), 3, "size", ctx)
    numbers = _floats((*center, *size, _ctx_get(obj, "yaw", ctx),
                       _ctx_get(obj, "score", ctx)), _POSE_NUMBERS, ctx)
    return _record(Box3D, ctx, numbers[:3], numbers[3:6], numbers[6], numbers[7])


def _parse_annotation(obj: Any, ctx: str) -> Annotation:
    track_id = _typed(_ctx_get(obj, "track_id", ctx), str, "track_id", ctx)
    c = f"{ctx} annotation {track_id!r}"
    category = _typed(_ctx_get(obj, "category", ctx), str, "category", c)
    cuboid = None
    if obj.get("cuboid") is not None:
        cuboid = _parse_cuboid(obj["cuboid"], c)
    boxes2d: dict[str, Box2D] = {}
    for cam_name, box in _typed(obj.get("boxes2d") or {}, dict, "boxes2d", c).items():
        bc = f"{c} box in {cam_name!r}"
        _typed(box, dict, "box", bc)
        coords = (_ctx_get(box, "x0", bc), _ctx_get(box, "y0", bc),
                  _ctx_get(box, "x1", bc), _ctx_get(box, "y1", bc))
        boxes2d[cam_name] = _record(Box2D, bc, *_floats(coords, _BOX_KEYS, bc))
    return _record(Annotation, ctx, track_id, category, cuboid, boxes2d)


def _parse_scene(doc: Any, class_map_out: dict[str, int] | None, ctx: str,
                 parts: frozenset[str]) -> tuple[Scene, dict[str, int]]:
    if not isinstance(doc, Mapping):
        raise ParseError(f"{ctx}: top level must be an object")
    scene_id = _ctx_get(doc, "scene_id", ctx)
    ctx = f"{ctx} scene {scene_id!r}"

    classes = _ctx_get(doc, "class_map", ctx)
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ParseError(f"{ctx}: class_map must be a list of category names")
    if len(set(classes)) != len(classes):
        raise ValidationError(f"{ctx}: duplicate category in class_map")
    class_map = {name: i for i, name in enumerate(classes)}
    if class_map_out is not None and class_map != class_map_out:
        raise ValidationError(f"{ctx}: class_map differs from the first scene's")

    cameras = tuple(
        _parse_camera(c, ctx)
        for c in _typed(_ctx_get(doc, "cameras", ctx), list, "cameras", ctx)
    )
    raw_frames = _typed(_ctx_get(doc, "frames", ctx), list, "frames", ctx)
    frames = []
    for i, fobj in enumerate(raw_frames):
        _typed(fobj, dict, f"frame {i}", ctx)
        # checked before fctx names the frame by it
        try:
            ts = _timestamp(_ctx_get(fobj, "timestamp_ns", ctx))
        except ValidationError as exc:
            raise ParseError(f"{ctx}: {exc}") from None
        fctx = f"{ctx} frame {ts}"
        annotations = []
        raw_annotations = _typed(fobj.get("annotations", []), list, "annotations", fctx)
        if "annotations" in parts:
            for j, aobj in enumerate(raw_annotations):
                _typed(aobj, dict, f"annotation {j}", fctx)
                annotations.append(_parse_annotation(aobj, fctx))
        detection_sets = {}
        raw_sets = _typed(fobj.get("detection_sets") or {}, dict, "detection_sets", fctx)
        for set_name, records in raw_sets.items():
            dctx = f"{fctx} detection set {set_name!r}"
            _typed(records, list, "detection set", dctx)
            if "detection_sets" in parts:
                detection_sets[set_name] = tuple(
                    _parse_detection(r, dctx) for r in records)
        frames.append(_record(Frame, fctx, ts, tuple(annotations), detection_sets))
    return _record(Scene, ctx, scene_id, cameras, tuple(frames)), class_map


def parse_dataset(path: str | Path, *,
                  parts: Iterable[str] = FRAME_PARTS) -> Dataset:
    """Load a dataset from a scene file or a directory of scene files.

    A directory is read as all ``*.json`` files in name order. Scenes must
    agree on the class map and have unique scene ids.

    ``parts`` names the per-frame parts (of :data:`FRAME_PARTS`) whose
    records are built and checked. A part left out is still checked to be
    a JSON array (``annotations``) or an object of arrays
    (``detection_sets``), but the records inside are neither built nor
    checked, and every frame holds it empty.
    """
    parts = frozenset(parts)
    if not parts <= frozenset(FRAME_PARTS):
        raise ValueError(f"unknown frame parts {sorted(parts - set(FRAME_PARTS))}, "
                         f"expected some of {FRAME_PARTS}")
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.json"))
        if not files:
            raise ValidationError(f"{p}: no scene files (*.json) found")
    elif p.is_file():
        files = [p]
    else:
        raise ValidationError(f"{p}: no such file or directory")
    scenes = []
    class_map: dict[str, int] | None = None
    for f in files:
        try:
            doc = json.loads(f.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{f}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            # an integer literal past Python's digit limit, bytes that are
            # not UTF-8, or arrays or objects nested too deep to decode
            raise ParseError(f"{f}: {exc}") from None
        scene, class_map = _parse_scene(doc, class_map, str(f), parts)
        scenes.append(scene)
    return _record(Dataset, str(p), tuple(scenes), class_map or {})


# --------------------------------------------------------------------------
# canonical schema emission


_encode_str = json.encoder.encode_basestring_ascii
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
# _NL[d] starts a line indented to nesting depth d, _SEP[d] also ends the
# item before it
_NL = tuple("\n" + " " * d for d in range(8))
_SEP = tuple("," + nl for nl in _NL)


def _template(record: dict[str, Any], depth: int) -> str:
    """``json.dumps(record, indent=1)`` for a record at nesting ``depth``,
    each ``None`` value a ``%s`` slot."""
    return json.dumps(record, indent=1).replace("\n", _NL[depth]).replace("null", "%s")


def _join(items: list[str], depth: int, brackets: str) -> str:
    """A JSON array (``brackets`` "[]") or object ("{}") of encoded items,
    its closing bracket at ``depth``."""
    if not items:
        return brackets
    return (brackets[0] + _NL[depth + 1] + _SEP[depth + 1].join(items)
            + _NL[depth] + brackets[1])


def _numbers(ctx: str, names: Sequence[str], *values: Any) -> tuple[Any, ...]:
    """``values``, which ``%s`` writes as ``json`` does, if the parser reads
    each back as itself: by :func:`_floats`' rule an ``int`` or ``float``
    (no subclass) finite as a float, and one that a float holds exactly.
    The error for the first that is not names its entry of ``names``."""
    floats = _floats(values, names, ctx)
    if floats != values:
        name, value = next((n, v) for n, v, f in zip(names, values, floats) if f != v)
        raise ValidationError(f"{ctx}: {name} is an integer that no float holds exactly, "
                              f"got {value!r}")
    return values


_POSE = {"center": [None] * 3, "size": [None] * 3, "yaw": None}
_SCENE = _template(dict.fromkeys(("scene_id", "class_map", "cameras", "frames")), 0)
_CAMERA = _template({"name": None,
                     "intrinsics": dict.fromkeys((*_INTRINSICS, "width", "height")),
                     "extrinsics": {"rotation": [None] * 4, "translation": [None] * 3}}, 2)
_CUBOID = _template(_POSE, 5)
_BOX2D = _template(dict.fromkeys(_BOX_KEYS), 6)
_DETECTION = _template({**_POSE, "score": None}, 5)
# the numbers that fill a template, named as the parser names them
_EXTRINSICS = ("rotation entry",) * 4 + ("translation entry",) * 3


def _string(value: str, ctx: str, name: str) -> str:
    """``value`` encoded as ``json`` writes it, unless it holds a high
    surrogate followed by a low one: written as two escapes, ``json`` reads
    those back as one character."""
    if not value.isascii() and _SURROGATE_PAIR.search(value):
        raise ValidationError(f"{ctx}: {name} holds a surrogate pair as two code "
                              f"points, which reads back as one, got {value!r}")
    return _encode_str(value)


def _camera_text(c: CameraModel, ctx: str) -> str:
    ctx = f"{ctx} camera {c.name!r}"
    return _CAMERA % (
        _encode_str(c.name), *_numbers(ctx, _INTRINSICS, c.fx, c.fy, c.cx, c.cy),
        _integer(c.width, "width", ctx), _integer(c.height, "height", ctx),
        *_numbers(ctx, _EXTRINSICS, *_array(c.rotation, 4, "rotation", ctx),
                  *_array(c.translation, 3, "translation", ctx)))


def _pose_text(b: Cuboid3D, ctx: str, *score: Any) -> str:
    """A cuboid's text, or with a ``score`` a detection record's."""
    return (_DETECTION if score else _CUBOID) % _numbers(
        ctx, _POSE_NUMBERS, *_array(b.center, 3, "center", ctx),
        *_array(b.size, 3, "size", ctx), b.yaw, *score)


def _annotation_text(a: Annotation, ctx: str) -> str:
    ctx = f"{ctx} annotation {a.track_id!r}"
    pairs = ['"track_id": ' + _string(a.track_id, ctx, "track_id"),
             '"category": ' + _encode_str(a.category)]
    if a.cuboid is not None:
        pairs.append('"cuboid": ' + _pose_text(a.cuboid, ctx))
    if a.boxes2d:
        pairs.append('"boxes2d": ' + _join([_encode_str(cam) + ": " + _BOX2D % _numbers(
            f"{ctx} box in {cam!r}", _BOX_KEYS, b.x0, b.y0, b.x1, b.y1)
            for cam, b in a.boxes2d.items()], 5, "{}"))
    return _join(pairs, 4, "{}")


def _frame_text(f: Frame, ctx: str) -> str:
    ctx = f"{ctx} frame {f.timestamp_ns}"
    pairs = [f'"timestamp_ns": {f.timestamp_ns}', '"annotations": ' + _join(
        [_annotation_text(a, ctx) for a in f.annotations], 3, "[]")]
    if f.detection_sets:
        pairs.append('"detection_sets": ' + _join([
            _string(name, ctx, "detection set name") + ": " + _join(
                [_pose_text(b, f"{ctx} detection set {name!r}", b.score) for b in boxes],
                4, "[]")
            for name, boxes in f.detection_sets.items()], 3, "{}"))
    return _join(pairs, 2, "{}")


def scene_text(scene: Scene, class_map: Mapping[str, int]) -> str:
    """A scene file's text: ``json.dumps(doc, indent=1)`` of the document
    the schema describes, and a final newline (see the module docstring)."""
    ctx = f"scene {scene.scene_id!r}"
    names = sorted(class_map, key=class_map.get)
    try:
        return _SCENE % (
            _encode_str(scene.scene_id),
            _join([_string(name, ctx, "class map name") for name in names], 1, "[]"),
            _join([_camera_text(c, ctx) for c in scene.cameras], 1, "[]"),
            _join([_frame_text(f, ctx) for f in scene.frames], 1, "[]")) + "\n"
    except ParseError as exc:
        # the parser's readers reject a value's JSON type; in a record built
        # in memory, that is a value the schema cannot hold
        raise ValidationError(str(exc)) from None


def write_dataset(dataset: Dataset, path: str | Path) -> list[Path]:
    """Write a dataset to disk; inverse of :func:`parse_dataset`.

    A path ending in ``.json`` (single-scene datasets only) writes one file;
    otherwise ``path`` is created as a directory with one file per scene.
    Each file holds exactly ``json.dumps(doc, indent=1)`` and a newline. A
    value the parser would reject, or a number or string it would read back
    as another type, number or string, raises ``ValidationError`` before any
    file is written.

    Returns:
        The written file paths, in scene order.
    """
    p = Path(path)
    if p.suffix == ".json":
        if len(dataset.scenes) != 1:
            raise ValueError("a single scene file can hold exactly one scene")
        root, targets = p.parent, [p]
    else:
        root, targets = p, [p / f"{s.scene_id}.json" for s in dataset.scenes]
    write_files(root, {target.name: scene_text(scene, dataset.class_map)
                       for target, scene in zip(targets, dataset.scenes)})
    return targets


def write_files(root: str | os.PathLike, files: Mapping[str, str]) -> None:
    """Write each of ``files``, a path under ``root`` and its text, as UTF-8
    in order, once every parent directory exists; the only code in redkit
    that creates a directory or opens a file for writing.

    An existing file is overwritten in place and then cut to its new length,
    so a completed call leaves it with its new bytes, its name and mode, and
    a new mtime; a crash or kill before the cut can leave the start of its
    new bytes followed by the tail of its old ones. Nothing is synced to
    disk, and files that ``files`` does not name are left as they are.
    """
    targets = [os.path.join(root, name) for name in files]
    for parent in dict.fromkeys(map(os.path.dirname, targets)):
        os.makedirs(parent, exist_ok=True)
    for target, text in zip(targets, files.values()):
        data = text.encode("utf-8")
        # not open(target, "wb"): a file truncated to zero and written
        # again has its blocks freed and allocated anew, and ext4 starts
        # its writeback at close; an existing file is overwritten in place
        # and then cut to the new length. Plain os calls, not open() on
        # the fd: the buffered file object's set-up, isatty and tell cost
        # more per small file than they save, enough to make creating new
        # files slower than open(target, "wb") was
        fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)


# --------------------------------------------------------------------------
# label sources


def resolve_box(annotation: Annotation, cam: CameraModel, source: str
                ) -> tuple[Box2D, Box2D] | None:
    """The (full, clipped) 2D box of an annotation in one camera.

    ``native-2d`` reads the stored 2D box and clips it to the image;
    ``projected-3d`` projects the cuboid. ``None`` when the annotation has
    no observation in this camera under the chosen source.
    """
    if source == "native-2d":
        box = annotation.boxes2d.get(cam.name)
        if box is None:
            return None
        return box, box.clip(cam.width, cam.height)
    if source == "projected-3d":
        if annotation.cuboid is None:
            return None
        return project_cuboid(annotation.cuboid, cam)
    raise ValueError(f"unknown label source {source!r}, expected one of {LABEL_SOURCES}")


# --------------------------------------------------------------------------
# label emission


def emit_labels(dataset: Dataset, kept: Mapping[tuple[str, int, str, str], Box2D]
                ) -> dict[str, str]:
    """Format one normalized label file per frame and camera: each file's
    name mapped to its text, in scene, frame and camera order.

    ``kept`` maps ``(scene_id, timestamp_ns, camera, track_id)`` keys to
    their boxes clipped to the image, as
    :func:`redkit.multisource.prune_dataset` returns them. Lines are
    ``class_id xc yc w h`` with center/size normalized by the image
    dimensions, six decimals, LF endings, sorted by track id. Frames with no
    kept boxes in a camera still get their (empty) file. A key naming a
    scene, frame, camera or track the dataset lacks is an error. The
    records already checked each name on its own, so emission checks the
    names only against each other.
    """
    kept_index: dict[tuple[str, int, str], dict[str, Box2D]] = {}
    for (scene_id, ts, camera, track_id), box in kept.items():
        kept_index.setdefault((scene_id, ts, camera), {})[track_id] = box
    # file name -> the scene it is written for; scene ids and camera names
    # may both contain "__", so two scenes can map to one name
    owners: dict[str, str] = {}
    files: dict[str, str] = {}
    for scene in dataset.scenes:
        for frame in scene.frames:
            by_track = {a.track_id: a for a in frame.annotations}
            for cam in scene.cameras:
                tracks = kept_index.pop((scene.scene_id, frame.timestamp_ns, cam.name), {})
                lines = []
                for track_id, box in sorted(tracks.items()):
                    ann = by_track.get(track_id)
                    if ann is None:
                        raise ValidationError(
                            f"kept key names unknown track {track_id!r} in frame "
                            f"{frame.timestamp_ns} of scene {scene.scene_id!r}"
                        )
                    lines.append(_format_label(dataset.class_map[ann.category], box, cam))
                name = _label_file_name(scene.scene_id, frame.timestamp_ns, cam.name)
                if name in owners:
                    raise ValidationError(
                        f"label file {name!r} would be written for both scene "
                        f"{owners[name]!r} and scene {scene.scene_id!r}"
                    )
                owners[name] = scene.scene_id
                files[name] = "\n".join(lines) + "\n" if lines else ""
    if kept_index:
        (scene_id, ts, camera), tracks = next(iter(kept_index.items()))
        key = (scene_id, ts, camera, min(tracks))
        raise ValidationError(f"kept key {key!r} names no frame and camera "
                              "of the dataset")
    return files


def _format_label(class_id: int, clipped: Box2D, cam: CameraModel) -> str:
    xc = (clipped.x0 + clipped.x1) / 2.0 / cam.width
    yc = (clipped.y0 + clipped.y1) / 2.0 / cam.height
    w = (clipped.x1 - clipped.x0) / cam.width
    h = (clipped.y1 - clipped.y0) / cam.height
    for v in (xc, yc, w, h):
        if not 0.0 <= v <= 1.0 or math.isnan(v):
            raise RuntimeError(
                f"normalized label value {v!r} escaped [0, 1]; clipping contract violated"
            )
    return f"{class_id} {xc:.6f} {yc:.6f} {w:.6f} {h:.6f}"
