"""Field-of-view overlap between cameras on a ring.

Each camera is reduced to a circular arc on the ego viewing circle (yaw of
the optical axis plus half the horizontal field of view to each side).
Pairwise arc intersection, with wraparound at the -180/180 seam, yields an
overlap graph that downstream grouping walks. A pinhole camera sees less
than a semicircle, so two cameras share at most one arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .geometry import CameraModel, check_threshold, horizontal_fov, \
    normalize_deg, yaw_center


@dataclass(frozen=True)
class ViewArc:
    """A camera's angular coverage on the ego viewing circle.

    ``center`` is the optical-axis yaw in degrees, normalized to
    ``[-180, 180)``; ``half_width`` is half the horizontal field of view,
    in ``(0, 90]`` as a pinhole camera's is (exactly 90 only when ``atan``
    rounds to a right angle).
    """

    camera: str
    center: float
    half_width: float

    def __post_init__(self) -> None:
        if not 0.0 < self.half_width <= 90.0:
            raise ValueError(
                f"arc {self.camera!r}: half width must be in (0, 90], got {self.half_width}"
            )
        if not -180.0 <= self.center < 180.0:
            raise ValueError(
                f"arc {self.camera!r}: center must be normalized to [-180, 180), got {self.center}"
            )


@dataclass(frozen=True)
class OverlapPair:
    """One graph edge: two cameras and their shared arc.

    ``arc`` is ``(start, end)`` in ego degrees with ``start`` normalized to
    ``[-180, 180)`` and ``end = start + overlap_degrees``; ``end`` may exceed
    180 when the shared region crosses the seam.
    """

    camera_a: str
    camera_b: str
    overlap_degrees: float
    arc: tuple[float, float]


@dataclass(frozen=True)
class OverlapGraph:
    """Undirected camera-pair graph with per-edge overlap arcs.

    It is read through ``pairs``, its edges in order, and ``adjacency``,
    each camera's peers. A rig with fewer than two cameras, or with no
    overlapping pair, has no pairs.
    """

    pairs: tuple[OverlapPair, ...]

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {}
        for p in self.pairs:
            adj.setdefault(p.camera_a, set()).add(p.camera_b)
            adj.setdefault(p.camera_b, set()).add(p.camera_a)
        return {name: frozenset(peers) for name, peers in adj.items()}


def view_arc(cam: CameraModel) -> ViewArc:
    """The viewing arc of a camera, derived from its calibration."""
    return ViewArc(cam.name, yaw_center(cam), horizontal_fov(cam) / 2.0)


def overlap_arc(a: ViewArc, b: ViewArc) -> tuple[float, tuple[float, float]] | None:
    """Intersect two viewing arcs on the circle.

    Returns ``(overlap_degrees, (start, end))`` or ``None`` when the arcs are
    disjoint. Neither arc is wider than a semicircle, so they meet in at
    most one region, found in ``a``'s frame with ``b`` at its nearest turn.
    """
    delta = normalize_deg(b.center - a.center)
    lo = max(-a.half_width, delta - b.half_width)
    hi = min(a.half_width, delta + b.half_width)
    if hi <= lo:
        return None
    width = hi - lo
    start = normalize_deg(a.center + lo)
    return width, (start, start + width)


def build_overlap_graph(cameras: Iterable[CameraModel],
                        min_overlap: float = 1.0) -> OverlapGraph:
    """Build the overlap graph of a rig from camera calibrations.

    Args:
        cameras: any number of cameras with distinct names; fewer than two
            give a graph with no pairs.
        min_overlap: minimum shared degrees for a pair to become an edge;
            must be nonnegative and finite. The 1 degree default, which
            synthetic ground truth uses, drops numerically tangent pairs.

    Pairs are ordered lexicographically, both within each pair and across
    the list.
    """
    check_threshold(min_overlap, "min_overlap")
    cams = sorted(cameras, key=lambda c: c.name)
    names = [c.name for c in cams]
    if len(set(names)) != len(names):
        raise ValueError("camera names must be unique")
    arcs = [view_arc(c) for c in cams]
    pairs = []
    for arc_a, arc_b in combinations(arcs, 2):
        hit = overlap_arc(arc_a, arc_b)
        if hit is None:
            continue
        degrees, arc = hit
        if degrees >= min_overlap:
            pairs.append(OverlapPair(arc_a.camera, arc_b.camera, degrees, arc))
    return OverlapGraph(tuple(pairs))


def preset_nuscenes() -> OverlapGraph:
    """Fixed overlap graph of the standard six-camera surround rig.

    Optical axes at 0, +-55, +-110 and 180 degrees; 70 degree horizontal
    field of view everywhere except the 110 degree rear camera. Front and
    side pairs share 15 degrees, the rear pairs 20.
    """
    pairs = (
        OverlapPair("CAM_BACK", "CAM_BACK_LEFT", 20.0, (125.0, 145.0)),
        OverlapPair("CAM_BACK", "CAM_BACK_RIGHT", 20.0, (-145.0, -125.0)),
        OverlapPair("CAM_BACK_LEFT", "CAM_FRONT_LEFT", 15.0, (75.0, 90.0)),
        OverlapPair("CAM_BACK_RIGHT", "CAM_FRONT_RIGHT", 15.0, (-90.0, -75.0)),
        OverlapPair("CAM_FRONT", "CAM_FRONT_LEFT", 15.0, (20.0, 35.0)),
        OverlapPair("CAM_FRONT", "CAM_FRONT_RIGHT", 15.0, (-35.0, -20.0)),
    )
    return OverlapGraph(pairs)
