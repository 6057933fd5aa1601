"""Metric geometry for multi-camera rigs.

Pinhole projection of 3D cuboids, image-boundary clipping, box completeness
scoring, 3D IoU, and viewing-angle conversions.

Coordinate conventions, fixed package-wide:

* ego frame: x forward, y left, z up (right-handed); yaw is measured about
  +z, counterclockwise, with 0 degrees straight ahead.
* camera frame: z forward along the optical axis, x right, y down.
* camera extrinsics: a unit quaternion ``(w, x, y, z)`` rotating camera-frame
  vectors into the ego frame, plus the camera origin in ego coordinates.
* angles in public interfaces are degrees; internals work in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Corners with camera-frame depth at or below this value (meters) are dropped
# before hull computation.
NEAR_PLANE_M = 0.1


def quat_mul(a: tuple[float, float, float, float],
             b: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """Hamilton product ``a * b`` of two ``(w, x, y, z)`` quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_about_z(angle_deg: float) -> tuple[float, float, float, float]:
    """Quaternion rotating by ``angle_deg`` about the ego +z (up) axis."""
    half = math.radians(angle_deg) / 2.0
    return (math.cos(half), 0.0, 0.0, math.sin(half))


def quat_to_matrix(q: tuple[float, float, float, float]
                   ) -> tuple[tuple[float, float, float], ...]:
    """Rotation matrix (row tuples) equivalent to unit quaternion ``q``."""
    w, x, y, z = q
    return (
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
    )


def normalize_deg(angle: float) -> float:
    """Map an angle in degrees into ``[-180, 180)``."""
    return (angle + 180.0) % 360.0 - 180.0


def check_threshold(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a nonnegative finite number:
    a NaN or infinite threshold is rejected, not echoed into a report."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel box with ``x0 <= x1`` and ``y0 <= y1``, which a
    NaN coordinate fails.

    A full (unclipped) box must have positive area; a box produced by
    :meth:`clip` may be degenerate (zero width or height) when the original
    lies entirely outside the image.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (self.x0 <= self.x1 and self.y0 <= self.y1):
            raise ValueError(f"inverted or NaN box: ({self.x0}, {self.y0}, {self.x1}, "
                             f"{self.y1})")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def clip(self, width: int, height: int) -> "Box2D":
        """Intersect with the image rectangle ``[0, width] x [0, height]``.

        An empty intersection collapses onto the nearest image edge and has
        zero area.
        """
        w = float(width)
        h = float(height)
        return Box2D(
            min(max(self.x0, 0.0), w),
            min(max(self.y0, 0.0), h),
            min(max(self.x1, 0.0), w),
            min(max(self.y1, 0.0), h),
        )


@dataclass(frozen=True)
class Cuboid3D:
    """Oriented box in the ego frame.

    ``size`` is ``(length, width, height)``: length runs along the local +x
    axis at yaw 0, width along local +y, height along +z. ``yaw`` is radians
    about ego +z.
    """

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float

    def __post_init__(self) -> None:
        for s in self.size:
            if s <= 0.0:
                raise ValueError(f"cuboid size must be positive, got {self.size}")


@dataclass(frozen=True)
class Box3D(Cuboid3D):
    """Detected 3D box: a cuboid plus a confidence score in ``[0, 1]``."""

    score: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be within [0, 1], got {self.score}")


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with a rigid mount in the ego frame."""

    name: str
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: tuple[float, float, float, float]
    translation: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError(f"camera {self.name!r}: focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"camera {self.name!r}: image size must be positive")
        w, x, y, z = self.rotation
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(
                f"camera {self.name!r}: rotation quaternion has norm {norm!r}, expected 1"
            )

    @cached_property
    def rot_matrix(self) -> tuple[tuple[float, float, float], ...]:
        """Camera-to-ego rotation matrix."""
        return quat_to_matrix(self.rotation)

    @cached_property
    def ego_to_cam(self) -> tuple[tuple[float, float, float], ...]:
        """Rows of the ego-to-camera rotation (transpose of :attr:`rot_matrix`)."""
        m = self.rot_matrix
        return (
            (m[0][0], m[1][0], m[2][0]),
            (m[0][1], m[1][1], m[2][1]),
            (m[0][2], m[1][2], m[2][2]),
        )


def cuboid_corners(cuboid: Cuboid3D) -> tuple[tuple[float, float, float], ...]:
    """The 8 corner vertices of a cuboid in the ego frame.

    Order: the bottom face, whose x/y are the :func:`_bev_footprint`, then
    the top face in the same x/y order. The mean of the corners is the
    center.
    """
    cz = cuboid.center[2]
    hh = 0.5 * cuboid.size[2]
    footprint = _bev_footprint(cuboid)
    return tuple([(x, y, z) for z in (cz - hh, cz + hh) for x, y in footprint])


def project_cuboid(cuboid: Cuboid3D, cam: CameraModel
                   ) -> tuple[Box2D, Box2D] | None:
    """Project a cuboid into a camera.

    Corners are transformed into the camera frame; those at or behind the
    near plane (camera z <= ``NEAR_PLANE_M``) are dropped. If no corner
    survives, the cuboid is not visible and ``None`` is returned. Otherwise
    the full box is the axis-aligned hull of the surviving pinhole
    projections (it may extend beyond the image) and the clipped box is its
    intersection with the image rectangle.

    Returns:
        ``(full, clipped)`` boxes, or ``None`` when entirely behind the
        near plane.
    """
    r0, r1, r2 = cam.ego_to_cam
    tx, ty, tz = cam.translation
    fx, fy, cx, cy = cam.fx, cam.fy, cam.cx, cam.cy
    umin = math.inf
    vmin = math.inf
    umax = -math.inf
    vmax = -math.inf
    survivors = 0
    for px, py, pz in cuboid_corners(cuboid):
        dx = px - tx
        dy = py - ty
        dz = pz - tz
        zc = r2[0] * dx + r2[1] * dy + r2[2] * dz
        if zc <= NEAR_PLANE_M:
            continue
        xc = r0[0] * dx + r0[1] * dy + r0[2] * dz
        yc = r1[0] * dx + r1[1] * dy + r1[2] * dz
        u = cx + fx * xc / zc
        v = cy + fy * yc / zc
        if u < umin:
            umin = u
        if u > umax:
            umax = u
        if v < vmin:
            vmin = v
        if v > vmax:
            vmax = v
        survivors += 1
    if survivors == 0:
        return None
    full = Box2D(umin, vmin, umax, vmax)
    return full, full.clip(cam.width, cam.height)


# Relative widening of the frustum screen's spheres and planes. The exact
# projection works on corners rounded to within a few ulps of the cuboid's
# size and centre coordinates, moves them by the camera translation and
# rotates them, so each camera-frame corner is off by a few ulps of |centre|
# + |size| + |translation|: spheres widen with the first two, planes with the
# last and their own offset, as a margin scaled with the sphere alone would
# be thinner than the rounding of corners 1e8 m out. The side tests compare
# u = cx + fx * xc / zc with 0 and the width (v likewise). A surviving corner
# has zc > NEAR_PLANE_M > 0, so u has the sign of fx * xc + cx * zc, the
# plane the screen tests, and u - width that of fx * xc + (cx - width) * zc.
# Rounding is monotone and 0, cx and the width are exact, so only the
# quotient's rounding, a few ulps of fx * xc / zc, can carry u across either
# bound; times zc over the plane's norm that is a few ulps of |xc|, inside
# the same margin. A few ulps (about 1e-15) would do; 1e-9 leaves a wide
# safety factor and still screens out all but grazing pairs.
_FRUSTUM_SLACK = 1e-9


def frustum_screen(cameras: Sequence[CameraModel], cuboids: Sequence[Cuboid3D]
                   ) -> np.ndarray:
    """Which cuboid-camera pairs may project to a visible box.

    ``keep[i, j]`` is False only when :func:`project_cuboid` of
    ``cuboids[i]`` in ``cameras[j]`` provably returns ``None`` or a box of
    zero clipped area: the cuboid's bounding sphere, widened by rounding
    slack, lies wholly at or behind the near plane, or wholly beyond one of
    the four planes through the camera centre and an image edge (u <= 0,
    u >= width, v <= 0, v >= height). A comparison involving NaN is not a
    proof, so such pairs are kept.
    """
    planes = []
    for cam in cameras:
        r0, r1, r2 = cam.ego_to_cam
        tx, ty, tz = cam.translation
        slack = _FRUSTUM_SLACK * (abs(tx) + abs(ty) + abs(tz) + NEAR_PLANE_M)
        # camera-frame normals pointing into the frustum, and offsets
        for a0, a1, a2, near in ((0.0, 0.0, 1.0, NEAR_PLANE_M),
                                 (cam.fx, 0.0, cam.cx, 0.0),
                                 (-cam.fx, 0.0, cam.width - cam.cx, 0.0),
                                 (0.0, cam.fy, cam.cy, 0.0),
                                 (0.0, -cam.fy, cam.height - cam.cy, 0.0)):
            # the same normal in the ego frame: a . ego_to_cam (p - t)
            nx = a0 * r0[0] + a1 * r1[0] + a2 * r2[0]
            ny = a0 * r0[1] + a1 * r1[1] + a2 * r2[1]
            nz = a0 * r0[2] + a1 * r1[2] + a2 * r2[2]
            norm = math.hypot(nx, ny, nz)
            planes.append((nx / norm, ny / norm, nz / norm, 1.0,
                           (-(nx * tx + ny * ty + nz * tz) - near) / norm + slack))
    spheres = []
    for c in cuboids:
        x, y, z = c.center
        r = 0.5 * math.hypot(*c.size)
        spheres.append((x, y, z, r + _FRUSTUM_SLACK * (r + abs(x) + abs(y) + abs(z)),
                        1.0))
    # how far each widened sphere reaches to the inner side of each plane:
    # (x, y, z, radius, 1) . (nx, ny, nz, 1, offset)
    depth = (np.array(spheres, dtype=np.float64).reshape(-1, 5)
             @ np.array(planes, dtype=np.float64).reshape(-1, 5).T)
    outside = depth <= 0.0
    return ~outside.reshape(len(spheres), len(cameras), 5).any(axis=2)


def bcs(full: Box2D, clipped: Box2D) -> float:
    """Box completeness score: clipped area over full area.

    1 means the box survived clipping intact, 0 means it lies entirely
    outside the image. The full box must have positive area.
    """
    area_full = full.area
    if area_full <= 0.0:
        raise ValueError("full box has zero area, completeness undefined")
    return clipped.area / area_full


def _bev_footprint(box: Cuboid3D) -> list[tuple[float, float]]:
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


def _clip_convex(subject: list[tuple[float, float]],
                 clip: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a convex CCW subject by a convex CCW polygon."""
    output = subject
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        if not output:
            return []
        ex = bx - ax
        ey = by - ay
        # interior is to the left of the directed clip edge; boundary counts.
        # Each vertex q is paired with the one before it, p, and sp and sq are
        # their signed distances to the clip edge. Where the pair straddles
        # the edge (one >= 0, one < 0), sp - sq cannot be zero even when the
        # segment runs parallel to the edge to within rounding, which the
        # direction cross product form fails on.
        px, py = output[-1]
        sp = ex * (py - ay) - ey * (px - ax)
        result: list[tuple[float, float]] = []
        for q in output:
            qx, qy = q
            sq = ex * (qy - ay) - ey * (qx - ax)
            if sq >= 0.0:
                if sp < 0.0:
                    t = sp / (sp - sq)
                    result.append((px + t * (qx - px), py + t * (qy - py)))
                result.append(q)
            elif sp >= 0.0:
                t = sp / (sp - sq)
                result.append((px + t * (qx - px), py + t * (qy - py)))
            px = qx
            py = qy
            sp = sq
        output = result
    return output


def _polygon_area(points: list[tuple[float, float]]) -> float:
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        acc += x0 * y1 - x1 * y0
    return 0.5 * abs(acc)


def iou3d(a: Cuboid3D, b: Cuboid3D) -> float:
    """Intersection over union of two yaw-rotated cuboids.

    The ground-plane intersection is computed by clipping one footprint
    polygon against the other; the intersection volume is that area times
    the vertical extent overlap. Disjoint boxes score 0; identical boxes
    score exactly 1, and rounding in the clipped polygon never lifts a
    score above 1.
    """
    za0 = a.center[2] - 0.5 * a.size[2]
    za1 = a.center[2] + 0.5 * a.size[2]
    zb0 = b.center[2] - 0.5 * b.size[2]
    zb1 = b.center[2] + 0.5 * b.size[2]
    dz = min(za1, zb1) - max(za0, zb0)
    if dz <= 0.0:
        return 0.0
    fa = _bev_footprint(a)
    fb = _bev_footprint(b)
    inter_poly = _clip_convex(fa, fb)
    if len(inter_poly) < 3:
        return 0.0
    inter_area = _polygon_area(inter_poly)
    if inter_area <= 0.0:
        return 0.0
    # volumes from the same area/extent expressions as the intersection, so
    # identical inputs cancel exactly to 1
    vol_a = _polygon_area(fa) * (za1 - za0)
    vol_b = _polygon_area(fb) * (zb1 - zb0)
    inter = inter_area * dz
    union = vol_a + vol_b - inter
    if union <= 0.0:
        return 0.0
    ratio = inter / union
    return 1.0 if ratio > 1.0 else ratio


def centroid_distance(box: Cuboid3D) -> float:
    """Euclidean distance from the ego origin to the mean of the 8 corners.

    The corners are :func:`cuboid_corners`' and are summed in its order,
    from 0.0, without building them.
    """
    cx, cy, cz = box.center[0], box.center[1], box.center[2]
    hl = 0.5 * box.size[0]
    hw = 0.5 * box.size[1]
    hh = 0.5 * box.size[2]
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    x0 = cx + hl * c - hw * s
    x1 = cx - hl * c - hw * s
    x2 = cx - hl * c + hw * s
    x3 = cx + hl * c + hw * s
    y0 = cy + hl * s + hw * c
    y1 = cy - hl * s + hw * c
    y2 = cy - hl * s - hw * c
    y3 = cy + hl * s - hw * c
    z0 = cz - hh
    z1 = cz + hh
    sx = (0.0 + x0 + x1 + x2 + x3 + x0 + x1 + x2 + x3) / 8.0
    sy = (0.0 + y0 + y1 + y2 + y3 + y0 + y1 + y2 + y3) / 8.0
    sz = (0.0 + z0 + z0 + z0 + z0 + z1 + z1 + z1 + z1) / 8.0
    return math.sqrt(sx * sx + sy * sy + sz * sz)


def horizontal_fov(cam: CameraModel) -> float:
    """Horizontal field of view in degrees: ``2 * atan(width / (2 * fx))``."""
    return math.degrees(2.0 * math.atan(cam.width / (2.0 * cam.fx)))


def yaw_center(cam: CameraModel) -> float:
    """Yaw of the optical axis in the ego frame, degrees in ``[-180, 180)``.

    The camera +z axis is mapped into the ego frame and projected onto the
    ground plane. A vertically mounted camera (ground projection shorter
    than 1e-6) has no defined yaw and raises ``ValueError``.
    """
    m = cam.rot_matrix
    ax = m[0][2]
    ay = m[1][2]
    if math.hypot(ax, ay) <= 1e-6:
        raise ValueError(f"camera {cam.name!r}: optical axis is vertical, yaw undefined")
    return normalize_deg(math.degrees(math.atan2(ay, ax)))


def angle_to_column(phi_deg: float, cam: CameraModel) -> int:
    """Pixel column of a bearing ``phi_deg`` relative to the optical axis.

    Positive angles map right of the principal point:
    ``column = cx + fx * tan(phi)``, rounded and clamped to
    ``[0, width - 1]``. The bearing must lie strictly inside the horizontal
    field of view.
    """
    if abs(phi_deg) >= horizontal_fov(cam) / 2.0:
        raise ValueError(
            f"bearing {phi_deg} deg outside the field of view of camera {cam.name!r}"
        )
    col = cam.cx + cam.fx * math.tan(math.radians(phi_deg))
    return min(max(round(col), 0), cam.width - 1)
