"""Metric-math oracles: projection, BCS, IoU, distances, angle/column maps.

Expected values that are not forced by symmetry were computed by hand or
with a calculator and are frozen here as literals.
"""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from redkit.geometry import (
    NEAR_PLANE_M,
    Box2D,
    Box3D,
    CameraModel,
    Cuboid3D,
    angle_to_column,
    bcs,
    centroid_distance,
    cuboid_corners,
    frustum_screen,
    horizontal_fov,
    iou3d,
    normalize_deg,
    project_cuboid,
    quat_about_z,
    quat_mul,
    quat_to_matrix,
    yaw_center,
)
from redkit.synth import FORWARD_CAMERA_ROTATION, camera_at_yaw, reference_iou3d


def make_front_camera(fx=1000.0, cx=800.0, cy=450.0, width=1600, height=900):
    return CameraModel(
        name="CAM_FRONT",
        fx=fx,
        fy=fx,
        cx=cx,
        cy=cy,
        width=width,
        height=height,
        rotation=FORWARD_CAMERA_ROTATION,
        translation=(0.0, 0.0, 0.0),
    )


# --------------------------------------------------------------------- quats


def test_quat_about_z_rotates_x_to_y():
    mat = quat_to_matrix(quat_about_z(90.0))
    rotated = [sum(mat[r][c] * v for c, v in enumerate((1.0, 0.0, 0.0))) for r in range(3)]
    assert rotated == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


def test_forward_rotation_maps_camera_axes():
    # camera z (forward) -> ego x, camera x (right) -> ego -y, camera y (down) -> ego -z
    mat = quat_to_matrix(FORWARD_CAMERA_ROTATION)
    col = lambda c: (mat[0][c], mat[1][c], mat[2][c])
    assert col(2) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert col(0) == pytest.approx((0.0, -1.0, 0.0), abs=1e-12)
    assert col(1) == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)


def test_quat_mul_composes_rotations():
    q = quat_mul(quat_about_z(30.0), quat_about_z(60.0))
    mat = quat_to_matrix(q)
    ref = quat_to_matrix(quat_about_z(90.0))
    for r in range(3):
        assert mat[r] == pytest.approx(ref[r], abs=1e-12)


@pytest.mark.parametrize(
    "deg,expected",
    [(185.0, -175.0), (-180.0, -180.0), (180.0, -180.0), (360.0, 0.0), (0.0, 0.0), (-541.0, 179.0)],
)
def test_normalize_deg(deg, expected):
    assert normalize_deg(deg) == pytest.approx(expected, abs=1e-9)


# ------------------------------------------------------------------- corners


def corner_set(corners, places=9):
    return {tuple(round(v, places) for v in c) for c in corners}


def test_unit_cube_corners():
    got = corner_set(cuboid_corners(Cuboid3D((0, 0, 0), (1, 1, 1), 0.0)))
    want = {(sx / 2, sy / 2, sz / 2) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
    assert got == want


def test_unit_cube_corners_quarter_turn_invariant():
    a = corner_set(cuboid_corners(Cuboid3D((0, 0, 0), (1, 1, 1), 0.0)))
    b = corner_set(cuboid_corners(Cuboid3D((0, 0, 0), (1, 1, 1), math.pi / 2)))
    assert a == b


def test_corners_rotated_extents():
    # size (l=4, w=2) turned a quarter turn swaps the ground extents
    corners = cuboid_corners(Cuboid3D((0, 0, 0), (4, 2, 1), math.pi / 2))
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    assert max(xs) == pytest.approx(1.0, abs=1e-12)
    assert min(xs) == pytest.approx(-1.0, abs=1e-12)
    assert max(ys) == pytest.approx(2.0, abs=1e-12)
    assert min(ys) == pytest.approx(-2.0, abs=1e-12)


@settings(max_examples=300)
@given(st.tuples(*[st.floats(-1e8, 1e8)] * 3), st.tuples(*[st.floats(0.01, 100.0)] * 3),
       st.floats(-10.0, 10.0))
def test_corners_follow_the_rotation_formula_exactly(center, size, yaw):
    # projections, IoU footprints and distances are built from these corners
    # and compared bit for bit with earlier outputs
    cx, cy, cz = center
    hl, hw, hh = (0.5 * v for v in size)
    c, s = math.cos(yaw), math.sin(yaw)
    want = tuple((cx + lx * c - wy * s, cy + lx * s + wy * c, cz + dz)
                 for dz in (-hh, hh)
                 for lx, wy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)))
    assert cuboid_corners(Cuboid3D(center, size, yaw)) == want


# ---------------------------------------------------------------- projection


def test_project_point_like_cuboid_lands_on_principal_point():
    cam = make_front_camera()
    tiny = Cuboid3D((10.0, 0.0, 0.0), (1e-9, 1e-9, 1e-9), 0.0)
    full, clipped = project_cuboid(tiny, cam)
    assert (full.x0 + full.x1) / 2 == pytest.approx(800.0, abs=1e-6)
    assert (full.y0 + full.y1) / 2 == pytest.approx(450.0, abs=1e-6)
    assert (clipped.x0, clipped.y0, clipped.x1, clipped.y1) == (full.x0, full.y0, full.x1, full.y1)


def test_project_behind_camera_is_absent():
    cam = make_front_camera()
    assert project_cuboid(Cuboid3D((-10.0, 0.0, 0.0), (1, 1, 1), 0.0), cam) is None


def test_project_partially_behind_uses_survivors():
    cam = make_front_camera()
    long_box = Cuboid3D((0.0, 0.0, 0.0), (10.0, 1.0, 1.0), 0.0)
    result = project_cuboid(long_box, cam)
    assert result is not None
    full, _ = result
    assert full.x1 > full.x0 and full.y1 > full.y0


def test_project_offscreen_object_clips_to_zero_area():
    cam = make_front_camera()
    # bearing ~40 deg is outside the 77.3 deg fov half-angle on this camera
    x = 10.0 * math.cos(math.radians(60))
    y = 10.0 * math.sin(math.radians(60))
    result = project_cuboid(Cuboid3D((x, y, 0.0), (0.1, 0.1, 0.1), 0.0), cam)
    if result is not None:
        full, clipped = result
        assert clipped.area == 0.0


# ------------------------------------------------------------ frustum screen


def check_frustum_screen(cam, cuboid):
    """The screen keeps every pair the exact projection sees."""
    keep = frustum_screen([cam], [cuboid])
    assert keep.shape == (1, 1)
    result = project_cuboid(cuboid, cam)
    if result is not None and result[1].area > 0.0:
        assert keep[0, 0]


@st.composite
def screen_cameras(draw):
    """Any orientation (backwards, sideways or rolled as well as level),
    principal points inside or outside the image, mounts up to 1e8 m out."""
    if draw(st.booleans()):
        yaw = draw(st.sampled_from([0.0, 90.0, 180.0, -90.0]))
        rotation = quat_mul(quat_about_z(yaw), FORWARD_CAMERA_ROTATION)
    else:
        q = [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
        norm = math.sqrt(sum(x * x for x in q))
        assume(norm > 0.1)
        rotation = tuple(x / norm for x in q)
    sides = st.one_of(st.integers(1, 4000), st.integers(1, 10**7))
    width, height = draw(sides), draw(sides)
    # fields of view from nearly 0 to nearly 180 degrees
    focal = st.one_of(st.floats(1.0, 1e4), st.floats(1e-3, 1e6))

    def principal(side):
        return st.one_of(st.just(0.0), st.just(float(side)),
                         st.floats(-2.0 * side, 3.0 * side))

    coordinate = st.one_of(st.just(0.0), st.floats(-50.0, 50.0),
                           st.floats(-1e8, 1e8))
    return CameraModel(
        name="CAM", fx=draw(focal), fy=draw(focal), cx=draw(principal(width)),
        cy=draw(principal(height)), width=width, height=height,
        rotation=rotation, translation=tuple(draw(coordinate) for _ in range(3)))


# camera-frame inward normals of the near plane and of the planes through
# the camera centre and the image edges u = 0, u = width, v = 0, v = height
def _plane_normals(cam):
    return ((0.0, 0.0, 1.0), (cam.fx, 0.0, cam.cx),
            (-cam.fx, 0.0, cam.width - cam.cx), (0.0, cam.fy, cam.cy),
            (0.0, -cam.fy, cam.height - cam.cy))


def _to_ego(cam, vec, origin):
    m = cam.rot_matrix
    return tuple(origin[i] + sum(m[i][k] * vec[k] for k in range(3))
                 for i in range(3))


def touching_cuboid(cam, plane, u, v, depth, r, spread, nudge):
    """A cuboid whose bounding sphere of radius ``r`` touches one of the
    camera's frustum planes (an index into :func:`_plane_normals`) from
    outside at one of its corners, that corner at pixel ``(u, v)`` and
    camera depth ``depth`` moved ``nudge`` metres to the inner side."""
    touch = _to_ego(cam, ((u - cam.cx) * depth / cam.fx,
                          (v - cam.cy) * depth / cam.fy, depth), cam.translation)
    n = _to_ego(cam, _plane_normals(cam)[plane], (0.0, 0.0, 0.0))
    norm = math.hypot(*n)
    n = tuple(c / norm for c in n)
    corner = tuple(c + nudge * d for c, d in zip(touch, n))
    # the centre-to-corner diagonal runs along n: corner 0 of the footprint
    # is local (+x, +y), so the yaw turns (hl, hw) onto n's bearing
    horizontal = max(r * math.hypot(n[0], n[1]), 1e-9 * r)
    hl, hw = horizontal * math.cos(spread), horizontal * math.sin(spread)
    hh = max(r * abs(n[2]), 1e-9 * r)
    yaw = math.atan2(n[1], n[0]) - spread
    center = (corner[0] - r * n[0], corner[1] - r * n[1],
              corner[2] - math.copysign(hh, n[2]))
    return Cuboid3D(center, (2.0 * hl, 2.0 * hw, 2.0 * hh), yaw)


@st.composite
def frustum_edge_cases(draw):
    """A camera and a cuboid touching one frustum plane at a corner nudged
    across it by up to a few ulps of its coordinates, or by up to 1 mm; the
    touching point lies 0.2 m to 1e8 m in front of the camera."""
    cam = draw(screen_cameras())
    plane = draw(st.integers(0, 4))
    depth = NEAR_PLANE_M if plane == 0 else draw(
        st.one_of(st.floats(0.2, 100.0), st.floats(1e6, 1e8)))
    u = {1: 0.0, 2: float(cam.width)}.get(plane, draw(st.floats(0.0, cam.width)))
    v = {3: 0.0, 4: float(cam.height)}.get(plane, draw(st.floats(0.0, cam.height)))
    r = draw(st.floats(1e-3, 30.0))
    scale = depth * (1.0 + abs(u - cam.cx) / cam.fx + abs(v - cam.cy) / cam.fy) \
        + sum(abs(c) for c in cam.translation) + r
    ulps = st.integers(-4, 4).map(lambda k: k * 1.1e-16 * scale)
    nudge = draw(st.one_of(st.just(0.0), ulps, st.floats(-1e-3, 1e-3)))
    return cam, touching_cuboid(cam, plane, u, v, depth, r,
                                draw(st.floats(0.1, 1.47)), nudge)


@settings(max_examples=600, deadline=None)
@given(frustum_edge_cases())
def test_frustum_screen_keeps_cuboids_touching_a_plane(case):
    check_frustum_screen(*case)


@settings(max_examples=300, deadline=None)
@given(screen_cameras(),
       st.tuples(*[st.one_of(st.floats(-200.0, 200.0), st.floats(-1e8, 1e8))] * 3),
       st.tuples(*[st.floats(1e-3, 50.0)] * 3), st.floats(-math.pi, math.pi),
       st.booleans())
def test_frustum_screen_keeps_what_the_projection_sees(cam, offset, size, yaw,
                                                       mounted):
    # centres near the camera or anywhere up to 1e8 m from it or the origin
    origin = cam.translation if mounted else (0.0, 0.0, 0.0)
    center = tuple(o + d for o, d in zip(origin, offset))
    check_frustum_screen(cam, Cuboid3D(center, size, yaw))


# rolled orientations whose rotation matrices have no zero entry, so the
# rounding of the projection and of the screen do not line up
_ROLLED = [(math.cos(i), math.sin(2 * i), math.cos(3 * i), math.sin(5 * i))
           for i in range(1, 9)]


@pytest.mark.parametrize("far", ["centre", "mount"])
def test_frustum_screen_keeps_grazing_cuboids_far_out(far):
    # a corner on a side plane to within a few ulps, 1e6 to 1e8 m in front
    # of the camera, nudged in steps under an ulp: rounding decides
    # whether the projection sees a sliver of it. The camera sits near the origin ("centre": the cuboid is far
    # out) or far out, placed so that the cuboid sits at the origin
    # ("mount"); a margin that ignores the centre or the translation drops
    # some of these.
    for q, plane, depth, r, k in itertools.product(
            _ROLLED, range(1, 5), (1e6, 1e7, 1e8), (1e-3, 1.0), range(-8, 9)):
        norm = math.sqrt(sum(c * c for c in q))
        cam = CameraModel("CAM", 1142.5, 1142.5, 800.0, 450.0, 1600, 900,
                          tuple(c / norm for c in q), (3.0, -2.0, 1.5))
        u = {1: 0.0, 2: float(cam.width)}.get(plane, 0.3 * cam.width)
        v = {3: 0.0, 4: float(cam.height)}.get(plane, 0.6 * cam.height)
        if far == "mount":
            touch = ((u - cam.cx) * depth / cam.fx, (v - cam.cy) * depth / cam.fy,
                     depth)
            cam = dataclasses.replace(cam, translation=tuple(
                -c for c in _to_ego(cam, touch, (0.0, 0.0, 0.0))))
        scale = 3.0 * depth + sum(abs(c) for c in cam.translation)
        check_frustum_screen(cam, touching_cuboid(cam, plane, u, v, depth, r,
                                                  0.7, k * 2e-17 * scale))


def test_frustum_screen_drops_only_provably_unseen_pairs():
    cam = make_front_camera()
    ahead = Cuboid3D((10.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    behind = Cuboid3D((-10.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    # 60 degrees left, outside the 77.3 degree field of view
    aside = Cuboid3D((5.0, 8.66, 0.0), (1.0, 1.0, 1.0), 0.0)
    # through both cameras' near planes: each sees one end
    straddling = Cuboid3D((0.0, 0.0, 0.0), (10.0, 1.0, 1.0), 0.0)
    unknown = Cuboid3D((math.nan, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    keep = frustum_screen([cam, camera_at_yaw("CAM_BACK", 180.0)],
                          [ahead, behind, aside, straddling, unknown])
    assert keep.tolist() == [[True, False], [False, True], [False, False],
                             [True, True], [True, True]]
    assert frustum_screen([cam], []).shape == (0, 1)
    assert frustum_screen([], [ahead]).shape == (1, 0)


# ----------------------------------------------------------------------- bcs


def test_bcs_right_edge_half_clip():
    full = Box2D(1500.0, 200.0, 1700.0, 400.0)
    clipped = full.clip(1600, 900)
    assert (clipped.x0, clipped.y0, clipped.x1, clipped.y1) == (1500.0, 200.0, 1600.0, 400.0)
    assert bcs(full, clipped) == pytest.approx(0.5, abs=1e-12)


def test_bcs_identity_is_exactly_one():
    box = Box2D(10.0, 20.0, 110.0, 70.0)
    assert bcs(box, box.clip(1600, 900)) == 1.0


def test_bcs_offscreen_is_exactly_zero():
    full = Box2D(-50.0, 10.0, -10.0, 20.0)
    assert bcs(full, full.clip(1600, 900)) == 0.0


def test_bcs_symmetric_half_clip():
    full = Box2D(-10.0, 0.0, 10.0, 10.0)
    assert bcs(full, full.clip(1600, 900)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("corners", [(100.0, 100.0, 200.0, math.nan),
                                     (math.nan, 100.0, 200.0, 150.0)])
def test_box2d_rejects_a_nan_coordinate(corners):
    # such a box used to pass Annotation's area check, and prune then ended
    # in emit_labels' bare RuntimeError
    with pytest.raises(ValueError, match="inverted or NaN box"):
        Box2D(*corners)


def test_bcs_degenerate_full_box_rejected():
    degenerate = Box2D(5.0, 5.0, 5.0, 9.0)
    with pytest.raises(ValueError):
        bcs(degenerate, degenerate)


finite_coord = st.floats(-500.0, 2000.0, allow_nan=False, allow_infinity=False)


@st.composite
def positive_area_boxes(draw):
    x0 = draw(finite_coord)
    y0 = draw(finite_coord)
    dx = draw(st.floats(0.01, 800.0))
    dy = draw(st.floats(0.01, 800.0))
    return Box2D(x0, y0, x0 + dx, y0 + dy)


@given(positive_area_boxes())
def test_bcs_bounded_property(full):
    clipped = full.clip(1600, 900)
    score = bcs(full, clipped)
    assert 0.0 <= score <= 1.0
    if clipped.area == 0.0:
        assert score == 0.0
    if (clipped.x0, clipped.y0, clipped.x1, clipped.y1) == (full.x0, full.y0, full.x1, full.y1):
        assert score == 1.0


@given(positive_area_boxes())
def test_clip_is_idempotent(box):
    once = box.clip(1600, 900)
    twice = once.clip(1600, 900)
    assert (once.x0, once.y0, once.x1, once.y1) == (twice.x0, twice.y0, twice.x1, twice.y1)


# ----------------------------------------------------------------------- iou


def test_iou3d_identity_exact():
    box = Cuboid3D((1.0, 2.0, 0.5), (4.0, 2.0, 1.5), 0.3)
    assert iou3d(box, box) == 1.0


def test_iou3d_disjoint_heights():
    a = Cuboid3D((0, 0, 0.0), (1, 1, 1), 0.0)
    b = Cuboid3D((0, 0, 5.0), (1, 1, 1), 0.0)
    assert iou3d(a, b) == 0.0


def test_iou3d_axis_aligned_third():
    a = Cuboid3D((0.0, 0.0, 0.0), (1, 1, 1), 0.0)
    b = Cuboid3D((0.5, 0.0, 0.0), (1, 1, 1), 0.0)
    assert iou3d(a, b) == pytest.approx(1 / 3, abs=1e-12)


def test_iou3d_accepts_scored_boxes():
    a = Box3D((0.0, 0.0, 0.0), (1, 1, 1), 0.0, score=0.7)
    assert iou3d(a, a) == 1.0


small_center = st.floats(-5.0, 5.0, allow_nan=False)
small_size = st.floats(0.2, 4.0)
any_yaw = st.floats(-math.pi, math.pi)


@st.composite
def cuboids(draw):
    return Cuboid3D(
        (draw(small_center), draw(small_center), draw(small_center)),
        (draw(small_size), draw(small_size), draw(small_size)),
        draw(any_yaw),
    )


def test_iou3d_near_identical_boxes_stay_at_most_one():
    # the clipped footprint of two boxes one ulp apart rounds to slightly
    # more than either footprint's own area
    a = Cuboid3D((3.0, 0.0, 0.0), (1.0, 1.0, 3.0), 1.0)
    b = Cuboid3D((3.0, 1.1102230246251565e-16, 0.0), (1.0, 1.0, 3.0), 1.0)
    assert iou3d(a, b) == 1.0
    assert iou3d(b, a) == 1.0


@given(cuboids(), cuboids())
def test_iou3d_symmetric_and_bounded(a, b):
    ab = iou3d(a, b)
    ba = iou3d(b, a)
    assert 0.0 <= ab <= 1.0
    assert ab == pytest.approx(ba, abs=1e-9)


@given(cuboids())
def test_iou3d_self_is_one(box):
    assert iou3d(box, box) == 1.0


def bits(x):
    """The IEEE double's bytes: tells -0.0 from 0.0 and one NaN from
    another."""
    return struct.pack("<d", x)


# centres near the origin or up to 1e8 m out, or NaN
any_coordinate = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e8, 1e8),
                           st.just(math.nan))
any_size = st.floats(0.01, 100.0)
# the yaws whose sines and cosines are exact zeros, ones or their roundings
special_yaw = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, math.pi]),
                        st.floats(-10.0, 10.0))


@st.composite
def cuboid_pairs(draw):
    """Two cuboids whose footprints touch along an edge, nest, coincide or
    lie at random nearby, anywhere up to 1e8 m out, some with NaN centres."""
    center = tuple(draw(any_coordinate) for _ in range(3))
    size = tuple(draw(any_size) for _ in range(3))
    yaw = draw(special_yaw)
    a = Cuboid3D(center, size, yaw)
    cx, cy, cz = center
    kind = draw(st.sampled_from(["touching", "nested", "same", "loose"]))
    if kind == "touching":
        # b's back edge on a's front edge, slid along it
        length = draw(any_size)
        d = 0.5 * (size[0] + length)
        shift = draw(st.floats(-1.0, 1.0)) * size[1]
        c, s = math.cos(yaw), math.sin(yaw)
        b = Cuboid3D((cx + d * c - shift * s, cy + d * s + shift * c, cz),
                     (length, draw(any_size), draw(any_size)), yaw)
    elif kind == "nested":
        f = draw(st.floats(0.01, 1.0))
        b = Cuboid3D(center, tuple(f * v for v in size), yaw)
    elif kind == "same":
        b = Cuboid3D(center, size, yaw)
    else:
        offset = st.floats(-5.0, 5.0)
        b = Cuboid3D((cx + draw(offset), cy + draw(offset), cz + draw(offset)),
                     tuple(draw(any_size) for _ in range(3)), draw(special_yaw))
    return a, b


@settings(max_examples=600, deadline=None)
@given(cuboid_pairs())
def test_iou3d_is_the_reference_bit_for_bit(pair):
    # brute_force_rr, the benchmark's oracle, calls iou3d itself, so only
    # this comparison catches a rewrite of the clip that moves a bit
    a, b = pair
    assert bits(iou3d(a, b)) == bits(reference_iou3d(a, b))
    assert bits(iou3d(b, a)) == bits(reference_iou3d(b, a))


def mc_iou3d(a, b, n, rng):
    """Monte-Carlo IoU: exact analytic volumes, sampled intersection."""

    def aabb(box):
        pts = np.array(cuboid_corners(box))
        return pts.min(axis=0), pts.max(axis=0)

    lo = np.maximum(aabb(a)[0], aabb(b)[0])
    hi = np.minimum(aabb(a)[1], aabb(b)[1])
    va = a.size[0] * a.size[1] * a.size[2]
    vb = b.size[0] * b.size[1] * b.size[2]
    if np.any(hi <= lo):
        return 0.0
    pts = rng.uniform(lo, hi, size=(n, 3))

    def inside(box):
        rel = pts - np.array(box.center)
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        x = rel[:, 0] * c + rel[:, 1] * s
        y = -rel[:, 0] * s + rel[:, 1] * c
        return (
            (np.abs(x) <= box.size[0] / 2)
            & (np.abs(y) <= box.size[1] / 2)
            & (np.abs(rel[:, 2]) <= box.size[2] / 2)
        )

    vol_box = float(np.prod(hi - lo))
    vi = vol_box * float(np.mean(inside(a) & inside(b)))
    return vi / (va + vb - vi)


def test_iou3d_matches_monte_carlo_sample():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = Cuboid3D(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.5, 3, 3)), rng.uniform(-3, 3))
        b = Cuboid3D(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.5, 3, 3)), rng.uniform(-3, 3))
        assert iou3d(a, b) == pytest.approx(mc_iou3d(a, b, 200_000, rng), abs=0.02)


# ------------------------------------------------------------------ distance


def test_centroid_distance_345():
    assert centroid_distance(Cuboid3D((3.0, 4.0, 0.0), (1, 1, 1), 0.0)) == pytest.approx(5.0, abs=1e-12)


def test_centroid_distance_origin():
    assert centroid_distance(Cuboid3D((0, 0, 0), (2, 2, 2), 0.7)) == pytest.approx(0.0, abs=1e-12)


def test_centroid_distance_sqrt3():
    d = centroid_distance(Cuboid3D((1.0, 1.0, 1.0), (1, 1, 1), 0.0))
    assert d == pytest.approx(math.sqrt(3.0), abs=1e-12)


@given(cuboids())
def test_centroid_distance_is_center_norm(box):
    want = math.sqrt(sum(c * c for c in box.center))
    assert abs(centroid_distance(box) - want) < 1e-9


def corner_mean_distance(box):
    """Distance to the mean of :func:`cuboid_corners`, summed in their
    order from 0.0."""
    sx = sy = sz = 0.0
    for x, y, z in cuboid_corners(box):
        sx += x
        sy += y
        sz += z
    sx /= 8.0
    sy /= 8.0
    sz /= 8.0
    return math.sqrt(sx * sx + sy * sy + sz * sz)


@settings(max_examples=600)
@given(st.tuples(*[any_coordinate] * 3), st.tuples(*[any_size] * 3), special_yaw)
# a centre so far out that the distance overflows to inf
@example((1e200, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
def test_centroid_distance_is_the_corner_mean_bit_for_bit(center, size, yaw):
    # the distance sweep compares these distances with >=, so a cheaper
    # sum must not move a bit
    box = Cuboid3D(center, size, yaw)
    assert bits(centroid_distance(box)) == bits(corner_mean_distance(box))


# --------------------------------------------------------- fov / yaw / column


def test_horizontal_fov_frozen_value():
    cam = make_front_camera(fx=1000.0)
    assert horizontal_fov(cam) == pytest.approx(77.31961650818019, abs=1e-10)
    assert horizontal_fov(cam) == pytest.approx(77.3196, abs=1e-4)


def test_horizontal_fov_half_width_focal():
    cam = make_front_camera(fx=800.0)
    assert horizontal_fov(cam) == pytest.approx(90.0, abs=1e-9)


def test_horizontal_fov_long_focal_limit():
    cam = make_front_camera(fx=1e9)
    assert horizontal_fov(cam) < 1e-4


def test_yaw_center_cardinal_directions():
    assert yaw_center(camera_at_yaw("F", 0.0)) == pytest.approx(0.0, abs=1e-9)
    assert yaw_center(camera_at_yaw("B", 180.0)) == pytest.approx(-180.0, abs=1e-9)
    assert yaw_center(camera_at_yaw("L", 90.0)) == pytest.approx(90.0, abs=1e-9)


def test_yaw_center_vertical_axis_rejected():
    cam = CameraModel(
        name="UP", fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900,
        rotation=(1.0, 0.0, 0.0, 0.0), translation=(0, 0, 0),
    )
    with pytest.raises(ValueError):
        yaw_center(cam)


def test_angle_to_column_center():
    cam = make_front_camera()
    assert angle_to_column(0.0, cam) == 800


def test_angle_to_column_frozen_values():
    cam = make_front_camera()
    # 800 + 1000 tan(10 deg) = 976.33, 800 + 1000 tan(20 deg) = 1163.97
    assert angle_to_column(10.0, cam) == 976
    assert angle_to_column(20.0, cam) == 1164
    assert angle_to_column(35.0, cam) == 1500


def test_angle_to_column_clamps_at_boundary():
    cam = camera_at_yaw("F", 0.0, 70.0)
    half = horizontal_fov(cam) / 2.0
    assert angle_to_column(half - 1e-9, cam) == cam.width - 1
    assert angle_to_column(-(half - 1e-9), cam) == 0


def test_angle_to_column_outside_fov_rejected():
    cam = camera_at_yaw("F", 0.0, 70.0)
    half = horizontal_fov(cam) / 2.0
    with pytest.raises(ValueError):
        angle_to_column(half, cam)
    with pytest.raises(ValueError):
        angle_to_column(-half - 0.1, cam)


@given(st.floats(-38.0, 38.0), st.floats(-38.0, 38.0))
def test_angle_to_column_never_decreases(p1, p2):
    cam = make_front_camera()
    lo, hi = sorted((p1, p2))
    assert angle_to_column(lo, cam) <= angle_to_column(hi, cam)


@settings(max_examples=60)
@given(st.floats(5.0, 40.0), st.floats(0.0, 40.0))
def test_projection_shrinks_with_distance(dist, push):
    cam = make_front_camera()
    box = Cuboid3D((dist, 0.2, -0.1), (2.0, 1.5, 1.0), 0.4)
    further = Cuboid3D((dist + push, 0.2, -0.1), (2.0, 1.5, 1.0), 0.4)
    near_area = project_cuboid(box, cam)[0].area
    far_area = project_cuboid(further, cam)[0].area
    assert far_area <= near_area * (1.0 + 1e-12) + 1e-12


# ---------------------------------------------------------------- validation


def test_camera_model_rejects_bad_fields():
    good = dict(name="X", fx=1000.0, fy=1000.0, cx=800.0, cy=450.0,
                width=1600, height=900, rotation=FORWARD_CAMERA_ROTATION,
                translation=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        CameraModel(**{**good, "fx": 0.0})
    with pytest.raises(ValueError):
        CameraModel(**{**good, "width": 0})
    with pytest.raises(ValueError):
        CameraModel(**{**good, "rotation": (1.0, 1.0, 0.0, 0.0)})


def test_cuboid_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Cuboid3D((0, 0, 0), (-1.0, 2.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        Cuboid3D((0, 0, 0), (1.0, 0.0, 1.0), 0.0)


def test_box3d_rejects_bad_score():
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, 1, 1), 0.0, score=1.5)
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, 1, 1), 0.0, score=-0.1)
