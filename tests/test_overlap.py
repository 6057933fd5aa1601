import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from redkit.geometry import horizontal_fov, normalize_deg
from redkit.overlap import (
    OverlapGraph,
    ViewArc,
    build_overlap_graph,
    overlap_arc,
    preset_nuscenes,
    view_arc,
)
from redkit.synth import camera_at_yaw, nuscenes_like_cameras

NUSCENES_PAIRS = {
    ("CAM_FRONT", "CAM_FRONT_LEFT"): (15.0, (20.0, 35.0)),
    ("CAM_FRONT", "CAM_FRONT_RIGHT"): (15.0, (-35.0, -20.0)),
    ("CAM_BACK", "CAM_BACK_LEFT"): (20.0, (125.0, 145.0)),
    ("CAM_BACK", "CAM_BACK_RIGHT"): (20.0, (-145.0, -125.0)),
    ("CAM_BACK_LEFT", "CAM_FRONT_LEFT"): (15.0, (75.0, 90.0)),
    ("CAM_BACK_RIGHT", "CAM_FRONT_RIGHT"): (15.0, (-90.0, -75.0)),
}


def test_view_arc_matches_camera_intrinsics():
    cam = camera_at_yaw("CAM_LEFT", 110.0, 70.0)
    arc = view_arc(cam)
    assert arc.camera == "CAM_LEFT"
    assert arc.center == pytest.approx(110.0, abs=1e-9)
    assert arc.half_width == pytest.approx(35.0, abs=1e-9)
    assert arc.half_width == pytest.approx(horizontal_fov(cam) / 2.0, abs=1e-12)


def test_overlap_front_pair():
    a = ViewArc("A", 0.0, 35.0)
    b = ViewArc("B", 55.0, 35.0)
    degrees, (start, end) = overlap_arc(a, b)
    assert degrees == pytest.approx(15.0, abs=1e-9)
    assert (start, end) == pytest.approx((20.0, 35.0), abs=1e-9)


def test_overlap_opposite_cameras_absent():
    assert overlap_arc(ViewArc("A", 0.0, 35.0), ViewArc("B", -180.0, 35.0)) is None


def test_overlap_across_wraparound():
    # unwrapped: [155, 185] meets [175, 205] over [175, 185]
    a = ViewArc("A", 170.0, 15.0)
    b = ViewArc("B", -170.0, 15.0)
    degrees, (start, end) = overlap_arc(a, b)
    assert degrees == pytest.approx(10.0, abs=1e-9)
    assert (start, end) == pytest.approx((175.0, 185.0), abs=1e-9)


def test_overlap_symmetric_in_arguments():
    a = ViewArc("A", 10.0, 40.0)
    b = ViewArc("B", 60.0, 30.0)
    assert overlap_arc(a, b)[0] == pytest.approx(overlap_arc(b, a)[0], abs=1e-12)


centers = st.floats(-180.0, 179.999)
half_widths = st.floats(1.0, 90.0)


@given(centers, half_widths, centers, half_widths)
def test_overlap_bounded_by_narrower_arc(c1, w1, c2, w2):
    fwd = overlap_arc(ViewArc("A", c1, w1), ViewArc("B", c2, w2))
    rev = overlap_arc(ViewArc("B", c2, w2), ViewArc("A", c1, w1))
    if fwd is None:
        assert rev is None
        return
    assert fwd[0] == pytest.approx(rev[0], abs=1e-9)
    assert fwd[0] <= min(2 * w1, 2 * w2) + 1e-9


def three_shift_overlap(a, b):
    """The widest of the three one-turn shifts of ``b`` against ``a``: the
    intersection that arcs wider than a semicircle would need."""
    delta = normalize_deg(b.center - a.center)
    candidates = []
    for shift in (delta - 360.0, delta, delta + 360.0):
        lo = max(-a.half_width, shift - b.half_width)
        hi = min(a.half_width, shift + b.half_width)
        if hi > lo:
            candidates.append((hi - lo, lo, hi))
    if not candidates:
        return None
    width, lo, _ = max(candidates)
    start = normalize_deg(a.center + lo)
    return width, (start, start + width)


SEAM = math.nextafter(180.0, 0.0)
seam_centers = st.sampled_from(
    [-180.0, math.nextafter(-180.0, 0.0), -SEAM, SEAM, 0.0, 90.0, -90.0])
any_half_width = st.one_of(
    st.sampled_from([90.0, math.nextafter(90.0, 0.0), 1e-300, 45.0]),
    st.floats(0.0, 90.0, exclude_min=True),
)


@given(st.one_of(centers, seam_centers), any_half_width,
       st.one_of(centers, seam_centers), any_half_width)
@example(-180.0, 90.0, SEAM, 90.0)
@example(0.0, 90.0, -180.0, 90.0)
@example(SEAM, 1e-300, -180.0, 1e-300)
def test_overlap_matches_three_shift_reference(c1, w1, c2, w2):
    # half widths of at most 90 meet once, so the unshifted interval is the
    # whole answer, float for float
    a, b = ViewArc("A", c1, w1), ViewArc("B", c2, w2)
    assert overlap_arc(a, b) == three_shift_overlap(a, b)
    assert overlap_arc(b, a) == three_shift_overlap(b, a)


def test_graph_pair_count_bound_and_monotone_filtering():
    cams = nuscenes_like_cameras()
    n = len(cams)
    loose = build_overlap_graph(cams, min_overlap=0.0)
    assert len(loose.pairs) <= n * (n - 1) // 2
    previous = len(loose.pairs)
    for threshold in (1.0, 10.0, 16.0, 25.0):
        count = len(build_overlap_graph(cams, min_overlap=threshold).pairs)
        assert count <= previous
        previous = count


def test_identical_cameras_overlap_fully():
    cams = [camera_at_yaw("A", 0.0, 70.0), camera_at_yaw("B", 0.0, 70.0)]
    graph = build_overlap_graph(cams)
    assert len(graph.pairs) == 1
    pair = graph.pairs[0]
    fov = horizontal_fov(cams[0])
    assert pair.overlap_degrees == pytest.approx(fov, abs=1e-9)


def test_high_threshold_empties_nuscenes_ring():
    graph = build_overlap_graph(nuscenes_like_cameras(), min_overlap=25.0)
    assert graph.pairs == ()


def test_preset_nuscenes_pairs():
    graph = preset_nuscenes()
    assert len(graph.pairs) == 6
    seen = {}
    for pair in graph.pairs:
        key = tuple(sorted((pair.camera_a, pair.camera_b)))
        seen[key] = (pair.overlap_degrees, pair.arc)
    assert set(seen) == set(NUSCENES_PAIRS)
    for key, (degrees, arc) in NUSCENES_PAIRS.items():
        got_degrees, got_arc = seen[key]
        assert got_degrees == pytest.approx(degrees, abs=1e-9)
        assert got_arc == pytest.approx(arc, abs=1e-9)
    angles = sorted(round(pair.overlap_degrees, 6) for pair in graph.pairs)
    assert angles == [15.0, 15.0, 15.0, 15.0, 20.0, 20.0]


def test_calibration_ring_reproduces_preset():
    derived = build_overlap_graph(nuscenes_like_cameras())
    preset = {tuple(sorted((p.camera_a, p.camera_b))): p for p in preset_nuscenes().pairs}
    got = {tuple(sorted((p.camera_a, p.camera_b))): p for p in derived.pairs}
    assert set(got) == set(preset)
    for key in preset:
        assert got[key].overlap_degrees == pytest.approx(
            preset[key].overlap_degrees, abs=1e-6
        )


def test_graph_adjacency_is_symmetric():
    graph = preset_nuscenes()
    for cam, peers in graph.adjacency.items():
        for peer in peers:
            assert cam in graph.adjacency[peer]
    assert graph.adjacency["CAM_FRONT"] == frozenset({"CAM_FRONT_LEFT", "CAM_FRONT_RIGHT"})


@pytest.mark.parametrize("min_overlap", [-1.0, math.nan])
def test_graph_rejects_negative_or_nan_min_overlap(min_overlap):
    # NaN fails every comparison, so it would make every pair a non-edge
    with pytest.raises(ValueError, match="min_overlap must be nonnegative"):
        build_overlap_graph(nuscenes_like_cameras(), min_overlap=min_overlap)


def test_small_rigs_have_empty_graphs_and_names_must_be_unique():
    assert build_overlap_graph([]) == OverlapGraph(())
    assert build_overlap_graph([camera_at_yaw("A", 0.0)]) == OverlapGraph(())
    with pytest.raises(ValueError):
        build_overlap_graph([camera_at_yaw("A", 0.0), camera_at_yaw("A", 10.0)])


def test_view_arc_validation():
    assert ViewArc("A", 0.0, 90.0).half_width == 90.0
    with pytest.raises(ValueError):
        ViewArc("A", 0.0, 0.0)
    with pytest.raises(ValueError, match=r"half width must be in \(0, 90\]"):
        ViewArc("A", 0.0, math.nextafter(90.0, 180.0))
    with pytest.raises(ValueError):
        ViewArc("A", 0.0, 180.0)
    with pytest.raises(ValueError):
        ViewArc("A", 250.0, 35.0)
