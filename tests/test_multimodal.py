"""Cross-sensor matching, redundancy ratio, distance pruning, and the t-test.

Ratios and sweeps are checked against ``synth.brute_force_rr``, which shares
no matching code with ``match_frame``. The Welch reference triple is frozen
from hand computation of the Welch formulas plus an independent CDF oracle;
scipy cross-checks it at runtime.
"""

import math

import pytest
import scipy.stats
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import redkit.multimodal
from redkit.geometry import Box3D, Cuboid3D, centroid_distance, iou3d
from redkit.multimodal import distance_ttest, match_frame, pooled_sweep, welch_t_test
from redkit.synth import SynthParams, brute_force_rr, generate_scene


def cube(x, y=0.0, z=0.0, size=(1.0, 1.0, 1.0)):
    return Cuboid3D((x, y, z), size, 0.0)


def scored(x, y=0.0, z=0.0, size=(1.0, 1.0, 1.0)):
    return Box3D((x, y, z), size, 0.0, score=0.9)


# ---------------------------------------------------------------- ratios


def rr(base, lidar, theta):
    return match_frame(base, lidar, theta).rr


def sweep(base, lidar, theta, thresholds):
    return pooled_sweep([match_frame(base, lidar, theta)], thresholds)


def kept_at(lidar, t):
    """The LiDAR boxes that survive distance pruning at ``t``."""
    return [l for l in lidar if centroid_distance(l) >= t]


def test_rr_identity():
    boxes = [cube(0.0), cube(5.0)]
    assert rr(boxes, boxes, theta=0.5) == 1.0


def test_rr_empty_lidar():
    assert rr([cube(0.0)], [], theta=0.5) == 0.0


def test_rr_two_thirds():
    base = [cube(0.0), cube(10.0), cube(20.0)]
    lidar = [cube(0.0), cube(10.0)]
    assert rr(base, lidar, theta=0.5) == pytest.approx(2 / 3, abs=1e-12)


def test_rr_empty_base_rejected():
    with pytest.raises(ValueError):
        rr([], [cube(0.0)], theta=0.5)


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.0001, math.nan])
def test_rr_rejects_bad_theta(theta):
    with pytest.raises(ValueError):
        match_frame([cube(0.0)], [cube(0.0)], theta=theta)


def test_rr_counts_existence_not_assignment():
    # two base boxes both covered by the same lidar box still both count
    base = [cube(0.0, size=(1.0, 1.0, 1.0)), cube(0.2, size=(1.0, 1.0, 1.0))]
    lidar = [cube(0.1, size=(1.4, 1.0, 1.0))]
    assert rr(base, lidar, theta=0.5) == 1.0


# --------------------------------------------------------- distance pruning


def test_distance_prune_zero_keeps_all():
    boxes = [scored(2.0), scored(7.0), scored(12.0)]
    [row] = sweep(boxes, boxes, 0.5, [0.0])
    assert (row.pruned_count, row.lost_ratio) == (0, 0.0)


def test_distance_prune_drops_near_boxes():
    # only the box at 2 m is pruned, so only its base twin loses its match
    boxes = [scored(2.0), scored(7.0), scored(12.0)]
    match = match_frame(boxes, boxes, 0.5)
    assert match.reach == (2.0, 7.0, 12.0)
    [row] = pooled_sweep([match], [5.0])
    assert row.pruned_count == 1
    assert row.lost_ratio == pytest.approx(1 / 3, abs=1e-12)


def test_distance_prune_huge_threshold_empties():
    boxes = [scored(2.0), scored(7.0)]
    [row] = sweep(boxes, boxes, 0.5, [1e12])
    assert (row.pruned_count, row.lost_ratio) == (2, 1.0)


def test_distance_prune_rejects_negative_threshold():
    with pytest.raises(ValueError, match="t_dist must be nonnegative"):
        sweep([scored(2.0)], [scored(2.0)], 0.5, [-1.0])


def test_distance_prune_boundary_is_inclusive():
    # a box exactly at the threshold distance survives (rule is d >= t)
    [row] = sweep([scored(5.0)], [scored(5.0)], 0.5, [5.0])
    assert (row.pruned_count, row.lost_ratio) == (0, 0.0)


# -------------------------------------------------------------- lost ratio


def test_lost_ratio_identity():
    base = [cube(0.0), cube(9.0)]
    assert sweep(base, base, 0.5, [0.0])[0].lost_ratio == 0.0


def test_lost_ratio_total_loss():
    assert sweep([cube(0.0)], [], 0.5, [0.0])[0].lost_ratio == 1.0


def test_lost_ratio_quarter():
    base = [cube(0.0), cube(10.0), cube(20.0), cube(30.0)]
    pruned = base[:3]
    assert sweep(base, pruned, 0.5, [0.0])[0].lost_ratio == pytest.approx(
        0.25, abs=1e-12)


def test_lost_ratio_complements_rr_on_unpruned_input():
    ds, _ = generate_scene(
        SynthParams(seed=17, n_objects=12, n_frames=4, drop_rate=0.4, detection_noise=0.2)
    )
    for frame in ds.scenes[0].frames:
        base = frame.detection_sets["fusion_baseline"]
        lidar = frame.detection_sets["lidar_only"]
        if not base:
            continue
        match = match_frame(base, lidar, theta=0.5)
        lost = pooled_sweep([match], [0.0])[0].lost_ratio
        assert match.rr == brute_force_rr(base, lidar, 0.5)
        assert abs(lost - (1.0 - match.rr)) < 1e-12


# ------------------------------------------------------------------ sweeps


def test_sweep_distance_monotone_and_bruteforceable():
    base = [cube(2.0), cube(7.0), cube(12.0), cube(18.0)]
    lidar = [scored(2.0), scored(7.0), scored(12.0), scored(18.0)]
    thresholds = [0.0, 5.0, 10.0, 15.0, 25.0]
    rows = sweep(base, lidar, theta=0.5, thresholds=thresholds)
    assert [r.t_dist for r in rows] == thresholds
    for earlier, later in zip(rows, rows[1:]):
        assert later.pruned_count >= earlier.pruned_count
        assert later.lost_ratio >= earlier.lost_ratio - 1e-12
    for row in rows:
        kept = kept_at(lidar, row.t_dist)
        assert row.pruned_count == len(lidar) - len(kept)
        want_lost = 1.0 - brute_force_rr(base, kept, 0.5)
        assert row.lost_ratio == pytest.approx(want_lost, abs=1e-12)


def test_sweep_distance_known_counts():
    base = [cube(2.0), cube(7.0), cube(12.0)]
    lidar = [scored(2.0), scored(7.0), scored(12.0)]
    rows = sweep(base, lidar, theta=0.5, thresholds=[0.0, 5.0, 10.0])
    assert [r.pruned_count for r in rows] == [0, 1, 2]
    assert [r.lost_ratio for r in rows] == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-12)


def test_sweep_rejects_nan_and_empty_thresholds():
    base = [cube(2.0)]
    lidar = [scored(2.0)]
    for thresholds in ([], [0.0, math.nan], [-1.0], [0.0, math.inf]):
        with pytest.raises(ValueError):
            sweep(base, lidar, theta=0.5, thresholds=thresholds)


def reach_lost(match, t):
    kept = sum(1 for r in match.reach if r is not None and r >= t)
    return 1.0 - kept / len(match.reach)


def test_reach_gives_lost_ratio_of_distance_pruned_set():
    ds, _ = generate_scene(
        SynthParams(seed=23, n_objects=14, n_frames=3, drop_rate=0.3, detection_noise=0.2)
    )
    for frame in ds.scenes[0].frames:
        base = frame.detection_sets["fusion_baseline"]
        lidar = frame.detection_sets["lidar_only"]
        match = match_frame(base, lidar, theta=0.3)
        assert match.distances == tuple(centroid_distance(l) for l in lidar)
        assert match.rr == brute_force_rr(base, lidar, 0.3)
        # every LiDAR distance is a threshold, so boxes sit exactly on one
        for t in [0.0, 1e9] + sorted(match.distances):
            want = 1.0 - brute_force_rr(base, kept_at(lidar, t), 0.3)
            assert reach_lost(match, t) == want
            assert pooled_sweep([match], [t])[0].lost_ratio == want


def test_reach_is_farthest_match_despite_nan_distances():
    # the long base box matches the LiDAR boxes at 2 and 12 m; a box with a
    # NaN centre must not disturb the farthest-first order
    base = [cube(7.0, size=(11.0, 1.0, 1.0))]
    lidar = [scored(2.0), scored(math.nan), scored(12.0), scored(30.0)]
    match = match_frame(base, lidar, theta=0.05)
    assert match.reach == (12.0,)
    for t in (0.0, 10.0, 12.0, 13.0):
        assert reach_lost(match, t) == 1.0 - brute_force_rr(
            base, kept_at(lidar, t), 0.05)


# ------------------------------------------------ bounding-circle screen


def plain_reach(base, lidar, theta):
    """Reach per base box from an unscreened farthest-first loop."""
    dist = [centroid_distance(l) for l in lidar]
    order = sorted(range(len(lidar)), key=lambda i: (math.isnan(dist[i]), -dist[i]))
    return tuple(
        next((dist[i] for i in order if iou3d(b, lidar[i]) >= theta), None)
        for b in base
    )


def check_screen(base, lidar, theta):
    match = match_frame(base, lidar, theta)
    assert match.reach == plain_reach(base, lidar, theta)
    assert match.rr == brute_force_rr(base, lidar, theta)


@st.composite
def near_pairs(draw):
    """Two boxes whose footprints touch at a corner or an edge, nearly touch
    or just overlap (gaps down to the rounding of their coordinates),
    coincide, or lie at random nearby; centres 0 or 1e6 to 1e8 m out."""
    sizes = st.floats(0.05, 5.0)
    angles = st.floats(-math.pi, math.pi)
    offset = draw(st.one_of(st.just(0.0), st.floats(1e6, 1e8)))
    bearing = draw(angles)
    ax, ay = offset * math.cos(bearing), offset * math.sin(bearing)
    la, wa, lb, wb, h = (draw(sizes) for _ in range(5))
    phi = draw(angles)  # direction from the first centre to the second
    ulps = draw(st.floats(-16.0, 16.0)) * 2.3e-16 * (offset + 10.0)
    gap = draw(st.one_of(st.just(ulps), st.floats(-1e-3, 1e-3)))
    kind = draw(st.sampled_from(["corner", "edge", "same", "loose"]))
    shift = 0.0
    if kind == "corner":
        # both diagonals on the centre line, corners facing each other
        ya = phi - math.atan2(wa, la)
        yb = phi + math.pi - math.atan2(wb, lb)
        d = 0.5 * math.hypot(la, wa) + 0.5 * math.hypot(lb, wb) + gap
    elif kind == "edge":
        ya = yb = phi
        d = 0.5 * (la + lb) + gap
        shift = draw(st.floats(-1.0, 1.0)) * 0.5 * (wa + wb)
    elif kind == "same":
        ya = yb = draw(angles)
        la, wa, d = lb, wb, 0.0
    else:
        ya, yb = draw(angles), draw(angles)
        d = draw(st.floats(0.0, 10.0))
    bx = ax + d * math.cos(phi) - shift * math.sin(phi)
    by = ay + d * math.sin(phi) + shift * math.cos(phi)
    return (Cuboid3D((ax, ay, 0.0), (la, wa, h), ya),
            Cuboid3D((bx, by, 0.0), (lb, wb, h), yb))


thetas = st.one_of(st.just(5e-324), st.just(1.0), st.floats(5e-324, 1.0))


@settings(max_examples=300, deadline=None)
@given(near_pairs(), thetas)
# corners a few ulps apart: rounding lets the clip see a sliver of overlap,
# so a screen whose margin ignores the centre coordinates drops these pairs
@example((Cuboid3D((11639121.81880277, 14162969.214394506, 0.0),
                   (3.635099841154197, 1.4746868699067255, 1.0), -1.3850105457587922),
          Cuboid3D((11639124.202154094, 14162965.505667081, 0.0),
                   (4.893369592298933, 0.08998234842812086, 1.0), 2.1235887687736463)),
         5e-324)
@example((Cuboid3D((-85154079.61503883, 98321962.2042058, 0.0),
                   (3.1524799573879356, 3.095816474700072, 1.0), -3.4537105508256856),
          Cuboid3D((-85154082.24471135, 98321960.88751417, 0.0),
                   (0.628648463375266, 1.3214835154031421, 1.0), -0.6625535490643053)),
         5e-324)
def test_screen_keeps_every_pair_the_clip_can_see(pair, theta):
    a, b = pair
    for base, lidar in (([a], [b]), ([b], [a]), ([a, b], [b, a])):
        check_screen(base, lidar, theta)


@pytest.fixture
def iou3d_calls(monkeypatch):
    """Pairs passed to ``iou3d`` by the matching code, in call order."""
    calls = []

    def counting_iou3d(a, b):
        calls.append((a, b))
        return iou3d(a, b)

    monkeypatch.setattr(redkit.multimodal, "iou3d", counting_iou3d)
    return calls


def test_screen_passes_nan_centres_to_the_clip(iou3d_calls):
    # far_box alone is screened out; any pair with a NaN centre is not
    nan_box = scored(math.nan, 0.0)
    far_box = scored(100.0)
    origin = cube(0.0)
    for base, lidar, clipped in (([origin], [nan_box, far_box], (origin, nan_box)),
                                 ([nan_box], [far_box], (nan_box, far_box))):
        for theta in (5e-324, 0.5):
            iou3d_calls.clear()
            check_screen(base, lidar, theta)
            assert iou3d_calls == [clipped]


def test_screen_agrees_with_brute_force_on_synth_frames():
    ds, _ = generate_scene(
        SynthParams(seed=31, n_objects=30, n_frames=3, drop_rate=0.3,
                    detection_noise=0.2)
    )
    for frame in ds.scenes[0].frames:
        base = frame.detection_sets["fusion_baseline"]
        lidar = frame.detection_sets["lidar_only"]
        for theta in (5e-324, 0.1, 0.5, 1.0):
            check_screen(base, lidar, theta)


def test_screen_limits_iou3d_calls(iou3d_calls):
    # the far-apart pairs never reach the exact clip
    ds, _ = generate_scene(
        SynthParams(seed=5, n_objects=30, n_frames=2, drop_rate=0.3,
                    detection_noise=0.2)
    )
    n_base = 0
    for frame in ds.scenes[0].frames:
        base = frame.detection_sets["fusion_baseline"]
        n_base += len(base)
        match_frame(base, frame.detection_sets["lidar_only"], theta=0.5)
    assert n_base > 0
    assert 0 < len(iou3d_calls) <= 2 * n_base


def screened_pairs(base, lidar, theta):
    """The pairs that reach ``iou3d``, in order, when each base box first
    lists the LiDAR boxes (farthest first) whose bounding circles its own
    may touch, then clips them in that order up to its first hit."""
    dist = [centroid_distance(l) for l in lidar]
    order = sorted(range(len(lidar)), key=lambda i: (math.isnan(dist[i]), -dist[i]))
    circles = redkit.multimodal._bounding_circles([lidar[i] for i in order])
    pairs = []
    for b, (x, y, r) in zip(base, redkit.multimodal._bounding_circles(base)):
        near = []
        for k, (cx, cy, cr) in enumerate(circles):
            dx = x - cx
            dy = y - cy
            s = r + cr
            if not dx * dx + dy * dy > s * s:
                near.append(k)
        for k in near:
            pairs.append((b, lidar[order[k]]))
            if iou3d(b, lidar[order[k]]) >= theta:
                break
    return pairs


def check_pairs(calls, base, lidar, theta):
    calls.clear()
    match_frame(base, lidar, theta)
    want = screened_pairs(base, lidar, theta)
    assert len(calls) == len(want)
    assert all(a is c and b is d for (a, b), (c, d) in zip(calls, want))


def test_screen_clips_the_listed_pairs_in_order(iou3d_calls):
    for seed in (5, 31):
        ds, _ = generate_scene(
            SynthParams(seed=seed, n_objects=30, n_frames=2, drop_rate=0.3,
                        detection_noise=0.2)
        )
        for frame in ds.scenes[0].frames:
            for theta in (5e-324, 0.1, 0.5, 1.0):
                check_pairs(iou3d_calls, frame.detection_sets["fusion_baseline"],
                            frame.detection_sets["lidar_only"], theta)
    nan_box = scored(math.nan, 0.0)
    check_pairs(iou3d_calls, [cube(0.0), nan_box],
                [scored(100.0), nan_box, cube(0.0), scored(0.5)], 0.5)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(near_pairs(), thetas)
def test_screen_clips_near_pairs_in_order(iou3d_calls, pair, theta):
    a, b = pair
    for base, lidar in (([a], [b]), ([a, b], [b, a]), ([b, a], [a, b, a])):
        check_pairs(iou3d_calls, base, lidar, theta)


# ------------------------------------------------------------------ t-test


def test_welch_identical_samples():
    t, df, p = welch_t_test([5.0, 6.0, 7.0], [5.0, 6.0, 7.0])
    assert t == 0.0
    assert p == pytest.approx(1.0, abs=1e-12)


def test_welch_frozen_example():
    t, df, p = welch_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert t == pytest.approx(-1.224745, abs=1e-5)
    assert df == pytest.approx(4.0, abs=1e-9)
    assert p == pytest.approx(0.288, abs=5e-3)
    # tighter frozen values, from an independent CDF evaluation
    assert t == pytest.approx(-1.224744871391589, abs=1e-14)
    assert p == pytest.approx(0.2878641347266906, abs=1e-10)


def test_welch_agrees_with_scipy():
    a = [0.3, 1.9, 2.2, 4.8, 5.1]
    b = [2.0, 2.1, 6.3, 6.4, 9.9, 12.0]
    t, df, p = welch_t_test(a, b)
    ref = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert t == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_welch_rejects_degenerate_input():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        welch_t_test([4.0, 4.0], [7.0, 7.0])


samples = st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=12)


@given(samples, samples)
def test_welch_antisymmetric(a, b):
    spread = lambda xs: max(xs) - min(xs)
    if spread(a) < 1e-6 and spread(b) < 1e-6:
        return
    t_ab, df_ab, p_ab = welch_t_test(a, b)
    t_ba, df_ba, p_ba = welch_t_test(b, a)
    assert t_ab == pytest.approx(-t_ba, abs=1e-9)
    assert df_ab == pytest.approx(df_ba, abs=1e-9)
    assert p_ab == pytest.approx(p_ba, abs=1e-9)
    assert 0.0 <= p_ab <= 1.0


def test_distance_ttest_splits_frames_by_rr():
    near = [cube(2.0), cube(3.0)]
    far = [cube(20.0), cube(24.0)]
    result = distance_ttest([far, near], [1.0, 0.0])
    assert result["split"] == 0.5
    assert result["split_rule"] == "median"
    assert (result["n_high"], result["n_low"]) == (2, 2)
    t, df, p = welch_t_test([20.0, 24.0], [2.0, 3.0])
    assert (result["t"], result["df"], result["p"]) == (t, df, p)
    assert result["status"] == "ok"
    # every frame is high at split 0, so the low group is empty
    skipped = distance_ttest([far, near], [1.0, 0.0], split=0.0)
    assert (skipped["split_rule"], skipped["n_low"]) == ("value", 0)
    assert skipped["status"] == "skipped"
    with pytest.raises(ValueError):
        distance_ttest([far], [1.0], split=math.nan)
