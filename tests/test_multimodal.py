"""Cross-sensor matching, redundancy ratio, distance pruning, and the t-test.

The Welch reference triple is frozen from hand computation of the Welch
formulas plus an independent CDF oracle; scipy cross-checks it at runtime.
"""

import math

import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from redkit.geometry import Box3D, Cuboid3D, centroid_distance
from redkit.multimodal import (
    distance_prune,
    lost_ratio,
    match_boxes,
    match_frame,
    pooled_sweep,
    redundancy_ratio,
    sweep_distance,
    welch_t_test,
)
from redkit.synth import SynthParams, generate_scene


def cube(x, y=0.0, z=0.0, size=(1.0, 1.0, 1.0)):
    return Cuboid3D((x, y, z), size, 0.0)


def scored(x, y=0.0, z=0.0, size=(1.0, 1.0, 1.0)):
    return Box3D((x, y, z), size, 0.0, score=0.9)


# ---------------------------------------------------------------- matching


def test_identical_sets_match_perfectly():
    boxes = [cube(0.0), cube(10.0), cube(-7.0)]
    result = match_boxes(boxes, list(boxes), theta=0.5)
    assert len(result.pairs) == 3
    assert all(iou == 1.0 for _, _, iou in result.pairs)
    assert result.unmatched_base == ()
    assert result.unmatched_lidar == ()


def test_disjoint_sets_match_nothing():
    result = match_boxes([cube(0.0)], [cube(100.0)], theta=0.5)
    assert result.pairs == ()
    assert result.unmatched_base == (0,)
    assert result.unmatched_lidar == (0,)


def test_greedy_assignment_prefers_higher_iou():
    target = cube(0.0)
    strong = cube(0.0, size=(0.8, 1.0, 1.0))   # iou 0.8 against target
    weak = cube(0.0, size=(0.6, 1.0, 1.0))     # iou 0.6 against target
    result = match_boxes([strong, weak], [target], theta=0.5)
    assert len(result.pairs) == 1
    bi, li, iou = result.pairs[0]
    assert (bi, li) == (0, 0)
    assert iou == pytest.approx(0.8, abs=1e-12)
    assert result.unmatched_base == (1,)


def test_matching_indices_are_unique():
    base = [cube(0.0), cube(0.3), cube(0.6)]
    lidar = [cube(0.15), cube(0.45)]
    result = match_boxes(base, lidar, theta=0.1)
    base_idx = [bi for bi, _, _ in result.pairs]
    lidar_idx = [li for _, li, _ in result.pairs]
    assert len(set(base_idx)) == len(base_idx)
    assert len(set(lidar_idx)) == len(lidar_idx)


def test_matching_respects_theta():
    shifted = cube(0.5)  # iou 1/3 against the unit cube at the origin
    assert match_boxes([cube(0.0)], [shifted], theta=0.5).pairs == ()
    assert len(match_boxes([cube(0.0)], [shifted], theta=0.3).pairs) == 1


# ---------------------------------------------------------------- ratios


def test_rr_identity():
    boxes = [cube(0.0), cube(5.0)]
    assert redundancy_ratio(boxes, boxes, theta=0.5) == 1.0


def test_rr_empty_lidar():
    assert redundancy_ratio([cube(0.0)], [], theta=0.5) == 0.0


def test_rr_two_thirds():
    base = [cube(0.0), cube(10.0), cube(20.0)]
    lidar = [cube(0.0), cube(10.0)]
    assert redundancy_ratio(base, lidar, theta=0.5) == pytest.approx(2 / 3, abs=1e-12)


def test_rr_empty_base_rejected():
    with pytest.raises(ValueError):
        redundancy_ratio([], [cube(0.0)], theta=0.5)


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.0001])
def test_rr_rejects_bad_theta(theta):
    with pytest.raises(ValueError):
        redundancy_ratio([cube(0.0)], [cube(0.0)], theta=theta)


def test_rr_counts_existence_not_assignment():
    # two base boxes both covered by the same lidar box still both count
    base = [cube(0.0, size=(1.0, 1.0, 1.0)), cube(0.2, size=(1.0, 1.0, 1.0))]
    lidar = [cube(0.1, size=(1.4, 1.0, 1.0))]
    rr = redundancy_ratio(base, lidar, theta=0.5)
    assert rr == 1.0


# --------------------------------------------------------- distance pruning


def test_distance_prune_zero_keeps_all():
    boxes = [scored(2.0), scored(7.0), scored(12.0)]
    assert distance_prune(boxes, 0.0) == list(boxes)


def test_distance_prune_drops_near_boxes():
    boxes = [scored(2.0), scored(7.0), scored(12.0)]
    kept = distance_prune(boxes, 5.0)
    assert [b.center[0] for b in kept] == [7.0, 12.0]


def test_distance_prune_huge_threshold_empties():
    assert distance_prune([scored(2.0), scored(7.0)], 1e12) == []


def test_distance_prune_rejects_negative_threshold():
    with pytest.raises(ValueError):
        distance_prune([scored(2.0)], -1.0)


def test_distance_prune_boundary_is_inclusive():
    # a box exactly at the threshold distance survives (rule is d >= t)
    assert distance_prune([scored(5.0)], 5.0) == [scored(5.0)]


# -------------------------------------------------------------- lost ratio


def test_lost_ratio_identity():
    base = [cube(0.0), cube(9.0)]
    assert lost_ratio(base, base, theta=0.5) == 0.0


def test_lost_ratio_total_loss():
    assert lost_ratio([cube(0.0)], [], theta=0.5) == 1.0


def test_lost_ratio_quarter():
    base = [cube(0.0), cube(10.0), cube(20.0), cube(30.0)]
    pruned = base[:3]
    assert lost_ratio(base, pruned, theta=0.5) == pytest.approx(0.25, abs=1e-12)


def test_lost_ratio_complements_rr_on_unpruned_input():
    ds, _ = generate_scene(
        SynthParams(seed=17, n_objects=12, n_frames=4, drop_rate=0.4, detection_noise=0.2)
    )
    for frame in ds.scenes[0].frames:
        base = frame.detection_sets["fusion_baseline"]
        lidar = frame.detection_sets["lidar_only"]
        if not base:
            continue
        lost = lost_ratio(base, distance_prune(lidar, 0.0), theta=0.5)
        rr = redundancy_ratio(base, lidar, theta=0.5)
        assert abs(lost - (1.0 - rr)) < 1e-12


# ------------------------------------------------------------------ sweeps


def test_sweep_distance_monotone_and_bruteforceable():
    base = [cube(2.0), cube(7.0), cube(12.0), cube(18.0)]
    lidar = [scored(2.0), scored(7.0), scored(12.0), scored(18.0)]
    thresholds = [0.0, 5.0, 10.0, 15.0, 25.0]
    rows = sweep_distance(base, lidar, theta=0.5, thresholds=thresholds)
    assert [r.t_dist for r in rows] == thresholds
    for earlier, later in zip(rows, rows[1:]):
        assert later.pruned_count >= earlier.pruned_count
        assert later.lost_ratio >= earlier.lost_ratio - 1e-12
    for row in rows:
        kept = [b for b in lidar if math.hypot(*b.center) >= row.t_dist]
        assert row.pruned_count == len(lidar) - len(kept)
        want_lost = lost_ratio(base, kept, theta=0.5)
        assert row.lost_ratio == pytest.approx(want_lost, abs=1e-12)


def test_sweep_distance_known_counts():
    base = [cube(2.0), cube(7.0), cube(12.0)]
    lidar = [scored(2.0), scored(7.0), scored(12.0)]
    rows = sweep_distance(base, lidar, theta=0.5, thresholds=[0.0, 5.0, 10.0])
    assert [r.pruned_count for r in rows] == [0, 1, 2]
    assert [r.lost_ratio for r in rows] == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-12)


def test_sweep_rejects_nan_and_empty_thresholds():
    base = [cube(2.0)]
    lidar = [scored(2.0)]
    for thresholds in ([], [0.0, math.nan], [-1.0]):
        with pytest.raises(ValueError):
            sweep_distance(base, lidar, theta=0.5, thresholds=thresholds)
    with pytest.raises(ValueError):
        distance_prune(lidar, math.nan)


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
        assert match.rr == redundancy_ratio(base, lidar, theta=0.3)
        # every LiDAR distance is a threshold, so boxes sit exactly on one
        for t in [0.0, 1e9] + sorted(match.distances):
            want = lost_ratio(base, distance_prune(lidar, t), theta=0.3)
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
        assert reach_lost(match, t) == lost_ratio(
            base, distance_prune(lidar, t), theta=0.05)


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
