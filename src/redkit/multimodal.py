"""Cross-modal redundancy between two 3D detection sets.

A baseline (camera-or-fusion) detection is redundant when some LiDAR-only
detection overlaps it at or above an IoU threshold. The redundancy ratio is
the redundant fraction of the baseline set. Distance pruning drops LiDAR
boxes closer than a threshold; the lost ratio then measures how much of the
baseline loses its match. A Welch t-test compares ego distances between
high- and low-redundancy groups.

Before the exact 3D-IoU clip, each pair is screened by ground-plane
bounding circles: two footprints whose circumscribed circles are apart
cannot overlap, so their IoU is 0 and the clip is skipped. ``iou3d`` stays
the only IoU kernel.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from .geometry import Cuboid3D, centroid_distance, check_threshold, iou3d


@dataclass(frozen=True)
class DistanceSweepRow:
    """One distance threshold: boxes removed and baseline match loss."""

    t_dist: float
    pruned_count: int
    lost_ratio: float


# Relative widening of each bounding circle. The exact clip works on
# footprint corners rounded to within a few ulps of the box's own size and
# of its centre coordinates, so the circle grows with both: a margin that
# scaled with the radii alone would be thinner than the rounding of corners
# around 1e8 m, where the clip can still return a tiny positive IoU. A few
# ulps (about 1e-15) would do; 1e-9 leaves a wide safety factor and still
# screens out all but touching pairs.
_CIRCLE_SLACK = 1e-9


def _bounding_circles(boxes: Sequence[Cuboid3D]
                      ) -> list[tuple[float, float, float]]:
    """``(x, y, r)`` per box: a ground-plane circle holding its footprint,
    widened by rounding slack."""
    circles = []
    for b in boxes:
        x, y = b.center[0], b.center[1]
        r = 0.5 * math.hypot(b.size[0], b.size[1])
        circles.append((x, y, r + _CIRCLE_SLACK * (r + abs(x) + abs(y))))
    return circles


@dataclass(frozen=True)
class FrameMatch:
    """One frame's base x LiDAR matches at one IoU threshold.

    ``distances`` holds each LiDAR box's centroid distance. ``reach[i]`` is
    the largest distance among the LiDAR boxes that match base box ``i``, or
    ``None`` when none does. Base box ``i`` keeps a match after distance
    pruning at ``t`` exactly when ``reach[i] >= t``.
    """

    distances: tuple[float, ...]
    reach: tuple[float | None, ...]

    @property
    def rr(self) -> float:
        """Fraction of baseline boxes with at least one match."""
        if not self.reach:
            raise ValueError("redundancy ratio undefined for an empty baseline set")
        return sum(r is not None for r in self.reach) / len(self.reach)


def match_frame(base: Sequence[Cuboid3D], lidar: Sequence[Cuboid3D],
                theta: float) -> FrameMatch:
    """Match every baseline box against the LiDAR boxes at ``theta``.

    LiDAR boxes are tested farthest first, and each baseline box stops at
    its first box with IoU >= ``theta``: that box's distance is its reach.
    Each pair is screened by bounding circles as it is reached, and only
    the pairs the screen keeps go to ``iou3d``.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    distances = tuple(centroid_distance(l) for l in lidar)
    # farthest first; NaN distances never survive pruning, so they go last
    order = sorted(range(len(lidar)),
                   key=lambda li: (math.isnan(distances[li]), -distances[li]))
    ordered = [(lidar[li], distances[li], *circle) for li, circle
               in zip(order, _bounding_circles([lidar[li] for li in order]))]
    reach = []
    for b, (x, y, r) in zip(base, _bounding_circles(base)):
        hit = None
        for l, d, cx, cy, cr in ordered:
            # circles provably apart have IoU exactly 0; a comparison
            # involving NaN is not a proof, so such pairs reach the clip
            dx = x - cx
            dy = y - cy
            s = r + cr
            if not dx * dx + dy * dy > s * s and iou3d(b, l) >= theta:
                hit = d
                break
        reach.append(hit)
    return FrameMatch(distances, tuple(reach))


def pooled_sweep(matches: Sequence[FrameMatch], thresholds: Sequence[float]
                 ) -> list[DistanceSweepRow]:
    """Distance sweep over frames: pruned LiDAR boxes summed, lost ratio
    micro-averaged (unmatched baseline boxes over all baseline boxes)."""
    if not thresholds:
        raise ValueError("sweep needs at least one distance threshold")
    total = sum(len(m.reach) for m in matches)
    if total == 0:
        raise ValueError("lost ratio undefined for an empty baseline set")
    rows = []
    for t in thresholds:
        check_threshold(t, "t_dist")
        pruned = 0
        matched = 0
        for m in matches:
            pruned += len(m.distances) - sum(1 for d in m.distances if d >= t)
            matched += sum(1 for r in m.reach if r is not None and r >= t)
        rows.append(DistanceSweepRow(t, pruned, 1.0 - matched / total))
    return rows


# --------------------------------------------------------------------------
# Welch's t-test

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise RuntimeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t with ``df`` degrees."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return _betainc(df / 2.0, 0.5, x)


def welch_t_test(a: Sequence[float], b: Sequence[float]
                 ) -> tuple[float, float, float]:
    """Welch's unequal-variance t-test.

    Returns ``(t, df, p)`` with the Welch-Satterthwaite degrees of freedom
    and the two-sided p-value. Each sample needs at least two values, at
    least one sample must have nonzero variance, and ``t`` and the degrees
    of freedom must be finite floats.
    """
    na = len(a)
    nb = len(b)
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least two values")
    mean_a = sum(a) / na
    mean_b = sum(b) / nb
    var_a = sum((v - mean_a) ** 2 for v in a) / (na - 1)
    var_b = sum((v - mean_b) ** 2 for v in b) / (nb - 1)
    if var_a == 0.0 and var_b == 0.0:
        raise ValueError("both samples have zero variance, t undefined")
    sa = var_a / na
    sb = var_b / nb
    se2 = sa + sb
    t = (mean_a - mean_b) / math.sqrt(se2)
    df = se2 * se2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    if not (math.isfinite(t) and math.isfinite(df)):
        # se2 squared passes the largest float once the samples spread over
        # about 1e77
        raise ValueError("the samples' variances overflow a float, t undefined")
    return t, df, _student_t_two_sided_p(t, df)


def distance_ttest(bases: Sequence[Sequence[Cuboid3D]], rrs: Sequence[float],
                   split: float | None = None) -> dict:
    """Welch t-test of baseline ego distances, high- against low-redundancy
    frames.

    ``bases[i]`` holds frame ``i``'s baseline boxes and ``rrs[i]`` its
    redundancy ratio. Frames with ``rr >= split`` are high, the rest low;
    ``split`` defaults to the median ratio. The result records the split and
    group sizes, and either the means and ``t``, ``df``, ``p`` (status
    ``ok``) or why the test was skipped.
    """
    if split is None:
        split_rule = "median"
        split = statistics.median(rrs)
    else:
        split_rule = "value"
        if not math.isfinite(split):
            raise ValueError(f"rr split must be finite, got {split}")
    high: list[float] = []
    low: list[float] = []
    for base, rr in zip(bases, rrs, strict=True):
        target = high if rr >= split else low
        target.extend(centroid_distance(b) for b in base)
    result: dict = {
        "split": split,
        "split_rule": split_rule,
        "n_high": len(high),
        "n_low": len(low),
    }
    if len(high) < 2 or len(low) < 2:
        result["status"] = "skipped"
        result["reason"] = "a redundancy group has fewer than two distances"
        return result
    if not all(map(math.isfinite, high + low)):
        # a centre beyond about 1.3e154 m squares past the largest float
        result["status"] = "skipped"
        result["reason"] = "a baseline distance is not finite"
        return result
    result["mean_high"] = sum(high) / len(high)
    result["mean_low"] = sum(low) / len(low)
    try:
        t, df, p = welch_t_test(high, low)
    except ValueError as exc:
        result["status"] = "skipped"
        result["reason"] = str(exc)
        return result
    result.update(status="ok", t=t, df=df, p=p)
    return result
