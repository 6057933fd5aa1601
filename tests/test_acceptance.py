"""Acceptance gate: one test per release criterion, hard tolerances inline.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. The timed criteria assume an ordinary desktop-class machine
and a single thread.
"""

import json
import math
import random
import time

import numpy as np
import pytest
import scipy.stats

from redkit.cli import main
from redkit.geometry import Box2D, Cuboid3D, bcs, cuboid_corners, iou3d
from redkit.ingest import write_dataset
from redkit.multimodal import match_frame, pooled_sweep, welch_t_test
from redkit.multisource import prune_dataset, sweep_tau
from redkit.overlap import build_overlap_graph, preset_nuscenes
from redkit.synth import (
    SynthParams,
    brute_force_prune,
    brute_force_rr,
    generate_scene,
    nuscenes_like_cameras,
)

TAU_GRID = [round(0.1 * i, 1) for i in range(11)]


def label_keys(ds):
    return {
        (scene.scene_id, frame.timestamp_ns, cam, ann.track_id)
        for scene in ds.scenes
        for frame in scene.frames
        for ann in frame.annotations
        for cam in ann.boxes2d
    }


@pytest.fixture(scope="module")
def fixture_corpus():
    """104 seeded datasets of varied rigs, each at most 1000 labels."""
    corpus = []
    for i in range(104):
        seed = 5000 + i
        if i % 13 == 0:
            params = SynthParams(seed=seed, n_cameras=1, n_objects=6 + i % 9,
                                 n_frames=1 + i % 3)
            ds, _ = generate_scene(params)
            graph = build_overlap_graph(ds.scenes[0].cameras)
        elif i % 5 == 0:
            params = SynthParams(seed=seed, n_objects=4 + i % 21,
                                 n_frames=1 + i % 4, drop_rate=0.2)
            ds, _ = generate_scene(params, cameras=nuscenes_like_cameras())
            graph = build_overlap_graph(ds.scenes[0].cameras)
        else:
            params = SynthParams(
                seed=seed,
                n_cameras=4 + i % 5,
                camera_fov=60.0 + 5.0 * (i % 6),
                n_objects=4 + i % 24,
                n_frames=1 + i % 4,
            )
            ds, _ = generate_scene(params)
            graph = build_overlap_graph(ds.scenes[0].cameras)
        assert len(label_keys(ds)) <= 1000
        corpus.append((ds, graph))
    return corpus


def test_criterion_01_bcs_bounds_and_boundary_cases():
    rng = random.Random(12_001)
    pairs = []
    for _ in range(100_000):
        x0 = rng.uniform(-400.0, 1900.0)
        y0 = rng.uniform(-300.0, 1100.0)
        full = Box2D(x0, y0, x0 + rng.uniform(0.5, 900.0), y0 + rng.uniform(0.5, 600.0))
        pairs.append(full)
    start = time.perf_counter()
    for full in pairs:
        clipped = full.clip(1600, 900)
        score = bcs(full, clipped)
        assert 0.0 <= score <= 1.0
        if clipped.area == 0.0:
            assert score == 0.0
        if (clipped.x0, clipped.y0, clipped.x1, clipped.y1) == (
            full.x0, full.y0, full.x1, full.y1,
        ):
            assert score == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion allows 5 s, took {elapsed:.2f} s"


def test_criterion_02_prune_rule_fidelity_vs_brute_force(fixture_corpus):
    checked = 0
    for ds, graph in fixture_corpus:
        for tau in TAU_GRID:
            kept, _ = prune_dataset(ds, graph, tau)
            assert kept.keys() == brute_force_prune(ds, graph, tau)
            checked += 1
    assert checked == len(fixture_corpus) * len(TAU_GRID)
    assert len(fixture_corpus) >= 100


def test_criterion_03_deleted_count_monotone_in_tau(fixture_corpus):
    for ds, graph in fixture_corpus:
        rows = sweep_tau(ds, graph, TAU_GRID)
        for earlier, later in zip(rows, rows[1:]):
            assert earlier.deleted >= later.deleted
        assert rows[-1].tau == 1.0
        assert rows[-1].deleted == 0


def test_criterion_04_track_set_invariant_across_taus(fixture_corpus):
    for ds, graph in fixture_corpus:
        baseline = {key[3] for key in label_keys(ds)}
        for tau in (0.0, 0.2, 0.5, 0.8, 1.0):
            kept, row = prune_dataset(ds, graph, tau)
            retained = {key[3] for key in kept}
            assert retained == baseline
            assert row.tracks == len(baseline)


def test_criterion_05_nuscenes_preset_and_calibration_agreement():
    preset = preset_nuscenes()
    assert len(preset.pairs) == 6
    angles = sorted(round(p.overlap_degrees, 9) for p in preset.pairs)
    assert angles == [15.0, 15.0, 15.0, 15.0, 20.0, 20.0]
    derived = build_overlap_graph(nuscenes_like_cameras())
    preset_map = {tuple(sorted((p.camera_a, p.camera_b))): p.overlap_degrees
                  for p in preset.pairs}
    derived_map = {tuple(sorted((p.camera_a, p.camera_b))): p.overlap_degrees
                   for p in derived.pairs}
    assert set(derived_map) == set(preset_map)
    for key, want in preset_map.items():
        assert abs(derived_map[key] - want) <= 1e-6


def test_criterion_06_iou3d_against_monte_carlo_oracle():
    rng = np.random.default_rng(60_601)

    def mc_iou(a, b, n=1_000_000):
        def aabb(box):
            pts = np.asarray(cuboid_corners(box))
            return pts.min(axis=0), pts.max(axis=0)

        lo = np.maximum(aabb(a)[0], aabb(b)[0])
        hi = np.minimum(aabb(a)[1], aabb(b)[1])
        va = math.prod(a.size)
        vb = math.prod(b.size)
        if np.any(hi <= lo):
            return 0.0
        pts = rng.uniform(lo, hi, size=(n, 3))

        def inside(box):
            rel = pts - np.asarray(box.center)
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            x = rel[:, 0] * c + rel[:, 1] * s
            y = -rel[:, 0] * s + rel[:, 1] * c
            return (
                (np.abs(x) <= box.size[0] / 2)
                & (np.abs(y) <= box.size[1] / 2)
                & (np.abs(rel[:, 2]) <= box.size[2] / 2)
            )

        cell = float(np.prod(hi - lo))
        vi = cell * float(np.mean(inside(a) & inside(b)))
        return vi / (va + vb - vi)

    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a = Cuboid3D(tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(0.5, 3.0, 3)),
                     float(rng.uniform(-math.pi, math.pi)))
        b = Cuboid3D(tuple(np.asarray(a.center) + rng.uniform(-2, 2, 3)),
                     tuple(rng.uniform(0.5, 3.0, 3)),
                     float(rng.uniform(-math.pi, math.pi)))
        diff = abs(iou3d(a, b) - mc_iou(a, b))
        worst = max(worst, diff)
        assert diff <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion allows 60 s, took {elapsed:.2f} s"


def test_criterion_07_multimodal_identities():
    theta = 0.5
    frames_seen = 0
    for seed in range(70_000, 70_010):
        params = SynthParams(seed=seed, n_objects=10, n_frames=10,
                             drop_rate=0.3, detection_noise=0.2)
        ds, _ = generate_scene(params)
        for frame in ds.scenes[0].frames:
            base = frame.detection_sets["fusion_baseline"]
            lidar = frame.detection_sets["lidar_only"]
            if not base:
                continue
            frames_seen += 1
            # identical sets are fully redundant
            assert match_frame(base, base, theta).rr == 1.0
            # pruning nothing loses exactly the never-matched fraction
            thresholds = [0.0, 4.0, 8.0, 12.0, 16.0, 24.0, 40.0]
            rows = pooled_sweep([match_frame(base, lidar, theta)], thresholds)
            lost = rows[0].lost_ratio
            assert abs(lost - (1.0 - brute_force_rr(base, lidar, theta))) <= 1e-12
            # both sweep columns are monotone over sorted thresholds
            for earlier, later in zip(rows, rows[1:]):
                assert later.pruned_count >= earlier.pruned_count
                assert later.lost_ratio >= earlier.lost_ratio - 1e-12
    assert frames_seen >= 100


def test_criterion_08_welch_t_test_reference_values():
    a = [1.0, 2.0, 3.0]
    b = [2.0, 3.0, 4.0]
    t, df, p = welch_t_test(a, b)
    assert t == pytest.approx(-1.224745, abs=1e-5)
    assert df == pytest.approx(4.0, abs=1e-9)
    reference = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert p == pytest.approx(reference.pvalue, abs=5e-3)
    # the implementation should land far inside the stated tolerance
    assert p == pytest.approx(reference.pvalue, abs=1e-10)


def test_criterion_09_sweep_and_mm_outputs_byte_identical(tmp_path):
    data_dir = tmp_path / "data"
    params = SynthParams(seed=90_909, n_objects=12, n_frames=6,
                         drop_rate=0.25, detection_noise=0.1)
    ds, _ = generate_scene(params, cameras=nuscenes_like_cameras())
    write_dataset(ds, data_dir)

    sweeps = []
    mms = []
    for run in ("first", "second"):
        sweep_out = tmp_path / f"sweep-{run}"
        mm_out = tmp_path / f"mm-{run}"
        assert main(["sweep", "--dataset", str(data_dir), "--out", str(sweep_out),
                     "--taus", "0.1,0.2,0.3,0.4,0.5,0.6"]) == 0
        assert main(["mm", "--dataset", str(data_dir), "--out", str(mm_out),
                     "--t-dist", "0,5,10,20,40"]) == 0
        sweeps.append((sweep_out / "sweep.csv").read_bytes())
        mms.append((mm_out / "mm_sweep.csv").read_bytes()
                   + (mm_out / "mm_ttest.txt").read_bytes())
    assert sweeps[0] == sweeps[1]
    assert mms[0] == mms[1]


def test_criterion_10_desk_scale_throughput(tmp_path):
    params = SynthParams(seed=101_010, n_objects=8, n_frames=10_000)
    ds, _ = generate_scene(params, cameras=nuscenes_like_cameras())
    assert len(ds.scenes[0].frames) == 10_000
    n_labels = len(label_keys(ds))
    assert n_labels >= 100_000
    data_dir = tmp_path / "data"
    write_dataset(ds, data_dir)

    start = time.perf_counter()
    assert main(["audit", "--dataset", str(data_dir),
                 "--out", str(tmp_path / "audit")]) == 0
    assert main(["prune", "--dataset", str(data_dir),
                 "--out", str(tmp_path / "prune"), "--tau", "0.3"]) == 0
    assert main(["sweep", "--dataset", str(data_dir),
                 "--out", str(tmp_path / "sweep"),
                 "--taus", "0.1,0.2,0.3,0.4,0.5,0.6"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, (
        f"audit+prune+sweep over {n_labels} labels took {elapsed:.1f} s, "
        "criterion allows 30 s"
    )

    report = json.loads((tmp_path / "prune" / "prune_report.json").read_text())
    assert report["deleted"] + report["remaining"] == n_labels
