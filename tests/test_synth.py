"""Seeded generator: PRNG contract, ground-truth bookkeeping, oracle parity.

The PRNG reference below reimplements the documented recurrence with
independent code so a silent change to the production generator cannot slip
through. The first outputs for a few seeds are additionally frozen as hex
literals.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_ring_dataset
from redkit.geometry import centroid_distance, iou3d, normalize_deg
from redkit.ingest import write_dataset
from redkit.multisource import _index_dataset, prune_dataset, sweep_tau
from redkit.overlap import build_overlap_graph
from redkit.synth import (
    GroundTruth,
    SynthParams,
    Xorshift64Star,
    brute_force_distance,
    brute_force_prune,
    brute_force_rr,
    camera_at_yaw,
    generate_scene,
    nuscenes_like_cameras,
)

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    """Independent rewrite of the xorshift64* recurrence."""
    state = seed & MASK
    if state == 0:
        state = 0x9E3779B97F4A7C15
    values = []
    for _ in range(count):
        state = state ^ (state >> 12)
        state = (state ^ (state << 25)) & MASK
        state = state ^ (state >> 27)
        values.append((state * 0x2545F4914F6CDD1D) & MASK)
    return values


# -------------------------------------------------------------------- PRNG


def test_prng_frozen_first_outputs():
    rng = Xorshift64Star(1)
    assert rng.next_u64() == 0x47E4CE4B896CDD1D
    assert rng.next_u64() == 0xABCFA6A8E079651D
    assert rng.next_u64() == 0xB9D10D8FEB731F57
    assert Xorshift64Star(42).next_u64() == 0x56CE4AB7719BA3A0


def test_prng_zero_seed_is_reseeded():
    rng = Xorshift64Star(0)
    assert rng.next_u64() == 0x0D83B3E29A21487A


@pytest.mark.parametrize("seed", [1, 42, 12345, (1 << 63) + 5, 0xDEADBEEF])
def test_prng_matches_reference_recurrence(seed):
    rng = Xorshift64Star(seed)
    got = [rng.next_u64() for _ in range(1000)]
    assert got == reference_stream(seed, 1000)


def test_prng_doubles_in_unit_interval():
    rng = Xorshift64Star(7)
    for _ in range(2000):
        value = rng.random()
        assert 0.0 <= value < 1.0


def test_prng_uniform_respects_bounds():
    rng = Xorshift64Star(9)
    for _ in range(500):
        value = rng.uniform(-3.5, 8.25)
        assert -3.5 <= value < 8.25


def test_prng_double_is_53_bit_quotient():
    # the double stream must be next_u64 >> 11 over 2^53, nothing fancier
    a = Xorshift64Star(1234)
    b = Xorshift64Star(1234)
    for _ in range(100):
        assert a.random() == (b.next_u64() >> 11) * 2.0 ** -53


# ------------------------------------------------------------- determinism


def test_same_seed_same_bytes(tmp_path):
    params = SynthParams(seed=77, n_objects=9, n_frames=3, drop_rate=0.2,
                         detection_noise=0.15)
    ds1, _ = generate_scene(params)
    ds2, _ = generate_scene(params)
    assert ds1 == ds2
    p1 = write_dataset(ds1, tmp_path / "one")[0]
    p2 = write_dataset(ds2, tmp_path / "two")[0]
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ():
    a, _ = generate_scene(SynthParams(seed=1, n_objects=5))
    b, _ = generate_scene(SynthParams(seed=2, n_objects=5))
    assert a != b


def test_scene_id_encodes_seed():
    ds, _ = generate_scene(SynthParams(seed=0xAB, n_objects=1))
    assert ds.scenes[0].scene_id == "synth-00000000000000ab"


def test_frame_timestamps_are_regular():
    ds, _ = generate_scene(SynthParams(seed=5, n_objects=2, n_frames=4))
    stamps = [f.timestamp_ns for f in ds.scenes[0].frames]
    assert stamps == [0, 100_000_000, 200_000_000, 300_000_000]


# ------------------------------------------------------------ ground truth


def test_empty_scene_has_undefined_rr():
    ds, truth = generate_scene(SynthParams(seed=3, n_objects=0))
    assert all(not f.annotations for f in ds.scenes[0].frames)
    assert truth.expected_rr is None
    assert truth.expected_groups == ()


def test_no_drop_no_noise_means_rr_one():
    _, truth = generate_scene(SynthParams(seed=11, n_objects=15, n_frames=2))
    assert truth.expected_rr == 1.0
    assert all(rr == 1.0 for rr in truth.rr_per_frame)


def test_noise_makes_rr_bookkeeping_inexact():
    _, truth = generate_scene(
        SynthParams(seed=11, n_objects=5, detection_noise=0.3)
    )
    assert truth.expected_rr is None


def test_drop_bookkeeping_is_the_rr_oracle():
    params = SynthParams(seed=23, n_objects=40, n_frames=5, drop_rate=0.3)
    ds, truth = generate_scene(params)
    kept = 0
    total = 0
    for frame in ds.scenes[0].frames:
        base = frame.detection_sets["fusion_baseline"]
        lidar = frame.detection_sets["lidar_only"]
        total += len(base)
        for box in base:
            if any(iou3d(box, other) >= 0.5 for other in lidar):
                kept += 1
    assert truth.expected_rr == kept / total
    assert 0.0 < truth.expected_rr < 1.0


def test_full_drop_gives_rr_zero():
    _, truth = generate_scene(SynthParams(seed=4, n_objects=6, drop_rate=1.0))
    assert truth.expected_rr == 0.0


def test_expected_distances_match_centroids():
    ds, truth = generate_scene(SynthParams(seed=31, n_objects=10, n_frames=2))
    seen = {}
    for frame in ds.scenes[0].frames:
        for ann in frame.annotations:
            seen[ann.track_id] = centroid_distance(ann.cuboid)
    assert set(truth.expected_distances) == set(seen)
    for track, want in seen.items():
        assert truth.expected_distances[track] == pytest.approx(want, abs=1e-9)
        assert truth.expected_distances[track] == pytest.approx(
            brute_force_distance(
                next(a.cuboid for f in ds.scenes[0].frames
                     for a in f.annotations if a.track_id == track)
            ),
            abs=1e-12,
        )


def test_visibility_equals_native_box_keys():
    ds, truth = generate_scene(SynthParams(seed=13, n_objects=12, n_frames=3))
    for frame in ds.scenes[0].frames:
        for ann in frame.annotations:
            assert truth.expected_visibility[ann.track_id] == frozenset(ann.boxes2d)


@pytest.mark.parametrize("seed", range(40, 70))
def test_ground_truth_groups_match_production(seed):
    params = SynthParams(seed=seed, n_objects=10, n_frames=2,
                         camera_fov=65.0 + (seed % 4) * 5.0)
    ds, truth = generate_scene(params)
    scene = ds.scenes[0]
    graph = build_overlap_graph(scene.cameras)
    produced = [
        (group.track_id, frozenset(o.camera for o in group.observations))
        for group in _index_dataset(ds, graph, "native-2d").groups
    ]
    assert sorted(produced) == sorted(truth.expected_groups)


# ----------------------------------------------------------- oracle parity


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_brute_force_prune_agrees(seed):
    params = SynthParams(seed=seed, n_objects=14, n_frames=3)
    ds, _ = generate_scene(params)
    graph = build_overlap_graph(ds.scenes[0].cameras)
    for tau in (0.0, 0.3, 0.7, 1.0):
        kept, _ = prune_dataset(ds, graph, tau)
        assert kept.keys() == brute_force_prune(ds, graph, tau)


def _ring_scene():
    """The nuScenes-like six-camera ring; every group spans two cameras."""
    ds, _ = generate_scene(SynthParams(seed=55, n_objects=20, n_frames=2),
                           cameras=nuscenes_like_cameras())
    return ds, "native-2d"


def _chain_scene():
    return chain_ring_dataset(), "projected-3d"


# spills: the overrides remove labels of cameras outside every overridden pair
@pytest.mark.parametrize("scene, tau, overrides, spills", [
    (_ring_scene, 0.8, {("CAM_FRONT", "CAM_FRONT_RIGHT"): 0.05,
                        ("CAM_BACK", "CAM_BACK_LEFT"): 0.2}, False),
    # every edge of the four-camera chain above tau: its threshold rises
    (_chain_scene, 0.1, {("CAM_00", "CAM_01"): 0.5, ("CAM_01", "CAM_02"): 0.5,
                         ("CAM_02", "CAM_03"): 0.5}, False),
    # one edge of a chain below tau: the whole chain takes it
    (_chain_scene, 0.9, {("CAM_00", "CAM_01"): 0.0}, True),
    # one edge of a chain above tau: the chain's other edges keep tau
    (_chain_scene, 0.1, {("CAM_01", "CAM_02"): 0.9}, False),
], ids=["ring", "chain-all-edges-above", "chain-one-edge-below",
        "chain-one-edge-above"])
def test_brute_force_prune_with_pair_overrides(scene, tau, overrides, spills):
    ds, source = scene()
    graph = build_overlap_graph(ds.scenes[0].cameras)
    want = brute_force_prune(ds, graph, tau, source, pair_taus=overrides)
    kept, _ = prune_dataset(ds, graph, tau, source, pair_taus=overrides)
    assert kept.keys() == want
    # the overrides change the outcome, so they are exercised
    plain = brute_force_prune(ds, graph, tau, source)
    assert want != plain
    overridden = {camera for pair in overrides for camera in pair}
    assert bool({key[2] for key in plain - want} - overridden) == spills
    labels = brute_force_prune(ds, graph, 1.0, source)
    taus = [0.0, 0.1, 0.3, 0.5, 0.9, 1.0]
    rows = sweep_tau(ds, graph, taus, source, pair_taus=overrides)
    for t, row in zip(taus, rows, strict=True):
        kept_keys = brute_force_prune(ds, graph, t, source, pair_taus=overrides)
        assert (row.tau, row.deleted, row.remaining, row.tracks) == (
            t, len(labels) - len(kept_keys), len(kept_keys),
            len({(key[0], key[3]) for key in kept_keys}))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(8, 12), st.floats(50.0, 70.0),
       st.floats(-180.0, 180.0), st.floats(0.0, 2.0), st.data())
def test_projected_prune_agrees_on_random_rings(seed, n_cams, fov, spin, mount,
                                                data):
    # rings like the rig_requests benchmark's, every camera mounted up to
    # 2 m off the ego origin, pruned with and without a pair override: the
    # projection screen must not change one projected-3d label
    jitter = st.floats(-2.0, 2.0)
    cameras = []
    for j in range(n_cams):
        yaw = normalize_deg(spin + j * 360.0 / n_cams + data.draw(jitter))
        bearing = math.radians(yaw)
        cameras.append(camera_at_yaw(
            f"CAM_{j:02d}", yaw, fov,
            translation=(mount * math.cos(bearing), mount * math.sin(bearing),
                         data.draw(st.floats(0.0, 2.0)))))
    ds, _ = generate_scene(SynthParams(seed=seed, n_objects=10, n_frames=2,
                                       radial_range=(2.0, 40.0)), cameras=cameras)
    graph = build_overlap_graph(cameras)
    overrides = {}
    if graph.pairs and data.draw(st.booleans()):
        pair = data.draw(st.sampled_from(graph.pairs))
        overrides[(pair.camera_a, pair.camera_b)] = data.draw(
            st.sampled_from([0.0, 0.05, 0.5, 0.8]))
    for tau in (0.0, 0.3, 1.0):
        kept, _ = prune_dataset(ds, graph, tau, "projected-3d", overrides)
        assert kept.keys() == brute_force_prune(ds, graph, tau, "projected-3d",
                                                overrides)


def test_brute_force_rr_agrees():
    ds, _ = generate_scene(
        SynthParams(seed=61, n_objects=25, drop_rate=0.35, detection_noise=0.1)
    )
    frame = ds.scenes[0].frames[0]
    base = frame.detection_sets["fusion_baseline"]
    lidar = frame.detection_sets["lidar_only"]
    from redkit.multimodal import match_frame

    assert brute_force_rr(base, lidar, 0.5) == match_frame(base, lidar, 0.5).rr


def test_single_camera_scene_prunes_nothing():
    params = SynthParams(seed=8, n_cameras=1, n_objects=10, n_frames=2)
    ds, truth = generate_scene(params)
    assert truth.expected_groups == ()
    kept, row = prune_dataset(ds, build_overlap_graph(ds.scenes[0].cameras), tau=0.0)
    assert row.deleted == 0


def test_explicit_ring_is_honored():
    ds, _ = generate_scene(SynthParams(seed=2, n_objects=4),
                           cameras=nuscenes_like_cameras())
    names = [cam.name for cam in ds.scenes[0].cameras]
    assert "CAM_FRONT" in names and "CAM_BACK" in names


# --------------------------------------------------------------- validation


def test_params_validation():
    with pytest.raises(ValueError):
        SynthParams(seed=1, drop_rate=1.5)
    with pytest.raises(ValueError):
        SynthParams(seed=1, radial_range=(10.0, 5.0))
    with pytest.raises(ValueError):
        SynthParams(seed=1, n_cameras=0)
    with pytest.raises(ValueError):
        SynthParams(seed=1, camera_fov=0.0)
    with pytest.raises(ValueError):
        SynthParams(seed=1, camera_yaw_offsets=(0.0, 90.0))
    with pytest.raises(ValueError):
        SynthParams(seed=1, n_objects=-1)
    # NaN used to pass as no noise, and infinities became NaN coordinates
    for bad in ({"detection_noise": math.nan}, {"detection_noise": math.inf},
                {"radial_range": (4.0, math.inf)}, {"size_range": (1.0, math.inf)}):
        with pytest.raises(ValueError):
            SynthParams(seed=1, **bad)


def test_generated_objects_respect_radial_range():
    params = SynthParams(seed=19, n_objects=20, radial_range=(8.0, 12.0))
    ds, _ = generate_scene(params)
    for frame in ds.scenes[0].frames:
        for ann in frame.annotations:
            x, y, _ = ann.cuboid.center
            assert 8.0 - 1e-9 <= math.hypot(x, y) <= 12.0 + 1e-9
