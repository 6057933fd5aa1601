"""The benchmark workloads: seeded inputs, request plans and output checks.

Set-up (:func:`prepare`, run in a child process by ``prepare.py``) generates
each workload's datasets with ``redkit.synth``, writes them with
``redkit.ingest.write_dataset``, and computes the expected outputs with the
brute-force references in ``redkit.synth``. It leaves behind the data files
and ``plan.json``: the CLI requests of one job, each with the outputs it must
produce. The timed part reads only those files.

Call :func:`checkout.use_checkout_source` before importing this module.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

from redkit.geometry import normalize_deg
from redkit.ingest import write_dataset
from redkit.overlap import build_overlap_graph
from redkit.synth import (
    SynthParams,
    brute_force_prune,
    brute_force_rr,
    generate_scene,
    nuscenes_like_cameras,
)
from speed import SpeedProbe

# desk_native: criterion 10's job shape on a twentieth of its frames
DESK_FRAMES = 500
DESK_OBJECTS = 8
PRUNE_TAU = 0.3
SWEEP_TAUS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

# rig_requests: one small scene per request on its own calibrated ring; 200
# distinct requests per job, so that the 5% beyond request_p95_ms holds ten
# different inputs
RIG_SCENES = 200
RIG_FRAMES = 3
RIG_OBJECTS = 12
RIG_CAMERAS = (8, 12)
RIG_FOV = (50.0, 70.0)
RIG_YAW_JITTER = 2.0
RIG_PAIR_TAUS = (0.05, 0.15, 0.5, 0.8)

# mm_dense: crowded frames for the camera-LiDAR pipeline, one request per
# short sequence, 200 distinct sequences per job for the same reason
MM_SEQUENCES = 200
MM_FRAMES = 2
MM_OBJECTS = 30
MM_RADIAL = (4.0, 60.0)
MM_DROP = 0.3
MM_NOISE = 0.2
MM_THETA = 0.5
MM_T_DIST = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

WORKLOADS = ("desk_native", "rig_requests", "mm_dense")
# commands that read the detection sets they parse
DETECTION_READERS = frozenset({"mm"})


def _seed_for(workload: str, seed: int) -> int:
    """Independent generator seeds per workload from one benchmark seed."""
    return seed * 1_000_003 + WORKLOADS.index(workload) + 1


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _tracks(kept) -> int:
    return len({(sid, track) for sid, _, _, track in kept})


# --------------------------------------------------------------------------
# generation: (file name, dataset, per-dataset extras) for each dataset


def _generate_desk(seed: int):
    params = SynthParams(seed=seed, n_objects=DESK_OBJECTS, n_frames=DESK_FRAMES)
    dataset, _ = generate_scene(params, cameras=nuscenes_like_cameras())
    return [("desk.json", dataset, {})]


def _generate_rig(seed: int):
    # camera counts and FOVs are stratified over the pool, so a pass costs
    # about the same for every seed; the seed moves yaws, pairs and objects
    rng = random.Random(seed)
    lo, hi = RIG_CAMERAS
    out = []
    for i in range(RIG_SCENES):
        n_cams = lo + i % (hi - lo + 1)
        fov = RIG_FOV[0] + (RIG_FOV[1] - RIG_FOV[0]) * (i + rng.random()) / RIG_SCENES
        spin = 360.0 * rng.random()
        yaws = tuple(
            normalize_deg(spin + j * 360.0 / n_cams
                          + RIG_YAW_JITTER * (2.0 * rng.random() - 1.0))
            for j in range(n_cams)
        )
        params = SynthParams(seed=seed + i, n_cameras=n_cams, camera_fov=fov,
                             camera_yaw_offsets=yaws, n_objects=RIG_OBJECTS,
                             n_frames=RIG_FRAMES)
        dataset, _ = generate_scene(params)
        pairs = build_overlap_graph(dataset.scenes[0].cameras).pairs
        if not pairs:
            raise RuntimeError(f"rig scene {i} has no overlapping camera pair")
        pair = pairs[int(rng.random() * len(pairs))]
        tau = RIG_PAIR_TAUS[int(rng.random() * len(RIG_PAIR_TAUS))]
        out.append((f"rig{i:02d}.json", dataset,
                    {"pair": (pair.camera_a, pair.camera_b, tau)}))
    return out


def _generate_mm(seed: int):
    out = []
    for i in range(MM_SEQUENCES):
        params = SynthParams(seed=seed + i, n_objects=MM_OBJECTS, n_frames=MM_FRAMES,
                             radial_range=MM_RADIAL, drop_rate=MM_DROP,
                             detection_noise=MM_NOISE)
        dataset, _ = generate_scene(params, cameras=nuscenes_like_cameras())
        out.append((f"mm{i:02d}.json", dataset, {}))
    return out


# --------------------------------------------------------------------------
# planning: requests of one job and the outputs each must produce


def _label_files(dataset) -> int:
    return sum(len(s.frames) * len(s.cameras) for s in dataset.scenes)


def _plan_desk(generated):
    (name, dataset, _), = generated
    graph = build_overlap_graph(dataset.scenes[0].cameras)
    everything = brute_force_prune(dataset, graph, 1.0)
    labels = len(everything)
    rows = []
    for tau in SWEEP_TAUS:
        kept = brute_force_prune(dataset, graph, tau)
        rows.append([tau, labels - len(kept), len(kept), _tracks(kept)])
    prune_row = next(r for r in rows if r[0] == PRUNE_TAU)
    requests = [
        {"key": "audit", "command": "audit", "dataset": name, "args": [],
         "expect": {"labels": labels, "tracks": _tracks(everything)}},
        {"key": "prune", "command": "prune", "dataset": name,
         "args": ["--tau", f"{PRUNE_TAU:g}"],
         "expect": {"deleted": prune_row[1], "remaining": prune_row[2],
                    "tracks": prune_row[3], "label_files": _label_files(dataset)}},
        {"key": "sweep", "command": "sweep", "dataset": name,
         "args": ["--taus", _csv(SWEEP_TAUS)], "expect": {"rows": rows}},
    ]
    return labels, requests


def _plan_rig(generated):
    items = 0
    requests = []
    for name, dataset, extra in generated:
        graph = build_overlap_graph(dataset.scenes[0].cameras)
        cam_a, cam_b, pair_tau = extra["pair"]
        labels = len(brute_force_prune(dataset, graph, 1.0, "projected-3d"))
        kept = brute_force_prune(dataset, graph, PRUNE_TAU, "projected-3d",
                                 {(cam_a, cam_b): pair_tau})
        items += labels
        requests.append({
            "key": name[:-len(".json")], "command": "prune", "dataset": name,
            "args": ["--tau", f"{PRUNE_TAU:g}", "--label-source", "projected-3d",
                     "--pair-tau", f"{cam_a}:{cam_b}={pair_tau:g}"],
            "expect": {"deleted": labels - len(kept), "remaining": len(kept),
                       "tracks": _tracks(kept),
                       "label_files": _label_files(dataset)},
        })
    return items, requests


def _plan_mm(generated):
    items = 0
    requests = []
    for name, dataset, _ in generated:
        frames = [f for s in dataset.scenes for f in s.frames]
        rr = [brute_force_rr(f.detection_sets["fusion_baseline"],
                             f.detection_sets["lidar_only"], MM_THETA)
              for f in frames]
        items += sum(len(f.detection_sets["fusion_baseline"]) for f in frames)
        requests.append({
            "key": name[:-len(".json")], "command": "mm", "dataset": name,
            "args": ["--theta", f"{MM_THETA:g}", "--t-dist", _csv(MM_T_DIST)],
            "expect": {"rr": rr},
        })
    return items, requests


_GENERATORS = {"desk_native": _generate_desk, "rig_requests": _generate_rig,
               "mm_dense": _generate_mm}
_PLANNERS = {"desk_native": _plan_desk, "rig_requests": _plan_rig,
             "mm_dense": _plan_mm}


def prepare(workload: str, seed: int, out: Path) -> dict:
    """Generate, write and reference one workload under ``out``.

    Returns the phases' CPU times scaled to reference speed (see
    ``speed.py``), the wall time of the whole, and a digest of every file
    written, so repeated set-ups can be checked for identical output.
    """
    out.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    clock, cpu_clock = time.perf_counter, time.process_time
    spans = []

    def timed(fn):
        busy = probe.busy_s
        cpu = cpu_clock()
        start = clock()
        result = fn()
        end = clock()
        busy = probe.busy_s - busy
        spans.append((start, end, end - start - busy, cpu_clock() - cpu - busy))
        return result

    with probe.running():
        generated = timed(lambda: _GENERATORS[workload](_seed_for(workload, seed)))
        timed(lambda: [write_dataset(dataset, out / "data" / name)
                       for name, dataset, _ in generated])
        items, requests = timed(lambda: _PLANNERS[workload](generated))
    # each phase's CPU time scaled to reference speed by the slowdown near it
    phases = [cpu / probe.slowdown(start, end) for start, end, _, cpu in spans]
    plan = {"workload": workload, "seed": seed, "items": items,
            "requests": requests}
    (out / "plan.json").write_text(json.dumps(plan, indent=1) + "\n",
                                   encoding="utf-8")
    generate_s, write_s, reference_s = phases
    return {"generate_s": generate_s, "write_s": write_s,
            "reference_s": reference_s, "setup_s": sum(phases),
            "wall_s": sum(wall for _, _, wall, _ in spans),
            "digest": tree_digest(out)[0]}


# --------------------------------------------------------------------------
# output checks


def tree_digest(root: Path, written_after: int = 0) -> tuple[str, int, int, int]:
    """SHA-256 over the relative paths and bytes of every file under ``root``.

    Returns ``(digest, bytes, label_lines, stale)``: label lines are the
    newline count of the ``*.txt`` files under any ``labels`` directory, and
    stale counts files last modified before ``written_after`` (ns).
    """
    h = hashlib.sha256()
    total = 0
    lines = 0
    stale = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
        total += len(data)
        if path.parent.name == "labels" and path.suffix == ".txt":
            lines += data.count(b"\n")
        if path.stat().st_mtime_ns < written_after:
            stale += 1
    return h.hexdigest(), total, lines, stale


def check_output(request: dict, out_dir: Path, label_lines: int) -> list[str]:
    """Compare one request's outputs with its plan; returns the mismatches."""
    expect = request["expect"]
    command = request["command"]
    problems = []

    def differ(what, got, want):
        if got != want:
            problems.append(f"{request['key']}: {what} is {got!r}, expected {want!r}")

    try:
        if command == "audit":
            totals = json.loads((out_dir / "audit.json").read_text())["label_totals"]
            differ("labels", totals["labels"], expect["labels"])
            differ("tracks", totals["tracks"], expect["tracks"])
        elif command == "prune":
            report = json.loads((out_dir / "prune_report.json").read_text())
            for key in ("deleted", "remaining", "tracks", "label_files"):
                differ(key, report[key], expect[key])
            differ("emitted label lines", label_lines, expect["remaining"])
        elif command == "sweep":
            lines = (out_dir / "sweep.csv").read_text().splitlines()
            rows = [[float(t), int(d), int(r), int(k)]
                    for t, d, r, k in (line.split(",") for line in lines[1:])]
            differ("sweep rows", rows, expect["rows"])
        elif command == "mm":
            report = json.loads((out_dir / "mm_report.json").read_text())
            differ("per-frame rr", [f["rr"] for f in report["per_frame_rr"]],
                   expect["rr"])
            differ("frames skipped", report["frames_skipped"], 0)
        else:
            problems.append(f"{request['key']}: no check for command {command!r}")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"{request['key']}: unreadable output ({exc!r})")
    return problems
