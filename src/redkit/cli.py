"""Command-line pipeline: audit, prune, sweep, mm, sim.

Every command reads the canonical scene schema and writes its outputs under
``--out`` (overridable with the ``REDKIT_OUTPUT_DIR`` environment variable).
Reports are JSON, sweep outputs CSV; nothing embeds timestamps, so repeated
runs on identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

from .ingest import (
    Dataset,
    ParseError,
    ValidationError,
    emit_labels,
    parse_dataset,
    parse_pgm,
    write_dataset,
)
from .multimodal import distance_ttest, match_frame, pooled_sweep
from .multisource import (
    cosine_similarity,
    crop_overlap,
    group_stats,
    prune_dataset,
    sweep_tau,
)
from .overlap import OverlapGraph, build_overlap_graph, preset_nuscenes
from .synth import SynthParams, generate_scene, nuscenes_like_cameras

OUTPUT_DIR_ENV = "REDKIT_OUTPUT_DIR"


@dataclass
class RunConfig:
    """Everything a command run depends on; echoed into its reports."""

    command: str
    dataset: str | None = None
    output_dir: str | None = None
    overlap_mode: str = "calibration"
    label_source: str = "native-2d"
    min_overlap: float = 1.0
    tau: float = 0.5
    pair_taus: dict[tuple[str, str], float] = field(default_factory=dict)
    taus: tuple[float, ...] = ()
    theta: float = 0.5
    t_dist: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    rr_split: str = "median"
    base_set: str = "fusion_baseline"
    lidar_set: str = "lidar_only"
    images: str | None = None
    emit_plot_data: bool = False
    seed: int = 0
    n_cameras: int = 6
    camera_fov: float = 70.0
    yaw_offsets: tuple[float, ...] | None = None
    n_objects: int = 8
    n_frames: int = 1
    radial_range: tuple[float, float] = (4.0, 40.0)
    size_range: tuple[float, float] = (1.0, 4.0)
    detection_noise: float = 0.0
    drop_rate: float = 0.0
    nuscenes_ring: bool = False

    def echo(self) -> dict:
        """Analysis parameters for report embedding (paths excluded)."""
        out = {
            "command": self.command,
            "overlap_mode": self.overlap_mode,
            "label_source": self.label_source,
            "min_overlap": self.min_overlap,
        }
        if self.command == "prune":
            out["tau"] = self.tau
        if self.command == "sweep":
            out["taus"] = list(self.taus)
        if self.command in ("prune", "sweep"):
            out["pair_taus"] = {
                f"{a}:{b}": v for (a, b), v in sorted(self.pair_taus.items())
            }
        if self.command == "mm":
            out.update(
                theta=self.theta,
                t_dist=list(self.t_dist),
                rr_split=self.rr_split,
                base_set=self.base_set,
                lidar_set=self.lidar_set,
            )
        return out


def _out_dir(cfg: RunConfig) -> Path:
    if cfg.output_dir is None:
        raise ValidationError("no output directory: pass --out or set "
                              f"{OUTPUT_DIR_ENV}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_graphs(dataset: Dataset, cfg: RunConfig) -> dict[str, OverlapGraph]:
    if cfg.overlap_mode == "preset-nuscenes":
        g = preset_nuscenes()
        return {s.scene_id: g for s in dataset.scenes}
    if cfg.overlap_mode == "calibration":
        return {
            s.scene_id: build_overlap_graph(s.cameras, cfg.min_overlap)
            for s in dataset.scenes
        }
    raise ValidationError(f"unknown overlap mode {cfg.overlap_mode!r}")


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# audit


def cmd_audit(cfg: RunConfig) -> Path:
    """Inventory a dataset: overlap graph, group counts, completeness
    histogram, and (when images are available) the crop-similarity prescreen.
    """
    dataset = parse_dataset(cfg.dataset)
    graphs = _build_graphs(dataset, cfg)
    out = _out_dir(cfg)
    report = {
        "config": cfg.echo(),
        "scenes": [
            {
                "scene_id": s.scene_id,
                "cameras": [c.name for c in s.cameras],
                "frames": len(s.frames),
                "overlap_graph": [
                    {
                        "camera_a": p.camera_a,
                        "camera_b": p.camera_b,
                        "overlap_degrees": p.overlap_degrees,
                        "arc": list(p.arc),
                    }
                    for p in graphs[s.scene_id].pairs
                ],
            }
            for s in dataset.scenes
        ],
        **group_stats(dataset, graphs, cfg.label_source),
        "cosine_similarity": _similarity_section(dataset, graphs, cfg),
    }
    return _write_json(out / "audit.json", report)


def _similarity_section(dataset: Dataset, graphs: dict[str, OverlapGraph],
                        cfg: RunConfig) -> dict:
    if cfg.images is None:
        return {"status": "skipped", "reason": "no images supplied"}
    root = Path(cfg.images)
    per_scene: dict[str, dict] = {}
    compared = 0
    for scene in dataset.scenes:
        cam_map = scene.camera_map
        pair_stats: dict[str, dict] = {}
        for pair in graphs[scene.scene_id].pairs:
            sims = []
            for frame in scene.frames:
                base = root / scene.scene_id / str(frame.timestamp_ns)
                path_a = base / f"{pair.camera_a}.pgm"
                path_b = base / f"{pair.camera_b}.pgm"
                if not path_a.is_file() or not path_b.is_file():
                    continue
                crop_a = crop_overlap(
                    parse_pgm(path_a.read_bytes()), cam_map[pair.camera_a], pair.arc)
                crop_b = crop_overlap(
                    parse_pgm(path_b.read_bytes()), cam_map[pair.camera_b], pair.arc)
                sims.append(cosine_similarity(crop_a, crop_b))
            key = f"{pair.camera_a}|{pair.camera_b}"
            if sims:
                compared += len(sims)
                pair_stats[key] = {
                    "mean": sum(sims) / len(sims),
                    "frames": len(sims),
                }
            else:
                pair_stats[key] = {"mean": None, "frames": 0}
        per_scene[scene.scene_id] = pair_stats
    if compared == 0:
        return {"status": "skipped", "reason": "no frame had images for any pair"}
    return {"status": "ok", "per_scene": per_scene}


# --------------------------------------------------------------------------
# prune / sweep


def cmd_prune(cfg: RunConfig) -> Path:
    """Prune at one threshold and emit the surviving labels."""
    dataset = parse_dataset(cfg.dataset)
    graphs = _build_graphs(dataset, cfg)
    out = _out_dir(cfg)
    kept, row = prune_dataset(
        dataset, graphs, cfg.tau, cfg.label_source, cfg.pair_taus)
    files = emit_labels(dataset, kept, out / "labels", cfg.label_source)
    report = {
        "config": cfg.echo(),
        "tau": row.tau,
        "deleted": row.deleted,
        "remaining": row.remaining,
        "tracks": row.tracks,
        "label_files": len(files),
    }
    return _write_json(out / "prune_report.json", report)


def cmd_sweep(cfg: RunConfig) -> Path:
    """Prune at a list of thresholds and tabulate the counts as CSV."""
    dataset = parse_dataset(cfg.dataset)
    graphs = _build_graphs(dataset, cfg)
    out = _out_dir(cfg)
    rows = sweep_tau(dataset, graphs, cfg.taus, cfg.label_source, cfg.pair_taus)
    lines = ["tau,deleted,remaining,tracks"]
    lines += [
        f"{r.tau:.6f},{r.deleted},{r.remaining},{r.tracks}" for r in rows
    ]
    target = out / "sweep.csv"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    if cfg.emit_plot_data:
        (out / "sweep_deleted.xy").write_text(
            "".join(f"{r.tau:.6f} {r.deleted}\n" for r in rows),
            encoding="utf-8", newline="\n")
        (out / "sweep_remaining.xy").write_text(
            "".join(f"{r.tau:.6f} {r.remaining}\n" for r in rows),
            encoding="utf-8", newline="\n")
    return target


# --------------------------------------------------------------------------
# mm


def cmd_mm(cfg: RunConfig) -> Path:
    """Cross-modal analysis: per-frame redundancy, distance sweep, t-test."""
    dataset = parse_dataset(cfg.dataset)
    out = _out_dir(cfg)

    frames = []
    skipped = 0
    for scene in dataset.scenes:
        for frame in scene.frames:
            base = frame.detection_sets.get(cfg.base_set)
            lidar = frame.detection_sets.get(cfg.lidar_set)
            if base is None or lidar is None or len(base) == 0:
                skipped += 1
                print(
                    f"redkit mm: skipping frame {frame.timestamp_ns} of scene "
                    f"{scene.scene_id!r}: missing or empty detection sets",
                    file=sys.stderr,
                )
                continue
            frames.append((scene.scene_id, frame.timestamp_ns, base, lidar))
    if not frames:
        raise ValidationError(
            f"no usable frames: need non-empty {cfg.base_set!r} and a "
            f"{cfg.lidar_set!r} detection set"
        )

    matches = [match_frame(base, lidar, cfg.theta) for _, _, base, lidar in frames]
    per_frame = [
        {
            "scene_id": sid,
            "timestamp_ns": ts,
            "rr": match.rr,
            "n_base": len(base),
            "n_lidar": len(lidar),
        }
        for (sid, ts, base, lidar), match in zip(frames, matches)
    ]
    rows = pooled_sweep(matches, cfg.t_dist)
    ttest = distance_ttest([base for _, _, base, _ in frames],
                           [m.rr for m in matches], _rr_split(cfg.rr_split))

    csv_lines = ["t_dist,pruned_count,lost_ratio"]
    csv_lines += [f"{r.t_dist:.6f},{r.pruned_count},{r.lost_ratio:.6f}" for r in rows]
    csv_path = out / "mm_sweep.csv"
    csv_path.write_text("\n".join(csv_lines) + "\n", encoding="utf-8", newline="\n")
    if cfg.emit_plot_data:
        (out / "mm_lost_ratio.xy").write_text(
            "".join(f"{r.t_dist:.6f} {r.lost_ratio:.6f}\n" for r in rows),
            encoding="utf-8", newline="\n")
    _write_ttest(out / "mm_ttest.txt", ttest)

    report = {
        "config": cfg.echo(),
        "frames_used": len(frames),
        "frames_skipped": skipped,
        "rr_mean": sum(f["rr"] for f in per_frame) / len(per_frame),
        "per_frame_rr": per_frame,
        "t_test": ttest,
    }
    _write_json(out / "mm_report.json", report)
    return csv_path


def _rr_split(text: str) -> float | None:
    """``--rr-split`` as a number, or ``None`` for the median."""
    if text == "median":
        return None
    try:
        split = float(text)
    except ValueError:
        split = math.nan
    if not math.isfinite(split):
        raise ValidationError("--rr-split must be 'median' or a finite number, "
                              f"got {text!r}")
    return split


def _write_ttest(path: Path, ttest: dict) -> None:
    lines = [
        "welch t-test: ego distance, high-redundancy vs low-redundancy frames",
        f"split = {ttest['split']:.6g} ({ttest['split_rule']})",
        f"n_high = {ttest['n_high']}",
        f"n_low = {ttest['n_low']}",
    ]
    if ttest["status"] == "ok":
        lines += [
            f"mean_high = {ttest['mean_high']:.6g}",
            f"mean_low = {ttest['mean_low']:.6g}",
            f"t = {ttest['t']:.6g}",
            f"df = {ttest['df']:.6g}",
            f"p = {ttest['p']:.6g}",
        ]
    else:
        lines.append(f"skipped: {ttest['reason']}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# --------------------------------------------------------------------------
# sim


def cmd_sim(cfg: RunConfig) -> list[Path]:
    """Generate a synthetic scene and write it in the canonical schema."""
    params = SynthParams(
        seed=cfg.seed,
        n_cameras=cfg.n_cameras,
        camera_fov=cfg.camera_fov,
        camera_yaw_offsets=cfg.yaw_offsets,
        n_objects=cfg.n_objects,
        n_frames=cfg.n_frames,
        radial_range=cfg.radial_range,
        size_range=cfg.size_range,
        detection_noise=cfg.detection_noise,
        drop_rate=cfg.drop_rate,
        min_overlap=cfg.min_overlap,
    )
    cameras = nuscenes_like_cameras() if cfg.nuscenes_ring else None
    dataset, _ = generate_scene(params, cameras)
    return write_dataset(dataset, _out_dir(cfg))


# --------------------------------------------------------------------------
# argument plumbing


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from None


def _float_pair(text: str) -> tuple[float, float]:
    values = _float_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two numbers, got {text!r}")
    return values[0], values[1]


def _pair_tau(text: str) -> tuple[str, str, float]:
    try:
        pair, value = text.split("=", 1)
        cam_a, cam_b = pair.split(":", 1)
        return cam_a, cam_b, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad pair override {text!r}, expected CAM_A:CAM_B=tau"
        ) from None


def _add_dataset_args(sub: argparse.ArgumentParser, with_source: bool = True) -> None:
    sub.add_argument("--dataset", required=True,
                     help="scene file or directory of scene files")
    sub.add_argument("--out", default=None,
                     help=f"output directory (or set {OUTPUT_DIR_ENV})")
    if with_source:
        sub.add_argument("--overlap-mode", default="calibration",
                         choices=("calibration", "preset-nuscenes"),
                         help="derive pairs from calibration or use the fixed "
                              "six-camera preset")
        sub.add_argument("--label-source", default="native-2d",
                         choices=("native-2d", "projected-3d"),
                         help="which 2D boxes feed grouping and emission")
        sub.add_argument("--min-overlap", type=float, default=1.0,
                         help="degrees below which a camera pair is not an edge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redkit",
        description="Measure and prune annotation redundancy in multi-camera "
                    "and camera-LiDAR datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="inventory overlaps, groups and scores")
    _add_dataset_args(p_audit)
    p_audit.add_argument("--images", default=None,
                         help="image root laid out as <scene_id>/<timestamp_ns>/"
                              "<camera>.pgm; enables the similarity prescreen")

    p_prune = sub.add_parser("prune", help="delete low-completeness duplicates")
    _add_dataset_args(p_prune)
    p_prune.add_argument("--tau", type=float, required=True,
                         help="completeness gap above which a duplicate is deleted")
    p_prune.add_argument("--pair-tau", type=_pair_tau, action="append", default=[],
                         metavar="CAM_A:CAM_B=TAU",
                         help="per-pair override; the smallest threshold on any "
                              "edge inside a group wins")

    p_sweep = sub.add_parser("sweep", help="prune counts across thresholds")
    _add_dataset_args(p_sweep)
    p_sweep.add_argument("--taus", type=_float_list, required=True,
                         help="comma-separated thresholds")
    p_sweep.add_argument("--pair-tau", type=_pair_tau, action="append", default=[],
                         metavar="CAM_A:CAM_B=TAU")
    p_sweep.add_argument("--emit-plot-data", action="store_true",
                         help="also write x/y series files")

    p_mm = sub.add_parser("mm", help="camera-LiDAR redundancy and distance sweep")
    _add_dataset_args(p_mm, with_source=False)
    p_mm.add_argument("--theta", type=float, default=0.5,
                      help="3D IoU at or above which boxes match")
    p_mm.add_argument("--t-dist", type=_float_list,
                      default=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                      help="comma-separated distance thresholds in meters")
    p_mm.add_argument("--rr-split", default="median",
                      help="redundancy split point for the t-test: 'median' or a value")
    p_mm.add_argument("--base-set", default="fusion_baseline",
                      help="detection set treated as the baseline")
    p_mm.add_argument("--lidar-set", default="lidar_only",
                      help="detection set subjected to distance pruning")
    p_mm.add_argument("--emit-plot-data", action="store_true")

    p_sim = sub.add_parser("sim", help="write a seeded synthetic scene")
    p_sim.add_argument("--out", default=None,
                       help=f"output directory (or set {OUTPUT_DIR_ENV})")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n-cameras", type=int, default=6)
    p_sim.add_argument("--camera-fov", type=float, default=70.0)
    p_sim.add_argument("--yaw-offsets", type=_float_list, default=None,
                       help="comma-separated camera yaws; default evenly spaced")
    p_sim.add_argument("--n-objects", type=int, default=8)
    p_sim.add_argument("--n-frames", type=int, default=1)
    p_sim.add_argument("--radial-range", type=_float_pair, default=(4.0, 40.0))
    p_sim.add_argument("--size-range", type=_float_pair, default=(1.0, 4.0))
    p_sim.add_argument("--detection-noise", type=float, default=0.0)
    p_sim.add_argument("--drop-rate", type=float, default=0.0)
    p_sim.add_argument("--min-overlap", type=float, default=1.0)
    p_sim.add_argument("--nuscenes-ring", action="store_true",
                       help="use the standard six-camera rig instead of an even ring")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for f in fields(RunConfig):
        if hasattr(args, f.name):
            setattr(cfg, f.name, getattr(args, f.name))
    cfg.output_dir = getattr(args, "out", None)
    if hasattr(args, "pair_tau"):
        cfg.pair_taus = {(a, b): v for a, b, v in args.pair_tau}
    if hasattr(args, "yaw_offsets"):
        # an empty list means the default even spacing
        cfg.yaw_offsets = args.yaw_offsets or None
    return cfg


_COMMANDS = {
    "audit": cmd_audit,
    "prune": cmd_prune,
    "sweep": cmd_sweep,
    "mm": cmd_mm,
    "sim": cmd_sim,
}


def main(argv: Sequence[str] | None = None) -> int:
    import os

    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        # the variable is a prefix: relative --out paths land under it, and
        # an absolute --out still wins because joining discards the prefix
        if cfg.output_dir is None:
            cfg.output_dir = env_out
        else:
            cfg.output_dir = str(Path(env_out) / cfg.output_dir)
    # A command builds millions of acyclic objects (decoded JSON, parsed
    # scenes, the grouping index). The cyclic collector would walk them again
    # and again and free nothing: on the 10,000-frame scene of acceptance
    # criterion 10 that was about 40% of the parsing time. Reference counting
    # still frees everything, and the collector runs again once the command
    # returns.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _COMMANDS[cfg.command](cfg)
    except (ParseError, ValidationError, ValueError, RuntimeError, OSError) as exc:
        print(f"redkit {cfg.command}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
