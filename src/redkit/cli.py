"""Command-line pipeline: audit, prune, sweep, mm, sim.

Every command reads the canonical scene schema and returns its files as
text, JSON report last; :func:`main` alone writes them into ``--out``
(overridable with the ``REDKIT_OUTPUT_DIR`` environment variable), with
:func:`redkit.ingest.write_files`, once the command has computed them all, so
a rejected command creates no ``--out``. It first cuts an old report to zero
length, so a report that parses came from the run whose files precede it.
``sim``'s scenes are written by :func:`redkit.ingest.write_dataset`. Nothing
embeds timestamps, so repeated runs on identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .geometry import check_threshold
from .ingest import (
    LABEL_SOURCES,
    Dataset,
    ValidationError,
    emit_labels,
    parse_dataset,
    write_dataset,
    write_files,
)
from .multimodal import distance_ttest, match_frame, pooled_sweep
from .multisource import group_stats, overlap_similarity, prune_dataset, sweep_tau
from .overlap import OverlapGraph, build_overlap_graph, preset_nuscenes
from .synth import SynthParams, generate_scene, nuscenes_like_cameras

OUTPUT_DIR_ENV = "REDKIT_OUTPUT_DIR"


def _echo(args: argparse.Namespace) -> dict:
    """A report's ``config``: the command, then every option it parsed, in
    parser order, except the paths; ``--pair-tau`` as ``pair_taus``, sorted,
    the last value winning."""
    config = {}
    for name, value in vars(args).items():
        if name == "pair_tau":
            config["pair_taus"] = {f"{a}:{b}": v
                                   for (a, b), v in sorted(dict(value).items())}
        elif name not in ("dataset", "out", "images"):
            config[name] = value
    return config


def _grouping_input(args: argparse.Namespace
                    ) -> tuple[Dataset, dict[str, OverlapGraph]]:
    """The dataset's annotations and each scene's overlap graph."""
    dataset = parse_dataset(args.dataset, parts=("annotations",))
    if args.overlap_mode == "preset-nuscenes":
        # the preset has no use for --min-overlap, but the report echoes it
        check_threshold(args.min_overlap, "min_overlap")
        g = preset_nuscenes()
        return dataset, {s.scene_id: g for s in dataset.scenes}
    return dataset, {
        s.scene_id: build_overlap_graph(s.cameras, args.min_overlap)
        for s in dataset.scenes
    }


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# audit


def cmd_audit(args: argparse.Namespace) -> dict[str, str]:
    """Inventory a dataset: overlap graph, group counts, completeness
    histogram, and (when images are available) the crop-similarity prescreen.
    """
    dataset, graphs = _grouping_input(args)
    report = {
        "config": _echo(args),
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
        **group_stats(dataset, graphs, args.label_source),
        "cosine_similarity": overlap_similarity(dataset, graphs, args.images),
    }
    return {"audit.json": _json(report)}


# --------------------------------------------------------------------------
# prune / sweep


def cmd_prune(args: argparse.Namespace) -> dict[str, str]:
    """Prune at one threshold and emit the surviving labels."""
    dataset, graphs = _grouping_input(args)
    kept, row = prune_dataset(
        dataset, graphs, args.tau, args.label_source, dict(args.pair_tau))
    files = {f"labels/{name}": text for name, text in emit_labels(dataset, kept).items()}
    report = {
        "config": _echo(args),
        "tau": row.tau,
        "deleted": row.deleted,
        "remaining": row.remaining,
        "tracks": row.tracks,
        "label_files": len(files),
    }
    files["prune_report.json"] = _json(report)
    return files


def cmd_sweep(args: argparse.Namespace) -> dict[str, str]:
    """Prune at a list of thresholds and tabulate the counts as CSV."""
    dataset, graphs = _grouping_input(args)
    rows = sweep_tau(dataset, graphs, args.taus, args.label_source,
                     dict(args.pair_tau))
    lines = ["tau,deleted,remaining,tracks"]
    lines += [
        f"{r.tau:.6f},{r.deleted},{r.remaining},{r.tracks}" for r in rows
    ]
    return {
        "sweep.csv": "\n".join(lines) + "\n",
        "sweep_deleted.xy": "".join(f"{r.tau:.6f} {r.deleted}\n" for r in rows),
        "sweep_remaining.xy": "".join(f"{r.tau:.6f} {r.remaining}\n" for r in rows),
        "sweep_report.json": _json({"config": _echo(args)}),
    }


# --------------------------------------------------------------------------
# mm


def cmd_mm(args: argparse.Namespace) -> dict[str, str]:
    """Cross-modal analysis: per-frame redundancy, distance sweep, t-test."""
    dataset = parse_dataset(args.dataset, parts=("detection_sets",))

    frames = []
    skipped = 0
    for scene in dataset.scenes:
        for frame in scene.frames:
            base = frame.detection_sets.get(args.base_set)
            lidar = frame.detection_sets.get(args.lidar_set)
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
            f"no usable frames: need non-empty {args.base_set!r} and a "
            f"{args.lidar_set!r} detection set"
        )

    matches = [match_frame(base, lidar, args.theta) for _, _, base, lidar in frames]
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
    rows = pooled_sweep(matches, args.t_dist)
    ttest = distance_ttest([base for _, _, base, _ in frames],
                           [m.rr for m in matches], _rr_split(args.rr_split))

    csv_lines = ["t_dist,pruned_count,lost_ratio"]
    csv_lines += [f"{r.t_dist:.6f},{r.pruned_count},{r.lost_ratio:.6f}" for r in rows]
    report = {
        "config": _echo(args),
        "frames_used": len(frames),
        "frames_skipped": skipped,
        "rr_mean": sum(f["rr"] for f in per_frame) / len(per_frame),
        "per_frame_rr": per_frame,
        "t_test": ttest,
    }
    return {
        "mm_sweep.csv": "\n".join(csv_lines) + "\n",
        "mm_lost_ratio.xy": "".join(f"{r.t_dist:.6f} {r.lost_ratio:.6f}\n" for r in rows),
        "mm_ttest.txt": _ttest_text(ttest),
        "mm_report.json": _json(report),
    }


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


def _ttest_text(ttest: dict) -> str:
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
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# sim


def cmd_sim(args: argparse.Namespace) -> dict[str, str]:
    """Generate a synthetic scene and write it in the canonical schema; it
    has no report files.

    Each option is named after its :class:`SynthParams` field; one left
    out, and an empty ``--yaw-offsets`` list, take the field's default.
    ``--nuscenes-ring`` fixes the rig, so it rejects the ring options."""
    ring = {"--n-cameras": args.n_cameras, "--camera-fov": args.camera_fov,
            "--yaw-offsets": args.camera_yaw_offsets}
    given = [option for option, value in ring.items() if value not in (None, ())]
    if args.nuscenes_ring and given:
        raise ValidationError("--nuscenes-ring sets its own cameras; drop "
                              + ", ".join(given))
    params = SynthParams(**{
        f.name: getattr(args, f.name) for f in dataclasses.fields(SynthParams)
        if getattr(args, f.name) not in (None, ())})
    cameras = nuscenes_like_cameras() if args.nuscenes_ring else None
    dataset, _ = generate_scene(params, cameras)
    write_dataset(dataset, args.out)
    return {}


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


def _pair_tau(text: str) -> tuple[tuple[str, str], float]:
    try:
        pair, value = text.split("=", 1)
        cam_a, cam_b = pair.split(":", 1)
        return (cam_a, cam_b), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad pair override {text!r}, expected CAM_A:CAM_B=tau"
        ) from None


def _add_pair_tau(sub: argparse.ArgumentParser, help: str | None = None) -> None:
    sub.add_argument("--pair-tau", type=_pair_tau, action="append", default=[],
                     metavar="CAM_A:CAM_B=TAU", help=help)


def _add_dataset_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True,
                     help="scene file or directory of scene files")
    sub.add_argument("--out", help=f"output directory (or set {OUTPUT_DIR_ENV})")


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    _add_dataset_args(sub)
    sub.add_argument("--overlap-mode", default="calibration",
                     choices=("calibration", "preset-nuscenes"),
                     help="derive pairs from calibration or use the fixed "
                          "six-camera preset")
    sub.add_argument("--label-source", default="native-2d", choices=LABEL_SOURCES,
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
    _add_source_args(p_audit)
    p_audit.add_argument("--images",
                         help="image root laid out as <scene_id>/<timestamp_ns>/"
                              "<camera>.pgm; enables the similarity prescreen")

    p_prune = sub.add_parser("prune", help="delete low-completeness duplicates")
    _add_source_args(p_prune)
    p_prune.add_argument("--tau", type=float, required=True,
                         help="completeness gap above which a duplicate is deleted")
    _add_pair_tau(p_prune, "per-pair override; the smallest threshold on any "
                           "edge inside a group wins")

    p_sweep = sub.add_parser("sweep", help="prune counts across thresholds")
    _add_source_args(p_sweep)
    p_sweep.add_argument("--taus", type=_float_list, required=True,
                         help="comma-separated thresholds")
    _add_pair_tau(p_sweep)

    p_mm = sub.add_parser("mm", help="camera-LiDAR redundancy and distance sweep")
    _add_dataset_args(p_mm)
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

    p_sim = sub.add_parser("sim", help="write a seeded synthetic scene")
    p_sim.add_argument("--out", help=f"output directory (or set {OUTPUT_DIR_ENV})")
    p_sim.add_argument("--seed", type=int, default=0)
    # each option below stores to its SynthParams field and has that
    # field's default
    p_sim.add_argument("--n-cameras", type=int)
    p_sim.add_argument("--camera-fov", type=float)
    p_sim.add_argument("--yaw-offsets", type=_float_list, dest="camera_yaw_offsets",
                       metavar="YAW_OFFSETS",
                       help="comma-separated camera yaws; default evenly spaced")
    p_sim.add_argument("--n-objects", type=int)
    p_sim.add_argument("--n-frames", type=int)
    p_sim.add_argument("--radial-range", type=_float_pair)
    p_sim.add_argument("--size-range", type=_float_pair)
    p_sim.add_argument("--detection-noise", type=float)
    p_sim.add_argument("--drop-rate", type=float)
    p_sim.add_argument("--nuscenes-ring", action="store_true",
                       help="use the standard six-camera rig instead of an even ring")

    return parser


_COMMANDS = {
    "audit": cmd_audit,
    "prune": cmd_prune,
    "sweep": cmd_sweep,
    "mm": cmd_mm,
    "sim": cmd_sim,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in this process uses, built once.

    Parsing leaves a parser unchanged: each call starts from a fresh
    namespace, ``append`` copies its default list before appending, and help
    text reads the terminal width when it is printed.
    """
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        # the variable is a prefix: relative --out paths land under it, and
        # an absolute --out still wins because joining discards the prefix
        args.out = env_out if args.out is None else str(Path(env_out) / args.out)
    # A command builds millions of acyclic objects (decoded JSON, parsed
    # scenes, the grouping index). The cyclic collector would walk them again
    # and again and free nothing: on the 10,000-frame scene of acceptance
    # criterion 10 that was about 40% of the parsing time. Reference counting
    # still frees everything, and the collector runs again once the command
    # returns.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if args.out is None:
            raise ValidationError("no output directory: pass --out or set "
                                  f"{OUTPUT_DIR_ENV}")
        files = _COMMANDS[args.command](args)
        # sim writes its scenes itself, and its --out may name a file
        out = Path(args.out)
        if files:
            # an old report left whole would vouch for a failed run's files;
            # a directory in its place fails the run before any write
            with contextlib.suppress(FileNotFoundError):
                os.truncate(out / next(reversed(files)), 0)
        write_files(out, files)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"redkit {args.command}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
