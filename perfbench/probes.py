"""Per-layer metrics: which redkit calls they observe and how they reduce.

Each hook runs after a traced call returns and counts an outcome of it. The
metrics are per job; ``exact`` marks counts that must repeat exactly for a
fixed seed.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from tracer import LAYERS, SpanSummary, Tracer
from workloads import DETECTION_READERS, MM_THETA


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool = False


PER_LAYER = (
    Metric("ingest.parse_s", "s", "lower"),
    Metric("ingest.parse_calls", "count", "lower", True),
    Metric("ingest.parse_mb_per_s", "MB/s", "higher"),
    Metric("ingest.detections_unused_ratio", "ratio", "lower", True),
    Metric("ingest.emit_s", "s", "lower"),
    Metric("ingest.files_written", "count", "lower", True),
    Metric("ingest.resolve_calls", "count", "lower", True),
    Metric("ingest.self_s", "s", "lower"),
    Metric("geometry.project_calls", "count", "lower", True),
    Metric("geometry.project_s", "s", "lower"),
    Metric("geometry.project_visible_ratio", "ratio", "higher", True),
    Metric("geometry.iou3d_calls", "count", "lower", True),
    Metric("geometry.iou3d_s", "s", "lower"),
    Metric("geometry.iou3d_hit_ratio", "ratio", "higher", True),
    Metric("geometry.self_s", "s", "lower"),
    Metric("overlap.graph_builds", "count", "lower", True),
    Metric("overlap.build_s", "s", "lower"),
    Metric("overlap.self_s", "s", "lower"),
    Metric("multisource.group_s", "s", "lower"),
    Metric("multisource.index_passes", "count", "lower", True),
    Metric("multisource.groups", "count", "lower", True),
    Metric("multisource.deleted_ratio", "ratio", "higher", True),
    Metric("multisource.self_s", "s", "lower"),
    Metric("multimodal.rr_s", "s", "lower"),
    Metric("multimodal.self_s", "s", "lower"),
    Metric("cli.self_s", "s", "lower"),
    Metric("cli.output_bytes", "bytes", "lower", True),
    Metric("synth.generate_s", "s", "lower"),
    Metric("synth.reference_s", "s", "lower"),
    Metric("trace.job_s", "s", "lower"),
    Metric("trace.gap_s", "s", "lower"),
    Metric("trace.correction_s", "s", "lower"),
    Metric("trace.spans", "count", "lower", True),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# --------------------------------------------------------------------------
# hooks


def _parse_bytes(tracer: Tracer, args: tuple, result) -> None:
    path = Path(args[0])
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    tracer.count("ingest.parse_bytes", sum(f.stat().st_size for f in files))


def _files_written(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("ingest.files_written", len(result))


def _project_visible(tracer: Tracer, args: tuple, result) -> None:
    if result is not None and result[1].area > 0.0:
        tracer.count("geometry.project_visible")


def _iou3d_hit(tracer: Tracer, args: tuple, result) -> None:
    if result >= MM_THETA:
        tracer.count("geometry.iou3d_hits")


def _groups(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("multisource.groups", len(result.groups))


def _rows(tracer: Tracer, rows) -> None:
    for row in rows:
        tracer.count("multisource.deleted", row.deleted)
        tracer.count("multisource.labels", row.deleted + row.remaining)


POST_HOOKS = {
    "ingest.parse_dataset": _parse_bytes,
    "ingest.emit_labels": _files_written,
    "geometry.project_cuboid": _project_visible,
    "geometry.iou3d": _iou3d_hit,
    "multisource._index_dataset": _groups,
    "multisource.prune_dataset": lambda t, a, r: _rows(t, [r[1]]),
    "multisource.sweep_tau": lambda t, a, r: _rows(t, r),
}
DETECTION_PARSER = "ingest._parse_detection"
COUNT_ONLY = (DETECTION_PARSER,)


# --------------------------------------------------------------------------
# reduction of one traced job


def layer_metrics(s: SpanSummary, output_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced job except the set-up ones and
    the overhead ratio, which need the untraced runs."""
    c = s.counters
    parsed = {k.split("@", 1)[1]: v for k, v in c.items()
              if k.startswith(DETECTION_PARSER + "@")}
    unused = sum(v for cmd, v in parsed.items() if cmd not in DETECTION_READERS)
    parse_s = s.total_s("ingest.parse_dataset")
    job_s = s.wall_s("bench.job")
    m = {
        "ingest.parse_s": parse_s,
        "ingest.parse_calls": s.calls("ingest.parse_dataset"),
        "ingest.parse_mb_per_s": _ratio(c.get("ingest.parse_bytes", 0) / 1e6, parse_s),
        "ingest.detections_unused_ratio": _ratio(unused, sum(parsed.values())),
        "ingest.emit_s": s.total_s("ingest.emit_labels"),
        "ingest.files_written": int(c.get("ingest.files_written", 0)),
        "ingest.resolve_calls": s.calls("ingest.resolve_box"),
        "geometry.project_calls": s.calls("geometry.project_cuboid"),
        "geometry.project_s": s.total_s("geometry.project_cuboid"),
        "geometry.project_visible_ratio": _ratio(
            c.get("geometry.project_visible", 0), s.calls("geometry.project_cuboid")),
        "geometry.iou3d_calls": s.calls("geometry.iou3d"),
        "geometry.iou3d_s": s.total_s("geometry.iou3d"),
        "geometry.iou3d_hit_ratio": _ratio(
            c.get("geometry.iou3d_hits", 0), s.calls("geometry.iou3d")),
        "overlap.graph_builds": s.calls("overlap.build_overlap_graph"),
        "overlap.build_s": s.total_s("overlap.build_overlap_graph"),
        "multisource.group_s": sum(s.self_s(f"multisource.{f}") for f in
                                   ("prune_dataset", "sweep_tau", "_index_dataset")),
        "multisource.index_passes": s.calls("multisource._index_dataset"),
        "multisource.groups": int(c.get("multisource.groups", 0)),
        "multisource.deleted_ratio": _ratio(c.get("multisource.deleted", 0),
                                            c.get("multisource.labels", 0)),
        "multimodal.rr_s": s.total_s("multimodal.redundancy_ratio"),
        "cli.output_bytes": output_bytes,
        "trace.job_s": job_s,
        "trace.gap_s": s.layer_self_s("bench"),
        "trace.correction_s": s.correction_s,
        "trace.spans": s.spans,
    }
    for layer in LAYERS:
        if layer != "synth":
            m[f"{layer}.self_s"] = s.layer_self_s(layer)
    return m
