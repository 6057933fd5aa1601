"""Where do surround-view cameras overlap?

Builds viewing arcs from camera calibration, intersects them pairwise, and
prints the resulting overlap graph. The derived graph for a standard
six-camera ring is then compared against the shipped preset.
"""

from redkit.overlap import build_overlap_graph, preset_nuscenes, view_arc
from redkit.synth import camera_at_yaw, nuscenes_like_cameras


def show_graph(title, graph):
    print(f"\n{title}")
    print(f"{'pair':42s} {'overlap':>8s}  arc (deg)")
    for pair in graph.pairs:
        name = f"{pair.camera_a} / {pair.camera_b}"
        start, end = pair.arc
        print(f"{name:42s} {pair.overlap_degrees:7.2f}°  [{start:.1f}, {end:.1f}]")


def main():
    cameras = nuscenes_like_cameras()
    print("per-camera viewing arcs (center, half-width):")
    for cam in cameras:
        arc = view_arc(cam)
        print(f"  {arc.camera:16s} {arc.center:7.1f}°  ±{arc.half_width:.1f}°")

    derived = build_overlap_graph(cameras)
    show_graph("overlap graph derived from calibration:", derived)
    show_graph("shipped preset (same rig, nominal angles):", preset_nuscenes())

    # a custom rig: four wide cameras at the diagonals
    rig = [camera_at_yaw(f"CAM_{i}", 45.0 + 90.0 * i, fov_deg=100.0) for i in range(4)]
    show_graph("custom four-camera rig:", build_overlap_graph(rig))


if __name__ == "__main__":
    main()
