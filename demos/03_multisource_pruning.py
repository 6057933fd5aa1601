"""Cross-camera duplicate labels and threshold pruning.

Generates a synthetic surround-view scene, counts the per-object redundancy
groups in camera-overlap regions per camera pair, histograms the
completeness (BCS) scores of their members, prunes at one threshold, and
then sweeps the threshold to show the deletion/retention trade-off. Track
counts stay constant because the most complete observation of every object
survives.
"""

from redkit.multisource import group_stats, prune_dataset, sweep_tau
from redkit.overlap import build_overlap_graph
from redkit.synth import SynthParams, generate_scene, nuscenes_like_cameras


def main():
    params = SynthParams(seed=424_242, n_objects=14, n_frames=5)
    dataset, truth = generate_scene(params, cameras=nuscenes_like_cameras())
    scene = dataset.scenes[0]
    g = build_overlap_graph(scene.cameras)
    graphs = {s.scene_id: g for s in dataset.scenes}

    total = sum(len(a.boxes2d) for f in scene.frames for a in f.annotations)
    print(f"scene {scene.scene_id}: {len(scene.frames)} frames, {total} 2D labels")

    stats = group_stats(dataset, graphs)
    print(f"\nredundancy groups: {stats['label_totals']['groups']} over all frames")
    print("groups per overlapping camera pair:")
    for pair, count in stats["per_pair_group_counts"].items():
        print(f"  {pair}: {count}")
    print("BCS of the grouped observations:")
    edges = stats["bcs_histogram"]["bin_edges"]
    for lo, hi, count in zip(edges, edges[1:], stats["bcs_histogram"]["counts"]):
        if count:
            # a score of exactly 1 falls in the last bin
            close = "]" if hi == edges[-1] else ")"
            print(f"  [{lo:.2f}, {hi:.2f}{close} {'#' * count} {count}")

    tau = 0.3
    kept, row = prune_dataset(dataset, graphs, tau)
    print(f"\npruning at tau={tau}: deleted={row.deleted}, "
          f"remaining={row.remaining}, tracks={row.tracks}")

    print("\nthreshold sweep:")
    print("tau     deleted  remaining  tracks")
    for r in sweep_tau(dataset, graphs, [0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]):
        print(f"{r.tau:4.1f} {r.deleted:10d} {r.remaining:10d} {r.tracks:7d}")

    print(f"\nground truth expected {len(truth.expected_groups)} grouped "
          "track sightings across all frames; the sweep never loses a track.")


if __name__ == "__main__":
    main()
