"""How much does a LiDAR-only detector already know?

Pairs a fusion baseline detection set against a degraded LiDAR-only set,
measures the redundancy ratio, prunes LiDAR boxes by ego distance, and runs
the distance-versus-redundancy significance test.
"""

import statistics

from redkit.multimodal import distance_ttest, match_frame, pooled_sweep
from redkit.synth import SynthParams, generate_scene


def main():
    params = SynthParams(seed=77_001, n_objects=12, n_frames=20,
                         drop_rate=0.35, detection_noise=0.15)
    dataset, _ = generate_scene(params)
    frames = dataset.scenes[0].frames

    theta = 0.5
    rrs = []
    for frame in frames:
        base = frame.detection_sets["fusion_baseline"]
        lidar = frame.detection_sets["lidar_only"]
        rrs.append(match_frame(base, lidar, theta).rr)
    print(f"redundancy ratio over {len(frames)} frames "
          f"(theta={theta}): mean={statistics.mean(rrs):.3f}, "
          f"min={min(rrs):.3f}, max={max(rrs):.3f}")

    frame = frames[0]
    base = frame.detection_sets["fusion_baseline"]
    lidar = frame.detection_sets["lidar_only"]
    print("\ndistance-pruning sweep on frame 0:")
    print("t_dist  pruned  lost_ratio")
    match = match_frame(base, lidar, theta)
    for row in pooled_sweep([match], [0.0, 5.0, 10.0, 20.0, 30.0]):
        print(f"{row.t_dist:6.1f} {row.pruned_count:7d} {row.lost_ratio:11.3f}")

    # are objects in low-redundancy frames systematically nearer or farther?
    bases = [f.detection_sets["fusion_baseline"] for f in frames]
    ttest = distance_ttest(bases, rrs)
    print(f"\nwelch t-test, ego distance by redundancy "
          f"(split at rr={ttest['split']:.3f}):")
    if ttest["status"] == "ok":
        print(f"  n_high={ttest['n_high']}, n_low={ttest['n_low']}, "
              f"t={ttest['t']:.4f}, df={ttest['df']:.2f}, p={ttest['p']:.4g}")
    else:
        print(f"  skipped: {ttest['reason']}")

if __name__ == "__main__":
    main()
