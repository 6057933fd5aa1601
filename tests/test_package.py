"""The package's public surface."""

import redkit

REMOVED = ("redundancy_ratio", "lost_ratio", "distance_prune", "sweep_distance",
           "Observation", "RedundancyGroup")


def test_all_names_resolve_and_removed_names_are_not_exported():
    assert len(set(redkit.__all__)) == len(redkit.__all__)
    for name in redkit.__all__:
        assert hasattr(redkit, name), name
    for name in REMOVED:
        assert name not in redkit.__all__
        assert not hasattr(redkit, name), name
