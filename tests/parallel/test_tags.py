"""The point-to-point tags of ``repro.parallel`` never collide.

Two exchanges sharing a tag on one channel could consume each other's
messages, so every tag the package allocates must be distinct (and
positive: simmpi's collectives own the negative range).
"""

import repro.parallel.real_dist as real_dist
import repro.parallel.resilience as resilience
import repro.parallel.soi_dist as soi_dist


def test_point_to_point_tags_are_distinct():
    tags = {
        "PIECE": soi_dist.PIECE_TAG,
        "HALO": soi_dist.HALO_TAG,
        "RECOVER": resilience.RECOVER_TAG,
        "RECOVER_OUT": resilience.RECOVER_OUT_TAG,
        "REPLICA": resilience.REPLICA_TAG,
        "MIRROR": real_dist.MIRROR_TAG,
        "EDGE": real_dist.EDGE_TAG,
        "NYQUIST": real_dist.NYQUIST_TAG,
    }
    assert len(set(tags.values())) == len(tags), tags
    assert all(t > 0 for t in tags.values()), tags
