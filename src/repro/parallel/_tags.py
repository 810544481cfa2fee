"""Point-to-point tags of :mod:`repro.parallel`, allocated in one table.

Tags are positive (simmpi's collectives use the negative range) and
pairwise distinct, so no two exchanges of the package can consume each
other's messages, whichever rank programs share a channel.
"""

PIECE_TAG = 7  # pipelined SOI: all-to-all pieces
HALO_TAG = 8  # pipelined SOI: halo
RECOVER_TAG = 9  # resilient SOI: buddy -> survivor blocks, casualty's halo
RECOVER_OUT_TAG = 10  # resilient SOI: survivor -> buddy, blocks for the casualty
REPLICA_TAG = 11  # resilient SOI: input-block replication ring
MIRROR_TAG = 12  # real-input untangle: mirror-block swap
EDGE_TAG = 13  # real-input untangle: block-boundary bin
NYQUIST_TAG = 14  # real-input untangle: Nyquist bin, rank 0 -> last rank
