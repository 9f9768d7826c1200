"""Engine configuration.

Defaults are sized for the single-node sandbox (32 CPUs / 128 GiB) but every
knob is explicit so a multi-node deployment can raise ``num_partitions`` to
(cluster cores × 2..4) and cap partition bytes to worker-heap / 4.
"""

from __future__ import annotations

import dataclasses
import os


@dataclasses.dataclass
class EngineConfig:
    # Number of hash partitions for keyed shuffles (conv_id).  At 100 TB this
    # should be ~ total_bytes / 512 MB; here sized for local testing.
    num_partitions: int = dataclasses.field(
        default_factory=lambda: int(
            os.environ.get("FBR_NUM_PARTITIONS", "32")))
    # Rows per batch for stateless map_batches stages (arrow, zero copy).
    batch_size: int = dataclasses.field(
        default_factory=lambda: int(os.environ.get("FBR_BATCH_SIZE",
                                                   "65536")))
    # Session gap threshold (seconds) for sessionization.
    session_gap_s: float = 1800.0
    # Salting: conversations with more rows than this are flagged mega;
    # window kernels still process them whole (one partition holds the conv),
    # but the partitioner caps partition size by splitting *other* convs out.
    mega_conv_rows: int = 1_000_000
    seed: int = 42


DEFAULT = EngineConfig()
