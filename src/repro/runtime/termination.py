"""Global termination detection: its virtual-time cost.

Work stealing needs to decide when *no* PE has work left and none is in
flight (Algorithm 3's outer ``while Global termination not detected``).
The simulator itself knows when work is exhausted (it is omniscient), so
detection is modelled by its cost only, which is charged to reported
execution times.  Production runtimes (STAPL included) detect
termination with a *hierarchical* reduction rather than a serial ring.
"""

from __future__ import annotations

import numpy as np

__all__ = ["detection_delay_tree"]


def detection_delay_tree(topology) -> float:
    """Virtual-time cost of termination detection: one sweep.

    A sweep goes up and down a reduction tree over the PEs,
    ``2 * ceil(log2 P)`` hops.  After real quiescence one clean sweep
    suffices (tainted sweeps overlap the steal traffic that caused them).
    The tree's lower ``ceil(log2 cores_per_node)`` levels stay inside
    shared-memory nodes and pay intra-node latency; the levels above pay
    inter-node latency.
    """
    levels = int(np.ceil(np.log2(max(topology.num_pes, 2))))
    local_levels = min(levels, int(np.ceil(np.log2(topology.cores_per_node))))
    remote_levels = levels - local_levels
    return 2.0 * (local_levels * topology.latency_local + remote_levels * topology.latency_remote)
