"""Region-graph partitioners and partition-quality metrics."""

from .edge_cut import PartitionQuality, edge_cut_of, evaluate_partition, loads_of
from .greedy import partition_greedy_lpt, partition_weighted_blocks
from .naive import partition_1d_columns, partition_block
from .refine import refine_partition
from .spatial import partition_rcb

__all__ = [
    "PartitionQuality",
    "edge_cut_of",
    "evaluate_partition",
    "loads_of",
    "partition_greedy_lpt",
    "partition_weighted_blocks",
    "partition_1d_columns",
    "partition_block",
    "refine_partition",
    "partition_rcb",
]
