"""Multi-kernel (binary/ternary) polar code toolkit.

Encoding, Gaussian-approximation construction, successive-cancellation and
Fast-SSC decoding with ternary-compatible fast nodes, plus Monte-Carlo
simulation and schedule analysis.
"""

from .analysis import NodeCounts, latency_table, sc_node_count, schedule_stats
from .channel import SimStats, StopRule, noise_variance, run_fer
from .construction import (
    CodeSpec,
    OrderingStrategy,
    construct_code,
    design_code,
    ga_reliabilities,
    order_kernels,
    select_frozen,
)
from .encoding import encode_message, expand_message
from .fast_ssc import FastSSCDecoder, NodeClass, NodeLimits, PrunedSchedule, build_schedule
from .kernels import stage_transform
from .sc import SCDecoder

__version__ = "0.1.0"
