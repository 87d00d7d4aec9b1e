"""Revenue-maximizing overload scheduling lab.

Simulation and analysis of soft real-time job streams on an overloaded
uniprocessor: birth-death queue formulas, optimal fractional allocation,
a queue-length priority-index policy, classic baselines (EDF, robust EDF,
the two-phase overload scheduler), an optimal two-stream oracle, and two
simulation engines with a replication harness.
"""

from .allocation import AllocationVector, FapResult, optimize
from .errors import ConfigError, InvariantError, NumericalError, RevschedError
from .queueing import QueueParams, pi0, stationary, stream_revenue, total_revenue
from .sim import ReplicationSummary, SimMetrics, Trace, replicate, run_ctmc, run_trace
from .streams import (Job, StreamSpec, WorkloadSpec, is_overloaded, load_workload,
                      sample_trace, utilization)
from .zindex import PriorityTable, build_table, priority

__all__ = [
    "AllocationVector", "FapResult", "optimize",
    "ConfigError", "InvariantError", "NumericalError", "RevschedError",
    "QueueParams", "pi0", "stationary", "stream_revenue", "total_revenue",
    "ReplicationSummary", "SimMetrics", "Trace", "replicate", "run_ctmc", "run_trace",
    "Job", "StreamSpec", "WorkloadSpec", "is_overloaded", "load_workload",
    "sample_trace", "utilization",
    "PriorityTable", "build_table", "priority",
]

__version__ = "0.1.0"
