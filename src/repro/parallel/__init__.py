"""Parallel execution substrate: cost model, simulator, scheduler.

The paper's PRISMA/DB multiprocessor is substituted by a simulator whose cost
model is expressed in the paper's own workload quantities (iterations,
intermediate tuples, assembly joins).  Running the independent local
subqueries as real OS processes is ``QueryService(fragmentation, workers=N)``
(:mod:`repro.service`), the one door to pooled evaluation.
"""

from .cost_model import CostModel
from .scheduler import (
    POLICY_LPT,
    POLICY_ROUND_ROBIN,
    Assignment,
    assign_fragments,
    one_processor_per_fragment,
)
from .simulator import ParallelSimulator, QuerySimulation, WorkloadSimulation
from .speedup import SpeedupPoint, compare_fragmenters, speedup_curve

__all__ = [
    "Assignment",
    "CostModel",
    "POLICY_LPT",
    "POLICY_ROUND_ROBIN",
    "ParallelSimulator",
    "QuerySimulation",
    "SpeedupPoint",
    "WorkloadSimulation",
    "assign_fragments",
    "compare_fragmenters",
    "one_processor_per_fragment",
    "speedup_curve",
]
