"""Cloud substrate: VM shapes, pricing, multi-tenancy, deployment plans.

Substitutes the paper's AWS environment: a frozen on-demand catalog with
general-purpose / memory-optimized / compute-optimized families at
1/2/4/8 vCPUs, per-second billing, and an interference model for shared
hosts.
"""

from .instance import InstanceFamily, VMConfig
from .pricing import PricingTable, aws_like_catalog
from .provisioner import (
    DeploymentPlan,
    RECOMMENDED_FAMILY,
    StageAssignment,
    uniform_plan,
)
from .spot import SpotMarket, SpotQuote, spot_expected_runtime
from .tenancy import NeighborLoad, TenancyModel
from .events import EventKind, ExecutionEvent, ExecutionTrace
from .faults import FaultInjector, FaultProfile

# The executor re-plans through repro.core.optimize, which itself imports
# the modules above — keep this import last so the partially-initialized
# package already exposes them.
from .executor import (
    BilledSegment,
    ExecutionPolicy,
    ExecutionResult,
    PlanExecutor,
    RetryPolicy,
    StageRecord,
    simulate_spot_completion_times,
)

__all__ = [
    "InstanceFamily",
    "VMConfig",
    "PricingTable",
    "aws_like_catalog",
    "DeploymentPlan",
    "RECOMMENDED_FAMILY",
    "StageAssignment",
    "uniform_plan",
    "SpotMarket",
    "SpotQuote",
    "spot_expected_runtime",
    "NeighborLoad",
    "TenancyModel",
    "EventKind",
    "ExecutionEvent",
    "ExecutionTrace",
    "FaultInjector",
    "FaultProfile",
    "BilledSegment",
    "ExecutionPolicy",
    "ExecutionResult",
    "PlanExecutor",
    "RetryPolicy",
    "StageRecord",
    "simulate_spot_completion_times",
]
