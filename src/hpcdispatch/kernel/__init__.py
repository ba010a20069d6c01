"""Small finite-domain constraint solver used by the dispatchers."""

from hpcdispatch.kernel.core import (
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    IntVar,
    SearchStats,
    SolveResult,
    Solver,
)
from hpcdispatch.kernel.propagators import (
    AllDifferent,
    BoolSumEq,
    Box,
    Cumulative,
    Diffn,
    ElementEqual,
    NodeBlocks,
    Released,
    Task,
    apply_span_filter,
)

__all__ = [
    "AllDifferent",
    "BoolSumEq",
    "Box",
    "Cumulative",
    "Diffn",
    "ElementEqual",
    "IntVar",
    "NodeBlocks",
    "Released",
    "apply_span_filter",
    "SearchStats",
    "SolveResult",
    "Solver",
    "Task",
    "STATUS_FEASIBLE",
    "STATUS_INFEASIBLE",
    "STATUS_OPTIMAL",
    "STATUS_TIMEOUT",
]
