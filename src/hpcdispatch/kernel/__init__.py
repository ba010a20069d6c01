"""Small finite-domain constraint solver used by the dispatchers."""

from hpcdispatch.kernel.core import (
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    IntVar,
    NodeBlocks,
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
    Released,
    Task,
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
    "SearchStats",
    "SolveResult",
    "Solver",
    "Task",
    "STATUS_FEASIBLE",
    "STATUS_INFEASIBLE",
    "STATUS_OPTIMAL",
    "STATUS_TIMEOUT",
]
