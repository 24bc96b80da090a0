"""Budget defaults and the search-node accountant.

Every potentially exponential search (hom enumeration, canonicalization,
extension search, universal-property verification) charges nodes against a
budget and raises BudgetExceeded instead of truncating silently.  The
environment variable METRICAT_BUDGET_NODES, when set, caps every node budget
in the process.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, UsageError

DEFAULT_POINT_BUDGET = 64          # per constructed space in combinatorial ops
DEFAULT_NODE_BUDGET = 10_000_000   # per search call
DEFAULT_STAGE_POINT_BUDGET = 256   # per chain stage
DEFAULT_SPAN_BUDGET = 512          # spans attached per chain step

_ENV_NODES = "METRICAT_BUDGET_NODES"


def node_ceiling(requested: int | None = None) -> int:
    limit = DEFAULT_NODE_BUDGET if requested is None else requested
    env = os.environ.get(_ENV_NODES)
    if env is not None:
        try:
            limit = min(limit, int(env))
        except ValueError:
            raise UsageError(f"{_ENV_NODES} is not an integer: {env!r}") from None
    return limit


class NodeBudget:
    """Counts search nodes; raises once the limit is crossed."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = node_ceiling(limit)
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(
                f"search exceeded node budget of {self.limit}"
            )
