"""Budget defaults and the search-node accountant.

Every potentially exponential search (hom enumeration, canonicalization,
extension search, universal-property verification) charges nodes against a
budget and raises BudgetExceeded instead of truncating silently.  One
``NodeBudget`` bounds a whole command or top-level library call: a public
``max_nodes=`` takes a size, for a fresh budget, or a ``NodeBudget`` to
share.  A ``NodeBudget`` is a plain counter.  ``node_ceiling`` caps a size
by the environment variable METRICAT_BUDGET_NODES; the command line applies
it once per command, and library calls are bounded by ``max_nodes=`` alone.
Searches memoize their results in ``Memo``s of ``CACHE_ENTRIES`` entries
each, which ``clear_memos`` empties.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, UsageError

DEFAULT_POINT_BUDGET = 64          # per constructed space in combinatorial ops
DEFAULT_NODE_BUDGET = 10_000_000   # per command or top-level library call
DEFAULT_STAGE_POINT_BUDGET = 256   # per chain stage
DEFAULT_SPAN_BUDGET = 512          # spans attached per chain step
CACHE_ENTRIES = 4096               # per memo of search results

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
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit
        self.used = 0

    @classmethod
    def of(cls, max_nodes: "int | NodeBudget | None") -> "NodeBudget":
        """``max_nodes`` itself if it is a budget, else a fresh one of that size."""
        return max_nodes if isinstance(max_nodes, NodeBudget) else cls(max_nodes)

    def spend_each(self, n: int) -> None:
        """Charge ``n`` single nodes, as ``n`` charges of one node would:
        the count stops at the node that crosses the limit, so a budget
        error names ``limit + 1`` nodes however the work was batched or
        cached.  Spending nothing never raises, not even under a negative
        limit."""
        if n and self.used + n > self.limit:
            self.used = max(self.used, self.limit) + 1
            raise BudgetExceeded(f"search spent {self.used} nodes, "
                                 f"over the node budget of {self.limit}")
        self.used += n

    def cached(self, memo: "Memo", key, compute):
        """``compute()``, memoized in ``memo`` with the nodes it spent; a
        hit charges them again, so the outcome does not depend on the memo.
        An insert into a full memo first evicts its oldest entry."""
        hit = memo.get(key)
        if hit is not None:
            self.spend_each(hit[1])
            return hit[0]
        start = self.used
        value = compute()
        if len(memo) >= CACHE_ENTRIES:
            del memo[next(iter(memo))]
        memo[key] = (value, self.used - start)
        return value


_MEMOS: list["Memo"] = []


class Memo(dict):
    """A memo of search results for ``NodeBudget.cached``, bounded there by
    ``CACHE_ENTRIES``.  Every memo is registered when made, so
    ``clear_memos`` empties them all."""

    __slots__ = ()

    def __init__(self):
        super().__init__()
        _MEMOS.append(self)


def clear_memos() -> None:
    for memo in _MEMOS:
        memo.clear()
