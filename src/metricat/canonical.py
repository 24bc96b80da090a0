"""Canonical representatives of isometry classes.

The canonical form of a space is the lexicographically least distance matrix
over all point orderings compatible with an invariant-based partition
refinement.  Two spaces are isometrically isomorphic exactly when their
canonical matrices are equal; the tests cross-check this against a raw
all-permutations oracle.  A canonical form is cached with the nodes its
search spent, and a cache hit charges them again, as a cached hom-set does;
the cache is bounded the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budgets import Memo, NodeBudget
from .spaces import MetMap, Space

_canon_cache = Memo()


@dataclass(frozen=True)
class CanonicalResult:
    """``space`` is the representative; ``order[new] = old`` is the witness."""

    space: Space
    order: tuple[int, ...]


def _refine_colors(dist) -> list[int]:
    n = len(dist)
    # Seed with each point's sorted distance profile.
    keys = [tuple(sorted(dist[i][j] for j in range(n) if j != i)) for i in range(n)]
    order = sorted(range(n), key=lambda i: keys[i])
    rank = {}
    for i in order:
        rank.setdefault(keys[i], len(rank))
    colors = [rank[keys[i]] for i in range(n)]
    while True:
        keys = [
            (colors[i], tuple(sorted((dist[i][j], colors[j]) for j in range(n) if j != i)))
            for i in range(n)
        ]
        rank = {}
        for k in sorted(set(keys)):
            rank[k] = len(rank)
        new = [rank[keys[i]] for i in range(n)]
        if new == colors:
            return colors
        colors = new


def canonical_form(space: Space, *, max_nodes: int | None = None) -> CanonicalResult:
    """Deterministic representative of the isometry class (labels dropped)."""
    budget = NodeBudget.of(max_nodes)
    return budget.cached(_canon_cache, space, lambda: _canonicalize(space, budget))


def _canonicalize(space: Space, budget: NodeBudget) -> CanonicalResult:
    n = space.n
    if n <= 1:
        return CanonicalResult(Space(space.dist), tuple(range(n)))

    dist = space.dist
    colors = _refine_colors(dist)

    best_word: list | None = None
    best_perm: tuple[int, ...] | None = None
    prefix = [0] * n
    used = [False] * n

    def place(depth: int, word: list):
        nonlocal best_word, best_perm
        if depth == n:
            if best_word is None or word < best_word:
                best_word = list(word)
                best_perm = tuple(prefix)
            return
        remaining = [i for i in range(n) if not used[i]]
        min_color = min(colors[i] for i in remaining)
        for i in remaining:
            if colors[i] != min_color:
                continue
            budget.spend_each(1)
            ext = [dist[i][prefix[k]] for k in range(depth)]
            cand = word + ext
            limit = len(cand)
            if best_word is not None and cand > best_word[:limit]:
                continue
            prefix[depth] = i
            used[i] = True
            place(depth + 1, cand)
            used[i] = False

    place(0, [])
    assert best_perm is not None
    order = best_perm
    canon = Space(tuple(tuple(dist[order[a]][order[b]] for b in range(n)) for a in range(n)))
    return CanonicalResult(canon, order)


def are_isomorphic(a: Space, b: Space, *, max_nodes: int | None = None) -> bool:
    if a.n != b.n:
        return False
    budget = NodeBudget.of(max_nodes)
    return (
        canonical_form(a, max_nodes=budget).space.dist
        == canonical_form(b, max_nodes=budget).space.dist
    )


def canonical_witness(space: Space) -> MetMap:
    """The isometry from the canonical form back onto the original space."""
    res = canonical_form(space)
    return MetMap(res.space, space, res.order)


def clear_cache() -> None:
    _canon_cache.clear()
