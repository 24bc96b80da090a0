"""Enumeration of hom-sets, isometry sets and isometric fillers.

One pruned backtracking kernel serves all three, and the verifiers'
search for mediators over free apex points.  It assigns the domain
points in order, so maps come out in lexicographic order of their index
tuples.  It compares integer ranks (``Space.ranks``), never ExtRat values:
each domain distance becomes the codomain rank that its image pair must
equal (isometries) or not exceed (non-expansive maps), so every verdict
stays exact.  An isometric search draws a point's candidates from the
codomain's sphere index (``Space.spheres``): the points at the required rank
from the image of point 0, or for point 0 from the lowest forced point.
Each candidate tried costs one budget node, whether it came from the index
or from the whole codomain.  A cached hom-set or isometry set keeps the
nodes its search spent and a cache hit charges them again, so a budget's
outcome does not depend on the cache; each cache keeps at most
``budgets.CACHE_ENTRIES`` entries.  The translation of a pair's
distances into ranks is memoized per (domain, codomain, relation) in a
bounded LRU for filler searches, whose results are not cached.  Mediator
searches bypass it, as their apex lives for one verification.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import islice

from .budgets import NodeBudget
from .errors import InvalidMorphism
from .spaces import MetMap, Space

_Cache = dict[tuple[Space, Space], tuple[tuple[MetMap, ...], int]]
_hom_cache: _Cache = {}
_iso_cache: _Cache = {}


def clear_caches() -> None:
    _hom_cache.clear()
    _iso_cache.clear()
    _required.cache_clear()


@lru_cache(maxsize=256)
def _required(dom: Space, cod: Space, exact: bool) -> tuple[tuple[int, ...], ...]:
    """dom's distances as cod ranks: the rank an image pair must equal
    (``exact``; -1 where cod has no such distance) or not exceed."""
    values, _ = cod.ranks()
    dvalues, drank = dom.ranks()
    if exact:
        to = [bisect_left(values, v) for v in dvalues]
        to = [r if r < len(values) and values[r] == v else -1 for r, v in zip(to, dvalues)]
    else:
        to = [bisect_right(values, v) - 1 for v in dvalues]
    return tuple(tuple(to[r] for r in drank[i:i + dom.n]) for i in range(0, len(drank), dom.n))


def _search(dom: Space, cod: Space, exact: bool, budget: NodeBudget, forced=None,
            memo: bool = True):
    """Index tuples of the maps dom -> cod, lexicographically ordered.

    ``forced`` maps points of dom to the only image they may take.  With
    ``memo`` false the rank translation bypasses its memo.
    """
    n, m = dom.n, cod.n
    if n == 0:
        yield ()
        return
    if m == 0:
        return
    req = (_required if memo else _required.__wrapped__)(dom, cod, exact)
    rank = cod.ranks()[1]
    forced = forced or {}
    everywhere = range(m)
    if exact:
        if any(r < 0 for row in req for r in row):
            return
        spheres = cod.spheres()
        anchor = min(forced, default=None)
    img = [0] * n

    def extend(i: int):
        ri = req[i]
        if i in forced:
            candidates = (forced[i],)
        elif exact and i:
            candidates = spheres[img[0]][ri[0]]
        elif exact and anchor is not None:
            candidates = spheres[forced[anchor]][ri[anchor]]
        else:
            candidates = everywhere
        for c in candidates:
            budget.spend()
            row = c * m
            for j in range(i):
                d = rank[row + img[j]]
                if (d != ri[j]) if exact else (d > ri[j]):
                    break
            else:
                img[i] = c
                if i + 1 == n:
                    yield tuple(img)
                else:
                    yield from extend(i + 1)

    yield from extend(0)


def _wrap(dom: Space, cod: Space, tuples) -> tuple[MetMap, ...]:
    return tuple(MetMap._trusted(dom, cod, t) for t in tuples)


def _enumerate(cache: _Cache, dom: Space, cod: Space, exact: bool,
               max_nodes: int | NodeBudget | None) -> tuple[MetMap, ...]:
    budget = NodeBudget.of(max_nodes)
    # A cached result is searched for once: its rank translation would
    # never be looked up again.
    return budget.cached(cache, (dom, cod), lambda: _wrap(
        dom, cod, _search(dom, cod, exact, budget, memo=False)))


def hom_set(dom: Space, cod: Space, *, max_nodes: int | None = None) -> tuple[MetMap, ...]:
    """All non-expansive maps dom -> cod, lexicographically ordered."""
    return _enumerate(_hom_cache, dom, cod, False, max_nodes)


def isometry_set(dom: Space, cod: Space, *, max_nodes: int | None = None) -> tuple[MetMap, ...]:
    """All distance-preserving maps dom -> cod, lexicographically ordered."""
    return _enumerate(_iso_cache, dom, cod, True, max_nodes)


def automorphisms(space: Space, *, max_nodes: int | None = None) -> tuple[MetMap, ...]:
    """Self-isometries; on a finite space these are exactly the bijections."""
    return isometry_set(space, space, max_nodes=max_nodes)


def isometric_fillers(
    h: MetMap,
    pinned: MetMap,
    *,
    first_only: bool = False,
    max_nodes: int | None = None,
) -> tuple[MetMap, ...]:
    """Isometric v: cod(h) -> cod(pinned) with v∘h = pinned.

    ``h`` maps X -> Y and ``pinned`` maps X -> K; the search assigns the
    points of Y, with h-image points forced through ``pinned``.  Used both by
    the chain builder's skip rule and by the saturation audit.  With
    ``first_only`` it returns the lexicographically first filler alone.
    """
    if h.dom != pinned.dom:
        raise InvalidMorphism("filler search needs a shared domain")
    budget = NodeBudget.of(max_nodes)
    forced: dict[int, int] = {}
    for y, k in zip(h.map, pinned.map):
        if forced.setdefault(y, k) != k:
            return ()
    found = _search(h.cod, pinned.cod, True, budget, forced)
    return _wrap(h.cod, pinned.cod, islice(found, 1 if first_only else None))
