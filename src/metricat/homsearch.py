"""Enumeration of hom-sets, isometry sets and isometric fillers.

One pruned backtracking kernel serves all three, and the verifiers'
search for mediators over free apex points.  It assigns the domain
points in order, so maps come out in lexicographic order of their index
tuples.  It compares integer ranks (``Space.ranks``), never ExtRat values:
each domain distance becomes the codomain rank that its image pair must
equal (isometries) or not exceed (non-expansive maps), so every verdict
stays exact.  The kernel works on bitmasks of codomain points
(``Space.balls``).  A point's tried candidates are its forced image, or in
an isometric search the sphere at the required rank around the image of
point 0 (for point 0, around the lowest forced point), or else every
point; the accepted ones are the tried mask ANDed with one mask per
assigned point, its ball (non-expansive) or sphere (isometric) at the
required rank.  Accepted candidates are visited lowest bit first.  Each
candidate tried costs one budget node: before a descent or a yield the
kernel charges the tried candidates up to the accepted one, and on leaving
a level the rest, so a budget runs out at the same node as a test of every
candidate in turn would.  A cached hom-set or isometry set keeps the
nodes its search spent and a cache hit charges them again, so a budget's
outcome does not depend on the cache; each cache is a ``budgets.Memo`` of
at most ``budgets.CACHE_ENTRIES`` entries, and ``clear_caches`` empties
every such memo.  The translation of a pair's
distances into ranks is memoized per (domain, codomain, relation) in a
bounded LRU for filler searches, whose results are not cached.  Mediator
searches bypass it, as their apex lives for one verification.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import islice

from .budgets import Memo, NodeBudget, clear_memos
from .errors import InvalidMorphism
from .spaces import MetMap, Space

_hom_cache = Memo()
_iso_cache = Memo()


def clear_caches() -> None:
    """Empty every search memo (``budgets.Memo``) and the rank translations."""
    clear_memos()
    _required.cache_clear()


@lru_cache(maxsize=256)
def _required(dom: Space, cod: Space, exact: bool) -> tuple[tuple[int, ...], ...] | None:
    """dom's distances as cod ranks: the rank an image pair must equal
    (``exact``) or not exceed.  None when an exact search needs a distance
    that cod lacks."""
    values, _ = cod.ranks()
    dvalues, drank = dom.ranks()
    if exact:
        to = [bisect_left(values, v) for v in dvalues]
        if any(r == len(values) or values[r] != v for r, v in zip(to, dvalues)):
            return None
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
    if req is None:
        return
    balls = cod.balls()
    forced = forced or {}
    anchor = min(forced, default=None) if exact else None
    spend = budget.spend_each
    img = [0] * n
    tried = [0] * n   # per level: the candidates tried and not yet charged
    left = [0] * n    # per level: the accepted candidates not yet visited
    i = 0
    while True:
        # Enter level i: the candidates it tries, and those every assigned
        # point admits.
        ri = req[i]
        if i in forced:
            t = 1 << forced[i]
        elif exact and (i or anchor is not None):
            b = balls[img[0] if i else forced[anchor]]
            r = ri[0] if i else ri[anchor]
            t = b[r] ^ b[r - 1] if r else b[0]
        else:
            t = (1 << m) - 1
        a = t
        for j in range(i):
            b, r = balls[img[j]], ri[j]
            a &= (b[r] ^ b[r - 1] if r else b[0]) if exact else b[r]
        tried[i], left[i] = t, a
        # Take the next accepted candidate, leaving every level that has none.
        while True:
            a = left[i]
            if a:
                low = a & -a
                left[i] = a ^ low
                below = tried[i] & ((low << 1) - 1)
                tried[i] ^= below
                spend(below.bit_count())
                img[i] = low.bit_length() - 1
                if i + 1 < n:
                    break
                yield tuple(img)
            else:
                if tried[i]:
                    spend(tried[i].bit_count())
                if not i:
                    return
                i -= 1
        i += 1


def _wrap(dom: Space, cod: Space, tuples) -> tuple[MetMap, ...]:
    return tuple(MetMap._trusted(dom, cod, t) for t in tuples)


def _enumerate(cache: Memo, dom: Space, cod: Space, exact: bool,
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
