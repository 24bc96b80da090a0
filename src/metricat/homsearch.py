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
candidate in turn would.  Every hom-set and isometry set comes from
``_homs``: the maps' index tuples, memoized with the nodes the search spent
in one ``budgets.Memo`` of at most ``budgets.CACHE_ENTRIES`` entries, keyed
by (dom, cod, exact).  A hit charges those nodes again, so a budget's
outcome does not depend on the memo; ``clear_caches`` empties every memo.
The library reads the tuples, and the public ``hom_set``, ``isometry_set``
and ``automorphisms`` build one ``MetMap`` per tuple.  Filler searches are
not cached: ``_fillers`` resolves a search into K along h once (rank
translation, balls, forced positions and charge), and the saturation audit
and ``isometric_fillers`` run that plan for every map pinned into K.  The
chain builder's skip rule runs none: its skip set is the projection
``fraisse._project`` of the memoized isometry set iso(Y, K) along h.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice

from .budgets import Memo, NodeBudget, clear_memos
from .errors import InvalidMorphism
from .spaces import MetMap, Space

_memo = Memo()


def clear_caches() -> None:
    """Empty every search memo (``budgets.Memo``)."""
    clear_memos()


def _required(dom: Space, cod: Space, exact: bool) -> tuple[tuple[int, ...], ...] | None:
    """dom's distances as cod ranks: the rank an image pair must equal
    (``exact``) or not exceed; () for an empty dom.  None when an exact
    search needs a distance that cod lacks."""
    values, _ = cod.ranks()
    dvalues, drank = dom.ranks()
    if exact:
        to = [bisect_left(values, v) for v in dvalues]
        if any(r == len(values) or values[r] != v for r, v in zip(to, dvalues)):
            return None
    else:
        to = [bisect_right(values, v) - 1 for v in dvalues]
    return tuple(tuple(to[r] for r in drank[i:i + dom.n]) for i in range(0, len(drank), dom.n or 1))


def _search(req, balls, exact: bool, spend, forced=None):
    """Index tuples of the maps dom -> cod, lexicographically ordered, with
    ``req = _required(dom, cod, exact)``, ``balls = cod.balls()`` and nodes
    charged through ``spend``.  ``forced`` maps points of dom to the only
    image they may take."""
    if req == ():
        yield ()
    if not (req and balls):
        return
    n, m = len(req), len(balls)
    forced = forced or {}
    anchor = min(forced, default=None) if exact else None
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


def _homs(dom: Space, cod: Space, budget: NodeBudget | None = None,
          exact: bool = False) -> tuple[tuple[int, ...], ...]:
    """Index tuples of the maps dom -> cod, distance-preserving if ``exact``, in
    lexicographic order and charged to ``budget`` (a fresh default if None)."""
    budget = budget or NodeBudget()
    return budget.cached(_memo, (dom, cod, exact), lambda: tuple(_search(
        _required(dom, cod, exact), cod.balls(), exact, budget.spend_each)))


def hom_set(dom: Space, cod: Space, *, max_nodes: int | None = None) -> tuple[MetMap, ...]:
    """All non-expansive maps dom -> cod, lexicographically ordered."""
    return tuple(MetMap._trusted(dom, cod, t) for t in _homs(dom, cod, NodeBudget.of(max_nodes)))


def isometry_set(dom: Space, cod: Space, *, max_nodes: int | None = None) -> tuple[MetMap, ...]:
    """All distance-preserving maps dom -> cod, lexicographically ordered."""
    return tuple(MetMap._trusted(dom, cod, t)
                 for t in _homs(dom, cod, NodeBudget.of(max_nodes), True))


def automorphisms(space: Space, *, max_nodes: int | None = None) -> tuple[MetMap, ...]:
    """Self-isometries; on a finite space these are exactly the bijections."""
    return isometry_set(space, space, max_nodes=max_nodes)


def _fillers(h: MetMap, cod: Space, budget: NodeBudget):
    """A function from the index tuple of a pinned map X -> cod to those of
    the isometric v: Y -> cod with v∘h = pinned, in order and charged to
    ``budget``, for h: X -> Y.  Pins that send one point of Y to two points
    of cod give none, with no charge.  The saturation audit and
    ``isometric_fillers`` run this plan; the chain builder does not."""
    req, balls, spend = _required(h.cod, cod, True), cod.balls(), budget.spend_each

    def fillers(pins):
        forced = dict(zip(h.map, pins))
        if len(forced) < len(h.map) and any(forced[y] != k for y, k in zip(h.map, pins)):
            return iter(())
        return _search(req, balls, True, spend, forced)
    return fillers


def isometric_fillers(
    h: MetMap,
    pinned: MetMap,
    *,
    first_only: bool = False,
    max_nodes: int | None = None,
) -> tuple[MetMap, ...]:
    """Isometric v: cod(h) -> cod(pinned) with v∘h = pinned.

    ``h`` maps X -> Y and ``pinned`` maps X -> K; the search assigns the
    points of Y, with h-image points forced through ``pinned``, as the
    saturation audit does through ``_fillers``.
    With ``first_only`` it returns the lexicographically first filler alone.
    """
    if h.dom != pinned.dom:
        raise InvalidMorphism("filler search needs a shared domain")
    found = _fillers(h, pinned.cod, NodeBudget.of(max_nodes))(pinned.map)
    return tuple(MetMap._trusted(h.cod, pinned.cod, t)
                 for t in islice(found, 1 if first_only else None))
