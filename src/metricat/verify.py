"""Exhaustive universal-property verification for approximate colimits.

Each verifier quantifies over every test cospan/cocone into the supplied
target spaces and demands exactly one mediating morphism.  Mediators are
pinned down on the leg images and completed by search on any uncovered apex
points, so corrupted candidates (an extra floating point, a distorted apex)
are caught as existence or uniqueness failures.  The first counterexample in
enumeration order is reported, making failures reproducible fixtures.

The loops compare integer ranks, never ExtRat values.  Once per target T a
``_Target`` gathers T's rank table (``Space.ranks``, which the hom-set
searches have filled already), eps as the largest T-rank not above eps, and
each apex distance as the largest T-rank its image pair may take.  A cocone
commutes within eps when none of the image pairs of its squares ranks above
the eps rank.  The apex is ranked once per verification on the side
(``_Apex``) rather than through the apex ``Space``'s own cache, which would
outlive the check; only a search over free apex points ranks it there.

A verdict needs only whether there are 0, 1 or more mediators.  When the
legs reach every apex point (the common case) the cocone pins the one
candidate, which is checked pair by pair in a single pass, and no mediator
is built.  Otherwise the free points are searched by the hom-set
kernel (``homsearch._search``) with the pinned points forced, until a
second mediator turns up.  Maps are built only for the mediators of a
reported counterexample, which lists all of them.  Every mediator search
charges the nodes of the full unpruned tree, 1 plus one per target point
tried at each free point, before it starts, so budget outcomes do not
depend on the pruning.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, gt, mul, ne

from .budgets import NodeBudget
from .colimits import EpsColimitResult, EpsCoequalizerResult, EpsPushoutResult, FinDiagram
from .extrat import ExtRat
from .homsearch import _search, hom_set
from .spaces import MetMap, Space, hom_dist


@dataclass(frozen=True)
class Counterexample:
    kind: str                 # "square" | "existence" | "uniqueness"
    target: Space | None
    cone: tuple[MetMap, ...]  # the test cospan/cocone
    mediators: tuple[MetMap, ...]


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    checked: int
    counterexample: Counterexample | None


class _Prepaid:
    """The budget of a mediator search with free points, whose nodes were
    charged before it started."""

    @staticmethod
    def spend(n: int = 1) -> None:
        pass


_PREPAID = _Prepaid()


class _Apex:
    """A candidate apex with its legs, whatever the target.

    A cone is read as the flat tuple of its maps' values, in the order of
    the legs' concatenated maps: position k holds the image of apex point
    ``flat[k]``.  ``first[p]`` is the first position that pins apex point
    p, or one past the end for a free point.  A cone pins consistently when
    each position in ``dup`` agrees with the position ``orig`` that first
    pins its point.  ``pairs`` holds, for each apex pair i < j, the
    positions ``first[i]`` and ``first[j]`` and the index of ``d(i, j)``
    among ``values``, the apex's sorted distinct distances.
    """

    __slots__ = ("space", "first", "dup", "orig", "free", "values", "pairs")

    def __init__(self, space: Space, legs):
        self.space = space
        flat = [p for leg in legs for p in leg]
        first: dict[int, int] = {}
        for k, p in enumerate(flat):
            first.setdefault(p, k)
        self.free = space.n - len(first)
        self.first = [first.get(p, len(flat)) for p in range(space.n)]
        self.dup = [k for k, p in enumerate(flat) if first[p] != k]
        self.orig = [first[flat[k]] for k in self.dup]
        self.values = sorted({d for row in space.dist for d in row})
        index = {v: r for r, v in enumerate(self.values)}
        at, dist = self.first, space.dist
        self.pairs = [(at[i], at[j], index[dist[i][j]])
                      for i in range(space.n) for j in range(i + 1, space.n)]


class _Target:
    """A target T in rank form, with the apex distances translated into it."""

    __slots__ = ("space", "apex", "m", "rank", "eps", "nodes", "pairs")

    def __init__(self, space: Space, apex: _Apex, eps: ExtRat):
        values, self.rank = space.ranks()
        self.space, self.apex, self.m = space, apex, space.n
        self.eps = bisect_right(values, eps) - 1
        # Nodes of the unpruned mediator tree: 1, then m per free point.
        self.nodes = sum(self.m ** k for k in range(apex.free + 1))
        # The apex pairs a pinned map could expand, as three parallel
        # lists: the cone positions of both points and the largest T-rank
        # of their image pair.
        to = [bisect_right(values, v) - 1 for v in apex.values]
        top = len(values) - 1
        self.pairs = tuple(zip(*[(i, j, to[r]) for i, j, r in apex.pairs
                                 if to[r] < top])) or ((), (), ())

    def close(self, left, right) -> bool:
        """Whether the point sequences ``left`` and ``right`` of T lie
        pairwise within eps."""
        pairs = map(add, map(mul, left, repeat(self.m)), right)
        return max(map(self.rank.__getitem__, pairs), default=-1) <= self.eps

    def mediators(self, cone: tuple[int, ...], budget: NodeBudget) -> tuple[MetMap, ...] | None:
        """None when exactly one apex -> T map sends the legs' images to the
        flat ``cone`` values; otherwise all such maps (none: empty)."""
        apex, at = self.apex, cone.__getitem__
        if apex.dup and any(map(ne, map(at, apex.dup), map(at, apex.orig))):
            return ()
        if apex.free and not self.m:
            return ()
        budget.spend(self.nodes)
        if not apex.free:
            i, j, bound = self.pairs
            image = map(add, map(mul, map(at, i), repeat(self.m)), map(at, j))
            return () if any(map(gt, map(self.rank.__getitem__, image), bound)) else None
        forced = {p: cone[k] for p, k in enumerate(apex.first) if k < len(cone)}
        found = _search(apex.space, self.space, False, _PREPAID, forced, memo=False)
        first_two = tuple(islice(found, 2))
        if len(first_two) == 1:
            return None
        return tuple(MetMap._trusted(apex.space, self.space, arr)
                     for arr in (*first_two, *found))


def _failure(checked: int, target: Space, cone, meds) -> VerifyReport:
    kind = "uniqueness" if meds else "existence"
    return VerifyReport(False, checked, Counterexample(kind, target, tuple(cone), meds))


def verify_pushout(result: EpsPushoutResult, f: MetMap, g: MetMap,
                   targets, *, max_nodes: int | None = None) -> VerifyReport:
    """Check Def-style universality of a claimed eps-pushout of (f, g)."""
    budget = NodeBudget(max_nodes)
    eps = result.eps
    B, C = f.cod, g.cod
    checked = 0
    square = hom_dist(g.then(result.leg_f), f.then(result.leg_g))
    if square > eps:
        return VerifyReport(False, 0, Counterexample(
            "square", None, (result.leg_g, result.leg_f), ()))
    apex = _Apex(result.apex, (result.leg_g.map, result.leg_f.map))
    for target in targets:
        homB = hom_set(B, target)
        homC = hom_set(C, target)
        t = _Target(target, apex, eps)
        m, rank, e = t.m, t.rank.__getitem__, t.eps
        # _Target.close, inlined with f∘gp premultiplied: it runs per cospan.
        fpgs = [(fp, [fp.map[c] for c in g.map]) for fp in homC]
        for gp in homB:
            gpf = [gp.map[b] * m for b in f.map]
            for fp, fpg in fpgs:
                if max(map(rank, map(add, gpf, fpg)), default=-1) > e:
                    continue
                checked += 1
                meds = t.mediators(gp.map + fp.map, budget)
                if meds is not None:
                    return _failure(checked, target, (gp, fp), meds)
    return VerifyReport(True, checked, None)


def verify_coequalizer(result: EpsCoequalizerResult, f: MetMap, g: MetMap,
                       targets, *, max_nodes: int | None = None) -> VerifyReport:
    budget = NodeBudget(max_nodes)
    eps = result.eps
    B = f.cod
    checked = 0
    if hom_dist(f.then(result.leg), g.then(result.leg)) > eps:
        return VerifyReport(False, 0, Counterexample(
            "square", None, (result.leg,), ()))
    apex = _Apex(result.apex, (result.leg.map,))
    for target in targets:
        homs = hom_set(B, target)
        t = _Target(target, apex, eps)
        for hp in homs:
            h = hp.map
            if not t.close([h[b] for b in f.map], [h[b] for b in g.map]):
                continue
            checked += 1
            meds = t.mediators(h, budget)
            if meds is not None:
                return _failure(checked, target, (hp,), meds)
    return VerifyReport(True, checked, None)


def verify_colimit(result: EpsColimitResult, diagram: FinDiagram,
                   targets, *, max_nodes: int | None = None) -> VerifyReport:
    """Check universality against every eps-commuting cocone."""
    budget = NodeBudget(max_nodes)
    eps = result.eps
    checked = 0
    for i, j, m in diagram.arrows:
        if hom_dist(result.legs[i], m.then(result.legs[j])) > eps:
            return VerifyReport(False, 0, Counterexample(
                "square", None, tuple(result.legs), ()))
    objs = diagram.objects
    apex = _Apex(result.apex, [leg.map for leg in result.legs])
    # The arrows to test once object k joins the cocone: those between k
    # and objects before it, k itself included.
    arrows = [[(i, j, m.map) for i, j, m in diagram.arrows if max(i, j) == k]
              for k in range(len(objs))]
    for target in targets:
        homs = [hom_set(o, target) for o in objs]
        t = _Target(target, apex, eps)
        cone: list[MetMap | None] = [None] * len(objs)

        def cocones(k: int):
            if k == len(objs):
                yield tuple(cone)
                return
            for c in homs[k]:
                budget.spend()
                cone[k] = c
                if all(t.close(cone[i].map, [cone[j].map[y] for y in m])
                       for i, j, m in arrows[k]):
                    yield from cocones(k + 1)
            cone[k] = None

        for cc in cocones(0):
            checked += 1
            meds = t.mediators(sum((c.map for c in cc), ()), budget)
            if meds is not None:
                return _failure(checked, target, cc, meds)
    return VerifyReport(True, checked, None)
