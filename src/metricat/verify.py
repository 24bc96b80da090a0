"""Exhaustive universal-property verification for approximate colimits.

Each verifier quantifies over every test cospan/cocone into the supplied
target spaces and demands exactly one mediating morphism.  Mediators are
pinned down on the leg images and completed by search on any uncovered apex
points, so corrupted candidates (an extra floating point, a distorted apex)
are caught as existence or uniqueness failures.  The first counterexample in
enumeration order is reported, making failures reproducible fixtures.

All three verifiers read the construction's bridges from the presentation
builders of :mod:`metricat.colimits` and check one statement: each family
of maps c_k: O_k -> T from the pieces with ``d_T(c_i(x), c_j(y)) <= eps``
on every bridge (i, x, j, y) is a cocone, and must factor uniquely through
the apex.  The legs must map the pieces into the apex (else
MismatchedEndpoints) and close every bridge within eps (else a "square"
failure).  A cocone is read as the flat tuple of its maps'
values, and every test bounds the T-rank (``Space.ranks``) of the images
of two positions: a bridge by eps, two positions that pin one apex point by
rank 0, and the pins of an apex pair by the largest T-rank of their distance.

One join kernel (``_Join``) takes the cocones into a target T leg by leg,
in ``itertools.product`` order over the hom-sets (last leg fastest).  A
set of a leg's maps is a Python int, bit q standing for the q-th map of the
hom-set.  Tests inside a leg are masks made once: ``adm`` for its bridges,
``ok`` for its pins.  A test back to an earlier leg is a "near" mask indexed
by that leg's image, ORed on first use from point masks (the maps with
c(y) == s).  After a prefix, the admissible maps are ``adm`` ANDed with a
near mask per bridge back, and the maps that keep the pins ``ok`` ANDed
likewise.  At the last leg the first counterexample is the lowest set bit
of the admissible maps that break a pin; every admissible map below it is a
cocone checked and passed.  Maps are built only for a counterexample.

When the legs reach every apex point, a cocone pins its one candidate
mediator and the pin masks give the verdict.  Otherwise the admissible
cocones are taken bit by bit, and the free points of each are searched by
the hom-set kernel (``homsearch._search``) with the pinned points forced,
until a second mediator turns up.

One budget covers the whole verification.  Each cocone checked costs one
node (the report's ``checked``); the hom-set fetches and the mediator
searches charge the nodes they visit, and a cached hom-set charges the nodes
its search spent.  The apex is ranked once per verification on the side
(``_Apex``) rather than through the apex ``Space``'s own cache, which would
outlive the check; only a search over free apex points ranks it there.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice

from .budgets import NodeBudget
from .colimits import (
    EpsColimitResult, EpsCoequalizerResult, EpsPushoutResult, FinDiagram, Presentation,
    diagram_presentation, pair_presentation, span_presentation,
)
from .errors import MismatchedEndpoints
from .extrat import ZERO, ExtRat
from .homsearch import _homs, _required, _search
from .spaces import MetMap, Space


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


class _Apex:
    """A candidate apex with its legs and the bridges, whatever the target.

    Position k of a cone holds the image of apex point ``flat[k]``; leg
    k's positions run from ``starts[k]`` to ``starts[k + 1]``.
    ``first[p]`` is the first position that pins apex point p, or one past
    the end for a free point.  ``tests[k]`` holds the tests that bind at leg
    k, the leg of their later position: the bridges as position pairs
    (a, b), and the pins as (a, b, r) with r the index of their distance
    among ``values``, the apex's sorted distinct distances.  A duplicate pin,
    at distance zero, ties a later position of an apex point to its first;
    the apex pairs are pins only when no apex point is free, as a search
    checks them otherwise.
    """

    __slots__ = ("space", "starts", "first", "free", "values", "tests")

    def __init__(self, space: Space, legs, bridges):
        self.space = space
        self.starts = starts = list(accumulate(map(len, legs), initial=0))
        flat = [p for leg in legs for p in leg]
        first: dict[int, int] = {}
        for k, p in enumerate(flat):
            first.setdefault(p, k)
        self.free = space.n - len(first)
        self.first = at = [first.get(p, len(flat)) for p in range(space.n)]
        self.values = sorted({d for row in space.dist for d in row})
        pins = [(first[p], k, 0) for k, p in enumerate(flat) if first[p] != k]
        if not self.free:
            index = {v: r for r, v in enumerate(self.values)}
            pins += [(*sorted((at[i], at[j])), index[space.dist[i][j]])
                     for i in range(space.n) for j in range(i + 1, space.n)]
        self.tests = [([], []) for _ in legs]
        for i, x, j, y in bridges:
            a, b = sorted((starts[i] + x, starts[j] + y))
            self.tests[bisect_right(starts, b) - 1][0].append((a, b))
        for a, b, r in pins:
            self.tests[bisect_right(starts, b) - 1][1].append((a, b, r))


class _Near(dict):
    """Target point t -> the mask of a leg's maps c with rank(t, c(y)) <= r
    for every (y, r) in ``tests``, ANDed on first use from the leg's point
    masks: ``columns[y][s]`` masks the maps with c(y) == s."""

    __slots__ = ("columns", "rank", "tests")

    def __init__(self, columns, rank, tests):
        super().__init__()
        self.columns, self.rank, self.tests = columns, rank, tests

    def __missing__(self, t: int) -> int:
        m = len(self.columns[0])
        row = self.rank[t * m:(t + 1) * m]
        mask = -1
        for y, r in self.tests:
            near = 0
            for bits, d in zip(self.columns[y], row):
                if d <= r:
                    near |= bits
            mask &= near
        self[t] = mask
        return mask


class _Leg:
    """The maps of one object into T as bitmasks, bit q standing for the
    index tuple ``maps[q]``, with the tests (a, b, rank bound) whose later position b
    lies on the leg, cone positions ``start`` to ``end``: ``tests[0]`` the
    bridges, ``tests[1]`` the pins.  The tests inside the leg make the masks
    ``adm`` and ``ok`` once.  Those that reach back to a position a of an
    earlier leg go to ``cross_adm`` or ``cross_ok`` as ``(a, near)``, one
    per a, with ``near`` indexed by a's image.  There are tests only when T
    has two points or more, so then every hom-set has a map."""

    __slots__ = ("maps", "span", "adm", "ok", "cross_adm", "cross_ok")

    def __init__(self, maps, start: int, end: int, tests, rank, m: int):
        self.maps, self.span = maps, slice(start, end)
        columns = []
        if any(tests):
            for image in zip(*maps):
                column = [0] * m
                for q, s in enumerate(image):
                    column[s] |= 1 << q
                columns.append(column)
        masks, crosses = [], []
        for found in tests:
            mask, cross = (1 << len(maps)) - 1, []
            back: dict[int, dict] = {}
            for a, b, r in found:
                back.setdefault(a, {})[b - start, r] = None
            for a, group in back.items():
                near = _Near(columns, rank, tuple(group))
                if a < start:
                    cross.append((a, near))
                    continue
                keep = 0
                for s, bits in enumerate(columns[a - start]):
                    if bits:
                        keep |= bits & near[s]
                mask &= keep
            masks.append(mask)
            crosses.append(cross)
        self.adm, self.ok = masks
        self.cross_adm, self.cross_ok = crosses


class _Join:
    """The cocones from the pieces into one target T, checked leg by leg;
    ``v`` holds the flat cone of the maps picked so far."""

    __slots__ = ("target", "pieces", "apex", "legs", "budget", "v", "picks", "checked")

    def __init__(self, target: Space, pieces, apex: _Apex, eps: ExtRat, budget: NodeBudget):
        homs = [_homs(o, target, budget) for o in pieces]
        values, rank = target.ranks()
        m, top = target.n, len(values) - 1
        # A test at the top rank always holds, so T needs two points for any.
        tests = [((), ())] * len(homs)
        if top > 0:
            e = bisect_right(values, eps) - 1
            to = [bisect_right(values, v) - 1 for v in apex.values]
            tests = [([(a, b, e) for a, b in bridges] if e < top else (),
                      [(a, b, to[r]) for a, b, r in pins if to[r] < top])
                     for bridges, pins in apex.tests]
        starts = apex.starts
        self.legs = [_Leg(h, starts[k], starts[k + 1], tests[k], rank, m)
                     for k, h in enumerate(homs)]
        self.target, self.pieces, self.apex, self.budget = target, pieces, apex, budget
        self.v = [0] * starts[-1]
        self.picks = [0] * len(homs)
        self.checked = 0

    def cone(self) -> tuple[MetMap, ...]:
        return tuple(MetMap._trusted(o, self.target, leg.maps[q])
                     for o, leg, q in zip(self.pieces, self.legs, self.picks))

    def _check(self, cocones: int) -> None:
        self.checked += cocones
        self.budget.spend_each(cocones)

    def walk(self, k: int, failing: bool):
        """Check the cocones that extend the maps picked for the legs before
        k, ``failing`` when those maps already break a pin.  None when each
        has exactly one mediator, else the mediators of the first that does
        not, whose maps ``cone`` returns."""
        if k == len(self.legs):
            self._check(1)
            return () if failing else self._search()
        leg, v = self.legs[k], self.v
        adm = leg.adm
        for a, near in leg.cross_adm:
            adm &= near[v[a]]
        ok = 0
        if not failing:
            ok = leg.ok
            for a, near in leg.cross_ok:
                ok &= near[v[a]]
        if k + 1 == len(self.legs) and not self.apex.free:
            # Every admissible map up to the first that breaks a pin is a
            # cocone checked; all before that one pass.
            bad = adm & ~ok
            stop = (bad & -bad).bit_length() - 1
            self._check((adm & ((2 << stop) - 1) if bad else adm).bit_count())
            if not bad:
                return None
            self.picks[k] = stop
            v[leg.span] = leg.maps[stop]
            return ()
        while adm:
            low = adm & -adm
            q = low.bit_length() - 1
            self.picks[k] = q
            v[leg.span] = leg.maps[q]
            meds = self.walk(k + 1, not ok & low)
            if meds is not None:
                return meds
            adm ^= low
        return None

    def _search(self):
        """The mediators of the picked cocone, which keeps its duplicate
        pins: None when there is exactly one."""
        apex, target, v = self.apex, self.target, self.v
        forced = {p: v[k] for p, k in enumerate(apex.first) if k < len(v)}
        found = _search(_required(apex.space, target, False), target.balls(), False,
                        self.budget.spend_each, forced)
        first_two = tuple(islice(found, 2))
        if len(first_two) == 1:
            return None
        return tuple(MetMap._trusted(apex.space, target, arr)
                     for arr in (*first_two, *found))


def _verify(p: Presentation, apex: Space, legs, eps: ExtRat, targets,
            max_nodes: int | NodeBudget | None) -> VerifyReport:
    """Check the cocones of ``p`` into each target against the apex and its
    legs."""
    budget = NodeBudget.of(max_nodes)
    if len(legs) != len(p.pieces) or any(
            leg.dom != piece or leg.cod != apex for leg, piece in zip(legs, p.pieces)):
        raise MismatchedEndpoints("the legs must map the pieces into the apex")
    maps = [leg.map for leg in legs]
    dist = apex.dist
    if max((dist[maps[i][x]][maps[j][y]] for i, x, j, y in p.bridges), default=ZERO) > eps:
        return VerifyReport(False, 0, Counterexample("square", None, tuple(legs), ()))
    a = _Apex(apex, maps, p.bridges)
    checked = 0
    for target in targets:
        join = _Join(target, p.pieces, a, eps, budget)
        meds = join.walk(0, False)
        checked += join.checked
        if meds is not None:
            kind = "uniqueness" if meds else "existence"
            return VerifyReport(False, checked, Counterexample(kind, target, join.cone(), meds))
    return VerifyReport(True, checked, None)


def verify_pushout(result: EpsPushoutResult, f: MetMap, g: MetMap,
                   targets, *, max_nodes: int | None = None) -> VerifyReport:
    """Check Def-style universality of a claimed eps-pushout of (f, g)."""
    return _verify(span_presentation(f, g), result.apex, (result.leg_g, result.leg_f),
                   result.eps, targets, max_nodes)


def verify_coequalizer(result: EpsCoequalizerResult, f: MetMap, g: MetMap,
                       targets, *, max_nodes: int | None = None) -> VerifyReport:
    return _verify(pair_presentation(f, g), result.apex, (result.leg,), result.eps,
                   targets, max_nodes)


def verify_colimit(result: EpsColimitResult, diagram: FinDiagram,
                   targets, *, max_nodes: int | None = None) -> VerifyReport:
    """Check universality against every eps-commuting cocone."""
    return _verify(diagram_presentation(diagram), result.apex, result.legs, result.eps,
                   targets, max_nodes)
