"""Exhaustive universal-property verification for approximate colimits.

Each verifier quantifies over every test cospan/cocone into the supplied
target spaces and demands exactly one mediating morphism.  Mediators are
pinned down on the leg images and completed by search on any uncovered apex
points, so corrupted candidates (an extra floating point, a distorted apex)
are caught as existence or uniqueness failures.  The first counterexample in
enumeration order is reported, making failures reproducible fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .budgets import NodeBudget
from .colimits import EpsColimitResult, EpsCoequalizerResult, EpsPushoutResult, FinDiagram
from .homsearch import hom_set
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


def _is_nonexpansive(dom: Space, cod: Space, arr) -> bool:
    dd, cd = dom.dist, cod.dist
    n = dom.n
    for i in range(n):
        ai = arr[i]
        di = dd[i]
        row = cd[ai]
        for j in range(i + 1, n):
            if row[arr[j]] > di[j]:
                return False
    return True


def _mediators(apex: Space, target: Space, pins: Iterable[tuple[int, int]],
               budget: NodeBudget) -> tuple[MetMap, ...]:
    """All non-expansive apex -> target maps honoring the pinned values."""
    forced: dict[int, int] = {}
    for p, v in pins:
        if forced.setdefault(p, v) != v:
            return ()
    free = [p for p in range(apex.n) if p not in forced]
    arr = [forced.get(p, 0) for p in range(apex.n)]
    found: list[MetMap] = []

    def extend(k: int):
        if k == len(free):
            if _is_nonexpansive(apex, target, arr):
                found.append(MetMap(apex, target, tuple(arr)))
            return
        p = free[k]
        for c in range(target.n):
            budget.spend()
            arr[p] = c
            extend(k + 1)

    if target.n == 0 and free:
        return ()
    budget.spend()
    extend(0)
    return tuple(found)


def verify_pushout(result: EpsPushoutResult, f: MetMap, g: MetMap,
                   targets, *, max_nodes: int | None = None) -> VerifyReport:
    """Check Def-style universality of a claimed eps-pushout of (f, g)."""
    budget = NodeBudget(max_nodes)
    eps = result.eps
    A, B, C = f.dom, f.cod, g.cod
    checked = 0
    square = hom_dist(g.then(result.leg_f), f.then(result.leg_g))
    if square > eps:
        return VerifyReport(False, 0, Counterexample(
            "square", None, (result.leg_g, result.leg_f), ()))
    for target in targets:
        homB = hom_set(B, target)
        homC = hom_set(C, target)
        for gp in homB:
            gpf = f.then(gp)
            for fp in homC:
                if hom_dist(g.then(fp), gpf) > eps:
                    continue
                checked += 1
                pins = [(result.leg_g.map[b], gp.map[b]) for b in range(B.n)]
                pins += [(result.leg_f.map[c], fp.map[c]) for c in range(C.n)]
                meds = _mediators(result.apex, target, pins, budget)
                if len(meds) != 1:
                    kind = "existence" if not meds else "uniqueness"
                    return VerifyReport(False, checked, Counterexample(
                        kind, target, (gp, fp), meds))
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
    for target in targets:
        for hp in hom_set(B, target):
            if hom_dist(f.then(hp), g.then(hp)) > eps:
                continue
            checked += 1
            pins = [(result.leg.map[b], hp.map[b]) for b in range(B.n)]
            meds = _mediators(result.apex, target, pins, budget)
            if len(meds) != 1:
                kind = "existence" if not meds else "uniqueness"
                return VerifyReport(False, checked, Counterexample(
                    kind, target, (hp,), meds))
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
    for target in targets:
        homs = [hom_set(o, target) for o in objs]
        cone: list[MetMap | None] = [None] * len(objs)

        def cocones(k: int):
            if k == len(objs):
                yield tuple(cone)
                return
            for c in homs[k]:
                budget.spend()
                cone[k] = c
                ok = True
                for i, j, m in diagram.arrows:
                    if i == k and j <= k:
                        if hom_dist(c, m.then(cone[j])) > eps:
                            ok = False
                            break
                    elif j == k and i <= k:
                        if hom_dist(cone[i], m.then(c)) > eps:
                            ok = False
                            break
                if ok:
                    yield from cocones(k + 1)
            cone[k] = None

        for cc in cocones(0):
            checked += 1
            pins = []
            for leg, c in zip(result.legs, cc):
                pins += [(leg.map[x], c.map[x]) for x in range(leg.dom.n)]
            meds = _mediators(result.apex, target, pins, budget)
            if len(meds) != 1:
                kind = "existence" if not meds else "uniqueness"
                return VerifyReport(False, checked, Counterexample(
                    kind, target, cc, meds))
    return VerifyReport(True, checked, None)
