"""Approximate colimits built by bridging and reflecting.

Every construction here follows the same recipe: lay out a coproduct, lower
selected cross-distances to the tolerance ("bridges"), reflect the resulting
semimetric, and read the structure maps off the projection.  At tolerance
zero the bridges collapse and the constructions are the classical quotient
colimits; at infinite tolerance they degenerate to plain coproducts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .budgets import DEFAULT_STAGE_POINT_BUDGET
from .errors import BudgetExceeded, InvalidMorphism, MismatchedEndpoints, UsageError
from .extrat import ZERO, ExtRat, rat
from .reflect import Reflection, Semimetric, reflect
from .spaces import MetMap, Space, coproduct, hom_dist


def _bridged(base: Space, bridges) -> Reflection:
    rows = [list(r) for r in base.dist]
    for i, j, e in bridges:
        if i == j:
            continue
        if e < rows[i][j]:
            rows[i][j] = e
            rows[j][i] = e
    return reflect(Semimetric(tuple(tuple(r) for r in rows)))


@dataclass(frozen=True)
class EpsPushoutResult:
    """Apex with legs; leg_g: B -> apex, leg_f: C -> apex for a span
    f: A -> B, g: A -> C.  The legs close the square within eps."""

    apex: Space
    leg_f: MetMap
    leg_g: MetMap
    eps: ExtRat


def eps_pushout(f: MetMap, g: MetMap, eps) -> EpsPushoutResult:
    """Universal eps-commuting cospan under the span (f, g)."""
    if f.dom != g.dom:
        raise MismatchedEndpoints("a span needs a shared domain")
    e = rat(eps)
    B, C = f.cod, g.cod
    cop = coproduct((B, C))
    off = B.n
    refl = _bridged(
        cop.space,
        ((f.map[a], off + g.map[a], e) for a in range(f.dom.n)),
    )
    proj = refl.projection
    return EpsPushoutResult(
        apex=refl.space,
        leg_g=MetMap(B, refl.space, proj[:off]),
        leg_f=MetMap(C, refl.space, proj[off:]),
        eps=e,
    )


def pushout(f: MetMap, g: MetMap) -> EpsPushoutResult:
    """Classical pushout: glue along the span exactly."""
    return eps_pushout(f, g, ZERO)


@dataclass(frozen=True)
class EpsCoequalizerResult:
    apex: Space
    leg: MetMap
    eps: ExtRat


def eps_coequalizer(f: MetMap, g: MetMap, eps) -> EpsCoequalizerResult:
    """Universal h with h∘f and h∘g within eps.

    Lowering d(f(a), g(a)) to eps inside the shared codomain and reflecting
    yields the couniversal object: any h' with h'∘f ~eps h'∘g factors
    through it uniquely, because the reflected distance is the largest one
    below the constraints and the apex is exactly the image of the leg.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchedEndpoints("a parallel pair needs shared endpoints")
    e = rat(eps)
    B = f.cod
    refl = _bridged(B, ((f.map[a], g.map[a], e) for a in range(f.dom.n)))
    return EpsCoequalizerResult(refl.space, MetMap(B, refl.space, refl.projection), e)


@dataclass(frozen=True)
class FinDiagram:
    """Finite diagram: indexed objects plus arrows (src, dst, map)."""

    objects: tuple[Space, ...]
    arrows: tuple[tuple[int, int, MetMap], ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        for k, (i, j, m) in enumerate(self.arrows):
            if not (0 <= i < len(self.objects) and 0 <= j < len(self.objects)):
                raise MismatchedEndpoints(f"arrow {k} endpoints out of range")
            if m.dom != self.objects[i] or m.cod != self.objects[j]:
                raise MismatchedEndpoints(f"arrow {k} does not match its endpoints")


@dataclass(frozen=True)
class EpsColimitResult:
    apex: Space
    legs: tuple[MetMap, ...]
    eps: ExtRat


def eps_colimit(diagram: FinDiagram, eps, *, max_points: int | None = None) -> EpsColimitResult:
    """Coequalize the standard parallel pair between coproducts.

    Concretely: bridge, inside the coproduct of all objects, each pair
    (point, its image under an arrow) at eps, then reflect.
    """
    e = rat(eps)
    cap = DEFAULT_STAGE_POINT_BUDGET if max_points is None else max_points
    total = sum(s.n for s in diagram.objects)
    if total > cap:
        raise BudgetExceeded(f"diagram has {total} points (budget {cap})")
    cop = coproduct(diagram.objects)
    offs = [inj.map[0] if inj.dom.n else 0 for inj in cop.injections]
    bridges = []
    for i, j, m in diagram.arrows:
        oi, oj = offs[i], offs[j]
        for x in range(diagram.objects[i].n):
            p, q = oi + x, oj + m.map[x]
            if p != q:
                bridges.append((p, q, e))
    refl = _bridged(cop.space, bridges)
    legs = tuple(
        inj.then(refl.as_map(cop.space)) for inj in cop.injections
    )
    return EpsColimitResult(refl.space, legs, e)


def comparison(diagram: FinDiagram, eps, delta) -> MetMap:
    """Canonical morphism colim_eps -> colim_delta for delta <= eps."""
    e, d = rat(eps), rat(delta)
    if d > e:
        raise UsageError("comparison runs from the looser tolerance to the tighter")
    src = eps_colimit(diagram, e)
    dst = eps_colimit(diagram, d)
    arr = [-1] * src.apex.n
    for leg_e, leg_d in zip(src.legs, dst.legs):
        for p_e, p_d in zip(leg_e.map, leg_d.map):
            if arr[p_e] == -1:
                arr[p_e] = p_d
            elif arr[p_e] != p_d:
                raise InvalidMorphism("comparison map is not well defined")
    return MetMap(src.apex, dst.apex, tuple(arr))


@dataclass(frozen=True)
class CylinderResult:
    """Two fused copies of a space; ``inclusion`` maps the coproduct K+K in."""

    space: Space
    inclusion: MetMap


def cylinder(space: Space, eps) -> CylinderResult:
    """Both copies of each point moved to distance eps, then reflected.

    Cross distances come out as d(x', y'') = d(x, y) + eps, so a pair of
    maps (f, g) extends from K+K over the cylinder exactly when f and g are
    eps-close.  At eps = 0 the cylinder collapses back onto the space.
    Cylinders are kept in a bounded LRU keyed by (space, eps), emptied by
    :func:`clear_cache`.
    """
    return _cylinder(space, rat(eps))


def clear_cache() -> None:
    _cylinder.cache_clear()


@lru_cache(maxsize=256)
def _cylinder(space: Space, e: ExtRat) -> CylinderResult:
    cop = coproduct((space, space))
    n = space.n
    refl = _bridged(cop.space, ((i, n + i, e) for i in range(n)))
    return CylinderResult(refl.space, refl.as_map(cop.space))


def cylinder_factorization(f: MetMap, g: MetMap, eps) -> MetMap | None:
    """The mediating map off the cylinder when f ~eps g, else None."""
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchedEndpoints("cylinder factorization needs parallel maps")
    e = rat(eps)
    if hom_dist(f, g) > e:
        return None
    cyl = cylinder(f.dom, e)
    n = f.dom.n
    arr = [0] * cyl.space.n
    for i in range(n):
        arr[cyl.inclusion.map[i]] = f.map[i]
        arr[cyl.inclusion.map[n + i]] = g.map[i]
    return MetMap(cyl.space, f.cod, tuple(arr))
