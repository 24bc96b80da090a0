"""Approximate colimits built by bridging and reflecting.

Every construction here is a :class:`Presentation`: a coproduct of pieces
with chosen points put within the tolerance of each other ("bridges"),
reflected, with one leg per piece read off the projection.  The eps-pushout,
eps-coequalizer, eps-colimit and cylinder are thin wrappers over the
presentation builders below, and :mod:`metricat.verify` checks a claimed
colimit against the same presentation.  At tolerance zero the bridges
collapse and the constructions are the classical quotient colimits; at
infinite tolerance they degenerate to plain coproducts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .budgets import DEFAULT_STAGE_POINT_BUDGET
from .errors import BudgetExceeded, InvalidMorphism, MismatchedEndpoints, UsageError
from .extrat import INF, ZERO, ExtRat, rat
from .reflect import _reflect
from .spaces import MetMap, Space, coproduct, hom_dist, identity


@dataclass(frozen=True)
class Presentation:
    """Pieces and bridges: a bridge (i, x, j, y) puts point x of piece i
    within eps of point y of piece j."""

    pieces: tuple[Space, ...]
    bridges: tuple[tuple[int, int, int, int], ...]

    def colimit(self, eps: ExtRat) -> tuple[Space, tuple[MetMap, ...]]:
        """The apex and one leg per piece: the coproduct of the pieces with
        every bridge lowered to eps, reflected."""
        starts = list(accumulate((s.n for s in self.pieces), initial=0))
        rows = [[INF] * starts[-1] for _ in range(starts[-1])]
        for s, off in zip(self.pieces, starts):
            n, value = s.n, s.values.__getitem__
            for i in range(n):
                rows[off + i][off:off + n] = map(value, s.rank[i * n:i * n + n])
        for i, x, j, y in self.bridges:
            p, q = starts[i] + x, starts[j] + y
            if p != q and eps < rows[p][q]:
                rows[p][q] = rows[q][p] = eps
        refl = _reflect(rows)
        proj = refl.projection
        return refl.space, tuple(
            MetMap._trusted(s, refl.space, proj[a:b])
            for s, a, b in zip(self.pieces, starts, starts[1:]))


def span_presentation(f: MetMap, g: MetMap) -> Presentation:
    """B + C with f(a) bridged to g(a), for a span f: A -> B, g: A -> C."""
    if f.dom != g.dom:
        raise MismatchedEndpoints("a span needs a shared domain")
    return Presentation((f.cod, g.cod), tuple((0, x, 1, y) for x, y in zip(f.map, g.map)))


def pair_presentation(f: MetMap, g: MetMap) -> Presentation:
    """B with f(a) bridged to g(a), for a parallel pair f, g: A -> B."""
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchedEndpoints("a parallel pair needs shared endpoints")
    return Presentation((f.cod,), tuple((0, x, 0, y) for x, y in zip(f.map, g.map)))


def diagram_presentation(diagram: FinDiagram) -> Presentation:
    """The diagram's objects with x bridged to m(x) for each arrow (i, j, m)."""
    return Presentation(diagram.objects, tuple(
        (i, x, j, y) for i, j, m in diagram.arrows for x, y in enumerate(m.map)))


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
    e = rat(eps)
    apex, (leg_g, leg_f) = span_presentation(f, g).colimit(e)
    return EpsPushoutResult(apex, leg_f, leg_g, e)


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
    e = rat(eps)
    apex, (leg,) = pair_presentation(f, g).colimit(e)
    return EpsCoequalizerResult(apex, leg, e)


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
    apex, legs = diagram_presentation(diagram).colimit(e)
    return EpsColimitResult(apex, legs, e)


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
    """The eps-pushout of (id, id): both copies of each point moved to
    distance eps, then reflected.

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
    apex, (left, right) = span_presentation(identity(space), identity(space)).colimit(e)
    twice = coproduct((space, space)).space
    return CylinderResult(apex, MetMap._trusted(twice, apex, left.map + right.map))


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
