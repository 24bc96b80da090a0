"""Finite extended-metric spaces and non-expansive maps.

A Space is a finite set of points with exact distances in the nonnegative
rationals extended by infinity: zero exactly on the diagonal, symmetric, and
triangle-closed.  Morphisms are non-expansive point maps; the hom-distance
between parallel maps is the sup (here: max) of pointwise distances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import isqrt
from operator import add, or_

from .budgets import DEFAULT_POINT_BUDGET
from .errors import (
    InvalidMorphism,
    MismatchedEndpoints,
    SizeOverflow,
    SpaceValidationError,
    Violation,
)
from .extrat import INF, ZERO, ExtRat, integer_matrix, rat


def _axiom_violations(dist, *, full: bool = True):
    """Collect every violated axiom of a square ExtRat matrix.

    The triangle check runs on the exact integer image of the matrix: each
    pair i < j is tested against every k at once, and k is walked only for a
    failing pair, to name its first witness.
    """
    out = []
    n = len(dist)
    for i, row in enumerate(dist):
        if len(row) != n:
            out.append(Violation("NotSquare", (i,)))
    if out:
        return out
    for i in range(n):
        if dist[i][i] != ZERO:
            out.append(Violation("NonZeroDiagonal", (i,)))
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                out.append(Violation("Asymmetric", (i, j)))
            elif dist[i][j] == ZERO:
                out.append(Violation("ZeroOffDiagonal", (i, j)))
    if out or not full or n < 3:
        return out
    m, _, _ = integer_matrix(dist)
    failed = {}
    for i in range(n):
        mi = m[i]
        for j in range(i + 1, n):
            mij = mi[j]
            if min(map(add, mi, m[j])) < mij:
                failed[i, j] = next(
                    k for k, (a, b) in enumerate(zip(mi, m[j])) if a + b < mij
                )
    if failed:
        # A symmetric matrix fails (i, j) and (j, i) with the same first witness.
        for i, j in sorted([*failed, *((j, i) for i, j in failed)]):
            out.append(Violation("TriangleViolation", (i, j, failed[min(i, j), max(i, j)])))
    return out


@dataclass(frozen=True, slots=True)
class Space:
    """Immutable finite extended-metric space.

    ``dist`` is the full symmetric matrix; ``labels`` are optional display
    names.  There are three ways in:

    - ``Space(dist, labels)`` checks the cheap axioms (shape, diagonal,
      symmetry, separation).  Products, coproducts, subspaces, canonical
      forms and the small spaces built by hand use it; the triangle
      inequality holds for them by construction.
    - ``Space._validated(dist, labels)`` checks every axiom, the triangle
      included, once.  :func:`validate_space`, the JSON decoders, corpus
      draws and grid enumeration use it.  Loading a run directory decodes
      and fully validates each stage file once, and every map that refers
      to the stage shares that one Space.
    - ``Space._ranked(values, ranks)`` checks nothing: it builds the matrix
      from a rank table in the form ``ranks()`` returns, before packing.
      Only ``reflect._reflect`` uses it: its matrix is triangle-closed and
      separated by construction, and it reads the table off its integer
      closure.

    ``assert_metric`` runs the full check on demand; the tests call it on
    internally built spaces.  Three caches are filled on first use and take
    no part in equality, pickling or copying: the hash, the rank table
    (``ranks``) and the ball masks (``balls``) that the searches in
    :mod:`metricat.homsearch` read.
    """

    dist: tuple[tuple[ExtRat, ...], ...]
    labels: tuple[str, ...] | None = None
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    _values: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _rank: bytes | tuple | None = field(default=None, init=False, repr=False, compare=False)
    _balls: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dist", tuple(tuple(row) for row in self.dist))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.dist):
                raise SpaceValidationError([Violation("NotSquare", (len(self.labels),))])
        bad = _axiom_violations(self.dist, full=False)
        if bad:
            raise SpaceValidationError(bad)

    @classmethod
    def _validated(cls, dist, labels=None) -> "Space":
        # Internal: check a tuple-of-tuples matrix against every axiom once,
        # triangle included, then the label count, and skip __post_init__.
        bad = _axiom_violations(dist, full=True)
        if bad:
            raise SpaceValidationError(bad)
        if labels is not None and len(labels) != len(dist):
            raise SpaceValidationError([Violation("NotSquare", (len(labels),))])
        return cls._bare(dist, labels)

    @classmethod
    def _ranked(cls, values, ranks) -> "Space":
        # Internal: the space whose row-major distances are values[r] for r
        # in ranks, a triangle-closed, separated matrix; ``values`` sorted
        # and distinct, as ``ranks()`` computes them.  No checks.
        self = cls._bare(None, None)
        values, rank = self._store_ranks(values, ranks)
        n = isqrt(len(rank))
        object.__setattr__(self, "dist", tuple(
            tuple(map(values.__getitem__, rank[i * n:i * n + n])) for i in range(n)))
        return self

    @classmethod
    def _bare(cls, dist, labels) -> "Space":
        self = object.__new__(cls)
        for slot in cls.__slots__:
            object.__setattr__(self, slot, None)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "labels", labels)
        return self

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.dist, self.labels)))
        return self._hash

    def __reduce__(self):
        # Rebuild rather than copy the caches: a label's hash differs
        # between processes, so a cached hash must not travel.
        return (Space, (self.dist, self.labels))

    @property
    def n(self) -> int:
        return len(self.dist)

    def d(self, i: int, j: int) -> ExtRat:
        return self.dist[i][j]

    def ranks(self) -> tuple[tuple[ExtRat, ...], bytes | tuple[int, ...]]:
        """``(values, rank)``: the sorted distinct distances, and the index
        among them of each distance, row-major: ``rank[i * n + j]`` for
        ``dist[i][j]``.  Ranks order exactly as the distances do.  ``rank``
        is a bytes object when there are at most 256 values."""
        if self._rank is None:
            flat = tuple(itertools.chain.from_iterable(self.dist))
            values = tuple(sorted(set(flat)))
            index = {v: r for r, v in enumerate(values)}
            self._store_ranks(values, map(index.__getitem__, flat))
        return self._values, self._rank

    def _store_ranks(self, values, ranks):
        # The one place the rank table is packed: bytes when at most 256
        # values, else a tuple.
        rank = bytes(ranks) if len(values) <= 256 else tuple(ranks)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_rank", rank)
        return values, rank

    def balls(self) -> tuple[bytes | tuple[int, ...], ...]:
        """``balls()[p][r]``: the bitmask (bit ``q`` for point ``q``) of the
        points at rank at most ``r`` from ``p``.  A row ``balls()[p]`` is a
        bytes object when there are at most 8 points."""
        if self._balls is None:
            values, rank = self.ranks()
            n = self.n
            table = []
            for p in range(n):
                masks = [0] * len(values)
                for q, r in enumerate(rank[p * n:(p + 1) * n]):
                    masks[r] |= 1 << q
                masks = itertools.accumulate(masks, or_)
                table.append(bytes(masks) if n <= 8 else tuple(masks))
            object.__setattr__(self, "_balls", tuple(table))
        return self._balls

    def assert_metric(self) -> "Space":
        """Full axiom check, triangle included.  Returns self."""
        bad = _axiom_violations(self.dist, full=True)
        if bad:
            raise SpaceValidationError(bad)
        return self

    def relabel(self, labels) -> "Space":
        return Space(self.dist, tuple(labels) if labels is not None else None)

    def __repr__(self) -> str:
        return f"Space(n={self.n})"


def validate_space(rows, labels=None) -> Space:
    """Build a Space from raw rows (ints, 'p/q' strings, or ExtRat).

    Raises SpaceValidationError listing every violated axiom, the triangle
    inequality included.
    """
    return Space._validated(tuple(tuple(rat(x) for x in row) for row in rows),
                            tuple(labels) if labels is not None else None)


def empty_space() -> Space:
    return Space(())


def one_point(label: str | None = None) -> Space:
    return Space(((ZERO,),), (label,) if label else None)


def two_point(eps) -> Space:
    """The two-point space at distance eps; at eps = 0 this is the point."""
    e = rat(eps)
    if e == ZERO:
        return one_point()
    return Space(((ZERO, e), (e, ZERO)))


@dataclass(frozen=True, slots=True)
class MetMap:
    """A non-expansive map between spaces, stored as a point-index tuple."""

    dom: Space
    cod: Space
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.dom.n:
            raise InvalidMorphism(
                f"map has {len(self.map)} entries for a {self.dom.n}-point domain"
            )
        m = self.cod.n
        for i, p in enumerate(self.map):
            if not (0 <= p < m):
                raise InvalidMorphism(f"image of point {i} out of range: {p}")
        dd, cd = self.dom.dist, self.cod.dist
        for i in range(self.dom.n):
            fi = self.map[i]
            for j in range(i + 1, self.dom.n):
                if cd[fi][self.map[j]] > dd[i][j]:
                    raise InvalidMorphism(
                        f"expansion at pair ({i}, {j}): "
                        f"{cd[fi][self.map[j]]} > {dd[i][j]}"
                    )

    @classmethod
    def _trusted(cls, dom: Space, cod: Space, map: tuple[int, ...]) -> "MetMap":
        # Internal: a map that is non-expansive by construction; no checks.
        self = object.__new__(cls)
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_map(self, map)
        return self

    def __call__(self, i: int) -> int:
        return self.map[i]

    def then(self, g: "MetMap") -> "MetMap":
        """Diagrammatic composition: (f.then(g))(x) = g(f(x)).

        A composite of non-expansive maps is non-expansive, so only the
        endpoints are checked.
        """
        if self.cod != g.dom:
            raise MismatchedEndpoints("composition endpoints do not match")
        return MetMap._trusted(self.dom, g.cod, tuple(g.map[p] for p in self.map))

    def __repr__(self) -> str:
        return f"MetMap({self.dom.n}->{self.cod.n}, {self.map})"


# The trusted constructor writes the slots through their descriptors: a
# frozen dataclass refuses plain writes, and this skips the name lookup of
# object.__setattr__.
_set_dom, _set_cod, _set_map = MetMap.dom.__set__, MetMap.cod.__set__, MetMap.map.__set__


def identity(space: Space) -> MetMap:
    return MetMap(space, space, tuple(range(space.n)))


def compose(g: MetMap, f: MetMap) -> MetMap:
    """Classical composition g after f."""
    return f.then(g)


def hom_dist(f: MetMap, g: MetMap) -> ExtRat:
    """Sup-distance between parallel maps; ZERO on an empty domain."""
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchedEndpoints("hom_dist needs parallel morphisms")
    best = ZERO
    cd = f.cod.dist
    for p, q in zip(f.map, g.map):
        d = cd[p][q]
        if d > best:
            best = d
    return best


def is_eps_homotopic(f: MetMap, g: MetMap, eps) -> bool:
    return hom_dist(f, g) <= rat(eps)


def is_isometry(f: MetMap) -> bool:
    """Distance-preserving (hence injective, by separation)."""
    dd, cd = f.dom.dist, f.cod.dist
    for i in range(f.dom.n):
        fi = f.map[i]
        for j in range(i + 1, f.dom.n):
            if cd[fi][f.map[j]] != dd[i][j]:
                return False
    return True


def subspace(space: Space, points) -> tuple[Space, MetMap]:
    """Induced subspace on the given point indices, with its inclusion."""
    pts = tuple(points)
    sub = Space(
        tuple(tuple(space.dist[i][j] for j in pts) for i in pts),
        tuple(space.labels[i] for i in pts) if space.labels else None,
    )
    return sub, MetMap(sub, space, pts)


@dataclass(frozen=True)
class CoproductResult:
    space: Space
    injections: tuple[MetMap, ...]


def coproduct(spaces) -> CoproductResult:
    """Disjoint union; distinct summands sit at infinite distance."""
    spaces = tuple(spaces)
    offsets = []
    total = 0
    for s in spaces:
        offsets.append(total)
        total += s.n
    dist = [[INF] * total for _ in range(total)]
    for s, off in zip(spaces, offsets):
        for i in range(s.n):
            row = dist[off + i]
            for j in range(s.n):
                row[off + j] = s.dist[i][j]
    space = Space(tuple(tuple(row) for row in dist))
    injections = tuple(
        MetMap(s, space, tuple(range(off, off + s.n)))
        for s, off in zip(spaces, offsets)
    )
    return CoproductResult(space, injections)


@dataclass(frozen=True)
class ProductResult:
    space: Space
    projections: tuple[MetMap, ...]
    coords: tuple[tuple[int, ...], ...] = field(repr=False)

    def point(self, coord) -> int:
        return self.coords.index(tuple(coord))


def product(spaces, *, max_points: int | None = None) -> ProductResult:
    """Cartesian product under the max-metric; empty product is the point."""
    spaces = tuple(spaces)
    cap = DEFAULT_POINT_BUDGET if max_points is None else max_points
    size = 1
    for s in spaces:
        size *= s.n
    if size > cap:
        raise SizeOverflow(f"product would have {size} points (budget {cap})")
    coords = tuple(itertools.product(*(range(s.n) for s in spaces)))
    dist = []
    for a in coords:
        row = []
        for b in coords:
            best = ZERO
            for s, i, j in zip(spaces, a, b):
                d = s.dist[i][j]
                if d > best:
                    best = d
            row.append(best)
        dist.append(tuple(row))
    space = Space(tuple(dist))
    projections = tuple(
        MetMap(space, s, tuple(c[k] for c in coords))
        for k, s in enumerate(spaces)
    )
    return ProductResult(space, projections, coords)
