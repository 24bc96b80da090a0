"""Reflection of semimetrics into spaces.

A semimetric may violate separation and the triangle inequality.  Its
reflection replaces each distance by the least total weight of a chain of
intermediate points, then identifies points at distance zero; the result is
the universal space receiving a non-expansive map from the input.

The chain minimization is all-pairs shortest paths, relaxed as plain
integers on the exact encoding of ``extrat.integer_matrix``: any true
finite path weight stays below its infinity sentinel (one more than the sum
of every finite entry), so the computation is exact.  Floyd-Warshall's
closure does not depend on the order of the intermediate points, so the
points go sparsest first (fewest finite entries in the input, ties in index
order), and each point relaxes only the pairs inside its finite
neighbourhood.  A presentation's coproduct of small pieces joined by a few
bridges then costs little more than its bridges.  Zero classes and the
reflected space's rank table are read off the closed integers as well, and
the space holds one ``ExtRat`` per distinct distance.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress

from .errors import SpaceValidationError, Violation
from .extrat import INF, ZERO, ExtRat, integer_matrix, rat
from .spaces import MetMap, Space


@dataclass(frozen=True)
class Semimetric:
    """Symmetric, zero-diagonal, nonnegative matrix; triangle not required."""

    dist: tuple[tuple[ExtRat, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "dist", tuple(tuple(row) for row in self.dist))
        bad = []
        n = len(self.dist)
        for i, row in enumerate(self.dist):
            if len(row) != n:
                bad.append(Violation("NotSquare", (i,)))
        if not bad:
            for i in range(n):
                if self.dist[i][i] != ZERO:
                    bad.append(Violation("NonZeroDiagonal", (i,)))
                for j in range(i + 1, n):
                    if self.dist[i][j] != self.dist[j][i]:
                        bad.append(Violation("Asymmetric", (i, j)))
        if bad:
            raise SpaceValidationError(bad)

    @property
    def n(self) -> int:
        return len(self.dist)


def semimetric_of(rows) -> Semimetric:
    return Semimetric(tuple(tuple(rat(x) for x in row) for row in rows))


def semimetric_of_space(space: Space) -> Semimetric:
    return Semimetric(space.dist)


@dataclass(frozen=True)
class Reflection:
    """Reflected space plus the projection sending input point -> class."""

    space: Space
    projection: tuple[int, ...]

    def as_map(self, dom: Space) -> MetMap:
        return MetMap(dom, self.space, self.projection)


def _shortest_paths(dist) -> tuple[list[list[int]], int, int]:
    """The closed ``integer_matrix(dist)``: ``(rows, scale, inf)``."""
    m, scale, sentinel = integer_matrix(dist)
    n = len(m)
    # Every entry is at most the sentinel, so a row's count of sentinels is
    # its count of infinite entries.
    for k in sorted(range(n), key=lambda k: n - m[k].count(sentinel)):
        # Row k is fixed during k's own turn, and a sum with the sentinel
        # never lowers an entry, so only pairs of k's finite neighbours can
        # improve.
        mk = m[k]
        near = list(compress(range(n), map(sentinel.__gt__, mk)))
        for a, i in enumerate(near):
            dik = mk[i]
            mi = m[i]
            for j in near[a + 1:]:
                alt = dik + mk[j]
                if alt < mi[j]:
                    mi[j] = alt
                    m[j][i] = alt
    return m, scale, sentinel


def _reflect(dist) -> Reflection:
    """Reflect ``dist``, a square, symmetric, zero-diagonal ExtRat matrix.

    The collapsed closure is triangle-closed and separated, so
    ``Space._ranked`` builds the space unchecked from its distinct closed
    integers, sorted (they sort as the distances do), and each entry's index
    among them.  Every integer at or above the sentinel is INF, at the one
    last rank.
    """
    m, scale, sentinel = _shortest_paths(dist)
    # Zero distance is an equivalence once closed: a point's first zero is
    # its class's least member, and the classes are numbered in that order.
    label: dict[int, int] = {}
    projection = tuple(label.setdefault(row.index(0), len(label)) for row in m)
    rows = [[m[a][b] for b in label] for a in label]
    ints = sorted(set(chain.from_iterable(rows)))
    finite = bisect_left(ints, sentinel)
    values = tuple(ExtRat(v, scale) for v in ints[:finite]) + (INF,) * (finite < len(ints))
    rank_of = {v: min(r, finite) for r, v in enumerate(ints)}
    return Reflection(
        Space._ranked(values, map(rank_of.__getitem__, chain.from_iterable(rows))), projection)


def reflect(sm: Semimetric) -> Reflection:
    """Chain-minimize, then collapse zero-distance classes."""
    return _reflect(sm.dist)
