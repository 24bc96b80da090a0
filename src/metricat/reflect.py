"""Reflection of semimetrics into spaces.

A semimetric may violate separation and the triangle inequality.  Its
reflection replaces each distance by the least total weight of a chain of
intermediate points, then identifies points at distance zero; the result is
the universal space receiving a non-expansive map from the input.

The chain minimization is all-pairs shortest paths, relaxed as plain
integers on the exact encoding of ``extrat.integer_matrix``: any true
finite path weight stays below its infinity sentinel (one more than the sum
of every finite entry), so the computation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _shortest_paths(dist) -> list[list[ExtRat]]:
    n = len(dist)
    if n == 0:
        return []
    m, scale, sentinel = integer_matrix(dist)
    for k in range(n):
        mk = m[k]
        for i in range(n):
            dik = m[i][k]
            if dik >= sentinel:
                continue
            mi = m[i]
            for j in range(i + 1, n):
                alt = dik + mk[j]
                if alt < mi[j]:
                    mi[j] = alt
                    m[j][i] = alt
    out = []
    for row in m:
        out.append([INF if v >= sentinel else ExtRat(v, scale) for v in row])
    return out


def reflect(sm: Semimetric) -> Reflection:
    """Chain-minimize, then collapse zero-distance classes."""
    closed = _shortest_paths(sm.dist)
    n = sm.n
    projection = [-1] * n
    reps: list[int] = []
    for i in range(n):
        for r in reps:
            if closed[i][r] == ZERO:
                projection[i] = projection[r]
                break
        else:
            projection[i] = len(reps)
            reps.append(i)
    dist = tuple(
        tuple(closed[a][b] for b in reps) for a in reps
    )
    return Reflection(Space(dist), tuple(projection))
