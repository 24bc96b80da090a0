"""Deterministic seeded corpora of small spaces, maps, and diagrams.

Everything here is a pure function of the provided RNG, which callers seed;
re-running with the same seed reproduces every instance bit for bit.

Equal space draws share one ``Space``: each drawn grid tuple is validated
once and memoized (a bounded LRU, rejected draws included).  Two draws may
therefore be the same object whether or not they were drawn as one, so
callers compare draws by value, never by ``is``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .colimits import FinDiagram
from .extrat import INF, ZERO, ExtRat, rat
from .homsearch import _homs
from .reflect import Semimetric
from .spaces import MetMap, Space, identity, one_point, validate_space
from .errors import SpaceValidationError

DEFAULT_GRID: tuple[ExtRat, ...] = (
    rat("1/2"), rat(1), rat("3/2"), rat(2), INF,
)


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus generation; defaults match the standard small corpus."""

    max_points: int = 4
    grid: tuple[ExtRat, ...] = DEFAULT_GRID
    allow_empty: bool = False


def random_space(rng: random.Random, cfg: CorpusConfig = CorpusConfig(),
                 *, min_points: int | None = None) -> Space:
    lo = 0 if cfg.allow_empty else 1
    if min_points is not None:
        lo = min_points
    n = rng.randint(lo, cfg.max_points)
    pairs = n * (n - 1) // 2
    for _ in range(200):
        space = _grid_space(n, tuple(rng.choice(cfg.grid) for _ in range(pairs)))
        if space is not None:
            return space
    # all-equal distances satisfy the axioms unless the value drawn is zero,
    # which validating the rows again reports
    upper = (rng.choice(cfg.grid),) * pairs
    space = _grid_space(n, upper)
    return space if space is not None else validate_space(_rows(n, upper))


@lru_cache(maxsize=256)
def _grid_space(n: int, upper: tuple) -> Space | None:
    """The space on n points whose upper triangle of ``ExtRat``s, row by
    row, is ``upper``, validated once; None when it breaks an axiom."""
    try:
        return Space._validated(_rows(n, upper))
    except SpaceValidationError:
        return None


def _rows(n: int, upper) -> tuple[tuple, ...]:
    rows = [[ZERO] * n for _ in range(n)]
    values = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(values)
    return tuple(map(tuple, rows))


def random_semimetric(rng: random.Random, n: int, values) -> Semimetric:
    rows = [[rat(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(tuple(values))
            rows[i][j] = rows[j][i] = v
    return Semimetric(tuple(tuple(r) for r in rows))


def random_map(rng: random.Random, dom: Space, cod: Space) -> MetMap | None:
    maps = _homs(dom, cod)
    if not maps:
        return None
    return MetMap._trusted(dom, cod, maps[rng.randrange(len(maps))])


def random_span(rng: random.Random, cfg: CorpusConfig = CorpusConfig()):
    """(f: A -> B, g: A -> C) with a shared domain."""
    for _ in range(100):
        A = random_space(rng, cfg)
        B = random_space(rng, cfg)
        C = random_space(rng, cfg)
        f = random_map(rng, A, B)
        g = random_map(rng, A, C)
        if f is not None and g is not None:
            return f, g
    p = one_point()
    return identity(p), identity(p)


def random_parallel_pair(rng: random.Random, cfg: CorpusConfig = CorpusConfig()):
    for _ in range(100):
        A = random_space(rng, cfg)
        B = random_space(rng, cfg)
        maps = _homs(A, B)
        if maps:
            f = maps[rng.randrange(len(maps))]
            g = maps[rng.randrange(len(maps))]
            return MetMap._trusted(A, B, f), MetMap._trusted(A, B, g)
    p = one_point()
    return identity(p), identity(p)


def random_diagram(rng: random.Random, cfg: CorpusConfig = CorpusConfig(),
                   *, max_objects: int = 3, max_arrows: int = 3) -> FinDiagram:
    n_obj = rng.randint(1, max_objects)
    objects = tuple(random_space(rng, cfg) for _ in range(n_obj))
    arrows = []
    for _ in range(rng.randint(0, max_arrows)):
        i = rng.randrange(n_obj)
        j = rng.randrange(n_obj)
        m = random_map(rng, objects[i], objects[j])
        if m is not None:
            arrows.append((i, j, m))
    return FinDiagram(objects, tuple(arrows))


def random_split_mono(rng: random.Random, cfg: CorpusConfig = CorpusConfig()):
    """A section f with a strict retraction, or None if the draw fails.

    Built by embedding a subspace back into its parent and searching for a
    retraction fixing it pointwise.
    """
    from .spaces import subspace

    for _ in range(60):
        L = random_space(rng, cfg, min_points=1)
        k = rng.randint(1, L.n)
        pts = tuple(sorted(rng.sample(range(L.n), k)))
        K, incl = subspace(L, pts)
        for p in _homs(L, K):
            if tuple(p[i] for i in incl.map) == tuple(range(K.n)):
                return incl, MetMap._trusted(L, K, p)
    return None
