"""Independent reference implementations the test suite compares against.

Everything here is deliberately naive: simple-path enumeration instead of
relaxation, all-permutations isomorphism search, union-find quotients.  The
point is to agree with the fast code while sharing none of its structure.
"""

import itertools

from metricat.budgets import NodeBudget
from metricat.errors import BudgetExceeded, Violation
from metricat.extrat import INF, ZERO, ExtRat
from metricat.fraisse import Span, _span_dedup_group
from metricat.homsearch import hom_set, isometric_fillers, isometry_set
from metricat.spaces import Space


def axiom_violations_brute(dist):
    """Every violated space axiom, by the plain ExtRat triple loop.

    Same report as ``spaces._axiom_violations``: shape first, then diagonal,
    symmetry and separation, and only on a matrix that passes those, one
    TriangleViolation (i, j, k) per ordered pair with its first witness k.
    """
    n = len(dist)
    out = [Violation("NotSquare", (i,)) for i, row in enumerate(dist) if len(row) != n]
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
    if out:
        return out
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if k != i and k != j and dist[i][k] + dist[k][j] < dist[i][j]:
                    out.append(Violation("TriangleViolation", (i, j, k)))
                    break
    return out


def simple_path_closure(dist):
    """All-pairs shortest distance by enumerating simple paths.

    dist: square list-of-lists of ExtRat, assumed symmetric with zero
    diagonal.  Returns a new matrix; never mutates the input.  For each pair
    (i, j) a depth-first walk extends simple paths from i and drops one
    once its weight is no longer below the best i -> j weight found: the
    distances are nonnegative, so no extension could do better.  The result
    is the minimum over every simple path, as the permutation sweep of
    ``simple_path_closure_exhaustive`` finds it.
    """
    n = len(dist)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = dist[i][j]
            stack = [(i, ZERO, frozenset((i, j)))]
            while stack:
                prev, weight, seen = stack.pop()
                if not weight < best:
                    continue
                for k in range(n):
                    if k in seen:
                        continue
                    total = weight + dist[prev][k]
                    if not total < best:
                        continue
                    via = total + dist[k][j]
                    if via < best:
                        best = via
                    stack.append((k, total, seen | {k}))
            out[i][j] = best
    return out


def floyd_warshall_brute(dist):
    """All-pairs shortest distance by Floyd-Warshall over ExtRat, every
    point k in natural order as the intermediate for every pair.  Returns a
    new matrix; never mutates the input."""
    m = [list(row) for row in dist]
    for k, i, j in itertools.product(range(len(m)), repeat=3):
        if m[i][k] + m[k][j] < m[i][j]:
            m[i][j] = m[i][k] + m[k][j]
    return m


def simple_path_closure_exhaustive(dist):
    """All-pairs shortest distance by sweeping every simple path: each
    permutation of each subset of the other points, between i and j.

    dist: square list-of-lists of ExtRat, assumed symmetric with zero
    diagonal.  Returns a new matrix; never mutates the input.
    """
    n = len(dist)
    out = [[ZERO] * n for _ in range(n)]
    perms_cache = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = dist[i][j]
            others = [k for k in range(n) if k != i and k != j]
            for r in range(1, len(others) + 1):
                key = (tuple(others), r)
                if key not in perms_cache:
                    perms_cache[key] = list(itertools.permutations(others, r))
                for mid in perms_cache[key]:
                    total = ZERO
                    prev = i
                    for k in mid:
                        total = total + dist[prev][k]
                        prev = k
                    total = total + dist[prev][j]
                    if total < best:
                        best = total
            out[i][j] = best
    return out


def isomorphic_brute(a: Space, b: Space) -> bool:
    """Isometric-bijection search over every permutation."""
    return a.n == b.n and any(
        all(b.dist[perm[i]][perm[j]] == a.dist[i][j] for i in range(a.n) for j in range(a.n))
        for perm in itertools.permutations(range(a.n)))


def hom_brute(dom: Space, cod: Space):
    """Every non-expansive map dom -> cod, as sorted point tuples."""
    return [
        arr for arr in itertools.product(range(cod.n), repeat=dom.n)
        if all(
            cod.dist[arr[i]][arr[j]] <= dom.dist[i][j]
            for i in range(dom.n)
            for j in range(i + 1, dom.n)
        )
    ]


def iso_brute(dom: Space, cod: Space):
    """Every distance-preserving map dom -> cod, as sorted point tuples."""
    return [
        arr for arr in itertools.product(range(cod.n), repeat=dom.n)
        if all(
            cod.dist[arr[i]][arr[j]] == dom.dist[i][j]
            for i in range(dom.n)
            for j in range(i + 1, dom.n)
        )
    ]


def fillers_brute(h, pinned):
    """Every isometric v: cod(h) -> cod(pinned) with v(h(x)) = pinned(x),
    as sorted point tuples."""
    return [
        arr for arr in iso_brute(h.cod, pinned.cod)
        if all(arr[y] == k for y, k in zip(h.map, pinned.map))
    ]


def verify_brute(apex, legs, eps, objects, bridges, targets):
    """The universal property of a claimed colimit, by plain enumeration.

    A cocone into a target T is one map per object (from ``hom_brute``, the
    objects varying lexicographically, last fastest) with
    ``d_T(c_i(x), c_j(y)) <= eps`` for every bridge ``(i, x, j, y)``; a
    mediator is a non-expansive apex -> T map with ``med(legs[i][x]) ==
    c_i(x)``, found among every choice of image per apex point.  Returns
    ``(ok, checked, kind, cone, mediators)`` with the maps as point tuples:
    the legs as the cone for a failed square, otherwise the first cocone
    without exactly one mediator, and all its mediators.  A verify_pushout
    of (f, g) is the objects (B, C) with the bridges (0, f(a), 1, g(a)), a
    verify_coequalizer the object B with (0, f(a), 0, g(a)), and a
    verify_colimit the diagram's objects with (i, x, j, m(x)) per arrow.
    """
    def within(space, maps):
        return all(space.dist[maps[i][x]][maps[j][y]] <= eps for i, x, j, y in bridges)

    if not within(apex, legs):
        return False, 0, "square", tuple(legs), ()
    checked = 0
    for target in targets:
        homs = [hom_brute(obj, target) for obj in objects]
        for cone in itertools.product(*homs):
            if not within(target, cone):
                continue
            checked += 1
            choices = [set(range(target.n)) for _ in range(apex.n)]
            for leg, c in zip(legs, cone):
                for x, p in enumerate(leg):
                    choices[p] &= {c[x]}
            mediators = tuple(
                arr for arr in itertools.product(*map(sorted, choices))
                if all(target.dist[arr[p]][arr[q]] <= apex.dist[p][q]
                       for p in range(apex.n) for q in range(apex.n))
            )
            if len(mediators) != 1:
                kind = "uniqueness" if mediators else "existence"
                return False, checked, kind, tuple(cone), mediators
    return True, checked, None, None, None


def search_nodes_brute(dom, cod, forced=None):
    """The nodes of a backtracking search of the non-expansive maps dom ->
    cod that assigns the points in order, ``forced`` pinning some to one
    image: one per candidate image of point i after each prefix of images for
    the points before i, forced or free, that is non-expansive.  Counted by
    plain prefix enumeration."""
    forced = forced or {}
    nodes = 0
    for i in range(dom.n):
        choices = [(forced[p],) if p in forced else range(cod.n) for p in range(i)]
        prefixes = sum(
            all(cod.dist[arr[p]][arr[q]] <= dom.dist[p][q]
                for p in range(i) for q in range(p + 1, i))
            for arr in itertools.product(*choices))
        nodes += prefixes * (1 if i in forced else cod.n)
    return nodes


def search_brute(dom, cod, exact, budget, forced=None):
    """The backtracking search over the maps dom -> cod, one candidate image
    at a time: index tuples in lexicographic order.

    ``exact`` asks for isometries, else non-expansive maps; ``forced`` pins
    some points to one image.  Point i tries, in ascending order, its forced
    image, or in an exact search the points at distance d(i, 0) from the
    image of point 0 (for point 0, the points at d(0, a) from the image of
    the lowest forced point a), or else every point.  Each candidate charges
    ``budget.spend_each(1)`` before it is compared with every point assigned
    before i.  An exact search that needs a distance cod lacks tries nothing.
    """
    n, m = dom.n, cod.n
    if n == 0:
        yield ()
        return
    if m == 0:
        return
    D, C = dom.dist, cod.dist
    if exact and not set(itertools.chain(*D)) <= set(itertools.chain(*C)):
        return
    forced = forced or {}
    anchor = min(forced, default=None)
    img = [0] * n

    def at(p, d):
        return [q for q in range(m) if C[p][q] == d]

    def extend(i):
        if i in forced:
            candidates = (forced[i],)
        elif exact and i:
            candidates = at(img[0], D[i][0])
        elif exact and anchor is not None:
            candidates = at(forced[anchor], D[0][anchor])
        else:
            candidates = range(m)
        for c in candidates:
            budget.spend_each(1)
            if all(C[c][img[j]] == D[i][j] if exact else C[c][img[j]] <= D[i][j]
                   for j in range(i)):
                img[i] = c
                if i + 1 == n:
                    yield tuple(img)
                else:
                    yield from extend(i + 1)

    yield from extend(0)


def verify_nodes_brute(apex, legs, eps, objects, bridges, targets):
    """The search nodes a verifier charges up to its outcome, by plain
    enumeration.

    The arguments are those of ``verify_brute``.  A failed square charges
    nothing.  Each target up to the outcome's charges the searches of its
    hom-sets, one per object (``search_nodes_brute``).  Each cocone checked,
    up to and including the outcome, costs one node; one whose legs pin each
    apex point they reach to one image, with apex points no leg reaches and a
    target with points, also costs the nodes of the mediator search with the
    pinned points forced.
    """
    def within(space, maps):
        return all(space.dist[maps[i][x]][maps[j][y]] <= eps for i, x, j, y in bridges)

    if not within(apex, legs):
        return 0
    nodes = 0
    for target in targets:
        homs = [hom_brute(obj, target) for obj in objects]
        nodes += sum(search_nodes_brute(obj, target) for obj in objects)
        for cone in itertools.product(*homs):
            if not within(target, cone):
                continue
            nodes += 1
            forced, pinned = {}, True
            for leg, c in zip(legs, cone):
                for x, p in enumerate(leg):
                    pinned &= forced.setdefault(p, c[x]) == c[x]
            if pinned and len(forced) < apex.n and target.n:
                nodes += search_nodes_brute(apex, target, forced)
            choices = [{forced[p]} if p in forced else range(target.n) for p in range(apex.n)]
            mediators = [arr for arr in itertools.product(*choices)
                         if pinned and all(target.dist[arr[p]][arr[q]] <= apex.dist[p][q]
                                           for p in range(apex.n) for q in range(apex.n))]
            if len(mediators) != 1:
                return nodes
    return nodes


def _sup_dist(space, xs, ys):
    """The distance of two parallel maps given as point tuples."""
    return max((space.dist[x][y] for x, y in zip(xs, ys)), default=ZERO)


def injectivity_defect_brute(subject, f):
    """``injectivity.injectivity_defect`` straight from its definition.

    The defect is the max over g: A -> subject of the min over
    h: B -> subject of d(h∘f, g), ZERO when there is no g and INF for a g
    without any h.  Returns ``(defect, worst_g, best_h)`` with the maps as
    point tuples: worst_g is the first g whose min exceeds every earlier
    one and ZERO, best_h the first h at that min, or None when the min is
    INF.  A zero defect has no witness.
    """
    homB = hom_brute(f.cod, subject)
    defect, worst_g, best_h = ZERO, None, None
    for g in hom_brute(f.dom, subject):
        gaps = [_sup_dist(subject, tuple(h[p] for p in f.map), g) for h in homB]
        best = min(gaps, default=INF)
        if best > defect:
            defect, worst_g = best, g
            best_h = homB[gaps.index(best)] if best < INF else None
    return defect, worst_g, best_h


def purity_brute(f, eps, variant, spaces):
    """``injectivity.purity`` straight from its definition, over ``spaces``.

    A square is u: A -> K, g: A -> B and v: B -> L with A, B from spaces
    and d(f∘u, v∘g) at most eps (zero for the bare variant); it needs a
    filler t: B -> K with d(t∘g, u) at most eps (2*eps for the weak
    variant).  The squares run over A, B, g, u and then v, each
    lexicographically, and v is the first that closes the square.  Returns
    ``(True, None)`` or, for the first square without a filler,
    ``(False, (A, B, u, g, v, best))`` with the maps as point tuples and
    best the least d(t∘g, u), INF when there is no t at all.
    """
    K, L = f.dom, f.cod
    closes = ZERO if variant == "bare" else eps
    bound = 2 * eps if variant == "weak" else eps
    for A in spaces:
        for B in spaces:
            for g in hom_brute(A, B):
                for u in hom_brute(A, K):
                    fu = tuple(f.map[p] for p in u)
                    square = [v for v in hom_brute(B, L)
                              if _sup_dist(L, fu, tuple(v[b] for b in g)) <= closes]
                    if not square:
                        continue
                    best = min((_sup_dist(K, tuple(t[b] for b in g), u)
                                for t in hom_brute(B, K)), default=None)
                    if best is None or best > bound:
                        return False, (A, B, u, g, square[0], INF if best is None else best)
    return True, None


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def ordinary_colimit_oracle(diagram) -> Space:
    """Plain colimit of a finite diagram, built by union-find.

    Identifies x with D(e)(x) for every arrow e, takes min distance over
    class representatives, closes paths, and collapses glued-to-zero
    classes.  Returns only the apex.
    """
    *offsets, total = itertools.accumulate((obj.n for obj in diagram.objects), initial=0)
    uf = _UnionFind(total)
    for src, dst, m in diagram.arrows:
        for x in range(m.dom.n):
            uf.union(offsets[src] + x, offsets[dst] + m.map[x])
    roots = sorted({uf.find(p) for p in range(total)})
    index = {r: i for i, r in enumerate(roots)}
    k = len(roots)
    base = [[ZERO if i == j else INF for j in range(k)] for i in range(k)]
    for obj_idx, obj in enumerate(diagram.objects):
        off = offsets[obj_idx]
        for x in range(obj.n):
            for y in range(obj.n):
                cx = index[uf.find(off + x)]
                cy = index[uf.find(off + y)]
                if cx != cy and obj.dist[x][y] < base[cx][cy]:
                    base[cx][cy] = obj.dist[x][y]
    closed = simple_path_closure(base)
    merged = _UnionFind(k)
    for i in range(k):
        for j in range(i + 1, k):
            if closed[i][j] == ZERO:
                merged.union(i, j)
    final_roots = sorted({merged.find(i) for i in range(k)})
    final_index = {r: i for i, r in enumerate(final_roots)}
    m = len(final_roots)
    dist = [[ZERO] * m for _ in range(m)]
    for i in range(k):
        for j in range(k):
            fi = final_index[merged.find(i)]
            fj = final_index[merged.find(j)]
            if fi != fj:
                dist[fi][fj] = closed[i][j]
    return Space(tuple(tuple(row) for row in dist))


def rat_grid():
    """Shared small value grid for randomized matrices."""
    return (*map(ExtRat.parse, ("1/2", "1", "2", "5")), INF)


def random_symmetric_matrix(rng, n, values):
    """Symmetric zero-diagonal matrix with entries drawn from values."""
    dist = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rng.choice(values)
    return [tuple(row) for row in dist]


def random_space_brute(rng, cfg, *, min_points=None) -> Space:
    """``corpus.random_space`` as a plain draw loop: every draw builds and
    checks its own matrix, with the same RNG calls in the same order."""
    lo = 0 if cfg.allow_empty else 1
    if min_points is not None:
        lo = min_points
    n = rng.randint(lo, cfg.max_points)
    if n == 0:
        return Space(())
    for _ in range(200):
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice(cfg.grid)
                rows[i][j] = rows[j][i] = v
        dist = tuple(map(tuple, rows))
        if not axiom_violations_brute(dist):
            return Space(dist)
    # all-equal distances; Space itself rejects a zero value
    v = rng.choice(cfg.grid)
    return Space(tuple(tuple(ZERO if i == j else v for j in range(n)) for i in range(n)))


def gather_spans_brute(space, stratum, policy, *, max_nodes=None, max_spans=None):
    """``fraisse.gather_spans`` with an explicit orbit key: each anchor's key
    is the least ``u∘tau`` over the span's whole dedup group, identity
    included, and an anchor is kept when its key was not seen before."""
    budget = NodeBudget.of(max_nodes)
    spans, skipped = [], 0
    for h in stratum:
        anchors = (isometry_set if policy.isometric_u else hom_set)(h.dom, space, max_nodes=budget)
        group = _span_dedup_group(h, budget)
        seen = set()
        for u in anchors:
            key = min(tuple(u.map[p] for p in tau) for tau in group)
            if key in seen:
                continue
            seen.add(key)
            if policy.skip_satisfied and isometric_fillers(h, u, first_only=True,
                                                           max_nodes=budget):
                skipped += 1
                continue
            spans.append(Span(u, h))
            if max_spans is not None and len(spans) > max_spans:
                raise BudgetExceeded(f"gathered {len(spans)} spans (budget {max_spans})")
    return tuple(spans), skipped
