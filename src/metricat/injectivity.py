"""Approximate injectivity, splitness, monomorphism and purity testers.

All testers quantify exactly as the definitions state, over the index
tuples of the relevant hom-sets (memoized), and return a witness for every
negative verdict so failures replay as standalone fixtures.

The loops compare integer ranks, never ExtRat values.  Each call reads the
cached rank tables of the spaces it measures in (``Space.ranks``) and turns
each tolerance into a rank once: the largest rank at most the tolerance.  A
distance is within the tolerance exactly when its rank is at most that rank,
so every verdict stays exact; a witness's distance is mapped back to its
ExtRat value only for the answer.
One budget covers a call; its loops charge one node per candidate map
tried, in bulk once per outer iteration.

One scan, ``_closest``, measures how near the maps factoring through a
given one come to a fixed map: d(h∘f, g) for the injectivity defect,
d(p∘f, id) for splitness and d(t∘g, u) for a failing purity square's best
filler.  It keeps the first map at the least distance, stopping at 0.

Purity takes one g: A -> B at a time and holds the maps u: A -> K as bits
of a mask.  Once per A it builds two tables of masks over hom(A, K): per
point a and point y, the u with f(u(a)) within the admission rank of y
(``near_l``), and the u with u(a) within the filler rank of y
(``near_k``).  A v of hom(B, L) admits the u in the AND of near_l[a][v(g(a))]
over the points a; the v are taken in order until every u is admitted,
and then the t of hom(B, K) in the same way over the admitted u.  The
charge is that of testing square by square: per u, the number of its first
admitting v (every v when none admits it) and of its first filler.  The
first failing u is the lowest bit admitted but not filled, and the charge
of its row is counted again below that bit.  Purity's answers are
memoized with the nodes they spent (``NodeBudget.cached``), keyed by (K,
L, f's map, admission rank, filler rank, the family's spaces): eps and the
variant enter only through the two ranks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Literal

from .budgets import Memo, NodeBudget
from .canonical import canonical_form
from .errors import UsageError
from .extrat import INF, ZERO, ExtRat, rat
from .homsearch import _homs
from .spaces import MetMap, Space, subspace


@dataclass(frozen=True)
class TestFamily:
    """A finite family of probe spaces quantified over by the testers."""

    spaces: tuple[Space, ...]

    @classmethod
    def of(cls, spaces, *, max_nodes: int | None = None) -> "TestFamily":
        """The family of the canonical forms of ``spaces``, all computed
        under one budget."""
        budget = NodeBudget.of(max_nodes)
        seen = {}
        for s in spaces:
            seen.setdefault(canonical_form(s, max_nodes=budget).space, None)
        return cls(tuple(sorted(seen, key=lambda s: (s.n, s.dist))))

    @classmethod
    def subspaces_of(cls, space: Space, size_cap: int = 3,
                     *, max_nodes: int | None = None) -> "TestFamily":
        subs = []
        for k in range(0, min(size_cap, space.n) + 1):
            for pts in combinations(range(space.n), k):
                subs.append(subspace(space, pts)[0])
        return cls.of(subs, max_nodes=max_nodes)


def _default_family(f: MetMap, budget: NodeBudget) -> TestFamily:
    return TestFamily.subspaces_of(f.dom, max_nodes=budget)


def _scale(space: Space):
    """``space.ranks()``, with ZERO at rank 0 even for the empty space, whose
    empty maps lie at distance zero from each other."""
    values, rank = space.ranks()
    return values or (ZERO,), rank


def _within(values, tolerance: ExtRat) -> int:
    """The largest rank whose value is at most ``tolerance``."""
    return bisect_right(values, tolerance) - 1


def injectivity_defect(subject: Space, f: MetMap, *, max_nodes: int | None = None):
    """max over g: A -> K of min over h: B -> K of d(h∘f, g), with witness.

    Returns (defect, worst_g, best_h).  The subject is eps-injective to f
    exactly when the defect is <= eps; a zero defect certifies injectivity
    at every positive tolerance at once.
    """
    budget = NodeBudget.of(max_nodes)
    return _defect(subject, f, _homs(f.dom, subject, budget),
                   _homs(f.cod, subject, budget), budget)


def _closest(maps, pairs, rank, bound: int):
    """The least distance from a fixed map to the maps of ``maps``, a map
    m's distance being the largest ``rank[row + m(b)]`` over the (row, b) of
    ``pairs``.  Returns (least distance, first map at it, maps tried): the
    walk stops at the first map at distance 0, and gives (bound, None,
    len(maps)) when no map lies below ``bound``."""
    best, closest, tried = bound, None, 0
    for tried, m in enumerate(maps, 1):
        d = 0
        for row, b in pairs:
            x = rank[row + m[b]]
            if x > d:
                d = x
        if d < best:
            best, closest = d, m
            if not d:
                break
    return best, closest, tried


def _defect(subject: Space, f: MetMap, homA, homB, budget: NodeBudget):
    """``injectivity_defect`` over the index tuples of hom(A, K) and hom(B, K)."""
    values, rank = _scale(subject)
    if values[-1] != INF:
        values += (INF,)
    top = len(values) - 1   # the rank of INF, the distance when no h exists
    n = subject.n
    worst, worst_g, best_h = 0, None, None
    for g in homA:
        # d(h(f(a)), g(a)) is read from row g(a) of the symmetric rank table
        best, h, tried = _closest(homB, tuple((q * n, p) for q, p in zip(g, f.map)),
                                  rank, top)
        budget.spend_each(tried)
        if best > worst:
            worst, worst_g, best_h = best, g, h
    # the empty map is an index tuple too, so test for None
    return (values[worst], None if worst_g is None else MetMap._trusted(f.dom, subject, worst_g),
            None if best_h is None else MetMap._trusted(f.cod, subject, best_h))


def is_eps_injective(subject: Space, f: MetMap, eps, *, max_nodes: int | None = None):
    """(verdict, witness): witness is the unfillable g on failure."""
    e = rat(eps)
    budget = NodeBudget.of(max_nodes)
    homA = _homs(f.dom, subject, budget)
    homB = _homs(f.cod, subject, budget)
    if homA and not homB:
        # no filler exists at all, not even at infinite tolerance
        return False, MetMap._trusted(f.dom, subject, homA[0])
    defect, worst_g, _ = _defect(subject, f, homA, homB, budget)
    if defect <= e:
        return True, None
    return False, worst_g


@dataclass(frozen=True)
class InjVerdict:
    morphism: MetMap
    passed: bool
    witness: MetMap | None


@dataclass(frozen=True)
class InjReport:
    subject: Space
    eps: ExtRat
    verdicts: tuple[InjVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def inj_class(morphisms, eps, candidates, *, max_nodes: int | None = None):
    """One report per candidate subject, tested against every morphism."""
    e = rat(eps)
    budget = NodeBudget.of(max_nodes)
    reports = []
    for subject in candidates:
        verdicts = []
        for f in morphisms:
            ok, witness = is_eps_injective(subject, f, e, max_nodes=budget)
            verdicts.append(InjVerdict(f, ok, witness))
        reports.append(InjReport(subject, e, tuple(verdicts)))
    return reports


@dataclass(frozen=True)
class ApproxInjReport:
    per_eps: tuple[tuple[ExtRat, bool], ...]
    grid_ok: bool          # eps-injective at every grid value
    defect: ExtRat         # max-min filler distance
    exact: bool            # defect == 0: injective at every positive eps


def is_approx_injective(subject: Space, f: MetMap, eps_grid,
                        *, max_nodes: int | None = None) -> ApproxInjReport:
    defect, _, _ = injectivity_defect(subject, f, max_nodes=max_nodes)
    per = tuple((rat(e), defect <= rat(e)) for e in eps_grid)
    return ApproxInjReport(
        per_eps=per,
        grid_ok=all(ok for _, ok in per),
        defect=defect,
        exact=defect == ZERO,
    )


def is_eps_split(f: MetMap, eps, *, max_nodes: int | None = None):
    """Search for p with p∘f within eps of the identity; returns (ok, p)."""
    e = rat(eps)
    K = f.dom
    values, rank = _scale(K)
    budget = NodeBudget.of(max_nodes)
    # d(p(f(k)), k) is read from row k of K's rank table; every p counts
    best, p, tried = _closest(_homs(f.cod, K, budget),
                              tuple((k * K.n, q) for k, q in enumerate(f.map)),
                              rank, len(values))
    budget.spend_each(tried)
    if best <= _within(values, e):
        return True, MetMap._trusted(f.cod, K, p)
    return False, None


def is_eps_mono(f: MetMap, eps, family: TestFamily | None = None,
                *, max_nodes: int | None = None):
    """f∘g = f∘h forces g, h within eps, over probes from the family."""
    e = rat(eps)
    budget = NodeBudget.of(max_nodes)
    fam = family if family is not None else _default_family(f, budget)
    values, rank = _scale(f.dom)
    limit = _within(values, e)
    n = f.dom.n
    for C in fam.spaces:
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for g in _homs(C, f.dom, budget):
            groups.setdefault(tuple(f.map[p] for p in g), []).append(g)
        tried = 0
        for members in groups.values():
            for g, h in combinations(members, 2):
                tried += 1
                for p, q in zip(g, h):
                    if rank[p * n + q] > limit:
                        budget.spend_each(tried)
                        return False, (C, MetMap._trusted(C, f.dom, g),
                                       MetMap._trusted(C, f.dom, h))
        budget.spend_each(tried)
    return True, None


PurityVariant = Literal["pure", "weak", "bare"]

# purity's answers with the nodes they cost, keyed by the ranks they depend on
_purity_memo = Memo()


@dataclass(frozen=True)
class PuritySquare:
    """A counterexample square: no admissible filler t: B -> dom(f)."""

    A: Space
    B: Space
    u: MetMap   # A -> dom(f)
    g: MetMap   # A -> B
    v: MetMap   # B -> cod(f)
    best: ExtRat  # least achievable d(t∘g, u)


def purity(f: MetMap, eps, variant: PurityVariant = "pure",
           family: TestFamily | None = None, *, max_nodes: int | None = None):
    """Filler test over all squares u: A -> K, g: A -> B, v: B -> L.

    pure: squares commuting within eps get fillers within eps;
    weak: squares commuting within eps get fillers within 2*eps;
    bare: exactly commuting squares get fillers within eps.
    """
    if variant not in ("pure", "weak", "bare"):
        raise UsageError(f"unknown purity variant: {variant!r}")
    e = rat(eps)
    K, L = f.dom, f.cod
    budget = NodeBudget.of(max_nodes)
    fam = family if family is not None else _default_family(f, budget)
    # admission: a square closes when no f(u(a)), v(g(a)) ranks above limit
    limit = 0 if variant == "bare" else _within(_scale(L)[0], e)
    # filler: t is good enough when no t(g(a)), u(a) ranks above bound
    bound = _within(_scale(K)[0], 2 * e if variant == "weak" else e)
    return budget.cached(_purity_memo, (K, L, f.map, limit, bound, fam.spaces),
                         lambda: _purity(f, limit, bound, fam.spaces, budget))


def _near(maps, reach, n: int):
    """Per point a of the probe, per point y of a space of n points: the
    bitmask of the maps u (bit j for the j-th) with y in ``reach[u(a)]``."""
    near = [[0] * n for _ in maps[0]]
    for j, u in enumerate(maps):
        bit = 1 << j
        for row, p in zip(near, u):
            for y in reach[p]:
                row[y] |= bit
    return near


def _sweep(maps, pairs, want: int):
    """Walk ``maps`` in order, numbered from 1, and give each u of ``want``
    to the first map m that has, for every (row, b) of ``pairs``, u in
    ``row[m(b)]``.  Returns the mask of the u given a map, and the sum of
    their maps' numbers."""
    covered = charge = 0
    for i, m in enumerate(maps, 1):
        mask = want ^ covered
        if not mask:
            break
        for row, b in pairs:
            mask &= row[m[b]]
        if mask:
            charge += i * mask.bit_count()
            covered |= mask
    return covered, charge


def _purity(f: MetMap, limit: int, bound: int, spaces, budget: NodeBudget):
    """``purity`` at admission rank ``limit`` and filler rank ``bound``, one
    g row at a time on bitmasks over hom(A, K) (see the module docstring)."""
    K, L = f.dom, f.cod
    kvalues, krank = _scale(K)
    lrank = _scale(L)[1]
    nK, nL = K.n, L.n
    # per point p of K: the points of L that f(p) admits, and of K that p does
    to_l = [[y for y in range(nL) if lrank[q * nL + y] <= limit] for q in f.map]
    to_k = [[y for y in range(nK) if krank[p * nK + y] <= bound] for p in range(nK)]
    # Each hom-set once per call, charged once.  The keys are these very
    # spaces, so a lookup never compares equal spaces entry by entry.
    hom = cache(lambda dom, cod: _homs(dom, cod, budget))

    for A in spaces:
        homAK = hom(A, K)
        if not homAK:
            continue
        every = (1 << len(homAK)) - 1
        near_l = _near(homAK, to_l, nL)
        near_k = _near(homAK, to_k, nK)
        for B in spaces:
            homAB = hom(A, B)
            homBL = hom(B, L)
            homBK = hom(B, K)
            for g in homAB:
                on_l = tuple(zip(near_l, g))
                on_k = tuple(zip(near_k, g))
                admitted, charge = _sweep(homBL, on_l, every)
                filled, filling = _sweep(homBK, on_k, admitted)
                failing = admitted ^ filled
                if not failing:
                    budget.spend_each(charge + filling
                                      + len(homBL) * (every ^ admitted).bit_count())
                    continue
                # The first failing u: charge the u below it and its own
                # first admitting v and every t.
                low = failing & -failing
                below, charge = _sweep(homBL, on_l, low - 1)
                _, filling = _sweep(homBK, on_k, below)
                _, admitting = _sweep(homBL, on_l, low)
                budget.spend_each(charge + filling + admitting + len(homBK)
                                  + len(homBL) * ((low - 1) ^ below).bit_count())
                u = homAK[low.bit_length() - 1]
                # no t at all fails the square even at infinite tolerance
                best, t, _ = _closest(homBK, tuple((p * nK, b) for p, b in zip(u, g)),
                                      krank, len(kvalues))
                return False, PuritySquare(
                    A, B, MetMap._trusted(A, K, u), MetMap._trusted(A, B, g),
                    MetMap._trusted(B, L, homBL[admitting - 1]),
                    INF if t is None else kvalues[best])
    return True, None
