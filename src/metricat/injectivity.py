"""Approximate injectivity, splitness, monomorphism and purity testers.

All testers are brute-force but pruned: they enumerate the relevant hom-sets
(cached), quantify exactly as the definitions state, and return a witness for
every negative verdict so failures replay as standalone fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Literal

from .canonical import canonical_form
from .errors import UsageError
from .extrat import INF, ZERO, ExtRat, rat
from .homsearch import hom_set
from .spaces import MetMap, Space, hom_dist, identity, subspace


@dataclass(frozen=True)
class TestFamily:
    """A finite family of probe spaces quantified over by the testers."""

    spaces: tuple[Space, ...]

    @classmethod
    def of(cls, spaces) -> "TestFamily":
        seen = {}
        for s in spaces:
            seen.setdefault(canonical_form(s).space, None)
        return cls(tuple(sorted(seen, key=lambda s: (s.n, s.dist))))

    @classmethod
    def subspaces_of(cls, space: Space, size_cap: int = 3) -> "TestFamily":
        subs = []
        for k in range(0, min(size_cap, space.n) + 1):
            for pts in combinations(range(space.n), k):
                subs.append(subspace(space, pts)[0])
        return cls.of(subs)


def _default_family(f: MetMap) -> TestFamily:
    return TestFamily.subspaces_of(f.dom)


def injectivity_defect(subject: Space, f: MetMap, *, max_nodes: int | None = None):
    """max over g: A -> K of min over h: B -> K of d(h∘f, g), with witness.

    Returns (defect, worst_g, best_h).  The subject is eps-injective to f
    exactly when the defect is <= eps; a zero defect certifies injectivity
    at every positive tolerance at once.
    """
    A, B = f.dom, f.cod
    homA = hom_set(A, subject, max_nodes=max_nodes)
    homB = hom_set(B, subject, max_nodes=max_nodes)
    sd = subject.dist
    composites = [tuple(h.map[p] for p in f.map) for h in homB]
    worst = ZERO
    worst_g = None
    best_h = None
    for g in homA:
        best = INF
        best_for_g = None
        for h, hf in zip(homB, composites):
            d = ZERO
            for p, q in zip(hf, g.map):
                e = sd[p][q]
                if e > d:
                    d = e
            if d < best:
                best = d
                best_for_g = h
                if best == ZERO:
                    break
        if best > worst:
            worst = best
            worst_g = g
            best_h = best_for_g
    return worst, worst_g, best_h


def is_eps_injective(subject: Space, f: MetMap, eps, *, max_nodes: int | None = None):
    """(verdict, witness): witness is the unfillable g on failure."""
    e = rat(eps)
    homA = hom_set(f.dom, subject, max_nodes=max_nodes)
    if homA and not hom_set(f.cod, subject, max_nodes=max_nodes):
        # no filler exists at all, not even at infinite tolerance
        return False, homA[0]
    defect, worst_g, _ = injectivity_defect(subject, f, max_nodes=max_nodes)
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
    reports = []
    for subject in candidates:
        verdicts = []
        for f in morphisms:
            ok, witness = is_eps_injective(subject, f, e, max_nodes=max_nodes)
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
    ident = identity(K)
    best = None
    best_d = None
    for p in hom_set(f.cod, K, max_nodes=max_nodes):
        d = hom_dist(f.then(p), ident)
        if best_d is None or d < best_d:
            best_d, best = d, p
            if d == ZERO:
                break
    if best_d is not None and best_d <= e:
        return True, best
    return False, None


def is_eps_mono(f: MetMap, eps, family: TestFamily | None = None,
                *, max_nodes: int | None = None):
    """f∘g = f∘h forces g, h within eps, over probes from the family."""
    e = rat(eps)
    fam = family if family is not None else _default_family(f)
    for C in fam.spaces:
        maps = hom_set(C, f.dom, max_nodes=max_nodes)
        groups: dict[tuple[int, ...], list[MetMap]] = {}
        for g in maps:
            key = tuple(f.map[p] for p in g.map)
            groups.setdefault(key, []).append(g)
        for members in groups.values():
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    if hom_dist(members[a], members[b]) > e:
                        return False, (C, members[a], members[b])
    return True, None


PurityVariant = Literal["pure", "weak", "bare"]


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
    bound = 2 * e if variant == "weak" else e
    K, L = f.dom, f.cod
    fam = family if family is not None else _default_family(f)
    ld, kd = L.dist, K.dist
    for A in fam.spaces:
        homAK = hom_set(A, K, max_nodes=max_nodes)
        if not homAK:
            continue
        fu_arrs = [tuple(f.map[p] for p in u.map) for u in homAK]
        for B in fam.spaces:
            homAB = hom_set(A, B, max_nodes=max_nodes)
            homBL = hom_set(B, L, max_nodes=max_nodes)
            homBK = hom_set(B, K, max_nodes=max_nodes)
            for g in homAB:
                gm = g.map
                for u, fu in zip(homAK, fu_arrs):
                    # admission: some v closes the square within tolerance
                    admitting = None
                    for v in homBL:
                        vm = v.map
                        d = ZERO
                        for a in range(A.n):
                            x = ld[fu[a]][vm[gm[a]]]
                            if x > d:
                                d = x
                                if variant == "bare" and d > ZERO:
                                    break
                        limit = ZERO if variant == "bare" else e
                        if d <= limit:
                            admitting = v
                            break
                    if admitting is None:
                        continue
                    # filler: some t reconstructs u through g within bound
                    best = None
                    for t in homBK:
                        tm = t.map
                        d = ZERO
                        for a in range(A.n):
                            x = kd[tm[gm[a]]][u.map[a]]
                            if x > d:
                                d = x
                        if best is None or d < best:
                            best = d
                            if best <= bound:
                                break
                    # best stays None when no t exists at all; that fails
                    # the square even at infinite tolerance
                    if best is None or best > bound:
                        return False, PuritySquare(
                            A, B, u, g, admitting, INF if best is None else best
                        )
    return True, None
