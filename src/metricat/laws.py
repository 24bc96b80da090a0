"""Registry of algebraic laws checked over seeded random corpora.

Each law is an implication evaluated per instance: a trial either HELD
(premise and conclusion both true), was VACUOUS (premise false, nothing
tested), or FAILED (premise true, conclusion false).  A single failure is a
counterexample and fails the whole report.

Law identifiers name the behavior they check; the harness derives each law's
RNG stream from (seed, law id), so reports are identical regardless of
worker count or scheduling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from .colimits import eps_pushout
from .corpus import CorpusConfig, random_space, random_split_mono
from .extrat import INF, ZERO, ExtRat, rat
from .homsearch import hom_set
from .injectivity import TestFamily, is_eps_injective, is_eps_mono, is_eps_split, purity
from .spaces import (
    MetMap, Space, hom_dist, identity, one_point, product, validate_space,
)
from .serialization import map_to_json, space_to_json

HELD = "held"
VACUOUS = "vacuous"
FAILED = "failed"

_EPS = (rat("1/2"), rat(1), rat("3/2"), rat(2))
_SMALL = CorpusConfig(max_points=3)
_TINY = CorpusConfig(max_points=2)


def _draw_eps(rng: random.Random) -> ExtRat:
    return rng.choice(_EPS)


def _draw_family(rng: random.Random) -> TestFamily:
    members = [one_point(), random_space(rng, _TINY), random_space(rng, _TINY)]
    if rng.random() < 0.25:
        members.append(random_space(rng, _SMALL))
    return TestFamily.of(members)


def _draw_map(rng: random.Random, dom: Space, cod: Space) -> MetMap:
    maps = hom_set(dom, cod)
    return maps[rng.randrange(len(maps))]


def _draw_composable(rng: random.Random) -> tuple[MetMap, MetMap]:
    """f: K -> L, g: L -> M; identity draws keep premise rates useful."""
    K = random_space(rng, _SMALL)
    L = K if rng.random() < 0.25 else random_space(rng, _SMALL)
    M = L if rng.random() < 0.25 else random_space(rng, _SMALL)
    f = identity(K) if (L is K and rng.random() < 0.5) else _draw_map(rng, K, L)
    g = identity(L) if (M is L and rng.random() < 0.5) else _draw_map(rng, L, M)
    return f, g


def _ce(**kw: Any) -> dict:
    out: dict[str, Any] = {}
    for key, value in kw.items():
        if isinstance(value, Space):
            out[key] = space_to_json(value)
        elif isinstance(value, MetMap):
            out[key] = map_to_json(value)
        elif isinstance(value, ExtRat):
            out[key] = str(value)
        elif isinstance(value, TestFamily):
            out[key] = [space_to_json(s) for s in value.spaces]
        else:
            out[key] = value
    return out


# ----------------------------------------------------------------- purity

def _law_pure_composes(rng, _):
    f, g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    if not purity(f, e, "pure", fam)[0] or not purity(g, e, "pure", fam)[0]:
        return VACUOUS, None
    if purity(f.then(g), e, "pure", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, g=g, eps=e, family=fam)


def _law_pure_left_factor(rng, _):
    f, g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    if not purity(f.then(g), e, "pure", fam)[0]:
        return VACUOUS, None
    if purity(f, e, "pure", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, g=g, eps=e, family=fam)


def _law_split_mono_is_pure(rng, _):
    drawn = random_split_mono(rng, _SMALL)
    if drawn is None:
        return VACUOUS, None
    s, p = drawn
    e, fam = _draw_eps(rng), _draw_family(rng)
    if purity(s, e, "pure", fam)[0]:
        return HELD, None
    return FAILED, _ce(section=s, retraction=p, eps=e, family=fam)


def _law_pure_implies_weak(rng, _):
    f, _g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    if not purity(f, e, "pure", fam)[0]:
        return VACUOUS, None
    if purity(f, e, "weak", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps=e, family=fam)


def _law_pure_implies_bare(rng, _):
    f, _g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    if not purity(f, e, "pure", fam)[0]:
        return VACUOUS, None
    if purity(f, e, "bare", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps=e, family=fam)


def _law_weak_implies_bare_at_double(rng, _):
    f, _g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    if not purity(f, e, "weak", fam)[0]:
        return VACUOUS, None
    if purity(f, 2 * e, "bare", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps=e, family=fam)


def _law_purity_family_monotone(rng, _):
    f, _g = _draw_composable(rng)
    e = _draw_eps(rng)
    fam = _draw_family(rng)
    extra = random_space(rng, _TINY)
    larger = TestFamily.of(fam.spaces + (extra,))
    variant = rng.choice(("pure", "weak", "bare"))
    if not purity(f, e, variant, larger)[0]:
        return VACUOUS, None
    if purity(f, e, variant, fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps=e, variant=variant, family=fam, extra=extra)


def _law_gridwise_pure_composes(rng, _):
    f, g = _draw_composable(rng)
    fam = _draw_family(rng)
    grid = (rat("1/2"), rat(1))
    if not all(purity(f, e, "pure", fam)[0] and purity(g, e, "pure", fam)[0] for e in grid):
        return VACUOUS, None
    if all(purity(f.then(g), e, "pure", fam)[0] for e in grid):
        return HELD, None
    return FAILED, _ce(f=f, g=g, family=fam)


def _law_gridwise_pure_left_factor(rng, _):
    f, g = _draw_composable(rng)
    fam = _draw_family(rng)
    grid = (rat("1/2"), rat(1))
    if not all(purity(f.then(g), e, "pure", fam)[0] for e in grid):
        return VACUOUS, None
    if all(purity(f, e, "pure", fam)[0] for e in grid):
        return HELD, None
    return FAILED, _ce(f=f, g=g, family=fam)


# ------------------------------------------------------- splitness and mono

def _law_split_mono_is_eps_split(rng, _):
    drawn = random_split_mono(rng, _SMALL)
    if drawn is None:
        return VACUOUS, None
    s, _p = drawn
    e = rng.choice((ZERO,) + _EPS)
    if is_eps_split(s, e)[0]:
        return HELD, None
    return FAILED, _ce(section=s, eps=e)


def _law_eps_split_implies_weak_pure(rng, _):
    f, _g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    if not is_eps_split(f, e)[0]:
        return VACUOUS, None
    if purity(f, e, "weak", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps=e, family=fam)


def _law_eps_split_implies_bare_pure(rng, _):
    f, _g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    if not is_eps_split(f, e)[0]:
        return VACUOUS, None
    if purity(f, e, "bare", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps=e, family=fam)


def _law_eps_split_implies_double_mono(rng, _):
    f, _g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    if not is_eps_split(f, e)[0]:
        return VACUOUS, None
    if is_eps_mono(f, 2 * e, fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps=e, family=fam)


def _law_barely_pure_implies_double_mono(rng, _):
    f, _g = _draw_composable(rng)
    e = _draw_eps(rng)
    K = f.dom
    collapsed = [
        (a, b) for a in range(K.n) for b in range(a + 1, K.n)
        if f.map[a] == f.map[b]
    ]
    if not collapsed:
        return VACUOUS, None
    # probes: the one-point space and a two-point space per collapsed gap
    probes = [one_point()]
    for a, b in collapsed:
        d = K.d(a, b)
        probes.append(validate_space([[ZERO, d], [d, ZERO]]))
    fam = TestFamily.of(probes)
    if not purity(f, e, "bare", fam)[0]:
        return VACUOUS, None
    bound = 2 * e
    if all(K.d(a, b) <= bound for a, b in collapsed):
        return HELD, None
    return FAILED, _ce(f=f, eps=e, family=fam)


def _law_collapse_triple_verdicts(rng, _):
    e = _draw_eps(rng)
    double = 2 * e
    X = validate_space([
        [ZERO, e, double],
        [e, ZERO, e],
        [double, e, ZERO],
    ])
    f = MetMap(X, one_point(), (0, 0, 0))
    probes = TestFamily.of([one_point()])
    ok = (
        is_eps_split(f, e)[0]
        and not is_eps_mono(f, e, probes)[0]
        and is_eps_mono(f, double, probes)[0]
    )
    if ok:
        return HELD, None
    return FAILED, _ce(f=f, eps=e)


# -------------------------------------------------------- homotopy transfer

def _draw_nearby_pair(rng, e: ExtRat) -> tuple[MetMap, MetMap] | None:
    K = random_space(rng, _SMALL)
    L = random_space(rng, _SMALL)
    maps = hom_set(K, L)
    f = maps[rng.randrange(len(maps))]
    near = [m for m in maps if hom_dist(f, m) <= e]
    return f, near[rng.randrange(len(near))]


def _law_homotopy_transfer_weak(rng, _):
    e, fam = _draw_eps(rng), _draw_family(rng)
    f, f2 = _draw_nearby_pair(rng, e)
    if not purity(f, 2 * e, "pure", fam)[0]:
        return VACUOUS, None
    if purity(f2, e, "weak", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, nearby=f2, eps=e, family=fam)


def _law_homotopy_transfer_bare(rng, _):
    e, fam = _draw_eps(rng), _draw_family(rng)
    f, f2 = _draw_nearby_pair(rng, e)
    if not purity(f, e, "pure", fam)[0]:
        return VACUOUS, None
    if purity(f2, e, "bare", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, nearby=f2, eps=e, family=fam)


def _law_near_factor_weak(rng, _):
    f, g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    composite = f.then(g)
    near = [m for m in hom_set(f.dom, g.cod) if hom_dist(composite, m) <= e]
    h = near[rng.randrange(len(near))]
    if not purity(h, 2 * e, "pure", fam)[0]:
        return VACUOUS, None
    if purity(f, e, "weak", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, g=g, h=h, eps=e, family=fam)


def _law_near_factor_bare(rng, _):
    f, g = _draw_composable(rng)
    e, fam = _draw_eps(rng), _draw_family(rng)
    composite = f.then(g)
    near = [m for m in hom_set(f.dom, g.cod) if hom_dist(composite, m) <= e]
    h = near[rng.randrange(len(near))]
    if not purity(h, e, "pure", fam)[0]:
        return VACUOUS, None
    if purity(f, e, "bare", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, g=g, h=h, eps=e, family=fam)


# ------------------------------------------------------------- injectivity

def _draw_test_map(rng) -> MetMap:
    A = random_space(rng, _TINY)
    B = random_space(rng, _TINY)
    return _draw_map(rng, A, B)


def _law_injectivity_eps_monotone(rng, _):
    K = random_space(rng, _SMALL)
    f = _draw_test_map(rng)
    lo, hi = sorted((_draw_eps(rng), rng.choice(_EPS + (INF,))))
    if not is_eps_injective(K, f, lo)[0]:
        return VACUOUS, None
    if is_eps_injective(K, f, hi)[0]:
        return HELD, None
    return FAILED, _ce(subject=K, f=f, eps_low=lo, eps_high=hi)


def _law_inf_injectivity_via_hom_emptiness(rng, _):
    cfg = CorpusConfig(max_points=2, allow_empty=True)
    K = random_space(rng, cfg)
    A = random_space(rng, cfg)
    B = random_space(rng, cfg)
    maps = hom_set(A, B)
    if not maps:
        return VACUOUS, None
    f = maps[rng.randrange(len(maps))]
    tester = is_eps_injective(K, f, INF)[0]
    direct = (len(hom_set(A, K)) == 0) or (len(hom_set(B, K)) > 0)
    if tester == direct:
        return HELD, None
    return FAILED, _ce(subject=K, f=f, tester=tester, direct=direct)


def _law_injectives_closed_under_products(rng, _):
    K1 = random_space(rng, _TINY)
    K2 = random_space(rng, _TINY)
    e = _draw_eps(rng)
    tests = [_draw_test_map(rng) for _ in range(rng.randint(1, 2))]
    if not all(is_eps_injective(K, f, e)[0] for K in (K1, K2) for f in tests):
        return VACUOUS, None
    P = product([K1, K2]).space
    if all(is_eps_injective(P, f, e)[0] for f in tests):
        return HELD, None
    return FAILED, _ce(k1=K1, k2=K2, eps=e, tests=[map_to_json(t) for t in tests])


def _law_injectives_closed_under_retracts(rng, _):
    drawn = random_split_mono(rng, _SMALL)
    if drawn is None:
        return VACUOUS, None
    s, _p = drawn
    K, L = s.dom, s.cod
    e = _draw_eps(rng)
    f = _draw_test_map(rng)
    if not is_eps_injective(L, f, e)[0]:
        return VACUOUS, None
    if is_eps_injective(K, f, e)[0]:
        return HELD, None
    return FAILED, _ce(retract=K, ambient=L, f=f, eps=e)


# -------------------------------------------------- gluing and extensions

def _law_bridged_leg_strict_extension(rng, _):
    A = random_space(rng, _TINY)
    B = random_space(rng, _TINY)
    C = random_space(rng, _TINY)
    f = _draw_map(rng, A, B)
    g = _draw_map(rng, A, C)
    K = random_space(rng, _SMALL)
    e = _draw_eps(rng)
    if not is_eps_injective(K, f, e)[0]:
        return VACUOUS, None
    po = eps_pushout(f, g, e)
    if is_eps_injective(K, po.leg_f, ZERO)[0]:
        return HELD, None
    return FAILED, _ce(f=f, g=g, subject=K, eps=e, apex=po.apex)


def _law_dangling_copy_extension_equivalence(rng, _):
    A = random_space(rng, _TINY)
    B = random_space(rng, _TINY)
    f = _draw_map(rng, A, B)
    K = random_space(rng, _SMALL)
    e = _draw_eps(rng)
    po = eps_pushout(f, identity(A), e)
    lhs = is_eps_injective(K, f, e)[0]
    rhs = is_eps_injective(K, po.leg_f, ZERO)[0]
    if lhs == rhs:
        return HELD, None
    return FAILED, _ce(f=f, subject=K, eps=e, tolerant=lhs, strict_on_glued=rhs)


# -------------------------------------------------- monotone tolerance laws

def _law_splitness_eps_monotone(rng, _):
    f, _g = _draw_composable(rng)
    lo, hi = sorted((_draw_eps(rng), rng.choice(_EPS + (INF,))))
    if not is_eps_split(f, lo)[0]:
        return VACUOUS, None
    if is_eps_split(f, hi)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps_low=lo, eps_high=hi)


def _law_bare_purity_eps_monotone(rng, _):
    f, _g = _draw_composable(rng)
    fam = _draw_family(rng)
    lo, hi = sorted((_draw_eps(rng), _draw_eps(rng)))
    if not purity(f, lo, "bare", fam)[0]:
        return VACUOUS, None
    if purity(f, hi, "bare", fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps_low=lo, eps_high=hi, family=fam)


def _law_mono_eps_monotone(rng, _):
    f, _g = _draw_composable(rng)
    fam = _draw_family(rng)
    lo, hi = sorted((_draw_eps(rng), rng.choice(_EPS + (INF,))))
    if not is_eps_mono(f, lo, fam)[0]:
        return VACUOUS, None
    if is_eps_mono(f, hi, fam)[0]:
        return HELD, None
    return FAILED, _ce(f=f, eps_low=lo, eps_high=hi, family=fam)


LAWS: dict[str, Callable[[random.Random, CorpusConfig], tuple[str, dict | None]]] = {
    "pure-composes": _law_pure_composes,
    "pure-left-factor": _law_pure_left_factor,
    "split-mono-is-pure": _law_split_mono_is_pure,
    "pure-implies-weak": _law_pure_implies_weak,
    "pure-implies-bare": _law_pure_implies_bare,
    "weak-implies-bare-at-double": _law_weak_implies_bare_at_double,
    "purity-family-monotone": _law_purity_family_monotone,
    "gridwise-pure-composes": _law_gridwise_pure_composes,
    "gridwise-pure-left-factor": _law_gridwise_pure_left_factor,
    "split-mono-is-eps-split": _law_split_mono_is_eps_split,
    "eps-split-implies-weak-pure": _law_eps_split_implies_weak_pure,
    "eps-split-implies-bare-pure": _law_eps_split_implies_bare_pure,
    "eps-split-implies-double-mono": _law_eps_split_implies_double_mono,
    "barely-pure-implies-double-mono": _law_barely_pure_implies_double_mono,
    "collapse-triple-verdicts": _law_collapse_triple_verdicts,
    "homotopy-transfer-weak": _law_homotopy_transfer_weak,
    "homotopy-transfer-bare": _law_homotopy_transfer_bare,
    "near-factor-weak": _law_near_factor_weak,
    "near-factor-bare": _law_near_factor_bare,
    "injectivity-eps-monotone": _law_injectivity_eps_monotone,
    "inf-injectivity-via-hom-emptiness": _law_inf_injectivity_via_hom_emptiness,
    "injectives-closed-under-products": _law_injectives_closed_under_products,
    "injectives-closed-under-retracts": _law_injectives_closed_under_retracts,
    "bridged-leg-strict-extension": _law_bridged_leg_strict_extension,
    "dangling-copy-extension-equivalence": _law_dangling_copy_extension_equivalence,
    "splitness-eps-monotone": _law_splitness_eps_monotone,
    "bare-purity-eps-monotone": _law_bare_purity_eps_monotone,
    "mono-eps-monotone": _law_mono_eps_monotone,
}


@dataclass(frozen=True)
class LawResult:
    law_id: str
    trials: int
    held: int
    vacuous: int
    failures: int
    counterexample: dict | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class LawReport:
    seed: int
    trials_per_law: int
    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def run_law(law_id: str, seed: int, trials: int,
            cfg: CorpusConfig = CorpusConfig()) -> LawResult:
    """Evaluate one law; the RNG stream depends only on (seed, law_id)."""
    fn = LAWS[law_id]
    rng = random.Random(f"{seed}:{law_id}")
    held = vacuous = failures = 0
    first_ce = None
    for trial in range(trials):
        status, detail = fn(rng, cfg)
        if status == HELD:
            held += 1
        elif status == VACUOUS:
            vacuous += 1
        else:
            failures += 1
            if first_ce is None:
                first_ce = {"trial": trial, **(detail or {})}
    return LawResult(law_id, trials, held, vacuous, failures, first_ce)


def _run_law_star(args) -> LawResult:
    return run_law(*args)


def law_harness(cfg: CorpusConfig | None = None, seed: int = 0,
                trials: int = 40, workers: int | None = None) -> LawReport:
    """Run every registered law; the report is independent of worker count."""
    config = cfg if cfg is not None else CorpusConfig()
    ids = sorted(LAWS)
    jobs = [(law_id, seed, trials, config) for law_id in ids]
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_law_star, jobs))
    else:
        results = [_run_law_star(j) for j in jobs]
    results.sort(key=lambda r: r.law_id)
    return LawReport(seed, trials, tuple(results))


def law_report_to_json(report: LawReport) -> dict:
    return {
        "seed": report.seed,
        "trials_per_law": report.trials_per_law,
        "ok": report.ok,
        "results": [
            {
                "law": r.law_id,
                "trials": r.trials,
                "held": r.held,
                "vacuous": r.vacuous,
                "failures": r.failures,
                "counterexample": r.counterexample,
            }
            for r in report.results
        ],
    }
