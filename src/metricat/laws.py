"""Registry of algebraic laws checked over seeded random instances.

A law is an implication, premise ⇒ conclusion, over an instance that it
draws at random.  A trial either HELD (premise and conclusion both true),
was VACUOUS (no instance drawn, or the premise false: nothing tested), or
FAILED (premise true, conclusion false).  The instance of a failed trial is
its counterexample, and a single failure fails the whole report.

``_implication`` builds a law from a draw, which returns the instance as
named values, and two predicates over those values; the counterexample is
the instance itself.  The four laws whose counterexamples carry computed
values are written out by hand.

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
from .homsearch import _homs
from .injectivity import TestFamily, is_eps_injective, is_eps_mono, is_eps_split, purity
from .spaces import (
    MetMap, Space, identity, one_point, product, validate_space,
)
from .serialization import map_to_json, space_to_json

HELD = "held"
VACUOUS = "vacuous"
FAILED = "failed"

_EPS = (rat("1/2"), rat(1), rat("3/2"), rat(2))
_GRID = (rat("1/2"), rat(1))
_SMALL = CorpusConfig(max_points=3)
_TINY = CorpusConfig(max_points=2)

Case = dict[str, Any]
Outcome = tuple[str, dict | None]


def _draw_eps(rng: random.Random) -> ExtRat:
    return rng.choice(_EPS)


def _draw_family(rng: random.Random) -> TestFamily:
    members = [one_point(), random_space(rng, _TINY), random_space(rng, _TINY)]
    if rng.random() < 0.25:
        members.append(random_space(rng, _SMALL))
    return TestFamily.of(members)


def _draw_map(rng: random.Random, dom: Space, cod: Space) -> MetMap:
    maps = _homs(dom, cod)
    return MetMap._trusted(dom, cod, maps[rng.randrange(len(maps))])


def _draw_near(rng: random.Random, center: MetMap, e: ExtRat) -> MetMap:
    """A map parallel to ``center`` within ``e`` of it."""
    dom, cod, dist = center.dom, center.cod, center.cod.dist
    near = [m for m in _homs(dom, cod) if all(dist[p][q] <= e for p, q in zip(center.map, m))]
    return MetMap._trusted(dom, cod, near[rng.randrange(len(near))])


def _draw_composable(rng: random.Random) -> tuple[MetMap, MetMap]:
    """f: K -> L, g: L -> M; identity draws keep premise rates useful."""
    # Equal draws may be one shared Space, so "drawn as the same space" is
    # carried as a flag, never read off identity.
    K = random_space(rng, _SMALL)
    same_l = rng.random() < 0.25
    L = K if same_l else random_space(rng, _SMALL)
    same_m = rng.random() < 0.25
    M = L if same_m else random_space(rng, _SMALL)
    f = identity(K) if (same_l and rng.random() < 0.5) else _draw_map(rng, K, L)
    g = identity(L) if (same_m and rng.random() < 0.5) else _draw_map(rng, L, M)
    return f, g


def _draw_test_map(rng: random.Random) -> MetMap:
    A = random_space(rng, _TINY)
    B = random_space(rng, _TINY)
    return _draw_map(rng, A, B)


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


def _implication(draw: Callable[[random.Random], Case | None],
                 premise: Callable[..., bool],
                 conclusion: Callable[..., bool]) -> Callable[[random.Random], Outcome]:
    """The law premise ⇒ conclusion over the instance that ``draw`` returns."""
    def law(rng: random.Random) -> Outcome:
        case = draw(rng)
        if case is None or not premise(**case):
            return VACUOUS, None
        if conclusion(**case):
            return HELD, None
        return FAILED, _ce(**case)
    return law


# ------------------------------------------------------------------ draws
# Each returns its instance in the order the counterexample lists it, which
# is not always the order of the draws.

def _map_case(rng: random.Random) -> Case:
    return {"f": _draw_composable(rng)[0], "eps": _draw_eps(rng), "family": _draw_family(rng)}


def _pair_case(rng: random.Random) -> Case:
    f, g = _draw_composable(rng)
    return {"f": f, "g": g, "eps": _draw_eps(rng), "family": _draw_family(rng)}


def _grid_case(rng: random.Random) -> Case:
    f, g = _draw_composable(rng)
    return {"f": f, "g": g, "family": _draw_family(rng)}


def _family_case(rng: random.Random) -> Case:
    f, e, family = _map_case(rng).values()
    extra = random_space(rng, _TINY)
    variant = rng.choice(("pure", "weak", "bare"))
    return {"f": f, "eps": e, "variant": variant, "family": family, "extra": extra}


def _section_case(rng: random.Random) -> Case | None:
    if (drawn := random_split_mono(rng, _SMALL)) is None:
        return None
    section, retraction = drawn
    return {"section": section, "retraction": retraction,
            "eps": _draw_eps(rng), "family": _draw_family(rng)}


def _split_section_case(rng: random.Random) -> Case | None:
    if (drawn := random_split_mono(rng, _SMALL)) is None:
        return None
    return {"section": drawn[0], "eps": rng.choice((ZERO,) + _EPS)}


def _retract_case(rng: random.Random) -> Case | None:
    if (drawn := random_split_mono(rng, _SMALL)) is None:
        return None
    section, e = drawn[0], _draw_eps(rng)
    return {"retract": section.dom, "ambient": section.cod, "f": _draw_test_map(rng), "eps": e}


def _collapsed(f: MetMap) -> list[tuple[int, int]]:
    n = f.dom.n
    return [(a, b) for a in range(n) for b in range(a + 1, n) if f.map[a] == f.map[b]]


def _collapse_case(rng: random.Random) -> Case | None:
    f, e = _draw_composable(rng)[0], _draw_eps(rng)
    gaps = [f.dom.d(a, b) for a, b in _collapsed(f)]
    if not gaps:
        return None
    # probes: the one-point space and a two-point space per collapsed gap
    probes = [one_point()] + [validate_space([[ZERO, d], [d, ZERO]]) for d in gaps]
    return {"f": f, "eps": e, "family": TestFamily.of(probes)}


def _triple_case(rng: random.Random) -> Case:
    e = _draw_eps(rng)
    double = 2 * e
    X = validate_space([
        [ZERO, e, double],
        [e, ZERO, e],
        [double, e, ZERO],
    ])
    return {"f": MetMap(X, one_point(), (0, 0, 0)), "eps": e}


def _nearby_case(rng: random.Random) -> Case:
    e, family = _draw_eps(rng), _draw_family(rng)
    f = _draw_map(rng, random_space(rng, _SMALL), random_space(rng, _SMALL))
    return {"f": f, "nearby": _draw_near(rng, f, e), "eps": e, "family": family}


def _near_factor_case(rng: random.Random) -> Case:
    f, g, e, family = _pair_case(rng).values()
    h = _draw_near(rng, f.then(g), e)
    return {"f": f, "g": g, "h": h, "eps": e, "family": family}


def _bounds(rng: random.Random, top: tuple[ExtRat, ...] = (INF,)) -> Case:
    """Tolerances eps_low <= eps_high, with ``top`` among the upper choices."""
    lo, hi = sorted((_draw_eps(rng), rng.choice(_EPS + top)))
    return {"eps_low": lo, "eps_high": hi}


def _bounded_case(top: tuple[ExtRat, ...]) -> Callable[[random.Random], Case]:
    def draw(rng: random.Random) -> Case:
        f, family = _draw_composable(rng)[0], _draw_family(rng)
        return {"f": f, **_bounds(rng, top), "family": family}
    return draw


# ------------------------------------------------------------- predicates
# ``of`` names the map tested, or computes it from the instance; ``at``
# names the tolerance, scaled by ``times``.

def _then(case: Case) -> MetMap:
    return case["f"].then(case["g"])


def _tol(case: Case, at: str, times: int) -> ExtRat:
    return case[at] if times == 1 else times * case[at]


def _pure(variant: str, times: int = 1, of: Any = "f", at: str = "eps"):
    def holds(**case) -> bool:
        f = of(case) if callable(of) else case[of]
        return purity(f, _tol(case, at, times), variant, case["family"])[0]
    return holds


def _split(of: str = "f", at: str = "eps"):
    return lambda **case: is_eps_split(case[of], case[at])[0]


def _mono(times: int = 1, at: str = "eps"):
    return lambda **case: is_eps_mono(case["f"], _tol(case, at, times), case["family"])[0]


def _injective(subject: str = "subject", at: str = "eps"):
    return lambda **case: is_eps_injective(case[subject], case["f"], case[at])[0]


def _both(p, q):
    return lambda **case: p(**case) and q(**case)


def _gridwise(p):
    """``p`` at every tolerance of the grid."""
    return lambda **case: all(p(**case, eps=e) for e in _GRID)


def _always(**_) -> bool:
    return True


def _gaps_within_double(f: MetMap, eps: ExtRat, **_) -> bool:
    bound = 2 * eps
    return all(f.dom.d(a, b) <= bound for a, b in _collapsed(f))


def _collapse_verdicts(f: MetMap, eps: ExtRat) -> bool:
    probes = TestFamily.of([one_point()])
    return (
        is_eps_split(f, eps)[0]
        and not is_eps_mono(f, eps, probes)[0]
        and is_eps_mono(f, 2 * eps, probes)[0]
    )


def _larger_family_purity(f, eps, variant, family, extra) -> bool:
    return purity(f, eps, variant, TestFamily.of(family.spaces + (extra,)))[0]


def _family_purity(f, eps, variant, family, **_) -> bool:
    return purity(f, eps, variant, family)[0]


# ------------------------------------------------------- hand-written laws

def _law_inf_injectivity_via_hom_emptiness(rng: random.Random) -> Outcome:
    cfg = CorpusConfig(max_points=2, allow_empty=True)
    K = random_space(rng, cfg)
    A = random_space(rng, cfg)
    B = random_space(rng, cfg)
    maps = _homs(A, B)
    if not maps:
        return VACUOUS, None
    f = MetMap._trusted(A, B, maps[rng.randrange(len(maps))])
    tester = is_eps_injective(K, f, INF)[0]
    direct = (len(_homs(A, K)) == 0) or (len(_homs(B, K)) > 0)
    if tester == direct:
        return HELD, None
    return FAILED, _ce(subject=K, f=f, tester=tester, direct=direct)


def _law_injectives_closed_under_products(rng: random.Random) -> Outcome:
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


def _law_bridged_leg_strict_extension(rng: random.Random) -> Outcome:
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


def _law_dangling_copy_extension_equivalence(rng: random.Random) -> Outcome:
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


LAWS: dict[str, Callable[[random.Random], Outcome]] = {
    # purity
    "pure-composes": _implication(
        _pair_case, _both(_pure("pure"), _pure("pure", of="g")), _pure("pure", of=_then)),
    "pure-left-factor": _implication(_pair_case, _pure("pure", of=_then), _pure("pure")),
    "split-mono-is-pure": _implication(_section_case, _always, _pure("pure", of="section")),
    "pure-implies-weak": _implication(_map_case, _pure("pure"), _pure("weak")),
    "pure-implies-bare": _implication(_map_case, _pure("pure"), _pure("bare")),
    "weak-implies-bare-at-double": _implication(_map_case, _pure("weak"), _pure("bare", times=2)),
    "purity-family-monotone": _implication(_family_case, _larger_family_purity, _family_purity),
    "gridwise-pure-composes": _implication(
        _grid_case, _gridwise(_both(_pure("pure"), _pure("pure", of="g"))),
        _gridwise(_pure("pure", of=_then))),
    "gridwise-pure-left-factor": _implication(
        _grid_case, _gridwise(_pure("pure", of=_then)), _gridwise(_pure("pure"))),
    # splitness and mono
    "split-mono-is-eps-split": _implication(_split_section_case, _always, _split(of="section")),
    "eps-split-implies-weak-pure": _implication(_map_case, _split(), _pure("weak")),
    "eps-split-implies-bare-pure": _implication(_map_case, _split(), _pure("bare")),
    "eps-split-implies-double-mono": _implication(_map_case, _split(), _mono(times=2)),
    "barely-pure-implies-double-mono": _implication(
        _collapse_case, _pure("bare"), _gaps_within_double),
    "collapse-triple-verdicts": _implication(_triple_case, _always, _collapse_verdicts),
    # homotopy transfer
    "homotopy-transfer-weak": _implication(
        _nearby_case, _pure("pure", times=2), _pure("weak", of="nearby")),
    "homotopy-transfer-bare": _implication(
        _nearby_case, _pure("pure"), _pure("bare", of="nearby")),
    "near-factor-weak": _implication(
        _near_factor_case, _pure("pure", times=2, of="h"), _pure("weak")),
    "near-factor-bare": _implication(_near_factor_case, _pure("pure", of="h"), _pure("bare")),
    # injectivity
    "injectivity-eps-monotone": _implication(
        lambda rng: {"subject": random_space(rng, _SMALL), "f": _draw_test_map(rng),
                     **_bounds(rng)},
        _injective(at="eps_low"), _injective(at="eps_high")),
    "inf-injectivity-via-hom-emptiness": _law_inf_injectivity_via_hom_emptiness,
    "injectives-closed-under-products": _law_injectives_closed_under_products,
    "injectives-closed-under-retracts": _implication(
        _retract_case, _injective("ambient"), _injective("retract")),
    # gluing and extensions
    "bridged-leg-strict-extension": _law_bridged_leg_strict_extension,
    "dangling-copy-extension-equivalence": _law_dangling_copy_extension_equivalence,
    # monotone tolerance laws
    "splitness-eps-monotone": _implication(
        lambda rng: {"f": _draw_composable(rng)[0], **_bounds(rng)},
        _split(at="eps_low"), _split(at="eps_high")),
    "bare-purity-eps-monotone": _implication(
        _bounded_case(()), _pure("bare", at="eps_low"), _pure("bare", at="eps_high")),
    "mono-eps-monotone": _implication(
        _bounded_case((INF,)), _mono(at="eps_low"), _mono(at="eps_high")),
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


def run_law(law_id: str, seed: int, trials: int) -> LawResult:
    """Evaluate one law; the RNG stream depends only on (seed, law_id)."""
    law = LAWS[law_id]
    rng = random.Random(f"{seed}:{law_id}")
    held = vacuous = failures = 0
    first_ce = None
    for trial in range(trials):
        status, detail = law(rng)
        if status == HELD:
            held += 1
        elif status == VACUOUS:
            vacuous += 1
        else:
            failures += 1
            if first_ce is None:
                first_ce = {"trial": trial, **detail}
    return LawResult(law_id, trials, held, vacuous, failures, first_ce)


def _run_law_star(args) -> LawResult:
    return run_law(*args)


def law_harness(cfg: CorpusConfig | None = None, seed: int = 0,
                trials: int = 40, workers: int | None = None) -> LawReport:
    """Run every registered law; the report is independent of worker count.

    ``cfg`` is accepted and ignored: every law draws from its own fixed
    corpora of at most 3 points.
    """
    jobs = [(law_id, seed, trials) for law_id in sorted(LAWS)]
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_run_law_star, jobs))
    else:
        results = [_run_law_star(j) for j in jobs]
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
