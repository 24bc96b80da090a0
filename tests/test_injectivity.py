import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricat import canonical, injectivity
from metricat.budgets import CACHE_ENTRIES, NodeBudget
from metricat.canonical import canonical_form
from metricat.corpus import CorpusConfig, random_space, random_split_mono
from metricat.errors import BudgetExceeded, UsageError
from metricat.extrat import INF, ZERO, rat
from metricat.homsearch import clear_caches, hom_set
from metricat.injectivity import (
    TestFamily as ProbeFamily,
    injectivity_defect,
    inj_class,
    is_approx_injective,
    is_eps_injective,
    is_eps_mono,
    is_eps_split,
    purity,
)
from metricat.spaces import (
    MetMap,
    empty_space,
    hom_dist,
    identity,
    one_point,
    product,
    subspace,
    two_point,
    validate_space,
)

from .oracles import hom_brute, injectivity_defect_brute, purity_brute
from .test_homsearch import _draw

PATH3 = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def collapse_chain(eps):
    """Three points in a row at gaps eps, endpoints at 2*eps, crushed to 1."""
    e = rat(eps)
    X = validate_space([
        [ZERO, e, 2 * e],
        [e, ZERO, e],
        [2 * e, e, ZERO],
    ])
    return MetMap(X, one_point(), (0, 0, 0))


class TestEpsInjective:
    def test_infinite_tolerance_with_fillers(self):
        f = MetMap(one_point(), two_point(2), (0,))
        ok, _ = is_eps_injective(two_point(1), f, INF)
        assert ok

    def test_terminal_subject_always_passes(self):
        f = MetMap(one_point(), two_point(2), (0,))
        for eps in (ZERO, rat("1/2"), INF):
            assert is_eps_injective(one_point(), f, eps)[0]

    def test_short_gap_against_long_gap_isometry(self):
        f = MetMap(one_point(), two_point(2), (0,))
        ok, _ = is_eps_injective(two_point(1), f, 0)
        assert ok

    def test_defect_exactness_on_collapse(self):
        f = MetMap(two_point(2), one_point(), (0, 0))
        defect, worst_g, best_h = injectivity_defect(two_point(2), f)
        assert defect == rat(2)
        assert worst_g is not None and best_h is not None
        assert not is_eps_injective(two_point(2), f, 1)[0]
        assert is_eps_injective(two_point(2), f, 2)[0]

    def test_defect_with_every_filler_at_infinity(self):
        # Collapsing two points at INF: every h∘f is constant, so the
        # identity g has no filler below INF, and no h is reported.
        f = MetMap(two_point(INF), one_point(), (0, 0))
        defect, g, h = injectivity_defect(two_point(INF), f)
        assert (defect, g.map, h) == (INF, (0, 1), None)

    def test_failure_returns_replayable_witness(self):
        f = MetMap(two_point(2), one_point(), (0, 0))
        ok, witness = is_eps_injective(two_point(2), f, 1)
        assert not ok
        # the witness really has no filler within tolerance
        best = min(
            max(two_point(2).d(h, witness.map[x]) for x, h in [(0, 0), (1, 0)])
            for h in range(2)
        )
        assert best > rat(1)

    def test_no_filler_exists_at_any_tolerance(self):
        f = MetMap(empty_space(), one_point(), ())
        ok, witness = is_eps_injective(empty_space(), f, INF)
        assert not ok
        assert witness is not None and witness.map == ()

    def test_vacuous_when_nothing_maps_in(self):
        f = identity(one_point())
        assert is_eps_injective(empty_space(), f, 0)[0]


class TestApproxInjective:
    def test_zero_defect_certifies_exactly(self):
        f = MetMap(one_point(), two_point(1), (0,))
        report = is_approx_injective(two_point(1), f, (rat(1), rat("1/2"), rat("1/4")))
        assert report.defect == ZERO
        assert report.exact
        assert report.grid_ok

    def test_per_grid_verdicts(self):
        f = MetMap(two_point(2), one_point(), (0, 0))
        report = is_approx_injective(two_point(1), f, (rat(1), rat("1/2"), rat("1/4")))
        assert report.defect == rat(1)
        assert [ok for _, ok in report.per_eps] == [True, False, False]
        assert not report.grid_ok
        assert not report.exact


class TestInjClass:
    def test_empty_test_set_passes_everyone(self):
        candidates = [one_point(), two_point(1), PATH3]
        reports = inj_class([], 0, candidates)
        assert all(r.passed for r in reports)

    def test_pass_sets_grow_with_tolerance(self):
        rng = random.Random(41)
        cfg = CorpusConfig(max_points=3)
        tests = []
        while len(tests) < 3:
            A = random_space(rng, CorpusConfig(max_points=2))
            B = random_space(rng, CorpusConfig(max_points=2))
            from metricat.homsearch import hom_set

            maps = hom_set(A, B)
            if maps:
                tests.append(maps[rng.randrange(len(maps))])
        candidates = [random_space(rng, cfg) for _ in range(6)]
        lo = {i for i, r in enumerate(inj_class(tests, rat("1/2"), candidates)) if r.passed}
        hi = {i for i, r in enumerate(inj_class(tests, rat(2), candidates)) if r.passed}
        assert lo <= hi

    def test_products_of_passing_subjects_pass(self):
        f = MetMap(one_point(), two_point(2), (0,))
        eps = rat(1)
        k1, k2 = two_point(1), two_point("1/2")
        assert is_eps_injective(k1, f, eps)[0]
        assert is_eps_injective(k2, f, eps)[0]
        P = product((k1, k2)).space
        assert is_eps_injective(P, f, eps)[0]


class TestEpsSplit:
    def test_section_splits_exactly(self):
        sub, incl = subspace(PATH3, (0, 1))
        ok, p = is_eps_split(incl, 0)
        assert ok
        assert incl.then(p).map == (0, 1)

    def test_collapse_chain_splits_at_its_gap(self):
        eps = rat(1)
        f = collapse_chain(eps)
        ok, p = is_eps_split(f, eps)
        assert ok
        # the middle point is the only retraction within eps
        assert p.map == (1,)

    def test_isometry_into_disconnected_pair(self):
        f = MetMap(one_point(), two_point("inf"), (0,))
        ok, _ = is_eps_split(f, 1)
        assert ok

    def test_splitness_threshold(self):
        f = MetMap(two_point(2), one_point(), (0, 0))
        assert not is_eps_split(f, 1)[0]
        ok, p = is_eps_split(f, 2)
        assert ok and p is not None

    def test_no_retraction_at_all(self):
        f = MetMap(empty_space(), one_point(), ())
        assert is_eps_split(f, INF) == (False, None)

    def test_every_retraction_at_infinity(self):
        # Both retractions of the collapse of two points at INF send f's
        # image to one point, so both lie at INF and the first counts.  The
        # hom-set search spends 2 nodes and the scan tries both maps.
        f = MetMap(two_point(INF), one_point(), (0, 0))
        for eps, want in ((INF, (True, (0,))), (1, (False, None))):
            budget = NodeBudget()
            ok, p = is_eps_split(f, eps, max_nodes=budget)
            assert (ok, None if p is None else p.map) == want
            assert budget.used == 4


class TestEpsMono:
    def test_triple_verdict_on_collapse_chain(self):
        probes = ProbeFamily.of([one_point()])
        for eps in (rat("1/2"), rat(1), rat(2)):
            f = collapse_chain(eps)
            assert is_eps_split(f, eps)[0]
            mono_at_eps, witness = is_eps_mono(f, eps, probes)
            assert not mono_at_eps
            C, g, h = witness
            assert f.dom.d(g.map[0], h.map[0]) > eps
            assert is_eps_mono(f, 2 * eps, probes)[0]

    def test_isometries_are_monic(self):
        sub, incl = subspace(PATH3, (0, 2))
        fam = ProbeFamily.of([one_point(), two_point(1), two_point(2)])
        assert is_eps_mono(incl, 0, fam)[0]

    def test_infinite_tolerance_always_passes(self):
        f = collapse_chain(1)
        assert is_eps_mono(f, INF, ProbeFamily.of([one_point()]))[0]

    def test_charges_each_pair_compared(self):
        # Crushing the 2-point space: the hom-set searches spend 2 + 6 nodes,
        # and the 2 maps from the point and the 4 from the 2-point space
        # make 1 + 6 pairs with equal composites.  At eps 1/2 the first
        # pair already fails: 2 + 1 nodes.
        f = MetMap(two_point(1), one_point(), (0, 0))
        fam = ProbeFamily((one_point(), two_point(1)))
        for eps, nodes, ok in ((1, 15, True), (rat("1/2"), 3, False)):
            assert is_eps_mono(f, eps, fam, max_nodes=nodes)[0] is ok
            with pytest.raises(BudgetExceeded):
                is_eps_mono(f, eps, fam, max_nodes=nodes - 1)


FAMILY_12 = ProbeFamily.of([one_point(), two_point(2)])

# tolerance verdicts for purity are not monotone: these two maps flip back
# and forth as eps grows, so the flips are frozen here as regressions
PURE_FLIP_DOM = validate_space([
    [0, 2, 1],
    [2, 0, 1],
    [1, 1, 0],
])
PURE_FLIP_COD = validate_space([
    ["0", "1", "1/2"],
    ["1", "0", "1/2"],
    ["1/2", "1/2", "0"],
])
WEAK_FLIP_DOM = validate_space([
    ["0", "2", "3/2"],
    ["2", "0", "3/2"],
    ["3/2", "3/2", "0"],
])


class TestPurity:
    def test_sections_are_pure_at_every_tolerance(self):
        sub, incl = subspace(PATH3, (0, 1))
        fam = ProbeFamily.of([one_point(), two_point(1), two_point(2)])
        for eps in (ZERO, rat("1/2"), rat(1), INF):
            assert purity(incl, eps, "pure", fam)[0]

    def test_pure_implies_weak_and_bare(self):
        rng = random.Random(42)
        cfg = CorpusConfig(max_points=3)
        fam = ProbeFamily.of([one_point(), two_point(1)])
        from metricat.homsearch import hom_set

        tested = 0
        while tested < 25:
            K = random_space(rng, cfg)
            L = random_space(rng, cfg)
            maps = hom_set(K, L)
            if not maps:
                continue
            f = maps[rng.randrange(len(maps))]
            eps = rat("1/2") if rng.random() < 0.5 else rat(1)
            tested += 1
            if purity(f, eps, "pure", fam)[0]:
                assert purity(f, eps, "weak", fam)[0]
                assert purity(f, eps, "bare", fam)[0]

    def test_counterexample_square_is_replayable(self):
        f = collapse_chain(1)
        bigger = ProbeFamily.of([one_point(), two_point(2), f.dom])
        ok, square = purity(f, rat("1/2"), "pure", bigger)
        assert not ok
        assert square.best > rat("1/2")
        # the square really commutes within tolerance
        from metricat.spaces import hom_dist

        assert hom_dist(square.u.then(f), square.g.then(square.v)) <= rat("1/2")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            purity(identity(one_point()), 1, "strict", FAMILY_12)

    def test_unknown_variant_is_a_usage_error(self):
        with pytest.raises(UsageError):
            purity(identity(one_point()), 1, "strict", FAMILY_12)

    def test_pure_verdict_flips_with_tolerance(self):
        f = MetMap(PURE_FLIP_DOM, PURE_FLIP_COD, (0, 1, 2))
        verdicts = [purity(f, e, "pure", FAMILY_12)[0] for e in (rat("1/4"), rat("1/2"), rat(1))]
        assert verdicts == [True, False, True]

    def test_weak_verdict_flips_with_tolerance(self):
        f = MetMap(WEAK_FLIP_DOM, PURE_FLIP_COD, (0, 1, 2))
        verdicts = [
            purity(f, e, "weak", FAMILY_12)[0]
            for e in (rat("1/4"), rat("1/2"), rat("3/4"))
        ]
        assert verdicts == [True, False, True]

    def test_family_monotone(self):
        f = MetMap(PURE_FLIP_DOM, PURE_FLIP_COD, (0, 1, 2))
        smaller = ProbeFamily.of([one_point()])
        for variant in ("pure", "weak", "bare"):
            for eps in (rat("1/4"), rat("1/2"), rat(1)):
                if purity(f, eps, variant, FAMILY_12)[0]:
                    assert purity(f, eps, variant, smaller)[0]

    def test_no_filler_map_at_all_fails(self):
        f = MetMap(empty_space(), one_point(), ())
        fam = ProbeFamily.of([empty_space(), one_point()])
        ok, square = purity(f, INF, "pure", fam)
        assert not ok
        assert square.best is INF


class TestProbeFamilies:
    def test_deduplicates_by_shape(self):
        fam = ProbeFamily.of([two_point(1), two_point(1), one_point()])
        assert len(fam.spaces) == 2

    def test_relabelings_collapse(self):
        relabeled = validate_space([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        fam = ProbeFamily.of([PATH3, relabeled])
        assert len(fam.spaces) == 1
        fam2 = ProbeFamily.of([PATH3, relabeled, one_point()])
        assert len(fam2.spaces) == 2

    def test_ordered_smallest_first(self):
        fam = ProbeFamily.of([PATH3, one_point(), two_point(1)])
        assert [s.n for s in fam.spaces] == [1, 2, 3]

    def test_subspaces_include_the_empty_probe(self):
        fam = ProbeFamily.subspaces_of(two_point(1))
        assert fam.spaces[0].n == 0
        assert {s.n for s in fam.spaces} == {0, 1, 2}

    def test_canonical_forms_are_charged_to_one_budget(self):
        subs = [subspace(PATH3, pts)[0] for k in range(4) for pts in combinations(range(3), k)]
        each = []
        for sub in subs:
            budget = NodeBudget()
            canonical_form(sub, max_nodes=budget)
            each.append(budget.used)
        canonical.clear_cache()
        for _ in range(2):  # cold, then warm
            budget = NodeBudget()
            ProbeFamily.subspaces_of(PATH3, max_nodes=budget)
            assert budget.used == sum(each) > 0
        with pytest.raises(BudgetExceeded):
            ProbeFamily.subspaces_of(PATH3, max_nodes=sum(each) - 1)
        # the default family of a tester is paid from the tester's budget
        with pytest.raises(BudgetExceeded):
            is_eps_mono(identity(PATH3), 0, max_nodes=sum(each) - 1)


EPS_VALUES = (ZERO, rat("1/2"), rat(1), INF)


def _draw_map(rng, max_points=3):
    """A random map between two drawn spaces, either possibly empty."""
    dom = _draw(rng, max_points)
    while True:
        cod = _draw(rng, max_points)
        maps = hom_brute(dom, cod)
        if maps:
            return MetMap(dom, cod, rng.choice(maps))


def _split_brute(f, eps):
    """(verdict, witness, maps tried) of ``is_eps_split``: the first p of
    hom(L, K) with the least d(p∘f, id), tried up to the first at distance
    0, and a witness only within ``eps``."""
    K = f.dom
    best = best_p = None
    tried = 0
    for p in hom_brute(f.cod, K):
        tried += 1
        d = max((K.d(p[q], k) for k, q in enumerate(f.map)), default=ZERO)
        if best is None or d < best:
            best, best_p = d, p
            if d == ZERO:
                break
    ok = best is not None and best <= rat(eps)
    return ok, best_p if ok else None, tried


class TestAgainstOracles:
    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES),
           st.sampled_from(("pure", "weak", "bare")))
    def test_purity(self, seed, eps, variant):
        rng = random.Random(seed)
        f = _draw_map(rng)
        if rng.random() < 0.5:
            spaces = ProbeFamily.subspaces_of(f.dom).spaces
        else:
            spaces = tuple(_draw(rng, 2) for _ in range(rng.randint(1, 3)))
        ok, square = purity(f, eps, variant, ProbeFamily(spaces))
        got = None if square is None else (
            square.A, square.B, square.u.map, square.g.map, square.v.map, square.best)
        assert (ok, got) == purity_brute(f, eps, variant, spaces)

    @given(st.integers(0, 2**30))
    def test_injectivity_defect(self, seed):
        rng = random.Random(seed)
        f = _draw_map(rng)
        # f's own domain is often not injective to f: half the draws
        subject = f.dom if rng.random() < 0.5 else _draw(rng)
        defect, g, h = injectivity_defect(subject, f)
        got = (defect, None if g is None else g.map, None if h is None else h.map)
        assert got == injectivity_defect_brute(subject, f)

    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES))
    def test_is_eps_split(self, seed, eps):
        f = _draw_map(random.Random(seed))
        budget, searched = NodeBudget(), NodeBudget()
        ok, p = is_eps_split(f, eps, max_nodes=budget)
        hom_set(f.cod, f.dom, max_nodes=searched)
        want_ok, want_p, tried = _split_brute(f, eps)
        assert (ok, None if p is None else p.map) == (want_ok, want_p)
        # the hom-set search's nodes, then one per map tried
        assert budget.used == searched.used + tried

    def test_purity_budget_does_not_depend_on_the_cache(self):
        # One budget for the call.  The hom-set searches spend 35 nodes, the
        # dearest hom(two_point(1), K) 4 for the first point and 4 * 4 for
        # the second.  Each of the 92 squares tries one closing v and one
        # filler t: 184 more, 219 in all.
        K = validate_space([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        fam = ProbeFamily((one_point(), two_point(1)))
        clear_caches()
        for warm in (False, True):
            with pytest.raises(BudgetExceeded) as short:
                purity(identity(K), 1, "pure", fam, max_nodes=218)
            assert str(short.value) == ("search spent 219 nodes, "
                                        "over the node budget of 218")
            if not warm:
                purity(identity(K), 1, "pure", fam)
            assert purity(identity(K), 1, "pure", fam, max_nodes=219) == (True, None)


def _purity_by_square(f, eps, variant, spaces, budget):
    """``purity`` square by square: per g, each u in turn looks for its
    first admitting v and then its first filler t, and the tries are
    charged per g.  Each hom-set is fetched and charged once.  Returns
    (verdict, witness) as ``purity`` does."""
    e = rat(eps)
    K, L = f.dom, f.cod
    closes = ZERO if variant == "bare" else e
    bound = 2 * e if variant == "weak" else e
    hom = cache(lambda dom, cod: hom_set(dom, cod, max_nodes=budget))
    for A in spaces:
        homAK = hom(A, K)
        if not homAK:
            continue
        for B in spaces:
            homAB, homBL, homBK = hom(A, B), hom(B, L), hom(B, K)
            for g in homAB:
                tried = 0
                for u in homAK:
                    fu = u.then(f)
                    admitting = next((i for i, v in enumerate(homBL, 1)
                                      if hom_dist(fu, g.then(v)) <= closes), 0)
                    if not admitting:
                        tried += len(homBL)
                        continue
                    tried += admitting
                    best = None
                    for i, t in enumerate(homBK, 1):
                        d = hom_dist(g.then(t), u)
                        best = d if best is None else min(best, d)
                        if best <= bound:
                            tried += i
                            break
                    else:
                        budget.spend_each(tried + len(homBK))
                        return False, injectivity.PuritySquare(
                            A, B, u, g, homBL[admitting - 1], INF if best is None else best)
                budget.spend_each(tried)
    return True, None


def _purity_run(run, limit):
    """(verdict, witness, nodes spent, budget error) of ``run`` under a
    budget of ``limit`` nodes, with every memo emptied first."""
    clear_caches()
    canonical.clear_cache()
    budget = NodeBudget(limit)
    try:
        return (*run(budget), budget.used, None)
    except BudgetExceeded as err:
        return None, None, budget.used, str(err)


class TestPurityKernel:
    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES),
           st.sampled_from(("pure", "weak", "bare")))
    def test_agrees_with_the_square_by_square_loop(self, seed, eps, variant):
        rng = random.Random(seed)
        f = _draw_map(rng)
        if rng.random() < 0.5:
            spaces = ProbeFamily.subspaces_of(f.dom).spaces
        else:
            spaces = tuple(_draw(rng, 2) for _ in range(rng.randint(1, 3)))
        fam = ProbeFamily(spaces)

        def fast(budget):
            return purity(f, eps, variant, fam, max_nodes=budget)

        def loop(budget):
            return _purity_by_square(f, eps, variant, spaces, budget)

        total = _purity_run(loop, None)[2]
        assert _purity_run(fast, None) == _purity_run(loop, None)
        for limit in {-1, 0, 1, total - 1, total // 2, total}:
            assert _purity_run(fast, limit) == _purity_run(loop, limit)


def _sections():
    """A section K -> L and a family, where eps 1 and 3/2 give the same
    ranks: every distance of K and L is 0, 1 or 2."""
    sub, incl = subspace(PATH3, (0, 1))
    return incl, ProbeFamily.of([one_point(), two_point(1), two_point(2)])


class TestPurityMemo:
    def test_equal_ranks_share_an_entry(self):
        f, fam = _sections()
        clear_caches()
        first = purity(f, 1, "pure", fam)
        assert len(injectivity._purity_memo) == 1
        assert purity(f, rat("3/2"), "pure", fam) is first
        # bare at eps 1: admission at rank 0, filler at the rank of 1
        purity(f, 1, "bare", fam)
        assert len(injectivity._purity_memo) == 2
        # weak at 1/2: admission at rank 0, filler at the rank of 1 again
        purity(f, rat("1/2"), "weak", fam)
        assert len(injectivity._purity_memo) == 2

    def test_a_hit_charges_the_nodes_recorded(self):
        f, fam = _sections()
        clear_caches()
        spent = []
        for _ in range(2):  # a miss, then a hit
            budget = NodeBudget()
            purity(f, 1, "pure", fam, max_nodes=budget)
            spent.append(budget.used)
        assert spent[0] == spent[1] > 0
        with pytest.raises(BudgetExceeded, match=rf"spent {spent[0]} nodes"):
            purity(f, 1, "pure", fam, max_nodes=spent[0] - 1)

    def test_clear_caches_empties_it(self):
        f, fam = _sections()
        purity(f, 1, "pure", fam)
        assert injectivity._purity_memo
        clear_caches()
        assert not injectivity._purity_memo

    def test_keeps_at_most_its_bound(self):
        clear_caches()
        memo = injectivity._purity_memo
        empty = ProbeFamily(())
        for k in range(1, CACHE_ENTRIES + 10):
            purity(identity(two_point(k)), 0, "pure", empty)
            assert len(memo) <= CACHE_ENTRIES
        assert len(memo) == CACHE_ENTRIES
        # the oldest entries went first
        assert (two_point(1), two_point(1), (0, 1), 0, 0, ()) not in memo
