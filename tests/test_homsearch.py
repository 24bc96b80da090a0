import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricat import homsearch
from metricat.budgets import CACHE_ENTRIES, NodeBudget
from metricat.corpus import CorpusConfig, random_space
from metricat.errors import BudgetExceeded
from metricat.extrat import INF, rat
from metricat.homsearch import (
    automorphisms,
    clear_caches,
    hom_set,
    isometric_fillers,
    isometry_set,
)
from metricat.spaces import (
    MetMap,
    Space,
    _axiom_violations,
    empty_space,
    one_point,
    subspace,
    two_point,
    validate_space,
)

from .oracles import (
    fillers_brute,
    hom_brute,
    iso_brute,
    random_symmetric_matrix,
    search_brute,
)

VALUES = (rat("1/2"), rat(1), rat("3/2"), rat(2), INF)


def _space(rng, n, values):
    """A random space on n points with distances from values."""
    while True:
        dist = random_symmetric_matrix(rng, n, values)
        if not _axiom_violations(dist):
            return Space(tuple(dist))


def _draw(rng, max_points=4):
    """A space over a random subset of VALUES, so that distances of one
    space are often missing from another."""
    values = rng.sample(VALUES, rng.randint(1, len(VALUES)))
    return _space(rng, rng.randint(0, max_points), values)


def _inside(rng, space, max_points=4):
    """A random subspace on at most max_points points, in random order, and
    its inclusion."""
    return subspace(space, rng.sample(range(space.n), rng.randint(0, min(space.n, max_points))))


def _trace(search, limit, first_only):
    """What a search does under a budget of ``limit`` nodes: each map it
    yields with the nodes spent by then, the nodes spent in all, and the
    budget error's message, if any."""
    budget = NodeBudget(limit)
    out = []
    try:
        for t in search(budget):
            out.append((t, budget.used))
            if first_only:
                break
    except BudgetExceeded as e:
        return out, budget.used, str(e)
    return out, budget.used, None


class TestSearchKernel:
    @given(st.integers(0, 2**30))
    def test_agrees_with_the_per_candidate_search(self, seed):
        # Maps, nodes spent after each map and in all, and the outcome at
        # limits around the ends of the search, for hom and isometric
        # searches with and without forced points, also stopped at the
        # first map.
        rng = random.Random(seed)
        dom, cod = _draw(rng, 5), _draw(rng, 5)
        for exact in (False, True):
            forced = None
            if cod.n and rng.random() < 0.5:
                forced = {p: rng.randrange(cod.n) for p in range(dom.n) if rng.random() < 0.4}
            first_only = rng.random() < 0.3

            def fast(budget):
                return homsearch._search(homsearch._required(dom, cod, exact), cod.balls(),
                                         exact, budget.spend_each, forced)

            def brute(budget):
                return search_brute(dom, cod, exact, budget, forced)

            expected = _trace(brute, None, first_only)
            assert _trace(fast, None, first_only) == expected
            total = expected[1]
            # A limit inside a charge of many nodes: the count stops there.
            inside = [rng.randrange(total) for _ in range(2)] if total else []
            for limit in (-1, 0, 1, total - 1, *inside):
                assert _trace(fast, limit, first_only) == _trace(brute, limit, first_only)

    def test_spend_each_stops_counting_at_the_limit(self):
        budget = NodeBudget(5)
        budget.spend_each(5)
        budget.spend_each(0)
        with pytest.raises(BudgetExceeded, match="spent 6 nodes, over the node budget of 5"):
            budget.spend_each(4)
        assert budget.used == 6


class TestHomSet:
    def test_from_point_every_point_works(self):
        k = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert len(hom_set(one_point(), k)) == 3

    def test_short_gap_into_long_gap_forces_collapse(self):
        # both points must land together: only the two constants survive
        maps = hom_set(two_point(1), two_point(2))
        assert [m.map for m in maps] == [(0, 0), (1, 1)]

    def test_empty_domain_has_one_map(self):
        assert len(hom_set(empty_space(), two_point(1))) == 1

    def test_empty_codomain(self):
        assert len(hom_set(two_point(1), empty_space())) == 0
        assert len(hom_set(empty_space(), empty_space())) == 1

    def test_lexicographic_order(self):
        maps = hom_set(two_point(2), two_point(2))
        tuples = [m.map for m in maps]
        assert tuples == sorted(tuples)

    @given(st.integers(0, 2**30))
    def test_agrees_with_brute_enumeration(self, seed):
        rng = random.Random(seed)
        cfg = CorpusConfig(max_points=3)
        dom = random_space(rng, cfg)
        cod = random_space(rng, cfg)
        assert [m.map for m in hom_set(dom, cod)] == hom_brute(dom, cod)

    def test_budget_exhaustion(self):
        big = validate_space([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        with pytest.raises(BudgetExceeded):
            hom_set(big, big, max_nodes=3)

    def test_cache_hit_is_charged_to_the_budget(self):
        big = validate_space([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        clear_caches()
        with pytest.raises(BudgetExceeded):
            hom_set(big, big, max_nodes=10)
        assert len(hom_set(big, big)) == 256
        with pytest.raises(BudgetExceeded):
            hom_set(big, big, max_nodes=10)

    def test_budgeted_search_fills_the_cache(self):
        big = validate_space([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        clear_caches()
        maps = hom_set(big, big, max_nodes=10**6)
        tuples = homsearch._memo[big, big, False][0]
        assert homsearch._homs(big, big) is tuples
        assert tuples == tuple(m.map for m in maps)
        with pytest.raises(BudgetExceeded):
            hom_set(big, big, max_nodes=10)

    def test_cache_is_bounded_and_an_evicted_entry_charges_the_same(self):
        big = validate_space([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        clear_caches()

        def nodes():
            budget = NodeBudget()
            hom_set(big, big, max_nodes=budget)
            return budget.used

        cold = nodes()
        for k in range(1, CACHE_ENTRIES + 10):
            hom_set(two_point(k), one_point())
            assert len(homsearch._memo) <= CACHE_ENTRIES
        assert (big, big, False) not in homsearch._memo   # the oldest went first
        assert nodes() == cold                           # searched again
        assert nodes() == cold                           # a hit

    @given(st.integers(0, 2**30))
    def test_agrees_with_brute_enumeration_on_mixed_values(self, seed):
        rng = random.Random(seed)
        dom, cod = _draw(rng), _draw(rng)
        assert [m.map for m in hom_set(dom, cod)] == hom_brute(dom, cod)


class TestIsometrySet:
    def test_point_into_gap(self):
        assert len(isometry_set(one_point(), two_point(1))) == 2

    def test_gap_mismatch(self):
        assert len(isometry_set(two_point(1), two_point(2))) == 0

    def test_automorphisms_of_gap(self):
        assert [a.map for a in automorphisms(two_point(1))] == [(0, 1), (1, 0)]

    def test_rigid_space(self):
        sp = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert len(automorphisms(sp)) == 2  # the flip and the identity

    @given(st.integers(0, 2**30))
    def test_isometries_are_the_exact_homs(self, seed):
        rng = random.Random(seed)
        cfg = CorpusConfig(max_points=3)
        dom = random_space(rng, cfg)
        cod = random_space(rng, cfg)
        exact = [
            arr for arr in hom_brute(dom, cod)
            if all(
                cod.dist[arr[i]][arr[j]] == dom.dist[i][j]
                for i in range(dom.n)
                for j in range(i + 1, dom.n)
            )
        ]
        assert [m.map for m in isometry_set(dom, cod)] == exact

    @given(st.integers(0, 2**30))
    def test_agrees_with_brute_enumeration_on_mixed_values(self, seed):
        rng = random.Random(seed)
        cod = _draw(rng, 5)
        dom = _draw(rng) if rng.random() < 0.5 else _inside(rng, cod)[0]
        assert [m.map for m in isometry_set(dom, cod)] == iso_brute(dom, cod)
        if rng.random() < 0.5:
            cod = dom
        assert [m.map for m in automorphisms(cod)] == iso_brute(cod, cod)


class TestIsometricFillers:
    def test_extension_found(self):
        # pin one endpoint of a gap; the filler must place the other
        path = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        h = MetMap(one_point(), two_point(1), (0,))
        pinned = MetMap(one_point(), path, (0,))
        fillers = isometric_fillers(h, pinned)
        assert [v.map for v in fillers] == [(0, 1)]

    def test_conflicting_pins_yield_nothing(self):
        h = MetMap(two_point(1), one_point(), (0, 0))
        pinned = MetMap(two_point(1), two_point(1), (0, 1))
        assert isometric_fillers(h, pinned) == ()

    def test_no_room_to_extend(self):
        h = MetMap(one_point(), two_point(2), (0,))
        pinned = MetMap(one_point(), two_point(1), (0,))
        assert isometric_fillers(h, pinned) == ()

    def test_first_only_stops_early(self):
        h = MetMap(empty_space(), one_point(), ())
        pinned = MetMap(empty_space(), two_point(1), ())
        all_fillers = isometric_fillers(h, pinned)
        first = isometric_fillers(h, pinned, first_only=True)
        assert len(all_fillers) == 2
        assert len(first) == 1
        assert first[0].map == all_fillers[0].map

    def test_every_filler_composes_back(self):
        rng = random.Random(7)
        cfg = CorpusConfig(max_points=3)
        for _ in range(30):
            X = random_space(rng, CorpusConfig(max_points=2))
            Y = random_space(rng, cfg)
            K = random_space(rng, cfg)
            for h in isometry_set(X, Y):
                for pinned in isometry_set(X, K):
                    for v in isometric_fillers(h, pinned):
                        assert h.then(v).map == pinned.map

    @given(st.integers(0, 2**30))
    def test_agrees_with_brute_enumeration(self, seed):
        # Either h and pinned are any non-expansive maps (a non-injective h
        # often pins one point of Y to two points of K, and then nothing
        # fills), or Y sits inside K and pinned factors through an isometry.
        rng = random.Random(seed)
        if rng.random() < 0.5:
            X, Y, K = _draw(rng, 2), _draw(rng, 4), _draw(rng, 5)
            homs_y, homs_k = hom_brute(X, Y), hom_brute(X, K)
            if not homs_y or not homs_k:
                return
            h = MetMap(X, Y, rng.choice(homs_y))
            pinned = MetMap(X, K, rng.choice(homs_k))
        else:
            K = _draw(rng, 5)
            Y = _inside(rng, K)[0]
            X, h = _inside(rng, Y, 2)
            pinned = h.then(MetMap(Y, K, rng.choice(iso_brute(Y, K))))
        expected = fillers_brute(h, pinned)
        assert [v.map for v in isometric_fillers(h, pinned)] == expected
        first = isometric_fillers(h, pinned, first_only=True)
        assert [v.map for v in first] == expected[:1]
