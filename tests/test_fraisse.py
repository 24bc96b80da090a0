import os
import random
from collections import Counter
from functools import partial
from itertools import accumulate

import pytest

from metricat import canonical, homsearch, rundir
from metricat.budgets import NodeBudget
from metricat.canonical import are_isomorphic
from metricat.colimits import pushout
from metricat.errors import BudgetExceeded, MismatchedEndpoints, SchemaError, UsageError
from metricat.extrat import INF, ExtRat, rat
from metricat.fraisse import (
    POLICIES,
    ChainStage,
    DistanceGrid,
    Span,
    _project,
    _span_dedup_group,
    audit_saturation,
    build_chain,
    catalog_isometries,
    chain_step,
    enumerate_spaces,
    gather_spans,
    policy_name,
)
from metricat.homsearch import _fillers, hom_set, isometric_fillers, isometry_set
from metricat.rundir import (
    grid_from_json,
    grid_to_json,
    load_chain,
    make_manifest,
    write_chain,
)
from metricat.spaces import (
    MetMap,
    coproduct,
    empty_space,
    identity,
    is_isometry,
    one_point,
    two_point,
    validate_space,
)

from .oracles import gather_spans_brute

GRID_1 = DistanceGrid((rat(1),), 2)
GRID_12 = DistanceGrid((rat(1), rat(2)), 3)
# Stratum-3 gathers over the last stage of the 3-step chain of GRID_12:
# spans, skipped and nodes per policy.
STRATUM_3 = {
    "iso-skip": (2117, 4124, 95820),
    "iso-all": (6241, 0, 22690),
    "full-skip": (8759, 4124, 611028),
    "full-all": (12883, 0, 537898),
}


def _skip_by_calls(h, space, budget):
    """One public ``isometric_fillers`` search per anchor."""
    return lambda u: bool(isometric_fillers(h, u, first_only=True, max_nodes=budget))


def _skip_by_projection(h, space, budget):
    """The projections v∘h of the public isometry set iso(Y, K), fetched once."""
    satisfied = {tuple(v.map[p] for p in h.map)
                 for v in isometry_set(h.cod, space, max_nodes=budget)}
    return lambda u: u.map in satisfied


def _gather_with(skip_rule, space, stratum, policy, *, max_nodes=None, max_spans=None):
    """``gather_spans`` over public calls, with the skip test that
    ``skip_rule(h, space, budget)`` makes at h's first anchor kept by the
    dedup test."""
    budget = NodeBudget.of(max_nodes)
    spans, skipped = [], 0
    for h in stratum:
        anchors = (isometry_set if policy.isometric_u else hom_set)(h.dom, space, max_nodes=budget)
        identity_map = tuple(range(h.dom.n))
        moves = [tau for tau in _span_dedup_group(h, budget) if tau != identity_map]
        satisfied = None
        for u in anchors:
            m = u.map
            if moves and any(tuple(map(m.__getitem__, tau)) < m for tau in moves):
                continue
            if policy.skip_satisfied:
                satisfied = satisfied or skip_rule(h, space, budget)
                if satisfied(u):
                    skipped += 1
                    continue
            spans.append(Span(u, h))
            if max_spans is not None and len(spans) > max_spans:
                raise BudgetExceeded(f"gathered {len(spans)} spans (budget {max_spans})")
    return tuple(spans), skipped


# The answer reference: a filler search per anchor.
_gather_by_calls = partial(_gather_with, _skip_by_calls)
# The charge reference: the skip set projected from iso(Y, K).
_gather_by_projection = partial(_gather_with, _skip_by_projection)


def _outcome(gather, args, limit):
    """A gather's result or budget error message, and the nodes it spent."""
    budget = NodeBudget(limit)
    try:
        return gather(*args, max_nodes=budget), budget.used
    except BudgetExceeded as e:
        return str(e), budget.used


@pytest.fixture(scope="module")
def chain_12():
    homsearch.clear_caches()
    return build_chain(GRID_12, 3)


@pytest.mark.parametrize("positions", [
    (), (0,), (2,), (0, 1), (1, 0), (1, 1), (0, 2, 1), (2, 2, 0), (1, 1, 1)])
def test_project_matches_the_plain_tuple(positions):
    # Every length from 0 to 3, repeated positions as a non-injective h
    # gives, and no maps at all; a tuple, a list and a one-pass iterator.
    rng = random.Random(repr(positions))
    maps = tuple(tuple(rng.randrange(4) for _ in range(3)) for _ in range(20))
    want = [tuple(m[p] for p in positions) for m in maps]
    assert list(_project((), positions)) == list(_project([], positions)) == []
    for given in (maps, list(maps), iter(maps)):
        assert list(_project(given, positions)) == want


class TestDistanceGrid:
    def test_values_sorted_and_deduplicated(self):
        grid = DistanceGrid((rat(2), rat(1), rat(2)), 3)
        assert grid.values == (rat(1), rat(2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            DistanceGrid((rat(0), rat(1)), 2)

    def test_bad_grid_is_a_usage_error(self):
        with pytest.raises(UsageError):
            DistanceGrid((rat(1),), -1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DistanceGrid((), 2)

    def test_infinity_allowed(self):
        grid = DistanceGrid((rat(1), INF), 2)
        assert grid.values[-1] is INF

    def test_json_round_trip(self):
        grid = DistanceGrid((rat("1/2"), rat(2)), 4)
        assert grid_from_json(grid_to_json(grid)) == grid


class TestEnumerate:
    def test_single_distance_grid(self):
        spaces = enumerate_spaces(GRID_1)
        assert [s.n for s in spaces] == [0, 1, 2]

    def test_two_distance_grid_size_two(self):
        spaces = enumerate_spaces(DistanceGrid((rat(1), rat(2)), 2))
        assert [s.n for s in spaces] == [0, 1, 2, 2]

    def test_two_distance_grid_size_three(self):
        spaces = enumerate_spaces(GRID_12)
        assert len(spaces) == 8
        triangles = [s for s in spaces if s.n == 3]
        sides = sorted(
            tuple(sorted((s.d(0, 1), s.d(0, 2), s.d(1, 2)))) for s in triangles
        )
        assert sides == [
            (rat(1), rat(1), rat(1)),
            (rat(1), rat(1), rat(2)),
            (rat(1), rat(2), rat(2)),
            (rat(2), rat(2), rat(2)),
        ]

    def test_triangle_violating_combinations_dropped(self):
        # gaps {1, 5} on three points: the (1, 1, 5) triangle is illegal
        spaces = enumerate_spaces(DistanceGrid((rat(1), rat(5)), 3))
        triangles = [s for s in spaces if s.n == 3]
        assert len(triangles) == 3

    def test_representatives_are_canonical_and_unique(self):
        spaces = enumerate_spaces(GRID_12)
        for i, a in enumerate(spaces):
            for b in spaces[i + 1:]:
                assert not are_isomorphic(a, b)


class TestCatalog:
    def test_empty_source_embeds_once_into_everything(self):
        catalog = catalog_isometries(enumerate_spaces(GRID_1), max_size=2)
        from_empty = [h for h in catalog.isometries if h.dom.n == 0]
        assert len(from_empty) == 3

    def test_point_into_gap_single_class(self):
        catalog = catalog_isometries(enumerate_spaces(GRID_1), max_size=2)
        arrows = [h for h in catalog.isometries if h.dom.n == 1 and h.cod.n == 2]
        # both embeddings are conjugate under the flip of the codomain
        assert len(arrows) == 1

    def test_incompatible_gaps_have_no_isometry(self):
        catalog = catalog_isometries((two_point(1), two_point(2)), max_size=2)
        crossing = [
            h for h in catalog.isometries
            if h.dom.dist != h.cod.dist and h.dom.n == h.cod.n == 2
        ]
        assert crossing == []

    @pytest.mark.parametrize("values, cap, count, nodes", [
        ("1,2", 3, 31, 715), ("1,2,3", 3, 70, 2135),
        ("1/2,1,3/2,2", 3, 134, 5502), ("1,2", 4, 145, 15161)])
    def test_least_member_of_each_orbit(self, values, cap, count, nodes):
        # Per pair X, Y: the least member of each orbit of Y's automorphisms
        # on the isometries X -> Y, in ascending order; the catalog charges
        # the automorphism and isometry searches it makes.
        spaces = enumerate_spaces(DistanceGrid(tuple(map(rat, values.split(","))), cap))
        homsearch.clear_caches()
        budget = NodeBudget()
        catalog = catalog_isometries(spaces, max_size=cap, max_nodes=budget)
        want = []
        for X in spaces:
            for Y in spaces:
                auts = homsearch.automorphisms(Y)
                orbits = {frozenset(tuple(a.map[p] for p in h.map) for a in auts)
                          for h in homsearch.isometry_set(X, Y)}
                want += [(X, Y, m) for m in sorted(map(min, orbits))]
        assert [(h.dom, h.cod, h.map) for h in catalog.isometries] == want
        assert (len(want), budget.used) == (count, nodes)

    def test_strata_are_nested(self):
        catalog = catalog_isometries(enumerate_spaces(GRID_12), max_size=3)
        small = set((h.dom.dist, h.cod.dist, h.map) for h in catalog.stratum(0))
        large = set((h.dom.dist, h.cod.dist, h.map) for h in catalog.stratum(1))
        assert small <= large


class TestChainStep:
    def test_no_spans_is_identity(self):
        space = two_point(1)
        nxt, k, records = chain_step(space, ())
        assert nxt == space
        assert k.map == (0, 1)
        assert records == ()

    def test_all_empty_spans_glue_a_coproduct(self):
        h = MetMap(empty_space(), two_point(1), ())
        u = MetMap(empty_space(), empty_space(), ())
        nxt, k, records = chain_step(empty_space(), (Span(u, h), Span(u, h)))
        assert nxt.n == 4
        assert nxt.d(0, 1) == rat(1)
        assert nxt.d(0, 2) is INF

    def test_attaching_a_gap_to_a_point(self):
        p = one_point()
        span = Span(identity(p), MetMap(p, two_point(1), (0,)))
        nxt, k, records = chain_step(p, (span,))
        assert nxt.dist == two_point(1).dist
        assert is_isometry(k)
        copy = records[0].copy
        assert span.h.then(copy).map == span.u.then(k).map

    def test_an_anchor_into_another_space_is_rejected(self):
        p = one_point()
        span = Span(MetMap(p, two_point(1), (0,)), MetMap(p, two_point(1), (0,)))
        with pytest.raises(MismatchedEndpoints):
            chain_step(p, (span,))

    def test_point_budget_enforced(self):
        h = MetMap(empty_space(), two_point(1), ())
        u = MetMap(empty_space(), one_point(), ())
        with pytest.raises(BudgetExceeded):
            chain_step(one_point(), (Span(u, h),) * 3, max_points=5)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_matches_the_pushout_of_two_coproducts(self, policy):
        # Each step recomputed as the pushout of <u>: X^ -> K_n and
        # ⊔h: X^ -> Y^, where X^ and Y^ are the coproducts of the span
        # domains and codomains.
        stages, _ = build_chain(GRID_12, 2, policy)
        for stage, nxt in zip(stages, stages[1:]):
            spans = [r.span for r in stage.span_log]
            xs = coproduct(s.u.dom for s in spans)
            ys = coproduct(s.h.cod for s in spans)
            starts = list(accumulate((s.h.cod.n for s in spans), initial=0))
            u_all = tuple(p for s in spans for p in s.u.map)
            h_all = tuple(off + p for s, off in zip(spans, starts) for p in s.h.map)
            po = pushout(MetMap(xs.space, stage.space, u_all), MetMap(xs.space, ys.space, h_all))
            assert po.apex.dist == nxt.space.dist
            assert po.leg_g.map == stage.embedding.map
            assert [r.copy.map for r in stage.span_log] == [
                po.leg_f.map[a:b] for a, b in zip(starts, starts[1:])]


class TestGatherSpans:
    def test_skip_policy_drops_satisfied_extensions(self):
        catalog = catalog_isometries(enumerate_spaces(GRID_1), max_size=2)
        stage = one_point()
        spans, skipped = gather_spans(stage, catalog.stratum(1), POLICIES["iso-skip"])
        assert len(spans) == 2
        assert skipped == 3

    def test_all_policy_keeps_them(self):
        catalog = catalog_isometries(enumerate_spaces(GRID_1), max_size=2)
        stage = one_point()
        spans, skipped = gather_spans(stage, catalog.stratum(1), POLICIES["iso-all"])
        assert len(spans) == 5
        assert skipped == 0

    def test_full_anchor_policy_adds_nonisometric_anchors(self):
        catalog = catalog_isometries(enumerate_spaces(GRID_1), max_size=2)
        stage = one_point()
        iso_spans, _ = gather_spans(stage, catalog.stratum(1), POLICIES["iso-skip"])
        full_spans, _ = gather_spans(stage, catalog.stratum(1), POLICIES["full-skip"])
        assert len(full_spans) > len(iso_spans)

    def test_span_cap_is_charged_while_gathering(self):
        catalog = catalog_isometries(enumerate_spaces(GRID_1), max_size=2)
        args = (one_point(), catalog.stratum(1), POLICIES["iso-all"])
        spans, skipped = gather_spans(*args)
        assert gather_spans(*args, max_spans=len(spans)) == (spans, skipped)
        with pytest.raises(BudgetExceeded, match=rf"{len(spans)} spans \(budget {len(spans) - 1}\)"):
            gather_spans(*args, max_spans=len(spans) - 1)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_orbit_minimum_matches_the_key_and_seen_set(self, policy):
        # Strata 0-3 of the grid {1,2}, cap 3 chain, one stage each: the
        # spans and skip counts of the whole stratum against the explicit
        # key, its nodes against the projection reference, then the span
        # cap one below the count.  Cold caches: a memo entry keyed on an
        # equal stage of an earlier build is compared entry by entry.
        homsearch.clear_caches()
        stages, catalog = build_chain(GRID_12, 3)
        groups = [len(_span_dedup_group(h, NodeBudget())) for h in catalog.stratum(3)]
        assert sum(size > 1 for size in groups) == 10
        for stage in stages:
            args = (stage.space, catalog.stratum(stage.stratum), POLICIES[policy])
            fast, ref = NodeBudget(), NodeBudget()
            spans, skipped = gather_spans(*args, max_nodes=fast)
            assert (spans, skipped) == gather_spans_brute(*args)
            assert (spans, skipped) == _gather_by_projection(*args, max_nodes=ref)
            assert fast.used == ref.used
            if not spans:
                continue
            cap = len(spans) - 1
            fast, ref = NodeBudget(), NodeBudget()
            with pytest.raises(BudgetExceeded) as got:
                gather_spans(*args, max_nodes=fast, max_spans=cap)
            with pytest.raises(BudgetExceeded) as want:
                gather_spans_brute(*args, max_spans=cap)
            with pytest.raises(BudgetExceeded) as charged:
                _gather_by_projection(*args, max_nodes=ref, max_spans=cap)
            assert str(got.value) == str(want.value) == str(charged.value)
            assert fast.used == ref.used

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_edge_cases_agree_with_a_search_per_anchor(self, policy):
        # A non-injective h, whose projections pin both points of the gap
        # to one; empty X, Y and K; and a K without h's distance, into
        # which no v exists.  The answers of the per-anchor calls, the
        # charge of the projection reference; the spans kept and skipped
        # under the skip rule, for isometric and for all anchors.
        e, gap = empty_space(), two_point(1)
        cases = [
            (MetMap(gap, one_point(), (0, 0)), gap, {True: (1, 0), False: (1, 2)}),
            (identity(e), e, {True: (0, 1), False: (0, 1)}),
            (identity(e), gap, {True: (0, 1), False: (0, 1)}),
            (MetMap(e, one_point(), ()), e, {True: (1, 0), False: (1, 0)}),
            (MetMap(one_point(), two_point(2), (0,)), gap, {True: (2, 0), False: (2, 0)}),
        ]
        chosen = POLICIES[policy]
        for h, K, counts in cases:
            args = (K, (h,), chosen)
            fast, ref = NodeBudget(), NodeBudget()
            spans, skipped = gather_spans(*args, max_nodes=fast)
            assert (spans, skipped) == _gather_by_calls(*args)
            assert (spans, skipped) == _gather_by_projection(*args, max_nodes=ref)
            assert fast.used == ref.used
            kept, satisfied = counts[chosen.isometric_u]
            want = (kept, satisfied) if chosen.skip_satisfied else (kept + satisfied, 0)
            assert (len(spans), skipped) == want

    @pytest.mark.parametrize("policy", ["iso-skip", "full-skip"])
    def test_the_skip_set_is_charged_at_the_first_kept_anchor(self, policy):
        # The unit triangle has no isometric image in the 4-cycle with unit
        # sides and diagonals 2, but iso(Y, K) searches and charges nodes.
        # Without a kept anchor the gather charges its anchors and dedup
        # group alone; with one (every map is non-expansive) it charges
        # iso(Y, K) once more.
        triangle = validate_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        square = validate_space([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
        h = identity(triangle)
        alone, skip_set, gathered = NodeBudget(), NodeBudget(), NodeBudget()
        anchors = (isometry_set if POLICIES[policy].isometric_u else hom_set)(
            triangle, square, max_nodes=alone)
        _span_dedup_group(h, alone)
        isometry_set(triangle, square, max_nodes=skip_set)
        assert skip_set.used > 0
        spans, skipped = gather_spans(square, (h,), POLICIES[policy], max_nodes=gathered)
        assert (spans, skipped) == _gather_by_calls(square, (h,), POLICIES[policy])
        if anchors:
            assert spans and skipped == 0
            assert gathered.used == alone.used + skip_set.used
        else:
            assert spans == () and gathered.used == alone.used

    def test_policy_names_round_trip(self):
        for name, policy in POLICIES.items():
            assert policy_name(policy) == name


class TestBuildChain:
    def test_tiny_chain_trace(self):
        stages, catalog = build_chain(GRID_1, 2)
        assert [s.space.n for s in stages] == [0, 1, 4]
        for stage in stages[:-1]:
            assert is_isometry(stage.embedding)
        # every point of stage n has a unit neighbor by stage n+1
        for stage in stages[1:-1]:
            nxt = stages[stage.index + 1].space
            k = stage.embedding
            for p in range(stage.space.n):
                assert any(
                    nxt.d(k.map[p], q) == rat(1)
                    for q in range(nxt.n)
                    if q != k.map[p]
                )

    def test_zero_steps(self):
        stages, _ = build_chain(GRID_1, 0)
        assert len(stages) == 1
        assert stages[0].space.n == 0
        assert stages[0].embedding is None

    def test_budget_violation_carries_partial_chain(self):
        with pytest.raises(BudgetExceeded) as err:
            build_chain(GRID_12, 3, max_points=16)
        partial, catalog = err.value.partial
        assert len(partial) >= 1
        assert not partial[-1].coverage_complete
        assert partial[-1].embedding is None

    def test_span_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            build_chain(GRID_12, 3, max_spans=4)
        assert err.value.partial is not None

    def test_default_span_budget_stops_at_the_first_span_past_it(self):
        with pytest.raises(BudgetExceeded, match=r"513 spans \(budget 512\)") as err:
            build_chain(DistanceGrid((1, 2), 4), 4)
        partial, _ = err.value.partial
        assert [s.space.n for s in partial] == [0, 1, 7, 133]

    def test_a_second_build_compares_no_stale_stage(self, monkeypatch):
        # Six stratum-3 iso-skip gathers over the last stage compare as few
        # distances after a second build in the process as after a first:
        # no memo entry keyed on the earlier build's equal stage survives.
        compare = ExtRat.__eq__
        counts = []

        def counted(self, other):
            counts[-1] += 1
            return compare(self, other)

        homsearch.clear_caches()
        for _ in range(2):
            stages, catalog = build_chain(GRID_12, 3)
            counts.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(ExtRat, "__eq__", counted)
                for h in catalog.stratum(3)[:6]:
                    gather_spans(stages[-1].space, (h,), POLICIES["iso-skip"])
        assert counts[0] == counts[1] > 0

    def test_one_node_budget_covers_the_whole_build(self):
        # Enumeration, catalog, span dedup, gathers and filler searches all
        # charge the one budget: 1850 nodes, with cold caches or warm.
        for warm in (False, True):
            homsearch.clear_caches()
            canonical.clear_cache()
            if warm:
                build_chain(GRID_12, 3)
            assert len(build_chain(GRID_12, 3, max_nodes=1850)[0]) == 4
            with pytest.raises(BudgetExceeded, match="spent 1850 nodes, over the node budget of 1849"):
                build_chain(GRID_12, 3, max_nodes=1849)
        # Out of nodes while cataloguing: the partial chain is K_0 alone.
        with pytest.raises(BudgetExceeded) as err:
            build_chain(GRID_12, 3, max_nodes=0)
        assert [(s.space.n, s.coverage_complete) for s in err.value.partial[0]] == [(0, False)]


class TestAudit:
    def test_built_chain_passes(self):
        stages, catalog = build_chain(GRID_1, 2)
        report = audit_saturation(stages, catalog)
        assert report.ok
        assert all(not a.missing for a in report.stages)
        assert [a.checked for a in report.stages] == [2, 5]

    def test_unprocessed_point_extension_is_caught(self):
        # a chain that stays empty misses the one-point extension
        catalog = catalog_isometries(enumerate_spaces(GRID_1), max_size=2)
        e = empty_space()
        stages = (
            ChainStage(0, e, identity(e), (), 0, 0, True),
            ChainStage(1, e, None, (), 0, 1, True),
        )
        report = audit_saturation(stages, catalog)
        assert not report.ok
        witness = report.stages[0].missing[0]
        assert witness.h.cod.n == 1
        assert witness.u.map == ()

    def test_dropped_span_is_caught(self):
        # glue only the floating copy, never the attaching span: the stage
        # point keeps having no unit neighbor and the audit must object
        stages, catalog = build_chain(GRID_1, 2)
        k1 = stages[1].space
        floating = Span(
            MetMap(empty_space(), k1, ()),
            MetMap(empty_space(), two_point(1), ()),
        )
        k2, k, _records = chain_step(k1, (floating,))
        truncated = (
            ChainStage(1, k1, k, (), 0, 1, True),
            ChainStage(2, k2, None, (), 0, 2, True),
        )
        report = audit_saturation(truncated, catalog)
        assert not report.ok
        missing = report.stages[0].missing
        assert any(w.h.dom.n == 1 and w.h.cod.n == 2 for w in missing)

    def test_embedding_from_another_space_is_rejected(self):
        catalog = catalog_isometries(enumerate_spaces(GRID_1), max_size=2)
        gap = two_point(1)
        stages = (ChainStage(0, one_point(), identity(gap), (), 0, 0, True),
                  ChainStage(1, gap, None, (), 0, 1, True))
        with pytest.raises(MismatchedEndpoints, match="must start at its stage"):
            audit_saturation(stages, catalog)


class TestFillerPlan:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_gathers_agree_with_a_search_per_anchor(self, chain_12, policy):
        stages, catalog = chain_12
        args = (stages[-1].space, catalog.stratum(3), POLICIES[policy])
        fast, ref = NodeBudget(), NodeBudget()
        spans, skipped = gather_spans(*args, max_nodes=fast)
        assert (spans, skipped) == _gather_by_calls(*args)
        assert (spans, skipped) == _gather_by_projection(*args, max_nodes=ref)
        assert (len(spans), skipped, fast.used) == STRATUM_3[policy]
        assert ref.used == fast.used

    def test_audit_charge_is_pinned(self, chain_12):
        stages, catalog = chain_12
        budget = NodeBudget()
        report = audit_saturation(stages, catalog, max_nodes=budget)
        assert report.ok
        assert [a.checked for a in report.stages] == [2, 7, 111]
        assert budget.used == 1532
        with pytest.raises(BudgetExceeded, match="spent 1532 nodes, over the node budget of 1531"):
            audit_saturation(stages, catalog, max_nodes=1531)

    @pytest.mark.parametrize("policy", ["iso-skip", "full-skip"])
    def test_single_gathers_stop_at_the_same_node(self, chain_12, policy):
        # Every fifth stratum-3 isometry alone: the answer of the per-anchor
        # calls, then the outcome at limits around the ends of its gather
        # and two inside, against the projection reference.
        stages, catalog = chain_12
        for index, h in enumerate(catalog.stratum(3)[::5]):
            args = (stages[-1].space, (h,), POLICIES[policy])
            expected = _outcome(_gather_by_projection, args, None)
            assert _outcome(gather_spans, args, None) == expected
            assert expected[0] == _gather_by_calls(*args)
            total = expected[1]
            rng = random.Random(index)
            inside = [rng.randrange(total) for _ in range(2)] if total else []
            for limit in (-1, 0, 1, total - 1, *inside):
                got = _outcome(gather_spans, args, limit)
                assert got == _outcome(_gather_by_projection, args, limit)
                if 0 <= limit < total:
                    assert got == (f"search spent {limit + 1} nodes, "
                                   f"over the node budget of {limit}", limit + 1)

    def test_empty_y_has_the_empty_filler_for_free(self):
        e = empty_space()
        budget = NodeBudget(0)
        for K in (e, two_point(1)):
            assert list(_fillers(identity(e), K, budget)(())) == [()]
        assert budget.used == 0
        spans, skipped = gather_spans(two_point(1), (identity(e),), POLICIES["iso-skip"])
        assert (spans, skipped) == ((), 1)

    def test_empty_k_has_none(self):
        budget = NodeBudget(0)
        h = MetMap(empty_space(), one_point(), ())
        assert list(_fillers(h, empty_space(), budget)(())) == []
        assert budget.used == 0

    def test_conflicting_pins_give_none(self):
        # h sends both points of the gap to the one point of Y: pins that
        # disagree there give nothing and charge nothing, pins that agree
        # give the one filler.
        h = MetMap(two_point(1), one_point(), (0, 0))
        budget = NodeBudget()
        fillers = _fillers(h, two_point(1), budget)
        assert list(fillers((0, 1))) == []
        assert budget.used == 0
        assert list(fillers((1, 1))) == [(1,)]
        assert isometric_fillers(h, MetMap(two_point(1), two_point(1), (0, 1))) == ()


class TestRunDirectory:
    def test_round_trip(self, tmp_path):
        stages, catalog = build_chain(GRID_1, 2)
        manifest = make_manifest(
            "test", GRID_1, "iso-skip", seed=0, steps=2,
            budgets={"points": 256}, outcome={"complete": True},
            wall_clock_seconds=0.0,
        )
        out = str(tmp_path / "run")
        write_chain(out, stages, manifest)
        run = load_chain(out)
        assert run.grid == GRID_1
        assert len(run.stages) == len(stages)
        for a, b in zip(run.stages, stages):
            assert a.space.dist == b.space.dist
            assert (a.embedding is None) == (b.embedding is None)
            if a.embedding is not None:
                assert a.embedding.map == b.embedding.map
            assert len(a.span_log) == len(b.span_log)
            for ra, rb in zip(a.span_log, b.span_log):
                assert ra.span.u.map == rb.span.u.map
                assert ra.span.h.map == rb.span.h.map
                assert ra.copy.map == rb.copy.map
            assert a.skipped == b.skipped

    def test_loaded_chain_audits_identically(self, tmp_path):
        stages, catalog = build_chain(GRID_1, 2)
        manifest = make_manifest(
            "test", GRID_1, "iso-skip", seed=0, steps=2,
            budgets={}, outcome={"complete": True}, wall_clock_seconds=0.0,
        )
        out = str(tmp_path / "run")
        write_chain(out, stages, manifest)
        run = load_chain(out)
        direct = audit_saturation(stages, catalog)
        rebuilt = catalog_isometries(enumerate_spaces(run.grid), max_size=run.grid.max_size)
        loaded = audit_saturation(run.stages, rebuilt)
        assert loaded.ok == direct.ok
        assert [a.checked for a in loaded.stages] == [a.checked for a in direct.stages]

    def test_missing_manifest_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            load_chain(str(tmp_path / "nope"))

    def _write(self, out, steps):
        stages, _ = build_chain(GRID_1, steps)
        manifest = make_manifest(
            "test", GRID_1, "iso-skip", seed=0, steps=steps,
            budgets={}, outcome={"complete": True}, wall_clock_seconds=0.0,
        )
        write_chain(out, stages, manifest)
        return stages

    def test_each_stage_file_is_read_once(self, tmp_path, monkeypatch):
        out = str(tmp_path / "run")
        self._write(out, 2)
        reads = Counter()
        read_json = rundir.read_json

        def counting(path):
            reads[os.path.relpath(path, out)] += 1
            return read_json(path)

        monkeypatch.setattr(rundir, "read_json", counting)
        run = load_chain(out)
        assert {p: c for p, c in reads.items() if p.startswith("stages")} == {
            "stages/K_000.json": 1, "stages/K_001.json": 1, "stages/K_002.json": 1,
        }
        for stage, nxt in zip(run.stages, run.stages[1:]):
            assert stage.embedding.dom is stage.space
            assert stage.embedding.cod is nxt.space
            for record in stage.span_log:
                assert record.span.u.cod is stage.space
                assert record.copy.cod is nxt.space

    def test_shorter_rebuild_leaves_no_stale_files(self, tmp_path):
        out = str(tmp_path / "run")
        self._write(out, 2)
        with open(os.path.join(out, "audit.json"), "w", encoding="utf-8") as fh:
            fh.write("{}\n")
        self._write(out, 1)
        assert sorted(os.listdir(os.path.join(out, "stages"))) == ["K_000.json", "K_001.json"]
        assert os.listdir(os.path.join(out, "embeddings")) == ["k_000_001.json"]
        assert os.listdir(os.path.join(out, "spans")) == ["step_000.json"]
        assert not os.path.exists(os.path.join(out, "audit.json"))
        assert [s.space.n for s in load_chain(out).stages] == [0, 1]

    def test_stage_list_comes_from_the_manifest(self, tmp_path):
        out = str(tmp_path / "run")
        self._write(out, 2)
        manifest_path = os.path.join(out, "manifest.json")
        manifest = rundir.read_json(manifest_path)
        assert manifest["outcome"]["stages"] == [0, 1, 4]
        manifest["outcome"]["stages"] = [0, 1, 5]
        rundir.write_json(manifest_path, manifest)
        with pytest.raises(SchemaError, match="K_002.json has 4 points"):
            load_chain(out)
        manifest["outcome"]["stages"] = [0, 1, 4]
        rundir.write_json(manifest_path, manifest)
        os.remove(os.path.join(out, "stages", "K_002.json"))
        with pytest.raises(SchemaError, match="missing file"):
            load_chain(out)
