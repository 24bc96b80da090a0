import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import os

from metricat import colimits, homsearch
from metricat.canonical import are_isomorphic, canonical_form
from metricat.colimits import (
    EpsCoequalizerResult,
    EpsColimitResult,
    EpsPushoutResult,
    FinDiagram,
    comparison,
    cylinder,
    cylinder_factorization,
    eps_coequalizer,
    eps_colimit,
    eps_pushout,
    pushout,
)
from metricat.corpus import (
    CorpusConfig,
    random_diagram,
    random_parallel_pair,
    random_span,
    random_space,
)
from metricat.errors import (
    BudgetExceeded, InvalidMorphism, MetricatError, MismatchedEndpoints, UsageError,
)
from metricat.extrat import INF, ZERO, ExtRat, rat
from metricat.homsearch import hom_set
from metricat.serialization import pair_from_json, read_json
from metricat.spaces import (
    MetMap,
    Space,
    coproduct,
    empty_space,
    hom_dist,
    identity,
    is_isometry,
    one_point,
    two_point,
    validate_space,
)
from metricat.verify import verify_coequalizer, verify_colimit, verify_pushout

from .oracles import ordinary_colimit_oracle, verify_brute, verify_nodes_brute

EPS_VALUES = (ZERO, rat("1/2"), rat(1), INF)


def small_targets(*spaces):
    return list(spaces) + [one_point(), two_point(1)]


class TestPushout:
    def test_along_identity_recovers_codomain(self):
        B = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f = MetMap(two_point(1), B, (0, 1))
        res = pushout(f, identity(two_point(1)))
        assert are_isomorphic(res.apex, B)
        assert is_isometry(res.leg_g)

    def test_gluing_two_points(self):
        p = one_point()
        res = pushout(identity(p), identity(p))
        assert res.apex.n == 1

    def test_glued_wedge_distance(self):
        # one endpoint of a 1-gap fused with one endpoint of a 2-gap
        f = MetMap(one_point(), two_point(1), (0,))
        g = MetMap(one_point(), two_point(2), (0,))
        res = pushout(f, g)
        assert res.apex.n == 3
        b1 = res.leg_g.map[1]
        c1 = res.leg_f.map[1]
        assert res.apex.d(b1, c1) == rat(3)

    def test_legs_commute_exactly(self):
        rng = random.Random(21)
        for _ in range(30):
            f, g = random_span(rng, CorpusConfig(max_points=3))
            res = pushout(f, g)
            assert f.then(res.leg_g).map == g.then(res.leg_f).map


class TestEpsPushout:
    def test_two_bridged_points(self):
        p = one_point()
        res = eps_pushout(identity(p), identity(p), 1)
        assert res.apex.dist == two_point(1).dist

    def test_empty_domain_gives_coproduct(self):
        B, C = two_point(1), two_point(2)
        e = empty_space()
        f = MetMap(e, B, ())
        g = MetMap(e, C, ())
        for eps in EPS_VALUES:
            res = eps_pushout(f, g, eps)
            assert res.apex.dist == coproduct((B, C)).space.dist

    def test_infinite_tolerance_gives_coproduct(self):
        rng = random.Random(22)
        for _ in range(20):
            f, g = random_span(rng, CorpusConfig(max_points=3))
            res = eps_pushout(f, g, INF)
            assert res.apex.dist == coproduct((f.cod, g.cod)).space.dist

    def test_square_commutes_within_eps(self):
        rng = random.Random(23)
        for _ in range(40):
            f, g = random_span(rng, CorpusConfig(max_points=3))
            eps = EPS_VALUES[rng.randrange(len(EPS_VALUES))]
            res = eps_pushout(f, g, eps)
            assert hom_dist(f.then(res.leg_g), g.then(res.leg_f)) <= eps

    def test_mismatched_span_rejected(self):
        f = identity(one_point())
        g = identity(two_point(1))
        with pytest.raises(MismatchedEndpoints):
            eps_pushout(f, g, 1)


class TestEpsCoequalizer:
    def test_equal_pair_keeps_codomain(self):
        f = MetMap(one_point(), two_point(1), (0,))
        res = eps_coequalizer(f, f, 0)
        assert res.apex.dist == two_point(1).dist
        assert res.leg.map == (0, 1)

    def test_long_gap_tightened(self):
        t = two_point(5)
        f = MetMap(one_point(), t, (0,))
        g = MetMap(one_point(), t, (1,))
        res = eps_coequalizer(f, g, 1)
        assert res.apex.dist == two_point(1).dist
        assert hom_dist(f.then(res.leg), g.then(res.leg)) == rat(1)

    def test_zero_tolerance_fuses(self):
        t = two_point(5)
        f = MetMap(one_point(), t, (0,))
        g = MetMap(one_point(), t, (1,))
        res = eps_coequalizer(f, g, 0)
        assert res.apex.n == 1

    def test_infinite_tolerance_is_vacuous(self):
        t = two_point(5)
        f = MetMap(one_point(), t, (0,))
        g = MetMap(one_point(), t, (1,))
        res = eps_coequalizer(f, g, INF)
        assert res.apex.dist == t.dist

    def test_mismatched_pair_rejected(self):
        f = MetMap(one_point(), two_point(1), (0,))
        g = MetMap(one_point(), two_point(2), (0,))
        with pytest.raises(MismatchedEndpoints):
            eps_coequalizer(f, g, 1)


class TestEpsColimit:
    def test_discrete_diagram_is_coproduct(self):
        rng = random.Random(24)
        for _ in range(10):
            objs = tuple(random_space(rng, CorpusConfig(max_points=3)) for _ in range(2))
            diagram = FinDiagram(objs, ())
            for eps in EPS_VALUES:
                res = eps_colimit(diagram, eps)
                assert res.apex.dist == coproduct(objs).space.dist

    def test_single_arrow_at_zero_gives_codomain(self):
        B = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f = MetMap(two_point(1), B, (0, 1))
        diagram = FinDiagram((two_point(1), B), ((0, 1, f),))
        res = eps_colimit(diagram, 0)
        assert are_isomorphic(res.apex, B)

    def test_span_at_zero_matches_pushout(self):
        rng = random.Random(25)
        for _ in range(20):
            f, g = random_span(rng, CorpusConfig(max_points=3))
            diagram = FinDiagram(
                (f.dom, f.cod, g.cod), ((0, 1, f), (0, 2, g))
            )
            res = eps_colimit(diagram, 0)
            po = pushout(f, g)
            assert canonical_form(res.apex).space == canonical_form(po.apex).space

    def test_parallel_pair_keeps_source_copy(self):
        # at eps > 0 the diagram colimit bridges through the source copy,
        # so it differs from the coequalizer of the same pair
        t = two_point(5)
        f = MetMap(one_point(), t, (0,))
        g = MetMap(one_point(), t, (1,))
        diagram = FinDiagram((one_point(), t), ((0, 1, f), (0, 1, g)))
        res = eps_colimit(diagram, 1)
        assert res.apex.n == 3
        b0 = res.legs[1].map[0]
        b1 = res.legs[1].map[1]
        assert res.apex.d(b0, b1) == rat(2)
        coeq = eps_coequalizer(f, g, 1)
        assert not are_isomorphic(res.apex, coeq.apex)

    def test_parallel_pair_at_zero_matches_coequalizer(self):
        rng = random.Random(26)
        for _ in range(20):
            f, g = random_parallel_pair(rng, CorpusConfig(max_points=3))
            diagram = FinDiagram((f.dom, f.cod), ((0, 1, f), (0, 1, g)))
            res = eps_colimit(diagram, 0)
            coeq = eps_coequalizer(f, g, 0)
            assert canonical_form(res.apex).space == canonical_form(coeq.apex).space

    def test_matches_union_find_oracle_at_zero(self):
        rng = random.Random(27)
        for _ in range(30):
            diagram = random_diagram(rng, CorpusConfig(max_points=3))
            res = eps_colimit(diagram, 0)
            oracle = ordinary_colimit_oracle(diagram)
            assert canonical_form(res.apex).space == canonical_form(oracle).space

    def test_point_budget(self):
        objs = (two_point(1), two_point(1))
        with pytest.raises(BudgetExceeded):
            eps_colimit(FinDiagram(objs, ()), 0, max_points=3)


class TestComparison:
    def test_equal_tolerances_give_identity(self):
        rng = random.Random(28)
        for _ in range(10):
            diagram = random_diagram(rng, CorpusConfig(max_points=2))
            cmp_map = comparison(diagram, 1, 1)
            assert cmp_map.map == tuple(range(cmp_map.dom.n))

    def test_direction_is_enforced(self):
        diagram = FinDiagram((one_point(),), ())
        with pytest.raises(ValueError):
            comparison(diagram, 0, 1)

    def test_wrong_direction_is_a_package_error(self):
        diagram = FinDiagram((one_point(),), ())
        try:
            comparison(diagram, 0, 1)
        except MetricatError as exc:
            assert isinstance(exc, UsageError)
        else:
            pytest.fail("comparison from the tighter tolerance did not raise")

    def test_inconsistent_legs_raise_a_typed_error(self, monkeypatch):
        p = one_point()
        diagram = FinDiagram((p, p), ())
        apart = eps_colimit(diagram, 0)
        glued = EpsColimitResult(p, (identity(p), identity(p)), rat(1))
        monkeypatch.setattr(colimits, "eps_colimit",
                            lambda d, e, **kw: glued if e == rat(1) else apart)
        with pytest.raises(InvalidMorphism, match="not well defined") as info:
            comparison(diagram, 1, 0)
        assert isinstance(info.value, MetricatError)

    def test_inf_to_zero_is_the_quotient(self):
        f = MetMap(one_point(), two_point(1), (0,))
        g = MetMap(one_point(), two_point(2), (0,))
        diagram = FinDiagram(
            (one_point(), two_point(1), two_point(2)), ((0, 1, f), (0, 2, g))
        )
        loose = eps_colimit(diagram, INF)
        tight = eps_colimit(diagram, 0)
        cmp_map = comparison(diagram, INF, 0)
        assert loose.apex.n == 5
        assert tight.apex.n == 3
        for leg_e, leg_d in zip(loose.legs, tight.legs):
            assert leg_e.then(cmp_map).map == leg_d.map

    @given(st.integers(0, 2**30))
    def test_functoriality(self, seed):
        rng = random.Random(seed)
        diagram = random_diagram(rng, CorpusConfig(max_points=2), max_arrows=2)
        hi, mid, lo = INF, rat(1), ZERO
        via = comparison(diagram, hi, mid).then(comparison(diagram, mid, lo))
        direct = comparison(diagram, hi, lo)
        assert via.map == direct.map


class TestCylinder:
    def test_point_cylinder_is_a_gap(self):
        res = cylinder(one_point(), rat("3/2"))
        assert res.space.dist == two_point("3/2").dist

    def test_cylinders_are_memoized_per_space_and_tolerance(self):
        K = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        colimits.clear_cache()
        first = cylinder(K, "1/2")
        assert cylinder(validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), rat("1/2")) is first
        assert cylinder(K, 1) is not first
        colimits.clear_cache()
        again = cylinder(K, "1/2")
        assert again is not first and again == first

    def test_zero_cylinder_collapses(self):
        K = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        res = cylinder(K, 0)
        assert are_isomorphic(res.space, K)

    def test_cross_distances_add_the_tolerance(self):
        rng = random.Random(29)
        for eps in (rat("1/2"), rat(1), rat(2)):
            for _ in range(10):
                K = random_space(rng, CorpusConfig(max_points=4))
                res = cylinder(K, eps)
                inc = res.inclusion.map
                n = K.n
                for x in range(n):
                    for y in range(n):
                        lhs = res.space.d(inc[x], inc[n + y])
                        assert lhs == K.d(x, y) + eps
                        assert res.space.d(inc[x], inc[y]) == K.d(x, y)

    def test_factorization_exists_iff_homotopic(self):
        rng = random.Random(30)
        cfg = CorpusConfig(max_points=3)
        for _ in range(40):
            K = random_space(rng, cfg)
            L = random_space(rng, cfg)
            maps = hom_set(K, L)
            if len(maps) < 2:
                continue
            f = maps[rng.randrange(len(maps))]
            g = maps[rng.randrange(len(maps))]
            eps = (rat("1/2"), rat(1))[rng.randrange(2)]
            mediator = cylinder_factorization(f, g, eps)
            if hom_dist(f, g) <= eps:
                assert mediator is not None
                inc = cylinder(K, eps).inclusion.map
                for x in range(K.n):
                    assert mediator.map[inc[x]] == f.map[x]
                    assert mediator.map[inc[K.n + x]] == g.map[x]
            else:
                assert mediator is None


class TestVerify:
    def test_passes_on_real_pushouts(self):
        rng = random.Random(31)
        for _ in range(15):
            f, g = random_span(rng, CorpusConfig(max_points=2))
            eps = EPS_VALUES[rng.randrange(len(EPS_VALUES))]
            res = eps_pushout(f, g, eps)
            report = verify_pushout(res, f, g, small_targets(f.cod, g.cod))
            assert report.ok, report.counterexample

    def test_passes_on_real_coequalizers(self):
        rng = random.Random(32)
        for _ in range(15):
            f, g = random_parallel_pair(rng, CorpusConfig(max_points=3))
            eps = EPS_VALUES[rng.randrange(len(EPS_VALUES))]
            res = eps_coequalizer(f, g, eps)
            report = verify_coequalizer(res, f, g, small_targets(f.cod))
            assert report.ok, report.counterexample

    def test_passes_on_real_colimits(self):
        rng = random.Random(33)
        for _ in range(10):
            diagram = random_diagram(rng, CorpusConfig(max_points=2), max_arrows=2)
            eps = EPS_VALUES[rng.randrange(len(EPS_VALUES))]
            res = eps_colimit(diagram, eps)
            report = verify_colimit(res, diagram, small_targets())
            assert report.ok, report.counterexample

    def test_extra_floating_point_fails_uniqueness(self):
        p = one_point()
        res = eps_pushout(identity(p), identity(p), 1)
        padded = coproduct((res.apex, one_point()))
        bad = EpsPushoutResult(
            apex=padded.space,
            leg_f=res.leg_f.then(padded.injections[0]),
            leg_g=res.leg_g.then(padded.injections[0]),
            eps=res.eps,
        )
        report = verify_pushout(bad, identity(p), identity(p),
                                small_targets(bad.apex))
        assert not report.ok
        assert report.counterexample.kind == "uniqueness"

    def test_coproduct_instead_of_gluing_fails_square(self):
        p = one_point()
        f = MetMap(p, two_point(1), (0,))
        g = MetMap(p, two_point(2), (0,))
        cop = coproduct((two_point(1), two_point(2)))
        bad = EpsPushoutResult(
            apex=cop.space,
            leg_g=cop.injections[0],
            leg_f=cop.injections[1],
            eps=rat(1),
        )
        report = verify_pushout(bad, f, g, small_targets())
        assert not report.ok
        assert report.counterexample.kind == "square"
        assert _as_brute(report) == verify_brute(
            cop.space, [m.map for m in cop.injections], rat(1), (f.cod, g.cod),
            [(0, 0, 1, 0)], small_targets())

    def test_overtight_apex_fails_existence(self):
        p = one_point()
        claimed = two_point("1/2")
        bad = EpsPushoutResult(
            apex=claimed,
            leg_g=MetMap(p, claimed, (0,)),
            leg_f=MetMap(p, claimed, (1,)),
            eps=rat(1),
        )
        report = verify_pushout(bad, identity(p), identity(p),
                                small_targets(two_point(1)))
        assert not report.ok
        assert report.counterexample.kind == "existence"

    def test_pushout_legs_outside_the_apex_raise(self):
        p = one_point()
        res = eps_pushout(identity(p), identity(p), 1)
        bad = EpsPushoutResult(one_point(), res.leg_f, res.leg_g, res.eps)
        with pytest.raises(MismatchedEndpoints):
            verify_pushout(bad, identity(p), identity(p), small_targets())

    def test_coequalizer_leg_outside_the_apex_raises(self):
        f = identity(two_point(1))
        res = eps_coequalizer(f, f, 1)
        bad = EpsCoequalizerResult(one_point(), res.leg, res.eps)
        with pytest.raises(MismatchedEndpoints):
            verify_coequalizer(bad, f, f, small_targets())

    @pytest.mark.parametrize("legs", [(identity(two_point(1)),), ()])
    def test_colimit_legs_that_miss_the_apex_raise(self, legs):
        bad = EpsColimitResult(one_point(), legs, rat(1))
        diagram = FinDiagram((two_point(1),), ())
        with pytest.raises(MismatchedEndpoints):
            verify_colimit(bad, diagram, [one_point(), two_point(1)])


def _as_brute(report):
    """A VerifyReport in the shape ``verify_brute`` returns."""
    cx = report.counterexample
    if cx is None:
        return report.ok, report.checked, None, None, None
    return (report.ok, report.checked, cx.kind,
            tuple(m.map for m in cx.cone), tuple(m.map for m in cx.mediators))


def _half(d: ExtRat) -> ExtRat:
    return d if d.is_infinite else ExtRat(d.numerator, 2 * d.denominator)


def _candidates(apex, legs):
    """The claimed apex with its legs, then three corruptions of it: an
    extra point at infinite distance ("floating"), every distance halved
    ("distorted"), and the apex collapsed to one point, which a cocone that
    separates two points pins to two values ("collapsed")."""
    yield "claimed", apex, legs
    padded = coproduct((apex, one_point()))
    yield "floating", padded.space, [leg.then(padded.injections[0]) for leg in legs]
    halved = Space(tuple(tuple(map(_half, row)) for row in apex.dist))
    yield "distorted", halved, [MetMap(leg.dom, halved, leg.map) for leg in legs]
    point = one_point()
    yield "collapsed", point, [MetMap(leg.dom, point, (0,) * leg.dom.n) for leg in legs]


def _check_against_brute(name, claimed, apex, legs, eps, objects, bridges, targets, report):
    got = _as_brute(report)
    assert got == verify_brute(apex, [leg.map for leg in legs], eps, objects, bridges, targets)
    if name == "claimed":
        assert got[0], got
    elif name == "floating":
        assert got[2] == "uniqueness", got
    elif name == "distorted" and claimed in targets and any(
            ZERO < d < INF for row in claimed.dist for d in row):
        # The claimed legs into the claimed apex form a cocone whose only
        # candidate mediator, the identity on points, now expands.
        assert got[2] == "existence", got


def _small(*spaces):
    return [t for t in spaces + (one_point(), two_point(1)) if t.n <= 4]


class TestVerifyMatchesBrute:
    """All three verifiers against ``oracles.verify_brute``: reports,
    counterexamples and mediators, on corpus inputs with at most 4 points
    per object and on three corruptions of each claimed colimit."""

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES))
    def test_pushout(self, seed, eps):
        f, g = random_span(random.Random(seed), CorpusConfig(max_points=4))
        res = eps_pushout(f, g, eps)
        bridges = [(0, f.map[a], 1, g.map[a]) for a in range(f.dom.n)]
        for name, apex, (leg_g, leg_f) in _candidates(res.apex, (res.leg_g, res.leg_f)):
            targets = _small(res.apex, f.cod, g.cod)
            report = verify_pushout(EpsPushoutResult(apex, leg_f, leg_g, res.eps), f, g, targets)
            _check_against_brute(name, res.apex, apex, (leg_g, leg_f), res.eps,
                                 (f.cod, g.cod), bridges, targets, report)

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES))
    def test_coequalizer(self, seed, eps):
        f, g = random_parallel_pair(random.Random(seed), CorpusConfig(max_points=4))
        res = eps_coequalizer(f, g, eps)
        bridges = [(0, f.map[a], 0, g.map[a]) for a in range(f.dom.n)]
        for name, apex, (leg,) in _candidates(res.apex, (res.leg,)):
            targets = _small(res.apex, f.cod)
            report = verify_coequalizer(EpsCoequalizerResult(apex, leg, res.eps), f, g, targets)
            _check_against_brute(name, res.apex, apex, (leg,), res.eps,
                                 (f.cod,), bridges, targets, report)

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES))
    def test_colimit(self, seed, eps):
        rng = random.Random(seed)
        diagram = random_diagram(rng, CorpusConfig(max_points=4))
        while sum(o.n for o in diagram.objects) > 6:
            diagram = random_diagram(rng, CorpusConfig(max_points=4))
        res = eps_colimit(diagram, eps)
        bridges = [(i, x, j, m.map[x]) for i, j, m in diagram.arrows for x in range(m.dom.n)]
        for name, apex, legs in _candidates(res.apex, res.legs):
            targets = _small(res.apex)
            report = verify_colimit(EpsColimitResult(apex, tuple(legs), res.eps), diagram, targets)
            _check_against_brute(name, res.apex, apex, legs, res.eps,
                                 diagram.objects, bridges, targets, report)

    def test_node_charge_with_free_apex_points(self):
        # Two apex points no leg reaches.  Into the point: the two hom-set
        # searches (2 + 3 nodes), one cospan (1) and its mediator search, one
        # node per apex point (7): 13.  Into the path: the hom-set searches
        # (12 + 33), the first cospan (1) and its mediator search, one node
        # per pinned point and 3 + 9 for the free ones (17): 63.  76 in all.
        path = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f = MetMap(one_point(), two_point(1), (0,))
        g = MetMap(one_point(), path, (1,))
        res = eps_pushout(f, g, "1/2")
        padded = coproduct((res.apex, one_point(), one_point()))
        inj = padded.injections[0]
        bad = EpsPushoutResult(padded.space, res.leg_f.then(inj), res.leg_g.then(inj), res.eps)
        targets = [one_point(), path]
        report = verify_pushout(bad, f, g, targets, max_nodes=76)
        assert report.checked == 2
        assert report.counterexample.kind == "uniqueness"
        assert len(report.counterexample.mediators) == 9
        with pytest.raises(BudgetExceeded):
            verify_pushout(bad, f, g, targets, max_nodes=75)

    def test_no_charge_without_candidates(self):
        # Free apex points and an empty target: no candidate image, so the
        # mediator search is not started, and only the one cospan checked
        # is charged.
        e = empty_space()
        f = g = identity(e)
        res = eps_pushout(f, g, 1)
        padded = coproduct((res.apex, one_point()))
        bad = EpsPushoutResult(padded.space, res.leg_f.then(padded.injections[0]),
                               res.leg_g.then(padded.injections[0]), res.eps)
        report = verify_pushout(bad, f, g, [e], max_nodes=1)
        assert (report.checked, report.counterexample.kind) == (1, "existence")
        with pytest.raises(BudgetExceeded):
            verify_pushout(bad, f, g, [e], max_nodes=0)


def _check_charge(verify, apex, legs, eps, objects, bridges, targets):
    """``verify(max_nodes)`` returns ``verify_brute``'s report with exactly
    the nodes ``verify_nodes_brute`` counts, and raises with one fewer."""
    maps = [leg.map for leg in legs]
    charge = verify_nodes_brute(apex, maps, eps, objects, bridges, targets)
    assert _as_brute(verify(charge)) == verify_brute(apex, maps, eps, objects, bridges, targets)
    if charge:
        with pytest.raises(BudgetExceeded):
            verify(charge - 1)


class TestVerifyNodeCharges:
    """The node charges of all three verifiers against
    ``oracles.verify_nodes_brute``, on the inputs and corruptions of
    ``TestVerifyMatchesBrute``: a budget of exactly the charge gives the
    brute-force report, one node less raises."""

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES))
    def test_pushout(self, seed, eps):
        f, g = random_span(random.Random(seed), CorpusConfig(max_points=4))
        res = eps_pushout(f, g, eps)
        bridges = [(0, f.map[a], 1, g.map[a]) for a in range(f.dom.n)]
        targets = _small(res.apex, f.cod, g.cod)
        for _, apex, (leg_g, leg_f) in _candidates(res.apex, (res.leg_g, res.leg_f)):
            claim = EpsPushoutResult(apex, leg_f, leg_g, res.eps)
            _check_charge(lambda n: verify_pushout(claim, f, g, targets, max_nodes=n),
                          apex, (leg_g, leg_f), res.eps, (f.cod, g.cod), bridges, targets)

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES))
    def test_coequalizer(self, seed, eps):
        f, g = random_parallel_pair(random.Random(seed), CorpusConfig(max_points=4))
        res = eps_coequalizer(f, g, eps)
        bridges = [(0, f.map[a], 0, g.map[a]) for a in range(f.dom.n)]
        targets = _small(res.apex, f.cod)
        for _, apex, (leg,) in _candidates(res.apex, (res.leg,)):
            claim = EpsCoequalizerResult(apex, leg, res.eps)
            _check_charge(lambda n: verify_coequalizer(claim, f, g, targets, max_nodes=n),
                          apex, (leg,), res.eps, (f.cod,), bridges, targets)

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.sampled_from(EPS_VALUES))
    def test_colimit(self, seed, eps):
        rng = random.Random(seed)
        diagram = random_diagram(rng, CorpusConfig(max_points=4))
        while sum(o.n for o in diagram.objects) > 6:
            diagram = random_diagram(rng, CorpusConfig(max_points=4))
        res = eps_colimit(diagram, eps)
        bridges = [(i, x, j, m.map[x]) for i, j, m in diagram.arrows for x in range(m.dom.n)]
        targets = _small(res.apex)
        for _, apex, legs in _candidates(res.apex, res.legs):
            claim = EpsColimitResult(apex, tuple(legs), res.eps)
            _check_charge(lambda n: verify_colimit(claim, diagram, targets, max_nodes=n),
                          apex, legs, res.eps, diagram.objects, bridges, targets)

    def test_committed_span(self):
        # The fixture of the CLI and CI, at eps 1/2 into the targets of
        # ``colimit pushout --verify``: 239 cocones checked, with no mediator
        # search as the legs reach every apex point, and 241 nodes of
        # hom-set searches, with cold caches or warm.
        f, g = pair_from_json(read_json(os.path.join(
            os.path.dirname(__file__), "data", "span.json")))
        res = eps_pushout(f, g, "1/2")
        bridges = [(0, f.map[a], 1, g.map[a]) for a in range(f.dom.n)]
        targets = [res.apex, f.cod, g.cod, one_point(), two_point(1)]
        maps = [res.leg_g.map, res.leg_f.map]
        assert verify_nodes_brute(res.apex, maps, res.eps, (f.cod, g.cod),
                                  bridges, targets) == 480
        for warm in (False, True):
            homsearch.clear_caches()
            if warm:
                verify_pushout(res, f, g, targets)
            _check_charge(lambda n: verify_pushout(res, f, g, targets, max_nodes=n),
                          res.apex, (res.leg_g, res.leg_f), res.eps, (f.cod, g.cod),
                          bridges, targets)
