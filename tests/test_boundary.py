"""Every map the library hands out is a valid ``MetMap`` between the right spaces.

Inside the library hom-sets are index tuples, and a ``MetMap`` is built
without validation (``MetMap._trusted``) only where a map is returned.
Each case below collects the maps one public function returns, with the
endpoints it must have; each map must validate again from its own fields.
The spans that ``gather_spans`` builds with ``Span._trusted``, and the
span records of a chain, must equal their rebuild through the public
constructors.
"""

import pytest

from metricat.colimits import EpsPushoutResult, coproduct, eps_pushout, span_presentation
from metricat.extrat import INF, ZERO, rat
from metricat.fraisse import (
    POLICIES, ChainStage, DistanceGrid, Span, SpanRecord, audit_saturation, build_chain,
    catalog_isometries, chain_step, enumerate_spaces, gather_spans,
)
from metricat.injectivity import (
    TestFamily as ProbeFamily, injectivity_defect, is_eps_injective, is_eps_mono, is_eps_split,
    purity,
)
from metricat.spaces import MetMap, empty_space, identity, one_point, two_point, validate_space
from metricat.verify import verify_pushout

from .oracles import gather_spans_brute

# f: two points at 2 -> two points at 1, into K = two points at 2: the
# identity g has no h within less than 2.
CONTRACTION = MetMap(two_point(2), two_point(1), (0, 1))
GAP = two_point(2)
EMPTY, POINT = empty_space(), one_point()


def _defect():
    _, g, h = injectivity_defect(GAP, CONTRACTION)
    return [(g, CONTRACTION.dom, GAP), (h, CONTRACTION.cod, GAP)]


def _defect_without_filler():
    # hom(A, K) holds the empty map, hom(B, K) nothing: no h at all
    f = MetMap(EMPTY, POINT, ())
    defect, g, h = injectivity_defect(EMPTY, f)
    assert (defect, h) == (INF, None)
    return [(g, EMPTY, EMPTY)]


def _defect_without_map():
    defect, g, h = injectivity_defect(EMPTY, identity(POINT))
    assert (defect, g, h) == (ZERO, None, None)
    return []


def _injective():
    ok, g = is_eps_injective(GAP, CONTRACTION, 1)
    assert not ok
    return [(g, CONTRACTION.dom, GAP)]


def _injective_without_filler():
    ok, g = is_eps_injective(EMPTY, MetMap(EMPTY, POINT, ()), INF)
    assert not ok
    return [(g, EMPTY, EMPTY)]


def _split():
    f = MetMap(POINT, two_point(1), (1,))
    ok, p = is_eps_split(f, 0)
    assert ok
    return [(p, f.cod, f.dom)]


def _mono():
    f = MetMap(two_point(1), POINT, (0, 0))
    ok, (C, g, h) = is_eps_mono(f, 0)
    assert not ok
    return [(g, C, f.dom), (h, C, f.dom)]


def _purity():
    # three points in a row at gaps 1 crushed to a point, at eps 1/2
    X = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    f = MetMap(X, POINT, (0, 0, 0))
    ok, square = purity(f, "1/2", "pure", ProbeFamily.of([POINT, GAP, X]))
    assert not ok
    return [(square.u, square.A, X), (square.g, square.A, square.B),
            (square.v, square.B, POINT)]


def _verify_cone():
    # Two apex points that no leg reaches: the counterexample has a cone
    # and nine mediators into the path.
    path = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    f = MetMap(POINT, two_point(1), (0,))
    g = MetMap(POINT, path, (1,))
    res = eps_pushout(f, g, "1/2")
    padded = coproduct((res.apex, POINT, POINT))
    inj = padded.injections[0]
    bad = EpsPushoutResult(padded.space, res.leg_f.then(inj), res.leg_g.then(inj), res.eps)
    cx = verify_pushout(bad, f, g, [POINT, path]).counterexample
    assert (cx.kind, cx.target, len(cx.mediators)) == ("uniqueness", path, 9)
    pieces = span_presentation(f, g).pieces
    return ([(m, o, path) for m, o in zip(cx.cone, pieces, strict=True)]
            + [(m, padded.space, path) for m in cx.mediators])


GRID_1 = DistanceGrid((rat(1),), 2)


def _gather():
    stages, catalog = build_chain(GRID_1, 2)
    space = stages[1].space
    spans, _ = gather_spans(space, catalog.stratum(1), POLICIES["full-all"])
    assert spans
    return [(s.u, s.h.dom, space) for s in spans]


def _audit():
    # the stage's point never gets a neighbour at 1, so the audit objects
    stages, catalog = build_chain(GRID_1, 2)
    k1 = stages[1].space
    floating = Span(MetMap(EMPTY, k1, ()), MetMap(EMPTY, two_point(1), ()))
    k2, k, _ = chain_step(k1, (floating,))
    truncated = (ChainStage(1, k1, k, (), 0, 1, True), ChainStage(2, k2, None, (), 0, 2, True))
    missing = audit_saturation(truncated, catalog).stages[0].missing
    assert any(w.u.dom.n for w in missing)
    return [(w.u, w.h.dom, k1) for w in missing]


def _catalog():
    line = two_point(1)
    catalog = catalog_isometries((POINT, line))
    # one isometry per orbit of the codomain's automorphisms
    return list(zip(catalog.isometries, (POINT, POINT, line), (POINT, line, line), strict=True))


CASES = {
    "injectivity_defect": _defect,
    "injectivity_defect-no-filler": _defect_without_filler,
    "injectivity_defect-no-map": _defect_without_map,
    "is_eps_injective": _injective,
    "is_eps_injective-no-filler": _injective_without_filler,
    "is_eps_split": _split,
    "is_eps_mono": _mono,
    "purity": _purity,
    "verify-cone": _verify_cone,
    "gather_spans": _gather,
    "audit_saturation": _audit,
    "catalog_isometries": _catalog,
}


def _rebuilt(m):
    return MetMap(m.dom, m.cod, m.map)   # validates again


@pytest.mark.parametrize("case", CASES)
def test_maps_leaving_the_library_are_valid(case):
    for m, dom, cod in CASES[case]():
        assert (m.dom, m.cod) == (dom, cod)
        assert _rebuilt(m) == m


GRID_12 = DistanceGrid((rat(1), rat(2)), 3)


@pytest.fixture(scope="module")
def stage_3():
    """The 133-point last stage of the 3-step chain of ``GRID_12``, glued
    from the oracle's spans: a fault of ``gather_spans`` then fails the
    test below, not this fixture."""
    catalog = catalog_isometries(enumerate_spaces(GRID_12), max_size=3)
    space = empty_space()
    for n in range(3):
        spans, _ = gather_spans_brute(space, catalog.stratum(n), POLICIES["iso-skip"])
        space, _, _ = chain_step(space, spans)
    assert space.n == 133
    return space, catalog


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_gathered_spans_equal_their_public_rebuild(stage_3, policy):
    space, catalog = stage_3
    stratum = catalog.stratum(3)
    spans, _ = gather_spans(space, stratum, POLICIES[policy])
    assert spans
    isometries = set(stratum)
    for s in spans:
        assert (s.u.dom, s.u.cod) == (s.h.dom, space)
        assert s.h in isometries
        assert Span(_rebuilt(s.u), _rebuilt(s.h)) == s


def test_chain_span_records_equal_their_public_rebuild():
    stages, _ = build_chain(GRID_12, 3)
    assert [len(stage.span_log) for stage in stages] == [1, 4, 76, 0]
    for stage, nxt in zip(stages, stages[1:]):
        for record in stage.span_log:
            u, h, copy = record.span.u, record.span.h, record.copy
            assert (u.dom, u.cod, copy.dom, copy.cod) == (h.dom, stage.space, h.cod, nxt.space)
            assert SpanRecord(Span(_rebuilt(u), _rebuilt(h)), _rebuilt(copy)) == record
