import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricat.corpus import CorpusConfig, random_space
from metricat.errors import (
    InvalidMorphism,
    MismatchedEndpoints,
    SizeOverflow,
    SpaceValidationError,
    Violation,
)
from metricat.extrat import INF, ZERO, rat
from metricat import spaces
from metricat.homsearch import automorphisms, hom_set, isometry_set
from metricat.reflect import Semimetric, reflect
from metricat.serialization import space_from_json, space_to_json
from metricat.spaces import (
    MetMap,
    Space,
    _axiom_violations,
    compose,
    coproduct,
    empty_space,
    hom_dist,
    identity,
    is_eps_homotopic,
    is_isometry,
    one_point,
    product,
    subspace,
    two_point,
    validate_space,
)

from .oracles import axiom_violations_brute

AXIOM_VALUES = tuple(rat(v) for v in ("1/2", "1", "3/2", "5/3", "2", "7")) + (INF,)


@st.composite
def distance_matrices(draw):
    """Symmetric matrices over AXIOM_VALUES, some closed into metrics, some
    with one entry overwritten (possibly breaking symmetry or the diagonal)."""
    n = draw(st.integers(0, 7))
    dist = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(st.sampled_from(AXIOM_VALUES))
    if draw(st.booleans()):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        dist[i][j] = draw(st.sampled_from((ZERO,) + AXIOM_VALUES))
    return tuple(tuple(row) for row in dist)


def seeded_spaces(count, seed, max_points=3):
    rng = random.Random(seed)
    cfg = CorpusConfig(max_points=max_points)
    return [random_space(rng, cfg) for _ in range(count)]


class TestValidation:
    def test_valid_two_point(self):
        sp = validate_space([[0, 1], [1, 0]])
        assert sp.n == 2
        assert sp.d(0, 1) == rat(1)

    def test_triangle_violation_reported(self):
        with pytest.raises(SpaceValidationError) as err:
            validate_space([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        kinds = [(v.kind, v.indices) for v in err.value.violations]
        assert ("TriangleViolation", (0, 2, 1)) in kinds

    def test_infinite_distances_are_legal(self):
        sp = validate_space([["0", "inf"], ["inf", "0"]])
        assert sp.d(0, 1) is INF

    def test_all_violations_collected(self):
        with pytest.raises(SpaceValidationError) as err:
            validate_space([[1, 2], [3, 0]])
        kinds = {v.kind for v in err.value.violations}
        assert "NonZeroDiagonal" in kinds
        assert "Asymmetric" in kinds

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(SpaceValidationError) as err:
            validate_space([[0, 0], [0, 0]])
        assert {v.kind for v in err.value.violations} == {"ZeroOffDiagonal"}

    def test_ragged_matrix_rejected(self):
        with pytest.raises(SpaceValidationError) as err:
            validate_space([[0, 1], [1, 0, 2]])
        assert {v.kind for v in err.value.violations} == {"NotSquare"}

    def test_labels_kept(self):
        sp = validate_space([[0, 1], [1, 0]], labels=("a", "b"))
        assert sp.labels == ("a", "b")

    def test_label_count_must_match(self):
        with pytest.raises(SpaceValidationError):
            Space(((ZERO,),), ("a", "b"))
        with pytest.raises(SpaceValidationError) as err:
            validate_space([[0]], labels=("a", "b"))
        assert err.value.violations == (Violation("NotSquare", (2,)),)

    def test_each_space_is_checked_once(self, monkeypatch):
        calls = []

        def counted(dist, **kw):
            calls.append(kw)
            return _axiom_violations(dist, **kw)

        monkeypatch.setattr(spaces, "_axiom_violations", counted)
        validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        space_from_json({"points": 2, "dist": [["0", "1"], ["1", "0"]]})
        assert calls == [{"full": True}, {"full": True}]

    def test_small_constructors(self):
        assert empty_space().n == 0
        assert one_point().n == 1
        assert two_point(1).d(0, 1) == rat(1)
        # degenerate tolerance folds the two points together
        assert two_point(0).n == 1


class TestMetMap:
    def test_identity(self):
        sp = two_point(1)
        assert identity(sp).map == (0, 1)

    def test_expansion_rejected(self):
        with pytest.raises(InvalidMorphism):
            MetMap(two_point(1), two_point(2), (0, 1))

    def test_contraction_allowed(self):
        m = MetMap(two_point(2), two_point(1), (0, 1))
        assert m(0) == 0 and m(1) == 1

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidMorphism):
            MetMap(two_point(1), one_point(), (0,))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidMorphism):
            MetMap(one_point(), one_point(), (1,))

    def test_composition(self):
        f = MetMap(two_point(2), two_point(1), (0, 1))
        g = MetMap(two_point(1), one_point(), (0, 0))
        assert f.then(g).map == (0, 0)
        assert compose(g, f).map == (0, 0)

    def test_composition_needs_matching_endpoints(self):
        f = identity(two_point(1))
        g = identity(two_point(2))
        with pytest.raises(MismatchedEndpoints):
            f.then(g)


class TestCaches:
    def test_warm_space_survives_pickle_and_deepcopy(self):
        sp = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]], labels=("a", "b", "c"))
        flip = automorphisms(sp)[-1]  # fills the rank table and the ball masks
        key = hash(sp)
        assert pickle.dumps(sp) == pickle.dumps(Space(sp.dist, sp.labels))
        for clone in (pickle.loads(pickle.dumps(sp)), copy.deepcopy(sp)):
            assert clone == sp
            assert hash(clone) == key
            assert clone.ranks() == sp.ranks()
            assert clone.balls() == sp.balls()
        assert pickle.loads(pickle.dumps(flip)) == flip
        assert copy.deepcopy(flip) == flip

    def test_rank_table_and_spheres(self):
        sp = validate_space([[0, 2, "inf"], [2, 0, "inf"], ["inf", "inf", 0]])
        values, rank = sp.ranks()
        assert values == (ZERO, rat(2), INF)
        assert tuple(rank) == (0, 1, 2, 1, 0, 2, 2, 2, 0)
        # From point 2: {2} at rank 0, nothing new at rank 1, {0, 1} at rank 2.
        assert tuple(sp.balls()[2]) == (0b100, 0b100, 0b111)

    @pytest.mark.parametrize("count", [256, 257])
    def test_rank_table_is_bytes_up_to_256_values(self, count):
        # 24 points, the k-th pair at 1000 + min(k, count - 2): two distances
        # always sum past a third, so this is a space with count values, zero
        # included.
        rows = [[ZERO] * 24 for _ in range(24)]
        for k, (i, j) in enumerate(itertools.combinations(range(24), 2)):
            rows[i][j] = rows[j][i] = rat(1000 + min(k, count - 2))
        dist = tuple(map(tuple, rows))
        sp = Space(dist)
        same = (validate_space(dist), space_from_json(space_to_json(sp)),
                reflect(Semimetric(dist)).space, pickle.loads(pickle.dumps(sp)))
        values, rank = sp.ranks()
        assert (len(values), type(rank)) == (count, bytes if count <= 256 else tuple)
        for other in same:
            assert other == sp and hash(other) == hash(sp)
            assert other.ranks() == (values, rank) and other.dist == dist
        # d(0, p) names each point p, so the identity is the only isometry.
        assert [m.map for m in isometry_set(sp, same[2])] == [tuple(range(24))]


class TestHomDist:
    def test_equal_maps(self):
        f = identity(two_point(1))
        assert hom_dist(f, f) == ZERO

    def test_two_constants(self):
        t = two_point("3/2")
        f = MetMap(one_point(), t, (0,))
        g = MetMap(one_point(), t, (1,))
        assert hom_dist(f, g) == rat("3/2")

    def test_empty_domain(self):
        e = empty_space()
        f = MetMap(e, two_point(1), ())
        assert hom_dist(f, f) == ZERO

    def test_needs_parallel_maps(self):
        f = MetMap(one_point(), two_point(1), (0,))
        g = identity(one_point())
        with pytest.raises(MismatchedEndpoints):
            hom_dist(f, g)

    def test_homotopy_threshold(self):
        t = two_point(2)
        f = MetMap(one_point(), t, (0,))
        g = MetMap(one_point(), t, (1,))
        assert not is_eps_homotopic(f, g, 1)
        assert is_eps_homotopic(f, g, 2)
        assert is_eps_homotopic(f, g, INF)

    def test_enrichment_composition_bound(self):
        # postcomposition never expands the hom distance
        rng = random.Random(11)
        cfg = CorpusConfig(max_points=3)
        for _ in range(40):
            A = random_space(rng, cfg)
            B = random_space(rng, cfg)
            C = random_space(rng, cfg)
            ab = hom_set(A, B)
            bc = hom_set(B, C)
            if not ab or not bc:
                continue
            f = ab[rng.randrange(len(ab))]
            g = ab[rng.randrange(len(ab))]
            h = bc[rng.randrange(len(bc))]
            assert hom_dist(f.then(h), g.then(h)) <= hom_dist(f, g)

    def test_homotopy_triangle(self):
        rng = random.Random(12)
        cfg = CorpusConfig(max_points=3)
        for _ in range(40):
            A = random_space(rng, cfg)
            B = random_space(rng, cfg)
            maps = hom_set(A, B)
            if len(maps) < 3:
                continue
            f, g, h = (maps[rng.randrange(len(maps))] for _ in range(3))
            assert hom_dist(f, h) <= hom_dist(f, g) + hom_dist(g, h)


class TestIsometry:
    def test_identity_is_isometry(self):
        assert is_isometry(identity(two_point(1)))

    def test_collapse_is_not(self):
        assert not is_isometry(MetMap(two_point(1), one_point(), (0, 0)))

    def test_subspace_inclusion(self):
        sp = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        sub, incl = subspace(sp, (0, 2))
        assert sub.d(0, 1) == rat(2)
        assert is_isometry(incl)


class TestCoproduct:
    def test_two_points(self):
        res = coproduct((one_point(), one_point()))
        assert res.space.n == 2
        assert res.space.d(0, 1) is INF

    def test_empty_family(self):
        assert coproduct(()).space.n == 0

    def test_blocks_keep_their_metric(self):
        res = coproduct((two_point(1), one_point()))
        assert res.space.n == 3
        assert res.space.d(0, 1) == rat(1)
        assert res.space.d(0, 2) is INF
        assert all(is_isometry(inj) for inj in res.injections)

    def test_universal_property(self):
        # every pair of maps out factors uniquely through the injections
        rng = random.Random(13)
        cfg = CorpusConfig(max_points=2)
        for _ in range(20):
            B = random_space(rng, cfg)
            C = random_space(rng, cfg)
            T = random_space(rng, CorpusConfig(max_points=3))
            res = coproduct((B, C))
            for f in hom_set(B, T):
                for g in hom_set(C, T):
                    mediators = [
                        m for m in hom_set(res.space, T)
                        if res.injections[0].then(m).map == f.map
                        and res.injections[1].then(m).map == g.map
                    ]
                    assert len(mediators) == 1


class TestProduct:
    def test_pair_uses_max_metric(self):
        res = product((two_point(1), two_point(2)))
        assert res.space.n == 4
        p, q = res.point((0, 0)), res.point((1, 1))
        assert res.space.d(p, q) == rat(2)

    def test_empty_product_is_point(self):
        assert product(()).space.n == 1

    def test_projections_recover_coordinates(self):
        res = product((two_point(1), two_point(2)))
        for c in ((0, 0), (0, 1), (1, 0), (1, 1)):
            p = res.point(c)
            assert (res.projections[0](p), res.projections[1](p)) == c

    def test_size_budget(self):
        with pytest.raises(SizeOverflow):
            product((two_point(1),) * 3, max_points=7)

    def test_universal_property(self):
        rng = random.Random(14)
        cfg = CorpusConfig(max_points=2)
        for _ in range(20):
            B = random_space(rng, cfg)
            C = random_space(rng, cfg)
            A = random_space(rng, cfg)
            res = product((B, C))
            for f in hom_set(A, B):
                for g in hom_set(A, C):
                    mediators = [
                        m for m in hom_set(A, res.space)
                        if m.then(res.projections[0]).map == f.map
                        and m.then(res.projections[1]).map == g.map
                    ]
                    assert len(mediators) == 1


class TestSpaceProperties:
    @given(st.integers(0, 2**30))
    def test_seeded_spaces_satisfy_axioms(self, seed):
        rng = random.Random(seed)
        sp = random_space(rng, CorpusConfig(max_points=4))
        sp.assert_metric()

    @settings(max_examples=400)
    @given(distance_matrices())
    def test_axiom_violations_match_the_triple_loop(self, dist):
        want = axiom_violations_brute(dist)
        assert _axiom_violations(dist) == want
        # The constructor raises the cheap kinds and leaves the triangle.
        cheap = tuple(v for v in want if v.kind != "TriangleViolation")
        if cheap:
            with pytest.raises(SpaceValidationError) as err:
                Space(dist)
            assert err.value.violations == cheap
        else:
            Space(dist)

    def test_spaces_hash_by_value(self):
        a = validate_space([[0, 1], [1, 0]])
        b = validate_space([[0, 1], [1, 0]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.relabel(("x", "y"))
