import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricat.corpus import random_semimetric
from metricat.errors import SpaceValidationError
from metricat.extrat import INF, ZERO, ExtRat, integer_matrix, rat
from metricat.fraisse import DistanceGrid, build_chain
from metricat.reflect import Semimetric, reflect, semimetric_of, semimetric_of_space
from metricat.spaces import Space, validate_space

from .oracles import (
    floyd_warshall_brute,
    random_symmetric_matrix,
    rat_grid,
    simple_path_closure,
    simple_path_closure_exhaustive,
)


class TestSemimetric:
    def test_accepts_triangle_violations(self):
        sm = semimetric_of([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert sm.n == 3

    def test_rejects_asymmetry(self):
        with pytest.raises(SpaceValidationError):
            semimetric_of([[0, 1], [2, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(SpaceValidationError):
            semimetric_of([[1]])

    def test_accepts_zero_gaps(self):
        assert semimetric_of([[0, 0], [0, 0]]).n == 2


class TestReflect:
    def test_metric_input_unchanged(self):
        sp = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        refl = reflect(semimetric_of_space(sp))
        assert refl.space == sp
        assert refl.projection == (0, 1, 2)

    def test_chain_shortcut(self):
        refl = reflect(semimetric_of([[0, 1, 5], [1, 0, 1], [5, 1, 0]]))
        assert refl.space.d(0, 2) == rat(2)

    def test_zero_gap_collapses(self):
        refl = reflect(semimetric_of([[0, 0, 1], [0, 0, 2], [1, 2, 0]]))
        assert refl.space.n == 2
        assert refl.projection == (0, 0, 1)
        # the merged class keeps the shorter distance out
        assert refl.space.d(0, 1) == rat(1)

    def test_infinite_entries_stay_disconnected(self):
        refl = reflect(semimetric_of([["0", "inf"], ["inf", "0"]]))
        assert refl.space.d(0, 1) is INF

    def test_fractional_exactness(self):
        refl = reflect(semimetric_of([
            ["0", "1/3", "1"],
            ["1/3", "0", "1/2"],
            ["1", "1/2", "0"],
        ]))
        assert refl.space.d(0, 2) == rat("5/6")

    def test_empty_input(self):
        refl = reflect(Semimetric(()))
        assert refl.space.n == 0
        assert refl.projection == ()

    def test_projection_is_nonexpansive_from_input(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 5)
            sm = random_semimetric(rng, n, rat_grid())
            refl = reflect(sm)
            rd = refl.space.dist
            for i in range(n):
                for j in range(n):
                    assert rd[refl.projection[i]][refl.projection[j]] <= sm.dist[i][j]

    @given(st.integers(0, 2**30), st.integers(1, 5))
    def test_idempotent(self, seed, n):
        sm = random_semimetric(random.Random(seed), n, rat_grid())
        once = reflect(sm)
        twice = reflect(semimetric_of_space(once.space))
        assert twice.space == once.space

    @given(st.integers(0, 2**30), st.integers(1, 5))
    def test_agrees_with_simple_path_oracle(self, seed, n):
        sm = random_semimetric(random.Random(seed), n, rat_grid())
        refl = reflect(sm)
        closed = simple_path_closure([list(row) for row in sm.dist])
        # fold the oracle matrix by the projection and compare entrywise
        for i in range(n):
            for j in range(n):
                assert refl.space.d(refl.projection[i], refl.projection[j]) == closed[i][j]

    def test_monotone_in_the_input(self):
        # raising entries never lowers any reflected distance
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 5)
            sm = random_semimetric(rng, n, rat_grid())
            rows = [list(row) for row in sm.dist]
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            rows[i][j] = rows[j][i] = rows[i][j] + rat(1)
            raised = reflect(Semimetric(tuple(tuple(r) for r in rows)))
            base = reflect(sm)
            for a in range(n):
                for b in range(n):
                    da = base.space.d(base.projection[a], base.projection[b])
                    db = raised.space.d(raised.projection[a], raised.projection[b])
                    assert da <= db


# ``metricat.reflect`` is the function; the module holds the closure.
_shortest_paths = sys.modules["metricat.reflect"]._shortest_paths

PIECE_VALUES = tuple(rat(v) for v in ("1/3", "1/2", "1", "3/2", "2", "5")) + (INF,)
BRIDGE_VALUES = tuple(rat(v) for v in ("0", "0", "1/4", "1", "3"))


def _bridged_coproduct(rng, pieces):
    """Pieces of 1-3 points at INF from each other, joined by a few bridges:
    the shape of a chain step's presentation, with fractions, zero bridges
    and INF entries inside the pieces."""
    sizes = [rng.randint(1, 3) for _ in range(pieces)]
    n = sum(sizes)
    rows = [[INF] * n for _ in range(n)]
    start = 0
    for size in sizes:
        block = random_symmetric_matrix(rng, size, PIECE_VALUES)
        for i in range(size):
            rows[start + i][start:start + size] = block[i]
        start += size
    for _ in range(rng.randint(0, 4) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = min(rows[i][j], rng.choice(BRIDGE_VALUES))
    return rows


def _assert_built_as_validated(space):
    """A reflected space meets every axiom, and its rank table (filled when
    it was built), ball masks, hash and equality are those of its matrix
    checked and built by ``Space._validated``."""
    space.assert_metric()
    plain = Space._validated(space.dist)
    assert space.ranks() == plain.ranks()
    assert space.balls() == plain.balls()
    assert hash(space) == hash(plain)
    assert space == plain


class TestClosureOracle:
    @settings(max_examples=200)
    @given(st.integers(0, 2**30), st.integers(0, 4))
    def test_sparsest_first_closure_matches_natural_order(self, seed, pieces):
        rows = _bridged_coproduct(random.Random(seed), pieces)
        n = len(rows)
        want = floyd_warshall_brute(rows)
        m, scale, inf = _shortest_paths(rows)
        assert (scale, inf) == integer_matrix(rows)[1:]
        assert [[INF if v >= inf else ExtRat(v, scale) for v in row] for row in m] == want
        if n <= 6:
            assert want == simple_path_closure(rows)
        refl = reflect(Semimetric(tuple(map(tuple, rows))))
        # classes are numbered in the order of their least members
        least = [[d == ZERO for d in row].index(True) for row in want]
        labels = {}
        proj = refl.projection
        assert proj == tuple(labels.setdefault(r, len(labels)) for r in least)
        for i in range(n):
            for j in range(n):
                assert refl.space.d(proj[i], proj[j]) == want[i][j]
        assert all(x is INF for row in refl.space.dist for x in row if x == INF)
        _assert_built_as_validated(refl.space)

    def test_more_than_256_distances_rank_as_a_tuple(self):
        # 24 points, each pair at its own distance between 1000 and 1300,
        # and one more point at INF from them: 278 distinct values
        rows = [[INF] * 25 for _ in range(25)]
        for k, (i, j) in enumerate((i, j) for i in range(24) for j in range(i, 24)):
            rows[i][j] = rows[j][i] = rat(1000 + k) if i != j else ZERO
        rows[24][24] = ZERO
        refl = reflect(Semimetric(tuple(map(tuple, rows))))
        values, rank = refl.space.ranks()
        assert (len(values), type(rank), values[-1]) == (278, tuple, INF)
        _assert_built_as_validated(refl.space)

    def test_chain_stages_are_built_as_validated(self):
        stages, _ = build_chain(DistanceGrid((rat(1), rat(2)), 3), 3)
        assert [stage.space.n for stage in stages] == [0, 1, 7, 133]
        for stage in stages:
            _assert_built_as_validated(stage.space)


class TestSimplePathOracle:
    @settings(max_examples=60)
    @given(st.integers(0, 2**30), st.integers(0, 6))
    def test_pruned_walk_matches_the_permutation_sweep(self, seed, n):
        # zero gaps included: pruning must hold for every nonnegative weight
        matrix = random_symmetric_matrix(random.Random(seed), n, rat_grid() + (ZERO,))
        assert simple_path_closure(matrix) == simple_path_closure_exhaustive(matrix)
