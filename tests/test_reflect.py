import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricat.corpus import random_semimetric
from metricat.errors import SpaceValidationError
from metricat.extrat import INF, ZERO, rat
from metricat.reflect import Semimetric, reflect, semimetric_of, semimetric_of_space
from metricat.spaces import validate_space

from .oracles import (
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


class TestSimplePathOracle:
    @settings(max_examples=60)
    @given(st.integers(0, 2**30), st.integers(0, 6))
    def test_pruned_walk_matches_the_permutation_sweep(self, seed, n):
        # zero gaps included: pruning must hold for every nonnegative weight
        matrix = random_symmetric_matrix(random.Random(seed), n, rat_grid() + (ZERO,))
        assert simple_path_closure(matrix) == simple_path_closure_exhaustive(matrix)
