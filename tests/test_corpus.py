import random

import pytest

from metricat import corpus
from metricat.corpus import CorpusConfig, random_space
from metricat.errors import SpaceValidationError
from metricat.extrat import INF, ZERO, rat

from .oracles import random_space_brute

SPREAD = (rat(1), rat(10), rat(100), rat(1000))  # mostly breaks the triangle


class CountingRandom(random.Random):
    choices = 0

    def choice(self, seq):
        self.choices += 1
        return super().choice(seq)


def _draws(seed, cfg, count, **kw):
    """``count`` draws from both samplers, each from its own RNG of ``seed``;
    asserts equal spaces and equal RNG states after every draw."""
    fast, brute = random.Random(seed), random.Random(seed)
    out = []
    for _ in range(count):
        got = random_space(fast, cfg, **kw)
        want = random_space_brute(brute, cfg, **kw)
        assert (got.dist, got.labels) == (want.dist, want.labels)
        assert fast.getstate() == brute.getstate()
        out.append(got)
    return out


class TestRandomSpace:
    @pytest.mark.parametrize("cfg, kw", [
        *((CorpusConfig(max_points=m), {}) for m in range(1, 5)),
        *((CorpusConfig(max_points=m, allow_empty=True), {}) for m in range(0, 5)),
        (CorpusConfig(max_points=4), {"min_points": 3}),
        (CorpusConfig(max_points=2, allow_empty=True), {"min_points": 0}),
        (CorpusConfig(max_points=3, grid=(rat(1), rat(2), rat(5), INF)), {}),
    ])
    def test_agrees_with_the_plain_draw_loop(self, cfg, kw):
        for seed in range(40):
            _draws(seed, cfg, 10, **kw)

    def test_the_all_equal_fallback_agrees(self):
        cfg = CorpusConfig(max_points=5, grid=SPREAD)
        rng = CountingRandom(0)
        random_space(rng, cfg, min_points=5)
        assert rng.choices == 200 * 10 + 1       # every draw of 10 values failed
        (space,) = _draws(0, cfg, 1, min_points=5)
        assert len({space.d(i, j) for i in range(5) for j in range(5) if i != j}) == 1

    def test_a_zero_grid_value_is_rejected_by_both(self):
        cfg = CorpusConfig(max_points=2, grid=(ZERO,))
        fast, brute = random.Random(1), random.Random(1)
        with pytest.raises(SpaceValidationError):
            random_space(fast, cfg, min_points=2)
        with pytest.raises(SpaceValidationError):
            random_space_brute(brute, cfg, min_points=2)
        assert fast.getstate() == brute.getstate()

    def test_equal_draws_are_one_space(self):
        corpus._grid_space.cache_clear()
        draws = _draws(5, CorpusConfig(max_points=3, allow_empty=True), 200)
        # nothing was evicted, so every repeat is a memo hit
        info = corpus._grid_space.cache_info()
        assert info.currsize < info.maxsize
        first = {}
        for space in draws:
            assert first.setdefault(space, space) is space
        assert len(first) < len(draws)
