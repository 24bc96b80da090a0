import pytest

from .mutants import MUTANTS, _mutated


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    # raises unless the snippet is in its file exactly once, so a refactor
    # that moves one fails here, not only in the mutation step
    _mutated(mutant)
    assert mutant.selection or mutant.equivalent
