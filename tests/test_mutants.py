import pytest

from .mutants import BUDGETS, MUTANTS, Mutant, _mutated, check, outcome

SPEND_TEST = "tests/test_homsearch.py::TestSearchKernel::test_spend_each_stops_counting_at_the_limit"


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    # raises unless the snippet is in its file exactly once, so a refactor
    # that moves one fails here, not only in the mutation step
    _mutated(mutant)
    assert mutant.selection or mutant.equivalent


@pytest.mark.parametrize("code, summary, expected", [
    (0, "", "survived"),
    (1, "FAILED tests/t.py::test_a - AssertionError: assert 1 == 2", "killed"),
    (1, "FAILED tests/t.py::test_a - metricat.errors.BudgetExceeded: search spent 6 nodes",
     "killed"),
    (1, "FAILED tests/t.py::test_a - Failed: DID NOT RAISE <class 'ValueError'>", "killed"),
    (1, "FAILED tests/t.py::test_a - NameError: name 'x' is not defined", "broken"),
    (1, "FAILED tests/t.py::test_a - UnboundLocalError: cannot access local variable 'x'",
     "broken"),
    (1, "FAILED tests/t.py::test_a - ModuleNotFoundError: No module named 'y'", "broken"),
    (1, "FAILED tests/t.py::test_a - SyntaxError: invalid syntax", "broken"),
    (1, "FAILED tests/t.py::test_a - NameError: name 'x'\n"
        "FAILED tests/t.py::test_b - AssertionError", "killed"),
    (1, "FAILED tests/t.py::test_a", "broken"),     # no exception named
    (1, "", "broken"),
    (2, "FAILED tests/t.py::test_a - AssertionError", "broken"),
    (4, "", "broken"),
])
def test_a_kill_needs_a_failure_the_code_can_reach(code, summary, expected):
    # A mutant counts as killed only when the selection fails on something
    # other than a missing name, a failed import or a syntax error.
    assert outcome(code, summary) == expected


@pytest.mark.parametrize("replacement, expected", [
    ("self.used += n", "killed"),                    # an assertion fails
    ("self.used += undefined_count", "broken"),      # a NameError fails
])
def test_the_runner_reads_pytest_summaries(replacement, expected):
    # A real run of the runner on a one-test selection.
    mutant = Mutant("spend-each", BUDGETS, "self.used = max(self.used, self.limit) + 1",
                    replacement, (SPEND_TEST,))
    assert check(mutant) == expected
