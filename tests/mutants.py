"""A catalog of mutants and the runner that checks the tests kill them.

Each mutant replaces one exact snippet of a source file and names the test
selection that must fail on the result.  The runner copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory per mutant,
applies the mutant there and runs its selection, ``WORKERS`` mutants at a
time; it prints the results in catalog order.  A mutant is killed when
pytest exits 1 and its ``-rf`` summary names a failure other than a
``NameError``, ``ImportError`` or ``SyntaxError``: a replacement that
breaks the code's names, imports or syntax fails every test and shows
nothing, so it is reported as broken.  The runner exits 1 when a mutant
survives or is broken, or when a snippet does not occur exactly once in its
file (a refactor must update the catalog on purpose), and 0 when every
mutant not listed as equivalent is killed.  Equivalent mutants are checked
to match, and are not run.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKERS = 2   # mutants checked at once, each in its own pytest process


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str          # relative to the repository root
    snippet: str       # must occur exactly once in the file
    replacement: str
    selection: tuple[str, ...] = ()   # pytest node ids that must fail
    equivalent: str = ""              # why no test can tell it apart


INJ = "src/metricat/injectivity.py"
INJ_TESTS = "tests/test_injectivity.py"
SPLIT_BRUTE = f"{INJ_TESTS}::TestAgainstOracles::test_is_eps_split"
DEFECT_BRUTE = f"{INJ_TESTS}::TestAgainstOracles::test_injectivity_defect"
KERNEL = "src/metricat/homsearch.py"
KERNEL_BRUTE = "tests/test_homsearch.py::TestSearchKernel::test_agrees_with_the_per_candidate_search"
CLOSURE = "src/metricat/reflect.py"
CLOSURE_BRUTE = "tests/test_reflect.py::TestClosureOracle"
BUDGETS = "src/metricat/budgets.py"
FRAISSE = "src/metricat/fraisse.py"
PLAN_TESTS = "tests/test_fraisse.py::TestFillerPlan"
GATHER_TESTS = "tests/test_fraisse.py::TestGatherSpans"
PROJECT_TEST = "tests/test_fraisse.py::test_project_matches_the_plain_tuple"
VERIFY = "src/metricat/verify.py"
VERIFY_TESTS = "tests/test_colimits.py::TestVerify"
VERIFY_BRUTE = "tests/test_colimits.py::TestVerifyMatchesBrute"
VERIFY_NODES = "tests/test_colimits.py::TestVerifyNodeCharges"
BOUNDARY = "tests/test_boundary.py::test_maps_leaving_the_library_are_valid"
SPAN_REBUILD = "tests/test_boundary.py::test_gathered_spans_equal_their_public_rebuild"
# Exceptions (and their subclasses) that a broken replacement raises.
BROKEN_BY = frozenset({"NameError", "UnboundLocalError", "ImportError", "ModuleNotFoundError",
                       "SyntaxError", "IndentationError", "TabError"})

MUTANTS = (
    Mutant("closest-ties-take-the-last", INJ,
           "        if d < best:\n            best, closest = d, m\n",
           "        if d <= best:\n            best, closest = d, m\n",
           (SPLIT_BRUTE, DEFECT_BRUTE)),
    Mutant("closest-no-stop-at-zero", INJ,
           "            if not d:\n                break\n    return best, closest, tried\n",
           "    return best, closest, tried\n",
           (SPLIT_BRUTE, f"{INJ_TESTS}::TestEpsSplit")),
    Mutant("closest-tried-off-by-one", INJ,
           "    for tried, m in enumerate(maps, 1):\n",
           "    for tried, m in enumerate(maps):\n",
           (SPLIT_BRUTE, f"{INJ_TESTS}::TestEpsSplit")),
    Mutant("defect-bound-past-infinity", INJ,
           "                                  rank, top)\n",
           "                                  rank, top + 1)\n",
           (f"{INJ_TESTS}::TestEpsInjective", DEFECT_BRUTE)),
    Mutant("defect-bound-below-infinity", INJ,
           "                                  rank, top)\n",
           "                                  rank, top - 1)\n",
           (f"{INJ_TESTS}::TestEpsInjective", DEFECT_BRUTE)),
    Mutant("split-bound-below-infinity", INJ,
           "                              rank, len(values))\n",
           "                              rank, len(values) - 1)\n",
           (f"{INJ_TESTS}::TestEpsSplit", SPLIT_BRUTE)),
    Mutant("purity-no-filler-not-infinite", INJ,
           "INF if t is None else kvalues[best]",
           "INF if t is not None else kvalues[best]",
           (f"{INJ_TESTS}::TestPurity", f"{INJ_TESTS}::TestAgainstOracles::test_purity")),
    Mutant("catalog-ignores-max-nodes", FRAISSE,
           "    budget = NodeBudget.of(max_nodes)\n    spaces = tuple(spaces)\n",
           "    budget = NodeBudget()\n    spaces = tuple(spaces)\n",
           ("tests/test_cli.py::TestFraisseCommands::test_chain_node_charges_are_pinned",)),
    Mutant("coequalizer-keeps-g-codomain", "src/metricat/cli.py",
           "        g = MetMap(g.dom, f.cod, g.map)\n",
           "        pass\n",
           ("tests/test_cli.py::TestColimitCommands::test_coequalizer_takes_f_codomain_labels",)),
    Mutant("load-chain-takes-no-stages", "src/metricat/rundir.py",
           "    if not sizes:\n",
           "    if sizes is None:\n",
           ("tests/test_cli.py::TestRunDirectoryErrors::test_schema_error_names_its_pointer",)),
    Mutant("kernel-popcount-off-by-one", KERNEL,
           "below = tried[i] & ((low << 1) - 1)",
           "below = tried[i] & (low - 1)",
           (KERNEL_BRUTE,)),
    Mutant("kernel-ball-for-sphere", KERNEL,
           "a &= (b[r] ^ b[r - 1] if r else b[0]) if exact else b[r]",
           "a &= b[r]",
           (KERNEL_BRUTE,)),
    Mutant("kernel-highest-bit-first", KERNEL,
           "low = a & -a",
           "low = 1 << (a.bit_length() - 1)",
           (KERNEL_BRUTE,)),
    Mutant("kernel-no-trailing-charge", KERNEL,
           "                if tried[i]:\n                    spend(tried[i].bit_count())\n",
           "",
           (KERNEL_BRUTE,)),
    Mutant("spend-each-unclamped", BUDGETS,
           "self.used = max(self.used, self.limit) + 1",
           "self.used += n",
           (KERNEL_BRUTE,)),
    Mutant("closure-stale-neighbourhoods", CLOSURE,
           "near = list(compress(range(n), map(sentinel.__gt__, mk)))",
           "near = [j for j, x in enumerate(dist[k]) if x != INF]",   # as read before closing
           (CLOSURE_BRUTE,)),
    Mutant("closure-one-sided-write", CLOSURE,
           "                    m[j][i] = alt\n",
           "",
           (CLOSURE_BRUTE,)),
    Mutant("reflect-ranks-unsorted", CLOSURE,
           "ints = sorted(set(chain.from_iterable(rows)))",
           "ints = list(set(chain.from_iterable(rows)))",
           (CLOSURE_BRUTE,)),
    Mutant("reflect-sentinel-finite", CLOSURE,   # the sentinel read as a distance
           "finite = bisect_left(ints, sentinel)",
           "finite = len(ints)",
           (CLOSURE_BRUTE,)),
    Mutant("budget-reads-the-environment", BUDGETS,
           "self.limit = DEFAULT_NODE_BUDGET if limit is None else limit",
           "self.limit = node_ceiling(limit)",
           ("tests/test_cli.py::TestCommandContract::test_only_the_command_line_reads_the_node_cap",)),
    Mutant("memo-evicts-late", BUDGETS,
           "if len(memo) >= CACHE_ENTRIES:",
           "if len(memo) > CACHE_ENTRIES:",
           (f"{INJ_TESTS}::TestPurityMemo::test_keeps_at_most_its_bound",
            "tests/test_homsearch.py::TestHomSet::"
            "test_cache_is_bounded_and_an_evicted_entry_charges_the_same")),
    Mutant("catalog-keeps-every-isometry", FRAISSE,
           "moved >= h for moved",
           "moved >= () for moved",
           ("tests/test_fraisse.py::TestCatalog",)),
    Mutant("plan-no-conflict-check", KERNEL,
           "            return iter(())\n",
           "            pass\n",
           (f"{PLAN_TESTS}::test_conflicting_pins_give_none",)),
    Mutant("plan-non-isometric", KERNEL,
           "return _search(req, balls, True, spend, forced)",
           "return _search(req, balls, False, spend, forced)",
           (f"{PLAN_TESTS}::test_gathers_agree_with_a_search_per_anchor",)),
    Mutant("gather-skip-set-non-isometric", FRAISSE,
           "_project(_homs(h.cod, space, budget, True), h.map)",
           "_project(_homs(h.cod, space, budget), h.map)",
           (f"{PLAN_TESTS}::test_gathers_agree_with_a_search_per_anchor",)),
    Mutant("gather-skip-test-inverted", FRAISSE,
           "if m not in satisfied]",
           "if m in satisfied]",
           (f"{PLAN_TESTS}::test_gathers_agree_with_a_search_per_anchor",)),
    Mutant("gather-projects-positions", FRAISSE,
           "space, budget, True), h.map))",
           "space, budget, True), range(len(h.map))))",
           (f"{PLAN_TESTS}::test_gathers_agree_with_a_search_per_anchor",)),
    Mutant("gather-skip-set-per-anchor", FRAISSE,   # built even when no anchor survives
           "if policy.skip_satisfied and kept:",
           "if policy.skip_satisfied:",
           (f"{GATHER_TESTS}::test_the_skip_set_is_charged_at_the_first_kept_anchor",)),
    Mutant("gather-dedup-drops-fixed-anchors", FRAISSE,   # a u with u∘tau == u
           "if moved >= m]",
           "if moved > m]",
           (f"{PLAN_TESTS}::test_gathers_agree_with_a_search_per_anchor",)),
    Mutant("project-one-position-unwrapped", FRAISSE,
           "return zip(map(itemgetter(positions[0]), maps))",
           "return map(itemgetter(positions[0]), maps)",
           (PROJECT_TEST, f"{PLAN_TESTS}::test_gathers_agree_with_a_search_per_anchor")),
    Mutant("project-no-empty-tuples", FRAISSE,
           "return (() for _ in maps)",
           "return iter(())",
           (PROJECT_TEST, f"{PLAN_TESTS}::test_gathers_agree_with_a_search_per_anchor")),
    Mutant("audit-empty-filler-absent", FRAISSE,
           "next(fillers(tuple(map(k.map.__getitem__, u))), None) is None",
           "not next(fillers(tuple(map(k.map.__getitem__, u))), None)",
           (f"{PLAN_TESTS}::test_audit_charge_is_pinned",)),
    Mutant("verify-eps-rank-off-by-one", VERIFY,
           "e = bisect_right(values, eps) - 1",
           "e = bisect_right(values, eps)",
           (VERIFY_TESTS,)),
    Mutant("verify-pin-ranks-off-by-one", VERIFY,
           "to = [bisect_right(values, v) - 1 for v in apex.values]",
           "to = [bisect_right(values, v) for v in apex.values]",
           (VERIFY_TESTS,)),
    Mutant("verify-no-duplicate-pins", VERIFY,
           "pins = [(first[p], k, 0) for k, p in enumerate(flat) if first[p] != k]",
           "pins = []",
           (VERIFY_BRUTE,)),
    Mutant("verify-bulk-charge-off-by-one", VERIFY,
           "(2 << stop) - 1",
           "(1 << stop) - 1",
           (VERIFY_NODES,)),
    Mutant("verify-mediators-truncated", VERIFY,
           "for arr in (*first_two, *found))",
           "for arr in first_two)",
           (f"{VERIFY_BRUTE}::test_node_charge_with_free_apex_points",)),
    Mutant("verify-square-check-inclusive", VERIFY,
           "default=ZERO) > eps:",
           "default=ZERO) >= eps:",
           (VERIFY_TESTS, VERIFY_BRUTE)),
    Mutant("verify-failing-prefix-forgotten", VERIFY,
           "meds = self.walk(k + 1, not ok & low)",
           "meds = self.walk(k + 1, False)",
           (VERIFY_BRUTE,)),
    Mutant("verify-bridges-back-ignored", VERIFY,
           "            adm &= near[v[a]]\n",
           "            pass\n",
           (VERIFY_TESTS,)),
    Mutant("verify-pins-a-position-to-itself", VERIFY,
           " for k, p in enumerate(flat) if first[p] != k]",
           " for k, p in enumerate(flat)]",
           equivalent="a pin of a position to itself at rank 0 admits every map"),
    Mutant("boundary-retraction-reversed", INJ,
           "return True, MetMap._trusted(f.cod, K, p)",
           "return True, MetMap._trusted(K, f.cod, p)",
           (f"{BOUNDARY}[is_eps_split]",)),
    Mutant("boundary-purity-v-into-the-domain", INJ,
           "MetMap._trusted(B, L, homBL[admitting - 1])",
           "MetMap._trusted(B, K, homBL[admitting - 1])",
           (f"{BOUNDARY}[purity]",)),
    Mutant("boundary-span-legs-swapped", FRAISSE,
           "trusted_span(trusted_map(X, space, m), h)",
           "trusted_span(h, trusted_map(X, space, m))",
           (f"{SPAN_REBUILD}[iso-skip]",)),
    Mutant("boundary-audit-witness-into-the-next-stage", FRAISSE,
           "MetMap._trusted(h.dom, stage.space, u)",
           "MetMap._trusted(h.dom, k.cod, u)",
           (f"{BOUNDARY}[audit_saturation]",)),
    Mutant("closest-ties-on-the-running-max", INJ,
           "            if x > d:\n                d = x\n        if d < best:\n",
           "            if x >= d:\n                d = x\n        if d < best:\n",
           equivalent="x >= d stores the same value as x > d when x == d"),
)


def _mutated(mutant: Mutant) -> str:
    """The text of the mutant's file with its snippet replaced."""
    with open(os.path.join(ROOT, mutant.file), encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.snippet)
    if count != 1:
        raise LookupError(f"{mutant.name}: snippet occurs {count} times in {mutant.file}")
    return text.replace(mutant.snippet, mutant.replacement)


def _copy(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(root: str, selection) -> tuple[int, str]:
    """pytest's exit code on the selection, and its standard output with
    the ``-rf`` summary, whose lines are wide enough to name each failure."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "10000"}
    env.pop("METRICAT_BUDGET_NODES", None)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         *selection],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return run.returncode, run.stdout


def outcome(code: int, summary: str) -> str:
    """``survived`` when the selection passed; ``killed`` when pytest exited
    1 and a ``FAILED`` line of its summary names an exception outside
    ``BROKEN_BY``; else ``broken``."""
    if code == 0:
        return "survived"
    failures = {line.split(" - ", 1)[1].split(":", 1)[0].rsplit(".", 1)[-1]
                for line in summary.splitlines()
                if line.startswith("FAILED ") and " - " in line}
    return "killed" if code == 1 and failures - BROKEN_BY else "broken"


def check(mutant: Mutant) -> str:
    """``killed``, ``survived``, ``broken`` or, for an equivalent mutant,
    ``equivalent``.  Raises LookupError when the snippet does not match."""
    text = _mutated(mutant)
    if mutant.equivalent:
        return "equivalent"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(tmp)
        with open(os.path.join(tmp, mutant.file), "w", encoding="utf-8") as fh:
            fh.write(text)
        return outcome(*_pytest(tmp, mutant.selection))


def _timed(mutant: Mutant) -> tuple[str, float]:
    started = time.monotonic()
    try:
        result = check(mutant)
    except LookupError as exc:
        result = f"error: {exc}"
    return result, time.monotonic() - started


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    # Every selection must pass unmutated, or a failure would kill nothing.
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(tmp)
        if _pytest(tmp, sorted({t for m in chosen for t in m.selection}))[0] != 0:
            print("the selections fail on the unmutated tree")
            return 1
    bad = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for mutant, (result, seconds) in zip(chosen, pool.map(_timed, chosen)):
            bad += result not in ("killed", "equivalent")
            print(f"{mutant.name}: {result} ({seconds:.1f} s)", flush=True)
    print(f"{len(chosen)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
