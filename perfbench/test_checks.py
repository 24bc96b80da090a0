"""The benchmark's checkers must reject wrong outputs.

    python3 -m pytest perfbench -q

Each test hands a checker a deliberately wrong output (a distorted apex, a
non-isometric embedding, a stale extra stage file, a law with a failure,
...) and requires a rejection, next to the genuine output, which must pass;
a check that can never fail is caught here.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

from metricat.colimits import FinDiagram, eps_coequalizer, eps_colimit, eps_pushout  # noqa: E402
from metricat.extrat import INF, ZERO, rat  # noqa: E402
from metricat.fraisse import POLICIES, audit_saturation, build_chain, gather_spans  # noqa: E402
from metricat.laws import LawResult  # noqa: E402
from metricat.spaces import MetMap, Space, validate_space  # noqa: E402
from metricat.verify import verify_coequalizer, verify_colimit, verify_pushout  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ORACLES = checks.load_oracles(ROOT)
PATH3 = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
POINT = validate_space([[0]])
TWO = validate_space([[0, 2], [2, 0]])


def _halved(space: Space) -> Space:
    return Space(tuple(tuple(x if x in (ZERO, INF) else
                             rat(f"{x.numerator}/{2 * x.denominator}") for x in row)
                       for row in space.dist))


def _span():
    f = MetMap(TWO, PATH3, (0, 2))
    g = MetMap(TWO, TWO, (0, 1))
    return f, g


def _pushout_case(eps):
    f, g = _span()
    result = eps_pushout(f, g, eps)
    report = verify_pushout(result, f, g, workloads._targets(result.apex, f.cod, g.cod))
    return f, g, result, report


@pytest.mark.parametrize("eps", [ZERO, rat(1), INF])
def test_pushout_check_accepts_the_real_pushout(eps):
    f, g, result, report = _pushout_case(eps)
    assert checks.check_pushout(ORACLES, f, g, eps, result, report, True) is None


def test_pushout_check_rejects_a_distorted_apex():
    f, g, result, report = _pushout_case(rat(1))
    # Halving every distance keeps a metric, the legs non-expansive and the
    # square closed; only the closure comparison can see it.
    distorted = dataclasses.replace(
        result, apex=_halved(result.apex),
        leg_f=MetMap(result.leg_f.dom, _halved(result.apex), result.leg_f.map),
        leg_g=MetMap(result.leg_g.dom, _halved(result.apex), result.leg_g.map))
    assert checks.check_pushout(ORACLES, f, g, rat(1), distorted, report, True)


def test_pushout_check_rejects_a_distorted_apex_at_eps_zero():
    f, g, result, report = _pushout_case(ZERO)
    distorted = dataclasses.replace(
        result, apex=_halved(result.apex),
        leg_f=MetMap(result.leg_f.dom, _halved(result.apex), result.leg_f.map),
        leg_g=MetMap(result.leg_g.dom, _halved(result.apex), result.leg_g.map))
    assert "union-find" in checks.check_pushout(
        ORACLES, f, g, ZERO, distorted, report, False)


def test_pushout_check_rejects_a_non_metric_apex_and_an_open_square():
    f, g, result, report = _pushout_case(rat(1))
    bad = Space(((ZERO, rat(1), rat(5)), (rat(1), ZERO, rat(1)), (rat(5), rat(1), ZERO)))
    assert "metric" in checks.check_pushout(
        ORACLES, f, g, rat(1), dataclasses.replace(result, apex=bad), report, False)
    assert "square" in checks.check_pushout(
        ORACLES, f, g, rat("1/2"), dataclasses.replace(result, eps=rat("1/2")), report, False)


def test_pushout_check_rejects_a_failed_report():
    f, g, result, report = _pushout_case(rat(1))
    failed = dataclasses.replace(
        report, ok=False, counterexample=SimpleNamespace(kind="uniqueness"))
    assert "rejected" in checks.check_pushout(ORACLES, f, g, rat(1), result, failed, False)


def test_coequalizer_and_colimit_checks():
    f, g = MetMap(POINT, PATH3, (0,)), MetMap(POINT, PATH3, (2,))
    for eps in (ZERO, rat(1)):
        result = eps_coequalizer(f, g, eps)
        report = verify_coequalizer(result, f, g, workloads._targets(result.apex, f.cod))
        assert checks.check_coequalizer(ORACLES, f, g, eps, result, report, True) is None
        wrong = dataclasses.replace(result, apex=_halved(result.apex),
                                    leg=MetMap(f.cod, _halved(result.apex), result.leg.map))
        assert checks.check_coequalizer(ORACLES, f, g, eps, wrong, report, True)
    diagram = FinDiagram((POINT, PATH3), ((0, 1, f), (0, 1, g)))
    result = eps_colimit(diagram, ZERO)
    report = verify_colimit(result, diagram, workloads._targets(result.apex))
    assert checks.check_colimit(ORACLES, diagram, ZERO, result, report, True) is None
    wrong = dataclasses.replace(result, apex=_halved(result.apex), legs=tuple(
        MetMap(leg.dom, _halved(result.apex), leg.map) for leg in result.legs))
    assert checks.check_colimit(ORACLES, diagram, ZERO, wrong, report, True)


def test_isometric_matches_the_permutation_oracle():
    a = PATH3.dist
    b = Space(((ZERO, rat(1), rat(1)), (rat(1), ZERO, rat(2)), (rat(1), rat(2), ZERO))).dist
    c = Space(((ZERO, rat(1), rat(2)), (rat(1), ZERO, rat(2)), (rat(2), rat(2), ZERO))).dist
    for x, y in ((a, b), (a, c), (b, c), (a, a)):
        assert checks.isometric(x, y) == ORACLES.isomorphic_brute(Space(x), Space(y))


def test_law_checks():
    ok = LawResult("pure-composes", 120, 100, 20, 0, None)
    assert checks.check_law(ok, "pure-composes", 120, 28) is None
    failing = LawResult("pure-composes", 120, 99, 20, 1, {"trial": 3})
    assert checks.check_law(failing, "pure-composes", 120, 28)
    assert checks.check_law(LawResult("pure-composes", 120, 90, 20, 0, None),
                            "pure-composes", 120, 28)
    assert checks.check_law(ok, "pure-left-factor", 120, 28)
    assert checks.check_law(ok, "pure-composes", 120, 27)
    assert checks.check_collapse_verdicts((True, False, True)) is None
    assert checks.check_collapse_verdicts((True, True, True))


@pytest.fixture(scope="module")
def chain():
    grid = workloads.fraisse.DistanceGrid((rat(1), rat(2)), 2)
    return build_chain(grid, 3)


def test_chain_check_rejects_a_non_isometric_embedding(chain):
    stages, _ = chain
    assert checks.check_chain(stages) is None
    last = len(stages) - 2
    stage = stages[last]
    cod = stages[last + 1].space
    constant = MetMap(stage.space, cod, (0,) * stage.space.n)
    broken = list(stages)
    broken[last] = dataclasses.replace(stage, embedding=constant, span_log=())
    assert "isometry" in checks.check_chain(tuple(broken))


def test_chain_check_rejects_a_span_that_does_not_commute(chain):
    stages, _ = chain
    n, r, record = next((n, r, rec) for n, s in enumerate(stages) if s.space.n >= 2
                        for r, rec in enumerate(s.span_log) if rec.span.u.dom.n == 1)
    u = record.span.u
    moved = MetMap(u.dom, u.cod, ((u.map[0] + 1) % u.cod.n,))
    records = list(stages[n].span_log)
    records[r] = dataclasses.replace(record, span=dataclasses.replace(record.span, u=moved))
    broken = list(stages)
    broken[n] = dataclasses.replace(stages[n], span_log=tuple(records))
    assert "commute" in checks.check_chain(tuple(broken))


def test_audit_and_gather_checks(chain):
    stages, catalog = chain
    report = audit_saturation(stages, catalog)
    assert checks.check_audit(report) is None
    assert checks.check_audit(dataclasses.replace(report, ok=False))
    space = stages[-1].space
    h = next(h for h in catalog.stratum(2) if h.dom.n == 2)
    spans, skipped = gather_spans(space, (h,), POLICIES["full-skip"])
    assert checks.check_gather(space, h, False, (spans, skipped)) is None
    assert any(s.u.map[0] == s.u.map[1] or space.dist[s.u.map[0]][s.u.map[1]]
               != h.dom.dist[0][1] for s in spans)
    assert "isometric" in checks.check_gather(space, h, True, (spans, skipped))


def _cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "metricat.cli", *args], cwd=cwd,
                          env=run.python_env(ROOT), capture_output=True, text=True)


def test_run_dir_check_rejects_stale_stage_files(tmp_path):
    run_dir = str(tmp_path / "run")
    build = ("fraisse", "build", "--grid", "1,2", "--max-size", "2")
    proc = _cli(*build, "--steps", "2", "--out", run_dir)
    assert checks.check_build(proc, run_dir) is None
    audit = _cli("fraisse", "audit", run_dir)
    assert checks.check_audit_cli(audit, run_dir) is None
    extra = os.path.join(run_dir, "stages", "K_009.json")
    shutil.copy(os.path.join(run_dir, "stages", "K_000.json"), extra)
    assert checks.check_run_dir(run_dir)
    os.remove(extra)
    # A shorter rebuild into the same directory leaves the longer build's
    # stages behind; the manifest then lists fewer stages than the files.
    proc = _cli(*build, "--steps", "1", "--out", run_dir)
    assert proc.returncode == 0
    assert "manifest lists 2 stages" in checks.check_build(proc, run_dir)


def test_cli_checks_reject_bad_exits_and_verdicts():
    def done(doc, code=0):
        return SimpleNamespace(returncode=code, stderr="error", stdout=json.dumps(doc))

    assert checks.check_pushout_cli(done({"verification": {"ok": True, "checked": 3}})) is None
    assert checks.check_pushout_cli(done({"verification": {"ok": False, "checked": 3}}))
    assert checks.check_pushout_cli(done({"verification": {"ok": True, "checked": 3}}, 1))
    assert checks.check_pure_cli(done({"ok": True})) is None
    assert checks.check_pure_cli(done({"ok": False}))
    assert checks.check_pure_cli(done({"ok": True}, 1))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer = run.layer_metrics({}, 1, None)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
