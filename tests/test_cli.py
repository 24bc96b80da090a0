import hashlib
import json
import os
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner

from metricat import canonical, colimits, homsearch
from metricat.cli import main
from metricat.colimits import FinDiagram
from metricat.errors import SchemaError
from metricat.injectivity import purity
from metricat.rundir import load_chain
from metricat.serialization import (
    diagram_to_json,
    family_to_json,
    map_from_json,
    map_to_json,
    pair_to_json,
    read_json,
    space_to_json,
    write_json,
)
from metricat.spaces import MetMap, empty_space, one_point, two_point, validate_space

PATH3 = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
DATA = os.path.join(os.path.dirname(__file__), "data")
SPACE = os.path.join(DATA, "space.json")      # PATH3
SECTION = os.path.join(DATA, "section.json")  # one_point() -> two_point(1), map [0]
FAMILY = os.path.join(DATA, "family.json")    # PATH3 and two_point(1)

# Every command that writes a document, run on the committed fixtures. The
# CI workflow runs the same lines through the console script.
DOCUMENTS = {
    "canon": ["space", "canon", SPACE],
    "pushout": ["colimit", "pushout", "--eps", "1/2", "--in",
                os.path.join(DATA, "span.json"), "--verify"],
    "coequalizer": ["colimit", "coequalizer", "--eps", "1/2", "--in",
                    os.path.join(DATA, "pair.json"), "--verify"],
    "diagram": ["colimit", "diagram", "--eps", "1/2", "--in",
                os.path.join(DATA, "diagram.json"), "--verify"],
    "injective": ["check", "injective", "--eps", "1", "--subject", SPACE, "--in", SECTION],
    "split": ["check", "split", "--eps", "0", "--in", SECTION],
    "pure": ["check", "pure", "--eps", "0", "--in", SECTION],
    "mono": ["check", "mono", "--eps", "0", "--in", SECTION],
    "enumerate": ["fraisse", "enumerate", "--grid", "1,2", "--max-size", "3"],
    "laws": ["laws", "run", "--seed", "0", "--trials", "3"],
}


# sha256 of the stdout of `metricat laws run --seed 0 --trials 120`.
LAWS_RUN_SHA256 = "87fee57362cfaabf8814e9963110836b2bf7b0826e41d89a97e2963a2f7e3c0a"

# `metricat fraisse build --grid 1,2 --steps 3`: the sha256 of each file it
# writes but manifest.json, whose wall clock varies, and the least node
# budgets of the build and of `fraisse audit` on its run.
CHAIN_ARGS = ["fraisse", "build", "--grid", "1,2", "--steps", "3"]
CHAIN_RUN_SHA256 = {
    "embeddings/k_000_001.json":
        "b88491b2c7f1e46d6ceecc523868dd367ca6d090e5e7c323e5abe0dd88f01f9d",
    "embeddings/k_001_002.json":
        "6996b7f822d31a9814156e336393743aa519434bf017f51a6ac163a15bad5ceb",
    "embeddings/k_002_003.json":
        "d488760426e5fb6a0445f00da7cd6d325273200450b0fa8ab851255d8d914d68",
    "spans/step_000.json":
        "2cc43ac51a371f04ad044cbde783103391351da93f9c5b53f293946e86d3b7bc",
    "spans/step_001.json":
        "62885e7937b6a2def14533552f317bca8eb7594c49e2719b4ea4b1ae6fb1c886",
    "spans/step_002.json":
        "13b5248da98f05a82d82c456ff95daed55a7ebe050c8d9019e0d4e1c273ddc91",
    "stages/K_000.json":
        "43d7c56409ae0619b098a2fe27ccab801cc238ebbd7cba3248e0190bbf1b5729",
    "stages/K_001.json":
        "c3c76ff3c19e9c99a1968f0806d930bead63d2ec81d32e90545fc6f5bee2f02c",
    "stages/K_002.json":
        "28f8d7d0e63ad2d1d2fc4907ccb980b78b309d633cc7d5b930bf84cf3f8bde02",
    "stages/K_003.json":
        "216a8ae55a3843c1a8c391958d861df7bbae88ce36ff89ac05d99eb89fe004ba",
}
CHAIN_BUILD_NODES = 1850
CHAIN_AUDIT_NODES = 2330
# The same digests for a build whose gathers admit every non-expansive
# anchor and skip the satisfied ones.
FULL_SKIP_ARGS = ["fraisse", "build", "--grid", "1,2", "--max-size", "3", "--steps", "2",
                  "--policy", "full-skip"]
FULL_SKIP_RUN_SHA256 = {
    "embeddings/k_000_001.json":
        "b88491b2c7f1e46d6ceecc523868dd367ca6d090e5e7c323e5abe0dd88f01f9d",
    "embeddings/k_001_002.json":
        "6996b7f822d31a9814156e336393743aa519434bf017f51a6ac163a15bad5ceb",
    "spans/step_000.json":
        "2cc43ac51a371f04ad044cbde783103391351da93f9c5b53f293946e86d3b7bc",
    "spans/step_001.json":
        "47e1936f3a5ac1b62af9af09a26e41c78f8fc718e7905c05c9153edcdab6d4d6",
    "stages/K_000.json":
        "43d7c56409ae0619b098a2fe27ccab801cc238ebbd7cba3248e0190bbf1b5729",
    "stages/K_001.json":
        "c3c76ff3c19e9c99a1968f0806d930bead63d2ec81d32e90545fc6f5bee2f02c",
    "stages/K_002.json":
        "28f8d7d0e63ad2d1d2fc4907ccb980b78b309d633cc7d5b930bf84cf3f8bde02",
}
# The same least budgets for builds that take other gather paths: full
# anchors with the skip rule, six steps over a three-value grid, and full
# anchors without the skip rule, where the dedup filter is the gather's only test.
GATHER_PATH_NODES = [
    (FULL_SKIP_ARGS, 847, 812),
    (["fraisse", "build", "--grid", "1,2,3", "--max-size", "2", "--steps", "6"], 4761, 3507),
    (["fraisse", "build", "--grid", "1,2", "--max-size", "3", "--steps", "2",
      "--policy", "full-all"], 845, 812),
]


def invoke(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _built_run(tmp_path, build):
    """Build into a fresh run directory: the sha256 of each file but
    manifest.json, and the outcome the manifest records."""
    run_dir = str(tmp_path / "run")
    assert invoke([*build, "--out", run_dir]).exit_code == 0
    digests = {}
    for top, _, names in os.walk(run_dir):
        for name in names:
            rel = os.path.relpath(os.path.join(top, name), run_dir)
            if rel != "manifest.json":
                with open(os.path.join(run_dir, rel), "rb") as fh:
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests, read_json(os.path.join(run_dir, "manifest.json"))["outcome"]


def _assert_least_budgets(tmp_path, build, build_nodes, audit_nodes):
    """The build passes at build_nodes and exits 3 one below; so does
    `fraisse audit` on its run at audit_nodes, naming the node it stopped at."""
    run_dir = str(tmp_path / "run")
    short = str(tmp_path / "short")
    assert invoke([*build, "--budget-nodes", str(build_nodes - 1),
                   "--out", short]).exit_code == 3
    assert invoke([*build, "--budget-nodes", str(build_nodes), "--out", run_dir]).exit_code == 0
    audit = ["fraisse", "audit", run_dir, "--budget-nodes"]
    assert invoke([*audit, str(audit_nodes)]).exit_code == 0
    result = invoke([*audit, str(audit_nodes - 1)])
    assert result.exit_code == 3
    assert result.stderr == (f"budget exceeded: search spent {audit_nodes} nodes, "
                             f"over the node budget of {audit_nodes - 1}\n")


def write_doc(tmp_path, name, payload):
    path = str(tmp_path / name)
    write_json(path, payload)
    return path


class TestSpaceCommands:
    def test_validate_ok(self, tmp_path):
        path = write_doc(tmp_path, "k.json", space_to_json(PATH3))
        result = invoke(["space", "validate", path])
        assert result.exit_code == 0
        assert "valid: 3 points" in result.output

    def test_validate_triangle_violation(self, tmp_path):
        doc = {"points": 3, "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]]}
        path = write_doc(tmp_path, "bad.json", doc)
        result = invoke(["space", "validate", path])
        assert result.exit_code == 1
        assert "TriangleViolation" in result.output

    def test_validate_warns_on_non_canonical_literals(self, tmp_path):
        doc = {"points": 2, "dist": [["0", "2/2"], [1, "0"]]}
        result = invoke(["space", "validate", write_doc(tmp_path, "k.json", doc)])
        assert result.exit_code == 0
        assert result.stdout == "valid: 2 points\n"
        assert result.stderr.splitlines() == [
            "warning: /dist/0/1: non-canonical rational '2/2' normalized to 1",
            "warning: /dist/1/0: integer literal accepted, canonical form is a string",
        ]

    def test_validate_malformed_json(self, tmp_path):
        path = str(tmp_path / "broken.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{oops")
        result = invoke(["space", "validate", path])
        assert result.exit_code == 2

    def test_validate_missing_file(self):
        result = invoke(["space", "validate", "no-such-file.json"])
        assert result.exit_code == 2

    def test_canon_is_relabeling_invariant(self, tmp_path):
        shuffled = validate_space([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        a = write_doc(tmp_path, "a.json", space_to_json(PATH3))
        b = write_doc(tmp_path, "b.json", space_to_json(shuffled))
        out_a = str(tmp_path / "ca.json")
        out_b = str(tmp_path / "cb.json")
        assert invoke(["space", "canon", a, "--out", out_a]).exit_code == 0
        assert invoke(["space", "canon", b, "--out", out_b]).exit_code == 0
        assert read_json(out_a)["space"] == read_json(out_b)["space"]
        assert len(read_json(out_a)["order"]) == 3


class TestColimitCommands:
    def test_pushout_with_verification(self, tmp_path):
        f = MetMap(one_point(), two_point(1), (0,))
        g = MetMap(one_point(), two_point(2), (0,))
        path = write_doc(tmp_path, "pair.json", pair_to_json(f, g))
        out = str(tmp_path / "po.json")
        result = invoke(["colimit", "pushout", "--eps", "1", "--in", path,
                         "--verify", "--out", out])
        assert result.exit_code == 0
        doc = read_json(out)
        assert doc["eps"] == "1"
        assert doc["apex"]["points"] == 4
        assert doc["verification"]["ok"] is True

    def test_coequalizer_collapses_parallel_pair(self, tmp_path):
        f = MetMap(one_point(), two_point(5), (0,))
        g = MetMap(one_point(), two_point(5), (1,))
        path = write_doc(tmp_path, "pair.json", pair_to_json(f, g))
        out = str(tmp_path / "coeq.json")
        result = invoke(["colimit", "coequalizer", "--eps", "1", "--in", path,
                         "--out", out])
        assert result.exit_code == 0
        doc = read_json(out)
        assert doc["apex"]["dist"] == [["0", "1"], ["1", "0"]]

    def test_coequalizer_takes_f_codomain_labels(self, tmp_path):
        # g's codomain is f's up to labels: g is moved onto f's codomain
        labeled = two_point(5).relabel(("a", "b"))
        f = MetMap(one_point(), labeled, (0,))
        g = MetMap(one_point(), two_point(5), (1,))
        path = write_doc(tmp_path, "pair.json", pair_to_json(f, g))
        result = invoke(["colimit", "coequalizer", "--eps", "1", "--in", path])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["leg"]["dom"] == space_to_json(labeled)
        assert doc["apex"]["dist"] == [["0", "1"], ["1", "0"]]

    def test_arrow_target_out_of_range_is_a_schema_error(self, tmp_path):
        doc = diagram_to_json(FinDiagram((one_point(), two_point(1)), ()))
        doc["arrows"] = [{"src": 0, "dst": 2, "map": [0]}]
        result = invoke(["colimit", "diagram", "--eps", "1", "--in",
                         write_doc(tmp_path, "d.json", doc)])
        assert result.exit_code == 2
        assert "schema error at /arrows/0/dst:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_diagram_without_arrows_is_a_coproduct(self, tmp_path):
        diagram = FinDiagram((one_point(), two_point(1)), ())
        path = write_doc(tmp_path, "diagram.json", diagram_to_json(diagram))
        out = str(tmp_path / "col.json")
        result = invoke(["colimit", "diagram", "--eps", "0", "--in", path,
                         "--out", out, "--verify"])
        assert result.exit_code == 0
        doc = read_json(out)
        assert doc["apex"]["points"] == 3
        assert len(doc["legs"]) == 2
        assert doc["verification"]["ok"] is True

    @pytest.mark.parametrize("command, fixture, checked", [
        ("pushout", "span.json", 239),
        ("coequalizer", "pair.json", 29),
        ("diagram", "diagram.json", 1517),
    ])
    def test_verify_the_committed_fixtures(self, tmp_path, command, fixture, checked):
        # The CI workflow runs the same three commands through the console script.
        path = os.path.join(DATA, fixture)
        out = str(tmp_path / "out.json")
        result = invoke(["colimit", command, "--eps", "1/2", "--in", path,
                         "--verify", "--out", out])
        assert result.exit_code == 0
        assert read_json(out)["verification"] == {
            "ok": True, "checked": checked, "counterexample": None}

    def test_a_failed_verification_exits_1(self, monkeypatch):
        from metricat import verify

        target = two_point(1)
        cone = MetMap(one_point(), target, (0,))
        report = verify.VerifyReport(False, 7, verify.Counterexample(
            "existence", target, (cone,), ()))
        monkeypatch.setattr(verify, "verify_pushout", lambda *args, **kwargs: report)
        result = invoke(DOCUMENTS["pushout"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["verification"] == {
            "ok": False, "checked": 7, "counterexample": {
                "kind": "existence", "target": space_to_json(target),
                "cone": [map_to_json(cone)], "mediators": []}}

    def test_bad_eps_is_a_usage_error(self, tmp_path):
        f = MetMap(one_point(), two_point(1), (0,))
        path = write_doc(tmp_path, "pair.json", pair_to_json(f, f))
        result = CliRunner().invoke(
            main, ["colimit", "pushout", "--eps", "zebra", "--in", path])
        assert result.exit_code == 2

    def test_mismatched_codomains_are_a_schema_error(self, tmp_path):
        f = MetMap(one_point(), two_point(1), (0,))
        g = MetMap(one_point(), two_point(2), (0,))
        path = write_doc(tmp_path, "pair.json", pair_to_json(f, g))
        result = invoke(["colimit", "coequalizer", "--eps", "0", "--in", path])
        assert result.exit_code == 2


class TestCheckCommands:
    def collapse_doc(self, tmp_path):
        f = MetMap(two_point(2), one_point(), (0, 0))
        return write_doc(tmp_path, "collapse.json", map_to_json(f))

    def test_injective_verdicts(self, tmp_path):
        subject = write_doc(tmp_path, "k.json", space_to_json(two_point(1)))
        path = self.collapse_doc(tmp_path)
        out = str(tmp_path / "r.json")
        ok = invoke(["check", "injective", "--eps", "1", "--subject", subject,
                     "--in", path, "--out", out])
        assert ok.exit_code == 0
        assert read_json(out)["ok"] is True
        bad = invoke(["check", "injective", "--eps", "1/2", "--subject", subject,
                      "--in", path, "--out", out])
        assert bad.exit_code == 1
        doc = read_json(out)
        assert doc["ok"] is False
        assert doc["witness"]["map"] in ([0, 1], [1, 0])

    def test_split_verdicts(self, tmp_path):
        section = write_doc(
            tmp_path, "s.json", map_to_json(MetMap(one_point(), two_point(1), (0,))))
        out = str(tmp_path / "r.json")
        ok = invoke(["check", "split", "--eps", "0", "--in", section, "--out", out])
        assert ok.exit_code == 0
        assert read_json(out)["retraction"] is not None
        empty = write_doc(
            tmp_path, "e.json", map_to_json(MetMap(empty_space(), one_point(), ())))
        bad = invoke(["check", "split", "--eps", "inf", "--in", empty, "--out", out])
        assert bad.exit_code == 1

    def test_pure_passes_on_section(self, tmp_path):
        section = write_doc(
            tmp_path, "s.json", map_to_json(MetMap(one_point(), two_point(1), (0,))))
        out = str(tmp_path / "r.json")
        result = invoke(["check", "pure", "--eps", "0", "--in", section, "--out", out])
        assert result.exit_code == 0
        assert read_json(out)["counterexample"] is None

    def test_pure_counterexample_round_trips(self, tmp_path):
        dom = validate_space([["0", "2", "1"], ["2", "0", "1"], ["1", "1", "0"]])
        cod = validate_space(
            [["0", "1", "1/2"], ["1", "0", "1/2"], ["1/2", "1/2", "0"]])
        f = MetMap(dom, cod, (0, 1, 2))
        path = write_doc(tmp_path, "f.json", map_to_json(f))
        fam = write_doc(
            tmp_path, "fam.json", family_to_json((one_point(), two_point(2))))
        out = str(tmp_path / "r.json")
        result = invoke(["check", "pure", "--eps", "1/2", "--variant", "pure",
                         "--family", fam, "--in", path, "--out", out])
        assert result.exit_code == 1
        doc = read_json(out)
        assert doc["ok"] is False
        assert doc["counterexample"]["best_filler_distance"] is not None

    @pytest.mark.parametrize("command", ["canon", "injective", "split", "pure", "mono",
                                         "enumerate"])
    def test_check_the_committed_fixtures(self, command):
        # The CI workflow runs the same six commands through the console script.
        result = invoke(DOCUMENTS[command])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        if command == "canon":
            assert doc["order"] == [1, 0, 2]
        elif command == "enumerate":
            assert doc["count"] == 8
        else:
            assert doc["ok"] is True

    def test_mono_verdicts(self, tmp_path):
        collapse = write_doc(
            tmp_path, "c.json", map_to_json(MetMap(two_point(1), one_point(), (0, 0))))
        out = str(tmp_path / "r.json")
        ok = invoke(["check", "mono", "--eps", "1", "--in", collapse, "--out", out])
        assert ok.exit_code == 0
        bad = invoke(["check", "mono", "--eps", "1/2", "--in", collapse, "--out", out])
        assert bad.exit_code == 1
        doc = read_json(out)
        assert doc["counterexample"]["probe"]["points"] >= 1


class TestLawsCommand:
    def test_small_run_is_green(self, tmp_path):
        out = str(tmp_path / "laws.json")
        result = invoke(["laws", "run", "--seed", "7", "--trials", "3",
                         "--budget", "3", "--out", out])
        assert result.exit_code == 0
        doc = read_json(out)
        assert doc["ok"] is True
        assert len(doc["results"]) == 28

    def test_standard_run_output_is_pinned(self):
        # The report of the standard run, byte for byte; the workflow pins
        # the same digest for the console script, serial and on two workers.
        result = invoke(["laws", "run", "--seed", "0", "--trials", "120"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == LAWS_RUN_SHA256


class TestFraisseCommands:
    def test_enumerate(self, tmp_path):
        out = str(tmp_path / "spaces.json")
        result = invoke(["fraisse", "enumerate", "--grid", "1,2",
                         "--max-size", "2", "--out", out])
        assert result.exit_code == 0
        doc = read_json(out)
        assert doc["count"] == 4
        assert len(doc["spaces"]) == 4

    def test_build_and_audit(self, tmp_path):
        run_dir = str(tmp_path / "run")
        built = invoke(["fraisse", "build", "--grid", "1", "--steps", "2",
                        "--max-size", "2", "--out", run_dir])
        assert built.exit_code == 0
        manifest = read_json(os.path.join(run_dir, "manifest.json"))
        assert manifest["outcome"] == {"complete": True, "stages": [0, 1, 4]}
        audited = invoke(["fraisse", "audit", run_dir])
        assert audited.exit_code == 0
        with open(os.path.join(run_dir, "audit.json"), "rb") as fh:
            assert fh.read() == audited.stdout_bytes
        audit = read_json(os.path.join(run_dir, "audit.json"))
        assert audit["ok"] is True

    def test_rebuild_is_byte_identical(self, tmp_path):
        args = ["fraisse", "build", "--grid", "1,2", "--steps", "2",
                "--max-size", "2", "--seed", "3"]
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert invoke(args + ["--out", a]).exit_code == 0
        assert invoke(args + ["--out", b]).exit_code == 0
        files_a = sorted(
            os.path.relpath(os.path.join(root, name), a)
            for root, _, names in os.walk(a) for name in names
        )
        files_b = sorted(
            os.path.relpath(os.path.join(root, name), b)
            for root, _, names in os.walk(b) for name in names
        )
        assert files_a == files_b
        for rel in files_a:
            if rel == "manifest.json":
                ma = read_json(os.path.join(a, rel))
                mb = read_json(os.path.join(b, rel))
                ma.pop("wall_clock_seconds")
                mb.pop("wall_clock_seconds")
                assert ma == mb
                continue
            with open(os.path.join(a, rel), "rb") as fh:
                bytes_a = fh.read()
            with open(os.path.join(b, rel), "rb") as fh:
                bytes_b = fh.read()
            assert bytes_a == bytes_b, rel

    def test_standard_run_directory_is_pinned(self, tmp_path):
        assert _built_run(tmp_path, CHAIN_ARGS) == (
            CHAIN_RUN_SHA256, {"complete": True, "stages": [0, 1, 7, 133]})

    def test_full_skip_run_directory_is_pinned(self, tmp_path):
        assert _built_run(tmp_path, FULL_SKIP_ARGS) == (
            FULL_SKIP_RUN_SHA256, {"complete": True, "stages": [0, 1, 7]})

    def test_chain_node_charges_are_pinned(self, tmp_path):
        _assert_least_budgets(tmp_path, CHAIN_ARGS, CHAIN_BUILD_NODES, CHAIN_AUDIT_NODES)

    @pytest.mark.parametrize("args, build_nodes, audit_nodes", GATHER_PATH_NODES)
    def test_gather_path_node_charges_are_pinned(self, tmp_path, args, build_nodes,
                                                 audit_nodes):
        _assert_least_budgets(tmp_path, args, build_nodes, audit_nodes)

    def test_halved_grid_builds_the_halved_chain(self, tmp_path):
        # Grid {1/2, 1} is grid {1, 2} at half scale: the same stages, maps,
        # span logs and skip counts with every distance halved, and its
        # closures run on integers at scale 2.
        whole, half = str(tmp_path / "whole"), str(tmp_path / "half")
        assert invoke([*CHAIN_ARGS, "--out", whole]).exit_code == 0
        halved = ["fraisse", "build", "--grid", "1/2,1", "--steps", "3", "--out", half]
        assert invoke(halved).exit_code == 0
        files = sorted(os.path.relpath(os.path.join(top, name), whole)
                       for top, _, names in os.walk(whole) for name in names)
        assert files == sorted(os.path.relpath(os.path.join(top, name), half)
                               for top, _, names in os.walk(half) for name in names)
        for rel in files:
            want, got = read_json(os.path.join(whole, rel)), read_json(os.path.join(half, rel))
            if rel == "manifest.json":
                for doc in (want, got):
                    doc.pop("wall_clock_seconds")
                want["grid"]["values"] = ["1/2", "1"]
            assert _halve_distances(want) == got, rel
        assert read_json(os.path.join(half, "manifest.json"))["outcome"] == {
            "complete": True, "stages": [0, 1, 7, 133]}
        assert invoke(["fraisse", "audit", half]).exit_code == 0

    def test_budget_exceeded_persists_partial_run(self, tmp_path):
        run_dir = str(tmp_path / "run")
        result = invoke(["fraisse", "build", "--grid", "1,2", "--steps", "3",
                         "--max-size", "3", "--budget-points", "16",
                         "--out", run_dir])
        assert result.exit_code == 3
        manifest = read_json(os.path.join(run_dir, "manifest.json"))
        assert manifest["outcome"]["complete"] is False
        assert os.path.exists(os.path.join(run_dir, "stages", "K_000.json"))
        audited = invoke(["fraisse", "audit", run_dir])
        assert audited.exit_code in (0, 1)


def _halve_distances(doc):
    """``doc`` with each entry of every "dist" matrix in it halved."""
    if isinstance(doc, list):
        return [_halve_distances(x) for x in doc]
    if not isinstance(doc, dict):
        return doc
    return {key: [[d if d == "inf" else str(Fraction(d) / 2) for d in row] for row in value]
            if key == "dist" else _halve_distances(value) for key, value in doc.items()}


def _set(rel, path, value):
    """A run-directory edit: set the node at ``path`` (a key list) of ``rel``."""
    def edit(run_dir):
        file = os.path.join(run_dir, rel)
        doc = read_json(file)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        write_json(file, doc)
    return edit


def _replace(rel, payload):
    def edit(run_dir):
        file = os.path.join(run_dir, rel)
        if isinstance(payload, bytes):
            with open(file, "wb") as fh:
                fh.write(payload)
        else:
            write_json(file, payload)
    return edit


def _reference_outside(run_dir):
    outside = os.path.join(os.path.dirname(run_dir), "outside.json")
    write_json(outside, read_json(os.path.join(run_dir, "stages", "K_000.json")))
    _set("embeddings/k_000_001.json", ["dom"], "../outside.json")(run_dir)


BAD_RUN_DIRS = {
    "span-record-without-keys": _set("spans/step_000.json", ["processed"], [{}]),
    "span-log-not-an-object": _replace("spans/step_000.json", []),
    "manifest-not-an-object": _replace("manifest.json", []),
    "max-size-string": _set("manifest.json", ["grid", "max_size"], "x"),
    "max-size-negative": _set("manifest.json", ["grid", "max_size"], -1),
    "max-size-bool": _set("manifest.json", ["grid", "max_size"], True),
    "grid-values-not-an-array": _set("manifest.json", ["grid", "values"], "1,2"),
    "stage-reference-outside-the-run": _reference_outside,
    "stage-not-utf8": _replace("stages/K_001.json", b"\xff\xfe"),
    "stage-size-differs-from-manifest": _set("manifest.json", ["outcome", "stages"], [0, 1, 5]),
}


# A decoder branch of a run directory per case, with the pointer its
# SchemaError names.
POINTED_RUN_DIRS = {
    "outcome-not-an-object": (_set("manifest.json", ["outcome"], []),
                              "manifest.json#/outcome"),
    "complete-not-a-boolean": (_set("manifest.json", ["outcome", "complete"], 1),
                               "manifest.json#/outcome/complete"),
    "no-stages-listed": (_set("manifest.json", ["outcome", "stages"], []),
                         "manifest.json#/outcome/stages"),
    "coverage-not-a-boolean": (_set("spans/step_000.json", ["coverage_complete"], "yes"),
                               "spans/step_000.json#/coverage_complete"),
    "span-legs-from-different-domains": (
        _set("spans/step_000.json", ["processed", 0, "h"],
             map_to_json(MetMap(one_point(), one_point(), (0,)))),
        "spans/step_000.json#/processed/0"),
    "embedding-not-into-the-next-stage": (
        _set("embeddings/k_000_001.json", ["cod"], "stages/K_000.json"),
        "embeddings/k_000_001.json#"),
    "stage-with-negative-points": (_replace("stages/K_000.json", {"points": -1, "dist": []}),
                                   "stages/K_000.json#/points"),
}


class TestOutOfRangeArguments:
    """Counts below zero, worker counts below one and grid distances of zero
    are usage errors: exit code 2 and a message, never a traceback or a
    silently clamped run."""

    @pytest.mark.parametrize("args", [
        ["fraisse", "build", "--grid", "0", "--steps", "1", "--max-size", "1"],
        ["fraisse", "enumerate", "--grid", "0,1", "--max-size", "2"],
        ["fraisse", "enumerate", "--grid", "1", "--max-size", "-1"],
        ["fraisse", "build", "--grid", "1", "--steps", "-3"],
        ["fraisse", "build", "--grid", "1", "--steps", "1", "--max-size", "-1"],
        ["laws", "run", "--trials", "-1"],
        ["laws", "run", "--trials", "1", "--budget", "-1"],
        ["laws", "run", "--trials", "1", "--workers", "0"],
        ["laws", "run", "--trials", "1", "--workers", "-1"],
        ["space", "canon", "DOC", "--budget-nodes", "-1"],
        ["colimit", "pushout", "--eps", "1", "--in", "DOC", "--budget-nodes", "-1"],
        ["colimit", "coequalizer", "--eps", "1", "--in", "DOC", "--budget-nodes", "-1"],
        ["colimit", "diagram", "--eps", "1", "--in", "DOC", "--budget-nodes", "-1"],
        ["colimit", "diagram", "--eps", "1", "--in", "DOC", "--budget-points", "-1"],
        ["check", "injective", "--eps", "1", "--subject", "DOC", "--in", "DOC",
         "--budget-nodes", "-1"],
        ["check", "split", "--eps", "1", "--in", "DOC", "--budget-nodes", "-1"],
        ["check", "pure", "--eps", "1", "--in", "DOC", "--budget-nodes", "-1"],
        ["check", "mono", "--eps", "1", "--in", "DOC", "--budget-nodes", "-1"],
        ["fraisse", "enumerate", "--grid", "1", "--max-size", "2", "--budget-nodes", "-1"],
        ["fraisse", "build", "--grid", "1", "--steps", "1", "--budget-nodes", "-1"],
        ["fraisse", "build", "--grid", "1", "--steps", "1", "--budget-points", "-1"],
        ["fraisse", "audit", "DIR", "--budget-nodes", "-1"],
    ], ids=["build-grid-0", "enumerate-grid-0", "enumerate-max-size", "build-steps",
            "build-max-size", "laws-trials", "laws-budget",
            "laws-workers-0", "laws-workers-negative", "canon-budget-nodes",
            "pushout-budget-nodes", "coequalizer-budget-nodes", "diagram-budget-nodes",
            "diagram-budget-points", "injective-budget-nodes", "split-budget-nodes",
            "pure-budget-nodes", "mono-budget-nodes", "enumerate-budget-nodes",
            "build-budget-nodes", "build-budget-points", "audit-budget-nodes"])
    def test_exits_2_without_a_run(self, tmp_path, args):
        # DOC is a valid space document and DIR an existing directory, so
        # that only the argument under test is out of range.
        paths = {"DOC": write_doc(tmp_path, "doc.json", space_to_json(PATH3)),
                 "DIR": str(tmp_path)}
        args = [paths.get(a, a) for a in args]
        if args[:2] == ["fraisse", "build"]:
            args = [*args, "--out", str(tmp_path / "run")]
        result = invoke(args)
        assert result.exit_code == 2
        assert "Invalid value" in result.output
        assert "Traceback" not in result.output
        assert not os.path.exists(tmp_path / "run")


class TestRunDirectoryErrors:
    @staticmethod
    def _build(tmp_path, steps=2):
        run_dir = str(tmp_path / "run")
        built = invoke(["fraisse", "build", "--grid", "1", "--steps", str(steps),
                        "--max-size", "2", "--out", run_dir])
        assert built.exit_code == 0
        return run_dir

    @pytest.mark.parametrize("case", sorted(BAD_RUN_DIRS))
    def test_malformed_run_directory_is_a_schema_error(self, tmp_path, case):
        run_dir = self._build(tmp_path)
        BAD_RUN_DIRS[case](run_dir)
        result = invoke(["fraisse", "audit", run_dir])
        assert result.exit_code == 2
        assert "schema error" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("case", sorted(POINTED_RUN_DIRS))
    def test_schema_error_names_its_pointer(self, tmp_path, case):
        edit, pointer = POINTED_RUN_DIRS[case]
        run_dir = self._build(tmp_path)
        edit(run_dir)
        with pytest.raises(SchemaError) as err:
            load_chain(run_dir)
        assert err.value.pointer == pointer
        result = invoke(["fraisse", "audit", run_dir])
        assert result.exit_code == 2
        assert f"schema error at {pointer}:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("payload", [b"{oops", b"\xff\xfe"])
    def test_broken_stage_file_is_named(self, tmp_path, payload):
        run_dir = self._build(tmp_path, steps=3)
        _replace("stages/K_003.json", payload)(run_dir)
        result = invoke(["fraisse", "audit", run_dir])
        assert result.exit_code == 2
        assert "K_003.json" in result.stderr
        assert "Traceback" not in result.stderr

    def test_triangle_violation_in_a_stage_fails_the_audit(self, tmp_path):
        run_dir = self._build(tmp_path)
        dist = [["0" if i == j else "1" for j in range(4)] for i in range(4)]
        dist[0][1] = dist[1][0] = "3"
        _replace("stages/K_002.json", {"points": 4, "dist": dist})(run_dir)
        result = invoke(["fraisse", "audit", run_dir])
        assert result.exit_code == 1
        assert "invalid space" in result.stderr
        assert "TriangleViolation(0, 1, 2)" in result.stderr

    def test_shorter_rebuild_replaces_the_longer_one(self, tmp_path):
        run_dir = str(tmp_path / "run")
        build = ["fraisse", "build", "--grid", "1,2", "--max-size", "2", "--out", run_dir]
        assert invoke(build + ["--steps", "3"]).exit_code == 0
        assert invoke(["fraisse", "audit", run_dir]).exit_code == 0
        assert invoke(build + ["--steps", "1"]).exit_code == 0
        assert sorted(os.listdir(os.path.join(run_dir, "stages"))) == [
            "K_000.json", "K_001.json"]
        assert not os.path.exists(os.path.join(run_dir, "audit.json"))
        audited = invoke(["fraisse", "audit", run_dir])
        assert audited.exit_code == 0
        assert len(json.loads(audited.stdout)["stages"]) == 1


def _files(root):
    return sorted(os.path.relpath(os.path.join(top, name), root)
                  for top, dirs, names in os.walk(root) for name in dirs + names)


# Every command with --budget-nodes but fraisse build, which persists a partial
# run when its budget runs out. RUN stands for a built run directory.
BUDGETED = {
    **{name: args for name, args in DOCUMENTS.items() if name != "laws"},
    "audit": ["fraisse", "audit", "RUN"],
    "mono-family": [*DOCUMENTS["mono"], "--family", FAMILY],
    "pure-family": [*DOCUMENTS["pure"], "--family", FAMILY],
}


# The nodes each of them spends: its searches, cocones checked, tester loops
# and the canonical forms of the probe family.
LEAST_NODES = {"audit": 37, "canon": 5, "coequalizer": 124, "diagram": 1755, "enumerate": 83,
               "injective": 25, "mono": 1, "mono-family": 14, "pure": 9, "pure-family": 151,
               "pushout": 480, "split": 3}


def _budgeted(command, tmp_path):
    return [TestRunDirectoryErrors._build(tmp_path) if a == "RUN" else a
            for a in BUDGETED[command]]

# Each command's parameters in declaration order: opts, then ":" and the type
# name, "!" when required, "=" and the default when there is one. The --help
# screens are rendered from exactly these.
PARAMETERS = {
    "check injective": "--eps:rational! --subject:file! --in:file! --out:file "
                       "--budget-nodes:integer range",
    "check mono": "--eps:rational! --family:file --in:file! --out:file "
                  "--budget-nodes:integer range",
    "check pure": "--eps:rational! --variant:choice=pure --family:file --in:file! "
                  "--out:file --budget-nodes:integer range",
    "check split": "--eps:rational! --in:file! --out:file --budget-nodes:integer range",
    "colimit coequalizer": "--eps:rational! --in:file! --out:file --verify:boolean=False "
                           "--budget-nodes:integer range",
    "colimit diagram": "--eps:rational! --in:file! --out:file --verify:boolean=False "
                       "--budget-points:integer range --budget-nodes:integer range",
    "colimit pushout": "--eps:rational! --in:file! --out:file --verify:boolean=False "
                       "--budget-nodes:integer range",
    "fraisse audit": "run_dir:directory! --budget-nodes:integer range",
    "fraisse build": "--grid:grid! --steps:integer range! --max-size:integer range "
                     "--policy:choice=iso-skip --seed:integer=0 --out:directory! "
                     "--budget-points:integer range=256 --budget-nodes:integer range",
    "fraisse enumerate": "--grid:grid! --max-size:integer range! --out:file "
                         "--budget-nodes:integer range",
    "laws run": "--seed:integer=0 --trials:integer range=40 --budget:integer range=4 "
                "--workers:integer range --out:file",
    "space canon": "file:file! --out:file --budget-nodes:integer range",
    "space validate": "file:file!",
}


class TestCommandContract:
    """What every command shares: the --out document, the node budget, the
    parameters behind --help, and the exit code of a failed write."""

    @pytest.mark.parametrize("command", sorted(DOCUMENTS))
    def test_stdout_is_the_out_file(self, tmp_path, command):
        out = str(tmp_path / "out.json")
        printed = invoke(DOCUMENTS[command])
        written = invoke([*DOCUMENTS[command], "--out", out])
        assert printed.exit_code == written.exit_code == 0
        assert written.stdout == ""
        with open(out, "rb") as fh:
            assert fh.read() == printed.stdout_bytes

    @pytest.mark.parametrize("command", sorted(BUDGETED))
    def test_zero_node_budget_exits_3_without_output(self, tmp_path, command):
        out = str(tmp_path / "out.json")
        args = _budgeted(command, tmp_path)
        if command != "audit":
            args += ["--out", out]
        result = invoke([*args, "--budget-nodes", "0"])
        assert result.exit_code == 3
        assert result.stderr.startswith("budget exceeded:")
        assert result.stdout == ""
        assert not os.path.exists(out)
        assert not os.path.exists(tmp_path / "run" / "audit.json")

    @pytest.mark.parametrize("command", sorted([*BUDGETED, "build"]))
    def test_non_integer_node_budget_is_a_usage_error(self, tmp_path, monkeypatch, command):
        args = _budgeted(command, tmp_path) if command != "build" else [
            "fraisse", "build", "--grid", "1", "--steps", "1", "--out", str(tmp_path / "built")]
        monkeypatch.setenv("METRICAT_BUDGET_NODES", "x")
        result = invoke(args)
        assert result.exit_code == 2
        assert "METRICAT_BUDGET_NODES is not an integer" in result.stderr
        assert "Traceback" not in result.stderr
        assert not os.path.exists(tmp_path / "built")

    def test_only_the_command_line_reads_the_node_cap(self, monkeypatch):
        # The variable caps a command's --budget-nodes; a library call is
        # bounded by its max_nodes= alone.
        monkeypatch.setenv("METRICAT_BUDGET_NODES", "0")
        homsearch.clear_caches()
        assert len(homsearch.hom_set(PATH3, PATH3)) == 17
        assert purity(map_from_json(read_json(SECTION)), 0) == (True, None)
        result = invoke(DOCUMENTS["pure"])
        assert result.exit_code == 3
        assert result.stderr == ("budget exceeded: search spent 1 nodes, "
                                 "over the node budget of 0\n")

    def test_parameters_keep_their_order_and_defaults(self):
        seen = {}
        for group_name, group in main.commands.items():
            for name, command in group.commands.items():
                seen[f"{group_name} {name}"] = " ".join(
                    "/".join(p.opts) + ":" + p.type.name + ("!" if p.required else "")
                    + ("" if p.required or p.default is None else f"={p.default}")
                    for p in command.params)
        assert seen == PARAMETERS

    @pytest.mark.parametrize("case", ["pushout", "build", "audit"])
    def test_unwritable_output_is_an_error(self, tmp_path, case):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        if case == "pushout":
            args = [*DOCUMENTS["pushout"], "--out", str(blocker / "x.json")]
        elif case == "build":
            args = ["fraisse", "build", "--grid", "1", "--steps", "1",
                    "--out", str(blocker / "run")]
        else:
            run_dir = TestRunDirectoryErrors._build(tmp_path)
            os.mkdir(os.path.join(run_dir, "audit.json"))
            args = ["fraisse", "audit", run_dir]
        before = _files(tmp_path)
        result, again = invoke(args), invoke(args)
        assert result.exit_code == again.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert result.stderr == again.stderr
        assert ".tmp" not in result.stderr
        assert "Traceback" not in result.output
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("command", sorted(BUDGETED))
    def test_budget_outcome_does_not_depend_on_the_caches(self, tmp_path, command):
        # The least budget that passes with cold caches, the whole command's
        # nodes, passes, and one node less exits 3, with cold caches and
        # after a run that warmed them.
        args = _budgeted(command, tmp_path)

        def run(nodes, warm=False):
            homsearch.clear_caches()
            canonical.clear_cache()
            colimits.clear_cache()
            if warm:
                invoke(args)
            return invoke([*args, "--budget-nodes", str(nodes)])

        passed = invoke(args).exit_code
        low, high = 0, 1
        while run(high).exit_code == 3:
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if run(mid).exit_code == 3 else (low, mid)
        assert high == LEAST_NODES[command]
        for warm in (False, True):
            assert run(high, warm).exit_code == passed
            short = run(high - 1, warm)
            assert short.exit_code == 3
            spent = re.fullmatch(r"budget exceeded: search spent (\d+) nodes, "
                                 rf"over the node budget of {high - 1}\n", short.stderr)
            assert int(spent[1]) == high
