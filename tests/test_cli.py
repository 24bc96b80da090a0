import json
import os

import pytest
from click.testing import CliRunner

from metricat.cli import main
from metricat.colimits import FinDiagram
from metricat.serialization import (
    diagram_to_json,
    family_to_json,
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


def invoke(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


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
}


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
        result = invoke(args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output
        assert _files(tmp_path) == before
