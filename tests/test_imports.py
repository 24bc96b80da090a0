"""What importing the package and starting the CLI loads.

Each check runs in a fresh interpreter, so it sees only the modules that
its own import or command pulled in.
"""

import json
import os
import re
import subprocess
import sys
import types

import pytest
from click.testing import CliRunner

import metricat
from metricat.cli import main
from metricat.fraisse import POLICIES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(metricat.__file__)))

# Modules no command line start-up or help text may load.
HEAVY = ("metricat.laws", "metricat.verify", "metricat.fraisse",
         "metricat.injectivity", "concurrent.futures.process")

# ``metricat.__all__`` as the package exported it when it imported every
# submodule eagerly; the 13 submodule names were bound as a side effect.
PUBLIC = (
    "ApproxInjReport AuditReport BudgetExceeded CanonicalResult ChainStage "
    "CorpusConfig Counterexample CylinderResult DEFAULT_NODE_BUDGET "
    "DEFAULT_POINT_BUDGET DEFAULT_SPAN_BUDGET DEFAULT_STAGE_POINT_BUDGET "
    "DistanceGrid EpsCoequalizerResult EpsColimitResult EpsPushoutResult ExtRat "
    "FinDiagram INF InjReport InjVerdict InvalidMorphism IsometryCatalog LawReport "
    "LawResult MetMap MetricatError MismatchedEndpoints NodeBudget PuritySquare "
    "Reflection SchemaError Semimetric SizeOverflow Space SpaceValidationError Span "
    "SpanPolicy SpanRecord TestFamily VerifyReport Violation ZERO are_isomorphic "
    "audit_saturation automorphisms budgets build_chain canonical canonical_form "
    "canonical_witness catalog_isometries chain_step colimits comparison compose "
    "coproduct corpus cylinder cylinder_factorization empty_space enumerate_spaces "
    "eps_coequalizer eps_colimit eps_pushout errors extrat fraisse gather_spans "
    "hom_dist hom_set homsearch identity inj_class injectivity injectivity_defect "
    "is_approx_injective is_eps_homotopic is_eps_injective is_eps_mono is_eps_split "
    "is_isometry isometric_fillers isometry_set law_harness laws node_ceiling "
    "one_point product purity pushout rat reflect run_law semimetric_of "
    "semimetric_of_space serialization spaces subspace two_point validate_space "
    "verify verify_coequalizer verify_colimit verify_pushout"
).split()
SUBMODULES = {"budgets", "canonical", "colimits", "corpus", "errors", "extrat", "fraisse",
              "homsearch", "injectivity", "laws", "serialization", "spaces", "verify"}


def fresh(code: str):
    """Run ``code`` in a new interpreter; return its last line of output,
    read as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(statement: str) -> list[str]:
    return fresh(
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))\n")


def test_import_cli_loads_no_command_module():
    assert loaded_after("import metricat.cli") == []


@pytest.mark.parametrize("args", [["--help"], ["colimit", "pushout", "--help"]],
                         ids=["metricat", "colimit-pushout"])
def test_help_loads_no_command_module(args):
    run = f"from metricat.cli import main\ntry:\n    main({args!r})\nexcept SystemExit:\n    pass"
    assert loaded_after(run) == []


def test_all_is_unchanged_and_resolves():
    assert metricat.__all__ == sorted(PUBLIC)
    assert len(PUBLIC) == 105
    for name in PUBLIC:
        value = getattr(metricat, name)
        assert isinstance(value, types.ModuleType) == (name in SUBMODULES), name
    assert set(PUBLIC) <= set(dir(metricat))


def test_reflect_stays_the_function_once_its_module_loads():
    kinds = fresh(
        "import json\nimport metricat.reflect, metricat.colimits\n"
        "from metricat import reflect\n"
        "print(json.dumps([callable(reflect), callable(metricat.reflect)]))\n")
    assert kinds == [True, True]


def test_star_import_and_unknown_names():
    names = fresh("import json\nfrom metricat import *\nprint(json.dumps(sorted(dir())))\n")
    assert set(PUBLIC) <= set(names)
    with pytest.raises(AttributeError, match="nope"):
        metricat.nope


def test_build_help_lists_the_policies():
    result = CliRunner().invoke(main, ["fraisse", "build", "--help"])
    listed = re.search(r"--policy \[([^\]]*)\]", result.output).group(1)
    assert listed.split("|") == sorted(POLICIES)
