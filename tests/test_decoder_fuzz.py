"""Fuzzing of every JSON decoder and of run-directory loading.

Each decoder takes arbitrary JSON-shaped values, and valid documents with
one node replaced by such a value.  The only accepted outcomes are a decoded
value, SchemaError and SpaceValidationError: anything else would reach the
CLI as a traceback instead of exit code 2.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricat.colimits import FinDiagram
from metricat.errors import SchemaError, SpaceValidationError
from metricat.extrat import rat
from metricat.fraisse import DistanceGrid, build_chain
from metricat.rundir import load_chain, make_manifest, write_chain
from metricat.serialization import (
    diagram_from_json,
    diagram_to_json,
    family_from_json,
    family_to_json,
    map_from_json,
    map_to_json,
    pair_from_json,
    pair_to_json,
    space_from_json,
    space_to_json,
)
from metricat.spaces import MetMap, one_point, two_point, validate_space

ACCEPTED = (SchemaError, SpaceValidationError)

# Keys of the documents, so that random objects reach past the key checks.
KEYS = ("points", "dist", "labels", "dom", "cod", "map", "f", "g", "objects",
        "arrows", "src", "dst", "spaces", "stages", "outcome", "complete",
        "grid", "values", "max_size", "stratum", "skipped", "processed",
        "coverage_complete", "u", "h", "copy")

ODD_STRINGS = ("", "inf", "-inf", "1/0", "0/0", "-1", "-1/2", "3/2", "6/4", "0",
               "1e3", "0x10", " 1", "1 ", "1//2", "٣", "½", "nan",
               "9" * 5000, "1/" + "9" * 5000, "stages/K_000.json",
               "../manifest.json", "\x00", "\ud800")

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.integers(-(2**70), 2**70)
    | st.sampled_from((10**400, -(10**400)))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(ODD_STRINGS)
    | st.text(max_size=8)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _nodes(doc, path=()):
    """Every node of a JSON document, as the path of keys and indices to it."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _replace(doc, pick: int, value):
    """A copy of ``doc`` with its node number ``pick`` (modulo the node
    count) replaced by ``value``."""
    paths = list(_nodes(doc))
    path = paths[pick % len(paths)]
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


PATH3 = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]], labels=("a", "b", "c"))
F = MetMap(one_point(), PATH3, (1,))
G = MetMap(one_point(), two_point(rat("1/2")), (0,))
DIAGRAM = FinDiagram((one_point(), PATH3, two_point(1)),
                     ((0, 1, MetMap(one_point(), PATH3, (2,))),
                      (1, 2, MetMap(PATH3, two_point(1), (0, 0, 1)))))

DECODERS = (
    (space_from_json, space_to_json(PATH3)),
    (map_from_json, map_to_json(F)),
    (pair_from_json, pair_to_json(F, G)),
    (diagram_from_json, diagram_to_json(DIAGRAM)),
    (family_from_json, family_to_json((PATH3, two_point(1), one_point()))),
)


def _decode_or_reject(decode, doc):
    try:
        decode(doc)
    except ACCEPTED:
        pass


class TestDecoders:
    def test_valid_documents_decode(self):
        for decode, doc in DECODERS:
            decode(doc)

    @settings(max_examples=200)
    @given(st.sampled_from(range(len(DECODERS))), json_values)
    def test_arbitrary_values(self, which, value):
        _decode_or_reject(DECODERS[which][0], value)

    @settings(max_examples=200)
    @given(st.sampled_from(range(len(DECODERS))), st.integers(0, 10**6), json_values)
    def test_documents_with_one_node_replaced(self, which, pick, value):
        decode, doc = DECODERS[which]
        _decode_or_reject(decode, _replace(doc, pick, value))


@pytest.fixture(scope="module")
def base_run(tmp_path_factory) -> str:
    """A two-step run directory over the grid {1, 2} with size cap 2."""
    grid = DistanceGrid((rat(1), rat(2)), 2)
    stages, _ = build_chain(grid, 2)
    manifest = make_manifest("test", grid, "iso-skip", seed=0, steps=2, budgets={},
                             outcome={"complete": True}, wall_clock_seconds=0.0)
    out = str(tmp_path_factory.mktemp("fuzz") / "run")
    write_chain(out, stages, manifest)
    return out


def _run_files(root: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, _, names in os.walk(root) for name in names)


class TestLoadChain:
    def test_base_run_loads(self, base_run):
        run = load_chain(base_run)
        assert [s.space.n for s in run.stages] == [0, 1, 7]

    @settings(max_examples=200)
    @given(which=st.integers(0, 10**6), pick=st.integers(0, 10**6), value=json_values)
    def test_one_mutated_file(self, base_run, which, pick, value):
        base = base_run
        files = _run_files(base)
        name = files[which % len(files)]
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "run")
            shutil.copytree(base, out)
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                doc = json.load(fh)
            with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                json.dump(_replace(doc, pick, value), fh)
            try:
                load_chain(out)
            except ACCEPTED:
                pass
