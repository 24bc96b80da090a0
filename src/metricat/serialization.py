"""JSON encoding and validated decoding for every on-disk format.

Canonical text is `json.dumps(..., indent=2, sort_keys=True)` plus a trailing
newline; saving a loaded canonical document reproduces it byte for byte.
Decoding is strict: malformed shapes raise SchemaError carrying a JSON-pointer
path, while legal but non-canonical spellings (an unreduced fraction, a bare
integer distance) are accepted and reported in the warnings list.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING, Any, Callable

from .errors import SchemaError
from .extrat import ExtRat
from .spaces import MetMap, Space

if TYPE_CHECKING:
    from .colimits import FinDiagram


# ---------------------------------------------------------------- primitives

def rat_to_json(x: ExtRat) -> str:
    return str(x)


def rat_from_json(node: Any, pointer: str, warnings: list[str]) -> ExtRat:
    if isinstance(node, bool):
        raise SchemaError("expected a rational string", pointer)
    if isinstance(node, int):
        if node < 0:
            raise SchemaError("negative distance", pointer)
        warnings.append(f"{pointer}: integer literal accepted, canonical form is a string")
        return ExtRat(node)
    if not isinstance(node, str):
        raise SchemaError("expected a rational string like \"3/2\" or \"inf\"", pointer)
    try:
        value = ExtRat.parse(node)
    except ValueError as exc:
        raise SchemaError(str(exc), pointer) from None
    if str(value) != node:
        warnings.append(f"{pointer}: non-canonical rational {node!r} normalized to {value}")
    return value


def _expect_object(node: Any, pointer: str, keys: tuple[str, ...],
                   optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(node, dict):
        raise SchemaError("expected an object", pointer)
    for k in keys:
        if k not in node:
            raise SchemaError(f"missing key {k!r}", pointer)
    for k in node:
        if k not in keys and k not in optional:
            raise SchemaError(f"unexpected key {k!r}", f"{pointer}/{k}")
    return node


def _expect_list(node: Any, pointer: str) -> list:
    if not isinstance(node, list):
        raise SchemaError("expected an array", pointer)
    return node


def _expect_int(node: Any, pointer: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise SchemaError("expected an integer", pointer)
    return node


# --------------------------------------------------------------------- space

def space_to_json(space: Space) -> dict:
    doc: dict[str, Any] = {
        "points": space.n,
        "dist": [[rat_to_json(v) for v in row] for row in space.dist],
    }
    if space.labels is not None:
        doc["labels"] = list(space.labels)
    return doc


def space_from_json(node: Any, pointer: str = "", warnings: list[str] | None = None) -> Space:
    w = [] if warnings is None else warnings
    obj = _expect_object(node, pointer, ("points", "dist"), optional=("labels",))
    n = _expect_int(obj["points"], f"{pointer}/points")
    if n < 0:
        raise SchemaError("points must be >= 0", f"{pointer}/points")
    rows = _expect_list(obj["dist"], f"{pointer}/dist")
    if len(rows) != n:
        raise SchemaError(f"dist has {len(rows)} rows, expected {n}", f"{pointer}/dist")
    matrix = []
    canonical: dict[str, ExtRat] = {}  # canonical literals parsed so far
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{pointer}/dist/{i}")
        if len(row) != n:
            raise SchemaError(f"row has {len(row)} entries, expected {n}", f"{pointer}/dist/{i}")
        values = []
        for j, v in enumerate(row):
            value = canonical.get(v) if type(v) is str else None
            if value is None:
                value = rat_from_json(v, f"{pointer}/dist/{i}/{j}", w)
                if type(v) is str and str(value) == v:
                    canonical[v] = value
            values.append(value)
        matrix.append(tuple(values))
    labels = None
    if "labels" in obj:
        raw = _expect_list(obj["labels"], f"{pointer}/labels")
        if len(raw) != n:
            raise SchemaError(f"{len(raw)} labels for {n} points", f"{pointer}/labels")
        for i, name in enumerate(raw):
            if not isinstance(name, str):
                raise SchemaError("labels must be strings", f"{pointer}/labels/{i}")
        labels = tuple(raw)
    return Space._validated(tuple(matrix), labels)


# ------------------------------------------------------------------ morphism

def map_to_json(m: MetMap, dom_ref: str | None = None, cod_ref: str | None = None) -> dict:
    return {
        "dom": dom_ref if dom_ref is not None else space_to_json(m.dom),
        "cod": cod_ref if cod_ref is not None else space_to_json(m.cod),
        "map": list(m.map),
    }


def map_from_json(node: Any, pointer: str = "", warnings: list[str] | None = None,
                  resolver: Callable[[str], Space | None] | None = None) -> MetMap:
    """Decode a map; a string endpoint is a reference looked up by ``resolver``,
    which returns None for a reference it does not know."""
    w = [] if warnings is None else warnings
    obj = _expect_object(node, pointer, ("dom", "cod", "map"))

    def endpoint(key: str) -> Space:
        sub = obj[key]
        if isinstance(sub, str):
            if resolver is None:
                raise SchemaError("space reference not allowed here", f"{pointer}/{key}")
            space = resolver(sub)
            if space is None:
                raise SchemaError(f"unknown space reference {sub!r}", f"{pointer}/{key}")
            return space
        return space_from_json(sub, f"{pointer}/{key}", w)

    dom = endpoint("dom")
    cod = endpoint("cod")
    return _map_entries(obj["map"], dom, cod, f"{pointer}/map")


def _map_entries(node: Any, dom: Space, cod: Space, pointer: str) -> MetMap:
    """Decode the point list of a map dom -> cod found at ``pointer``."""
    arr = _expect_list(node, pointer)
    if len(arr) != dom.n:
        raise SchemaError(f"map has {len(arr)} entries, expected {dom.n}", pointer)
    idx = []
    for i, v in enumerate(arr):
        v = _expect_int(v, f"{pointer}/{i}")
        if not 0 <= v < cod.n:
            raise SchemaError(f"index {v} out of range [0, {cod.n})", f"{pointer}/{i}")
        idx.append(v)
    try:
        return MetMap(dom, cod, tuple(idx))
    except Exception as exc:
        raise SchemaError(f"not a valid morphism: {exc}", pointer) from None


# ---------------------------------------------------------- pairs & diagrams

def pair_to_json(f: MetMap, g: MetMap) -> dict:
    return {"f": map_to_json(f), "g": map_to_json(g)}


def pair_from_json(node: Any, pointer: str = "", warnings: list[str] | None = None,
                   resolver: Callable[[str], Space | None] | None = None) -> tuple[MetMap, MetMap]:
    obj = _expect_object(node, pointer, ("f", "g"))
    f = map_from_json(obj["f"], f"{pointer}/f", warnings, resolver)
    g = map_from_json(obj["g"], f"{pointer}/g", warnings, resolver)
    if f.dom.dist != g.dom.dist:
        raise SchemaError("f and g must share their domain", f"{pointer}/g/dom")
    if f.dom != g.dom:
        # same matrix, different labels: normalize onto f's domain
        g = MetMap(f.dom, g.cod, g.map)
    return f, g


def diagram_to_json(diagram: FinDiagram) -> dict:
    return {
        "objects": [space_to_json(s) for s in diagram.objects],
        "arrows": [
            {"src": i, "dst": j, "map": list(m.map)}
            for (i, j, m) in diagram.arrows
        ],
    }


def diagram_from_json(node: Any, pointer: str = "",
                      warnings: list[str] | None = None) -> FinDiagram:
    from .colimits import FinDiagram

    w = [] if warnings is None else warnings
    obj = _expect_object(node, pointer, ("objects", "arrows"))
    raw_objects = _expect_list(obj["objects"], f"{pointer}/objects")
    objects = tuple(
        space_from_json(s, f"{pointer}/objects/{i}", w) for i, s in enumerate(raw_objects)
    )
    arrows = []
    for a, raw in enumerate(_expect_list(obj["arrows"], f"{pointer}/arrows")):
        ptr = f"{pointer}/arrows/{a}"
        entry = _expect_object(raw, ptr, ("src", "dst", "map"))
        src = _expect_int(entry["src"], f"{ptr}/src")
        dst = _expect_int(entry["dst"], f"{ptr}/dst")
        if not 0 <= src < len(objects):
            raise SchemaError(f"src {src} out of range", f"{ptr}/src")
        if not 0 <= dst < len(objects):
            raise SchemaError(f"dst {dst} out of range", f"{ptr}/dst")
        arrows.append((src, dst, _map_entries(entry["map"], objects[src], objects[dst],
                                              f"{ptr}/map")))
    return FinDiagram(objects, tuple(arrows))


def family_to_json(spaces) -> dict:
    return {"spaces": [space_to_json(s) for s in spaces]}


def family_from_json(node: Any, pointer: str = "",
                     warnings: list[str] | None = None) -> tuple[Space, ...]:
    obj = _expect_object(node, pointer, ("spaces",))
    raw = _expect_list(obj["spaces"], f"{pointer}/spaces")
    return tuple(
        space_from_json(s, f"{pointer}/spaces/{i}", warnings) for i, s in enumerate(raw)
    )


# ----------------------------------------------------------------- documents

def dumps_canonical(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg} at line {exc.lineno}", "") from None


def read_json(path: str) -> Any:
    """Parse a JSON file; a SchemaError for a broken file names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8 text in {path}: {exc.reason}", "") from None
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"invalid JSON in {path}: {exc.msg} at line {exc.lineno}", "") from None


def write_json(path: str, payload: Any) -> None:
    """Atomic canonical write: temp file in the target directory, then rename."""
    text = dumps_canonical(payload)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # The temp file is gone and its name random: name the target alone.
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
