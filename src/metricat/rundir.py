"""Run-directory layout for chain builds.

    out/
      manifest.json            command, config, grid, seed, budgets, versions,
                               wall clock, outcome (with every stage's size)
      stages/K_000.json        one space document per stage
      embeddings/k_000_001.json  stage embeddings, endpoints by file reference
      spans/step_000.json      processed span log + skip count per step
      audit.json               written by the auditor

Every document is canonical JSON written atomically; rebuilding a chain with
the same manifest settings reproduces every byte except the manifest's
wall_clock_seconds field.  A directory describes exactly one build: writing
a chain removes the layout files an earlier build left behind, and loading
reads exactly the stages the manifest lists.  Each stage file is parsed and
fully validated once per load; a map's endpoint that refers to a stage
resolves to that one Space, and a reference to anything else is a
SchemaError.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from . import __about__
from .errors import MismatchedEndpoints, SchemaError
from .fraisse import AuditReport, ChainStage, DistanceGrid, Span, SpanRecord
from .serialization import (
    _expect_int, _expect_list, _expect_object, map_from_json, map_to_json,
    rat_from_json, rat_to_json, read_json, space_from_json, space_to_json,
    write_json,
)
from .spaces import Space

MANIFEST = "manifest.json"
AUDIT = "audit.json"
FORMAT_VERSION = 1

# Layout files a build writes, by directory; anything else there is kept.
_LAYOUT = {
    "stages": re.compile(r"K_\d{3,}\.json"),
    "embeddings": re.compile(r"k_\d{3,}_\d{3,}\.json"),
    "spans": re.compile(r"step_\d{3,}\.json"),
}


def _stage_name(n: int) -> str:
    return f"stages/K_{n:03d}.json"


def _embedding_name(n: int) -> str:
    return f"embeddings/k_{n:03d}_{n + 1:03d}.json"


def _span_name(n: int) -> str:
    return f"spans/step_{n:03d}.json"


def grid_to_json(grid: DistanceGrid) -> dict:
    return {"values": [rat_to_json(v) for v in grid.values], "max_size": grid.max_size}


def grid_from_json(node, pointer: str = "") -> DistanceGrid:
    obj = _expect_object(node, pointer, ("values", "max_size"))
    values = tuple(
        rat_from_json(v, f"{pointer}/values/{i}", [])
        for i, v in enumerate(_expect_list(obj["values"], f"{pointer}/values"))
    )
    max_size = _expect_int(obj["max_size"], f"{pointer}/max_size")
    try:
        return DistanceGrid(values, max_size)
    except ValueError as exc:
        raise SchemaError(str(exc), pointer) from None


def _span_record_to_json(record: SpanRecord, stage_ref: str, next_ref: str) -> dict:
    return {
        "u": map_to_json(record.span.u, cod_ref=stage_ref),
        "h": map_to_json(record.span.h),
        "copy": map_to_json(record.copy, cod_ref=next_ref),
    }


def write_chain(out_dir: str, stages, manifest: dict) -> None:
    """Persist every stage, embedding, and span log, then the manifest.

    The manifest's outcome records the size of every stage written.  Layout
    files of an earlier build that this one did not write are removed, so the
    directory holds this build alone.
    """
    written = set()

    def put(name: str, payload) -> None:
        write_json(os.path.join(out_dir, name), payload)
        written.add(name)

    for stage in stages:
        put(_stage_name(stage.index), space_to_json(stage.space))
    for stage in stages:
        if stage.embedding is None:
            continue
        put(
            _embedding_name(stage.index),
            map_to_json(stage.embedding,
                        dom_ref=_stage_name(stage.index),
                        cod_ref=_stage_name(stage.index + 1)),
        )
        put(
            _span_name(stage.index),
            {
                "stratum": stage.stratum,
                "coverage_complete": stage.coverage_complete,
                "skipped": stage.skipped,
                "processed": [
                    _span_record_to_json(r, _stage_name(stage.index),
                                         _stage_name(stage.index + 1))
                    for r in stage.span_log
                ],
            },
        )
    for folder, pattern in _LAYOUT.items():
        path = os.path.join(out_dir, folder)
        if not os.path.isdir(path):
            continue
        for name in os.listdir(path):
            if pattern.fullmatch(name) and f"{folder}/{name}" not in written:
                os.remove(os.path.join(path, name))
    if os.path.exists(os.path.join(out_dir, AUDIT)):
        os.remove(os.path.join(out_dir, AUDIT))
    outcome = {**manifest["outcome"], "stages": [s.space.n for s in stages]}
    write_json(os.path.join(out_dir, MANIFEST), {**manifest, "outcome": outcome})


def make_manifest(command: str, grid: DistanceGrid, policy: str, seed: int,
                  steps: int, budgets: dict, outcome: dict,
                  wall_clock_seconds: float) -> dict:
    return {
        "command": command,
        "config": {"steps": steps, "policy": policy, "seed": seed},
        "grid": grid_to_json(grid),
        "policy": policy,
        "seed": seed,
        "budgets": budgets,
        "versions": {"metricat": __about__.__version__, "format": FORMAT_VERSION},
        "outcome": outcome,
        "wall_clock_seconds": wall_clock_seconds,
    }


@dataclass(frozen=True)
class LoadedRun:
    manifest: dict
    stages: tuple[ChainStage, ...]
    grid: DistanceGrid


def _read(out_dir: str, name: str):
    path = os.path.join(out_dir, name)
    if not os.path.isfile(path):
        raise SchemaError(f"missing file {path}", name)
    return read_json(path)


def _span_log_from_json(node, pointer: str, resolver):
    doc = _expect_object(node, pointer,
                         ("stratum", "coverage_complete", "skipped", "processed"))
    stratum = _expect_int(doc["stratum"], f"{pointer}/stratum")
    skipped = _expect_int(doc["skipped"], f"{pointer}/skipped")
    coverage = doc["coverage_complete"]
    if not isinstance(coverage, bool):
        raise SchemaError("expected a boolean", f"{pointer}/coverage_complete")
    records = []
    for j, raw in enumerate(_expect_list(doc["processed"], f"{pointer}/processed")):
        ptr = f"{pointer}/processed/{j}"
        entry = _expect_object(raw, ptr, ("u", "h", "copy"))
        u = map_from_json(entry["u"], f"{ptr}/u", resolver=resolver)
        h = map_from_json(entry["h"], f"{ptr}/h")
        copy = map_from_json(entry["copy"], f"{ptr}/copy", resolver=resolver)
        try:
            records.append(SpanRecord(Span(u, h), copy))
        except MismatchedEndpoints as exc:
            raise SchemaError(str(exc), ptr) from None
    return tuple(records), skipped, stratum, coverage


def load_chain(out_dir: str) -> LoadedRun:
    """Rebuild the stage list (spaces, embeddings, logs) from disk.

    The stages are the ones ``manifest.outcome.stages`` lists.  A listed
    stage whose file is missing or whose size differs from the manifest, and
    any malformed document, raise SchemaError.
    """
    manifest = _read(out_dir, MANIFEST)
    ptr = f"{MANIFEST}#"
    if not isinstance(manifest, dict):
        raise SchemaError("expected an object", ptr)
    grid = grid_from_json(manifest.get("grid"), f"{ptr}/grid")
    outcome = manifest.get("outcome")
    if not isinstance(outcome, dict):
        raise SchemaError("expected an outcome object", f"{ptr}/outcome")
    complete = outcome.get("complete")
    if not isinstance(complete, bool):
        raise SchemaError("expected a boolean", f"{ptr}/outcome/complete")
    sizes = _expect_list(outcome.get("stages"), f"{ptr}/outcome/stages")
    if not sizes:
        raise SchemaError("no stages listed", f"{ptr}/outcome/stages")

    spaces: dict[str, Space] = {}
    for i, size in enumerate(sizes):
        size = _expect_int(size, f"{ptr}/outcome/stages/{i}")
        name = _stage_name(i)
        space = space_from_json(_read(out_dir, name), f"{name}#")
        if space.n != size:
            raise SchemaError(f"{name} has {space.n} points, the manifest lists {size}",
                              f"{ptr}/outcome/stages/{i}")
        spaces[name] = space

    chain = list(spaces.values())
    stages: list[ChainStage] = []
    for i, space in enumerate(chain[:-1]):
        name = _embedding_name(i)
        embedding = map_from_json(_read(out_dir, name), f"{name}#", resolver=spaces.get)
        if embedding.dom is not space or embedding.cod is not chain[i + 1]:
            raise SchemaError(f"does not embed stage {i} into stage {i + 1}", f"{name}#")
        name = _span_name(i)
        log = _span_log_from_json(_read(out_dir, name), f"{name}#", spaces.get)
        stages.append(ChainStage(i, space, embedding, *log))
    last = len(chain) - 1
    stages.append(ChainStage(last, chain[last], None, (), 0, last, complete))
    return LoadedRun(manifest, tuple(stages), grid)


def audit_to_json(report: AuditReport) -> dict:
    return {
        "ok": report.ok,
        "stages": [
            {
                "stage": audit.stage,
                "checked": audit.checked,
                "missing": [
                    {"stage": w.stage, "h": map_to_json(w.h), "u": map_to_json(w.u)}
                    for w in audit.missing
                ],
            }
            for audit in report.stages
        ],
    }


def write_audit(out_dir: str, doc: dict) -> None:
    write_json(os.path.join(out_dir, AUDIT), doc)
