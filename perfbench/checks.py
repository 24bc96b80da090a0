"""Output checkers, written apart from the program.

Each checker takes an op's output and returns ``None`` when it is right or
a one-line reason when it is wrong.  They read distances and index tuples
directly and call no search or construction of the package; the reference
computations they need come from ``tests/oracles.py`` (union-find colimits
and simple-path closures) or are written out below.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from types import SimpleNamespace

from metricat.errors import SpaceValidationError
from metricat.extrat import INF, ZERO


def load_oracles(root: str):
    """Import ``tests/oracles.py`` of the checkout without importing ``tests``."""
    import importlib.util

    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("metricat_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------ primitives

def _is_nonexpansive(dom, cod, arr) -> bool:
    return all(cod[arr[i]][arr[j]] <= dom[i][j]
               for i in range(len(dom)) for j in range(i + 1, len(dom)))


def _is_isometric(dom, cod, arr) -> bool:
    return all(cod[arr[i]][arr[j]] == dom[i][j]
               for i in range(len(dom)) for j in range(len(dom)))


def isometric(a, b) -> bool:
    """Whether two distance matrices are isometric, by pruned backtracking."""
    n = len(a)
    if n != len(b):
        return False
    profile_a = [sorted(row, key=_key) for row in a]
    profile_b = [sorted(row, key=_key) for row in b]
    if sorted(map(_keys, profile_a)) != sorted(map(_keys, profile_b)):
        return False
    image = [0] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        for p in range(n):
            if used[p] or profile_b[p] != profile_a[i]:
                continue
            if all(b[p][image[j]] == a[i][j] for j in range(i)):
                image[i], used[p] = p, True
                if place(i + 1):
                    return True
                used[p] = False
        return False

    return place(0)


def _key(x):
    return (1, 0) if x.is_infinite else (0, Fraction(x.numerator, x.denominator))


def _keys(row):
    return tuple(_key(x) for x in row)


def _bridged_closure_matches(oracles, base, bridges, apex, leg_of) -> str | None:
    """Apex distances equal the simple-path closure of the bridged base."""
    rows = [list(r) for r in base]
    for p, q, e in bridges:
        if p != q and e < rows[p][q]:
            rows[p][q] = rows[q][p] = e
    closed = oracles.simple_path_closure(rows)
    n = len(rows)
    image = [leg_of(x) for x in range(n)]
    if sorted(set(image)) != list(range(len(apex))):
        return "legs do not cover the apex"
    for x in range(n):
        for y in range(n):
            if apex[image[x]][image[y]] != closed[x][y]:
                return f"apex distance at ({x}, {y}) is not the path closure"
    return None


def _metric(space) -> str | None:
    try:
        space.assert_metric()
    except SpaceValidationError as exc:
        return f"apex is not a metric space: {exc}"
    return None


def _block_base(spaces):
    total = sum(s.n for s in spaces)
    base = [[INF] * total for _ in range(total)]
    off = 0
    offsets = []
    for s in spaces:
        offsets.append(off)
        for i in range(s.n):
            base[off + i][off + i] = ZERO
            for j in range(s.n):
                base[off + i][off + j] = s.dist[i][j]
        off += s.n
    return base, offsets


# ----------------------------------------------------------- corpus-verify

def check_pushout(oracles, f, g, eps, result, report, closure: bool) -> str | None:
    """An eps-pushout of the span (f: A -> B, g: A -> C)."""
    apex = result.apex.dist
    bad = _metric(result.apex)
    if bad:
        return bad
    B, C = f.cod, g.cod
    lg, lf = result.leg_g.map, result.leg_f.map
    if len(lg) != B.n or len(lf) != C.n:
        return "legs have the wrong domains"
    if not (_is_nonexpansive(B.dist, apex, lg) and _is_nonexpansive(C.dist, apex, lf)):
        return "a leg expands a distance"
    for a in range(f.dom.n):
        if apex[lg[f.map[a]]][lf[g.map[a]]] > eps:
            return f"square does not close within {eps} at point {a}"
    if not report.ok:
        return f"verify_pushout rejected: {report.counterexample.kind}"
    if eps == ZERO:
        diagram = SimpleNamespace(objects=(f.dom, B, C), arrows=((0, 1, f), (0, 2, g)))
        if not isometric(apex, oracles.ordinary_colimit_oracle(diagram).dist):
            return "apex at eps 0 is not the union-find colimit"
    if closure:
        base, (_, off) = _block_base((B, C))
        bridges = [(f.map[a], off + g.map[a], eps) for a in range(f.dom.n)]
        return _bridged_closure_matches(
            oracles, base, bridges, apex,
            lambda x: lg[x] if x < off else lf[x - off])
    return None


def check_coequalizer(oracles, f, g, eps, result, report, closure: bool) -> str | None:
    """An eps-coequalizer of the parallel pair (f, g: A -> B)."""
    apex = result.apex.dist
    bad = _metric(result.apex)
    if bad:
        return bad
    leg = result.leg.map
    if len(leg) != f.cod.n or not _is_nonexpansive(f.cod.dist, apex, leg):
        return "leg is not a non-expansive map from the codomain"
    for a in range(f.dom.n):
        if apex[leg[f.map[a]]][leg[g.map[a]]] > eps:
            return f"leg does not coequalize within {eps} at point {a}"
    if not report.ok:
        return f"verify_coequalizer rejected: {report.counterexample.kind}"
    if eps == ZERO:
        diagram = SimpleNamespace(objects=(f.dom, f.cod), arrows=((0, 1, f), (0, 1, g)))
        if not isometric(apex, oracles.ordinary_colimit_oracle(diagram).dist):
            return "apex at eps 0 is not the union-find quotient"
    if closure:
        bridges = [(f.map[a], g.map[a], eps) for a in range(f.dom.n)]
        return _bridged_closure_matches(oracles, f.cod.dist, bridges, apex,
                                        lambda x: leg[x])
    return None


def check_colimit(oracles, diagram, eps, result, report, closure: bool) -> str | None:
    """An eps-colimit of a finite diagram."""
    apex = result.apex.dist
    bad = _metric(result.apex)
    if bad:
        return bad
    legs = [leg.map for leg in result.legs]
    if len(legs) != len(diagram.objects):
        return "one leg per object expected"
    for obj, leg in zip(diagram.objects, legs):
        if len(leg) != obj.n or not _is_nonexpansive(obj.dist, apex, leg):
            return "a leg is not a non-expansive map from its object"
    for i, j, m in diagram.arrows:
        for x in range(m.dom.n):
            if apex[legs[i][x]][legs[j][m.map[x]]] > eps:
                return f"cocone does not commute within {eps}"
    if not report.ok:
        return f"verify_colimit rejected: {report.counterexample.kind}"
    if eps == ZERO and not isometric(
            apex, oracles.ordinary_colimit_oracle(diagram).dist):
        return "apex at eps 0 is not the union-find colimit"
    if closure:
        base, offs = _block_base(diagram.objects)
        bridges = [(offs[i] + x, offs[j] + m.map[x], eps)
                   for i, j, m in diagram.arrows for x in range(m.dom.n)]
        owner = [(k, x) for k, o in enumerate(diagram.objects) for x in range(o.n)]
        return _bridged_closure_matches(
            oracles, base, bridges, apex, lambda p: legs[owner[p][0]][owner[p][1]])
    return None


# -------------------------------------------------------------------- laws

LAW_COUNT = 28


def check_law(result, law_id: str, trials: int, registered: int) -> str | None:
    if registered != LAW_COUNT:
        return f"{registered} laws registered, {LAW_COUNT} expected"
    if result.law_id != law_id or result.trials != trials:
        return f"report for {result.law_id} x{result.trials}, asked {law_id} x{trials}"
    if result.failures or result.counterexample is not None:
        return f"law {law_id} failed {result.failures} of {trials} trials"
    if result.held + result.vacuous != trials:
        return f"law {law_id}: held + vacuous != trials"
    return None


def check_collapse_verdicts(verdicts) -> str | None:
    """The collapse chain is split at its gap, not mono there, mono at twice it."""
    split, mono, mono_twice = verdicts
    if (split, mono, mono_twice) != (True, False, True):
        return f"collapse verdicts (split, mono, mono at twice) = {verdicts}"
    return None


# ------------------------------------------------------------ chain-gather

def check_chain(stages) -> str | None:
    """Stage embeddings are isometries and every span record commutes."""
    for n, stage in enumerate(stages):
        if stage.index != n:
            return f"stage {n} carries index {stage.index}"
        k = stage.embedding
        if k is None:
            if n + 1 != len(stages):
                return f"stage {n} has no embedding"
            continue
        nxt = stages[n + 1].space
        if len(k.map) != stage.space.n or k.cod.dist != nxt.dist:
            return f"embedding {n} does not run from stage {n} to stage {n + 1}"
        if not _is_isometric(stage.space.dist, nxt.dist, k.map):
            return f"embedding {n} is not an isometry"
        for r, record in enumerate(stage.span_log):
            u, h, copy = record.span.u.map, record.span.h.map, record.copy.map
            if record.span.u.cod.dist != stage.space.dist:
                return f"span {r} of step {n} is not anchored in stage {n}"
            if record.copy.cod.dist != nxt.dist:
                return f"copy {r} of step {n} does not land in stage {n + 1}"
            if not _is_isometric(record.span.h.cod.dist, nxt.dist, copy):
                return f"copy {r} of step {n} is not an isometry"
            if any(copy[h[x]] != k.map[u[x]] for x in range(len(u))):
                return f"span {r} of step {n} does not commute"
    return None


def check_audit(report) -> str | None:
    if not report.ok or any(s.missing for s in report.stages):
        return "saturation audit found missing extensions"
    if not report.stages or not all(s.checked for s in report.stages):
        return "saturation audit checked nothing"
    return None


def check_gather(space, h, isometric_u: bool, output) -> str | None:
    spans, skipped = output
    if skipped < 0:
        return "negative skip count"
    for s in spans:
        if s.h is not h and s.h != h:
            return "span carries another isometry"
        u = s.u
        if u.cod.dist != space.dist or u.dom.dist != h.dom.dist:
            return "span anchor has the wrong endpoints"
        ok = (_is_isometric if isometric_u else _is_nonexpansive)(
            u.dom.dist, space.dist, u.map)
        if not ok:
            return "gathered u is not " + ("isometric" if isometric_u else "non-expansive")
    return None


# -------------------------------------------------------------- cli-rundir

_STAGE_NAME = re.compile(r"^K_(\d{3})\.json$")


def _cli_json(proc) -> tuple[dict | None, str | None]:
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout), None
    except ValueError:
        return None, "stdout is not JSON"


def check_build(proc, run_dir: str) -> str | None:
    if proc.returncode != 0:
        return f"fraisse build exited {proc.returncode}"
    return check_run_dir(run_dir)


def check_run_dir(run_dir: str) -> str | None:
    """The directory holds exactly the stages its manifest lists."""
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    outcome = manifest.get("outcome", {})
    sizes = outcome.get("stages")
    if not outcome.get("complete") or not isinstance(sizes, list):
        return "manifest does not describe a complete build"
    names = sorted(os.listdir(os.path.join(run_dir, "stages")))
    indices = []
    for name in names:
        m = _STAGE_NAME.match(name)
        if not m:
            return f"unexpected file stages/{name}"
        indices.append(int(m.group(1)))
    if indices != list(range(len(sizes))):
        return f"stage files {indices} but manifest lists {len(sizes)} stages"
    for i, size in enumerate(sizes):
        with open(os.path.join(run_dir, "stages", names[i]), encoding="utf-8") as fh:
            if json.load(fh).get("points") != size:
                return f"stage {i} does not have the {size} points listed"
    return None


def check_audit_cli(proc, run_dir: str) -> str | None:
    doc, bad = _cli_json(proc)
    if bad:
        return f"fraisse audit: {bad}"
    if doc.get("ok") is not True:
        return "audit JSON does not say ok"
    with open(os.path.join(run_dir, "audit.json"), encoding="utf-8") as fh:
        if json.load(fh).get("ok") is not True:
            return "audit.json does not say ok"
    return check_run_dir(run_dir)


def check_pushout_cli(proc) -> str | None:
    doc, bad = _cli_json(proc)
    if bad:
        return f"colimit pushout: {bad}"
    verification = doc.get("verification") or {}
    if verification.get("ok") is not True or not verification.get("checked"):
        return "pushout verification does not say ok"
    return None


def check_pure_cli(proc) -> str | None:
    doc, bad = _cli_json(proc)
    if bad:
        return f"check pure: {bad}"
    if doc.get("ok") is not True:
        return "split mono reported not pure"
    return None
