"""Per-layer tracing by wrapping the public functions of metricat's modules.

Nothing inside ``src/`` is changed: ``Tracer.install`` replaces every public
module-level function of the traced modules with a wrapper, in every loaded
namespace that holds a reference to it (``from .homsearch import hom_set``
binds the name in the importing module too).  Each wrapper records calls,
total time and self time, where self time is the wrapper's span minus the
spans of wrapped functions it caused, plus a few counts read off arguments
and results.  ``ExtRat`` is not wrapped: a run makes tens of millions of
``ExtRat`` calls, and their cost shows in the self time of their callers.
"""

from __future__ import annotations

import inspect
import os
import re
import sys
import time

TRACED_MODULES = (
    "budgets", "spaces", "reflect", "homsearch", "canonical", "colimits",
    "verify", "injectivity", "corpus", "laws", "fraisse", "serialization",
    "rundir",
)

_STAGE_FILE = re.compile(r"stages[/\\]K_\d+\.json$")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "active", "counts", "seen")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.counts: dict[str, float] = {}
        self.seen: set | None = None

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, **self.counts}


def _repeat(stat: Stat, args, kwargs, result) -> None:
    key = (args, tuple(sorted(kwargs.items())))
    if stat.seen is None:
        stat.seen = set()
    if key in stat.seen:
        stat.add("repeats", 1)
    else:
        stat.seen.add(key)


def _maps(stat, args, kwargs, result):
    stat.add("maps", len(result))
    _repeat(stat, args, kwargs, result)


def _found(stat, args, kwargs, result):
    stat.add("found", 1 if result else 0)


def _reflect_points(stat, args, kwargs, result):
    stat.add("points", args[0].n)


def _gathered(stat, args, kwargs, result):
    stat.add("spans", len(result[0]))
    stat.add("skipped", result[1])


def _stage_points(stat, args, kwargs, result):
    stat.add("points", result[0].n)


def _audit_checked(stat, args, kwargs, result):
    stat.add("checked", sum(s.checked for s in result.stages))


def _cospans(stat, args, kwargs, result):
    stat.add("checked", result.checked)


def _parsed_points(stat, args, kwargs, result):
    stat.add("points", result.n)


def _written_bytes(stat, args, kwargs, result):
    stat.add("bytes", os.path.getsize(args[0]))


def _read_path(stat, args, kwargs, result):
    path = os.path.normpath(os.path.abspath(args[0]))
    if _STAGE_FILE.search(path):
        stat.add("stage_reads", 1)
        if stat.seen is None:
            stat.seen = set()
        stat.seen.add(path)


def _law_trials(stat, args, kwargs, result):
    stat.add("held", result.held)
    stat.add("trials", result.trials)


OBSERVERS = {
    "homsearch.hom_set": _maps,
    "homsearch.isometry_set": _maps,
    "homsearch.isometric_fillers": _found,
    "canonical.canonical_form": _repeat,
    "reflect.reflect": _reflect_points,
    "fraisse.gather_spans": _gathered,
    "fraisse.chain_step": _stage_points,
    "fraisse.audit_saturation": _audit_checked,
    "verify.verify_pushout": _cospans,
    "verify.verify_coequalizer": _cospans,
    "verify.verify_colimit": _cospans,
    "serialization.space_from_json": _parsed_points,
    "serialization.write_json": _written_bytes,
    "serialization.read_json": _read_path,
    "laws.run_law": _law_trials,
}


class Tracer:
    """Holds the per-function statistics of one process."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.enabled = False
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stat.active -= 1
                if stack:
                    stack[-1][0] += span
                stat.calls += 1
                stat.self_s += span - frame[0]
                if not stat.active:
                    stat.total_s += span
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, extra_namespaces=()) -> "Tracer":
        """Wrap every public function of the traced modules.

        Call after the program's modules are imported.  ``extra_namespaces``
        are further modules (the benchmark's own) whose bound names are
        rebound to the wrappers as well.
        """
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"metricat.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "metricat" or n.startswith("metricat.")]
        namespaces.extend(extra_namespaces)
        for mod in namespaces:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:
                    continue
                if wrapper is not None:
                    ns[attr] = wrapper
        return self

    def new_round(self) -> None:
        """Forget seen arguments, because each round starts from cold caches."""
        for name, stat in self.stats.items():
            if OBSERVERS.get(name) in (_maps, _repeat):
                stat.seen = None

    def to_json(self) -> dict:
        out = {name: s.to_json() for name, s in sorted(self.stats.items()) if s.calls}
        reads = self.stats.get("serialization.read_json")
        if reads is not None and reads.seen:
            out["serialization.read_json"]["stage_files"] = len(reads.seen)
        return out


def merge(into: dict, other: dict) -> dict:
    """Add one process's ``Tracer.to_json`` table into another."""
    for name, row in other.items():
        acc = into.setdefault(name, {})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + value
    return into
