"""Saturated chain construction over a finite distance grid.

The builder enumerates every space over the grid up to isometry, catalogs
the isometries between them modulo codomain automorphisms
(``catalog_isometries``, charged to the caller's ``max_nodes=`` budget),
and grows a chain from the empty space: at step n every span (u: X -> K_n,
h: X -> Y) drawn from the current stratum is glued on by one wide pushout.
The saturation audit then certifies, stage by stage, that every isometric
image of a catalogued domain extends along every catalogued isometry into
the next stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .budgets import DEFAULT_SPAN_BUDGET, DEFAULT_STAGE_POINT_BUDGET, NodeBudget
from .canonical import canonical_form
from .colimits import Presentation
from .errors import (BudgetExceeded, MetricatError, MismatchedEndpoints,
                     SpaceValidationError, UsageError)
from .extrat import ZERO, ExtRat, rat
from .homsearch import _fillers, _homs, clear_caches
from .spaces import MetMap, Space, empty_space, identity, is_isometry


@dataclass(frozen=True)
class DistanceGrid:
    """Admissible distances (positive, possibly INF) and a size cap."""

    values: tuple[ExtRat, ...]
    max_size: int

    def __post_init__(self):
        vals = tuple(sorted({rat(v) for v in self.values}))
        if any(v == ZERO for v in vals):
            raise UsageError("grid distances must be positive")
        if not vals:
            raise UsageError("grid must not be empty")
        if self.max_size < 0:
            raise UsageError("max_size must be nonnegative")
        object.__setattr__(self, "values", vals)


def enumerate_spaces(grid: DistanceGrid, *, max_nodes: int | None = None) -> tuple[Space, ...]:
    """Every space over the grid, one per isometry class, smallest first."""
    budget = NodeBudget.of(max_nodes)
    out: list[Space] = []
    seen: set[tuple] = set()
    for n in range(grid.max_size + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for combo in itertools.product(grid.values, repeat=len(pairs)):
            budget.spend_each(1)
            dist = [[ZERO] * n for _ in range(n)]
            for (i, j), v in zip(pairs, combo):
                dist[i][j] = dist[j][i] = v
            try:
                space = Space._validated(tuple(map(tuple, dist)))
            except SpaceValidationError:
                continue
            canon = canonical_form(space, max_nodes=budget).space
            if canon.dist not in seen:
                seen.add(canon.dist)
                out.append(canon)
    return tuple(sorted(out, key=lambda s: (s.n, s.dist)))


@dataclass(frozen=True)
class IsometryCatalog:
    """All isometries between catalog spaces, modulo codomain automorphism.

    Stratum n holds the isometries whose endpoints both have at most
    min(n + 1, max_size) points; the strata are nested by construction.
    """

    spaces: tuple[Space, ...]
    isometries: tuple[MetMap, ...]
    max_size: int

    def stratum(self, n: int) -> tuple[MetMap, ...]:
        cap = min(n + 1, self.max_size)
        return tuple(h for h in self.isometries if h.dom.n <= cap and h.cod.n <= cap)


def catalog_isometries(spaces, *, max_size: int | None = None,
                       max_nodes: int | None = None) -> IsometryCatalog:
    """Every isometry X -> Y between the spaces, one per orbit of Y's
    automorphisms, charged to ``max_nodes``; strata cap at ``max_size``."""
    budget = NodeBudget.of(max_nodes)
    spaces = tuple(spaces)
    cap = max_size if max_size is not None else max((s.n for s in spaces), default=0)
    isometries: list[MetMap] = []
    for X in spaces:
        for Y in spaces:
            if X.n > Y.n:
                continue
            auts = _homs(Y, Y, budget, True)
            # In lexicographic order, h is its orbit's least when no a∘h sorts before it.
            isometries.extend(
                MetMap._trusted(X, Y, h) for h in _homs(X, Y, budget, True)
                if all(moved >= h for moved in _project(auts, h)))
    return IsometryCatalog(spaces, tuple(isometries), cap)


@dataclass(frozen=True)
class SpanPolicy:
    """How spans are gathered at each step.

    isometric_u: only isometric u: X -> K_n anchor a span (default); the
    full-span mode admits every non-expansive u.
    skip_satisfied: drop spans already witnessed by an isometric
    v: Y -> K_n with v∘h = u.
    """

    isometric_u: bool = True
    skip_satisfied: bool = True


POLICIES = {
    "iso-skip": SpanPolicy(True, True),
    "iso-all": SpanPolicy(True, False),
    "full-skip": SpanPolicy(False, True),
    "full-all": SpanPolicy(False, False),
}

DEFAULT_POLICY = "iso-skip"


def policy_name(policy: SpanPolicy) -> str:
    for name, p in POLICIES.items():
        if p == policy:
            return name
    raise ValueError("unnamed policy")


@dataclass(frozen=True, slots=True)
class Span:
    u: MetMap  # X -> K_n
    h: MetMap  # X -> Y, an isometry from the catalog

    def __post_init__(self):
        if self.u.dom != self.h.dom:
            raise MismatchedEndpoints("span legs need a shared domain")

    @classmethod
    def _trusted(cls, u: MetMap, h: MetMap) -> "Span":
        # Internal: legs that share their domain by construction; no check.
        self = object.__new__(cls)
        _set_u(self, u)
        _set_h(self, h)
        return self


# As for MetMap._trusted: write the frozen slots through their descriptors.
_set_u, _set_h = Span.u.__set__, Span.h.__set__


@dataclass(frozen=True)
class SpanRecord:
    span: Span
    copy: MetMap  # Y -> K_{n+1}, the glued image of the codomain


@dataclass(frozen=True)
class ChainStage:
    index: int
    space: Space
    embedding: MetMap | None              # k: K_n -> K_{n+1}; None on the last stage
    span_log: tuple[SpanRecord, ...]
    skipped: int
    stratum: int
    coverage_complete: bool


def chain_step(space: Space, spans, *, max_points: int | None = None):
    """One wide pushout: glue every span's codomain onto the space, as the
    colimit at zero of the space and the codomains with u(x) bridged to h(x).

    Returns (next_space, k, records) where k is the stage embedding and each
    record carries the span's copy of its codomain inside the new stage.
    """
    spans = tuple(spans)
    cap = DEFAULT_STAGE_POINT_BUDGET if max_points is None else max_points
    if not spans:
        if space.n > cap:
            raise BudgetExceeded(f"stage has {space.n} points (budget {cap})")
        return space, identity(space), ()
    total = space.n + sum(s.h.cod.n for s in spans)
    if total > cap:
        raise BudgetExceeded(f"glued stage would start from {total} points (budget {cap})")
    pieces = (space, *(s.h.cod for s in spans))
    bridges = tuple((0, x, t, y) for t, s in enumerate(spans, 1)
                    for x, y in zip(s.u.map, s.h.map))
    apex, (k, *copies) = Presentation(pieces, bridges).colimit(ZERO)
    if not is_isometry(k):
        raise MetricatError("stage embedding failed to be an isometry")
    records = []
    for s, copy in zip(spans, copies):
        if s.u.cod != space:
            raise MismatchedEndpoints("span anchors must map into the stage")
        if [copy.map[y] for y in s.h.map] != [k.map[x] for x in s.u.map]:
            raise MetricatError("span gluing failed to commute")
        records.append(SpanRecord(s, copy))
    return apex, k, tuple(records)


def _project(maps, positions):
    """``tuple(m[p] for p in positions)`` for each index tuple m of ``maps``,
    in order, through one C-level ``itemgetter``; positions may repeat."""
    if len(positions) > 1:
        return map(itemgetter(*positions), maps)
    if positions:
        return zip(map(itemgetter(positions[0]), maps))
    return (() for _ in maps)


def _span_dedup_group(h: MetMap, budget: NodeBudget) -> tuple[tuple[int, ...], ...]:
    """Domain automorphisms tau with h∘tau equal to some aut of cod ∘ h."""
    cod_orbit = set(_project(_homs(h.cod, h.cod, budget, True), h.map))
    return tuple(tau for tau in _homs(h.dom, h.dom, budget, True)
                 if tuple(h.map[p] for p in tau) in cod_orbit)


def gather_spans(space: Space, stratum, policy: SpanPolicy,
                 *, max_nodes: int | None = None,
                 max_spans: int | None = None) -> tuple[tuple[Span, ...], int]:
    """Deduplicated spans for one step, plus the count skipped as satisfied.

    Two anchors u, u∘tau with tau in the span's dedup group give the same
    span, and the group maps anchors to anchors, so each orbit is kept once,
    by its least member: the anchors arrive in lexicographic order, and one
    filter per non-identity tau keeps u when its projection
    ``_project(anchors, tau)`` does not sort before it.  The skip rule drops
    exactly the projections ``_project(iso(Y, K_n), h.map)``, the set
    {v∘h : v in iso(Y, K_n)}.  It is built from the memoized isometry set, so
    every h with the same codomain shares one search, and only when an anchor
    survives the dedup test, so an h without one charges nothing for the rule.

    Each kept span is built without a check (``Span._trusted`` over
    ``MetMap._trusted``): u is one of the searched maps X -> K_n, and both
    legs start at h's own domain.

    With ``max_spans`` set, BudgetExceeded is raised at the first span past
    the cap, before any further search.
    """
    budget = NodeBudget.of(max_nodes)
    trusted_map, trusted_span = MetMap._trusted, Span._trusted
    spans: list[Span] = []
    skipped = 0
    for h in stratum:
        X = h.dom
        kept = _homs(X, space, budget, policy.isometric_u)
        for tau in _span_dedup_group(h, budget)[1:]:   # the identity sorts first
            kept = [m for m, moved in zip(kept, _project(kept, tau)) if moved >= m]
        if policy.skip_satisfied and kept:
            satisfied = set(_project(_homs(h.cod, space, budget, True), h.map))
            fresh = [m for m in kept if m not in satisfied]
            skipped += len(kept) - len(fresh)
            kept = fresh
        for m in kept:
            spans.append(trusted_span(trusted_map(X, space, m), h))
            if max_spans is not None and len(spans) > max_spans:
                raise BudgetExceeded(f"gathered {len(spans)} spans (budget {max_spans})")
    return tuple(spans), skipped


def build_chain(grid: DistanceGrid, steps: int, policy: SpanPolicy | str = DEFAULT_POLICY,
                *, max_points: int | None = None, max_spans: int | None = None,
                max_nodes: int | None = None):
    """Grow the chain K_0 = empty -> K_1 -> ... for the given number of steps.

    Returns (stages, catalog).  On a budget violation the exception carries
    the stages completed so far and the catalog (None if it was not yet
    complete), so callers can persist the partial chain.  The search memos
    are emptied first: an entry keyed on a stage of an earlier build would
    be compared with this build's equal stage entry by entry.
    """
    clear_caches()
    if isinstance(policy, str):
        policy = POLICIES[policy]
    span_cap = DEFAULT_SPAN_BUDGET if max_spans is None else max_spans
    budget = NodeBudget.of(max_nodes)
    stages: list[ChainStage] = []
    current, catalog = empty_space(), None
    try:
        catalog = catalog_isometries(enumerate_spaces(grid, max_nodes=budget),
                                     max_size=grid.max_size, max_nodes=budget)
        for n in range(steps):
            spans, skipped = gather_spans(
                current, catalog.stratum(n), policy,
                max_nodes=budget, max_spans=span_cap,
            )
            nxt, k, records = chain_step(current, spans, max_points=max_points)
            stages.append(ChainStage(n, current, k, records, skipped, n, True))
            current = nxt
    except BudgetExceeded as exc:
        n = len(stages)
        stages.append(ChainStage(n, current, None, (), 0, n, False))
        exc.partial = (tuple(stages), catalog)
        raise
    stages.append(ChainStage(steps, current, None, (), 0, steps, True))
    return tuple(stages), catalog


@dataclass(frozen=True)
class AuditWitness:
    stage: int
    h: MetMap
    u: MetMap


@dataclass(frozen=True)
class StageAudit:
    stage: int
    checked: int
    missing: tuple[AuditWitness, ...]


@dataclass(frozen=True)
class AuditReport:
    stages: tuple[StageAudit, ...]
    ok: bool


def audit_saturation(stages, catalog: IsometryCatalog,
                     *, max_nodes: int | None = None) -> AuditReport:
    """Certify: every isometric u': X -> K_n extends along every stratum-n
    isometry h: X -> Y to an isometric v: Y -> K_{n+1} with v∘h = k∘u',
    through one filler search plan per (stage, h) (``homsearch._fillers``).
    The plan stays per anchor: the anchors lie in K_n, but the fillers go
    into the larger K_{n+1}, where a projection of iso(Y, K_{n+1}) costs
    more than the searches it would replace."""
    budget = NodeBudget.of(max_nodes)
    out = []
    for n in range(len(stages) - 1):
        stage = stages[n]
        k = stage.embedding
        if k is None:
            continue
        if k.dom != stage.space:
            raise MismatchedEndpoints("stage embedding must start at its stage")
        checked = 0
        missing = []
        for h in catalog.stratum(stage.stratum):
            fillers = _fillers(h, k.cod, budget)
            for u in _homs(h.dom, stage.space, budget, True):
                checked += 1
                if next(fillers(tuple(map(k.map.__getitem__, u))), None) is None:
                    missing.append(AuditWitness(n, h, MetMap._trusted(h.dom, stage.space, u)))
        out.append(StageAudit(n, checked, tuple(missing)))
    return AuditReport(tuple(out), not any(a.missing for a in out))
