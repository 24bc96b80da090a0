"""Command line entry point.

Every command body is a function run by :func:`runner`. It returns
``(payload, ok)``: a JSON document, written to ``--out`` or printed
canonically, or a line of text, printed as it is. Before the command runs,
the runner makes its one node budget, which every search it makes charges:
``--budget-nodes`` capped by ``METRICAT_BUDGET_NODES``. The runner is the
one place that reads that variable, once per command; ``laws run`` takes no
node budget, so the variable does not bound it. The runner turns the
outcome into an exit code: 0 when ``ok``, 1 when not (a property failure
or counterexample) or on an invalid space, 2 on a usage or schema error or
an output that cannot be written, 3 when a budget is exceeded.

Each command imports the modules it runs inside its body, so start-up
loads only click and the package's error, number and budget modules.
"""

from __future__ import annotations

import functools
import sys
import time

import click

from .budgets import DEFAULT_SPAN_BUDGET, DEFAULT_STAGE_POINT_BUDGET, NodeBudget, node_ceiling
from .errors import BudgetExceeded, MetricatError, SchemaError, SpaceValidationError
from .extrat import ZERO, ExtRat, rat


class RatParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, ExtRat):
            return value
        try:
            return rat(value)
        except (ValueError, TypeError) as exc:
            self.fail(str(exc), param, ctx)


class GridParam(click.ParamType):
    name = "grid"

    def convert(self, value, param, ctx):
        try:
            values = tuple(rat(part.strip()) for part in str(value).split(",") if part.strip())
            if not values:
                raise ValueError("empty grid")
            if ZERO in values:
                raise ValueError("grid distances must be positive")
            return values
        except (ValueError, TypeError) as exc:
            self.fail(str(exc), param, ctx)


class PolicyChoice(click.Choice):
    """The span policies of :data:`metricat.fraisse.POLICIES`, looked up
    only when ``fraisse build`` parses its arguments or prints its help."""

    def __init__(self):
        self.case_sensitive = True

    @property
    def choices(self):
        from .fraisse import POLICIES

        return tuple(sorted(POLICIES))


RAT = RatParam()
GRID = GridParam()
COUNT = click.IntRange(min=0)
DOC = click.Path(exists=True, dir_okay=False)


def _in(help=None):
    return click.option("--in", "infile", type=DOC, required=True, help=help)


# The options several commands share, stacked in each command's order.
EPS = click.option("--eps", type=RAT, required=True)
IN = _in()
OUT = click.option("--out", type=click.Path(dir_okay=False), default=None)
VERIFY = click.option("--verify", is_flag=True, default=False)
FAMILY = click.option("--family", type=DOC, default=None)
BUDGET_NODES = click.option("--budget-nodes", "max_nodes", type=COUNT, default=None)


def runner(command):
    """Run ``command``, emit the payload it returns, and exit with its code
    (see the module docstring)."""
    @functools.wraps(command)
    def run(out=None, **params):
        try:
            if "max_nodes" in params:
                params["max_nodes"] = NodeBudget(node_ceiling(params["max_nodes"]))
            payload, ok = command(**params)
            from .serialization import dumps_canonical, write_json

            if out:
                write_json(out, payload)
            else:
                click.echo(payload if isinstance(payload, str) else dumps_canonical(payload),
                           nl=False)
        except SchemaError as exc:
            click.echo(f"schema error at {exc.pointer or '<root>'}: {exc}", err=True)
            sys.exit(2)
        except SpaceValidationError as exc:
            click.echo(f"invalid space: {exc}", err=True)
            sys.exit(1)
        except BudgetExceeded as exc:
            click.echo(f"budget exceeded: {exc}", err=True)
            sys.exit(3)
        except (MetricatError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        sys.exit(0 if ok else 1)
    return run


@click.group()
def main():
    """Exact finite generalized metric spaces: approximate colimits,
    injectivity testers, law harness, and saturation chains."""


# ------------------------------------------------------------------- space

@main.group()
def space():
    """Validate and canonicalize space documents."""


@space.command("validate")
@click.argument("file", type=DOC)
@runner
def space_validate(file):
    from .serialization import read_json, space_from_json

    warnings: list[str] = []
    try:
        sp = space_from_json(read_json(file), warnings=warnings)
    except SpaceValidationError as exc:
        return f"invalid: {exc}\n", False
    for w in warnings:
        click.echo(f"warning: {w}", err=True)
    return f"valid: {sp.n} points\n", True


@space.command("canon")
@click.argument("file", type=DOC)
@OUT
@BUDGET_NODES
@runner
def space_canon(file, max_nodes):
    from .canonical import canonical_form
    from .serialization import read_json, space_from_json, space_to_json

    result = canonical_form(space_from_json(read_json(file)), max_nodes=max_nodes)
    return {"space": space_to_json(result.space), "order": list(result.order)}, True


# ----------------------------------------------------------------- colimit

def _verified(payload: dict, verify: bool, check, *pieces):
    """``(payload, ok)`` for a colimit command. With ``--verify``,
    ``check(verify_module, targets)`` verifies the construction against its
    ``pieces`` and two tiny probes; its report joins the payload and decides
    ``ok``."""
    if not verify:
        return payload, True
    from . import verify as verify_module
    from .serialization import map_to_json, space_to_json
    from .spaces import one_point, two_point

    report = check(verify_module, [*pieces, one_point(), two_point(rat(1))])
    ce = report.counterexample
    payload["verification"] = {
        "ok": report.ok,
        "checked": report.checked,
        "counterexample": None if ce is None else {
            "kind": ce.kind,
            "target": space_to_json(ce.target) if ce.target is not None else None,
            "cone": [map_to_json(m) for m in ce.cone],
            "mediators": [map_to_json(m) for m in ce.mediators],
        },
    }
    return payload, report.ok


@main.group()
def colimit():
    """Approximate pushouts, coequalizers, and finite-diagram colimits."""


@colimit.command("pushout")
@EPS
@IN
@OUT
@VERIFY
@BUDGET_NODES
@runner
def colimit_pushout(eps, infile, verify, max_nodes):
    from .colimits import eps_pushout
    from .serialization import map_to_json, pair_from_json, read_json, space_to_json

    f, g = pair_from_json(read_json(infile))
    result = eps_pushout(f, g, eps)
    payload = {
        "eps": str(eps),
        "apex": space_to_json(result.apex),
        "leg_f": map_to_json(result.leg_f),
        "leg_g": map_to_json(result.leg_g),
    }
    return _verified(payload, verify, lambda v, targets: v.verify_pushout(
        result, f, g, targets, max_nodes=max_nodes), result.apex, f.cod, g.cod)


@colimit.command("coequalizer")
@EPS
@IN
@OUT
@VERIFY
@BUDGET_NODES
@runner
def colimit_coequalizer(eps, infile, verify, max_nodes):
    from .colimits import eps_coequalizer
    from .serialization import map_to_json, pair_from_json, read_json, space_to_json
    from .spaces import MetMap

    f, g = pair_from_json(read_json(infile))
    if f.cod.ranks() != g.cod.ranks():
        raise SchemaError("parallel pair must share its codomain", "/g/cod")
    if f.cod != g.cod:
        g = MetMap(g.dom, f.cod, g.map)
    result = eps_coequalizer(f, g, eps)
    payload = {
        "eps": str(eps),
        "apex": space_to_json(result.apex),
        "leg": map_to_json(result.leg),
    }
    return _verified(payload, verify, lambda v, targets: v.verify_coequalizer(
        result, f, g, targets, max_nodes=max_nodes), result.apex, f.cod)


@colimit.command("diagram")
@EPS
@IN
@OUT
@VERIFY
@click.option("--budget-points", type=COUNT, default=None)
@BUDGET_NODES
@runner
def colimit_diagram(eps, infile, verify, budget_points, max_nodes):
    from .colimits import eps_colimit
    from .serialization import diagram_from_json, map_to_json, read_json, space_to_json

    diagram = diagram_from_json(read_json(infile))
    result = eps_colimit(diagram, eps, max_points=budget_points)
    payload = {
        "eps": str(eps),
        "apex": space_to_json(result.apex),
        "legs": [map_to_json(leg) for leg in result.legs],
    }
    return _verified(payload, verify, lambda v, targets: v.verify_colimit(
        result, diagram, targets, max_nodes=max_nodes), result.apex)


# ------------------------------------------------------------------- check

@main.group()
def check():
    """Injectivity, splitness, purity, and mono testers."""


def _load_family(path: str | None, max_nodes):
    if path is None:
        return None
    from .injectivity import TestFamily
    from .serialization import family_from_json, read_json

    return TestFamily.of(family_from_json(read_json(path)), max_nodes=max_nodes)


@check.command("injective")
@EPS
@click.option("--subject", type=DOC, required=True,
              help="Space document tested for injectivity.")
@_in(help="Morphism document f: A -> B to extend along.")
@OUT
@BUDGET_NODES
@runner
def check_injective(eps, subject, infile, max_nodes):
    from .injectivity import is_eps_injective
    from .serialization import map_from_json, map_to_json, read_json, space_from_json

    K = space_from_json(read_json(subject))
    f = map_from_json(read_json(infile))
    ok, witness = is_eps_injective(K, f, eps, max_nodes=max_nodes)
    return {
        "check": "injective",
        "eps": str(eps),
        "ok": ok,
        "witness": None if witness is None else map_to_json(witness),
    }, ok


@check.command("split")
@EPS
@IN
@OUT
@BUDGET_NODES
@runner
def check_split(eps, infile, max_nodes):
    from .injectivity import is_eps_split
    from .serialization import map_from_json, map_to_json, read_json

    f = map_from_json(read_json(infile))
    ok, retraction = is_eps_split(f, eps, max_nodes=max_nodes)
    return {
        "check": "split",
        "eps": str(eps),
        "ok": ok,
        "retraction": None if retraction is None else map_to_json(retraction),
    }, ok


@check.command("pure")
@EPS
@click.option("--variant", type=click.Choice(["pure", "weak", "bare"]), default="pure")
@FAMILY
@IN
@OUT
@BUDGET_NODES
@runner
def check_pure(eps, variant, family, infile, max_nodes):
    from .injectivity import purity
    from .serialization import map_from_json, map_to_json, read_json, space_to_json

    f = map_from_json(read_json(infile))
    ok, square = purity(f, eps, variant, _load_family(family, max_nodes), max_nodes=max_nodes)
    return {
        "check": "pure",
        "variant": variant,
        "eps": str(eps),
        "ok": ok,
        "counterexample": None if square is None else {
            "A": space_to_json(square.A),
            "B": space_to_json(square.B),
            "u": map_to_json(square.u),
            "g": map_to_json(square.g),
            "v": map_to_json(square.v),
            "best_filler_distance": str(square.best),
        },
    }, ok


@check.command("mono")
@EPS
@FAMILY
@IN
@OUT
@BUDGET_NODES
@runner
def check_mono(eps, family, infile, max_nodes):
    from .injectivity import is_eps_mono
    from .serialization import map_from_json, map_to_json, read_json, space_to_json

    f = map_from_json(read_json(infile))
    ok, witness = is_eps_mono(f, eps, _load_family(family, max_nodes), max_nodes=max_nodes)
    return {
        "check": "mono",
        "eps": str(eps),
        "ok": ok,
        "counterexample": None if witness is None else {
            "probe": space_to_json(witness[0]),
            "g": map_to_json(witness[1]),
            "h": map_to_json(witness[2]),
        },
    }, ok


# -------------------------------------------------------------------- laws

@main.group()
def laws():
    """Seeded law harness over random corpora."""


@laws.command("run")
@click.option("--seed", type=int, default=0)
@click.option("--trials", type=COUNT, default=40)
@click.option("--budget", "max_points", type=COUNT, default=4,
              help="Accepted and ignored: the laws draw from fixed corpora "
                   "of at most 3 points.")
@click.option("--workers", type=click.IntRange(min=1), default=None)
@OUT
@runner
def laws_run(seed, trials, max_points, workers):
    from .laws import law_harness, law_report_to_json

    report = law_harness(seed=seed, trials=trials, workers=workers)
    return law_report_to_json(report), report.ok


# ------------------------------------------------------------------ fraisse

@main.group()
def fraisse():
    """Enumerate grid spaces, build saturation chains, audit them."""


@fraisse.command("enumerate")
@click.option("--grid", type=GRID, required=True)
@click.option("--max-size", type=COUNT, required=True)
@OUT
@BUDGET_NODES
@runner
def fraisse_enumerate(grid, max_size, max_nodes):
    from .fraisse import DistanceGrid, enumerate_spaces
    from .rundir import grid_to_json
    from .serialization import space_to_json

    dgrid = DistanceGrid(grid, max_size)
    spaces = enumerate_spaces(dgrid, max_nodes=max_nodes)
    return {
        "grid": grid_to_json(dgrid),
        "count": len(spaces),
        "spaces": [space_to_json(s) for s in spaces],
    }, True


@fraisse.command("build")
@click.option("--grid", type=GRID, required=True)
@click.option("--steps", type=COUNT, required=True)
@click.option("--max-size", type=COUNT, default=None,
              help="Catalog size cap; defaults to the larger of steps and 1.")
@click.option("--policy", type=PolicyChoice(), default="iso-skip")
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--budget-points", type=COUNT, default=DEFAULT_STAGE_POINT_BUDGET)
@BUDGET_NODES
@runner
def fraisse_build(grid, steps, max_size, policy, seed, out_dir, budget_points, max_nodes):
    from .fraisse import POLICIES, DistanceGrid, build_chain
    from .rundir import make_manifest, write_chain

    dgrid = DistanceGrid(grid, max_size if max_size is not None else max(steps, 1))
    started = time.monotonic()
    budgets = {"points": budget_points, "nodes": max_nodes.limit, "spans": DEFAULT_SPAN_BUDGET}
    command = "metricat fraisse build"
    try:
        stages, _ = build_chain(dgrid, steps, POLICIES[policy],
                                max_points=budget_points, max_nodes=max_nodes)
    except BudgetExceeded as exc:
        partial = exc.partial[0] if exc.partial else ()
        outcome = {"complete": False, "error": str(exc)}
        manifest = make_manifest(command, dgrid, policy, seed, steps, budgets,
                                 outcome, time.monotonic() - started)
        if partial:
            write_chain(out_dir, partial, manifest)
        raise
    outcome = {"complete": True}
    manifest = make_manifest(command, dgrid, policy, seed, steps, budgets,
                             outcome, time.monotonic() - started)
    write_chain(out_dir, stages, manifest)
    return f"built {len(stages)} stages: sizes {[s.space.n for s in stages]}\n", True


@fraisse.command("audit")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@BUDGET_NODES
@runner
def fraisse_audit(run_dir, max_nodes):
    from .fraisse import audit_saturation, catalog_isometries, enumerate_spaces
    from .rundir import audit_to_json, load_chain, write_audit

    run = load_chain(run_dir)
    spaces = enumerate_spaces(run.grid, max_nodes=max_nodes)
    catalog = catalog_isometries(spaces, max_size=run.grid.max_size, max_nodes=max_nodes)
    report = audit_saturation(run.stages, catalog, max_nodes=max_nodes)
    doc = audit_to_json(report)
    write_audit(run_dir, doc)
    return doc, report.ok


if __name__ == "__main__":
    main()
