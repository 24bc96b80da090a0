"""Command line entry point.

Exit codes: 0 success/pass, 1 property failure or counterexample,
2 usage or schema error, 3 budget exceeded.

Each command imports the modules it runs inside its body, so start-up
loads only click and the package's error, number and budget modules.
"""

from __future__ import annotations

import functools
import sys
import time

import click

from .budgets import DEFAULT_SPAN_BUDGET, DEFAULT_STAGE_POINT_BUDGET, node_ceiling
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


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except SchemaError as exc:
            click.echo(f"schema error at {exc.pointer or '<root>'}: {exc}", err=True)
            sys.exit(2)
        except SpaceValidationError as exc:
            click.echo(f"invalid space: {exc}", err=True)
            sys.exit(1)
        except BudgetExceeded as exc:
            click.echo(f"budget exceeded: {exc}", err=True)
            sys.exit(3)
        except MetricatError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        sys.exit(code or 0)
    return wrapper


def _emit(payload: dict, out: str | None) -> None:
    from .serialization import dumps_canonical, write_json

    if out:
        write_json(out, payload)
    else:
        click.echo(dumps_canonical(payload), nl=False)


@click.group()
def main():
    """Exact finite generalized metric spaces: approximate colimits,
    injectivity testers, law harness, and saturation chains."""


# ------------------------------------------------------------------- space

@main.group()
def space():
    """Validate and canonicalize space documents."""


@space.command("validate")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@guarded
def space_validate(file):
    from .serialization import read_json, space_from_json

    warnings: list[str] = []
    try:
        sp = space_from_json(read_json(file), warnings=warnings)
    except SpaceValidationError as exc:
        click.echo(f"invalid: {exc}")
        return 1
    for w in warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(f"valid: {sp.n} points")
    return 0


@space.command("canon")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def space_canon(file, out, budget_nodes):
    from .canonical import canonical_form
    from .serialization import read_json, space_from_json, space_to_json

    sp = space_from_json(read_json(file))
    result = canonical_form(sp, max_nodes=node_ceiling(budget_nodes))
    _emit({"space": space_to_json(result.space), "order": list(result.order)}, out)
    return 0


# ----------------------------------------------------------------- colimit

def _default_targets(*spaces):
    """Verification targets: the construction's own pieces plus tiny probes."""
    from .spaces import one_point, two_point

    out = list(spaces)
    out.append(one_point())
    out.append(two_point(rat(1)))
    return out


def _verify_json(report) -> dict:
    from .serialization import map_to_json, space_to_json

    doc: dict = {"ok": report.ok, "checked": report.checked, "counterexample": None}
    ce = report.counterexample
    if ce is not None:
        doc["counterexample"] = {
            "kind": ce.kind,
            "target": space_to_json(ce.target) if ce.target is not None else None,
            "cone": [map_to_json(m) for m in ce.cone],
            "mediators": [map_to_json(m) for m in ce.mediators],
        }
    return doc


@main.group()
def colimit():
    """Approximate pushouts, coequalizers, and finite-diagram colimits."""


@colimit.command("pushout")
@click.option("--eps", type=RAT, required=True)
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--verify", is_flag=True, default=False)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def colimit_pushout(eps, infile, out, verify, budget_nodes):
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
    code = 0
    if verify:
        from .verify import verify_pushout

        report = verify_pushout(result, f, g,
                                _default_targets(result.apex, f.cod, g.cod),
                                max_nodes=node_ceiling(budget_nodes))
        payload["verification"] = _verify_json(report)
        code = 0 if report.ok else 1
    _emit(payload, out)
    return code


@colimit.command("coequalizer")
@click.option("--eps", type=RAT, required=True)
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--verify", is_flag=True, default=False)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def colimit_coequalizer(eps, infile, out, verify, budget_nodes):
    from .colimits import eps_coequalizer
    from .serialization import map_to_json, pair_from_json, read_json, space_to_json
    from .spaces import MetMap

    f, g = pair_from_json(read_json(infile))
    if f.cod.dist != g.cod.dist:
        raise SchemaError("parallel pair must share its codomain", "/g/cod")
    if f.cod != g.cod:
        g = MetMap(g.dom, f.cod, g.map)
    result = eps_coequalizer(f, g, eps)
    payload = {
        "eps": str(eps),
        "apex": space_to_json(result.apex),
        "leg": map_to_json(result.leg),
    }
    code = 0
    if verify:
        from .verify import verify_coequalizer

        report = verify_coequalizer(result, f, g,
                                    _default_targets(result.apex, f.cod),
                                    max_nodes=node_ceiling(budget_nodes))
        payload["verification"] = _verify_json(report)
        code = 0 if report.ok else 1
    _emit(payload, out)
    return code


@colimit.command("diagram")
@click.option("--eps", type=RAT, required=True)
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--verify", is_flag=True, default=False)
@click.option("--budget-points", type=COUNT, default=None)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def colimit_diagram(eps, infile, out, verify, budget_points, budget_nodes):
    from .colimits import eps_colimit
    from .serialization import diagram_from_json, map_to_json, read_json, space_to_json

    diagram = diagram_from_json(read_json(infile))
    result = eps_colimit(diagram, eps, max_points=budget_points)
    payload = {
        "eps": str(eps),
        "apex": space_to_json(result.apex),
        "legs": [map_to_json(leg) for leg in result.legs],
    }
    code = 0
    if verify:
        from .verify import verify_colimit

        report = verify_colimit(result, diagram,
                                _default_targets(result.apex),
                                max_nodes=node_ceiling(budget_nodes))
        payload["verification"] = _verify_json(report)
        code = 0 if report.ok else 1
    _emit(payload, out)
    return code


# ------------------------------------------------------------------- check

@main.group()
def check():
    """Injectivity, splitness, purity, and mono testers."""


def _load_family(path: str | None):
    if path is None:
        return None
    from .injectivity import TestFamily
    from .serialization import family_from_json, read_json

    return TestFamily.of(family_from_json(read_json(path)))


@check.command("injective")
@click.option("--eps", type=RAT, required=True)
@click.option("--subject", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Space document tested for injectivity.")
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Morphism document f: A -> B to extend along.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def check_injective(eps, subject, infile, out, budget_nodes):
    from .injectivity import is_eps_injective
    from .serialization import map_from_json, map_to_json, read_json, space_from_json

    K = space_from_json(read_json(subject))
    f = map_from_json(read_json(infile))
    ok, witness = is_eps_injective(K, f, eps, max_nodes=node_ceiling(budget_nodes))
    payload = {
        "check": "injective",
        "eps": str(eps),
        "ok": ok,
        "witness": None if witness is None else map_to_json(witness),
    }
    _emit(payload, out)
    return 0 if ok else 1


@check.command("split")
@click.option("--eps", type=RAT, required=True)
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def check_split(eps, infile, out, budget_nodes):
    from .injectivity import is_eps_split
    from .serialization import map_from_json, map_to_json, read_json

    f = map_from_json(read_json(infile))
    ok, retraction = is_eps_split(f, eps, max_nodes=node_ceiling(budget_nodes))
    payload = {
        "check": "split",
        "eps": str(eps),
        "ok": ok,
        "retraction": None if retraction is None else map_to_json(retraction),
    }
    _emit(payload, out)
    return 0 if ok else 1


@check.command("pure")
@click.option("--eps", type=RAT, required=True)
@click.option("--variant", type=click.Choice(["pure", "weak", "bare"]), default="pure")
@click.option("--family", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def check_pure(eps, variant, family, infile, out, budget_nodes):
    from .injectivity import purity
    from .serialization import map_from_json, map_to_json, read_json, space_to_json

    f = map_from_json(read_json(infile))
    fam = _load_family(family)
    ok, square = purity(f, eps, variant, fam, max_nodes=node_ceiling(budget_nodes))
    payload = {
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
    }
    _emit(payload, out)
    return 0 if ok else 1


@check.command("mono")
@click.option("--eps", type=RAT, required=True)
@click.option("--family", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def check_mono(eps, family, infile, out, budget_nodes):
    from .injectivity import is_eps_mono
    from .serialization import map_from_json, map_to_json, read_json, space_to_json

    f = map_from_json(read_json(infile))
    fam = _load_family(family)
    ok, witness = is_eps_mono(f, eps, fam, max_nodes=node_ceiling(budget_nodes))
    payload = {
        "check": "mono",
        "eps": str(eps),
        "ok": ok,
        "counterexample": None if witness is None else {
            "probe": space_to_json(witness[0]),
            "g": map_to_json(witness[1]),
            "h": map_to_json(witness[2]),
        },
    }
    _emit(payload, out)
    return 0 if ok else 1


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
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@guarded
def laws_run(seed, trials, max_points, workers, out):
    from .laws import law_harness, law_report_to_json

    report = law_harness(seed=seed, trials=trials, workers=workers)
    _emit(law_report_to_json(report), out)
    return 0 if report.ok else 1


# ------------------------------------------------------------------ fraisse

@main.group()
def fraisse():
    """Enumerate grid spaces, build saturation chains, audit them."""


@fraisse.command("enumerate")
@click.option("--grid", type=GRID, required=True)
@click.option("--max-size", type=COUNT, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def fraisse_enumerate(grid, max_size, out, budget_nodes):
    from .fraisse import DistanceGrid, enumerate_spaces
    from .serialization import space_to_json

    dgrid = DistanceGrid(grid, max_size)
    spaces = enumerate_spaces(dgrid, max_nodes=node_ceiling(budget_nodes))
    payload = {
        "grid": {"values": [str(v) for v in dgrid.values], "max_size": max_size},
        "count": len(spaces),
        "spaces": [space_to_json(s) for s in spaces],
    }
    _emit(payload, out)
    return 0


@fraisse.command("build")
@click.option("--grid", type=GRID, required=True)
@click.option("--steps", type=COUNT, required=True)
@click.option("--max-size", type=COUNT, default=None,
              help="Catalog size cap; defaults to steps.")
@click.option("--policy", type=PolicyChoice(), default="iso-skip")
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--budget-points", type=COUNT, default=DEFAULT_STAGE_POINT_BUDGET)
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def fraisse_build(grid, steps, max_size, policy, seed, out_dir, budget_points,
                  budget_nodes):
    from .fraisse import POLICIES, DistanceGrid, build_chain
    from .rundir import make_manifest, write_chain

    dgrid = DistanceGrid(grid, max_size if max_size is not None else max(steps, 1))
    started = time.monotonic()
    budgets = {
        "points": budget_points,
        "nodes": node_ceiling(budget_nodes),
        "spans": DEFAULT_SPAN_BUDGET,
    }
    command = "metricat fraisse build"
    try:
        stages, _catalog = build_chain(
            dgrid, steps, POLICIES[policy],
            max_points=budget_points,
            max_nodes=node_ceiling(budget_nodes),
        )
    except BudgetExceeded as exc:
        partial = exc.partial[0] if exc.partial else ()
        outcome = {"complete": False, "error": str(exc)}
        manifest = make_manifest(command, dgrid, policy, seed, steps, budgets,
                                 outcome, time.monotonic() - started)
        if partial:
            write_chain(out_dir, partial, manifest)
        click.echo(f"budget exceeded: {exc}", err=True)
        return 3
    outcome = {"complete": True}
    manifest = make_manifest(command, dgrid, policy, seed, steps, budgets,
                             outcome, time.monotonic() - started)
    write_chain(out_dir, stages, manifest)
    click.echo(f"built {len(stages)} stages: sizes {[s.space.n for s in stages]}")
    return 0


@fraisse.command("audit")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--budget-nodes", type=COUNT, default=None)
@guarded
def fraisse_audit(run_dir, budget_nodes):
    from .fraisse import audit_saturation
    from .rundir import audit_to_json, load_chain, rebuild_catalog, write_audit
    from .serialization import dumps_canonical

    run = load_chain(run_dir)
    catalog = rebuild_catalog(run.grid)
    report = audit_saturation(run.stages, catalog,
                              max_nodes=node_ceiling(budget_nodes))
    write_audit(run_dir, report)
    doc = audit_to_json(report)
    click.echo(dumps_canonical(doc), nl=False)
    return 0 if report.ok else 1


if __name__ == "__main__":
    main()
