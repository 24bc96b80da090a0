"""The four workloads: inputs made from the seed, ops, and their checks.

A workload's ``setup`` makes every input from the seed (this is what
``setup_s`` times); ``round`` then yields the same list of ops every time it
is called.  An op is a label, a thunk whose call is timed, and a check run
on the thunk's output after the round's timed window closes.  ``reset``
runs before each round and empties the package's caches, so every round
does the same work as the first.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Callable

from metricat import canonical, colimits, corpus, fraisse, homsearch, injectivity, laws, verify
from metricat.extrat import INF, ZERO, rat
from metricat.serialization import map_to_json, pair_to_json, write_json
from metricat.spaces import MetMap, one_point, two_point, validate_space

import checks


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, oracles):
        self.seed = seed
        self.workdir = workdir
        self.oracles = oracles
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        homsearch.clear_caches()
        canonical.clear_cache()

    def round(self):
        raise NotImplementedError

    def end_round(self) -> None:
        pass


# ------------------------------------------------------------ corpus-verify

EPS_GRID = (ZERO, rat("1/2"), rat(1), INF)
CORPUS = corpus.CorpusConfig(max_points=4)
PROBES = (one_point(), two_point(1))

# Span draws are kept by the number of cospans the verifier will enumerate
# into the fixed targets, sum over T of |hom(B, T)| * |hom(C, T)|: verify
# time grows with it, and the free draws of two seeds differ fourfold in
# total time.  Each window below keeps SPANS_PER_WINDOW spans, so every seed
# gets the same mix of small and large items: half octaves from 45 to 1448
# cospans, below that the three smallest values that draws take.  A fixed
# number of draws keeps set-up time the same for every seed.
SPAN_WINDOWS = ((7, 8), (14, 19), (33, 45)) + tuple(
    (round(2 ** (k / 2)), round(2 ** ((k + 1) / 2))) for k in range(11, 21))
SPANS_PER_WINDOW = 6
SPAN_DRAWS = 600
PAIRS = 24
DIAGRAMS = 24
DIAGRAM_POINTS = 8      # the eps-0 oracle enumerates simple paths: keep it small
CLOSURE_POINTS = 7      # largest coproduct given the simple-path closure check
CLOSURE_EVERY = 4       # every fourth op small enough is closure-checked
MAX_DRAWS = 20_000


def count_homs(dom, cod) -> int:
    """Number of non-expansive maps dom -> cod, counted by backtracking."""
    n, dd, cd = dom.n, dom.dist, cod.dist
    image = [0] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        total = 0
        for c in range(cod.n):
            row = cd[c]
            if all(row[image[j]] <= dd[i][j] for j in range(i)):
                image[i] = c
                total += extend(i + 1)
        return total

    return extend(0)


def span_cospans(f, g) -> int:
    B, C = f.cod, g.cod
    return sum(count_homs(B, T) * count_homs(C, T)
               for T in (B, C) + PROBES if T.n <= 4)


class CorpusVerify(Workload):
    name = "corpus-verify"

    def setup(self):
        rng = self.rng
        kept = {w: [] for w in SPAN_WINDOWS}
        for draw in range(MAX_DRAWS):
            if draw >= SPAN_DRAWS and all(len(v) == SPANS_PER_WINDOW for v in kept.values()):
                break
            f, g = corpus.random_span(rng, CORPUS)
            p = span_cospans(f, g)
            for (lo, hi), spans in kept.items():
                if lo <= p < hi and len(spans) < SPANS_PER_WINDOW:
                    spans.append((p, f, g))
        else:
            raise RuntimeError("span windows left unfilled")
        self.spans = sorted((item for v in kept.values() for item in v),
                            key=lambda item: item[0])
        self.pairs = [corpus.random_parallel_pair(rng, CORPUS) for _ in range(PAIRS)]
        self.diagrams = []
        while len(self.diagrams) < DIAGRAMS:
            d = corpus.random_diagram(rng, CORPUS)
            if sum(o.n for o in d.objects) <= DIAGRAM_POINTS:
                self.diagrams.append(d)

    def round(self):
        oracles = self.oracles
        k = 0
        for _, f, g in self.spans:
            for e in EPS_GRID:
                closure = f.cod.n + g.cod.n <= CLOSURE_POINTS and k % CLOSURE_EVERY == 0
                k += 1
                yield Op(f"pushout eps={e}", _pushout_op(f, g, e),
                         lambda out, f=f, g=g, e=e, c=closure:
                         checks.check_pushout(oracles, f, g, e, *out, c))
        for f, g in self.pairs:
            for e in EPS_GRID:
                closure = f.cod.n <= CLOSURE_POINTS and k % CLOSURE_EVERY == 0
                k += 1
                yield Op(f"coequalizer eps={e}", _coequalizer_op(f, g, e),
                         lambda out, f=f, g=g, e=e, c=closure:
                         checks.check_coequalizer(oracles, f, g, e, *out, c))
        for d in self.diagrams:
            for e in EPS_GRID:
                closure = sum(o.n for o in d.objects) <= CLOSURE_POINTS and k % CLOSURE_EVERY == 0
                k += 1
                yield Op(f"colimit eps={e}", _colimit_op(d, e),
                         lambda out, d=d, e=e, c=closure:
                         checks.check_colimit(oracles, d, e, *out, c))


def _targets(*spaces):
    return [t for t in spaces + PROBES if t.n <= 4]


def _pushout_op(f, g, e):
    def run():
        result = colimits.eps_pushout(f, g, e)
        return result, verify.verify_pushout(result, f, g, _targets(result.apex, f.cod, g.cod))
    return run


def _coequalizer_op(f, g, e):
    def run():
        result = colimits.eps_coequalizer(f, g, e)
        return result, verify.verify_coequalizer(result, f, g, _targets(result.apex, f.cod))
    return run


def _colimit_op(d, e):
    def run():
        result = colimits.eps_colimit(d, e)
        return result, verify.verify_colimit(result, d, _targets(result.apex))
    return run


# -------------------------------------------------------------------- laws

LAW_TRIALS = 120
LAW_SEEDS = 3
COLLAPSE_GAPS = ("1/2", "1", "2")


class Laws(Workload):
    name = "laws"

    def setup(self):
        base = self.seed * LAW_SEEDS
        self.law_seeds = tuple(range(base, base + LAW_SEEDS))
        self.law_ids = sorted(laws.LAWS)
        self.collapse = []
        for text in COLLAPSE_GAPS:
            e = rat(text)
            chain = validate_space([[ZERO, e, e + e], [e, ZERO, e], [e + e, e, ZERO]])
            self.collapse.append((e, MetMap(chain, one_point(), (0, 0, 0))))

    def round(self):
        registered = len(self.law_ids)
        for s in self.law_seeds:
            for law_id in self.law_ids:
                yield Op(f"law {law_id} seed={s}",
                         lambda law_id=law_id, s=s: laws.run_law(law_id, s, LAW_TRIALS),
                         lambda out, law_id=law_id: checks.check_law(
                             out, law_id, LAW_TRIALS, registered))
        for e, f in self.collapse:
            yield Op(f"collapse gap={e}",
                     lambda e=e, f=f: (injectivity.is_eps_split(f, e)[0],
                                       injectivity.is_eps_mono(f, e)[0],
                                       injectivity.is_eps_mono(f, e + e)[0]),
                     checks.check_collapse_verdicts)


# ------------------------------------------------------------ chain-gather

CHAIN_GRID = (1, 2)
CHAIN_CAP = 3
CHAIN_STEPS = 3
GATHER_POLICIES = ("iso-skip", "full-skip")


class ChainGather(Workload):
    name = "chain-gather"

    def setup(self):
        self.grid = fraisse.DistanceGrid(tuple(rat(v) for v in CHAIN_GRID), CHAIN_CAP)

    def round(self):
        built = {}

        def build():
            built["stages"], built["catalog"] = fraisse.build_chain(self.grid, CHAIN_STEPS)
            return built["stages"]

        yield Op("build_chain", build, checks.check_chain)
        stages, catalog = built["stages"], built["catalog"]
        yield Op("audit_saturation",
                 lambda: fraisse.audit_saturation(stages, catalog), checks.check_audit)
        last = stages[-1].space
        gathers = [(p, h) for p in GATHER_POLICIES for h in catalog.stratum(CHAIN_STEPS)]
        # The seed sets the order, and so which gather pays for a cold cache.
        random.Random(f"{self.name}:{self.seed}").shuffle(gathers)
        for policy_name, h in gathers:
            policy = fraisse.POLICIES[policy_name]
            yield Op(f"gather {policy_name}",
                     lambda h=h, policy=policy: fraisse.gather_spans(last, (h,), policy),
                     lambda out, h=h, policy=policy: checks.check_gather(
                         last, h, policy.isometric_u, out))


# -------------------------------------------------------------- cli-rundir

BUILD_ARGS = ("fraisse", "build", "--grid", "1,2", "--max-size", "2", "--steps", "10")
FIXTURE_CORPUS = corpus.CorpusConfig(max_points=3)
FIXTURE_EPS = (rat("1/2"), rat(1), rat(2))


class CliRundir(Workload):
    name = "cli-rundir"

    def __init__(self, *args, cli_command=None):
        super().__init__(*args)
        self.cli = cli_command
        self.round_no = 0

    def setup(self):
        rng = self.rng
        f, g = corpus.random_span(rng, FIXTURE_CORPUS)
        self.span_path = os.path.join(self.workdir, "span.json")
        write_json(self.span_path, pair_to_json(f, g))
        self.span_eps = str(rng.choice(FIXTURE_EPS))
        drawn = None
        while drawn is None:
            drawn = corpus.random_split_mono(rng, FIXTURE_CORPUS)
        self.section_path = os.path.join(self.workdir, "section.json")
        write_json(self.section_path, map_to_json(drawn[0]))
        self.pure_eps = str(rng.choice(FIXTURE_EPS))

    def _run(self, *args):
        return lambda: self.cli(args)

    def round(self):
        self.round_no += 1
        run_dir = os.path.join(self.workdir, f"run{self.round_no}")
        self.run_dir = run_dir
        yield Op("fraisse build", self._run(*BUILD_ARGS, "--out", run_dir),
                 lambda proc: checks.check_build(proc, run_dir))
        yield Op("fraisse audit", self._run("fraisse", "audit", run_dir),
                 lambda proc: checks.check_audit_cli(proc, run_dir))
        yield Op("colimit pushout --verify",
                 self._run("colimit", "pushout", "--eps", self.span_eps,
                           "--in", self.span_path, "--verify"),
                 checks.check_pushout_cli)
        yield Op("check pure",
                 self._run("check", "pure", "--eps", self.pure_eps,
                           "--in", self.section_path),
                 checks.check_pure_cli)

    def end_round(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CorpusVerify, Laws, ChainGather, CliRundir)}
