"""metricat benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/metricat`` and
``tests/oracles.py``.  The run makes its inputs from the seed, repeats whole
rounds of the workload's ops until S seconds have passed (at least one
round), checks every op's output, and prints one JSON object as the last
line of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A copy with more detail goes to
``perfbench/results/``.  See perfbench/README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOAD_NAMES = ("corpus-verify", "laws", "chain-gather", "cli-rundir")
SETUP_SAMPLES = 5          # this process plus four set-up-only children
STARTUP_SAMPLES = 5        # `--help` children timed for cli.startup_s
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (("src", "metricat", "__init__.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, *needed)):
            return fail(f"no {'/'.join(needed)} beside perfbench/: run inside a checkout")
    os.environ.pop("METRICAT_BUDGET_NODES", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import metricat
    if not os.path.abspath(metricat.__file__).startswith(os.path.join(ROOT, "src")):
        return fail(f"imported metricat from {metricat.__file__}, not from this checkout")
    import checks
    import workloads

    work_root = os.path.join(BENCH, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return run(args, workdir, checks, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_child(argv, env):
    """Run one child process in the checkout to its end; capture its output."""
    return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          check=False)


def python_env(root: str) -> dict:
    """This environment without a node budget, with the checkout's src/ first."""
    env = dict(os.environ)
    env.pop("METRICAT_BUDGET_NODES", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run(args, workdir, checks, workloads) -> int:
    import tracing

    env = python_env(ROOT)
    tracer = None
    child_traces = {}
    if args.workload == "cli-rundir":
        if args.trace:
            trace_file = os.path.join(workdir, "trace.json")

            def cli(cli_args):
                proc = run_child([sys.executable, os.path.join(BENCH, "tracecli.py"),
                                  trace_file, *cli_args], env)
                with open(trace_file, encoding="utf-8") as fh:
                    tracing.merge(child_traces, json.load(fh))
                return proc
        else:
            def cli(cli_args):
                return run_child([sys.executable, "-m", "metricat.cli", *cli_args], env)
        workload = workloads.CliRundir(args.seed, workdir, checks.load_oracles(ROOT),
                                       cli_command=cli)
    else:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workdir, checks.load_oracles(ROOT))
    workload.setup()
    setup_samples = [time.perf_counter() - STARTED]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[0]}))
        return 0
    if args.trace:
        if args.workload != "cli-rundir":
            tracer = tracing.Tracer().install([workloads])
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(setup_child(args, env))

    durations = []
    windows = []
    rounds = attempted = failed = wrong = 0
    first_start = None
    rss_kb = None
    broken = None
    while broken is None:
        workload.reset()
        if tracer:
            tracer.new_round()
            tracer.enabled = True
        done = []
        round_start = time.perf_counter()
        if first_start is None:
            first_start = round_start
        ops = workload.round()
        while True:
            try:
                op = next(ops)
            except StopIteration:
                break
            except Exception as exc:  # an op's failure left the round unable to go on
                broken = f"round stopped: {type(exc).__name__}: {exc}"
                break
            start = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # counted as a failed op, reported below
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - start)
            done.append((op, out, err))
        windows.append(time.perf_counter() - round_start)
        if rss_kb is None:
            # The high-water mark after one round of ops, read before any
            # check runs: the oracles' path enumeration would raise it.
            rss_kb = peak_rss_kb(args.workload)
        if tracer:
            tracer.enabled = False
        for op, out, err in done:
            attempted += 1
            if err is None:
                try:
                    err = op.check(out)
                except Exception as exc:  # a check that crashes rejects the output
                    err = f"check raised {type(exc).__name__}: {exc}"
                wrong += err is not None
            if err is not None:
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    print(f"perfbench: FAILED {op.label}: {err}", file=sys.stderr)
        workload.end_round()
        rounds += 1
        if time.perf_counter() - first_start >= args.seconds:
            break
    if broken:
        print(f"perfbench: {broken}", file=sys.stderr)
        failed += 1
        attempted += 1
        wrong += 1

    ops_per_s = len(durations) / sum(windows)
    detail = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
              "ops_per_round": len(durations) // max(rounds, 1),
              "round_windows_s": windows, "ops_per_s": ops_per_s,
              "setup_samples_s": setup_samples}
    if args.trace:
        table = tracer.to_json() if tracer else child_traces
        startup = None
        if args.workload == "cli-rundir":
            startup = statistics.median(
                cli_startup(env) for _ in range(STARTUP_SAMPLES))
        metrics = layer_metrics(table, rounds, startup)
        detail["trace"] = table
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(durations) * 1000.0, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    save(args, {**result, "detail": detail})
    print(json.dumps(result))
    return 0


def peak_rss_kb(workload: str) -> int:
    """Peak resident memory of this process, plus its largest child for the
    workload whose ops are child processes (they run one at a time)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli-rundir":
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss


def setup_child(args, env) -> float:
    proc = run_child([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                      "--seed", str(args.seed), "--setup-only"], env)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cli_startup(env) -> float:
    start = time.perf_counter()
    proc = run_child([sys.executable, "-m", "metricat.cli", "--help"], env)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"metricat --help exited {proc.returncode}")
    return elapsed


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table: dict, rounds: int, startup) -> dict:
    """Per-round values of the per-layer metrics, from a trace table."""
    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def per_round(name, key):
        return get(name, key) / rounds

    out = {}

    def add(name, key, unit, metric=None):
        if key == "repeat_ratio":
            value = _ratio(get(name, "repeats"), get(name, "calls"))
        elif key == "found_ratio":
            value = _ratio(get(name, "found"), get(name, "calls"))
        else:
            value = per_round(name, key)
        out[metric or f"{name}.{key}"] = (value, unit)

    for fn in ("verify_pushout", "verify_coequalizer", "verify_colimit"):
        add(f"verify.{fn}", "self_s", "s")
    out["verify.cospans_checked"] = (sum(
        per_round(f"verify.{fn}", "checked")
        for fn in ("verify_pushout", "verify_coequalizer", "verify_colimit")), "count")
    add("spaces.hom_dist", "calls", "count")
    add("spaces.hom_dist", "self_s", "s")
    for fn in ("hom_set", "isometry_set"):
        for key, unit in (("calls", "count"), ("self_s", "s"), ("maps", "count"),
                          ("repeat_ratio", "ratio")):
            add(f"homsearch.{fn}", key, unit)
    for key, unit in (("calls", "count"), ("self_s", "s"), ("found_ratio", "ratio")):
        add("homsearch.isometric_fillers", key, unit)
    for key, unit in (("calls", "count"), ("self_s", "s"), ("points", "count")):
        add("reflect.reflect", key, unit)
    for key, unit in (("calls", "count"), ("self_s", "s"), ("repeat_ratio", "ratio")):
        add("canonical.canonical_form", key, unit)
    for fn in ("purity", "injectivity_defect", "is_eps_mono", "is_eps_split"):
        add(f"injectivity.{fn}", "calls", "count")
        add(f"injectivity.{fn}", "self_s", "s")
    out["laws.held_ratio"] = (_ratio(get("laws.run_law", "held"),
                                     get("laws.run_law", "trials")), "ratio")
    add("fraisse.enumerate_spaces", "self_s", "s")
    add("fraisse.catalog_isometries", "self_s", "s")
    for key in ("self_s", "spans", "skipped"):
        add("fraisse.gather_spans", key, "s" if key == "self_s" else "count")
    add("fraisse.chain_step", "self_s", "s")
    add("fraisse.chain_step", "points", "count")
    add("fraisse.audit_saturation", "self_s", "s")
    add("fraisse.audit_saturation", "checked", "count")
    for key, unit in (("calls", "count"), ("self_s", "s"), ("points", "count")):
        add("serialization.space_from_json", key, unit)
    add("serialization.write_json", "calls", "count")
    add("serialization.write_json", "bytes", "bytes")
    add("rundir.load_chain", "self_s", "s")
    out["rundir.parses_per_stage"] = (_ratio(get("serialization.read_json", "stage_reads"),
                                             get("serialization.read_json", "stage_files")),
                                      "ratio")
    out["cli.startup_s"] = (startup or 0.0, "s")
    return out


def save(args, payload) -> None:
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
