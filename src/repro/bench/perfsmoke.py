"""Performance smoke benchmark: the multi-round / conversion-heavy set.

Run with ``python -m repro.bench.perfsmoke --json BENCH_PR2.json``.

The set concentrates on the workloads the incremental-solving and
memoization work targets: the Luhn ladder at k >= 6, a toNum ladder whose
instances need two to four refinement rounds, and the hinted PythonLib
conversion instances.  Per instance it reports status, wall time, rounds,
and the cache/incrementality counters (``cache.*``, ``smt.clauses_reused``,
``flatten.fragments_reused``, ``strategy.pfas_reused``).

The module deliberately imports only interfaces that predate the caching
work, and probes the new config knobs dynamically — so the *same file* can
run inside a checkout of an older commit to measure a baseline.  Feed such
a run back via ``--baseline FILE`` to emit per-instance ratios and their
geometric mean alongside the current numbers.
"""

import argparse
import json
import math
import sys
import time

from repro.config import SolverConfig
from repro.core.solver import TrauSolver
from repro.logic.formula import ge
from repro.logic.terms import var
from repro.obs import Metrics
from repro.symbex import pythonlib
from repro.symbex.luhn import luhn_problem
from repro.strings.ops import ProblemBuilder

COUNTER_KEYS = (
    "smt.clauses_reused", "smt.fragments_reused", "smt.fragments_encoded",
    "flatten.fragments_reused", "strategy.pfas_reused",
    "cache.nfa.determinize.hits", "cache.nfa.determinize.misses",
    "cache.nfa.minimize.hits", "cache.nfa.minimize.misses",
    "cache.nfa.intersect.hits", "cache.nfa.intersect.misses",
    "cache.nfa.trim.hits", "cache.nfa.trim.misses",
    "cache.regex.compile.hits", "cache.regex.compile.misses",
)


def make_config(no_cache=False, no_incremental=False):
    """A solver config honouring the flags, on old codebases too.

    ``max_rounds`` is raised from the default 3 so the deep toNum rungs
    (four refinement rounds) stay solvable; the knob predates this
    module, so baselines honour it too.
    """
    kwargs = {"max_rounds": 8,
              "use_caches": not no_cache,
              "use_incremental": not no_incremental}
    try:
        return SolverConfig(**kwargs)
    except TypeError:
        # The knobs do not exist here (pre-caching checkout): the
        # behaviour is the uncached, non-incremental one regardless.
        return SolverConfig(max_rounds=8)


def tonum_ladder(power):
    """``toNum(x) >= 10^power`` with no hints: a multi-round instance
    (the initial numeric PFA is too short, so m must double)."""
    builder = ProblemBuilder()
    x = builder.str_var("x")
    n = builder.to_num(x)
    builder.require_int(ge(var(n), 10 ** power))
    return builder.problem


def perf_instances(quick=False):
    """(suite, name, problem, timeout_s) rows of the smoke set."""
    rows = []
    luhn_ks = (6,) if quick else (6, 7, 8)
    for k in luhn_ks:
        rows.append(("luhn", "luhn-%d" % k, luhn_problem(k), 120.0))
    powers = (6, 20) if quick else (6, 12, 20, 28)
    for p in powers:
        rows.append(("tonum", "tonum-1e%d" % p, tonum_ladder(p), 60.0))
    count = 2 if quick else 6
    for instance in pythonlib.generate(count, 0):
        rows.append(("pythonlib", instance.name, instance.problem, 60.0))
    return rows


def run_set(no_cache=False, no_incremental=False, reps=1, quick=False,
            aggregator=None, profiler=None):
    """Run the smoke set; returns the JSON-able result document.

    *aggregator* (a ``repro.obs.pipeline.TelemetryAggregator``) collects
    every instance's counters and per-phase histograms through the same
    merge path the serving layer uses; *profiler* (a
    ``repro.obs.profile.SamplingProfiler``) stays armed across the whole
    set.  Both are None on old checkouts, where the plain path runs.
    """
    results = []
    suite_seconds = {}
    for suite, name, problem, timeout in perf_instances(quick):
        best = None
        status = None
        stats = {}
        for _ in range(max(1, reps)):
            config = make_config(no_cache, no_incremental)
            metrics = Metrics()
            solver = TrauSolver(config=config, metrics=metrics)
            start = time.monotonic()
            if aggregator is not None or profiler is not None:
                from repro.obs import Tracer, scope
                tracer = Tracer()
                with scope(tracer, metrics):
                    if profiler is not None:
                        with profiler:
                            result = solver.solve(problem, timeout=timeout)
                    else:
                        result = solver.solve(problem, timeout=timeout)
                if aggregator is not None:
                    aggregator.ingest_scope(tracer, metrics)
            else:
                result = solver.solve(problem, timeout=timeout)
            elapsed = time.monotonic() - start
            if best is None or elapsed < best:
                best = elapsed
                status = result.status
                stats = result.stats
        row = {"suite": suite, "name": name, "status": status,
               "seconds": round(best, 4),
               "rounds": stats.get("rounds", 0)}
        counters = {k: stats[k] for k in COUNTER_KEYS if stats.get(k)}
        if counters:
            row["counters"] = counters
        results.append(row)
        suite_seconds[suite] = suite_seconds.get(suite, 0.0) + best
        print("  %-12s %-24s %-8s %7.3fs" % (suite, name, status, best),
              flush=True)
    return {
        "python": sys.version.split()[0],
        "config": {"no_cache": no_cache, "no_incremental": no_incremental,
                   "reps": reps, "quick": quick},
        "results": results,
        "suite_seconds": {k: round(v, 4)
                          for k, v in sorted(suite_seconds.items())},
        "total_seconds": round(sum(suite_seconds.values()), 4),
    }


GATE_SUITES = ("luhn", "tonum")
"""The multi-round suites the speedup gate is computed over.

The pythonlib suite stays out of the gate for two reasons: its instances
are tiny (constant solver overhead dominates), and its generator draws
from hash-order-sensitive collections, so two *processes* (e.g. a
baseline checkout and the current one) may generate different instances
under the same name unless ``PYTHONHASHSEED`` is pinned.
"""


def _geomean(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def compare(document, baseline):
    """Attach per-instance speedup ratios and their geometric means.

    Rows whose status differs from the baseline's row are skipped (the
    two runs did not solve the same problem — see :data:`GATE_SUITES`).
    ``geomean_speedup`` covers the gate suites; ``geomean_speedup_all``
    covers every comparable row.
    """
    base_by_name = {row["name"]: row for row in baseline.get("results", [])}
    ratios = []
    gate_ratios = []
    suite_ratios = {}
    for row in document["results"]:
        base = base_by_name.get(row["name"])
        if base is None or not row["seconds"]:
            continue
        if base.get("status") != row["status"]:
            row["baseline_status_differs"] = base.get("status")
            continue
        ratio = base["seconds"] / row["seconds"]
        row["baseline_seconds"] = base["seconds"]
        row["speedup"] = round(ratio, 3)
        ratios.append(ratio)
        suite_ratios.setdefault(row.get("suite"), []).append(ratio)
        if row.get("suite") in GATE_SUITES:
            gate_ratios.append(ratio)
    document["baseline"] = {
        "results": baseline.get("results", []),
        "suite_seconds": baseline.get("suite_seconds", {}),
        "total_seconds": baseline.get("total_seconds"),
    }
    if gate_ratios:
        document["geomean_speedup"] = round(_geomean(gate_ratios), 3)
    if ratios:
        document["geomean_speedup_all"] = round(_geomean(ratios), 3)
    if suite_ratios:
        document["suite_geomean_speedup"] = {
            suite: round(_geomean(rs), 3)
            for suite, rs in sorted(suite_ratios.items()) if suite}
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="FILE",
                        help="write the result document to FILE")
    parser.add_argument("--baseline", metavar="FILE",
                        help="previous --json output to compare against")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the memoization caches")
    parser.add_argument("--no-incremental", action="store_true",
                        help="disable cross-round incremental solving")
    parser.add_argument("--reps", type=int, default=1,
                        help="repetitions per instance (best-of)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced set for CI smoke runs")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write a Prometheus snapshot of the merged "
                             "per-instance telemetry to FILE")
    parser.add_argument("--profile-hot", type=int, metavar="N",
                        help="sample the solver deterministically and report "
                             "the N hottest (phase, function) rows")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent solve store to read/extend during "
                             "the run (degrades to a no-op on checkouts "
                             "without repro.store)")
    args = parser.parse_args(argv)

    if args.store:
        try:
            from repro import store as _repro_store
            _repro_store.set_default_path(args.store)
        except ImportError:
            print("perfsmoke: --store needs the persistent store; "
                  "skipping on this checkout", file=sys.stderr)

    # The telemetry pipeline postdates this module's baseline contract, so
    # both knobs degrade to no-ops on checkouts that lack repro.obs.*.
    aggregator = profiler = None
    if args.metrics_out:
        try:
            from repro.obs.pipeline import TelemetryAggregator
            aggregator = TelemetryAggregator()
        except ImportError:
            print("perfsmoke: --metrics-out needs the telemetry pipeline; "
                  "skipping on this checkout", file=sys.stderr)
    if args.profile_hot:
        try:
            from repro.obs.profile import SamplingProfiler
            profiler = SamplingProfiler()
        except ImportError:
            print("perfsmoke: --profile-hot needs the sampling profiler; "
                  "skipping on this checkout", file=sys.stderr)

    document = run_set(args.no_cache, args.no_incremental, args.reps,
                       args.quick, aggregator=aggregator, profiler=profiler)
    if profiler is not None:
        print(profiler.report(args.profile_hot))
        document["profile"] = profiler.to_dict(args.profile_hot)
    if aggregator is not None:
        from repro.obs.prometheus import write_snapshot
        write_snapshot(args.metrics_out, aggregator)
        print("wrote %s" % args.metrics_out)
    if args.baseline:
        with open(args.baseline) as handle:
            document = compare(document, json.load(handle))
        if "geomean_speedup" in document:
            print("geometric-mean speedup vs baseline (%s): %.3fx"
                  % ("+".join(GATE_SUITES), document["geomean_speedup"]))
        if "geomean_speedup_all" in document:
            print("geometric-mean speedup vs baseline (all): %.3fx"
                  % document["geomean_speedup_all"])
        for suite, value in sorted(
                document.get("suite_geomean_speedup", {}).items()):
            print("  %-12s %.3fx" % (suite, value))
    print("total: %.2fs" % document["total_seconds"])
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.json)


if __name__ == "__main__":
    main()
