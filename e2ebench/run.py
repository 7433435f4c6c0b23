"""End-to-end benchmark of the repro string solver.

    python3 e2ebench/run.py --workload symbex-batch|cli-cold|serve-mix
        --seed N --seconds S --trace 0|1 [--plant-wrong verdict|model]

Run from the root of a checkout (the directory holding ``src/repro``).
Prints run metadata and every metric by name with unit and sample count,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Exits 1 when any verdict is
wrong or a self-test of the checker failed (``--plant-wrong`` spoils one
answer on purpose to show it), 2 when the checkout has no program to
run.  See README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = ["latency_p50_ms", "latency_p90_ms", "throughput_qps", "setup_s",
       "peak_rss_mb"]


def _pin_hash_seed():
    """Re-exec under PYTHONHASHSEED=0: the generators' RNG seeds and
    some of their collections depend on string hashing."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["symbex-batch", "cli-cold", "serve-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong", choices=("verdict", "model"),
                        help="flip one verdict, or edit one sat model so "
                             "that it violates its problem, before "
                             "checking; the run must then fail")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("e2ebench: no src/repro here; run from a checkout's root",
              file=sys.stderr)
        return 2
    _pin_hash_seed()
    sys.path.insert(0, HERE)
    sys.path.insert(1, os.path.abspath("src"))
    import common
    import layermetrics
    import workloads

    work = os.path.abspath(os.path.join(
        ".e2ebench-work", "%s-%d-%d" % (args.workload, args.seed,
                                        os.getpid())))
    os.makedirs(work)
    steal0 = common.steal_ticks()
    started = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, args.trace, work, args.plant_wrong)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass                    # another run still holds it
    wall = time.perf_counter() - started
    steal1 = common.steal_ticks()

    refs = outcome.speed.seconds()
    print("workload      %s (seed %d, trace %d)"
          % (args.workload, args.seed, args.trace))
    for key in sorted(outcome.info):
        print("%-13s %s" % (key, outcome.info[key]))
    print("run wall      %.2f s (timed program work %.2f s raw)"
          % (wall, outcome.raw_wall_s))
    print("reference     loop %.3f ms median (reference speed %.3f ms), "
          "IQR/median %.3f over %d samples"
          % (common.quantile(refs, 0.5) * 1e3, common.REFERENCE_MS,
             common.spread(refs), len(refs)))
    print("host          nproc %d, steal delta %s ticks, %s, revision %s"
          % (os.cpu_count(),
             "n/a" if steal0 is None else steal1 - steal0,
             common.interpreter(), common.git_revision()))
    tally = outcome.tally
    print("verdicts      %d attempted: %d sat + %d unsat checked, %d failed "
          "(unknown/timeout/error), %d wrong"
          % (tally.attempted, tally.sat, tally.unsat, tally.failed,
             len(tally.wrong)))
    for name, reason in tally.wrong[:10]:
        print("  WRONG %s: %s" % (name, reason))
    rejected = True
    for check in workloads.SELF_TESTS:
        name, ok = outcome.self_tests.get(check, ("no such answer", False))
        rejected = rejected and ok
        print("self-test     %s on %s: checker %s"
              % (check, name, "rejected it" if ok else "DID NOT reject it"))

    metrics = {}
    if args.trace:
        for metric in layermetrics.NAMES:
            value = outcome.layer_metrics[metric]
            unit = layermetrics.unit_of(metric)
            print("  %-34s %12.4f %s" % (metric, value, unit))
            metrics[metric] = {"value": value, "unit": unit}
    else:
        for metric in E2E:
            value, unit, samples = outcome.metrics[metric]
            print("  %-34s %12.4f %-5s (%d samples)"
                  % (metric, value, unit, samples))
            metrics[metric] = {"value": value, "unit": unit}
    correct = tally.correct and rejected
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
