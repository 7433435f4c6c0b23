"""Benchmark the validation-workload suite.

``python -m repro.bench.validationbench [--count N] [--timeout S]
[--json PATH]`` runs the ``repro.symbex.validation`` families (currency,
ISO dates, IPv4, checksummed IDs — the NumSemantics workloads) under the
PFA solver, plus the enumerative baseline as an oracle, and reports
per-solver outcome counts and times.
"""

import argparse
import json

from repro.baselines import EnumerativeSolver
from repro.bench.runner import BenchmarkRunner
from repro.core.solver import TrauSolver
from repro.symbex import validation


def solvers():
    return {
        "pfa": TrauSolver(),
        "enumerative": EnumerativeSolver(),
    }


def run(count=5, seed=0, timeout=20.0, jobs=1):
    instances = validation.generate(count=count, seed=seed)
    runner = BenchmarkRunner(solvers=solvers(), timeout=timeout, jobs=jobs)
    names = list(solvers())
    outcomes = runner.run_suite(instances, names)
    rows = []
    for i, instance in enumerate(instances):
        rows.append({
            "instance": instance.name,
            "expected": instance.expected,
            "results": {name: outcomes[name][i].as_dict()
                        for name in names},
        })
    summary = {}
    for name in names:
        per_solver = [outcomes[name][i] for i in range(len(instances))]
        summary[name] = {
            "solved": sum(1 for o in per_solver
                          if o.classification in ("SAT", "UNSAT")),
            "incorrect": sum(1 for o in per_solver
                             if o.classification == "INCORRECT"),
            "timeout": sum(1 for o in per_solver
                           if o.classification == "TIMEOUT"),
            "unknown": sum(1 for o in per_solver
                           if o.classification == "UNKNOWN"),
            "total_seconds": round(sum(o.seconds for o in per_solver), 2),
        }
    return {"suite": "validation", "count": len(instances),
            "timeout": timeout, "summary": summary, "rows": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=20.0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--json", default=None,
                        help="write the full report to this path")
    args = parser.parse_args(argv)
    report = run(args.count, args.seed, args.timeout, args.jobs)
    for name, stats in report["summary"].items():
        print("%-12s solved=%d incorrect=%d timeout=%d unknown=%d %.1fs"
              % (name, stats["solved"], stats["incorrect"],
                 stats["timeout"], stats["unknown"],
                 stats["total_seconds"]))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("report written to", args.json)
    return 1 if any(s["incorrect"] for s in report["summary"].values()) \
        else 0


if __name__ == "__main__":
    raise SystemExit(main())
