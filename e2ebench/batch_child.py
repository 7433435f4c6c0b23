"""One symbex-batch pass in a fresh program process.

Run by ``run.py`` as ``python3 e2ebench/batch_child.py SEED MODE OUT``
with MODE ``plain``, ``traced`` (layer timers installed) or ``setup``
(answer only the fixed set-up probe: one set-up sample).  The process
imports ``repro`` (announcing it on stdout, so the parent can time
spawn-to-import), regenerates the seeded query list (printing its
digest), and has one in-process :class:`TrauSolver` client answer it in
order under the default configuration.  Generating the list fills the memo caches, so
they are emptied before the first query, and cache counters are reported
from that point on.  Each query's problem is then built afresh just
before its solve, inside its timer, as a symbolic executor builds a path
condition and asks about it: the caches fill across the pass only with
what the program did for queries already asked.  A reference-loop sample
is taken before every query.  Results go to OUT as JSON.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main(seed, mode, out_path):
    start = time.perf_counter()
    import repro
    from repro import cache, kernels
    import_s = time.perf_counter() - start
    print("imported", flush=True)

    import inputs
    if mode == "setup":
        queries = [inputs.setup_probe()]
    else:
        queries = inputs.symbex_batch(seed)
        print("digest %s" % inputs.digest(queries), flush=True)
    cache.clear_all()
    baseline = cache.stats()

    clock = None
    if mode == "traced":
        import layers
        clock = layers.Clock()
        layers.install(clock)

    solver = repro.TrauSolver()
    speed = []
    records = []
    for index, query in enumerate(queries):
        speed.append((index, common.time_reference()))
        begin = time.perf_counter()
        problem = query.build()
        result = solver.solve(problem, timeout=inputs.QUERY_DEADLINE_S)
        seconds = time.perf_counter() - begin
        records.append({
            "name": query.name, "status": result.status,
            "model": result.model if result.status == "sat" else None,
            "seconds": seconds, "rounds": result.stats.get("rounds", 0),
            "phase": result.stats.get("phase"),
            "reason": result.stats.get("stopped_by")
            or result.stats.get("reason")})
    speed.append((len(queries), common.time_reference()))

    document = {
        "import_s": import_s, "records": records, "speed": speed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": kernels.resolve(None),
        "caches": {name: {key: entry[key]
                          - baseline.get(name, {}).get(key, 0)
                          for key in ("hits", "misses")}
                   for name, entry in cache.stats().items()},
        "layers": clock.snapshot() if clock is not None else None,
    }
    with open(out_path, "w") as handle:
        json.dump(document, handle)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2], sys.argv[3])
