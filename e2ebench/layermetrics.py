"""Per-layer metrics from the traced passes.

Sources, by metric (see README.md for the full map):

* ``<layer>_ms`` — self time of the layer's wrapped functions
  (:mod:`layers`) per query, in ms at the reference speed;
* call counts — :data:`layers.COUNTED`, per query or per refinement
  round (rounds come from each answer's ``stats["rounds"]``);
* ``cache.<name>.hit_ratio`` — ``repro.cache.stats()`` in the process
  that solved (``/metrics`` counters for the serving workers);
* ``serve.*`` and ``store.hit_ratio`` — the server's ``/metrics``
  exposition, read over the wire after each pass.

A layer a workload never crosses reports 0.
"""

import json
import os
import statistics

import common

TIME_LAYERS = [
    ("smtlib.parse_ms", "smtlib.parse"),
    ("core.normalize_ms", "core.normalize"),
    ("core.strategy_ms", "core.strategy"),
    ("core.overapprox_ms", "core.overapprox"),
    ("core.flatten_ms", "core.flatten"),
    ("core.solver_ms", "core.solver"),
    ("smt.session_ms", "smt.session"),
    ("sat.solve_ms", "sat.solve"),
    ("lia.check_ms", "lia.check"),
    ("lia.bb_ms", "lia.bb"),
    ("automata.ms", "automata"),
    ("strings.check_model_ms", "strings.check_model"),
    ("store.get_ms", "store.get"),
    ("store.put_ms", "store.put"),
    ("serve.admission_ms", "serve.admission"),
    ("serve.router_ms", "serve.router"),
    ("serve.service_ms", "serve.service"),
]

CACHES = ["nfa.determinize", "nfa.intersect", "nfa.minimize", "nfa.trim",
          "nfa.without_epsilon", "regex.compile", "solver.overapprox",
          "strategy.hints"]
"""The eight ``LRUCache``s of ``repro.cache.stats()``."""

NAMES = (["import.repro_ms"] + [name for name, _ in TIME_LAYERS] + [
    "core.rounds_per_query", "core.overapprox_decided_ratio",
    "smt.session_calls_per_query", "sat.solve_calls_per_round",
    "lia.check_calls_per_round", "automata.calls_per_query",
    "store.hit_ratio", "serve.frontdoor_hit_ratio", "serve.coalesced_ratio",
    "serve.service_queue_ms", "serve.worker_roundtrip_ms",
    "trace.solve_ms", "trace.accounted_ratio", "trace.overhead_ratio",
] + ["cache.%s.hit_ratio" % name for name in CACHES])
"""Every per-layer metric, in print order."""


def unit_of(name):
    if name.endswith("_ms") or name == "automata.ms":
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def _blank():
    return {name: 0.0 for name in NAMES}


def _add_clock(out, snapshot, scale, queries, rounds):
    """Fold one process's layer clock into *out* (per-query values)."""
    self_s = snapshot["self_s"]
    for name, layer in TIME_LAYERS:
        out[name] += self_s.get(layer, 0.0) * scale * 1e3 / queries
    counts = snapshot["counts"]
    calls = snapshot["calls"]
    out["smt.session_calls_per_query"] += _ratio(
        counts.get("smt.session_calls", 0), queries)
    out["sat.solve_calls_per_round"] += _ratio(
        counts.get("sat.solve_calls", 0), rounds)
    out["lia.check_calls_per_round"] += _ratio(
        counts.get("lia.check_calls", 0), rounds)
    out["automata.calls_per_query"] += _ratio(calls.get("automata", 0),
                                              queries)
    out["trace.solve_ms"] += snapshot["solve_s"] * scale * 1e3 / queries


def _cache_ratios(out, stats):
    for name in CACHES:
        entry = stats.get(name, {})
        hits = entry.get("hits", 0)
        out["cache.%s.hit_ratio" % name] = _ratio(
            hits, hits + entry.get("misses", 0))


def _accounted(clocks):
    """``trace.accounted_ratio``: self time the named layers spent inside
    solves over the solves' own time.  ``core.solver`` self time — the
    solve body and the unwrapped helpers it calls — is the unexplained
    rest, so it is left out of the numerator."""
    named = sum(seconds for c in clocks for layer, seconds
                in c["inside_s"].items() if layer != "core.solver")
    return _ratio(named, sum(c["solve_s"] for c in clocks))


def _median_docs(docs):
    return {name: statistics.median(d[name] for d in docs) for name in NAMES}


def from_batch(traced, untraced_totals, queries):
    """symbex-batch: one layer clock per traced child process."""
    docs = []
    for document in traced:
        out = _blank()
        speed = common.SpeedLog()
        speed.extend(document["speed"])
        scale = common.REFERENCE_MS / 1e3 / statistics.median(
            speed.seconds())
        records = document["records"]
        clock = document["layers"]
        _add_clock(out, clock, scale, queries, clock["rounds"])
        out["import.repro_ms"] = document["import_s"] * scale * 1e3
        out["core.rounds_per_query"] = clock["rounds"] / queries
        out["core.overapprox_decided_ratio"] = _ratio(
            clock["overapprox_decided"],
            clock["counts"].get("core.overapprox_calls", 0))
        _cache_ratios(out, document["caches"])
        traced_total = sum(
            r["seconds"] * speed.scale(i) for i, r in enumerate(records))
        out["trace.overhead_ratio"] = traced_total / statistics.median(
            untraced_totals)
        out["trace.accounted_ratio"] = _accounted([clock])
        docs.append(out)
    return _median_docs(docs)


def read_dumps(trace_dir):
    out = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as handle:
            out.append(json.load(handle))
    return out


def _dump_scale(dump):
    return common.REFERENCE_MS / 1e3 / statistics.median(dump["speed"])


def from_cli(dumps, overhead, files):
    """cli-cold: one dump per traced process, one process per file."""
    out = _blank()
    hits = {}
    rounds = sum(d["rounds"] for d in dumps)
    for dump in dumps:
        scale = _dump_scale(dump)
        _add_clock(out, dump, scale, files, rounds)
        out["import.repro_ms"] += dump["import_s"] * scale * 1e3 / files
        for name, entry in dump.get("caches", {}).items():
            into = hits.setdefault(name, {"hits": 0, "misses": 0})
            into["hits"] += entry["hits"]
            into["misses"] += entry["misses"]
    out["core.rounds_per_query"] = rounds / files
    decided = sum(d["overapprox_decided"] for d in dumps)
    out["core.overapprox_decided_ratio"] = _ratio(
        decided, sum(d["counts"].get("core.overapprox_calls", 0)
                     for d in dumps))
    _cache_ratios(out, hits)
    out["trace.overhead_ratio"] = overhead
    out["trace.accounted_ratio"] = _accounted(dumps)
    return out


def parse_prometheus(text):
    """``{series name: value}`` of a Prometheus text exposition."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


def _counter(series, dotted):
    return series.get("repro_%s_total" % dotted.replace(".", "_"), 0.0)


def _serve_series(out, series, requests, scale):
    """The ``/metrics`` half of the serve-mix layer metrics."""
    asked = _counter(series, "net.tenant.anonymous.requests") or requests
    out["serve.frontdoor_hit_ratio"] = _counter(series,
                                                "net.cache_hits") / asked
    out["serve.coalesced_ratio"] = _counter(series, "net.coalesced") / asked
    hits = _counter(series, "store.hits")
    out["store.hit_ratio"] = _ratio(hits, hits + _counter(series,
                                                          "store.misses"))
    served = series.get("repro_phase_serve_request_s_count", 0.0)
    service_s = series.get("repro_phase_serve_request_s_sum", 0.0)
    solve_s = series.get("repro_phase_solve_s_sum", 0.0)
    out["serve.worker_roundtrip_ms"] = _ratio(service_s, served) * scale * 1e3
    out["serve.service_queue_ms"] = _ratio(
        max(0.0, service_s - solve_s), served) * scale * 1e3
    for name in CACHES:
        h = _counter(series, "cache.%s.hits" % name)
        m = _counter(series, "cache.%s.misses" % name)
        out["cache.%s.hit_ratio" % name] = _ratio(h, h + m)


def from_serve(traced, untraced, requests, speed):
    """serve-mix: server and worker dumps of the traced passes, and the
    ``/metrics`` series of the untraced ones."""
    docs = []
    for result, plain in zip(traced, untraced):
        out = _blank()
        dumps = read_dumps(result["trace_dir"])
        rounds = sum(d["rounds"] for d in dumps)
        for dump in dumps:
            scale = _dump_scale(dump)
            _add_clock(out, dump, scale, requests, rounds)
            if dump["role"] == "main":
                out["import.repro_ms"] = dump["import_s"] * scale * 1e3
        out["core.rounds_per_query"] = rounds / requests
        out["core.overapprox_decided_ratio"] = _ratio(
            sum(d["overapprox_decided"] for d in dumps),
            sum(d["counts"].get("core.overapprox_calls", 0) for d in dumps))
        position = plain["setup"][0] + requests / 2
        _serve_series(out, plain["metrics"], requests, speed.scale(position))
        out["trace.overhead_ratio"] = (
            sum(s * speed.scale(p) for p, s in result["latency"])
            / sum(s * speed.scale(p) for p, s in plain["latency"]))
        out["trace.accounted_ratio"] = _accounted(dumps)
        docs.append(out)
    return _median_docs(docs)
