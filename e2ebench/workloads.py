"""The three closed-loop workloads.

Each ``run_<workload>(seed, seconds, trace, work, plant_wrong)`` measures
in *passes* over one fixed, seeded query list and returns an
:class:`Outcome`.  It
keeps starting passes while the next one is expected to end within
*seconds* (with a floor of a few passes), so every run times whole
copies of the same work.  With ``trace`` on, untraced and traced passes
alternate: the traced ones give the per-layer numbers, the pairs give
``trace.overhead_ratio``.
"""

import json
import os
import selectors
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

import common
import inputs
import layermetrics
import verdicts

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120.0
SETUP_BOOTS = 5
"""Fresh boots per run behind the median ``setup_s``."""


class Outcome:
    """What a workload hands back to ``run.py``."""

    def __init__(self, plant_wrong):
        self.plant_wrong = plant_wrong
        self.tally = verdicts.Tally()
        self.metrics = {}           # name -> (value, unit, samples)
        self.layer_metrics = {}     # name -> value (trace runs)
        self.info = {}              # diagnostics, printed as run metadata
        self.self_tests = {}        # check -> (query name, rejected?)
        self.speed = common.SpeedLog()
        self.raw_wall_s = 0.0

    def metric(self, name, value, unit, samples):
        self.metrics[name] = (value, unit, samples)


def _schedule(seconds, trace, floor):
    """Yields (pass index, traced?) while the time budget allows."""
    start = time.perf_counter()
    last = 0.0
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= floor and elapsed + last > seconds:
            return
        begin = time.perf_counter()
        yield index, bool(trace) and index % 2 == 1
        last = time.perf_counter() - begin
        index += 1


SELF_TESTS = ("sat verdict flipped", "unsat verdict flipped",
              "sat model edited")
"""Checks every run makes on answers the checker accepted; each must be
rejected, or the run fails."""


def _judge_all(outcome, rows, self_test=True):
    """Judge (name, problem, label, status, model) rows.  The first
    accepted sat answer with a model and the first accepted unsat answer
    drive the self-tests (not the set-up probe: ``self_test=False``).
    ``plant_wrong`` spoils the first answer it can for real: ``verdict``
    flips a decided verdict, ``model`` edits one variable of a sat
    model so that it violates the problem."""
    tests = outcome.self_tests
    for name, problem, label, status, model in rows:
        if outcome.plant_wrong == "verdict" and status in ("sat", "unsat"):
            outcome.plant_wrong = None
            status, model = ("unsat", None) if status == "sat" \
                else ("sat", {})
        elif outcome.plant_wrong == "model" and status == "sat" and model:
            outcome.plant_wrong = None
            model = verdicts.violating_edit(problem, model)[1]
        verdict = outcome.tally.add(name, problem, label, status, model)
        if verdict != verdicts.OK or not self_test:
            continue
        flip = "%s verdict flipped" % status
        if flip not in tests:
            tests[flip] = (name, verdicts.flip_test(problem, label, status))
        if status == "sat" and model and SELF_TESTS[2] not in tests:
            variable, rejected = verdicts.edit_test(problem, label, model)
            tests[SELF_TESTS[2]] = ("%s (%s)" % (name, variable), rejected)


def _per_query(outcome, passes):
    """Per-query medians over *passes*, each ``(SpeedLog, [(position,
    seconds)])``: returns (reference-speed medians, per-pass
    reference-speed totals), and notes the wall-clock medians."""
    scaled = [[s * log.scale(p) for p, s in timed] for log, timed in passes]
    raw = [[s for _, s in timed] for _, timed in passes]
    medians = [statistics.median(column) for column in zip(*scaled)]
    wall = [statistics.median(column) for column in zip(*raw)]
    outcome.info["wall latency"] = (
        "p50 %.2f ms, p90 %.2f ms (not speed-corrected)"
        % (common.quantile(wall, 0.5) * 1e3, common.quantile(wall, 0.9) * 1e3))
    return medians, [sum(pass_) for pass_ in scaled]


def _latency_metrics(outcome, latencies_s, busy_s, decided,
                     setup_samples_s, rss_mb):
    """The five end-to-end metrics.  *busy_s* is the loop's
    reference-speed seconds for one copy of the list."""
    n = len(latencies_s)
    outcome.metric("latency_p50_ms", common.quantile(latencies_s, 0.5) * 1e3,
                   "ms", n)
    outcome.metric("latency_p90_ms", common.quantile(latencies_s, 0.9) * 1e3,
                   "ms", n)
    outcome.metric("throughput_qps", decided / busy_s, "1/s", n)
    outcome.metric("setup_s", statistics.median(setup_samples_s), "s",
                   len(setup_samples_s))
    outcome.metric("peak_rss_mb", rss_mb, "MB", 1)


# -- symbex-batch -------------------------------------------------------------

def run_symbex_batch(seed, seconds, trace, work, plant_wrong):
    outcome = Outcome(plant_wrong)
    queries = inputs.symbex_batch(seed)
    want = inputs.digest(queries)
    outcome.info["inputs"] = "%d queries (%d labelled unsat), digest %s" % (
        len(queries), sum(q.label == "unsat" for q in queries), want)
    outcome.info["repeats"] = "none: every query of a pass is distinct"

    def child(tag, mode):
        out_path = os.path.join(work, "batch-%s.json" % tag)
        argv = [sys.executable, os.path.join(HERE, "batch_child.py"),
                str(seed), mode, out_path]
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                env=common.child_env(), text=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        imported = None
        digest = None
        try:
            for line in proc.stdout:
                if line.startswith("imported") and imported is None:
                    imported = time.perf_counter() - spawned
                elif line.startswith("digest "):
                    digest = line.split()[1]
            proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
        if proc.returncode != 0 or imported is None:
            raise RuntimeError("symbex-batch %s child failed (exit %s)"
                               % (tag, proc.returncode))
        if mode != "setup" and digest != want:
            raise RuntimeError("%s child timed other inputs: %s != %s"
                               % (tag, digest, want))
        with open(out_path) as handle:
            document = json.load(handle)
        document["spawn_to_import_s"] = imported
        return document

    setups, rss = [], 0
    probe = inputs.setup_probe()
    for boot in range(SETUP_BOOTS):
        document = child("setup-%d" % boot, "setup")
        speed = common.SpeedLog()
        speed.extend(document["speed"])
        record = document["records"][0]
        setups.append((document["spawn_to_import_s"] + record["seconds"])
                      * speed.scale(0))
        _judge_all(outcome, [(probe.name, probe.problem, probe.label,
                              record["status"], record["model"])],
                   self_test=False)

    untraced, traced = [], []
    for index, is_traced in _schedule(seconds, trace, 3):
        document = child(index, "traced" if is_traced else "plain")
        (traced if is_traced else untraced).append(document)

    passes = []
    for document in untraced:
        speed = common.SpeedLog()
        speed.extend(document["speed"])
        outcome.speed.extend(document["speed"])
        passes.append((speed, [(i, r["seconds"]) for i, r
                               in enumerate(document["records"])]))
        outcome.raw_wall_s += sum(r["seconds"] for r in document["records"])
        rss = max(rss, document["maxrss_kb"] / 1024.0)
        outcome.info["backend"] = document["backend"]
    for document in untraced + traced:
        _judge_all(outcome, [
            (r["name"], q.problem, q.label, r["status"], r["model"])
            for q, r in zip(queries, document["records"])])
    decided = sum(r["status"] in ("sat", "unsat")
                  for r in untraced[0]["records"])
    latencies, totals = _per_query(outcome, passes)
    _latency_metrics(outcome, latencies, sum(latencies), decided, setups,
                     rss)
    outcome.info["passes"] = "%d untraced, %d traced, %d setup boots" % (
        len(untraced), len(traced), SETUP_BOOTS)
    if traced:
        outcome.layer_metrics = layermetrics.from_batch(
            traced, totals, len(queries))
    return outcome


# -- cli-cold -----------------------------------------------------------------

def _cli_once(path, trace_dir=None):
    """One ``repro FILE --model`` process: (seconds, stdout, rss_kb).

    The process is reaped with ``wait4`` for its own peak RSS; a process
    that outlives :data:`CHILD_TIMEOUT_S` is killed."""
    env = common.child_env()
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro", path, "--model",
                "--timeout", str(inputs.QUERY_DEADLINE_S)]
    else:
        argv = [sys.executable, os.path.join(HERE, "tracehost.py"), path,
                "--model", "--timeout", str(inputs.QUERY_DEADLINE_S)]
        env["E2EBENCH_TRACE_DIR"] = trace_dir
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    took = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return took, out, usage.ru_maxrss


def run_cli_cold(seed, seconds, trace, work, plant_wrong):
    outcome = Outcome(plant_wrong)
    queries = inputs.cli_cold(seed)
    outcome.info["inputs"] = "%d files (%d labelled unsat), digest %s" % (
        len(queries), sum(q.label == "unsat" for q in queries),
        inputs.digest(queries))
    outcome.info["repeats"] = "none: every file of a pass is distinct"
    paths = []
    for index, query in enumerate(queries):
        path = os.path.join(work, "q%03d.smt2" % index)
        with open(path, "w") as handle:
            handle.write(query.text)
        paths.append(path)
    problems = [verdicts.parsed_problem(q.text) for q in queries]
    probe = inputs.setup_probe()
    probe_path = os.path.join(work, "probe.smt2")
    with open(probe_path, "w") as handle:
        handle.write(probe.text)
    probe_problem = verdicts.parsed_problem(probe.text)

    speed = outcome.speed
    setups = []
    rss = 0
    for boot in range(SETUP_BOOTS):
        speed.sample(-SETUP_BOOTS + boot)
        took, out, _ = _cli_once(probe_path)
        setups.append((boot - SETUP_BOOTS, took))
        _judge_all(outcome, [(probe.name, probe_problem, probe.label,
                              *verdicts.parse_cli_model(out))],
                   self_test=False)
    speed.sample(0)

    passes, traced_dumps = [], []
    untraced_s, traced_s = [], []
    decided = 0
    trace_root = os.path.join(work, "trace")
    for index, _ in _schedule(seconds, False, 1):
        offset = index * len(queries)
        timed = []
        for i, path in enumerate(paths):
            position = offset + i
            speed.sample(position)
            took, out, rss_kb = _cli_once(path)
            rss = max(rss, rss_kb / 1024.0)
            outcome.raw_wall_s += took
            timed.append((position, took))
            status, model = verdicts.parse_cli_model(out)
            if index == 0:
                decided += status in ("sat", "unsat")
            _judge_all(outcome, [(queries[i].name, problems[i],
                                  queries[i].label, status, model)])
            if trace:
                trace_dir = os.path.join(trace_root, "%d-%d" % (index, i))
                os.makedirs(trace_dir)
                t_took, t_out, _ = _cli_once(path, trace_dir)
                untraced_s.append(took)
                traced_s.append(t_took)
                _judge_all(outcome, [(queries[i].name, problems[i],
                                      queries[i].label,
                                      *verdicts.parse_cli_model(t_out))])
                traced_dumps.extend(layermetrics.read_dumps(trace_dir))
        speed.sample(offset + len(paths))
        passes.append((speed, timed))
        if trace:
            break                   # one pass of pairs fills a traced run
    setup_scaled = [s * speed.scale(p) for p, s in setups]
    latencies, _ = _per_query(outcome, passes)
    _latency_metrics(outcome, latencies, sum(latencies), decided,
                     setup_scaled, rss)
    outcome.info["passes"] = "%d of %d processes each, %d setup boots" % (
        len(passes), len(paths), SETUP_BOOTS)
    if trace:
        outcome.layer_metrics = layermetrics.from_cli(
            traced_dumps, sum(traced_s) / sum(untraced_s), len(paths))
    return outcome


# -- serve-mix ----------------------------------------------------------------

def _frame(obj):
    data = json.dumps(obj).encode("utf-8")
    return struct.pack(">I", len(data)) + data


class _Conn:
    """One length-prefixed-JSON connection with at most one request out."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.pending = None         # (slot, sent_at)

    def send(self, obj, slot):
        self.pending = (slot, time.perf_counter())
        self.sock.sendall(_frame(obj))

    def feed(self):
        """Read what is available; returns a decoded response or None."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        return self.take()

    def take(self):
        if len(self.buffer) < 4:
            return None
        size = struct.unpack(">I", self.buffer[:4])[0]
        if len(self.buffer) < 4 + size:
            return None
        body, self.buffer = self.buffer[4:4 + size], self.buffer[4 + size:]
        return json.loads(body)

    def call(self, obj):
        """Blocking request/response outside the timed loop."""
        self.sock.sendall(_frame(obj))
        response = self.take()
        while response is None:
            response = self.feed()
        return response

    def close(self):
        self.sock.close()


def _descendants(pid):
    """Pids whose parent chain reaches *pid* (from /proc)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parents.items():
            if parent == current:
                found.append(child)
                frontier.append(child)
    return found


def _hwm_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


CHUNK = 16
"""Requests between reference-loop samples; both connections go idle
at each chunk boundary so the loop never shares the CPUs with a solve."""


def _serve_pass(problems, sequence, work, index, trace_dir, speed, base):
    """One fresh server + store, the whole sequence; returns a dict."""
    store_dir = os.path.join(work, "store-%d" % index)
    env = common.child_env()
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro"]
    else:
        argv = [sys.executable, os.path.join(HERE, "tracehost.py")]
        env["E2EBENCH_TRACE_DIR"] = trace_dir
    argv += ["netserve", "--port", "0", "--shards", "1", "--jobs", "1",
             "--store", store_dir]
    speed.sample(base)
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, text=True)
    conns = []
    try:
        banner = proc.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError("netserve did not start: %r" % banner)
        port = int(banner.split()[3].rsplit(":", 1)[1])
        conns = [_Conn(port), _Conn(port)]

        def request(slot):
            query = problems[sequence[slot]]
            return {"op": "solve", "id": slot, "name": query.name,
                    "smt2": query.text,
                    "deadline_s": inputs.QUERY_DEADLINE_S}

        probe = inputs.setup_probe()
        probe_answer = conns[0].call({
            "op": "solve", "id": -1, "name": probe.name, "smt2": probe.text,
            "deadline_s": inputs.QUERY_DEADLINE_S})
        setup_s = time.perf_counter() - spawned
        answers = [None] * len(sequence)
        latency = [None] * len(sequence)
        loop_s = 0.0
        selector = selectors.DefaultSelector()
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        for chunk_start in range(0, len(sequence), CHUNK):
            position = base + chunk_start
            speed.sample(position)
            todo = list(range(chunk_start,
                              min(chunk_start + CHUNK, len(sequence))))
            todo.reverse()
            chunk_began = time.perf_counter()
            for conn in conns:
                if todo:
                    conn.send(request(todo[-1]), todo.pop())
            outstanding = sum(c.pending is not None for c in conns)
            while outstanding:
                events = selector.select(timeout=CHILD_TIMEOUT_S)
                if not events:
                    raise RuntimeError("netserve answered nothing for %ds"
                                       % CHILD_TIMEOUT_S)
                for key, _ in events:
                    conn = key.data
                    response = conn.feed()
                    while response is not None:
                        slot, sent = conn.pending
                        latency[slot] = (position,
                                         time.perf_counter() - sent)
                        answers[slot] = response
                        conn.pending = None
                        outstanding -= 1
                        if todo:
                            conn.send(request(todo[-1]), todo.pop())
                            outstanding += 1
                        response = conn.take()
            loop_s += time.perf_counter() - chunk_began
        speed.sample(base + len(sequence))
        selector.close()
        exposition = conns[0].call({"op": "metrics"})["metrics"]
        hwm = _hwm_kb(proc.pid) + sum(_hwm_kb(p)
                                      for p in _descendants(proc.pid))
    finally:
        for conn in conns:
            conn.close()
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return {"answers": answers, "latency": latency, "setup": (base, setup_s),
            "probe": probe_answer,
            "metrics": layermetrics.parse_prometheus(exposition),
            "rss_kb": hwm, "wall_s": loop_s}


def run_serve_mix(seed, seconds, trace, work, plant_wrong):
    outcome = Outcome(plant_wrong)
    problems, sequence = inputs.serve_mix(seed)
    outcome.info["inputs"] = (
        "%d requests over %d distinct problems (%d labelled unsat), "
        "digest %s" % (len(sequence), len(problems),
                       sum(q.label == "unsat" for q in problems),
                       inputs.digest(problems, sequence)))
    parsed = [verdicts.parsed_problem(q.text) for q in problems]
    probe = inputs.setup_probe()
    probe_problem = verdicts.parsed_problem(probe.text)
    speed = outcome.speed
    untraced, traced = [], []
    for index, is_traced in _schedule(seconds, trace, 3):
        trace_dir = None
        if is_traced:
            trace_dir = os.path.join(work, "trace-%d" % index)
            os.makedirs(trace_dir)
        base = index * (len(sequence) + 1)
        result = _serve_pass(problems, sequence, work, index, trace_dir,
                             speed, base)
        result["trace_dir"] = trace_dir
        (traced if is_traced else untraced).append(result)
        answer = result["probe"]
        _judge_all(outcome, [(probe.name, probe_problem, probe.label,
                              answer.get("status"), answer.get("model"))],
                   self_test=False)
        _judge_all(outcome, [
            (problems[i].name, parsed[i], problems[i].label, a.get("status"),
             a.get("model")) for i, a in zip(sequence, result["answers"])])

    series = untraced[0]["metrics"]
    outcome.info["repeats"] = (
        "%.3f of requests ask an already-asked problem; the front door "
        "answered %.3f from its cache and coalesced %.3f"
        % (inputs.repeat_share(sequence),
           series.get("repro_net_cache_hits_total", 0.0) / len(sequence),
           series.get("repro_net_coalesced_total", 0.0) / len(sequence)))
    passes, setups, rss = [], [], 0
    for result in untraced:
        passes.append((speed, result["latency"]))
        outcome.raw_wall_s += result["wall_s"]
        setups.append(result["setup"][1] * speed.scale(result["setup"][0]))
        rss = max(rss, result["rss_kb"] / 1024.0)
    decided = sum(a.get("status") in ("sat", "unsat")
                  for a in untraced[0]["answers"])
    # Both connections stay busy between chunk boundaries, so the loop's
    # busy seconds are the requests' summed latency over two.
    latencies, _ = _per_query(outcome, passes)
    _latency_metrics(outcome, latencies, sum(latencies) / 2, decided,
                     setups, rss)
    outcome.info["passes"] = "%d untraced, %d traced" % (len(untraced),
                                                         len(traced))
    if traced:
        outcome.layer_metrics = layermetrics.from_serve(
            traced, untraced, len(sequence), speed)
    return outcome


WORKLOADS = {
    "symbex-batch": run_symbex_batch,
    "cli-cold": run_cli_cold,
    "serve-mix": run_serve_mix,
}
