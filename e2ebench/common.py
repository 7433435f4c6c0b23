"""Host-speed reference, statistics and process plumbing.

Nothing here imports :mod:`repro`: the parent process only times,
spawns and reads.

Host speed
----------
The shared 2-vCPU hosts this benchmark runs on drift in speed by up to
2x over minutes, and the drift is real slowness (CPU time tracks wall
time, steal stays near 0), not descheduling.  So every time metric is
reported in milliseconds *at a reference speed*: the benchmark times
:func:`reference_loop` — a fixed pure-Python loop the program never
runs — between queries, and scales each measured time by
``REFERENCE_MS / (median of the nearest loop times)``.  The speed swings
within seconds, so only the :data:`NEAREST` nearest samples count.  Raw
wall time and the loop's own times are printed beside the metrics.
"""

import os
import statistics
import subprocess
import sys
import time

REFERENCE_MS = 2.0
"""What :func:`reference_loop` takes at the reference speed, in ms."""

_REF_ITERATIONS = 12000
NEAREST = 3
"""Reference samples per scale factor; the speed swings within seconds."""


def reference_loop():
    """A fixed mix of the interpreter work the solver does: integer
    arithmetic, dict and list traffic, attribute-free calls."""
    acc = 7
    table = {}
    items = []
    for i in range(_REF_ITERATIONS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFF
        table[acc & 511] = i
        if i & 15 == 0:
            items.append(acc)
    return acc + len(table) + len(items)


def time_reference():
    """One timed run of the reference loop, in seconds."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class SpeedLog:
    """Reference-loop samples tagged with an ordinal position, and the
    scale factor that converts a time measured near a position to the
    reference speed (median of the :data:`NEAREST` samples nearest to
    it)."""

    def __init__(self):
        self.samples = []           # (position, seconds)

    def sample(self, position):
        seconds = time_reference()
        self.samples.append((position, seconds))
        return seconds

    def extend(self, samples):
        self.samples.extend(samples)

    def scale(self, position):
        if not self.samples:
            raise RuntimeError("no reference-loop samples")
        nearest = sorted(self.samples,
                         key=lambda s: abs(s[0] - position))[:NEAREST]
        local = statistics.median(s[1] for s in nearest)
        return REFERENCE_MS / 1000.0 / local

    def seconds(self):
        return [s for _, s in self.samples]


def quantile(values, q):
    """Linear-interpolated quantile (*q* in [0, 1]) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = (len(data) - 1) * q
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def steal_ticks():
    """Total steal ticks from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def child_env():
    """The environment of every program process: pinned hash seed, the
    checkout's ``src`` on the path, no ambient store or armed faults."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.abspath("src")
    env.pop("REPRO_STORE", None)
    env.pop("REPRO_INJECT_FAULT", None)
    return env


def git_revision():
    """The checkout's revision, or a digest of ``src`` when the
    checkout is not a git repository."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import hashlib
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as handle:
                    h.update(name.encode() + handle.read())
    return "src-sha256:" + h.hexdigest()[:12]


def interpreter():
    return "%s %s" % (sys.implementation.name, sys.version.split()[0])
