"""Run the unmodified ``repro`` CLI with layer timers installed.

``python3 e2ebench/tracehost.py ARGS...``, with ``$E2EBENCH_TRACE_DIR``
naming a directory, times ``import repro``, wraps every layer
(:mod:`layers`), runs ``repro ARGS...`` and writes ``<dir>/<pid>.json``
at exit.  The serving stack's workers are *spawn*
processes, which re-import this file as ``__mp_main__`` before running
the worker loop, so the module-level hook below installs the same timers
in every worker too; each writes its own file when it exits.
"""

import atexit
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

TRACE_DIR_ENV = "E2EBENCH_TRACE_DIR"


def _hook():
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    start = time.perf_counter()
    import repro
    import_s = time.perf_counter() - start
    import repro.cache
    import repro.serve.net  # noqa: F401
    import repro.store  # noqa: F401

    import common
    import layers
    clock = layers.Clock()
    layers.install(clock)
    speed = [common.time_reference() for _ in range(3)]

    def write():
        layers.dump(clock, os.path.join(trace_dir, "%d.json" % os.getpid()),
                    {"import_s": import_s, "speed": speed,
                     "caches": repro.cache.stats(),
                     "role": "main" if __name__ == "__main__" else "worker"})

    atexit.register(write)


_hook()


if __name__ == "__main__":
    from repro.cli import main
    sys.exit(main(sys.argv[1:]))
