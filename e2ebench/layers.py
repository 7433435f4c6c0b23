"""Per-layer self time, measured from outside the program.

:func:`install` wraps the public functions and methods of each layer's
``repro`` modules in a timer for the life of the process; nothing in
``src`` changes.  A wrapped call's *self time* is its duration minus the
time of the wrapped calls it made, and is charged to the layer of the
function's module.  Private helpers are not wrapped, so their time lands
in the nearest wrapped caller.  ``TrauSolver.solve`` is wrapped too (as
layer ``core.solver``): the self times inside a solve then sum to the
solve's own duration, and ``core.solver``'s share of them is the time no
named layer explains (the solve body and the unwrapped helpers it calls).

References other modules took with ``from module import name`` before
the wrap are rebound, so ``repro.core.solver`` calls the timed
``overapproximate`` and not the original.
"""

import asyncio
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = [
    ("smtlib.parse", ("repro.smtlib.parser", "repro.smtlib.convert")),
    ("core.normalize", ("repro.core.normalize",)),
    ("core.strategy", ("repro.core.strategy",)),
    ("core.overapprox", ("repro.core.overapprox",)),
    ("core.flatten", ("repro.core.flatten", "repro.core.pfa",
                      "repro.core.sync")),
    ("smt.session", ("repro.smt.session", "repro.smt.solver")),
    ("sat.solve", ("repro.sat.solver", "repro.kernels.sat")),
    ("lia.check", ("repro.lia.simplex", "repro.kernels.simplex")),
    ("lia.bb", ("repro.lia.branch_bound",)),
    ("automata", ("repro.automata.nfa", "repro.automata.regex",
                  "repro.automata.parikh", "repro.kernels.automata")),
    ("strings.check_model", ("repro.strings.eval",)),
    ("serve.router", ("repro.serve.router",)),
    ("serve.service", ("repro.serve.service", "repro.serve.pool")),
    ("core.solver", ("repro.core.solver",)),
]
"""(layer, modules) in wrapping order; every public name of a module is
charged to its layer."""

SPECIAL = [
    ("store.get", "repro.store", "Store.get"),
    ("store.put", "repro.store", "Store.put"),
    ("serve.admission", "repro.serve.net", "NetServer._admit"),
    ("serve.admission", "repro.serve.net", "NetServer._deadline"),
    ("serve.admission", "repro.serve.net", "TokenBucket.take"),
]
"""Single functions timed as their own layer.  The admission rungs are
private methods of the door, so they are named here one by one."""

COUNTED = {
    "smt.session_calls": ("IncrementalSmtSession.solve", "solve_formula"),
    "sat.solve_calls": ("SatSolver.solve", "PackedSatSolver.solve"),
    "lia.check_calls": ("Simplex.check", "PackedSimplex.check"),
    "core.overapprox_calls": ("overapproximate",),
}
"""Call counters kept beside the times, by qualified function name."""


class Clock:
    """Self-time and call tallies of one process."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.solve_s = 0.0          # inclusive time inside TrauSolver.solve
        self.inside_s = {}          # layer -> self time spent inside solves
        self.depth = 0              # solves open on the stack
        self.rounds = 0             # refinement rounds over all solves
        self.overapprox_decided = 0
        self._stack = []

    def wrap(self, layer, qualname, fn):
        stack = self._stack
        self_s = self.self_s
        inside_s = self.inside_s
        calls = self.calls
        counts = self.counts
        counter = None
        for name, targets in COUNTED.items():
            if qualname in targets:
                counter = name
        is_solve = qualname == "TrauSolver.solve"
        clock = self
        perf = time.perf_counter

        def timed(*args, **kwargs):
            start = perf()
            stack.append(0.0)
            if is_solve:
                clock.depth += 1
            try:
                result = fn(*args, **kwargs)
                if is_solve:
                    clock.note(result)
                return result
            finally:
                elapsed = perf() - start
                child = stack.pop()
                self_s[layer] = self_s.get(layer, 0.0) + elapsed - child
                if clock.depth:
                    inside_s[layer] = (inside_s.get(layer, 0.0)
                                       + elapsed - child)
                calls[layer] = calls.get(layer, 0) + 1
                if counter is not None:
                    counts[counter] = counts.get(counter, 0) + 1
                if is_solve:
                    clock.solve_s += elapsed
                    clock.depth -= 1
                if stack:
                    stack[-1] += elapsed

        # Same identity as the original, so pickling by reference (the
        # spawn start method sends functions that way) finds the wrapper.
        functools.update_wrapper(timed, fn)
        return timed

    def note(self, result):
        """Tally what a finished solve reports about itself."""
        self.rounds += result.stats.get("rounds", 0)
        if result.stats.get("phase") == "overapproximation":
            self.overapprox_decided += 1

    def snapshot(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "solve_s": self.solve_s,
                "inside_s": dict(self.inside_s),
                "rounds": self.rounds,
                "overapprox_decided": self.overapprox_decided}


def _plain(fn):
    return (inspect.isfunction(fn) and not asyncio.iscoroutinefunction(fn)
            and not inspect.isgeneratorfunction(fn))


def _targets(module):
    """(owner, attribute, qualname, function) for each public function
    and method defined in *module*."""
    for name, value in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if _plain(value) and value.__module__ == module.__name__:
            yield module, name, name, value
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr, member in list(vars(value).items()):
                if attr.startswith("_") or not _plain(member):
                    continue
                yield value, attr, "%s.%s" % (name, attr), member


def install(clock):
    """Wrap every layer of the loaded program, timing into *clock*."""
    replaced = {}
    for layer, modules in LAYERS:
        for module_name in modules:
            module = importlib.import_module(module_name)
            for owner, attr, qualname, fn in _targets(module):
                if fn in replaced:
                    continue
                wrapped = clock.wrap(layer, qualname, fn)
                setattr(owner, attr, wrapped)
                replaced[fn] = wrapped
    for layer, module_name, qualname in SPECIAL:
        module = importlib.import_module(module_name)
        class_name, attr = qualname.split(".")
        owner = getattr(module, class_name)
        fn = vars(owner)[attr]
        wrapped = clock.wrap(layer, qualname, fn)
        setattr(owner, attr, wrapped)
        replaced[fn] = wrapped
    # Rebind names other modules imported before the wrap.
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            try:
                target = replaced.get(value)
            except TypeError:       # unhashable module attribute
                continue
            if target is not None and target is not value:
                setattr(module, attr, target)


def dump(clock, path, extra=None):
    data = clock.snapshot()
    data.update(extra or {})
    with open(path, "w") as handle:
        json.dump(data, handle)
