"""Solver configuration and resource budgets.

Every long-running component takes a :class:`Deadline` so a single wall-clock
budget can be threaded through the SAT core, the simplex, and the automata
constructions without relying on signals (which do not compose with pytest).

:class:`Budget` extends the deadline into *unified resource governance*
(modelled on cvc5's resource manager): one object carries the wall clock,
the branch-and-bound node budget, the DPLL(T) iteration budget, the
automata state-count guard and the Parikh counter bound, and every
:class:`~repro.errors.ResourceLimit` it raises names the budget that
tripped so an UNKNOWN answer is attributable.
"""

import time
from dataclasses import dataclass

from repro.errors import ResourceLimit


class Deadline:
    """A wall-clock deadline checked cooperatively in inner loops.

    The class-level limit attributes make a plain deadline a degenerate
    :class:`Budget`: components read ``deadline.bb_node_limit`` etc.
    without caring which of the two they were handed.
    """

    bb_node_limit = None
    smt_iteration_limit = None
    automata_state_limit = None
    parikh_counter_bound = None

    def __init__(self, seconds=None):
        self._expires_at = None if seconds is None else time.monotonic() + seconds

    @classmethod
    def unbounded(cls):
        return cls(None)

    def expired(self):
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    def checkpoint(self, tracer=None):
        """Like :meth:`expired`, but attributable: when the budget is gone,
        record a ``deadline_expired`` event (and attribute) on the active
        span so an UNKNOWN can be traced to the time budget rather than to
        refinement exhaustion."""
        if not self.expired():
            return False
        if tracer is not None:
            tracer.event("deadline_expired")
            tracer.annotate(deadline_expired=True)
        return True

    def remaining(self):
        """Seconds left, or ``None`` if unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def charge_states(self, count, op="automata"):
        """Guard an automata construction against state-count blowup.

        Raises an attributable :class:`~repro.errors.ResourceLimit` once
        *count* exceeds the state budget (a no-op on plain deadlines,
        whose limit is ``None``).
        """
        limit = self.automata_state_limit
        if limit is not None and count > limit:
            raise ResourceLimit(
                "%s exceeded the automata state budget (%d > %d)"
                % (op, count, limit), reason="automata-states")


class Budget(Deadline):
    """Unified resource governance for one ``solve`` call.

    Subsumes the wall-clock :class:`Deadline` and the per-component
    budget knobs that used to travel separately (``bb_node_limit``,
    ``smt_iteration_limit``, ``parikh_counter_bound``), and adds the
    automata state-count guard.  Passing ``None`` for a limit makes that
    dimension unbounded.  Components receive the budget wherever they
    used to receive a deadline.
    """

    def __init__(self, seconds=None, bb_nodes=None, smt_iterations=None,
                 automata_states=None, parikh_bound=None):
        super().__init__(seconds)
        self.bb_node_limit = bb_nodes
        self.smt_iteration_limit = smt_iterations
        self.automata_state_limit = automata_states
        self.parikh_counter_bound = parikh_bound


@dataclass
class RefinementStep:
    """One (m, p, q) point of the paper's Section 9 strategy.

    ``m`` is the chain length of numeric PFAs, ``p`` the number of loops of
    standard PFAs, and ``q`` the length of each loop.
    """
    numeric_m: int
    loops: int
    loop_length: int


@dataclass
class SolverConfig:
    """Tunable options of the top-level decision procedure.

    The defaults follow the paper: initial (m, p, q) = (5, 2, q0) where q0
    comes from a static analysis, then m doubles while p and q grow by one
    per refinement round.
    """

    initial_numeric_m: int = 5
    initial_loops: int = 2
    initial_loop_length: int = 2    # q0 fallback when static analysis is silent
    max_rounds: int = 3
    max_numeric_m: int = 40
    max_loops: int = 5
    max_loop_length: int = 6
    use_overapproximation: bool = True
    use_static_analysis: bool = True
    # Cross-round incrementality: keep one SAT solver alive across
    # refinement rounds, reusing unchanged flattened fragments under
    # activation literals (see DESIGN.md Section 6).
    use_incremental: bool = True
    # Solver-wide memoization caches (automata operations, regex
    # compilation); repro.cache.disabled() wraps the run when False.
    use_caches: bool = True
    # Run the logic presolve (variable elimination + interval folding)
    # before SMT solving; the last degradation rung turns it off.
    use_presolve: bool = True
    # Upper bound imposed on every Parikh counter so branch-and-bound
    # terminates on unbounded polyhedra (see DESIGN.md Section 5).
    parikh_counter_bound: int = 10 ** 9
    # Branch-and-bound node budget per LIA check.
    bb_node_limit: int = 200000
    # DPLL(T) iteration budget.
    smt_iteration_limit: int = 100000
    # State-count guard on determinize/product constructions (the
    # subset construction is exponential in the worst case).
    automata_state_limit: int = 200000
    # Fault-injection specs armed for the duration of each solve call
    # (e.g. ("cache.lookup:raise:after=2",)); see repro.faults.
    fault_specs: tuple = ()
    # Directory of the crash-safe persistent store (repro.store), shared
    # across worker boots; None falls back to the process default and
    # then $REPRO_STORE (see repro.store.active_store), unset disables.
    store_path: str = None

    def budget(self, seconds=None):
        """A fresh :class:`Budget` carrying this config's limits."""
        return Budget(seconds=seconds,
                      bb_nodes=self.bb_node_limit,
                      smt_iterations=self.smt_iteration_limit,
                      automata_states=self.automata_state_limit,
                      parikh_bound=self.parikh_counter_bound)

    def schedule(self, q0=None):
        """The sequence of refinement steps, largest-first growth per paper."""
        q = self.initial_loop_length if q0 is None else max(q0, 1)
        m, p = self.initial_numeric_m, self.initial_loops
        steps = []
        for _ in range(self.max_rounds):
            steps.append(RefinementStep(
                numeric_m=min(m, self.max_numeric_m),
                loops=min(p, self.max_loops),
                loop_length=min(q, self.max_loop_length)))
            m, p, q = m * 2, p + 1, q + 1
        return steps


@dataclass(frozen=True)
class TenantQuota:
    """One API tenant of the network front door: its key and its
    token-bucket rate limit (*rps* refills per second up to *burst*)."""

    name: str
    key: str
    rps: float = 50.0
    burst: int = 100

    @classmethod
    def parse(cls, spec):
        """``name=key[:rps[:burst]]`` (the ``--api-key`` CLI syntax)."""
        head, sep, tail = spec.partition("=")
        if not sep or not head.strip() or not tail.strip():
            raise ValueError("tenant spec %r is not name=key[:rps[:burst]]"
                             % spec)
        parts = tail.split(":")
        key = parts[0].strip()
        rps = float(parts[1]) if len(parts) > 1 and parts[1].strip() \
            else cls.rps
        burst = int(parts[2]) if len(parts) > 2 and parts[2].strip() \
            else cls.burst
        if rps <= 0 or burst <= 0:
            raise ValueError("tenant %r needs positive rps/burst" % head)
        return cls(head.strip(), key, rps, burst)


@dataclass
class NetConfig:
    """Shape of the network front door (:mod:`repro.serve.net`).

    Robustness knobs, layer by layer: admission (``max_open_requests``
    bounds intake, tenants carry token buckets), deadline propagation
    (``default_deadline_s`` when the caller names none, capped at
    ``max_deadline_s``), and failure handling (per-shard circuit
    breakers, optional automatic shard restart).
    """

    host: str = "127.0.0.1"
    port: int = 8642
    shards: int = 2
    jobs_per_shard: int = 2
    # Admission: total open requests across all shards before the door
    # sheds with unknown(overloaded); reject-don't-buffer, as in the
    # SolverService intake.
    max_open_requests: int = 256
    # Deadline propagation: the caller's deadline_s rides the wire and
    # is clamped into (0, max_deadline_s]; absent, the default applies.
    default_deadline_s: float = 10.0
    max_deadline_s: float = 60.0
    # Identical-fingerprint requests in flight share one solve, and
    # finished sat/unsat verdicts are answered from a front-door LRU.
    coalesce: bool = True
    cache_size: int = 1024
    # Per-shard circuit breaker: consecutive infrastructure failures
    # before the shard is routed around, and the half-open cooldown.
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 2.0
    # Automatic shard restart this many seconds after a kill (None
    # leaves dead shards down until an admin restart).
    restart_after_s: float = None
    # Wire limits: one framed request (or HTTP body) may not exceed
    # this many bytes; longer frames answer unknown(too-large).
    max_frame_bytes: int = 4 * 1024 * 1024
    # Authentication: with any tenants configured, requests must carry
    # a known key; an empty tuple leaves the door open (dev mode) with
    # one anonymous tenant using the default quota.
    tenants: tuple = ()
    # Key for /admin endpoints (kill/restart shard, arm faults); None
    # leaves admin open — only sensible in tests and chaos harnesses.
    admin_key: str = None
    # Seconds a retry-after hint suggests to a shed client.
    retry_after_s: float = 0.5

    def tenant_for(self, key):
        """The matching :class:`TenantQuota`, or None.  With no tenants
        configured every caller maps to the anonymous tenant."""
        if not self.tenants:
            return ANONYMOUS_TENANT
        for tenant in self.tenants:
            if tenant.key == key:
                return tenant
        return None


ANONYMOUS_TENANT = TenantQuota("anonymous", "", rps=10 ** 6, burst=10 ** 6)

DEFAULT_CONFIG = SolverConfig()
