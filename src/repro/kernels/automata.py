"""Bitset automata constructions.

The inner loops of :meth:`repro.automata.nfa.NFA.determinize`,
:meth:`~repro.automata.nfa.NFA.intersect` and
:func:`repro.core.sync.asynchronous_product`:

* **determinize** — a subset of NFA states is one Python int bitmask;
  the successor set under a symbol is an OR-fold of precomputed
  per-symbol successor masks over the set bits, so the inner loop is
  integer AND/OR/shift with no hashing of sets;
* **intersect / asynchronous product** — product states are single int
  pair codes (``p * n_right + q``), symbols and labels are interned to
  small ints, and label-pair compatibility is evaluated once per *label*
  pair up front instead of once per *state* pair in the BFS.

Every function returns raw ``(num_states, transitions, finals)`` data —
the callers build the :class:`~repro.automata.nfa.NFA` — and explores
breadth-first from state 0, so equal inputs always give the same state
numbering and the fingerprint-keyed LRU caches see equal results.

Budgets: the state-count guard is an exact per-state compare, the
wall-clock check fires every 64 expansions, and both raise an
attributable :class:`~repro.errors.ResourceLimit`.
"""

from collections import deque

from repro.errors import ResourceLimit


def determinize_packed(base, alphabet, deadline=None):
    """Subset construction over int bitmasks.

    *base* must be epsilon-free and *alphabet* already sorted (the
    caller normalizes both).
    Returns ``(num_states, transitions, finals)``.
    """
    n = base.num_states
    sym_index = {sym: i for i, sym in enumerate(alphabet)}
    # succ[si][s] = bitmask of states reachable from s on alphabet[si].
    succ = [[0] * n for _ in alphabet]
    for s in range(n):
        for sym, t in base._adj[s]:
            si = sym_index.get(sym)
            if si is not None:
                succ[si][s] |= 1 << t
    final_mask = 0
    for f in base.finals:
        final_mask |= 1 << f

    start = 1 << base.initial
    index = {start: 0}
    order = [start]
    transitions = []
    finals = set()
    state_limit = None if deadline is None else deadline.automata_state_limit
    steps = 0
    head = 0
    while head < len(order):
        steps += 1
        if deadline is not None:
            if state_limit is not None and len(index) > state_limit:
                deadline.charge_states(len(index), op="determinization")
            if not steps & 63 and deadline.expired():
                raise ResourceLimit("determinization hit the deadline",
                                    reason="deadline")
        current = order[head]
        ci = head
        head += 1
        if current & final_mask:
            finals.add(ci)
        for si, sym in enumerate(alphabet):
            arr = succ[si]
            nxt = 0
            m = current
            while m:
                low = m & -m
                nxt |= arr[low.bit_length() - 1]
                m ^= low
            ni = index.get(nxt)
            if ni is None:
                ni = index[nxt] = len(index)
                order.append(nxt)
            transitions.append((ci, sym, ni))
    return len(index), transitions, finals


def intersect_packed(a, b, deadline=None):
    """Pair-BFS product over int pair codes with interned symbols.

    *a* and *b* must be epsilon-free.  Returns
    ``(num_states, transitions, finals)``; the initial state is 0.
    """
    nb = b.num_states
    # Intern symbols appearing in `a`; `b` symbols outside that set can
    # never fire in the product, so they are dropped up front.
    sym_ids = {}
    syms = []
    a_adj = []
    for p in range(a.num_states):
        row = []
        for sym, t in a._adj[p]:
            si = sym_ids.get(sym)
            if si is None:
                si = sym_ids[sym] = len(syms)
                syms.append(sym)
            row.append((si, t))
        a_adj.append(row)
    b_by = [None] * nb
    for q in range(nb):
        d = {}
        for sym, t in b._adj[q]:
            si = sym_ids.get(sym)
            if si is not None:
                d.setdefault(si, []).append(t)
        b_by[q] = d

    a_finals = a.finals
    b_finals = b.finals
    start_code = a.initial * nb + b.initial
    index = {start_code: 0}
    transitions = []
    finals = []
    worklist = deque([start_code])
    state_limit = None if deadline is None else deadline.automata_state_limit
    steps = 0
    while worklist:
        steps += 1
        if deadline is not None:
            if state_limit is not None and len(index) > state_limit:
                deadline.charge_states(len(index), op="product")
            if not steps & 63 and deadline.expired():
                raise ResourceLimit("product construction hit the deadline",
                                    reason="deadline")
        code = worklist.popleft()
        p, q = divmod(code, nb)
        src = index[code]
        if p in a_finals and q in b_finals:
            finals.append(src)
        bq = b_by[q]
        for si, pt in a_adj[p]:
            qts = bq.get(si)
            if qts:
                base_pt = pt * nb
                sym = syms[si]
                for qt in qts:
                    tcode = base_pt + qt
                    ti = index.get(tcode)
                    if ti is None:
                        ti = index[tcode] = len(index)
                        worklist.append(tcode)
                    transitions.append((src, sym, ti))
    return len(index), transitions, finals


def async_product_packed(pa_left, pa_right, compatible, idle, deadline=None):
    """Asynchronous product with label-pair compatibility precomputed.

    *compatible* is a ``(left_label, right_label) -> bool`` callable
    (label components may be *idle*); it depends only on the labels, so
    it is evaluated once per label pair here and the BFS reads a flat
    bool table.  Returns ``(num_states, transitions, finals)``.
    """
    left, right = pa_left.nfa, pa_right.nfa
    nr = right.num_states
    lids = {}
    llabels = []
    ledges = []
    for p in range(left.num_states):
        row = []
        for lv, pt in left.out_edges(p):
            li = lids.get(lv)
            if li is None:
                li = lids[lv] = len(llabels)
                llabels.append(lv)
            row.append((li, lv, pt))
        ledges.append(row)
    rids = {}
    rlabels = []
    redges = []
    for q in range(nr):
        row = []
        for rv, qt in right.out_edges(q):
            ri = rids.get(rv)
            if ri is None:
                ri = rids[rv] = len(rlabels)
                rlabels.append(rv)
            row.append((ri, rv, qt))
        redges.append(row)
    comp = [[compatible(lv, rv) for rv in rlabels] for lv in llabels]
    lidle = [compatible(lv, idle) for lv in llabels]
    ridle = [compatible(idle, rv) for rv in rlabels]

    start_code = left.initial * nr + pa_right.initial
    goal_code = pa_left.final * nr + pa_right.final
    index = {start_code: 0}
    transitions = []
    worklist = deque([start_code])
    state_limit = None if deadline is None else deadline.automata_state_limit
    steps = 0
    while worklist:
        steps += 1
        if deadline is not None:
            if state_limit is not None and len(index) > state_limit:
                deadline.charge_states(len(index), op="asynchronous product")
            if not steps & 63 and deadline.expired():
                raise ResourceLimit("asynchronous product hit the deadline",
                                    reason="deadline")
        code = worklist.popleft()
        p, q = divmod(code, nr)
        src = index[code]
        redgq = redges[q]
        for li, lv, pt in ledges[p]:
            crow = comp[li]
            base_pt = pt * nr
            for ri, rv, qt in redgq:
                if crow[ri]:
                    tcode = base_pt + qt
                    ti = index.get(tcode)
                    if ti is None:
                        ti = index[tcode] = len(index)
                        worklist.append(tcode)
                    transitions.append((src, (lv, rv), ti))
            if lidle[li]:
                tcode = base_pt + q
                ti = index.get(tcode)
                if ti is None:
                    ti = index[tcode] = len(index)
                    worklist.append(tcode)
                transitions.append((src, (lv, idle), ti))
        for ri, rv, qt in redgq:
            if ridle[ri]:
                tcode = p * nr + qt
                ti = index.get(tcode)
                if ti is None:
                    ti = index[tcode] = len(index)
                    worklist.append(tcode)
                transitions.append((src, (idle, rv), ti))
    finals = [index[goal_code]] if goal_code in index else []
    return len(index), transitions, finals
