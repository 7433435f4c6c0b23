"""Synchronization of parametric automata — Section 7 of the paper.

The synchronization formula ``Psi_{P x P'}`` characterizes the pairs of
word encodings of the two automata that denote the *same* word.  It is
built from the asynchronous product (either automaton may idle while the
other reads an epsilon-valued variable), in three parts:

* the Parikh formula of the product (``Phi_P``), over pair-count variables;
* ``Psi_#`` — each side's per-variable count is the sum of the pair counts
  it participates in;
* ``Psi_=`` — a pair that occurs forces its two labels to share one value
  (idling is represented by the epsilon value).

Statically-known variable values (``PA.bindings``) prune the product:
pairs of distinct constants, and idle pairs whose non-idle label is a
non-epsilon constant, can never fire and are dropped before the Parikh
formula is built.
"""

from repro.alphabet import EPSILON
from repro.automata.nfa import NFA
from repro.automata.parikh import parikh_formula
from repro.core.pfa import count_var
from repro.kernels.automata import async_product_packed
from repro.logic.formula import FALSE, TRUE, conj, eq, ge, implies
from repro.logic.sets import member_of
from repro.logic.terms import const, var as int_var
from repro.obs import current_metrics

IDLE = None
"""Marker for the idling side of an asynchronous product transition."""


def _value_expr(pa, label):
    """Linear expression of a product-label component: the epsilon constant
    for an idle side, the bound constant, or the character variable."""
    if label is IDLE:
        return const(EPSILON)
    bound = pa.binding_of(label)
    if bound is not None:
        return const(bound)
    return int_var(label)


def _compatible(pa_left, pa_right, left, right):
    """Can this product transition ever fire under some interpretation?"""
    if left is IDLE and right in pa_right.never_epsilon:
        return False
    if right is IDLE and left in pa_left.never_epsilon:
        return False
    lv = EPSILON if left is IDLE else pa_left.binding_of(left)
    rv = EPSILON if right is IDLE else pa_right.binding_of(right)
    left_class = None if left is IDLE else pa_left.class_of(left)
    right_class = None if right is IDLE else pa_right.class_of(right)
    if lv is not None and right_class is not None:
        return lv in right_class
    if rv is not None and left_class is not None:
        return rv in left_class
    if left_class is not None and right_class is not None:
        return bool(set(left_class) & set(right_class))
    if lv is None or rv is None:
        return True
    return lv == rv


def asynchronous_product(pa_left, pa_right, deadline=None):
    """The trimmed asynchronous product NFA over pair symbols.

    Symbols are ``(left_label, right_label)`` where a component is a
    character variable or :data:`IDLE`.  The product can be quadratic in
    the automata sizes, so *deadline* is checked per explored pair and
    :class:`~repro.errors.ResourceLimit` raised when the budget is gone.
    """
    num_states, transitions, finals = async_product_packed(
        pa_left, pa_right,
        lambda lv, rv: _compatible(pa_left, pa_right, lv, rv),
        IDLE, deadline)
    product = NFA(num_states, transitions, 0, finals)
    return product.trim()


def synchronization_formula(pa_left, pa_right, prefix, counter_bound=None,
                            deadline=None):
    """``Psi_{P x P'}`` (Lemma 7.1) over pair-count and character variables.

    *prefix* namespaces the pair-count and flow variables.  The
    interpretation constraints (psi) of PAs with ``track_counts`` are *not*
    conjoined here — the flattening adds them once globally; throwaway PAs
    (``track_counts=False``) contribute theirs locally.
    """
    product = asynchronous_product(pa_left, pa_right, deadline)
    metrics = current_metrics()
    if metrics.enabled:
        metrics.observe("sync.product_states", product.num_states)
        metrics.observe("sync.product_pairs", len(product.transitions))
    if product.num_states == 0 or not product.finals:
        return FALSE

    symbols = sorted(product.alphabet(), key=_pair_key)
    pair_name = {sym: "%s.p%d" % (prefix, i) for i, sym in enumerate(symbols)}

    phi = parikh_formula(product, lambda sym: pair_name[sym],
                         prefix + ".f", counter_bound)

    parts = [phi]

    # Psi_#: per-side occurrence counts are sums of pair counts.  Variables
    # of a tracked side with no surviving product transition cannot occur.
    for pa, side in ((pa_left, 0), (pa_right, 1)):
        if not pa.track_counts:
            continue
        sums = {v: const(0) for v in pa.char_vars}
        for sym in symbols:
            label = sym[side]
            if label is not IDLE:
                sums[label] = sums[label] + int_var(pair_name[sym])
        for v, total in sums.items():
            parts.append(eq(int_var(count_var(v)), total))

    # Psi_=: an occurring pair forces its two labels to denote one symbol.
    # A class label (a collapsed transition of a concrete automaton) admits
    # a different member per firing, so it constrains the other side by
    # set membership rather than value equality.
    for sym in symbols:
        left_class = None if sym[0] is IDLE else pa_left.class_of(sym[0])
        right_class = None if sym[1] is IDLE else pa_right.class_of(sym[1])
        if left_class is not None and right_class is not None:
            shared = set(left_class) & set(right_class)
            constraint = TRUE if shared else FALSE
        elif right_class is not None:
            constraint = member_of(
                _value_expr(pa_left, sym[0]), right_class)
        elif left_class is not None:
            constraint = member_of(
                _value_expr(pa_right, sym[1]), left_class)
        else:
            constraint = eq(_value_expr(pa_left, sym[0]),
                            _value_expr(pa_right, sym[1]))
        if constraint is TRUE:
            continue
        parts.append(implies(ge(int_var(pair_name[sym]), 1), constraint))

    for pa in (pa_left, pa_right):
        if not pa.track_counts and pa.psi is not TRUE:
            parts.append(pa.psi)

    return conj(*parts)


def _pair_key(sym):
    return tuple("" if part is IDLE else str(part) for part in sym)
