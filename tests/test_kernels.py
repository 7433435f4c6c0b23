"""The flat-array kernels checked against small references.

* SAT — verdicts, assumption runs and incremental batches against the
  truth-table ``brute_force`` of ``test_sat.py``, with every SAT model
  checked against the clauses;
* simplex — verdicts against exact Fourier-Motzkin elimination over
  ``Fraction``; SAT values must meet every bound and row definition, and
  every conflict core must be infeasible on its own;
* automata — determinize, intersect and the asynchronous PFA product
  checked by language equality on every word up to a small length, and
  the determinized automaton checked to be deterministic and complete.

Caches are disabled in the automata suites, so every example runs the
construction instead of returning an earlier example's result.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import cache as _cache
from repro.automata.nfa import NFA
from repro.config import Deadline
from repro.core.names import NameFactory
from repro.core.pfa import numeric_pfa, standard_pfa, straight_pfa
from repro.core.sync import IDLE, _compatible, asynchronous_product
from repro.kernels.sat import PackedSatSolver
from repro.kernels.simplex import PackedSimplex
from repro.sat import SAT, UNSAT
from tests.test_sat import brute_force


# -- SAT ---------------------------------------------------------------------


NUM_VARS = 6


def literals(num_vars):
    return st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v]))


def cnfs(num_vars=NUM_VARS, max_clauses=14):
    return st.lists(
        st.lists(literals(num_vars), min_size=1, max_size=4),
        min_size=0, max_size=max_clauses)


def check_clauses(clauses, model):
    return all(any(model.get(abs(l), False) == (l > 0) for l in c)
               for c in clauses)


def reference_verdict(clauses):
    return SAT if brute_force(clauses, NUM_VARS) is not None else UNSAT


def solve_with(clauses, assumptions=None):
    solver = PackedSatSolver()
    solver.ensure_var(NUM_VARS)
    for clause in clauses:
        if not solver.add_clause(clause):
            return UNSAT, None
    outcome = solver.solve(assumptions=assumptions)
    return outcome, solver.model() if outcome == SAT else None


class TestSatEquivalence:
    @given(cnfs())
    @settings(max_examples=120, deadline=None)
    def test_same_verdict_and_valid_models(self, clauses):
        outcome, model = solve_with(clauses)
        assert outcome == reference_verdict(clauses)
        if outcome == SAT:
            assert check_clauses(clauses, model)

    @given(cnfs(), st.lists(literals(NUM_VARS), min_size=1, max_size=3,
                            unique_by=abs))
    @settings(max_examples=80, deadline=None)
    def test_same_verdict_under_assumptions(self, clauses, assumptions):
        outcome, model = solve_with(clauses, assumptions)
        assert outcome == reference_verdict(
            clauses + [[a] for a in assumptions])
        if outcome == SAT:
            assert check_clauses(clauses, model)
            assert all(model[abs(a)] == (a > 0) for a in assumptions)

    @given(cnfs(max_clauses=8), cnfs(max_clauses=6))
    @settings(max_examples=60, deadline=None)
    def test_incremental_clause_addition(self, first, second):
        solver = PackedSatSolver()
        solver.ensure_var(NUM_VARS)
        seen = []
        for batch in (first, second):
            seen.extend(batch)
            alive = all(solver.add_clause(c) for c in batch)
            outcome = solver.solve() if alive else UNSAT
            assert outcome == reference_verdict(seen)
            if outcome == UNSAT:
                break
            assert check_clauses(seen, solver.model())

    def test_level0_literals_match(self):
        # Unit propagation from [1] through the chain fixes 1, 2 and 3;
        # [3, 4] is then satisfied and 4 stays free.
        solver = PackedSatSolver()
        solver.ensure_var(4)
        for clause in [[1], [-1, 2], [-2, 3], [3, 4]]:
            assert solver.add_clause(clause)
        assert solver.simplify()
        assert sorted(solver.level0_literals()) == [1, 2, 3]


# -- simplex -----------------------------------------------------------------


BASE_VARS = ("x", "y", "z")


def coeff_maps(variables):
    return st.dictionaries(
        st.sampled_from(variables),
        st.integers(min_value=-4, max_value=4).filter(bool),
        min_size=1, max_size=3)


def bound_values():
    return st.one_of(st.integers(min_value=-8, max_value=8),
                     st.integers(min_value=-16, max_value=16)
                     .map(lambda n: Fraction(n, 3)))


@st.composite
def tableaux(draw, base=BASE_VARS, max_rows=3, max_bounds=8):
    """(rows, bounds): row ``r<i>`` is ``sum rows[i]``; a bound is
    ``(var, upper?, value)`` on a base variable or a row."""
    rows = draw(st.lists(coeff_maps(base), max_size=max_rows))
    names = list(base) + ["r%d" % i for i in range(len(rows))]
    bounds = draw(st.lists(
        st.tuples(st.sampled_from(names), st.booleans(), bound_values()),
        min_size=1, max_size=max_bounds))
    return rows, bounds


def fm_feasible(constraints):
    """Fourier-Motzkin: is every ``sum coeffs <= bound`` satisfiable
    together over the rationals?"""
    rows = [(dict(coeffs), Fraction(bound)) for coeffs, bound in constraints]
    while True:
        var = next((v for coeffs, _ in rows for v, a in coeffs.items() if a),
                   None)
        if var is None:
            return all(bound >= 0 for _, bound in rows)
        keep = [r for r in rows if not r[0].get(var)]
        upper = [r for r in rows if r[0].get(var, 0) > 0]
        lower = [r for r in rows if r[0].get(var, 0) < 0]
        for (cu, bu), (cl, bl) in itertools.product(upper, lower):
            au, al = cu[var], -cl[var]
            combined = {v: cu.get(v, 0) * al + cl.get(v, 0) * au
                        for v in set(cu) | set(cl) if v != var}
            keep.append((combined, bu * al + bl * au))
        rows = keep


def as_constraint(rows, var, upper, value):
    """A bound as ``(coeffs over the base variables, bound)`` in ``<=``
    form."""
    coeffs = rows[int(var[1:])] if var.startswith("r") else {var: 1}
    if upper:
        return dict(coeffs), value
    return {v: -c for v, c in coeffs.items()}, -value


def reference_status(rows, bounds):
    return "sat" if fm_feasible(
        [as_constraint(rows, *b) for b in bounds]) else "unsat"


def new_tableau(rows, base=BASE_VARS):
    solver = PackedSimplex()
    for v in base:
        solver.add_variable(v)
    for i, coeffs in enumerate(rows):
        solver.define("r%d" % i, coeffs)
    return solver


def assert_bounds(solver, bounds, first_tag=0):
    """Assert *bounds* in order, tagged from *first_tag*; returns the
    prefix asserted and the conflict of the bound that clashed, if any."""
    for offset, (v, upper, value) in enumerate(bounds):
        tag = first_tag + offset
        conflict = (solver.assert_upper(v, value, tag) if upper
                    else solver.assert_lower(v, value, tag))
        if conflict is not None:
            return bounds[:offset + 1], conflict
    return bounds, None


def check_answer(solver, rows, bounds, status, conflict, base=BASE_VARS):
    """*status* agrees with the reference on *bounds* (tagged by their
    index); a SAT point meets every bound and row, and an UNSAT core is
    infeasible on its own."""
    assert status == reference_status(rows, bounds)
    if status == "sat":
        point = {v: solver.value(v) for v in base}
        for i, coeffs in enumerate(rows):
            assert solver.value("r%d" % i) == sum(
                c * point[v] for v, c in coeffs.items())
        for var, upper, value in bounds:
            actual = solver.value(var)
            assert actual <= value if upper else actual >= value
    else:
        tags = set(conflict)
        assert tags and tags <= set(range(len(bounds)))
        core = [bounds[t] for t in sorted(tags)]
        assert reference_status(rows, core) == "unsat"


class TestSimplexEquivalence:
    @given(tableaux())
    @settings(max_examples=120, deadline=None)
    def test_same_status_values_and_conflicts(self, tableau):
        rows, bounds = tableau
        solver = new_tableau(rows)
        asserted, conflict = assert_bounds(solver, bounds)
        if conflict is None:
            status = solver.check(Deadline.unbounded())
            conflict = solver.conflict
        else:
            status = "unsat"
        check_answer(solver, rows, asserted, status, conflict)

    @given(tableaux(base=("x", "y"), max_rows=2, max_bounds=4),
           st.lists(st.tuples(st.sampled_from(["x", "y"]), st.booleans(),
                              bound_values()), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_push_pop_parity(self, tableau, frame):
        rows, base = tableau
        solver = new_tableau(rows, base=("x", "y"))
        asserted, conflict = assert_bounds(solver, base)
        if conflict is not None:
            check_answer(solver, rows, asserted, "unsat", conflict,
                         base=("x", "y"))
            return
        before = solver.check(Deadline.unbounded())
        check_answer(solver, rows, base, before, solver.conflict,
                     base=("x", "y"))
        solver.push()
        inside, conflict = assert_bounds(solver, frame, first_tag=len(base))
        if conflict is not None:
            # The clashing bound is not stored: the frame holds the rest.
            check_answer(solver, rows, base + inside, "unsat", conflict,
                         base=("x", "y"))
            inside = inside[:-1]
        status = solver.check(Deadline.unbounded())
        check_answer(solver, rows, base + inside, status, solver.conflict,
                     base=("x", "y"))
        solver.pop()
        after = solver.check(Deadline.unbounded())
        assert after == before
        check_answer(solver, rows, base, after, solver.conflict,
                     base=("x", "y"))


# -- automata ----------------------------------------------------------------


SYMBOLS = (0, 1, 2)
MAX_WORD = 5


@st.composite
def random_nfas(draw, max_states=5, symbols=SYMBOLS):
    n = draw(st.integers(min_value=1, max_value=max_states))
    transitions = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from(symbols),
                  st.integers(0, n - 1)),
        max_size=12))
    finals = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return NFA(n, transitions, 0, finals)


def all_words(max_length=MAX_WORD, symbols=SYMBOLS):
    for length in range(max_length + 1):
        yield from itertools.product(symbols, repeat=length)


def accepted_words(nfa, max_length):
    """Every word of length <= *max_length* that *nfa* accepts (an
    epsilon-free NFA; symbols need not be orderable)."""
    words = set()
    frontier = {(nfa.initial, ())}
    for _ in range(max_length + 1):
        words.update(word for state, word in frontier if state in nfa.finals)
        frontier = {(target, word + (sym,)) for state, word in frontier
                    for sym, target in nfa.out_edges(state)}
    return words


class TestAutomataEquivalence:
    @given(random_nfas())
    @settings(max_examples=100, deadline=None)
    def test_determinize_language(self, nfa):
        with _cache.disabled():
            dfa = nfa.determinize(alphabet=list(SYMBOLS))
        for state in range(dfa.num_states):
            labels = sorted(sym for sym, _ in dfa.out_edges(state))
            assert labels == list(SYMBOLS)      # deterministic, complete
        for word in all_words():
            assert dfa.accepts(word) == nfa.accepts(word)

    @given(random_nfas(), random_nfas())
    @settings(max_examples=100, deadline=None)
    def test_intersect_language(self, a, b):
        with _cache.disabled():
            product = a.intersect(b)
        for word in all_words():
            assert product.accepts(word) == (a.accepts(word)
                                             and b.accepts(word))

    @pytest.mark.parametrize("left_shape,right_shape", [
        (("straight", 3), ("standard", 2, 2)),
        (("numeric", 3), ("straight", 4)),
        (("standard", 1, 3), ("numeric", 2)),
        (("straight", 5), ("straight", 5)),
    ])
    def test_async_product_language(self, left_shape, right_shape):
        def build(shape, namer):
            if shape[0] == "straight":
                return straight_pfa(namer, shape[1])
            if shape[0] == "numeric":
                return numeric_pfa(namer, shape[1])
            return standard_pfa(namer, shape[1], shape[2])

        names = NameFactory()
        left = build(left_shape, names.char_namer("u"))
        right = build(right_shape, names.char_namer("v"))
        with _cache.disabled():
            product = asynchronous_product(left, right)

        def fires(lv, rv):
            return _compatible(left, right, lv, rv)

        def merges(u, v, budget):
            """Product words reading *u* on the left and *v* on the
            right: each step moves one side or both."""
            if not u and not v:
                yield ()
            if budget == 0:
                return
            steps = []
            if u and v:
                steps.append(((u[0], v[0]), u[1:], v[1:]))
            if u:
                steps.append(((u[0], IDLE), u[1:], v))
            if v:
                steps.append(((IDLE, v[0]), u, v[1:]))
            for pair, rest_u, rest_v in steps:
                if fires(*pair):
                    for tail in merges(rest_u, rest_v, budget - 1):
                        yield (pair,) + tail

        length = 7
        expected = {word
                    for u in accepted_words(left.nfa, length)
                    for v in accepted_words(right.nfa, length)
                    for word in merges(u, v, length)}
        assert expected
        assert accepted_words(product, length) == expected
        for word in expected:
            assert product.accepts(word)
            assert left.nfa.accepts([lv for lv, _ in word if lv is not IDLE])
            assert right.nfa.accepts([rv for _, rv in word
                                      if rv is not IDLE])
