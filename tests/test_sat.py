"""Unit and property tests for the CDCL SAT solver."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.kernels.sat import PackedSatSolver
from repro.sat import SAT, UNSAT


def brute_force(clauses, num_vars):
    for bits in itertools.product([False, True], repeat=num_vars):
        assign = {v + 1: bits[v] for v in range(num_vars)}
        if all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses):
            return assign
    return None


def run_solver(clauses):
    solver = PackedSatSolver()
    for clause in clauses:
        if not solver.add_clause(clause):
            return UNSAT, None
    outcome = solver.solve()
    return outcome, solver.model() if outcome == SAT else None


class TestBasics:
    def test_empty_problem_is_sat(self):
        solver = PackedSatSolver()
        assert solver.solve() == SAT

    def test_unit_clauses(self):
        outcome, model = run_solver([[1], [-2], [3]])
        assert outcome == SAT
        assert model[1] and not model[2] and model[3]

    def test_conflicting_units(self):
        outcome, _ = run_solver([[1], [-1]])
        assert outcome == UNSAT

    def test_empty_clause(self):
        outcome, _ = run_solver([[1], []])
        assert outcome == UNSAT

    def test_simple_implication_chain(self):
        clauses = [[-1, 2], [-2, 3], [-3, 4], [1]]
        outcome, model = run_solver(clauses)
        assert outcome == SAT
        assert all(model[v] for v in (1, 2, 3, 4))

    def test_pigeonhole_3_into_2_unsat(self):
        # p_ij: pigeon i in hole j; vars 1..6 = (i, j) for i in 0..2, j in 0..1
        def var(i, j):
            return 1 + i * 2 + j
        clauses = [[var(i, 0), var(i, 1)] for i in range(3)]
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-var(i1, j), -var(i2, j)])
        outcome, _ = run_solver(clauses)
        assert outcome == UNSAT

    def test_tautological_clause_ignored(self):
        outcome, _ = run_solver([[1, -1], [2]])
        assert outcome == SAT

    def test_model_satisfies_all_clauses(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
        outcome, model = run_solver(clauses)
        assert outcome == SAT
        assert all(any(model[abs(l)] == (l > 0) for l in c)
                   for c in clauses)

    def test_incremental_clause_addition(self):
        solver = PackedSatSolver()
        solver.add_clause([1, 2])
        assert solver.solve() == SAT
        solver.add_clause([-1])
        assert solver.solve() == SAT
        assert solver.model()[2]
        solver.add_clause([-2])
        assert solver.solve() == UNSAT

    def test_level0_literals_after_simplify(self):
        solver = PackedSatSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        assert solver.simplify()
        fixed = set(solver.level0_literals())
        assert 1 in fixed and 2 in fixed


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(1, 8))
    num_clauses = draw(st.integers(1, 25))
    clauses = []
    for _ in range(num_clauses):
        size = draw(st.integers(1, 4))
        clause = [draw(st.integers(1, num_vars))
                  * draw(st.sampled_from([1, -1])) for _ in range(size)]
        clauses.append(clause)
    return num_vars, clauses


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(random_cnf())
    def test_matches_brute_force(self, problem):
        num_vars, clauses = problem
        reference = brute_force(clauses, num_vars)
        outcome, model = run_solver(clauses)
        if reference is None:
            assert outcome == UNSAT
        else:
            assert outcome == SAT
            assert all(any(model[abs(l)] == (l > 0) for l in c)
                       for c in clauses)

    def test_random_3sat_near_threshold(self):
        rng = random.Random(7)
        for trial in range(15):
            num_vars = 12
            clauses = []
            for _ in range(int(num_vars * 4.0)):
                lits = rng.sample(range(1, num_vars + 1), 3)
                clauses.append([l * rng.choice([1, -1]) for l in lits])
            outcome, model = run_solver(clauses)
            if outcome == SAT:
                assert all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in clauses)
