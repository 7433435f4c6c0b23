"""Cross-validation of the rational simplex against scipy.optimize.linprog.

Random bounded systems of linear inequalities: our simplex and scipy must
agree on rational feasibility.  (Integer feasibility has no scipy oracle;
the branch-and-bound layer is cross-checked against brute force in
test_lia.py.)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.kernels.simplex import PackedSimplex


@st.composite
def systems(draw):
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 6))
    rows = []
    for _ in range(num_rows):
        coeffs = [draw(st.integers(-4, 4)) for _ in range(num_vars)]
        bound = draw(st.integers(-10, 10))
        rows.append((coeffs, bound))
    return num_vars, rows


def scipy_feasible(num_vars, rows, box=50):
    a_ub = [coeffs for coeffs, _ in rows]
    b_ub = [bound for _, bound in rows]
    result = linprog(c=np.zeros(num_vars), A_ub=np.array(a_ub),
                     b_ub=np.array(b_ub),
                     bounds=[(-box, box)] * num_vars, method="highs")
    return result.status == 0


def simplex_feasible(num_vars, rows, box=50):
    s = PackedSimplex()
    names = ["x%d" % i for i in range(num_vars)]
    for name in names:
        s.add_variable(name)
    for idx, (coeffs, bound) in enumerate(rows):
        non_zero = {names[i]: c for i, c in enumerate(coeffs) if c}
        if not non_zero:
            if 0 > bound:
                return False
            continue
        slack = "s%d" % idx
        s.define(slack, non_zero)
        if s.assert_upper(slack, bound, idx) is not None:
            return False
    for name in names:
        if s.assert_lower(name, -box, None) is not None:
            return False
        if s.assert_upper(name, box, None) is not None:
            return False
    return s.check() == "sat"


class TestAgainstScipy:
    @settings(max_examples=80, deadline=None)
    @given(systems())
    def test_rational_feasibility_agrees(self, system):
        num_vars, rows = system
        assert simplex_feasible(num_vars, rows) == \
            scipy_feasible(num_vars, rows)

    def test_known_feasible(self):
        # x + y <= 4, -x <= 0, -y <= 0
        assert simplex_feasible(2, [([1, 1], 4), ([-1, 0], 0),
                                    ([0, -1], 0)])

    def test_known_infeasible(self):
        # x <= 1 and -x <= -2 (x >= 2)
        assert not simplex_feasible(1, [([1], 1), ([-1], -2)])
