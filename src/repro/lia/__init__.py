"""Linear integer arithmetic decision procedure.

A rational general simplex (Dutertre-de Moura style, exact integer and
``Fraction`` arithmetic, incremental bound assertion with push/pop, in
:mod:`repro.kernels.simplex`) plus a branch-and-bound layer that decides
integer feasibility of a conjunction of linear atoms and extracts
conflict explanations for the SMT core.
"""

from repro.lia.branch_bound import IntegerSolver, IntResult

__all__ = ["IntegerSolver", "IntResult"]
