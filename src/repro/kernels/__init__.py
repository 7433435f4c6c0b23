"""Flat-array kernels for the solver's three dominant inner loops.

* :mod:`repro.kernels.sat` — CDCL unit propagation over one int clause
  arena with index-array watch lists (:class:`PackedSatSolver`);
* :mod:`repro.kernels.simplex` — Bland's-rule pivoting over dense
  integer rows with a per-row denominator (:class:`PackedSimplex`);
* :mod:`repro.kernels.automata` — subset construction over int bitmasks
  and product constructions over int pair codes.

Each loop has exactly this one implementation.  ``tests/test_kernels.py``
checks them against small references: a truth-table SAT oracle, an exact
Fourier-Motzkin feasibility check, and word-by-word language equality.
"""


def resolve(name=None):
    """Always ``"packed"``, the name of the only kernel set.

    Kept for callers that record which kernels a run used (the benchmark
    harness writes it into its result documents); *name* is ignored.
    """
    return "packed"
