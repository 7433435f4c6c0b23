"""Shared constants of the CDCL SAT solver.

The solver itself is :class:`repro.kernels.sat.PackedSatSolver`; this
module keeps the verdict strings and the Luby restart sequence it uses.

Literals are non-zero integers (DIMACS convention): literal ``v`` asserts
variable ``v`` true, ``-v`` asserts it false.
"""

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def _luby(i):
    """The i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1
