"""Verdicts of the SAT layer; the CDCL solver is
:class:`repro.kernels.sat.PackedSatSolver`."""

from repro.sat.solver import SAT, UNSAT, UNKNOWN

__all__ = ["SAT", "UNSAT", "UNKNOWN"]
