"""Test-support utilities (fault injection, instrumented seams).

Importable from production code paths only for type references; nothing
here is required at runtime.  See :mod:`repro.testing.faults`.
"""

from .faults import FaultPlan, FaultyEvaluator, InjectedFault

__all__ = [
    "FaultPlan",
    "FaultyEvaluator",
    "InjectedFault",
]
