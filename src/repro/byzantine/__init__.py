"""Byzantine behaviour injection: protocol-level spec transforms.

A behaviour rewrites a participant's automaton spec before the run.
Crashes are modelled the same way (``crash_immediately``,
``crash_at_state``), and crash-restart by
:class:`~repro.sim.faults.FaultInjector`.
"""

from .behaviors import SPEC_TRANSFORMS, BehaviorRef, apply_behavior, register_behavior

__all__ = [
    "BehaviorRef",
    "SPEC_TRANSFORMS",
    "apply_behavior",
    "register_behavior",
]
