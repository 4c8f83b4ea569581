"""Robot model: identities, persistent-memory accounting, crash faults.

Robots are the only entities with identity in the model: each carries a
unique ID in ``[1, k]`` (``bound_bits(k) = ceil(log2(k + 1))`` bits).
Nodes are anonymous and memoryless.  A robot's *persistent* memory -- the
bits it carries across rounds -- is the resource the paper's Theta(log k)
memory bound speaks about; temporary within-round computation is
explicitly free.  This package
provides the bit-accounting used to verify Lemma 8 empirically, plus crash
schedules for the Section VII fault model.
"""

from repro.robots.robot import RobotSet, validate_robot_ids
from repro.robots.memory import bits_for_value, bits_for_state, bound_bits
from repro.robots.faults import CrashEvent, CrashPhase, CrashSchedule
from repro.robots.byzantine import (
    ByzantinePolicy,
    FakeMultiplicity,
    HideMultiplicity,
    ScrambleNeighbors,
)

__all__ = [
    "RobotSet",
    "validate_robot_ids",
    "bits_for_value",
    "bits_for_state",
    "bound_bits",
    "CrashEvent",
    "CrashPhase",
    "CrashSchedule",
    "ByzantinePolicy",
    "FakeMultiplicity",
    "HideMultiplicity",
    "ScrambleNeighbors",
]
