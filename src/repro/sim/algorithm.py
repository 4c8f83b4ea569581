"""The robot-algorithm interface consumed by the simulation engine.

An algorithm is a single object driving all robots (the paper's robots all
run the same program); per-robot persistent state, if any, must live in
structures the algorithm exposes through :meth:`RobotAlgorithm.persistent_state`
so the engine can audit its size in bits (Lemma 8).

Each round the engine calls :meth:`RobotAlgorithm.decide` once per alive
robot with that robot's :class:`~repro.sim.observation.Observation`; the
return value is a :class:`Decision`: stay put or exit through a port of the
current node.  Decisions are collected first and applied simultaneously --
the synchronous Move phase.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple, Union

from repro.graph.snapshot import GraphSnapshot
from repro.sim.observation import (
    CommunicationModel,
    Observation,
    build_observations,
)


@dataclass(frozen=True)
class StayDecision:
    """The robot stays on its current node this round."""

    def __repr__(self) -> str:
        return "Stay"


@dataclass(frozen=True)
class MoveDecision:
    """The robot exits its node through ``port`` at the end of the round."""

    port: int

    def __post_init__(self) -> None:
        if self.port < 1:
            raise ValueError(f"ports are numbered from 1, got {self.port}")

    def __repr__(self) -> str:
        return f"Move(port={self.port})"


Decision = Union[StayDecision, MoveDecision]

STAY = StayDecision()


class RobotAlgorithm(ABC):
    """Base class for all robot algorithms run by the engine.

    Class attributes declare the model requirements so the engine can
    refuse configurations the algorithm was not designed for (e.g. running
    the paper's algorithm without 1-neighborhood knowledge would silently
    degenerate; we fail fast instead).
    """

    name: str = "abstract"
    requires_communication: CommunicationModel = CommunicationModel.GLOBAL
    requires_neighborhood_knowledge: bool = True

    compatible_schedulers: Tuple[str, ...] = ("fsync", "ssync", "async")
    """Scheduler-model names this algorithm is meaningful under.

    Mirrors ``requires_communication``: the engine refuses to start a run
    whose :class:`~repro.sim.scheduling.SchedulerModel` is not listed
    here (``allow_model_mismatch=True`` overrides, exactly as for the
    communication check).  The default is permissive -- an algorithm that
    merely *degrades* outside FSYNC (e.g. losing its round bound, as
    Algorithm 4 does) should stay runnable so the degradation can be
    measured; declare ``("fsync",)`` only when non-synchronous execution
    would make the run meaningless (e.g. lower-bound candidates whose
    adversary argument assumes lock-step rounds)."""

    @abstractmethod
    def decide(self, observation: Observation) -> Decision:
        """Compute this robot's action for the round (Compute phase).

        All within-call computation is "temporary memory" in the paper's
        accounting and therefore free; only state surviving between calls
        (and exposed via :meth:`persistent_state`) is charged.
        """

    def on_run_start(self, k: int, n: int) -> None:
        """Hook invoked once before round 0 (e.g. to size ID fields)."""

    def on_round_start(self, round_index: int) -> None:
        """Hook invoked at the start of every round, before any decide()."""

    def persistent_state(self, robot_id: int) -> Dict[str, Any]:
        """The named fields robot ``robot_id`` persists across rounds.

        The default is the paper-minimal state: just the robot's own ID.
        Subclasses with more state must include every field they carry.
        """
        return {"id": robot_id}

    def persistent_state_bounds(self, k: int, n: int) -> Mapping[str, int]:
        """Declared maxima for integer fields of :meth:`persistent_state`.

        Used by the engine's memory audit to charge ``ceil(log2(bound+1))``
        bits per field.  The default bounds the ID field by ``k``.
        """
        return {"id": k}

    def detects_termination(self, observation: Observation) -> bool:
        """Whether this robot can tell the run is complete.

        With global communication every robot sees every packet, so absence
        of any multiplicity node is globally detectable -- this is how the
        paper's algorithm stops.  Algorithms without global communication
        may be unable to detect termination; they return False and rely on
        the engine's ground-truth stop (which is flagged in the result).
        """
        return not observation.sees_multiplicity


def probe_decisions(
    algorithm: RobotAlgorithm,
    snapshot: GraphSnapshot,
    positions: Mapping[int, int],
    round_index: int,
    robots: Iterable[int],
    *,
    communication: CommunicationModel,
    neighborhood_knowledge: bool,
) -> Iterator[Tuple[int, Decision]]:
    """What ``robots`` would decide on ``snapshot``, in ascending ID order.

    The adaptive adversaries' look-ahead (the paper's adversary knows the
    algorithm and its state): one deep copy of ``algorithm`` observes
    every robot's view and decides lazily; ``algorithm`` is untouched.
    """
    probe = copy.deepcopy(algorithm)
    observations = build_observations(
        snapshot,
        positions,
        round_index,
        communication=communication,
        neighborhood_knowledge=neighborhood_knowledge,
    )
    probe.on_round_start(round_index)
    for robot_id in sorted(robots):
        yield robot_id, probe.decide(observations[robot_id])
