"""Candidate global-communication algorithms *without* 1-NK (Theorem 2 demo).

Theorem 2 says no deterministic algorithm solves DISPERSION on dynamic
graphs with global communication but without 1-neighborhood knowledge.
Global communication lets every robot see every occupied node's packet
(who is where-by-representative, multiplicities, degrees) -- but no packet
reveals *which ports lead to empty nodes*, and that is fatal: the
:class:`~repro.adversary.global_impossibility.CliqueRewiringAdversary`
reroutes exactly the ports nobody uses towards the empty region.

Like the local candidates, these are natural strategies a practitioner
might try; the campaign shows each is stalled indefinitely by the
adversary while dispersing fine on easy static instances.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.sim.algorithm import (
    Decision,
    MoveDecision,
    RobotAlgorithm,
    STAY,
)
from repro.sim.observation import CommunicationModel, Observation


class _GlobalNo1NKBase(RobotAlgorithm):
    """Shared skeleton: smallest robot of a node anchors it, surplus move."""

    requires_communication = CommunicationModel.GLOBAL
    requires_neighborhood_knowledge = False
    # Lower-bound candidates: the adversary argument stalls a lock-step
    # round structure, so running them semi-/asynchronously is meaningless.
    compatible_schedulers = ("fsync",)

    def decide(self, observation: Observation) -> Decision:
        packet = observation.own_packet
        if not observation.sees_multiplicity:
            return STAY  # dispersion reached (globally visible)
        if observation.robot_id == packet.robot_ids[0]:
            return STAY
        if packet.degree == 0:
            return STAY
        return self._pick_port(observation)

    def _pick_port(self, observation: Observation) -> Decision:
        raise NotImplementedError

    def persistent_state(self, robot_id: int) -> Dict[str, Any]:
        return {"id": robot_id}


class BlindRankSpread(_GlobalNo1NKBase):
    """Surplus robots fan out by co-location rank: the ``i``-th surplus
    robot of a node exits through port ``1 + (i - 1) mod degree``.

    On a static star this disperses a rooted group in one round (each
    surplus robot takes a distinct port).  Against the adversary, the
    ranks -- and hence the ports -- are fully predictable, so the rewired
    edge is always one no rank selects.
    """

    name = "blind_rank_spread"

    def _pick_port(self, observation: Observation) -> Decision:
        packet = observation.own_packet
        rank = packet.robot_ids.index(observation.robot_id)  # >= 1 (surplus)
        return MoveDecision(1 + (rank - 1) % packet.degree)


class BlindRotor(_GlobalNo1NKBase):
    """Surplus robots sweep ports with a monotone per-robot counter
    (a robot-side rotor-router): in step ``t`` of its life a surplus robot
    exits through port ``1 + t mod degree``.

    Each robot persists the counter (O(log n) bits, stored modulo 2^16).
    On a static graph the rotor eventually pushes a surplus robot across
    every incident edge; on the adversary's graph the rotor's next port is
    known in advance, so the rewired edge is always one the rotor is *not*
    about to take.
    """

    name = "blind_rotor"

    _COUNTER_MOD = 1 << 16

    def __init__(self) -> None:
        self._counter: Dict[int, int] = {}

    def on_run_start(self, k: int, n: int) -> None:
        for robot_id in range(1, k + 1):
            self._counter[robot_id] = 0

    def _pick_port(self, observation: Observation) -> Decision:
        robot_id = observation.robot_id
        degree = observation.own_packet.degree
        counter = self._counter.get(robot_id, 0)
        port = 1 + counter % degree
        self._counter[robot_id] = (counter + 1) % self._COUNTER_MOD
        return MoveDecision(port)

    def persistent_state(self, robot_id: int) -> Dict[str, Any]:
        return {"id": robot_id, "counter": self._counter.get(robot_id, 0)}

    def persistent_state_bounds(self, k: int, n: int) -> Mapping[str, int]:
        return {"id": k, "counter": self._COUNTER_MOD - 1}


class BlindIdSpread(_GlobalNo1NKBase):
    """Surplus robots hash (id, round) into a port -- derandomized
    scattering.  Deterministic, so the adversary simulates it exactly and
    the hashed ports always land inside the clique."""

    name = "blind_id_spread"

    def _pick_port(self, observation: Observation) -> Decision:
        degree = observation.own_packet.degree
        mix = hash(
            (observation.robot_id * 0x9E3779B1) ^ (observation.round_index * 0x85EBCA77)
        )
        return MoveDecision(1 + (mix % degree))


GLOBAL_NO1NK_CANDIDATES = (
    BlindRankSpread,
    BlindRotor,
    BlindIdSpread,
)
"""The candidate classes the Theorem 2 campaign section sweeps."""
