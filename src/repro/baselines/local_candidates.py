"""Candidate deterministic local-model algorithms for the Theorem 1 demo.

Theorem 1 says *no* deterministic algorithm solves DISPERSION on dynamic
graphs in the local communication model, even with 1-neighborhood knowledge
and unlimited memory.  A universal negative cannot be executed, so the
campaign runs a family of natural candidate strategies -- each a
reasonable attempt a practitioner might write -- against the
:class:`~repro.adversary.local_impossibility.LocalStallAdversary` and shows
that none of them ever reaches dispersion, while each of them *does*
disperse on easy static instances (so the stall is the adversary's doing,
not trivial brokenness).

All candidates share the same settle-ish skeleton: the smallest-ID robot of
a node stays; surplus robots try to leave.  They differ in how a robot
picks its exit port from its 1-NK view, which is exactly the design axis
the impossibility argument kills: a local view cannot reveal the direction
of distant free nodes, and the adversary controls both the topology and the
port labelling.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.algorithm import (
    Decision,
    MoveDecision,
    RobotAlgorithm,
    STAY,
)
from repro.sim.observation import CommunicationModel, Observation


class _LocalCandidateBase(RobotAlgorithm):
    """Shared skeleton: smallest robot holds the node, surplus robots move."""

    requires_communication = CommunicationModel.LOCAL
    requires_neighborhood_knowledge = True
    # Lower-bound candidates: the adversary argument stalls a lock-step
    # round structure, so running them semi-/asynchronously is meaningless.
    compatible_schedulers = ("fsync",)

    def decide(self, observation: Observation) -> Decision:
        packet = observation.own_packet
        if observation.robot_id == packet.robot_ids[0]:
            return self._decide_holder(observation)
        return self._decide_surplus(observation)

    def _decide_holder(self, observation: Observation) -> Decision:
        """The node's smallest robot: default is to stay settled."""
        return STAY

    def _decide_surplus(self, observation: Observation) -> Decision:
        """A surplus robot must pick a port (or stay)."""
        raise NotImplementedError

    def persistent_state(self, robot_id: int) -> Dict[str, Any]:
        return {"id": robot_id}

    def detects_termination(self, observation: Observation) -> bool:
        return False  # local model: no global detection


class LocalSmallestEmptyPort(_LocalCandidateBase):
    """Surplus robots exit through the smallest empty port; if every
    neighbor is occupied, through the smallest port overall.

    The greedy "go where it's free" strategy.  On a dynamic graph the
    adversary simply never shows the surplus robots an empty port (only the
    path frontier has one), so surplus robots shuffle among occupied nodes
    forever.
    """

    name = "local_smallest_empty_port"

    def _decide_surplus(self, observation: Observation) -> Decision:
        packet = observation.own_packet
        if packet.degree == 0:
            return STAY
        port = packet.smallest_empty_port
        return MoveDecision(port if port is not None else 1)


class LocalChainShift(_LocalCandidateBase):
    """Every robot -- including settled singles -- tries to participate in
    a sweep: a robot alone on its node moves towards an empty neighbor if
    it sees one; otherwise, if some neighbor is a multiplicity node, it
    moves *away* from the largest co-observed multiplicity through its
    smallest port not leading to that multiplicity.  Surplus robots chase
    the smallest empty port as in :class:`LocalSmallestEmptyPort`.

    This is the natural "bucket brigade" attempt at the synchronized sweep
    the Figure 1 argument is about; the adversary's mirrored port labelling
    makes the mid-path robots shift in opposite directions, so the sweep
    never completes.
    """

    name = "local_chain_shift"

    def _decide_holder(self, observation: Observation) -> Decision:
        packet = observation.own_packet
        if packet.robot_count > 1 or packet.degree == 0:
            return STAY
        empty = packet.smallest_empty_port
        if empty is not None:
            return MoveDecision(empty)
        multiplicity_ports = [
            info.port
            for info in packet.occupied_neighbors
            if info.robot_count >= 2
        ]
        if multiplicity_ports:
            avoid = set(multiplicity_ports)
            for port in range(1, packet.degree + 1):
                if port not in avoid:
                    return MoveDecision(port)
        return STAY

    def _decide_surplus(self, observation: Observation) -> Decision:
        packet = observation.own_packet
        if packet.degree == 0:
            return STAY
        port = packet.smallest_empty_port
        return MoveDecision(port if port is not None else 1)


class LocalPseudoRandomPort(_LocalCandidateBase):
    """Surplus robots pick a port by hashing (id, round) -- a deterministic
    stand-in for the "scatter randomly" instinct.  1-NK is used only to
    prefer an empty port when one is visible.

    Against the stall adversary the hash-chosen ports always land on
    occupied neighbors (only the frontier sees an empty port), so surplus
    robots mix around the path without ever increasing the occupied count
    to ``k``.
    """

    name = "local_pseudo_random_port"

    def _decide_surplus(self, observation: Observation) -> Decision:
        packet = observation.own_packet
        if packet.degree == 0:
            return STAY
        empty = packet.smallest_empty_port
        if empty is not None:
            return MoveDecision(empty)
        mix = hash((observation.robot_id * 2654435761) ^ observation.round_index)
        return MoveDecision(1 + (mix % packet.degree))


LOCAL_CANDIDATES = (
    LocalSmallestEmptyPort,
    LocalChainShift,
    LocalPseudoRandomPort,
)
"""The candidate classes the Theorem 1 campaign section sweeps."""
