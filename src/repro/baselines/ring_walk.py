"""Direction-persistent dispersion on dynamic rings (local model).

The related work the paper cites for dynamic graphs -- Agarwalla et al.,
"Deterministic dispersion of mobile robots in dynamic rings" (ICDCN 2018)
-- has no public artifact; this module implements a *representative*
local-model ring strategy in its spirit (documented as our own design, not
a reproduction of their algorithm):

* the smallest unsettled robot on an unsettled node settles and never
  moves again (settled robots are the anchor of the local model);
* every other robot walks with **direction persistence**: on a degree-2
  node it exits through the port it did not enter by (continuing straight
  regardless of how the round relabels ports); on a degree-1 node (the
  dynamic ring's missing edge is incident) it is *blocked* and re-enters
  through the only port, which on a ring amounts to reversing;
* at round 0 (no entry port yet) surplus robots split by co-location
  rank parity, half walking each way.

On a static or randomly-faulting ring this disperses k <= n robots; the
point of the campaign's E6 section is the contrast visible on rings:

* against the *blocking* adversary of
  :class:`repro.graph.rings.RingDynamicGraph` the walker is severely
  slowed or stalled (the adversary keeps removing the edge the leading
  walker wants), while
* the paper's global + 1-NK algorithm runs on the same dynamic rings
  within its usual ``k - 1`` bound, untouched by the blocking -- global
  information is exactly what rings were missing.

Persistent state: id, settled bit (entry ports are supplied by the model
itself -- the paper grants a moving robot knowledge of its entry port).
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


class RingWalkDispersion(RobotAlgorithm):
    """Settle-or-keep-walking dispersion specialized to ring topologies."""

    name = "ring_walk_dispersion"
    requires_communication = CommunicationModel.LOCAL
    requires_neighborhood_knowledge = False

    def __init__(self) -> None:
        self._settled: Dict[int, bool] = {}

    def on_run_start(self, k: int, n: int) -> None:
        for robot_id in range(1, k + 1):
            self._settled[robot_id] = False

    def decide(self, observation: Observation) -> Decision:
        robot_id = observation.robot_id
        packet = observation.own_packet
        here = packet.robot_ids

        if self._settled[robot_id]:
            return STAY

        settled_here = [r for r in here if self._settled[r]]
        unsettled_here = [r for r in here if not self._settled[r]]

        if not settled_here and robot_id == unsettled_here[0]:
            self._settled[robot_id] = True
            return STAY

        if packet.degree == 0:
            return STAY
        if packet.degree == 1:
            # the missing ring edge is incident: blocked; bounce back
            return MoveDecision(1)

        entry = observation.entry_port
        if entry is not None and 1 <= entry <= packet.degree:
            # continue straight: the port we did not enter through
            return MoveDecision(1 if entry != 1 else 2)
        # no direction yet: split by co-location rank parity
        rank = unsettled_here.index(robot_id)
        return MoveDecision(1 + rank % 2)

    def persistent_state(self, robot_id: int) -> Dict[str, Any]:
        return {"id": robot_id, "settled": self._settled.get(robot_id, False)}

    def persistent_state_bounds(self, k: int, n: int) -> Mapping[str, int]:
        return {"id": k}

    def detects_termination(self, observation: Observation) -> bool:
        return False
