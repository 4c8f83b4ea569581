"""Engine execution backends: the phase-primitive strategy layer.

A :class:`~repro.sim.engine.SimulationEngine` owns the *model* of a run --
the :class:`~repro.sim.engine.RoundState` configuration, crashes, packet
counters, termination detection, observer notification, per-round
records.  *How* each CCM phase (observe, activate, compute, move,
settle, plus the memory audit and the component count) is executed is
delegated to an :class:`EngineBackend`; every phase is handed the
round's state and returns what it produced.

:class:`ReferenceBackend` is the seed-era pure-Python phase logic -- the
semantic ground truth and the default, so golden campaign digests and
FSYNC run fingerprints are byte-identical to every earlier release.  The
``vectorized`` backend (:mod:`repro.sim.backend_vectorized`) overrides
the hot phases with numpy struct-of-arrays kernels and must stay
bit-identical to this one; the cross-backend fingerprint tests enforce
that.  Backends are registered components
(:func:`repro.sim.spec.register_backend`), selected per run; a fresh
instance per engine (what the component factories produce) is the
normal pattern, and :meth:`EngineBackend.bind` resets per-run caches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.graph.snapshot import GraphSnapshot
from repro.robots.memory import bits_for_state
from repro.sim.algorithm import (
    Decision,
    MoveDecision,
    RobotAlgorithm,
    StayDecision,
)
from repro.sim.engine import RoundState, SimulationEngine, SimulationError
from repro.sim.observation import (
    InfoPacket,
    Observation,
    build_info_packets,
    observations_from_packets,
)
from repro.sim.scheduling import Activation

__all__ = [
    "EngineBackend",
    "PHASE_MUTABLE_ATTRS",
    "ReferenceBackend",
]

#: The machine-checked phase contract: the engine attributes a phase
#: primitive may mutate (directly or through any callee); a phase with
#: no row may mutate none.
#: ``repro lint --all`` enforces this transitively over every
#: registered backend -- reference, vectorized and future ones alike
#: (rule E001 in :mod:`repro.lint.deep.contracts`); a write to the
#: handed ``state`` or any other payload parameter is E002.
#: Backend-private state (the vectorized backend's per-round
#: ``self._round`` arrays and the like) is always fair game.  Widening a
#: phase's row here is an API change: it must come with a docs/model.md
#: contract-table update and a cross-backend equivalence argument.
PHASE_MUTABLE_ATTRS: Mapping[str, FrozenSet[str]] = {
    # activate steps the scheduler model (its internal queues advance).
    "activate": frozenset({"scheduler"}),
    # compute may advance per-robot algorithm memory, nothing physical.
    "compute": frozenset({"algorithm"}),
}


class EngineBackend(ABC):
    """Strategy interface for executing the engine's CCM phase primitives.

    Every phase receives the round's
    :class:`~repro.sim.engine.RoundState` and returns what it produced:
    ``move`` and ``settle`` return the next state, which the engine
    swaps in.  Run-constant inputs (algorithm, scheduler, byzantine
    policies, communication model) are read through the bound engine's
    read-only properties.  Backends never drive the round loop, charge
    packet counters, fire observers, or construct records.

    The contract is statically enforced: ``repro lint --all``
    infers each phase implementation's transitive side effects and
    checks them against :data:`PHASE_MUTABLE_ATTRS`, so a stray
    in-place write in any registered backend fails CI instead of
    silently corrupting results.
    """

    #: Registry-facing name; informational (the registry key is what the
    #: spec layer uses for lookup and serialization).
    name: str = "abstract"

    def __init__(self) -> None:
        self._engine: Optional[SimulationEngine] = None

    def bind(self, engine: SimulationEngine) -> None:
        """Attach to ``engine`` (called by the engine constructor).

        Rebinding to a different engine is allowed and resets any
        per-run caches via :meth:`on_bind`.
        """
        self._engine = engine
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses to reset per-run caches on (re)bind."""

    @property
    def engine(self) -> SimulationEngine:
        """The bound engine; raises if the backend is unbound."""
        if self._engine is None:
            raise RuntimeError(
                f"backend {self.name!r} is not bound to an engine"
            )
        return self._engine

    # -- phase primitives ------------------------------------------------

    @abstractmethod
    def observe(
        self, state: RoundState, snapshot: GraphSnapshot, round_index: int
    ) -> Mapping[int, Observation]:
        """Communicate/observe: build packets, apply byzantine forgery,
        and deliver observations."""

    @abstractmethod
    def activate(
        self, state: RoundState, round_index: int
    ) -> Tuple[Activation, FrozenSet[int]]:
        """Ask the scheduler who wakes this step; validate the answer."""

    @abstractmethod
    def compute(
        self,
        state: RoundState,
        snapshot: GraphSnapshot,
        round_index: int,
        observations: Mapping[int, Observation],
        active: FrozenSet[int],
    ) -> Dict[int, Decision]:
        """Collect the decisions of all activated robots before any is
        applied (decisions within a step are simultaneous)."""

    @abstractmethod
    def move(
        self,
        state: RoundState,
        snapshot: GraphSnapshot,
        round_index: int,
        decisions: Mapping[int, Decision],
        activation: Activation,
    ) -> Tuple[RoundState, List[int]]:
        """The state with surviving moves applied and scheduler-delayed
        ones pending, plus the robots that moved."""

    @abstractmethod
    def settle(
        self, state: RoundState, round_index: int
    ) -> Tuple[RoundState, List[int]]:
        """The state with pending moves whose arrival step has come
        applied, plus the robots that arrived."""

    @abstractmethod
    def audit_memory(self, state: RoundState) -> int:
        """Peak persistent bits across alive honest robots of ``state``."""

    @abstractmethod
    def count_occupied_components(
        self, snapshot: GraphSnapshot, occupied: FrozenSet[int]
    ) -> int:
        """Number of connected components induced by ``occupied`` in
        ``snapshot`` (the per-round record's ground-truth metric)."""


class ReferenceBackend(EngineBackend):
    """The seed-era pure-Python phase implementations.

    This is the default backend and the semantic ground truth: every
    alternative backend must be bit-identical to it on the same spec
    (same ``RunResult`` JSON, same packet counters, same records).
    """

    name = "reference"

    def observe(
        self, state: RoundState, snapshot: GraphSnapshot, round_index: int
    ) -> Mapping[int, Observation]:
        engine = self.engine
        byzantine = engine.byzantine_policies
        positions = state.positions
        packets = build_info_packets(
            snapshot,
            positions,
            neighborhood_knowledge=engine.neighborhood_knowledge,
        )
        if byzantine:
            forged: Dict[int, InfoPacket] = {}
            for node, packet in packets.items():
                policy = byzantine.get(packet.representative_id)
                if policy is not None:
                    packet = policy.forge_packet(packet, round_index)
                    if packet.representative_id not in positions:
                        raise SimulationError(
                            "byzantine forgery changed the representative "
                            "ID; identities are unforgeable in the model"
                        )
                forged[node] = packet
            packets = forged
        return observations_from_packets(
            packets,
            positions,
            round_index,
            communication=engine.communication,
            neighborhood_knowledge=engine.neighborhood_knowledge,
            entry_ports=state.entry_ports,
        )

    def activate(
        self, state: RoundState, round_index: int
    ) -> Tuple[Activation, FrozenSet[int]]:
        """Ask the scheduler who wakes this step; validate the answer.

        Byzantine robots are appended by the engine itself -- the
        adversary does not answer to the scheduler -- unless they are
        mid-traversal.
        """
        engine = self.engine
        byzantine = engine.byzantine_policies
        positions = state.positions
        activation = engine.scheduler.next_activation(
            round_index, state.eligible_robots(byzantine)
        )
        active = frozenset(activation.active) | (
            (set(byzantine) & set(positions)) - set(state.pending_moves)
        )
        if not set(active) <= set(positions):
            raise SimulationError(
                "activation schedule returned robots that are not alive"
            )
        if positions and not active and not state.pending_moves:
            raise SimulationError(
                "activation schedule returned an empty activation set"
            )
        return activation, active

    def compute(
        self,
        state: RoundState,
        snapshot: GraphSnapshot,
        round_index: int,
        observations: Mapping[int, Observation],
        active: FrozenSet[int],
    ) -> Dict[int, Decision]:
        engine = self.engine
        byzantine = engine.byzantine_policies
        algorithm = engine.algorithm
        decisions: Dict[int, Decision] = {}
        for robot_id in sorted(active):
            policy = byzantine.get(robot_id)
            if policy is not None:
                node = state.positions[robot_id]
                port = policy.choose_move(snapshot.degree(node), round_index)
                decisions[robot_id] = (
                    MoveDecision(port) if port is not None else StayDecision()
                )
                continue
            decision = algorithm.decide(observations[robot_id])
            if not isinstance(decision, (StayDecision, MoveDecision)):
                raise SimulationError(
                    f"algorithm returned {decision!r} for robot "
                    f"{robot_id}; expected StayDecision or MoveDecision"
                )
            decisions[robot_id] = decision
        return decisions

    def move(
        self,
        state: RoundState,
        snapshot: GraphSnapshot,
        round_index: int,
        decisions: Mapping[int, Decision],
        activation: Activation,
    ) -> Tuple[RoundState, List[int]]:
        """Apply surviving moves; queue delayed ones as pending.

        The destination and entry port are resolved against the
        decision-time snapshot even for delayed moves: the robot began
        traversing the edge as it existed when the move was decided.
        Only robots that arrive now get an entry port; every other
        robot's is dropped.
        """
        positions = dict(state.positions)
        pending = dict(state.pending_moves)
        ports: Dict[int, int] = {}
        moved: List[int] = []
        for robot_id in sorted(decisions):
            if robot_id not in positions:
                continue
            decision = decisions[robot_id]
            if isinstance(decision, MoveDecision):
                node = positions[robot_id]
                if decision.port > snapshot.degree(node):
                    raise SimulationError(
                        f"robot {robot_id} chose port {decision.port} "
                        f"but its node has degree {snapshot.degree(node)}"
                    )
                destination = snapshot.neighbor_via(node, decision.port)
                entry_port = snapshot.port_of(destination, node)
                delay = activation.move_delays.get(robot_id, 0)
                if delay > 0:
                    pending[robot_id] = (
                        round_index + delay,
                        destination,
                        entry_port,
                    )
                    continue
                positions[robot_id] = destination
                ports[robot_id] = entry_port
                moved.append(robot_id)
        next_state = replace(
            state, positions=positions, entry_ports=ports,
            pending_moves=pending,
        )
        return next_state, moved

    def settle(
        self, state: RoundState, round_index: int
    ) -> Tuple[RoundState, List[int]]:
        pending = state.pending_moves
        arrived = [
            robot_id
            for robot_id in sorted(pending)
            if pending[robot_id][0] <= round_index
        ]
        if not arrived:
            return state, arrived
        positions = dict(state.positions)
        ports = dict(state.entry_ports)
        for robot_id in arrived:
            _, positions[robot_id], ports[robot_id] = pending[robot_id]
        still = {r: move for r, move in pending.items() if r not in arrived}
        next_state = replace(
            state, positions=positions, pending_moves=still, entry_ports=ports
        )
        return next_state, arrived

    def audit_memory(self, state: RoundState) -> int:
        """Peak persistent bits across alive honest robots of ``state``.

        Byzantine robots are adversarial and unbounded; auditing them
        would be meaningless.  An algorithm that keeps the default
        ID-only :meth:`~repro.sim.algorithm.RobotAlgorithm.persistent_state`
        is charged once, on the largest honest ID: the bit cost of an
        ID is monotone in it, and the largest is the one that can exceed
        its declared bound.
        """
        engine = self.engine
        algorithm = engine.algorithm
        bounds = algorithm.persistent_state_bounds(engine.k, engine.n)
        byzantine = engine.byzantine_policies
        # Without byzantine robots every alive robot is honest: no copy.
        honest = (
            state.honest_positions(byzantine) if byzantine
            else state.positions
        )
        if not honest:
            return 0
        if type(algorithm).persistent_state is RobotAlgorithm.persistent_state:
            return bits_for_state({"id": max(honest)}, bounds=bounds)
        return max(
            bits_for_state(algorithm.persistent_state(robot_id), bounds=bounds)
            for robot_id in honest
        )

    def count_occupied_components(
        self, snapshot: GraphSnapshot, occupied: FrozenSet[int]
    ) -> int:
        return len(snapshot.induced_occupied_components(occupied))
