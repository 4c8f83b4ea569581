"""Engine execution backends: the phase-primitive strategy layer.

A :class:`~repro.sim.engine.SimulationEngine` owns the *model* of a run --
ground-truth positions, crash bookkeeping, the scheduler, termination
detection, observer notification, per-round records.  *How* each CCM
phase is executed is delegated to an :class:`EngineBackend`:

``observe``
    build per-node information packets and deliver observations;
``activate``
    ask the scheduler model who wakes this step and validate the answer;
``compute``
    collect the decisions of all activated robots (simultaneously);
``move`` / ``settle``
    apply surviving moves, queue and release scheduler-delayed ones;
``audit_memory``
    report the peak persistent bits across alive honest robots;
``count_occupied_components``
    the ground-truth component count recorded per round.

:class:`ReferenceBackend` is the seed-era pure-Python implementation,
moved here unchanged from ``sim/engine.py`` -- it is the semantic ground
truth and the default, so golden campaign digests and FSYNC run
fingerprints are byte-identical to every earlier release.  The
``vectorized`` backend (:mod:`repro.sim.backend_vectorized`) overrides
the hot phases with numpy struct-of-arrays kernels and must stay
bit-identical to this one; the cross-backend fingerprint tests enforce
that.

Backends are registered components: :func:`repro.sim.spec.register_backend`
adds a named factory, ``RunSpec(backend=ComponentSpec("vectorized"))`` or
``cli run --backend vectorized`` selects one per run.

A backend instance belongs to one engine at a time: the engine calls
:meth:`EngineBackend.bind` during construction, which also resets any
per-run caches, so a fresh backend instance per engine (what the
component factories produce) is the normal pattern.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.robots.memory import bits_for_state
from repro.sim.algorithm import Decision, MoveDecision, StayDecision
from repro.sim.observation import (
    CommunicationModel,
    InfoPacket,
    Observation,
    build_info_packets,
    observations_from_packets,
)
from repro.sim.scheduling import Activation

if TYPE_CHECKING:  # pragma: no cover - circular-import guard (annotations)
    from repro.graph.snapshot import GraphSnapshot
    from repro.sim.engine import SimulationEngine

__all__ = [
    "EngineBackend",
    "PHASE_MUTABLE_ATTRS",
    "PHASE_OUT_PARAMS",
    "ReferenceBackend",
]

#: The machine-checked phase contract: which engine-state attributes
#: each phase primitive may mutate (directly or through any callee).
#: ``repro lint --all`` enforces this transitively over every
#: registered backend -- reference, vectorized and future ones alike
#: (rule E001 in :mod:`repro.lint.deep.contracts`); backend-private
#: caches (``self._csr`` and friends) are always fair game.  Widening a
#: phase's row here is an API change: it must come with a docs/model.md
#: contract-table update and a cross-backend equivalence argument.
PHASE_MUTABLE_ATTRS: Mapping[str, FrozenSet[str]] = {
    # observe charges the packet counters and nothing else.
    "observe": frozenset({"_packets_broadcast", "_packet_deliveries"}),
    # activate steps the scheduler model (its internal queues advance).
    "activate": frozenset({"_scheduler"}),
    # compute may advance per-robot algorithm memory, nothing physical.
    "compute": frozenset({"_algorithm"}),
    # move/settle own the position and pending-move bookkeeping.
    "move": frozenset({"_positions", "_pending_moves"}),
    "settle": frozenset({"_positions", "_pending_moves"}),
    # pure audits: read-only on engine state.
    "audit_memory": frozenset(),
    "count_occupied_components": frozenset(),
}

#: Phase parameters that are documented out-parameters -- the only
#: payload arguments a phase body may write into (rule E002 flags every
#: other parameter mutation).
PHASE_OUT_PARAMS: Mapping[str, FrozenSet[str]] = {
    "move": frozenset({"new_entry_ports"}),
    "settle": frozenset({"new_entry_ports"}),
}


class EngineBackend(ABC):
    """Strategy interface for executing the engine's CCM phase primitives.

    Subclasses implement the six phase methods against the bound engine's
    state (``engine._positions``, ``engine._pending_moves``, ...).  The
    engine remains the single owner of that state; backends read and
    mutate it through the documented phase contracts but never drive the
    round loop, fire observers, or construct records themselves.

    The contract is statically enforced: ``repro lint --all``
    infers each phase implementation's transitive side effects and
    checks them against :data:`PHASE_MUTABLE_ATTRS` /
    :data:`PHASE_OUT_PARAMS`, so a stray in-place write in any
    registered backend fails CI instead of silently corrupting results.
    """

    #: Registry-facing name; informational (the registry key is what the
    #: spec layer uses for lookup and serialization).
    name: str = "abstract"

    def __init__(self) -> None:
        self._engine: Optional["SimulationEngine"] = None

    def bind(self, engine: "SimulationEngine") -> None:
        """Attach to ``engine`` (called by the engine constructor).

        Rebinding to a different engine is allowed and resets any
        per-run caches via :meth:`on_bind`.
        """
        self._engine = engine
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses to reset per-run caches on (re)bind."""

    @property
    def engine(self) -> "SimulationEngine":
        """The bound engine; raises if the backend is unbound."""
        if self._engine is None:
            raise RuntimeError(
                f"backend {self.name!r} is not bound to an engine"
            )
        return self._engine

    # -- phase primitives ------------------------------------------------

    @abstractmethod
    def observe(
        self, snapshot: "GraphSnapshot", round_index: int
    ) -> Mapping[int, Observation]:
        """Communicate/observe: build packets, apply byzantine forgery,
        deliver observations, and charge the packet counters."""

    @abstractmethod
    def activate(
        self, round_index: int
    ) -> Tuple[Activation, FrozenSet[int]]:
        """Ask the scheduler who wakes this step; validate the answer."""

    @abstractmethod
    def compute(
        self,
        snapshot: "GraphSnapshot",
        round_index: int,
        observations: Mapping[int, Observation],
        active: FrozenSet[int],
    ) -> Dict[int, Decision]:
        """Collect the decisions of all activated robots before any is
        applied (decisions within a step are simultaneous)."""

    @abstractmethod
    def move(
        self,
        snapshot: "GraphSnapshot",
        round_index: int,
        decisions: Dict[int, Decision],
        activation: Activation,
        new_entry_ports: Dict[int, int],
    ) -> List[int]:
        """Apply surviving moves; queue scheduler-delayed ones as pending."""

    @abstractmethod
    def settle(
        self, round_index: int, new_entry_ports: Dict[int, int]
    ) -> List[int]:
        """Apply pending moves whose arrival step has come."""

    @abstractmethod
    def audit_memory(self) -> int:
        """Peak persistent bits across alive honest robots, right now."""

    @abstractmethod
    def count_occupied_components(
        self, snapshot: "GraphSnapshot", occupied: FrozenSet[int]
    ) -> int:
        """Number of connected components induced by ``occupied`` in
        ``snapshot`` (the per-round record's ground-truth metric)."""


class ReferenceBackend(EngineBackend):
    """The seed-era pure-Python phase implementations, verbatim.

    This is the default backend and the semantic ground truth: every
    alternative backend must be bit-identical to it on the same spec
    (same ``RunResult`` JSON, same packet counters, same records).
    """

    name = "reference"

    def observe(
        self, snapshot: "GraphSnapshot", round_index: int
    ) -> Mapping[int, Observation]:
        """Build packets, apply byzantine forgery, deliver observations."""
        from repro.sim.engine import SimulationError

        engine = self.engine
        packets = build_info_packets(
            snapshot,
            engine._positions,
            neighborhood_knowledge=engine._neighborhood_knowledge,
        )
        if engine._byzantine:
            forged: Dict[int, InfoPacket] = {}
            for node, packet in packets.items():
                policy = engine._byzantine.get(packet.representative_id)
                if policy is not None:
                    packet = policy.forge_packet(packet, round_index)
                    if packet.representative_id not in engine._positions:
                        raise SimulationError(
                            "byzantine forgery changed the representative "
                            "ID; identities are unforgeable in the model"
                        )
                forged[node] = packet
            packets = forged
        engine._packets_broadcast += len(packets)
        if engine._communication is CommunicationModel.GLOBAL:
            engine._packet_deliveries += len(packets) * len(engine._positions)
        else:
            # local: each robot receives only its own node's packet
            engine._packet_deliveries += len(engine._positions)
        return observations_from_packets(
            packets,
            engine._positions,
            round_index,
            communication=engine._communication,
            neighborhood_knowledge=engine._neighborhood_knowledge,
            entry_ports=engine._entry_ports,
        )

    def activate(
        self, round_index: int
    ) -> Tuple[Activation, FrozenSet[int]]:
        """Ask the scheduler who wakes this step; validate the answer.

        Byzantine robots are appended by the engine itself -- the
        adversary does not answer to the scheduler -- unless they are
        mid-traversal.
        """
        from repro.sim.engine import SimulationError

        engine = self.engine
        activation = engine._scheduler.next_activation(
            round_index, engine._eligible_robots()
        )
        active = frozenset(activation.active) | (
            (set(engine._byzantine) & set(engine._positions))
            - set(engine._pending_moves)
        )
        if not set(active) <= set(engine._positions):
            raise SimulationError(
                "activation schedule returned robots that are not alive"
            )
        if engine._positions and not active and not engine._pending_moves:
            raise SimulationError(
                "activation schedule returned an empty activation set"
            )
        return activation, active

    def compute(
        self,
        snapshot: "GraphSnapshot",
        round_index: int,
        observations: Mapping[int, Observation],
        active: FrozenSet[int],
    ) -> Dict[int, Decision]:
        """Collect the decisions of all activated robots before applying
        any (decisions within a step are simultaneous)."""
        from repro.sim.engine import SimulationError

        engine = self.engine
        decisions: Dict[int, Decision] = {}
        for robot_id in sorted(active):
            policy = engine._byzantine.get(robot_id)
            if policy is not None:
                node = engine._positions[robot_id]
                port = policy.choose_move(snapshot.degree(node), round_index)
                decisions[robot_id] = (
                    MoveDecision(port) if port is not None else StayDecision()
                )
                continue
            decision = engine._algorithm.decide(observations[robot_id])
            if not isinstance(decision, (StayDecision, MoveDecision)):
                raise SimulationError(
                    f"algorithm returned {decision!r} for robot "
                    f"{robot_id}; expected StayDecision or MoveDecision"
                )
            decisions[robot_id] = decision
        return decisions

    def move(
        self,
        snapshot: "GraphSnapshot",
        round_index: int,
        decisions: Dict[int, Decision],
        activation: Activation,
        new_entry_ports: Dict[int, int],
    ) -> List[int]:
        """Apply surviving moves; queue delayed ones as pending.

        The destination and entry port are resolved against the
        decision-time snapshot even for delayed moves: the robot began
        traversing the edge as it existed when the move was decided.
        """
        from repro.sim.engine import SimulationError

        engine = self.engine
        moved: List[int] = []
        for robot_id in sorted(decisions):
            if robot_id not in engine._positions:
                continue
            decision = decisions[robot_id]
            if isinstance(decision, MoveDecision):
                node = engine._positions[robot_id]
                if decision.port > snapshot.degree(node):
                    raise SimulationError(
                        f"robot {robot_id} chose port {decision.port} "
                        f"but its node has degree {snapshot.degree(node)}"
                    )
                destination = snapshot.neighbor_via(node, decision.port)
                entry_port = snapshot.port_of(destination, node)
                delay = activation.move_delays.get(robot_id, 0)
                if delay > 0:
                    engine._pending_moves[robot_id] = (
                        round_index + delay,
                        destination,
                        entry_port,
                    )
                    continue
                engine._positions[robot_id] = destination
                new_entry_ports[robot_id] = entry_port
                moved.append(robot_id)
        return moved

    def settle(
        self, round_index: int, new_entry_ports: Dict[int, int]
    ) -> List[int]:
        """Apply pending moves whose arrival step has come."""
        engine = self.engine
        arrived: List[int] = []
        for robot_id in sorted(engine._pending_moves):
            arrival, destination, entry_port = engine._pending_moves[robot_id]
            if arrival <= round_index:
                engine._positions[robot_id] = destination
                new_entry_ports[robot_id] = entry_port
                arrived.append(robot_id)
        for robot_id in arrived:
            del engine._pending_moves[robot_id]
        return arrived

    def audit_memory(self) -> int:
        """Peak persistent bits across alive honest robots, right now.

        Byzantine robots are adversarial and unbounded; auditing them
        would be meaningless.
        """
        engine = self.engine
        bounds = engine._algorithm.persistent_state_bounds(
            engine._k, engine._n
        )
        peak = 0
        for robot_id in engine._honest_positions():
            state = engine._algorithm.persistent_state(robot_id)
            peak = max(peak, bits_for_state(state, bounds=bounds))
        return peak

    def count_occupied_components(
        self, snapshot: "GraphSnapshot", occupied: FrozenSet[int]
    ) -> int:
        return len(snapshot.induced_occupied_components(occupied))
