"""The synchronous Communicate-Compute-Move simulation engine.

One engine instance runs one instance of the problem: a dynamic graph
process, an initial robot placement, an algorithm, and (optionally) a crash
schedule.  Each round executes the paper's CCM structure:

1. the adversary/dynamic process supplies ``G_r`` knowing the configuration
   (validated: fixed vertex set, connected, simple, port-bijective);
2. robots scheduled to crash *before Communicate* vanish;
3. **Communicate / observe** -- per-node information packets are built and
   delivered according to the communication model (global or local) and
   sensing model (with or without 1-neighborhood knowledge);
4. **Compute** -- the decisions of all robots *activated this step* are
   collected (no decision is applied until all are collected);
5. robots scheduled to crash *after Compute* vanish, their moves discarded;
6. **Move** -- surviving moves are applied; under a scheduler whose Move
   phase takes time, a move instead becomes *pending* (the robot commits
   to its edge now but stays at its origin until the arrival step);
7. **Settle** -- pending moves whose arrival step has come are applied.

Which robots are activated in step 4 -- and what logical time a step
carries -- is decided by a :class:`~repro.sim.scheduling.SchedulerModel`:
FSYNC (the paper's model, the default, byte-identical to the historical
synchronous loop), SSYNC (an activation policy picks a subset per step)
or ASYNC (a seeded event-queue scheduler).  See ``docs/scheduling.md``.

The configuration is one immutable :class:`RoundState`;
:meth:`SimulationEngine.step` maps it to the next one (steps 3-7).
*How* each phase executes is delegated to an
:class:`~repro.sim.backend.EngineBackend` (default: the pure-Python
``reference`` backend; the ``vectorized`` backend swaps in numpy
struct-of-arrays kernels).  The engine owns the ground truth and uses it
for termination detection, validation, and metrics; algorithms never
receive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    FrozenSet,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.graph.dynamic import DynamicGraph, RoundContext
from repro.graph.validation import validate_snapshot
from repro.robots.faults import CrashPhase, CrashSchedule
from repro.sim.hooks import EngineObserver, TraceCollector

if TYPE_CHECKING:  # pragma: no cover - circular-import guard (annotations)
    from repro.robots.byzantine import ByzantinePolicy
    from repro.sim.backend import EngineBackend
from repro.robots.robot import RobotSet
from repro.sim.algorithm import RobotAlgorithm
from repro.sim.metrics import RoundRecord, RunResult, TerminationReason
from repro.sim.observation import CommunicationModel
from repro.sim.scheduling import (
    Activation,
    ActivationSchedule,
    FsyncScheduler,
    SchedulerModel,
    SsyncScheduler,
)


class SimulationError(RuntimeError):
    """An algorithm or adversary violated the model during a run."""


@dataclass(frozen=True)
class RoundState:
    """The configuration between two rounds; nothing writes to it.

    ``positions`` keeps robot-insertion order (observations follow it);
    ``entry_ports`` covers the robots that arrived in the last round;
    ``pending_moves`` maps a robot in transit to ``(arrival step,
    destination, entry port at destination)``.
    """

    positions: Dict[int, int]
    entry_ports: Dict[int, int] = field(default_factory=dict)
    pending_moves: Dict[int, Tuple[int, int, int]] = field(
        default_factory=dict
    )
    crashed: FrozenSet[int] = frozenset()
    ever_occupied: FrozenSet[int] = frozenset()
    packets_broadcast: int = 0
    packet_deliveries: int = 0

    def honest_positions(self, byzantine: Container[int]) -> Dict[int, int]:
        """Positions of the alive robots not in ``byzantine``."""
        return {
            robot_id: node
            for robot_id, node in self.positions.items()
            if robot_id not in byzantine
        }

    def eligible_robots(self, byzantine: Container[int]) -> Tuple[int, ...]:
        """Alive honest robots that can be activated (not in transit)."""
        return tuple(
            robot_id
            for robot_id in sorted(self.honest_positions(byzantine))
            if robot_id not in self.pending_moves
        )

    def is_dispersed(self, byzantine: Container[int]) -> bool:
        """No multiplicity node among alive robots.

        With byzantine robots present, dispersion is judged on the honest
        robots only (the BYZANTINEDISPERSION analog of Definition 6): each
        alive honest robot on its own distinct node.
        """
        honest = self.honest_positions(byzantine)
        return len(set(honest.values())) == len(honest)


class StepOutcome(NamedTuple):
    """What one :meth:`SimulationEngine.step` did besides the new state:
    the robots that reached a new node and the after-Compute crash
    victims (both ascending), the activation and the active set."""

    moved: Tuple[int, ...]
    crashed_after_compute: Tuple[int, ...]
    activation: Activation
    active: FrozenSet[int]


class SimulationEngine:
    """Runs one dispersion instance to termination.

    Parameters
    ----------
    dynamic_graph:
        The per-round graph source (oblivious process or adaptive
        adversary).
    robots:
        Initial placement; either a :class:`~repro.robots.robot.RobotSet`
        or a raw ``{robot_id: node}`` mapping.
    algorithm:
        The robot program.
    crash_schedule:
        Crash faults to inject (default: none).
    communication / neighborhood_knowledge:
        The information model of the run.  The engine refuses to start if
        the algorithm declares stronger requirements (fail fast instead of
        silently running a meaningless configuration); pass
        ``allow_model_mismatch=True`` to override -- that is exactly what
        the impossibility demonstrations do when they run global-model
        candidate algorithms under handicapped models.
    scheduler:
        The :class:`~repro.sim.scheduling.SchedulerModel` driving the
        phase loop (default: FSYNC, the paper's model).  Mutually
        exclusive with ``activation_schedule``, which is kept as
        shorthand for ``SsyncScheduler(schedule)``.  The engine refuses
        to start if the algorithm's ``compatible_schedulers`` declaration
        excludes the model (same override as the communication check).
    max_rounds:
        Safety cap on engine *steps* (== CCM rounds under FSYNC/SSYNC;
        activation-batch steps under ASYNC); defaults to a generous
        bound well above O(k).
    collect_records:
        Set False to skip per-round records in large benchmark sweeps.
    backend:
        The :class:`~repro.sim.backend.EngineBackend` executing the phase
        primitives (default: a fresh ``ReferenceBackend``).  Alternative
        backends must be bit-identical to the reference on the same
        configuration.
    observers:
        :class:`~repro.sim.hooks.EngineObserver` instances receiving the
        per-phase instrumentation hooks (round start / communicate /
        compute / move / round end); see :mod:`repro.sim.hooks`.
    """

    def __init__(
        self,
        dynamic_graph: DynamicGraph,
        robots: Union[RobotSet, Mapping[int, int]],
        algorithm: RobotAlgorithm,
        *,
        crash_schedule: Optional[CrashSchedule] = None,
        communication: CommunicationModel = CommunicationModel.GLOBAL,
        neighborhood_knowledge: bool = True,
        max_rounds: Optional[int] = None,
        collect_records: bool = True,
        collect_snapshots: bool = False,
        validate_graphs: bool = True,
        allow_model_mismatch: bool = False,
        activation_schedule: Optional[ActivationSchedule] = None,
        scheduler: Optional[SchedulerModel] = None,
        byzantine_policies: Optional[Mapping[int, "ByzantinePolicy"]] = None,
        backend: Optional["EngineBackend"] = None,
        observers: Optional[Sequence[EngineObserver]] = None,
    ) -> None:
        if isinstance(robots, RobotSet):
            if robots.n != dynamic_graph.n:
                raise ValueError(
                    f"robot set built for n={robots.n}, dynamic graph has "
                    f"n={dynamic_graph.n}"
                )
            initial_positions = robots.positions
        else:
            initial_positions = dict(robots)
            RobotSet(initial_positions, dynamic_graph.n)  # validates

        if scheduler is not None and activation_schedule is not None:
            raise ValueError(
                "pass either scheduler or activation_schedule, not both "
                "(an activation schedule is shorthand for "
                "SsyncScheduler(schedule))"
            )
        if scheduler is None:
            scheduler = (
                SsyncScheduler(activation_schedule)
                if activation_schedule is not None
                else FsyncScheduler()
            )

        if not allow_model_mismatch:
            if (
                algorithm.requires_communication is CommunicationModel.GLOBAL
                and communication is CommunicationModel.LOCAL
            ):
                raise ValueError(
                    f"algorithm {algorithm.name!r} requires global "
                    "communication but the run is configured local; pass "
                    "allow_model_mismatch=True if this is intentional"
                )
            if (
                algorithm.requires_neighborhood_knowledge
                and not neighborhood_knowledge
            ):
                raise ValueError(
                    f"algorithm {algorithm.name!r} requires 1-neighborhood "
                    "knowledge but the run disables it; pass "
                    "allow_model_mismatch=True if this is intentional"
                )
            if scheduler.name not in algorithm.compatible_schedulers:
                raise ValueError(
                    f"algorithm {algorithm.name!r} declares compatible "
                    f"schedulers {algorithm.compatible_schedulers!r} but the "
                    f"run uses {scheduler.name!r}; pass "
                    "allow_model_mismatch=True if this is intentional"
                )

        self._dynamic_graph = dynamic_graph
        self._algorithm = algorithm
        self._crash_schedule = crash_schedule or CrashSchedule.none()
        self._communication = communication
        self._neighborhood_knowledge = neighborhood_knowledge
        self._collect_snapshots = collect_snapshots
        self._validate_graphs = validate_graphs
        self._scheduler = scheduler
        # Phase observers; trace capture is itself an observer.
        hooks: list = list(observers or ())
        self._trace: Optional[TraceCollector] = (
            TraceCollector() if collect_records else None
        )
        if self._trace is not None:
            hooks.append(self._trace)
        self._observers: Tuple[EngineObserver, ...] = tuple(hooks)
        self._byzantine: Dict[int, "ByzantinePolicy"] = dict(
            byzantine_policies or {}
        )
        unknown = set(self._byzantine) - set(initial_positions)
        if unknown:
            raise ValueError(
                f"byzantine policies reference unknown robots {sorted(unknown)}"
            )

        self._n = dynamic_graph.n
        self._k = len(initial_positions)
        self._validated_snapshot: Optional[object] = None
        self._state = RoundState(
            positions=dict(initial_positions),
            ever_occupied=frozenset(initial_positions.values()),
        )
        self._last_epoch: Optional[int] = None
        self._initial_occupied = len(self._state.ever_occupied)

        if max_rounds is None:
            max_rounds = 10 * self._k * self._n + 100
        if max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        self._max_rounds = max_rounds

        if backend is None:
            from repro.sim.backend import ReferenceBackend

            backend = ReferenceBackend()
        self._backend: "EngineBackend" = backend
        self._backend.bind(self)

    # ------------------------------------------------------------------
    # Run-constant inputs (read-only; backends read them through these)
    # ------------------------------------------------------------------

    @property
    def backend(self) -> "EngineBackend":
        """The phase-execution backend driving this engine."""
        return self._backend

    @property
    def k(self) -> int:
        """Total robots (including crashed)."""
        return self._k

    @property
    def n(self) -> int:
        """Nodes in the dynamic graph."""
        return self._n

    @property
    def algorithm(self) -> RobotAlgorithm:
        """The robot program."""
        return self._algorithm

    @property
    def scheduler(self) -> SchedulerModel:
        """The scheduler model picking who wakes each step."""
        return self._scheduler

    @property
    def byzantine_policies(self) -> Mapping[int, "ByzantinePolicy"]:
        """Byzantine robot id -> the policy driving it."""
        return self._byzantine

    @property
    def communication(self) -> CommunicationModel:
        """The run's communication model."""
        return self._communication

    @property
    def neighborhood_knowledge(self) -> bool:
        """Whether robots get 1-neighborhood knowledge."""
        return self._neighborhood_knowledge

    # ------------------------------------------------------------------
    # Rounds: state transitions, one step, and the main loop
    # ------------------------------------------------------------------

    def _notify(self, method: str, *args) -> None:
        for observer in self._observers:
            getattr(observer, method)(*args)

    def _apply_crashes(
        self, state: RoundState, round_index: int, phase: CrashPhase
    ) -> Tuple[RoundState, Tuple[int, ...]]:
        """``state`` without the robots ``phase`` crashes this round (a
        robot in transit vanishes with its pending arrival)."""
        crashing = self._crash_schedule.crashes_at(round_index, phase)
        victims = tuple(sorted(r for r in crashing if r in state.positions))
        if not victims:
            return state, victims
        gone = frozenset(victims)

        def alive(mapping: Mapping) -> Dict:
            return {r: v for r, v in mapping.items() if r not in gone}

        return replace(
            state,
            positions=alive(state.positions),
            entry_ports=alive(state.entry_ports),
            pending_moves=alive(state.pending_moves),
            crashed=state.crashed | gone,
        ), victims

    def _communicate(
        self, state: RoundState, snapshot, round_index: int
    ) -> Tuple[RoundState, Mapping]:
        """The backend's observations, and ``state`` with their packets
        counted: one per occupied node (forgery keeps the nodes),
        delivered to every alive robot under global communication, to
        its own node's robots under local."""
        observations = self._backend.observe(state, snapshot, round_index)
        alive = len(state.positions)
        packets = len(set(state.positions.values()))
        is_global = self._communication is CommunicationModel.GLOBAL
        state = replace(
            state,
            packets_broadcast=state.packets_broadcast + packets,
            packet_deliveries=state.packet_deliveries
            + (packets * alive if is_global else alive),
        )
        self._notify("on_communicate", round_index, observations)
        return state, observations

    def step(
        self, state: RoundState, snapshot, round_index: int
    ) -> Tuple[RoundState, StepOutcome]:
        """Advance ``state`` by one round on ``snapshot``.

        Communicate, activate, compute, the round's after-Compute crashes,
        move and settle; ``on_communicate`` and ``on_compute`` fire
        inside.  ``state`` itself is left as it was.
        """
        backend = self._backend
        self._algorithm.on_round_start(round_index)
        state, observations = self._communicate(state, snapshot, round_index)

        # Activate: the scheduler model picks who wakes this step
        # (everyone under FSYNC; inactive robots implicitly stay but
        # remain physically present in everyone's packets).  Compute
        # collects every decision before any is applied.
        activation, active = backend.activate(state, round_index)
        decisions = backend.compute(
            state, snapshot, round_index, observations, active
        )
        self._notify("on_compute", round_index, decisions)

        # Move: simultaneous application (robots crashed now vanish
        # holding their marching orders), then settle earlier pending
        # moves that arrive now.
        state, crashed_after = self._apply_crashes(
            state, round_index, CrashPhase.AFTER_COMPUTE
        )
        state, moved = backend.move(
            state, snapshot, round_index, decisions, activation
        )
        state, arrived = backend.settle(state, round_index)
        nodes = state.positions.values()
        if not state.ever_occupied.issuperset(nodes):
            state = replace(
                state, ever_occupied=state.ever_occupied.union(nodes)
            )
        return state, StepOutcome(
            tuple(sorted(moved + arrived)), crashed_after, activation, active
        )

    def run(self) -> RunResult:
        """Execute rounds until dispersion, crash-out, or the round cap."""
        self._algorithm.on_run_start(self._k, self._n)
        self._notify("on_run_start", self._k, self._n)
        byzantine = self._byzantine

        if self._state.is_dispersed(byzantine):
            return self._result(
                TerminationReason.ALREADY_DISPERSED,
                rounds=0,
                total_moves=0,
                max_bits=self._backend.audit_memory(self._state),
                detected=True,
            )

        total_moves = 0
        max_bits = 0
        round_index = 0
        # The last record's end configuration and its occupied set: the
        # next record starts from the same dict unless a crash replaced
        # it, and then shares the frozenset too.
        last_positions: Optional[Dict[int, int]] = None
        last_occupied: FrozenSet[int] = frozenset()
        self._state = replace(
            self._state, packets_broadcast=0, packet_deliveries=0
        )

        while round_index < self._max_rounds:
            state = self._state
            # Adversary chooses G_r knowing the configuration so far.
            context = RoundContext(
                round_index=round_index,
                positions=dict(state.positions),
                ever_occupied=state.ever_occupied,
            )
            snapshot = self._dynamic_graph.snapshot(round_index, context)
            # Snapshots are immutable, so validation is a pure function of
            # the object: a static graph serving the same snapshot every
            # round is validated once (at its first round) instead of n
            # times.  Dynamic processes return fresh objects and are
            # validated every round as before.
            if (
                self._validate_graphs
                and snapshot is not self._validated_snapshot
            ):
                validate_snapshot(
                    snapshot, expected_n=self._n, round_index=round_index
                )
                self._validated_snapshot = snapshot
            self._notify("on_round_start", round_index, snapshot)

            state, crashed_before = self._apply_crashes(
                state, round_index, CrashPhase.BEFORE_COMMUNICATE
            )
            self._state = state
            if not state.positions:
                return self._result(
                    TerminationReason.ALL_CRASHED,
                    rounds=round_index,
                    total_moves=total_moves,
                    max_bits=max_bits,
                    detected=False,
                )

            if state.is_dispersed(byzantine) and not state.pending_moves:
                self._state, observations = self._communicate(
                    state, snapshot, round_index
                )
                detected = all(
                    self._algorithm.detects_termination(observations[rid])
                    for rid in state.honest_positions(byzantine)
                )
                # Crashes that disperse the robots before round 0 executes
                # leave no round audited: audit the state, as an
                # already-dispersed start does.
                return self._result(
                    TerminationReason.DISPERSED,
                    rounds=round_index,
                    total_moves=total_moves,
                    max_bits=(
                        max_bits if round_index
                        else self._backend.audit_memory(state)
                    ),
                    detected=detected,
                )

            after, outcome = self.step(state, snapshot, round_index)
            self._state = after
            total_moves += len(outcome.moved)
            self._notify(
                "on_move", round_index, outcome.moved, dict(after.positions)
            )

            round_bits = self._backend.audit_memory(after)
            max_bits = max(max_bits, round_bits)

            activation = outcome.activation
            timeline = not self._scheduler.is_fully_synchronous
            if timeline:
                self._last_epoch = activation.epoch
            if self._observers:
                occupied_before = (
                    last_occupied
                    if state.positions is last_positions
                    else frozenset(state.positions.values())
                )
                last_positions = after.positions
                last_occupied = frozenset(last_positions.values())
                record = RoundRecord(
                    round_index=round_index,
                    positions_before=state.positions,
                    positions_after=last_positions,
                    moved_robots=outcome.moved,
                    crashed_before_communicate=crashed_before,
                    crashed_after_compute=outcome.crashed_after_compute,
                    occupied_before=occupied_before,
                    occupied_after=last_occupied,
                    num_components=self._backend.count_occupied_components(
                        snapshot, occupied_before
                    ),
                    max_persistent_bits=round_bits,
                    snapshot=(
                        snapshot if self._collect_snapshots else None
                    ),
                    epoch=activation.epoch if timeline else None,
                    activated_robots=(
                        tuple(sorted(outcome.active)) if timeline else None
                    ),
                )
                self._notify("on_round_end", record)
            round_index += 1

        reason = (
            TerminationReason.DISPERSED
            if self._state.is_dispersed(byzantine)
            and not self._state.pending_moves
            else TerminationReason.ROUND_LIMIT
        )
        return self._result(
            reason,
            rounds=round_index,
            total_moves=total_moves,
            max_bits=max_bits,
            detected=False,
        )

    def _result(
        self,
        reason: TerminationReason,
        *,
        rounds: int,
        total_moves: int,
        max_bits: int,
        detected: bool,
    ) -> RunResult:
        records = self._trace.records if self._trace is not None else []
        state = self._state
        result = RunResult(
            reason=reason,
            rounds=rounds,
            k=self._k,
            n=self._n,
            initial_occupied=self._initial_occupied,
            final_positions=dict(state.positions),
            crashed_robots=tuple(sorted(state.crashed)),
            byzantine_robots=tuple(sorted(self._byzantine)),
            total_moves=total_moves,
            total_packets_broadcast=state.packets_broadcast,
            total_packet_deliveries=state.packet_deliveries,
            max_persistent_bits=max_bits,
            records=records,
            algorithm_detected_termination=detected,
            final_epoch=self._last_epoch,
        )
        self._notify("on_run_end", result)
        return result
