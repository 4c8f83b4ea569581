"""Synchronous Communicate-Compute-Move simulation of robot algorithms.

This package is the substrate that stands in for the paper's synchronous
dynamic network: it owns the ground truth (node indices, robot positions,
who is alive), builds exactly the observations each communication/sensing
model entitles robots to, runs the per-round CCM loop against a (possibly
adversarial) dynamic graph, injects crash faults, audits persistent memory,
and records traces and metrics.

The strict separation between ground truth and robot-visible information is
the load-bearing design rule: robots only ever see
:class:`~repro.sim.observation.InfoPacket` s and their own node's local
view, never node indices, so an algorithm that "cheats" cannot typecheck
its way into the simulator.
"""

from repro.sim.observation import (
    CommunicationModel,
    InfoPacket,
    NeighborInfo,
    Observation,
    build_info_packets,
    build_observations,
)
from repro.sim.algorithm import RobotAlgorithm, StayDecision, MoveDecision, Decision
from repro.sim.algorithm import probe_decisions
from repro.sim.backend import EngineBackend, ReferenceBackend
from repro.sim.metrics import RoundRecord, RunResult, TerminationReason
from repro.sim.engine import RoundState, SimulationEngine, SimulationError
from repro.sim.invariants import verify_run
from repro.sim.traceio import (
    dynamic_graph_to_script,
    replay_and_verify,
    run_fingerprint,
    run_result_from_dict,
    run_result_to_dict,
    run_result_to_json,
    script_from_dict,
    script_to_dict,
    snapshot_from_dict,
    snapshot_to_dict,
)
from repro.sim.scheduling import (
    Activation,
    ActivationSchedule,
    AsyncScheduler,
    FsyncScheduler,
    FullActivation,
    RandomSubsetActivation,
    RoundRobinActivation,
    SchedulerModel,
    SsyncScheduler,
)
from repro.sim.hooks import (
    CallbackObserver,
    EngineObserver,
    LiveInvariantChecker,
    PhaseTimer,
    ProgressNarrator,
    TraceCollector,
)
from repro.sim.spec import (
    CODE_VERSION_SALT,
    ComponentSpec,
    CrashSpec,
    PlacementSpec,
    RunSpec,
    SpecError,
    build_backend,
    build_engine,
    canonical_spec_json,
    execute,
    make_spec,
    register_activation,
    register_algorithm,
    register_backend,
    register_byzantine,
    register_graph,
    register_scheduler,
    registered_components,
    spec_digest,
)
from repro.sim.runner import (
    ProcessPoolRunner,
    Runner,
    RunnerError,
    SerialRunner,
    runner_from_jobs,
)
from repro.sim.store import (
    CachingRunner,
    RunStore,
    StoreStats,
    default_cache_dir,
    execute_through_store,
)

__all__ = [
    "CommunicationModel",
    "InfoPacket",
    "NeighborInfo",
    "Observation",
    "build_info_packets",
    "build_observations",
    "probe_decisions",
    "RobotAlgorithm",
    "Decision",
    "StayDecision",
    "MoveDecision",
    "RoundRecord",
    "RunResult",
    "TerminationReason",
    "RoundState",
    "SimulationEngine",
    "SimulationError",
    "EngineBackend",
    "ReferenceBackend",
    "ActivationSchedule",
    "FullActivation",
    "RandomSubsetActivation",
    "RoundRobinActivation",
    "Activation",
    "SchedulerModel",
    "FsyncScheduler",
    "SsyncScheduler",
    "AsyncScheduler",
    "EngineObserver",
    "CallbackObserver",
    "TraceCollector",
    "ProgressNarrator",
    "PhaseTimer",
    "LiveInvariantChecker",
    "ComponentSpec",
    "PlacementSpec",
    "CrashSpec",
    "RunSpec",
    "SpecError",
    "make_spec",
    "build_backend",
    "build_engine",
    "execute",
    "register_graph",
    "register_algorithm",
    "register_backend",
    "register_byzantine",
    "register_activation",
    "register_scheduler",
    "registered_components",
    "CODE_VERSION_SALT",
    "canonical_spec_json",
    "spec_digest",
    "Runner",
    "RunnerError",
    "SerialRunner",
    "ProcessPoolRunner",
    "runner_from_jobs",
    "RunStore",
    "CachingRunner",
    "StoreStats",
    "default_cache_dir",
    "execute_through_store",
    "run_fingerprint",
    "run_result_from_dict",
    "verify_run",
    "dynamic_graph_to_script",
    "replay_and_verify",
    "run_result_to_dict",
    "run_result_to_json",
    "script_from_dict",
    "script_to_dict",
    "snapshot_from_dict",
    "snapshot_to_dict",
]
