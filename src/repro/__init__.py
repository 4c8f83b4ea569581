"""repro -- reproduction of "Efficient Dispersion of Mobile Robots on
Dynamic Graphs" (Kshemkalyani, Molla, Sharma; ICDCS 2020).

The package implements the paper end to end:

* a synchronous round-based simulator of ``k <= n`` mobile robots on
  ``n``-node anonymous, port-labelled, 1-interval connected dynamic graphs
  (:mod:`repro.graph`, :mod:`repro.sim`, :mod:`repro.robots`);
* the paper's O(k)-round, Theta(log k)-bit dispersion algorithm built from
  connected components, component spanning trees, disjoint root paths and
  sliding (:mod:`repro.core`), including the Section VII crash-fault
  extension;
* the worst-case adversaries of the impossibility results (Theorems 1 and
  2) and of the Omega(k) lower bound (Theorem 3)
  (:mod:`repro.adversary`);
* baseline algorithms from the static-graph literature for contrast
  (:mod:`repro.baselines`);
* the reproduction campaign regenerating every table and figure of the
  paper, one pass/fail section each (:mod:`repro.analysis.campaign`).

Quickstart (declarative)::

    import repro

    spec = repro.make_spec(
        "random_churn", {"n": 40, "extra_edges": 20}, k=30, seed=7
    )
    result = repro.run(spec)
    assert result.dispersed and result.rounds <= 30

Quickstart (imperative)::

    import random
    from repro import (
        DispersionDynamic, RandomChurnDynamicGraph, RobotSet,
        SimulationEngine,
    )

    dyn = RandomChurnDynamicGraph(n=40, extra_edges=20, seed=7)
    robots = RobotSet.arbitrary(k=30, n=40, rng=random.Random(7))
    result = SimulationEngine(dyn, robots, DispersionDynamic()).run()
    assert result.dispersed and result.rounds <= 30

The stable top-level surface for notebooks and downstream code is
:func:`repro.run` / :func:`repro.sweep` over :class:`repro.RunSpec`
(built directly or with :func:`repro.make_spec`), with
:class:`repro.RunStore` for persistent, content-addressed result
caching; deep module paths remain available but are not needed for the
common workflows.
"""

from repro.graph import (
    DynamicGraph,
    FunctionalDynamicGraph,
    GraphSnapshot,
    GraphValidationError,
    PortLabeledEdge,
    RandomChurnDynamicGraph,
    SequenceDynamicGraph,
    StaticDynamicGraph,
    TIntervalChurnDynamicGraph,
    validate_snapshot,
)
from repro.robots import (
    CrashEvent,
    CrashPhase,
    CrashSchedule,
    RobotSet,
)
from repro.sim import (
    ActivationSchedule,
    CommunicationModel,
    FullActivation,
    RandomSubsetActivation,
    RoundRobinActivation,
    InfoPacket,
    MoveDecision,
    NeighborInfo,
    Observation,
    RobotAlgorithm,
    RoundRecord,
    RunResult,
    SimulationEngine,
    SimulationError,
    StayDecision,
    TerminationReason,
    build_info_packets,
    build_observations,
)
from repro.core import (
    ComponentGraph,
    DispersionDynamic,
    RootPath,
    SpanningTree,
    build_component,
    build_spanning_tree,
    compute_disjoint_paths,
    compute_sliding_moves,
    partition_into_components,
)
from repro.sim import (
    CachingRunner,
    ComponentSpec,
    CrashSpec,
    EngineBackend,
    PlacementSpec,
    ProcessPoolRunner,
    Runner,
    RunnerError,
    RunSpec,
    RunStore,
    SerialRunner,
    SpecError,
    execute,
    make_spec,
    register_backend,
    runner_from_jobs,
)

__version__ = "1.2.0"


def _with_backend(spec: RunSpec, backend: "str | ComponentSpec | None") -> RunSpec:
    """Pin an engine backend on ``spec`` (no-op when ``backend`` is None)."""
    if backend is None:
        return spec
    if isinstance(backend, str):
        backend = ComponentSpec(backend)
    return spec.with_(backend=backend)


def run(
    spec: RunSpec,
    *,
    store: "RunStore | None" = None,
    backend: "str | ComponentSpec | None" = None,
) -> RunResult:
    """Execute one :class:`RunSpec` deterministically.

    With ``store`` (a :class:`RunStore`), the run is served from the
    content-addressed cache when stored and written through otherwise --
    the result is identical either way.

    ``backend`` selects the engine backend (``"reference"`` or
    ``"vectorized"``) without editing the spec by hand; it is applied to
    the spec *before* the cache lookup, so each backend caches under its
    own digest.
    """
    spec = _with_backend(spec, backend)
    if store is not None:
        cached = store.get(spec)
        if cached is not None:
            return cached
    result = execute(spec)
    if store is not None:
        store.put(spec, result)
    return result


def sweep(
    specs,
    *,
    jobs: "int | None" = None,
    store: "RunStore | None" = None,
    timeout: "float | None" = None,
    retries: int = 0,
    backend: "str | ComponentSpec | None" = None,
) -> "list[RunResult]":
    """Execute a grid of :class:`RunSpec` s, in spec order.

    ``jobs`` picks the execution runner exactly like the CLI's ``--jobs``
    (``<= 1``: in-process serial; ``N``: a fault-tolerant ``N``-worker
    process pool; ``-1``: all cores).  ``timeout`` / ``retries`` bound
    each unit's wall clock and retry budget on the pool.  ``store``
    serves hits from and writes misses through a :class:`RunStore`,
    making interrupted sweeps resumable.  ``backend`` pins an engine
    backend (``"reference"`` or ``"vectorized"``) on every spec before
    dispatch, exactly like :func:`run`.
    """
    with runner_from_jobs(
        jobs, timeout=timeout, retries=retries, store=store
    ) as runner:
        return runner.run([_with_backend(s, backend) for s in specs])

__all__ = [
    # graph
    "DynamicGraph",
    "FunctionalDynamicGraph",
    "GraphSnapshot",
    "GraphValidationError",
    "PortLabeledEdge",
    "RandomChurnDynamicGraph",
    "SequenceDynamicGraph",
    "StaticDynamicGraph",
    "TIntervalChurnDynamicGraph",
    "validate_snapshot",
    # robots
    "CrashEvent",
    "CrashPhase",
    "CrashSchedule",
    "RobotSet",
    # sim
    "ActivationSchedule",
    "CommunicationModel",
    "FullActivation",
    "RandomSubsetActivation",
    "RoundRobinActivation",
    "InfoPacket",
    "MoveDecision",
    "NeighborInfo",
    "Observation",
    "RobotAlgorithm",
    "RoundRecord",
    "RunResult",
    "SimulationEngine",
    "SimulationError",
    "StayDecision",
    "TerminationReason",
    "build_info_packets",
    "build_observations",
    # core
    "ComponentGraph",
    "DispersionDynamic",
    "RootPath",
    "SpanningTree",
    "build_component",
    "build_spanning_tree",
    "compute_disjoint_paths",
    "compute_sliding_moves",
    "partition_into_components",
    # stable top-level workflow surface
    "run",
    "sweep",
    "execute",
    "make_spec",
    "EngineBackend",
    "register_backend",
    "RunSpec",
    "ComponentSpec",
    "PlacementSpec",
    "CrashSpec",
    "SpecError",
    "RunStore",
    "CachingRunner",
    "Runner",
    "RunnerError",
    "SerialRunner",
    "ProcessPoolRunner",
    "runner_from_jobs",
    "__version__",
]
