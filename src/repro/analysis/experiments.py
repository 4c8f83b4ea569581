"""High-level experiment runners and parameter sweeps.

These helpers standardize how the campaign, examples and integration
tests launch runs: one call builds the dynamic graph, the placement, the
algorithm and the engine, and returns a compact :class:`DispersionOutcome`
row.  Sweeps aggregate rows over seeds so reports show mean/min/max like
the tables of an experimental-systems paper would.

The sweeps are built on the declarative :class:`~repro.sim.spec.RunSpec`
layer: :func:`rounds_vs_k_specs` / :func:`faults_specs` emit the spec
grid, and the sweep functions execute it through a pluggable
:class:`~repro.sim.runner.Runner` (pass ``runner=ProcessPoolRunner(...)``
to fan a sweep across cores) and optionally through a
:class:`~repro.sim.store.RunStore` (pass ``store=...``): stored specs
are served from the cache, so an interrupted sweep resumes where it
stopped and an identical re-run costs only disk reads.  Passing a custom
``dynamics`` / ``algorithm_factory`` *callable* still works as before --
those runs fall back to in-process execution since arbitrary callables
are not serializable (and are never cached).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import (
    DynamicGraph,
    RandomChurnDynamicGraph,
    StaticDynamicGraph,
)
from repro.robots.faults import CrashPhase, CrashSchedule
from repro.robots.robot import RobotSet
from repro.sim.algorithm import RobotAlgorithm
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunResult
from repro.sim.runner import Runner, SerialRunner
from repro.sim.spec import ComponentSpec, CrashSpec, PlacementSpec, RunSpec
from repro.sim.store import CachingRunner, RunStore


def _grid_backend(
    runner: Optional[Runner], store: Optional[RunStore]
) -> Runner:
    """The effective backend: ``runner`` (serial default), cached if asked."""
    backend = runner or SerialRunner()
    if store is not None and not (
        isinstance(backend, CachingRunner)
        and backend.store.same_target(store)
    ):
        backend = CachingRunner(backend, store)
    return backend


@dataclass(frozen=True)
class DispersionOutcome:
    """One run's headline numbers, ready for a report row."""

    k: int
    n: int
    initial_occupied: int
    rounds: int
    total_moves: int
    max_persistent_bits: int
    dispersed: bool
    alive: int
    faults: int

    @classmethod
    def from_result(cls, result: RunResult, faults: int = 0) -> "DispersionOutcome":
        return cls(
            k=result.k,
            n=result.n,
            initial_occupied=result.initial_occupied,
            rounds=result.rounds,
            total_moves=result.total_moves,
            max_persistent_bits=result.max_persistent_bits,
            dispersed=result.dispersed,
            alive=result.alive_count,
            faults=faults,
        )


DynamicsFactory = Callable[[int, int], DynamicGraph]
"""``(n, seed) -> DynamicGraph`` builder used by sweeps."""


def churn_dynamics(extra_edges_per_node: float = 0.5) -> DynamicsFactory:
    """A random-churn dynamics factory with edge budget scaled by ``n``."""

    def build(n: int, seed: int) -> DynamicGraph:
        return RandomChurnDynamicGraph(
            n, extra_edges=int(extra_edges_per_node * n), seed=seed
        )

    return build


def static_dynamics(
    builder: Callable[[int, random.Random], "object"],
) -> DynamicsFactory:
    """Wrap a graph-family builder ``(n, rng) -> snapshot`` as static
    dynamics."""

    def build(n: int, seed: int) -> DynamicGraph:
        return StaticDynamicGraph(builder(n, random.Random(seed)))

    return build


def run_dispersion(
    dynamic_graph: DynamicGraph,
    robots: RobotSet,
    *,
    algorithm: Optional[RobotAlgorithm] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    max_rounds: Optional[int] = None,
    collect_records: bool = True,
) -> RunResult:
    """Run the paper's algorithm (or a supplied one) on an instance."""
    engine = SimulationEngine(
        dynamic_graph,
        robots,
        algorithm if algorithm is not None else DispersionDynamic(),
        crash_schedule=crash_schedule,
        max_rounds=max_rounds,
        collect_records=collect_records,
    )
    return engine.run()


def rounds_vs_k_specs(
    k_values: Sequence[int],
    *,
    n_for_k: Callable[[int], int] = lambda k: 2 * k,
    extra_edges_per_node: float = 0.5,
    rooted: bool = True,
    seeds: Sequence[int] = (0, 1, 2),
    algorithm: str = "dispersion_dynamic",
) -> List[RunSpec]:
    """The rounds-vs-k sweep as a declarative :class:`RunSpec` grid.

    One spec per ``(k, seed)`` pair, in ``k``-major order, reproducing
    :func:`sweep_rounds_vs_k`'s default (random-churn) instances exactly.
    """
    specs: List[RunSpec] = []
    for k in k_values:
        n = n_for_k(k)
        for seed in seeds:
            specs.append(
                RunSpec(
                    graph=ComponentSpec(
                        "random_churn",
                        {"n": n, "extra_edges": int(extra_edges_per_node * n)},
                    ),
                    placement=PlacementSpec(
                        kind="rooted" if rooted else "arbitrary", k=k
                    ),
                    algorithm=ComponentSpec(algorithm),
                    seed=seed,
                    max_rounds=4 * k + 64,
                    collect_records=False,
                    label=f"k={k} seed={seed}",
                )
            )
    return specs


def faults_specs(
    k: int,
    f_values: Sequence[int],
    *,
    n: Optional[int] = None,
    extra_edges_per_node: float = 0.5,
    seeds: Sequence[int] = (0, 1, 2),
    crash_window: Optional[int] = None,
    phases: Optional[List[CrashPhase]] = None,
) -> List[RunSpec]:
    """The crash-fault sweep as a declarative :class:`RunSpec` grid.

    One spec per ``(f, seed)`` pair, in ``f``-major order, reproducing
    :func:`sweep_faults`'s default instances exactly (including the
    ``fault:{k}:{f}:{seed}``-derived crash schedules).
    """
    n = n or 2 * k
    window = crash_window if crash_window is not None else max(1, k // 2)
    specs: List[RunSpec] = []
    for f in f_values:
        for seed in seeds:
            specs.append(
                RunSpec(
                    graph=ComponentSpec(
                        "random_churn",
                        {"n": n, "extra_edges": int(extra_edges_per_node * n)},
                    ),
                    placement=PlacementSpec(kind="rooted", k=k),
                    crash=CrashSpec(
                        kind="random",
                        f=f,
                        max_round=window,
                        phases=(
                            tuple(p.value for p in phases)
                            if phases is not None else None
                        ),
                    ),
                    seed=seed,
                    max_rounds=4 * k + 64,
                    collect_records=False,
                    label=f"k={k} f={f} seed={seed}",
                )
            )
    return specs


def sweep_rounds_vs_k(
    k_values: Sequence[int],
    *,
    n_for_k: Callable[[int], int] = lambda k: 2 * k,
    dynamics: Optional[DynamicsFactory] = None,
    extra_edges_per_node: float = 0.5,
    rooted: bool = True,
    seeds: Sequence[int] = (0, 1, 2),
    algorithm_factory: Callable[[], RobotAlgorithm] = DispersionDynamic,
    runner: Optional[Runner] = None,
    store: Optional[RunStore] = None,
) -> Dict[int, List[DispersionOutcome]]:
    """Rounds-to-dispersion as a function of ``k`` (Table I row 3 shape).

    Returns ``{k: [outcome per seed]}``.  Defaults: rooted starts on random
    churn with ``n = 2k`` and ``extra_edges_per_node * n`` churn edges.
    The default grid executes through ``runner`` (:class:`SerialRunner` if
    omitted), optionally cached in ``store``; supplying a custom
    ``dynamics`` or ``algorithm_factory`` callable forces in-process,
    uncached execution since arbitrary callables cannot be shipped to
    worker processes or hashed into a cache key.
    """
    if dynamics is None and algorithm_factory is DispersionDynamic:
        specs = rounds_vs_k_specs(
            k_values, n_for_k=n_for_k, rooted=rooted, seeds=seeds,
            extra_edges_per_node=extra_edges_per_node,
        )
        outcomes = _grid_backend(runner, store).run(specs)
        results: Dict[int, List[DispersionOutcome]] = {}
        for spec, result in zip(specs, outcomes):
            results.setdefault(spec.placement.k, []).append(
                DispersionOutcome.from_result(result)
            )
        return results
    dynamics = dynamics or churn_dynamics(extra_edges_per_node)
    results = {}
    for k in k_values:
        n = n_for_k(k)
        rows: List[DispersionOutcome] = []
        for seed in seeds:
            dyn = dynamics(n, seed)
            if rooted:
                robots = RobotSet.rooted(k, n)
            else:
                robots = RobotSet.arbitrary(k, n, random.Random(seed))
            result = run_dispersion(
                dyn,
                robots,
                algorithm=algorithm_factory(),
                collect_records=False,
                max_rounds=4 * k + 64,
            )
            rows.append(DispersionOutcome.from_result(result))
        results[k] = rows
    return results


def sweep_faults(
    k: int,
    f_values: Sequence[int],
    *,
    n: Optional[int] = None,
    dynamics: Optional[DynamicsFactory] = None,
    seeds: Sequence[int] = (0, 1, 2),
    crash_window: Optional[int] = None,
    phases: Optional[List[CrashPhase]] = None,
    runner: Optional[Runner] = None,
    store: Optional[RunStore] = None,
) -> Dict[int, List[DispersionOutcome]]:
    """Rounds-to-dispersion as a function of the crash count ``f``
    (Table I row 4 / Theorem 5 shape).

    Crashes are scheduled uniformly in ``[0, crash_window]`` (default:
    early, within the first ``k // 2`` rounds, which is the regime where
    Theorem 5's O(k - f) saving is visible).  The default grid executes
    through ``runner`` (:class:`SerialRunner` if omitted), optionally
    cached in ``store``; a custom ``dynamics`` callable forces
    in-process, uncached execution.
    """
    if dynamics is None:
        specs = faults_specs(
            k, f_values, n=n, seeds=seeds,
            crash_window=crash_window, phases=phases,
        )
        outcomes = _grid_backend(runner, store).run(specs)
        results: Dict[int, List[DispersionOutcome]] = {}
        for spec, result in zip(specs, outcomes):
            assert spec.crash is not None
            results.setdefault(spec.crash.f, []).append(
                DispersionOutcome.from_result(result, faults=spec.crash.f)
            )
        return results
    n = n or 2 * k
    window = crash_window if crash_window is not None else max(1, k // 2)
    results = {}
    for f in f_values:
        rows: List[DispersionOutcome] = []
        for seed in seeds:
            rng = random.Random(f"fault:{k}:{f}:{seed}")
            schedule = CrashSchedule.random_schedule(
                k, f, window, rng, phases=phases
            )
            result = run_dispersion(
                dynamics(n, seed),
                RobotSet.rooted(k, n),
                crash_schedule=schedule,
                collect_records=False,
                max_rounds=4 * k + 64,
            )
            rows.append(DispersionOutcome.from_result(result, faults=f))
        results[f] = rows
    return results


def summarize(outcomes: List[DispersionOutcome]) -> Dict[str, float]:
    """Mean/min/max rounds and mean moves over a list of outcomes."""
    rounds = [o.rounds for o in outcomes]
    moves = [o.total_moves for o in outcomes]
    return {
        "mean_rounds": sum(rounds) / len(rounds),
        "min_rounds": float(min(rounds)),
        "max_rounds": float(max(rounds)),
        "mean_moves": sum(moves) / len(moves),
        "all_dispersed": float(all(o.dispersed for o in outcomes)),
    }
