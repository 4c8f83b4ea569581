"""The benchmark's five workloads: inputs from the seed, one repeat, checks.

Each workload is one closed loop with a single client and concurrency 1:
every operation starts after the previous one returned, serially, in this
process.  ``prepare(seed)`` builds the inputs (the program only ever sees
the specs generated here), ``repeat(inputs, tracer)`` runs every operation
once and checks the outputs.  A repeat is traced when ``tracer`` is given.

Every workload records in ``WHY`` the layers it loads and the layers it
bypasses, so a later change knows which workload should move and which
should not.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pathlib
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracer import Tracer

BACKENDS = ("reference", "vectorized")
PHASES = ("adversary", "communicate", "compute", "move", "bookkeeping")
VFS_OPS = ("mkdir", "write_bytes", "fsync_file", "replace", "fsync_dir", "unlink")

#: One line per workload: the layers it loads, and the layers it bypasses.
WHY = {
    "static-dense": (
        "Algorithm 4 FSYNC rooted on static random_dense at the E13 sizes, records on, "
        "both backends: loads engine observe/compute (vec kernels, core), bypasses graph churn"
    ),
    "churn-sweep": (
        "Table I row 3 grid on random_churn, k=8..256, records off, both backends: "
        "loads graph.snapshot and CSR rebuild every round plus per-run engine build"
    ),
    "model-variants": (
        "faithful, local, ssync, async, byzantine and crash cells: loads the vectorized "
        "fallbacks to the reference compute, bypasses the fast array path"
    ),
    "store-cycle": (
        "put churn results under fast then strict durability, get them back: loads "
        "sim.store, sim.traceio and spec_digest, bypasses the engine"
    ),
    "lint-all": (
        "repro lint --all --no-cache src in-process: loads every repro.lint tier, "
        "bypasses the simulator"
    ),
}

#: ``(n, k)`` of the three E13 cells.
STATIC_SIZES = ((96, 72), (192, 144), (384, 288))
#: The Table I row 3 robot counts, one churn seed each.
CHURN_KS = (8, 16, 32, 64, 128, 256)
#: The churn subset the traced run times through both runners.
POOL_KS = (8, 16, 32)
POOL_ROUNDS = 5
#: Step budget of the ssync and async cells: far below the steps they need
#: to disperse at k=64, so every seed does the same amount of work.
SCHEDULER_STEPS = 60
#: The churn grid whose results (with records) the store cycles.
STORE_KS = (8, 16, 32, 64)
STORE_SEEDS = 6
LINT_ARGV = ["--all", "--no-cache", "src"]


@dataclass
class Repeat:
    """What one repeat of a workload measured and found.

    Workloads time each operation and hand the seconds to :meth:`add`;
    ``wall_s``, the timed section, is their sum, so the checks between
    operations stay out of it.
    """

    wall_s: float = 0.0
    #: ``wall_s`` per backend (dispersion workloads)
    parts: Dict[str, float] = field(default_factory=dict)
    #: per-operation latencies in ms, by metric stem (store-cycle)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    ops: int = 0
    #: failed operation -> why; a failed operation is counted once
    failures: Dict[str, str] = field(default_factory=dict)
    #: counts that must repeat exactly between repeats of the same inputs
    counts: Dict[str, int] = field(default_factory=dict)
    #: layer values the workload measured itself in a traced repeat:
    #: ``engine.<phase>_s.<backend>`` PhaseTimer totals, bytes written
    layer: Dict[str, float] = field(default_factory=dict)

    def add(self, seconds: float, part: str = "", sample: str = "") -> None:
        """Account one operation that took ``seconds``, charged to backend
        ``part`` and recorded as a latency sample of stem ``sample``."""
        self.wall_s += seconds
        if part:
            self.parts[part] = self.parts.get(part, 0.0) + seconds
        if sample:
            self.samples.setdefault(sample, []).append(seconds * 1e3)


def _traced(tracer: Optional[Tracer], name: str, label: str) -> Any:
    return tracer.op(name, label) if tracer is not None else contextlib.nullcontext()


class Workload:
    """``load()`` imports, ``prepare(seed, out_dir)`` makes the inputs and
    ``repeat(inputs, tracer)`` runs and checks them once."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.why = WHY[name]

    def pool_overhead_ms(self, inputs: Any) -> Optional[float]:
        """The traced run's runner measurement; only churn-sweep makes one."""
        return None


# ----------------------------------------------------------------------
# Dispersion workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One spec of a dispersion workload and the paper bounds it must meet."""

    label: str
    spec: Any
    #: subset of ``theorem4`` (fault-free FSYNC Algorithm 4: rounds <=
    #: k - initial_occupied), ``lemma8`` (rooted fault-free Algorithm 4:
    #: max_persistent_bits == ceil(log2(k+1))) and ``disperses``
    checks: Tuple[str, ...]


def _check_bounds(cell: Cell, result: Any) -> Optional[str]:
    if "theorem4" in cell.checks:
        bound = result.k - result.initial_occupied
        if not result.dispersed or result.rounds > bound:
            return f"Theorem 4: {result.rounds} rounds > {bound} or not dispersed"
    if "lemma8" in cell.checks:
        expected = math.ceil(math.log2(result.k + 1))
        if result.max_persistent_bits != expected:
            return f"Lemma 8: {result.max_persistent_bits} bits != {expected}"
    if "disperses" in cell.checks and not result.dispersed:
        return f"did not disperse ({result.reason.name})"
    return None


class DispersionWorkload(Workload):
    """Runs every cell on the reference and then the vectorized backend."""

    def load(self) -> None:
        """Import the layers this workload calls and load the registry."""
        from repro.analysis import experiments  # noqa: F401
        from repro.sim import spec

        spec.registered_components()

    def cells(self, seed: int) -> List[Cell]:
        raise NotImplementedError

    def prepare(self, seed: int, out_dir: pathlib.Path) -> List[Tuple[Cell, str, Any]]:
        """Every ``(cell, backend, spec)`` operation, in execution order."""
        from repro.sim.spec import ComponentSpec

        return [
            (cell, backend, cell.spec.with_(backend=ComponentSpec(backend)))
            for cell in self.cells(seed)
            for backend in BACKENDS
        ]

    def repeat(self, ops: Sequence[Tuple[Cell, str, Any]], tracer: Optional[Tracer]) -> Repeat:
        from repro.sim.hooks import PhaseTimer
        from repro.sim.spec import build_engine
        from repro.sim.traceio import run_fingerprint

        rep = Repeat()
        outcomes = []
        for cell, backend, spec in ops:
            timer = PhaseTimer() if tracer is not None else None
            began = time.perf_counter()
            try:
                if tracer is None:
                    result = build_engine(spec).run()
                else:
                    with tracer.op("engine.run", f"{cell.label}/{backend}"):
                        with tracer.span("spec.build_engine"):
                            engine = build_engine(spec, observers=[timer])
                        result = engine.run()
            except Exception as error:  # a failed run is counted, not fatal
                result = error
            rep.add(time.perf_counter() - began, backend)
            outcomes.append((cell, backend, result, timer))

        rep.counts = dict.fromkeys(
            ("rounds", "robot_rounds", "packets_broadcast", "packets_delivered"), 0
        )
        fingerprints: Dict[str, str] = {}
        for cell, backend, result, timer in outcomes:
            rep.ops += 1
            key = f"{cell.label}/{backend}"
            if isinstance(result, Exception):
                rep.failures[key] = f"raised {result!r}"
                continue
            problem = _check_bounds(cell, result)
            if problem is not None:
                rep.failures[key] = problem
            fingerprint = run_fingerprint(result)
            if backend == "reference":
                fingerprints[cell.label] = fingerprint
            elif fingerprints.get(cell.label) != fingerprint:
                rep.failures.setdefault(key, "run_fingerprint differs from reference")
            rep.counts["rounds"] += result.rounds
            rep.counts["robot_rounds"] += result.k * result.rounds
            rep.counts["packets_broadcast"] += result.total_packets_broadcast
            rep.counts["packets_delivered"] += result.total_packet_deliveries
            if timer is not None:
                for phase, seconds in timer.totals.items():
                    name = f"engine.{phase}_s.{backend}"
                    rep.layer[name] = rep.layer.get(name, 0.0) + seconds
        return rep


def _seeds(workload: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(count)]


def _dense(n: int, seed: int) -> Any:
    from repro.sim.spec import ComponentSpec

    return ComponentSpec("static_family", {"family": "random_dense", "n": n, "seed": seed})


class StaticDense(DispersionWorkload):
    def cells(self, seed: int) -> List[Cell]:
        from repro.sim.spec import PlacementSpec, RunSpec

        seeds = _seeds(self.name, seed, len(STATIC_SIZES))
        return [
            Cell(
                f"n={n} k={k}",
                RunSpec(
                    graph=_dense(n, graph_seed),
                    placement=PlacementSpec(kind="rooted", k=k),
                    seed=graph_seed,
                ),
                ("theorem4", "lemma8"),
            )
            for (n, k), graph_seed in zip(STATIC_SIZES, seeds)
        ]


class ChurnSweep(DispersionWorkload):
    def cells(self, seed: int) -> List[Cell]:
        from repro.analysis.experiments import rounds_vs_k_specs

        seeds = _seeds(self.name, seed, len(CHURN_KS))
        return [
            Cell(f"k={k}", rounds_vs_k_specs([k], seeds=(churn_seed,))[0], ("theorem4", "lemma8"))
            for k, churn_seed in zip(CHURN_KS, seeds)
        ]

    def pool_overhead_ms(self, ops: Sequence[Tuple[Cell, str, Any]]) -> Optional[float]:
        """``ProcessPoolRunner(max_workers=1)`` minus ``SerialRunner`` ms per
        spec on the k <= 32 cells: the median of alternating timings with a
        started pool, so it is dispatch cost, not start-up or scaling."""
        from repro.sim.runner import ProcessPoolRunner, SerialRunner
        from repro.sim.traceio import run_fingerprint

        specs = [spec for cell, _backend, spec in ops if cell.spec.placement.k in POOL_KS]
        expected = [run_fingerprint(r) for r in SerialRunner().run(specs)]
        timings: Dict[str, List[float]] = {"serial": [], "pool": []}
        with ProcessPoolRunner(max_workers=1) as pool:
            pool.run(specs[:1])
            for _ in range(POOL_ROUNDS):
                for name, runner in (("serial", SerialRunner()), ("pool", pool)):
                    began = time.perf_counter()
                    results = runner.run(specs)
                    timings[name].append(time.perf_counter() - began)
                    if [run_fingerprint(r) for r in results] != expected:
                        raise RuntimeError(f"{name} runner results differ")
        overhead = statistics.median(timings["pool"]) - statistics.median(timings["serial"])
        return overhead * 1e3 / len(specs)


class ModelVariants(DispersionWorkload):
    def cells(self, seed: int) -> List[Cell]:
        from repro.analysis.experiments import faults_specs
        from repro.sim.spec import ComponentSpec, PlacementSpec, RunSpec

        s = _seeds(self.name, seed, 6)
        churn = ComponentSpec("random_churn", {"n": 96, "extra_edges": 48})
        rooted = PlacementSpec(kind="rooted", k=64)
        crash = faults_specs(64, [16], seeds=(s[5],))[0]
        return [
            Cell(
                "faithful",
                RunSpec(
                    graph=_dense(64, s[0]),
                    placement=PlacementSpec(kind="rooted", k=48),
                    algorithm=ComponentSpec("dispersion_dynamic", {"faithful": True}),
                    seed=s[0],
                ),
                ("theorem4", "lemma8"),
            ),
            Cell(
                "local",
                RunSpec(
                    graph=_dense(128, s[1]),
                    placement=PlacementSpec(kind="rooted", k=96),
                    algorithm=ComponentSpec("dfs_dispersion_local"),
                    communication="local",
                    neighborhood_knowledge=False,
                    seed=s[1],
                    collect_records=False,
                ),
                (),
            ),
            Cell(
                "ssync",
                RunSpec(
                    graph=churn,
                    placement=rooted,
                    scheduler=ComponentSpec(
                        "ssync", {"policy": "random_subset", "p": 0.6, "seed": s[2]}
                    ),
                    seed=s[2],
                    max_rounds=SCHEDULER_STEPS,
                    collect_records=False,
                ),
                ("lemma8",),
            ),
            Cell(
                "async",
                RunSpec(
                    graph=churn,
                    placement=rooted,
                    scheduler=ComponentSpec(
                        "async", {"seed": s[3], "distribution": "uniform", "max_delay": 3}
                    ),
                    seed=s[3],
                    max_rounds=SCHEDULER_STEPS,
                    collect_records=False,
                ),
                ("lemma8",),
            ),
            Cell(
                "byzantine",
                RunSpec(
                    graph=churn,
                    placement=rooted,
                    byzantine={64: ComponentSpec("fake_multiplicity", {"seed": s[4]})},
                    seed=s[4],
                    max_rounds=200,
                    collect_records=False,
                ),
                (),
            ),
            Cell(f"crash f={crash.crash.f}", crash, ("disperses",)),
        ]


# ----------------------------------------------------------------------
# store-cycle
# ----------------------------------------------------------------------


@dataclass
class StoreInputs:
    specs: List[Any]
    results: List[Any]
    #: ``run_result_to_dict`` of each result, for the get check
    expected: List[Dict[str, Any]]
    root: pathlib.Path


def _counting_vfs(tracer: Tracer, layer: Dict[str, float]) -> Any:
    """A pass-through ``VirtualFS`` recording a span per op and bytes written.

    Bytes written are not an exact count: every entry carries its
    ``created_at`` wall-clock stamp, whose printed length varies.
    """
    from repro.sim.store import VirtualFS

    layer["store.bytes_written"] = 0

    class CountingVFS(VirtualFS):
        def write_bytes(self, path: pathlib.Path, data: bytes, *, writer: str = "") -> None:
            layer["store.bytes_written"] += len(data)
            super().write_bytes(path, data, writer=writer)

    vfs = CountingVFS()
    for op in VFS_OPS:
        tracer.patch(vfs, op, f"store.vfs.{op}")
    return vfs


class StoreCycle(Workload):
    def load(self) -> None:
        from repro.analysis import experiments  # noqa: F401
        from repro.sim import spec, store  # noqa: F401

        spec.registered_components()

    def prepare(self, seed: int, out_dir: pathlib.Path) -> StoreInputs:
        from repro.analysis.experiments import rounds_vs_k_specs
        from repro.sim.spec import ComponentSpec, execute
        from repro.sim.traceio import run_result_to_dict

        specs = [
            spec.with_(collect_records=True, backend=ComponentSpec("vectorized"))
            for spec in rounds_vs_k_specs(STORE_KS, seeds=_seeds(self.name, seed, STORE_SEEDS))
        ]
        results = [execute(spec) for spec in specs]
        return StoreInputs(
            specs, results, [run_result_to_dict(r) for r in results], out_dir / f"store-{os.getpid()}"
        )

    def repeat(self, inputs: StoreInputs, tracer: Optional[Tracer]) -> Repeat:
        from repro.sim.store import RunStore
        from repro.sim.traceio import run_result_to_dict

        rep = Repeat()
        vfs = _counting_vfs(tracer, rep.layer) if tracer is not None else None
        shutil.rmtree(inputs.root, ignore_errors=True)
        writers = []
        got: List[Any] = []
        for mode in ("fast", "strict"):
            store = RunStore(inputs.root / mode, durability=mode, vfs=vfs)
            writers.append(store)
            for index, (spec, result) in enumerate(zip(inputs.specs, inputs.results)):
                began = time.perf_counter()
                try:
                    with _traced(tracer, f"store.put.{mode}", f"put/{mode}"):
                        store.put(spec, result)
                except Exception as error:  # a failed put is counted, not fatal
                    rep.failures[f"put/{mode}/{index}"] = f"raised {error!r}"
                rep.add(time.perf_counter() - began, sample=f"put_ms.{mode}")
        reader = RunStore(inputs.root / "strict", vfs=vfs)
        for spec in inputs.specs:
            began = time.perf_counter()
            with _traced(tracer, "store.get", "get"):
                got.append(reader.get(spec))
            rep.add(time.perf_counter() - began, sample="get_ms")
        shutil.rmtree(inputs.root, ignore_errors=True)

        rep.ops = 3 * len(inputs.specs)
        for index, (result, expected) in enumerate(zip(got, inputs.expected)):
            if result is None:
                rep.failures[f"get/{index}"] = "miss"
            elif run_result_to_dict(result) != expected:
                rep.failures[f"get/{index}"] = "run_result_to_dict differs from what was put"
        rep.counts = {
            "store.writes": sum(store.writes for store in writers),
            "store.hits": reader.hits,
            "store.misses": reader.misses,
        }
        return rep


# ----------------------------------------------------------------------
# lint-all
# ----------------------------------------------------------------------


class LintAll(Workload):
    """The whole lint suite over ``src``; the tree itself is the input, so
    the seed does not change it."""

    def load(self) -> None:
        from repro.lint import cli  # noqa: F401
        from repro.lint.deep import analysis  # noqa: F401

    def prepare(self, seed: int, out_dir: pathlib.Path) -> List[str]:
        return list(LINT_ARGV)

    def repeat(self, argv: List[str], tracer: Optional[Tracer]) -> Repeat:
        from repro.lint.cli import main

        rep = Repeat(ops=1)
        output = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            with _traced(tracer, "lint.main", "lint"):
                code = main(list(argv))
        rep.add(time.perf_counter() - began)
        if code != 0:
            rep.failures["lint"] = f"exit {code}: {output.getvalue()[-400:]}"
        rep.counts = {"lint.exit_code": code}
        return rep


WORKLOADS: Dict[str, Any] = {
    "static-dense": StaticDense("static-dense"),
    "churn-sweep": ChurnSweep("churn-sweep"),
    "model-variants": ModelVariants("model-variants"),
    "store-cycle": StoreCycle("store-cycle"),
    "lint-all": LintAll("lint-all"),
}
