"""Runner-layer fault injection: a pool that sabotages its own units.

:class:`ChaosPoolRunner` extends
:class:`~repro.sim.runner.ProcessPoolRunner` two ways at once:

* **injection** -- it dispatches :func:`_chaos_run_unit` instead of the
  plain unit task.  The shim consults the plan payload shipped with each
  unit: a targeted unit first claims its fault budget (an on-disk
  counter that survives the worker's death) and then crashes, hangs or
  raises; a targeted spec executes under a
  :class:`~repro.chaos.engine_faults.PhaseFaultObserver` so the fault
  originates inside the engine's phase loop.
* **observation** -- it installs a
  :data:`~repro.sim.runner.FailureHook` that turns every fault event the
  base class tolerates into a structured
  :class:`~repro.chaos.failures.FailureRecord`.  Crash events are
  attributed only to plan-targeted units: a pool break takes innocent
  in-flight futures down with it nondeterministically, and recording
  that collateral would make the failure stream timing-dependent.

Runner and engine faults both name a spec by its *global* index, counted
across every ``run()`` call the instance serves, so a plan ("crash
spec 9") keeps meaning the same work however the caller batches its
grids.  A runner fault fires on whichever unit contains its spec, and
the failure stream records a unit as the global index of its first
targeted spec -- so the same plan produces the same stream under any
``chunksize``.
"""

from __future__ import annotations

import os
import pathlib
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.chaos.engine_faults import PhaseFaultObserver
from repro.chaos.failures import FailureRecord
from repro.chaos.injectors import (
    claim,
    hang,
    inject_latency,
    kill_current_process,
    raise_transient,
)
from repro.chaos.plan import FaultPlan
from repro.sim.metrics import RunResult
from repro.sim.runner import ProcessPoolRunner
from repro.sim.spec import RunSpec, build_engine, execute
from repro.sim.store import RunStore, execute_through_store


def _chaos_run_unit(
    specs: List[RunSpec],
    global_indices: List[int],
    store_root: Optional[str],
    store_salt: Optional[str],
    payload: Dict[str, Any],
    workdir: str,
) -> List[RunResult]:
    """Worker-side task: misbehave per the plan, then execute the unit.

    Module-level and pure of process state (fault budgets live in
    ``workdir``), hence picklable like the task it shadows.
    """
    for fault in payload["unit_faults"]:
        if claim(workdir, fault["key"], int(fault["times"])):
            kind = fault["kind"]
            if kind == "crash":
                kill_current_process()
            elif kind == "hang":
                hang(float(fault["seconds"]))
            elif kind == "slow":
                # Latency only: the unit proceeds to execute normally
                # below, and its results must be bit-identical.
                inject_latency(float(fault["seconds"]))
            else:
                raise_transient(
                    f"injected transient failure ({fault['key']})"
                )
    engine_faults = {
        int(index): fault
        for index, fault in payload["engine_faults"].items()
    }
    results: List[RunResult] = []
    for spec, global_index in zip(specs, global_indices):
        fault = engine_faults.get(global_index)
        if fault is not None and claim(
            workdir, fault["key"], int(fault["times"])
        ):
            observer = PhaseFaultObserver(
                fault["phase"],
                int(fault["round_index"]),
                detail=(
                    f"injected engine fault at {fault['phase']} "
                    f"({fault['key']})"
                ),
            )
            # The observer raises out of the phase loop; if the run ends
            # before the phase ever fires, the claim is spent and the
            # spec falls through to a clean execution below.
            build_engine(spec, observers=[observer]).run()
        if store_root is None:
            results.append(execute(spec))
        else:
            results.append(
                execute_through_store(spec, store_root, store_salt or "")
            )
    return results


class ChaosPoolRunner(ProcessPoolRunner):
    """A :class:`ProcessPoolRunner` that injects a plan's runner faults.

    ``workdir`` holds the plan's fault-budget counters; use a fresh
    directory per replay, or firings from an earlier replay leak into
    the next.  The retry/restart budgets default high enough to absorb
    every fault the plan declares (each fault costs at most ``times``
    attempts or restarts), so a well-formed plan can never exhaust them.
    """

    name = "chaos_pool"

    def __init__(
        self,
        plan: FaultPlan,
        workdir: Union[str, os.PathLike],
        *,
        max_workers: int = 2,
        chunksize: int = 1,
        timeout: float = 5.0,
        retries: Optional[int] = None,
        retry_backoff: float = 0.01,
        max_restarts: Optional[int] = None,
        store: Optional[RunStore] = None,
    ) -> None:
        fault_attempts = sum(
            fault.times for fault in plan.runner if fault.kind == "transient"
        )
        fault_attempts += sum(fault.times for fault in plan.engine)
        fault_attempts += sum(
            fault.times for fault in plan.runner if fault.kind == "hang"
        )
        breakages = sum(
            fault.times
            for fault in plan.runner
            if fault.kind in ("crash", "hang")
        )
        if retries is None:
            retries = max(3, fault_attempts + 1)
        if max_restarts is None:
            max_restarts = breakages + 3
        super().__init__(
            max_workers,
            chunksize=chunksize,
            timeout=timeout,
            retries=retries,
            retry_backoff=retry_backoff,
            max_restarts=max_restarts,
            store=store,
            failure_hook=self._on_fault_event,
        )
        self.plan = plan
        self.workdir = pathlib.Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.failures: List[FailureRecord] = []
        self._spec_base = 0
        self._run_spec_base = 0
        self._crash_specs = {
            fault.spec_index for fault in plan.runner if fault.kind == "crash"
        }
        self._runner_faults: Dict[int, List[Dict[str, Any]]] = {}
        for index, fault in enumerate(plan.runner):
            self._runner_faults.setdefault(fault.spec_index, []).append(
                {
                    "key": f"runner-{index}",
                    "kind": fault.kind,
                    "times": fault.times,
                    "seconds": fault.seconds,
                }
            )
        self._engine_faults: Dict[int, Dict[str, Any]] = {}
        for index, fault in enumerate(plan.engine):
            self._engine_faults[fault.spec_index] = {
                "key": f"engine-{index}",
                "phase": fault.phase,
                "round_index": fault.round_index,
                "times": fault.times,
            }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute specs, advancing the global spec counter."""
        self._run_spec_base = self._spec_base
        self._spec_base += len(specs)
        return super().run(specs)

    def _global_indices(self, unit: List[int]) -> List[int]:
        return [self._run_spec_base + index for index in unit]

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        specs: Sequence[RunSpec],
        unit: List[int],
    ) -> Future:
        global_indices = self._global_indices(unit)
        payload: Dict[str, Any] = {
            "unit_faults": [
                fault
                for index in global_indices
                for fault in self._runner_faults.get(index, [])
            ],
            "engine_faults": {
                str(index): self._engine_faults[index]
                for index in global_indices
                if index in self._engine_faults
            },
        }
        store_root = str(self.store.root) if self.store is not None else None
        store_salt = self.store.salt if self.store is not None else None
        return pool.submit(
            _chaos_run_unit,
            [specs[i] for i in unit],
            global_indices,
            store_root,
            store_salt,
            payload,
            str(self.workdir),
        )

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def _on_fault_event(
        self, kind: str, unit: List[int], attempt: int, detail: str
    ) -> None:
        global_indices = self._global_indices(unit)
        # The first targeted spec's global index is the canonical unit:
        # it names the same work under any chunksize, where the physical
        # unit number does not.
        canonical = next(
            (
                index
                for index in global_indices
                if index in self._runner_faults or index in self._engine_faults
            ),
            global_indices[0],
        )
        if kind == "timeout":
            record_kind = "timeout"
        elif kind == "exception":
            if "ChaosEngineFault" in detail:
                record_kind = "engine"
            else:
                record_kind = "transient"
        else:  # crash
            if self._crash_specs.isdisjoint(global_indices):
                # Collateral: a break takes innocent in-flight futures
                # down nondeterministically; only targeted units are
                # part of the canonical failure stream.
                return
            record_kind = "crash"
        self.failures.append(
            FailureRecord(
                unit=canonical,
                attempt=attempt,
                kind=record_kind,
                detail=detail,
            )
        )

    @property
    def failure_records(self) -> List[FailureRecord]:
        """The tolerated-fault records, in canonical order."""
        return sorted(self.failures)
