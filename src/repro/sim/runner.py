"""Pluggable execution backends for grids of :class:`RunSpec`.

A :class:`Runner` turns a sequence of specs into the matching sequence of
:class:`~repro.sim.metrics.RunResult` s.  Two backends ship:

* :class:`SerialRunner` -- runs specs one after another in-process.  The
  reference backend: zero overhead, exact legacy behavior.
* :class:`ProcessPoolRunner` -- fans specs out across a
  ``concurrent.futures.ProcessPoolExecutor``.  Because specs are pure
  data and :func:`repro.sim.spec.execute` is a module-level function of
  the spec alone, every worker reconstructs its runs independently and
  the results are **bit-identical** to the serial backend (the
  equivalence is pinned by ``tests/test_runner.py``).

The pool backend is fault-tolerant.  Each dispatched work unit carries a
bounded retry budget with exponential backoff (``retries`` /
``retry_backoff``), an optional per-unit wall-clock ``timeout``, and the
pool itself survives worker loss: when a worker dies (killed, OOMed, or
wedged past its timeout) the pool is rebuilt -- up to ``max_restarts``
times per :meth:`~ProcessPoolRunner.run` call -- and every unfinished
unit is re-dispatched, never silently dropped.  A unit that exhausts its
budget raises :class:`RunnerError` naming the offending specs.  Pools
constructed with ``store=`` route execution through
:func:`repro.sim.store.execute_through_store`, so workers share one
content-addressed cache and a re-dispatched unit recomputes only the
specs that had not been stored before the fault.

Both backends return results **in spec order**, regardless of completion
order, so downstream analysis can zip specs with results.

:func:`runner_from_jobs` maps a CLI-style ``--jobs N`` value onto a
backend (``N <= 1`` -> serial), which is how ``repro-dispersion
sweep/faults/campaign --jobs`` and the ``REPRO_JOBS`` environment knob
for benchmarks are implemented; its ``store=`` argument layers a
:class:`~repro.sim.store.CachingRunner` on top.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from repro.sim.metrics import RunResult
from repro.sim.spec import RunSpec, execute

if TYPE_CHECKING:  # pragma: no cover - circular-import guard (annotations)
    from repro.sim.store import RunStore

#: Signature of :class:`ProcessPoolRunner`'s optional fault-event hook:
#: ``hook(kind, spec_indices, attempt, detail)`` where ``kind`` is one of
#: ``"timeout"`` (a unit exceeded its wall-clock budget), ``"crash"`` (a
#: worker process was lost and broke the pool) or ``"exception"`` (the
#: dispatched task raised).  ``spec_indices`` are the unit's positions in
#: the current :meth:`~ProcessPoolRunner.run` call's spec sequence and
#: ``attempt`` is how many times the unit has been charged so far.  The
#: hook observes; recovery (retry, pool rebuild, re-dispatch) proceeds
#: exactly as without one.  This is what :mod:`repro.chaos` builds its
#: structured ``FailureRecord`` stream on.
FailureHook = Callable[[str, List[int], int, str], None]


class RunnerError(RuntimeError):
    """A spec grid could not be executed within the fault budget."""


class Runner:
    """Abstract execution backend for a sequence of :class:`RunSpec`."""

    #: Human-readable backend name (used in reports and ``--json`` output).
    name: str = "abstract"

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; results are returned in spec order."""
        raise NotImplementedError

    def map(self, specs: Iterable[RunSpec]) -> List[RunResult]:
        """Alias of :meth:`run` accepting any iterable of specs."""
        return self.run(list(specs))

    def close(self) -> None:
        """Release backend resources (no-op for stateless backends)."""

    def __enter__(self) -> "Runner":
        """Context-manager entry: the runner itself."""
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        """Context-manager exit: close the backend."""
        self.close()


class SerialRunner(Runner):
    """Runs every spec sequentially in the current process."""

    name = "serial"

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute specs one by one, in order."""
        return [execute(spec) for spec in specs]


def _run_unit(
    specs: List[RunSpec],
    store_root: Optional[str],
    store_salt: Optional[str],
    store_durability: str,
) -> List[RunResult]:
    """Worker-side task: execute one dispatched chunk of specs.

    Module-level and pure, hence picklable.  With a store configured the
    worker itself checks the cache and writes results through (at the
    parent store's durability mode), so a unit re-dispatched after a
    worker loss recomputes only what the lost worker had not yet
    persisted.
    """
    if store_root is None:
        return [execute(spec) for spec in specs]
    from repro.sim.store import execute_through_store

    return [
        execute_through_store(
            spec, store_root, store_salt or "", durability=store_durability
        )
        for spec in specs
    ]


class ProcessPoolRunner(Runner):
    """Fans specs out across worker processes, tolerating faults.

    ``max_workers=None`` uses ``os.cpu_count()``.  Workers are spawned
    lazily on first :meth:`run` and reused across calls; call
    :meth:`close` (or use the runner as a context manager) to shut the
    pool down.

    ``chunksize`` batches specs per dispatched work unit -- raise it for
    grids of many very short runs.  ``timeout`` bounds each unit's
    wall-clock seconds (measured from when a worker picks it up);
    ``retries`` re-dispatches a failed or timed-out unit up to that many
    extra times, sleeping ``retry_backoff * 2**attempt`` seconds between
    tries.  A worker loss breaks the whole executor; the runner rebuilds
    it (at most ``max_restarts`` times per call) and re-dispatches every
    unfinished unit.  ``store`` (a :class:`~repro.sim.store.RunStore`)
    makes workers execute through the shared content-addressed cache.
    ``failure_hook`` (a :data:`FailureHook`) observes every fault event
    -- timeout, worker loss, task exception -- as it is handled; it never
    changes recovery behavior.
    """

    name = "process_pool"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        chunksize: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.05,
        max_restarts: int = 3,
        store: Optional["RunStore"] = None,
        failure_hook: Optional[FailureHook] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.max_workers = max_workers
        self.chunksize = chunksize
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.max_restarts = max_restarts
        self.store = store
        self.failure_hook = failure_hook
        self._pool: Optional[ProcessPoolExecutor] = None

    def _notify_failure(
        self, kind: str, unit: List[int], attempt: int, detail: str
    ) -> None:
        if self.failure_hook is not None:
            self.failure_hook(kind, list(unit), attempt, detail)

    @property
    def effective_workers(self) -> int:
        """The worker count the pool will actually use."""
        if self.max_workers is not None:
            return self.max_workers
        return os.cpu_count() or 1

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Forcefully drop the pool (used on worker loss / timeout)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Terminate workers first: a wedged worker would otherwise make
        # the executor's shutdown join hang forever.
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Shut down the worker pool gracefully."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _submit(
        self, pool: ProcessPoolExecutor, specs: Sequence[RunSpec], unit: List[int]
    ) -> Future:
        store_root = str(self.store.root) if self.store is not None else None
        store_salt = self.store.salt if self.store is not None else None
        durability = (
            self.store.durability if self.store is not None else "fast"
        )
        return pool.submit(
            _run_unit,
            [specs[i] for i in unit],
            store_root,
            store_salt,
            durability,
        )

    @staticmethod
    def _unit_label(specs: Sequence[RunSpec], unit: List[int]) -> str:
        labels = [specs[i].label or f"spec#{i}" for i in unit]
        return ", ".join(labels)

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute specs across the pool; results come back in spec order.

        Work units (chunks of ``chunksize`` specs) are dispatched
        concurrently; completed units are harvested as they finish and
        faults are handled per the class docstring.
        """
        if not specs:
            return []
        units = [
            list(range(start, min(start + self.chunksize, len(specs))))
            for start in range(0, len(specs), self.chunksize)
        ]
        results: Dict[int, RunResult] = {}
        attempts = [0] * len(units)
        pending = list(range(len(units)))
        restarts = 0

        while pending:
            pool = self._ensure_pool()
            futures: Dict[Future, int] = {}
            deadlines: Dict[Future, float] = {}
            for unit_index in pending:
                futures[self._submit(pool, specs, units[unit_index])] = (
                    unit_index
                )
            pending = []
            broken = False

            while futures and not broken:
                poll = 0.05 if self.timeout is not None else None
                done, _ = wait(
                    set(futures), timeout=poll, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()

                if self.timeout is not None:
                    # The per-unit clock starts when a worker picks the
                    # unit up, not at submission: queued units are not
                    # charged for their predecessors' runtime.
                    for future in futures:
                        if future not in deadlines and future.running():
                            deadlines[future] = now + self.timeout
                    expired = [
                        future
                        for future, deadline in deadlines.items()
                        if now >= deadline and not future.done()
                    ]
                    for future in expired:
                        unit_index = futures.pop(future)
                        deadlines.pop(future, None)
                        attempts[unit_index] += 1
                        self._notify_failure(
                            "timeout",
                            units[unit_index],
                            attempts[unit_index],
                            f"unit exceeded the {self.timeout}s timeout",
                        )
                        if attempts[unit_index] > self.retries:
                            self._discard_pool()
                            raise RunnerError(
                                f"unit [{self._unit_label(specs, units[unit_index])}] "
                                f"exceeded the {self.timeout}s timeout on "
                                f"{attempts[unit_index]} attempt(s)"
                            )
                        pending.append(unit_index)
                    if expired:
                        # A wedged worker cannot be reclaimed through the
                        # executor API; rebuild the pool.
                        broken = True

                for future in done:
                    unit_index = futures.pop(future, None)
                    if unit_index is None:
                        continue
                    deadlines.pop(future, None)
                    error = future.exception()
                    if error is None:
                        for offset, result in zip(
                            units[unit_index], future.result()
                        ):
                            results[offset] = result
                        continue
                    if isinstance(error, BrokenExecutor):
                        # A worker died; which unit killed it is unknown,
                        # so re-dispatch without charging the budget.
                        self._notify_failure(
                            "crash",
                            units[unit_index],
                            attempts[unit_index],
                            "worker process lost (pool broken)",
                        )
                        pending.append(unit_index)
                        broken = True
                        continue
                    attempts[unit_index] += 1
                    self._notify_failure(
                        "exception",
                        units[unit_index],
                        attempts[unit_index],
                        repr(error),
                    )
                    if attempts[unit_index] > self.retries:
                        self._discard_pool()
                        raise RunnerError(
                            f"unit [{self._unit_label(specs, units[unit_index])}] "
                            f"failed after {attempts[unit_index]} attempt(s): "
                            f"{error!r}"
                        ) from error
                    if self.retry_backoff > 0:
                        time.sleep(
                            min(
                                self.retry_backoff
                                * 2 ** (attempts[unit_index] - 1),
                                2.0,
                            )
                        )
                    if broken:
                        pending.append(unit_index)
                        continue
                    try:
                        futures[self._submit(pool, specs, units[unit_index])] = (
                            unit_index
                        )
                    except BrokenExecutor:
                        pending.append(unit_index)
                        broken = True

            if broken:
                # Harvest whatever finished cleanly; everything else is
                # re-dispatched on the rebuilt pool.
                for future, unit_index in futures.items():
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        for offset, result in zip(
                            units[unit_index], future.result()
                        ):
                            results[offset] = result
                    else:
                        if (
                            future.done()
                            and not future.cancelled()
                            and future.exception() is not None
                        ):
                            # The break failed this future before the
                            # harvesting loop saw it; report it here so a
                            # lost unit is observed no matter which path
                            # collects it.  Re-dispatch stays uncharged.
                            error = future.exception()
                            if isinstance(error, BrokenExecutor):
                                self._notify_failure(
                                    "crash",
                                    units[unit_index],
                                    attempts[unit_index],
                                    "worker process lost (pool broken)",
                                )
                            else:
                                self._notify_failure(
                                    "exception",
                                    units[unit_index],
                                    attempts[unit_index],
                                    repr(error),
                                )
                        pending.append(unit_index)
                restarts += 1
                if restarts > self.max_restarts:
                    self._discard_pool()
                    raise RunnerError(
                        f"worker pool failed {restarts} times (limit "
                        f"{self.max_restarts}); giving up with "
                        f"{len(pending)} unit(s) unfinished"
                    )
                self._discard_pool()

        return [results[index] for index in range(len(specs))]


def runner_from_jobs(
    jobs: Optional[int],
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    store: Optional["RunStore"] = None,
) -> Runner:
    """Map a ``--jobs N`` value onto a backend.

    ``None``, ``0`` or ``1`` -> :class:`SerialRunner`; ``N >= 2`` ->
    :class:`ProcessPoolRunner` with ``N`` workers; ``-1`` -> a pool
    sized to the machine (``os.cpu_count()``).  ``timeout`` / ``retries``
    configure the pool's fault budget (ignored for serial execution,
    which has no worker to lose).  ``store`` wraps the backend in a
    :class:`~repro.sim.store.CachingRunner` over the given
    :class:`~repro.sim.store.RunStore` -- pool workers additionally
    write through it directly.
    """
    runner: Runner
    if jobs is None or jobs in (0, 1):
        runner = SerialRunner()
    elif jobs == -1:
        runner = ProcessPoolRunner(timeout=timeout, retries=retries, store=store)
    elif jobs < -1:
        raise ValueError(f"jobs must be >= -1, got {jobs}")
    else:
        runner = ProcessPoolRunner(
            max_workers=jobs, timeout=timeout, retries=retries, store=store
        )
    if store is not None:
        from repro.sim.store import CachingRunner

        runner = CachingRunner(runner, store)
    return runner
