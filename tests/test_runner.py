"""Runner backends: serial/pool equivalence and ordering guarantees."""

import pytest

from repro.analysis.experiments import faults_specs, rounds_vs_k_specs
from repro.sim.runner import (
    ProcessPoolRunner,
    Runner,
    SerialRunner,
    runner_from_jobs,
)
from repro.sim.spec import ComponentSpec, PlacementSpec, RunSpec
from repro.sim.traceio import run_result_to_dict


def _grid():
    # A structurally diverse grid: plain sweeps, crash schedules, and a
    # couple of distinct graph processes -- small enough to run in CI.
    specs = rounds_vs_k_specs([4, 8], seeds=(0, 1))
    specs += faults_specs(8, [0, 2], seeds=(0,))
    specs.append(
        RunSpec(
            graph=ComponentSpec("ring", {"n": 10, "mode": "random", "seed": 3}),
            placement=PlacementSpec(kind="rooted", k=6),
            max_rounds=80,
            label="ring random",
        )
    )
    return specs


class TestSerialRunner:
    def test_results_in_spec_order(self):
        specs = _grid()
        results = SerialRunner().run(specs)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert result.k == spec.placement.k

    def test_empty_grid(self):
        assert SerialRunner().run([]) == []


class TestProcessPoolRunner:
    def test_bit_identical_to_serial(self):
        specs = _grid()
        serial = SerialRunner().run(specs)
        with ProcessPoolRunner(max_workers=2) as pool:
            parallel = pool.run(specs)
        assert [run_result_to_dict(r) for r in serial] == [
            run_result_to_dict(r) for r in parallel
        ]

    def test_order_preserved_with_uneven_run_lengths(self):
        # First spec is much heavier than the rest: completion order
        # differs from submission order, results must not.
        specs = list(reversed(rounds_vs_k_specs([4, 8, 16, 32], seeds=(0,))))
        with ProcessPoolRunner(max_workers=2) as pool:
            results = pool.run(specs)
        assert [r.k for r in results] == [s.placement.k for s in specs]

    def test_pool_reuse_and_empty_grid(self):
        with ProcessPoolRunner(max_workers=2) as pool:
            assert pool.run([]) == []
            first = pool.run(_grid()[:2])
            second = pool.run(_grid()[:2])
        assert [run_result_to_dict(r) for r in first] == [
            run_result_to_dict(r) for r in second
        ]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ProcessPoolRunner(max_workers=0)
        with pytest.raises(ValueError):
            ProcessPoolRunner(chunksize=0)


class TestRunnerFromJobs:
    def test_mapping(self):
        assert isinstance(runner_from_jobs(None), SerialRunner)
        assert isinstance(runner_from_jobs(0), SerialRunner)
        assert isinstance(runner_from_jobs(1), SerialRunner)
        pool = runner_from_jobs(4)
        assert isinstance(pool, ProcessPoolRunner)
        assert pool.effective_workers == 4
        all_cores = runner_from_jobs(-1)
        assert isinstance(all_cores, ProcessPoolRunner)
        assert all_cores.max_workers is None
        with pytest.raises(ValueError):
            runner_from_jobs(-2)

    def test_runners_are_context_managers(self):
        with runner_from_jobs(None) as runner:
            assert isinstance(runner, Runner)

    def test_sweep_accepts_pool_runner(self):
        import repro

        specs = rounds_vs_k_specs([4, 8], seeds=(0, 1))
        serial = repro.sweep(specs)
        parallel = repro.sweep(specs, jobs=2)
        assert [run_result_to_dict(r) for r in serial] == [
            run_result_to_dict(r) for r in parallel
        ]


# ---------------------------------------------------------------------------
# Fault injection: components that misbehave exactly once, for the pool's
# recovery paths.  Registered at import time; worker processes are forked
# on Linux, so they inherit these registrations.
# ---------------------------------------------------------------------------

import os
import signal
import time

from repro.graph.dynamic import RandomChurnDynamicGraph
from repro.sim.runner import RunnerError
from repro.sim.spec import register_graph


def _churn(params, ctx):
    return RandomChurnDynamicGraph(
        params["n"], extra_edges=params.get("extra_edges", 4), seed=ctx.seed
    )


@register_graph("test_kill_once")
def _kill_once(params, ctx):
    """SIGKILL the hosting worker the first time this graph is built."""
    sentinel = params["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _churn(params, ctx)


@register_graph("test_fail_times")
def _fail_times(params, ctx):
    """Raise on the first ``failures`` builds, then behave normally."""
    marker = params["marker"]
    count = int(open(marker).read()) if os.path.exists(marker) else 0
    if count < params["failures"]:
        with open(marker, "w") as handle:
            handle.write(str(count + 1))
        raise RuntimeError(f"injected failure #{count + 1}")
    return _churn(params, ctx)


@register_graph("test_hang")
def _hang(params, ctx):
    time.sleep(params.get("seconds", 60.0))
    return _churn(params, ctx)


def _injection_spec(graph, params, *, label):
    return RunSpec(
        graph=ComponentSpec(graph, {"n": 10, "extra_edges": 4, **params}),
        placement=PlacementSpec(kind="rooted", k=6),
        seed=1,
        max_rounds=40,
        collect_records=False,
        label=label,
    )


class TestPoolFaultTolerance:
    def test_worker_kill_recovers_bit_identical(self, tmp_path):
        """A SIGKILLed worker's pending specs are re-dispatched, and the
        sweep still returns spec-ordered results identical to serial."""
        benign = rounds_vs_k_specs([4, 8], seeds=(0, 1))
        specs = list(benign)
        specs.insert(
            2,
            _injection_spec(
                "test_kill_once",
                {"sentinel": str(tmp_path / "killed")},
                label="killer",
            ),
        )
        with ProcessPoolRunner(max_workers=2) as pool:
            results = pool.run(specs)
        assert (tmp_path / "killed").exists()  # the kill really happened
        assert len(results) == len(specs)
        serial = SerialRunner().run(benign)
        survivors = [r for i, r in enumerate(results) if i != 2]
        for a, b in zip(survivors, serial):
            assert run_result_to_dict(a) == run_result_to_dict(b)

    def test_task_exception_retried_within_budget(self, tmp_path):
        spec = _injection_spec(
            "test_fail_times",
            {"marker": str(tmp_path / "marker"), "failures": 2},
            label="flaky",
        )
        with ProcessPoolRunner(
            max_workers=2, retries=2, retry_backoff=0.01
        ) as pool:
            (result,) = pool.run([spec])
        assert result.k == 6

    def test_task_exception_exhausts_retry_budget(self, tmp_path):
        spec = _injection_spec(
            "test_fail_times",
            {"marker": str(tmp_path / "marker"), "failures": 99},
            label="hopeless",
        )
        with ProcessPoolRunner(
            max_workers=2, retries=1, retry_backoff=0.01
        ) as pool:
            with pytest.raises(RunnerError, match="2 attempt"):
                pool.run([spec])

    def test_timeout_raises_runner_error(self):
        spec = _injection_spec(
            "test_hang", {"seconds": 30.0}, label="hang"
        )
        start = time.perf_counter()
        with ProcessPoolRunner(max_workers=2, timeout=0.5) as pool:
            with pytest.raises(RunnerError, match="timeout"):
                pool.run([spec])
        assert time.perf_counter() - start < 10.0

    def test_worker_kill_with_shared_store_leaves_no_torn_entries(
        self, tmp_path
    ):
        """SIGKILL a worker mid-sweep while every worker writes through a
        shared store: the sweep must converge bit-identically to serial
        and the store must verify clean -- no torn or corrupt entries
        from the killed worker."""
        from repro.sim.store import CachingRunner, RunStore

        benign = rounds_vs_k_specs([4, 8], seeds=(0, 1, 2))
        specs = list(benign)
        specs.insert(
            3,
            _injection_spec(
                "test_kill_once",
                {"sentinel": str(tmp_path / "killed3")},
                label="killer",
            ),
        )
        store = RunStore(tmp_path / "store")
        with ProcessPoolRunner(max_workers=2, store=store) as pool:
            results = CachingRunner(pool, store).run(specs)
        assert (tmp_path / "killed3").exists()
        assert len(results) == len(specs)
        serial = SerialRunner().run(benign)
        survivors = [r for i, r in enumerate(results) if i != 3]
        for a, b in zip(survivors, serial):
            assert run_result_to_dict(a) == run_result_to_dict(b)
        # Every entry the sweep left behind passes the integrity scan.
        fresh = RunStore(tmp_path / "store")
        report = fresh.verify()
        assert report.clean, report.corrupt
        assert report.checked >= len(specs)
        # A warm rerun of the benign grid is pure hits, still identical.
        warm = CachingRunner(SerialRunner(), fresh).run(benign)
        assert (fresh.corrupt, fresh.misses) == (0, 0)
        for a, b in zip(warm, serial):
            assert run_result_to_dict(a) == run_result_to_dict(b)

    def test_failure_hook_observes_fault_events(self, tmp_path):
        events = []

        def hook(kind, unit, attempt, detail):
            events.append((kind, list(unit), attempt, detail))

        spec = _injection_spec(
            "test_fail_times",
            {"marker": str(tmp_path / "marker"), "failures": 1},
            label="flaky",
        )
        with ProcessPoolRunner(
            max_workers=2, retries=2, retry_backoff=0.01, failure_hook=hook
        ) as pool:
            (result,) = pool.run([spec])
        assert result.k == 6  # recovery unchanged by the hook
        assert [(kind, unit) for kind, unit, _, _ in events] == [
            ("exception", [0])
        ]
        assert "injected failure #1" in events[0][3]

    def test_pool_usable_after_worker_loss(self, tmp_path):
        killer = _injection_spec(
            "test_kill_once",
            {"sentinel": str(tmp_path / "killed2")},
            label="killer",
        )
        benign = rounds_vs_k_specs([4], seeds=(0,))
        with ProcessPoolRunner(max_workers=2) as pool:
            pool.run([killer])
            results = pool.run(benign)  # the rebuilt pool still works
        serial = SerialRunner().run(benign)
        for a, b in zip(results, serial):
            assert run_result_to_dict(a) == run_result_to_dict(b)
