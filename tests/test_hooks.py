"""The engine's phase-instrumentation hook layer."""

import io

import pytest

from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import RandomChurnDynamicGraph
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.hooks import (
    EngineObserver,
    LiveInvariantChecker,
    PhaseTimer,
    ProgressNarrator,
    TraceCollector,
)
from repro.sim.traceio import run_result_to_dict


def _engine(observers=None, **kwargs):
    return SimulationEngine(
        RandomChurnDynamicGraph(12, extra_edges=6, seed=4),
        RobotSet.rooted(8, 12),
        DispersionDynamic(),
        observers=observers,
        **kwargs,
    )


class _PhaseLog(EngineObserver):
    """Records every hook invocation in order."""

    def __init__(self):
        self.calls = []

    def on_run_start(self, k, n):
        self.calls.append(("run_start", k, n))

    def on_round_start(self, round_index, snapshot):
        self.calls.append(("round_start", round_index))

    def on_communicate(self, round_index, observations):
        self.calls.append(("communicate", round_index, len(observations)))

    def on_compute(self, round_index, decisions):
        self.calls.append(("compute", round_index, len(decisions)))

    def on_move(self, round_index, moved, positions):
        self.calls.append(("move", round_index, moved, dict(positions)))

    def on_round_end(self, record):
        self.calls.append(("round_end", record.round_index))

    def on_run_end(self, result):
        self.calls.append(("run_end", result.rounds))


class TestHookSequence:
    def test_phases_fire_in_ccm_order(self):
        log = _PhaseLog()
        result = _engine(observers=[log]).run()
        assert log.calls[0] == ("run_start", 8, 12)
        assert log.calls[-1] == ("run_end", result.rounds)
        # Every executed round fires start->communicate->compute->move->end.
        for r in range(result.rounds):
            kinds = [c[0] for c in log.calls if len(c) > 1 and c[1] == r]
            assert kinds == [
                "round_start", "communicate", "compute", "move", "round_end",
            ]
        # The termination-detection round stops after Communicate.
        final = [
            c[0]
            for c in log.calls
            if c[0] not in ("run_start", "run_end") and c[1] == result.rounds
        ]
        assert final == ["round_start", "communicate"]

    def test_observers_do_not_change_the_run(self):
        baseline = _engine().run()
        observed = _engine(
            observers=[_PhaseLog(), PhaseTimer(), LiveInvariantChecker()]
        ).run()
        assert run_result_to_dict(baseline) == run_result_to_dict(observed)

    def test_move_hook_sees_post_move_positions(self):
        log = _PhaseLog()
        result = _engine(observers=[log]).run()
        last_move = [c for c in log.calls if c[0] == "move"][-1]
        assert last_move[3] == dict(result.final_positions)


class TestLegacyRoundObserversRemoved:
    """``round_observers=`` (deprecated since the hook layer landed) is
    gone; :class:`~repro.sim.hooks.CallbackObserver` is the migration."""

    def test_round_observers_parameter_is_removed(self):
        with pytest.raises(TypeError, match="round_observers"):
            _engine(round_observers=[lambda rec: None])

    def test_callback_observer_is_the_replacement(self):
        from repro.sim.hooks import CallbackObserver

        seen = []
        result = _engine(observers=[CallbackObserver(seen.append)]).run()
        assert [r.round_index for r in seen] == list(range(result.rounds))
        assert [run_result_to_dict_record(r) for r in seen] == [
            run_result_to_dict_record(r) for r in result.records
        ]

    def test_hook_observers_do_not_warn(self):
        """The replacement API (observers=) builds without a warning."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _engine(observers=[TraceCollector()])


def run_result_to_dict_record(record):
    """Stable comparison key for a RoundRecord."""
    return (record.round_index, record.num_moves, sorted(record.occupied_after))


class TestTraceCollector:
    def test_collects_same_records_as_engine(self):
        collector = TraceCollector()
        result = _engine(observers=[collector]).run()
        assert collector.records == result.records

    def test_collect_records_false_still_feeds_observers(self):
        collector = TraceCollector()
        result = _engine(observers=[collector], collect_records=False).run()
        assert result.records == []
        assert len(collector.records) == result.rounds

    def test_reused_collector_resets_between_runs(self):
        collector = TraceCollector()
        _engine(observers=[collector]).run()
        result = _engine(observers=[collector]).run()
        assert len(collector.records) == result.rounds


class TestProvidedObservers:
    def test_progress_narrator_matches_cli_live_format(self):
        stream = io.StringIO()
        result = _engine(observers=[ProgressNarrator(stream)]).run()
        lines = stream.getvalue().splitlines()
        assert len(lines) == result.rounds
        assert lines[0].startswith("round   0: occupied ")
        assert ", moves " in lines[0]

    def test_phase_timer_accounts_every_phase(self):
        timer = PhaseTimer()
        result = _engine(observers=[timer]).run()
        assert timer.rounds == result.rounds
        assert set(timer.totals) == {
            "adversary", "communicate", "compute", "move", "bookkeeping",
        }
        assert timer.total_seconds > 0
        assert all(t >= 0 for t in timer.totals.values())
        assert str(timer.rounds) in timer.summary()

    def test_live_invariant_checker_clean_on_canonical_run(self):
        checker = LiveInvariantChecker()
        _engine(observers=[checker], collect_records=False).run()
        assert checker.clean
        assert checker.violations == []

    def test_live_invariant_checker_flags_violations(self):
        from types import SimpleNamespace

        checker = LiveInvariantChecker()
        checker.on_round_end(
            SimpleNamespace(
                round_index=0,
                positions_before={1: 0, 2: 0, 3: 1},
                positions_after={1: 0, 2: 0, 3: 0},
                crashed_after_compute=(),
                occupied_before=frozenset({0, 1}),
                occupied_after=frozenset({0}),
            )
        )
        assert not checker.clean
        assert len(checker.violations) == 2  # vacated node + no progress


class TestSpecObserverIntegration:
    def test_build_engine_accepts_observers(self):
        from repro.sim.spec import build_engine, make_spec

        spec = make_spec(
            "random_churn", {"n": 12, "extra_edges": 6, "seed": 4},
            k=8, max_rounds=96,
        )
        timer = PhaseTimer()
        result = build_engine(spec, observers=[timer]).run()
        assert timer.rounds == result.rounds


@pytest.mark.parametrize("collect_records", [True, False])
def test_golden_equivalence_across_record_modes(collect_records):
    """The observer refactor must not shift any headline metric."""
    result = _engine(collect_records=collect_records).run()
    assert result.dispersed
    assert result.rounds <= 7  # k-1 bound for k=8
