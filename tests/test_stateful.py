"""Stateful property-based testing: a hypothesis rule machine drives whole
runs with randomly composed instances, dynamics, crash schedules, and
activation schedules, then verifies every applicable invariant.

This complements the per-module property tests: here hypothesis explores
the *composition space* (which dynamics with which faults under which
schedule), hunting for interactions the hand-written tests did not think
of.
"""

import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import (
    RandomChurnDynamicGraph,
    StaticDynamicGraph,
    TIntervalChurnDynamicGraph,
)
from repro.graph.generators import random_connected_graph
from repro.graph.rings import RingDynamicGraph
from repro.robots.faults import CrashSchedule
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.invariants import verify_run
from repro.sim.metrics import TerminationReason
from repro.sim.scheduling import RandomSubsetActivation, SsyncScheduler


class DispersionRunMachine(RuleBasedStateMachine):
    """Compose an instance piece by piece, then run and verify it."""

    def __init__(self):
        super().__init__()
        self.seed = 0
        self.n = 10
        self.k = 6
        self.dynamics_builder = None
        self.crash_schedule = CrashSchedule.none()
        self.activation = None
        self.results = []

    @initialize(
        seed=st.integers(min_value=0, max_value=999),
        n=st.integers(min_value=4, max_value=22),
        k_fraction=st.floats(min_value=0.3, max_value=1.0),
    )
    def setup(self, seed, n, k_fraction):
        """Pick the instance size."""
        self.seed = seed
        self.n = n
        self.k = max(2, min(n, int(n * k_fraction)))

    @rule(extra=st.integers(min_value=0, max_value=20))
    def use_churn(self, extra):
        """Select random-churn dynamics."""
        self.dynamics_builder = lambda: RandomChurnDynamicGraph(
            self.n, extra_edges=extra, seed=self.seed
        )

    @rule(interval=st.integers(min_value=1, max_value=4))
    def use_t_interval(self, interval):
        """Select T-interval churn dynamics."""
        self.dynamics_builder = lambda: TIntervalChurnDynamicGraph(
            self.n, interval=interval, extra_edges=3, seed=self.seed
        )

    @rule()
    def use_static(self):
        """Select a static random graph."""
        rng = random.Random(self.seed)
        snapshot = random_connected_graph(self.n, self.n, rng)
        self.dynamics_builder = lambda: StaticDynamicGraph(snapshot)

    @rule(probability=st.floats(min_value=0.0, max_value=1.0))
    def use_ring(self, probability):
        """Select a randomly-faulting dynamic ring (needs n >= 3)."""
        if self.n >= 3:
            self.dynamics_builder = lambda: RingDynamicGraph(
                self.n,
                mode="random",
                removal_probability=probability,
                seed=self.seed,
            )

    @rule(f_fraction=st.floats(min_value=0.0, max_value=0.8))
    def add_crashes(self, f_fraction):
        """Attach a random crash schedule."""
        f = int(self.k * f_fraction)
        rng = random.Random(self.seed + 1)
        self.crash_schedule = CrashSchedule.random_schedule(
            self.k, f, max(1, self.k), rng
        )

    @rule()
    def run_instance(self):
        """Run the composed instance and verify every invariant."""
        if self.dynamics_builder is None:
            return
        engine = SimulationEngine(
            self.dynamics_builder(),
            RobotSet.rooted(self.k, self.n),
            DispersionDynamic(),
            crash_schedule=self.crash_schedule,
            collect_snapshots=True,
            max_rounds=8 * self.k + 50,
        )
        result = engine.run()
        self.results.append(result)

        # Model invariants always hold.
        assert verify_run(result, expect_paper_invariants=False) == []

        if result.reason is TerminationReason.ALL_CRASHED:
            assert result.alive_count == 0
            return

        # Synchronous runs (faulty or not) must disperse the survivors.
        assert result.dispersed, result.summary()
        survivors = result.final_positions
        assert len(set(survivors.values())) == len(survivors)

        # Synchronous runs keep the paper invariants, crashes or not.
        assert verify_run(result) == []
        if not result.crashed_robots:
            assert result.rounds <= result.k - result.initial_occupied

    @rule(p=st.floats(min_value=0.5, max_value=0.95))
    def run_semisync_instance(self, p):
        """A semi-synchronous run: model invariants only, generous cap."""
        if self.dynamics_builder is None:
            return
        engine = SimulationEngine(
            self.dynamics_builder(),
            RobotSet.rooted(self.k, self.n),
            DispersionDynamic(),
            scheduler=SsyncScheduler(
                RandomSubsetActivation(p, seed=self.seed)
            ),
            collect_snapshots=True,
            max_rounds=6000,
        )
        result = engine.run()
        assert verify_run(result, expect_paper_invariants=False) == []
        assert result.dispersed, result.summary()

    @invariant()
    def all_past_results_stay_consistent(self):
        """Recorded results never contradict their own bookkeeping."""
        for result in self.results:
            assert result.rounds == len(result.records)
            assert result.alive_count + len(result.crashed_robots) == result.k


DispersionRunMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestDispersionRuns = DispersionRunMachine.TestCase
