"""Tests for scheduler models, activation policies and their execution."""

import pytest

from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import RandomChurnDynamicGraph, StaticDynamicGraph
from repro.graph.generators import star_graph
from repro.robots.robot import RobotSet
from repro.sim.algorithm import Decision, RobotAlgorithm, STAY
from repro.sim.engine import SimulationEngine, SimulationError
from repro.sim.observation import CommunicationModel, Observation
from repro.sim.scheduling import (
    ActivationSchedule,
    AsyncScheduler,
    FsyncScheduler,
    FullActivation,
    RandomSubsetActivation,
    RoundRobinActivation,
    SsyncScheduler,
)
from repro.sim.spec import ComponentSpec, PlacementSpec, RunSpec, SpecError


class TestFullActivation:
    def test_everyone_every_round(self):
        schedule = FullActivation()
        assert schedule.active_robots(0, [1, 2, 3]) == {1, 2, 3}
        assert schedule.active_robots(99, [5]) == {5}
        assert schedule.is_synchronous


class TestRandomSubset:
    def test_probability_one_activates_all(self):
        schedule = RandomSubsetActivation(1.0, seed=1)
        assert schedule.active_robots(3, [1, 2, 3, 4]) == {1, 2, 3, 4}

    def test_subset_of_alive(self):
        schedule = RandomSubsetActivation(0.5, seed=2)
        for r in range(30):
            active = schedule.active_robots(r, [1, 2, 3, 4, 5, 6])
            assert active <= {1, 2, 3, 4, 5, 6}
            assert active  # never empty

    def test_deterministic(self):
        a = RandomSubsetActivation(0.5, seed=3)
        b = RandomSubsetActivation(0.5, seed=3)
        for r in range(10):
            assert a.active_robots(r, range(1, 9)) == b.active_robots(
                r, range(1, 9)
            )

    def test_activation_rate_near_p(self):
        schedule = RandomSubsetActivation(0.7, seed=4)
        alive = list(range(1, 21))
        total = sum(
            len(schedule.active_robots(r, alive)) for r in range(200)
        )
        rate = total / (200 * len(alive))
        assert 0.6 < rate < 0.8

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            RandomSubsetActivation(0.0)
        with pytest.raises(ValueError):
            RandomSubsetActivation(1.5)

    def test_not_synchronous(self):
        assert not RandomSubsetActivation(0.5).is_synchronous

    def test_p_property(self):
        assert RandomSubsetActivation(0.25).p == 0.25


class TestRoundRobin:
    def test_window_one_is_synchronous_behavior(self):
        schedule = RoundRobinActivation(1)
        assert schedule.active_robots(5, [1, 2, 3]) == {1, 2, 3}

    def test_phase_selection(self):
        schedule = RoundRobinActivation(3)
        # round 0: everyone (the periodic full round)
        assert schedule.active_robots(0, [1, 2, 3, 4, 5, 6]) == {
            1, 2, 3, 4, 5, 6,
        }
        # round 1: ids with id % 3 == 1
        assert schedule.active_robots(1, [1, 2, 3, 4, 5, 6]) == {1, 4}
        # round 2: ids with id % 3 == 2
        assert schedule.active_robots(2, [1, 2, 3, 4, 5, 6]) == {2, 5}

    def test_never_empty(self):
        schedule = RoundRobinActivation(5)
        # 5 and 10 are both 0 mod 5; phases 1..4 match nobody -> fallback
        assert schedule.active_robots(1, [5, 10]) == {5}
        assert schedule.active_robots(2, [5, 10]) == {5}
        # the periodic full round still activates everyone
        assert schedule.active_robots(5, [5, 10]) == {5, 10}

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RoundRobinActivation(0)

    def test_window_one_every_round(self):
        """window=1 degenerates to full activation at *every* round, not
        just the periodic full rounds."""
        schedule = RoundRobinActivation(1)
        for r in range(7):
            assert schedule.active_robots(r, [3, 9, 12]) == {3, 9, 12}
        assert not schedule.is_synchronous  # conservative default

    def test_empty_phase_falls_back_to_min(self):
        """A phase matching no alive robot activates the smallest alive
        robot instead of sleeping through the round."""
        schedule = RoundRobinActivation(4)
        # alive ids are all 0 mod 4; phases 1..3 match nobody
        assert schedule.active_robots(1, [8, 4, 12]) == {4}
        assert schedule.active_robots(2, [8, 4, 12]) == {4}
        assert schedule.active_robots(3, [8, 4, 12]) == {4}


class TestCoinGoldens:
    """Golden values pinning the derandomized activation coins.

    The sha256 streams behind RandomSubsetActivation are part of run
    semantics: any change to the hashing scheme silently changes every
    ssync run, so the exact values are pinned here (like test_golden.py
    pins whole runs).
    """

    def test_random_subset_coin_values(self):
        schedule = RandomSubsetActivation(0.5, seed=42)
        coins = [schedule._coin(0, robot) for robot in range(1, 5)]
        assert [round(c, 12) for c in coins] == [
            0.816529994585,
            0.139402297438,
            0.316938118307,
            0.700207072754,
        ]

    def test_random_subset_active_sets(self):
        schedule = RandomSubsetActivation(0.5, seed=42)
        assert [
            sorted(schedule.active_robots(r, range(1, 9))) for r in range(4)
        ] == [
            [2, 3, 5, 6, 8],
            [3, 4, 7, 8],
            [3, 4],
            [1, 3, 4, 5, 6],
        ]

    def test_async_event_stream(self):
        scheduler = AsyncScheduler(
            seed=7, distribution="uniform", max_delay=3
        )
        activations = [
            scheduler.next_activation(step, range(1, 7)) for step in range(6)
        ]
        assert [
            (a.epoch, sorted(a.active)) for a in activations
        ] == [
            (1, [6]),
            (2, [4, 5, 6]),
            (3, [1, 2, 3]),
            (4, [1, 2, 4, 5, 6]),
            (5, [3, 4, 5]),
            (6, [1, 2, 4]),
        ]


class RecordingAlgorithm(RobotAlgorithm):
    """Records which robots were asked to decide, per round."""

    name = "recording"
    requires_communication = CommunicationModel.LOCAL
    requires_neighborhood_knowledge = False

    def __init__(self):
        self.asked = {}

    def decide(self, observation: Observation) -> Decision:
        self.asked.setdefault(observation.round_index, set()).add(
            observation.robot_id
        )
        return STAY


class TestEngineIntegration:
    def test_only_active_robots_decide(self):
        algorithm = RecordingAlgorithm()
        schedule = RoundRobinActivation(3)
        SimulationEngine(
            StaticDynamicGraph(star_graph(8)),
            RobotSet.rooted(6, 8),
            algorithm,
            scheduler=SsyncScheduler(schedule),
            max_rounds=4,
        ).run()
        assert algorithm.asked[0] == {1, 2, 3, 4, 5, 6}
        assert algorithm.asked[1] == {1, 4}
        assert algorithm.asked[2] == {2, 5}
        assert algorithm.asked[3] == {1, 2, 3, 4, 5, 6}

    def test_default_is_full_activation(self):
        algorithm = RecordingAlgorithm()
        SimulationEngine(
            StaticDynamicGraph(star_graph(8)),
            RobotSet.rooted(6, 8),
            algorithm,
            max_rounds=2,
        ).run()
        assert algorithm.asked[0] == {1, 2, 3, 4, 5, 6}

    def test_bad_schedule_rejected(self):
        class Liar(ActivationSchedule):
            def active_robots(self, round_index, alive):
                return frozenset({999})

        with pytest.raises(SimulationError):
            SimulationEngine(
                StaticDynamicGraph(star_graph(8)),
                RobotSet.rooted(6, 8),
                RecordingAlgorithm(),
                scheduler=SsyncScheduler(Liar()),
                max_rounds=2,
            ).run()

    def test_empty_schedule_rejected(self):
        class Sleeper(ActivationSchedule):
            def active_robots(self, round_index, alive):
                return frozenset()

        with pytest.raises(SimulationError):
            SimulationEngine(
                StaticDynamicGraph(star_graph(8)),
                RobotSet.rooted(6, 8),
                RecordingAlgorithm(),
                scheduler=SsyncScheduler(Sleeper()),
                max_rounds=2,
            ).run()


class TestSemiSyncDispersion:
    """Paper §VIII future work: the algorithm under partial activation."""

    def test_full_probability_matches_synchronous(self):
        n, k, seed = 16, 12, 1

        def run(scheduler):
            dyn = RandomChurnDynamicGraph(n, extra_edges=6, seed=seed)
            return SimulationEngine(
                dyn,
                RobotSet.rooted(k, n),
                DispersionDynamic(),
                scheduler=scheduler,
            ).run()

        sync = run(None)
        pseudo = run(SsyncScheduler(RandomSubsetActivation(1.0, seed=0)))
        assert sync.rounds == pseudo.rounds
        assert sync.final_positions == pseudo.final_positions

    @pytest.mark.parametrize("p", [0.9, 0.7])
    def test_still_disperses_with_high_activation(self, p):
        """With random activation a fully-active round happens eventually,
        so dispersion is still reached (just without the k-round bound)."""
        n, k = 14, 8
        for seed in range(3):
            dyn = RandomChurnDynamicGraph(n, extra_edges=6, seed=seed)
            result = SimulationEngine(
                dyn,
                RobotSet.rooted(k, n),
                DispersionDynamic(),
                scheduler=SsyncScheduler(RandomSubsetActivation(p, seed=seed)),
                max_rounds=5000,
            ).run()
            assert result.dispersed, (p, seed)

class TestSchedulerModels:
    def test_fsync_everyone_every_step(self):
        scheduler = FsyncScheduler()
        assert scheduler.name == "fsync"
        assert scheduler.is_fully_synchronous
        for step in range(5):
            activation = scheduler.next_activation(step, [1, 2, 3])
            assert activation.epoch == step
            assert activation.active == {1, 2, 3}
            assert not activation.move_delays

    def test_ssync_wraps_policy(self):
        scheduler = SsyncScheduler(RoundRobinActivation(3))
        assert scheduler.name == "ssync"
        assert not scheduler.is_fully_synchronous
        assert scheduler.next_activation(1, [1, 2, 3, 4]).active == {1, 4}
        assert scheduler.next_activation(1, [1, 2, 3, 4]).epoch == 1

    def test_ssync_of_full_policy_is_fully_synchronous(self):
        assert SsyncScheduler(FullActivation()).is_fully_synchronous

    def test_async_epochs_strictly_increase(self):
        scheduler = AsyncScheduler(seed=3, max_delay=5)
        epochs = [
            scheduler.next_activation(step, range(1, 9)).epoch
            for step in range(30)
        ]
        assert all(b > a for a, b in zip(epochs, epochs[1:]))

    def test_async_active_subset_of_eligible(self):
        scheduler = AsyncScheduler(seed=3, max_delay=4)
        for step in range(30):
            activation = scheduler.next_activation(step, [2, 4, 6, 8])
            assert activation.active
            assert activation.active <= {2, 4, 6, 8}

    def test_async_deterministic(self):
        def stream(seed):
            scheduler = AsyncScheduler(seed=seed, max_delay=4)
            return [
                (a.epoch, tuple(sorted(a.active)))
                for a in (
                    scheduler.next_activation(s, range(1, 7))
                    for s in range(20)
                )
            ]

        assert stream(11) == stream(11)
        assert stream(11) != stream(12)

    def test_async_empty_eligible(self):
        scheduler = AsyncScheduler(seed=0)
        activation = scheduler.next_activation(0, [])
        assert activation.active == frozenset()

    def test_async_biased_laggards_slowest(self):
        scheduler = AsyncScheduler(
            seed=5, distribution="biased", max_delay=6, laggards=(1,)
        )
        first_seen = {}
        counts = {robot: 0 for robot in range(1, 5)}
        for step in range(60):
            activation = scheduler.next_activation(step, range(1, 5))
            for robot in activation.active:
                first_seen.setdefault(robot, activation.epoch)
                counts[robot] += 1
        # the laggard's first activation waits the full max_delay and it
        # is activated strictly less often than everyone else
        assert first_seen[1] == 6
        assert all(counts[1] < counts[r] for r in (2, 3, 4))

    def test_async_move_delays_bounded(self):
        scheduler = AsyncScheduler(seed=2, max_delay=3, move_max_delay=2)
        seen = set()
        for step in range(40):
            activation = scheduler.next_activation(step, range(1, 6))
            assert set(activation.move_delays) <= set(activation.active)
            seen.update(activation.move_delays.values())
        assert seen and seen <= {1, 2}

    def test_async_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AsyncScheduler(distribution="gaussian")
        with pytest.raises(ValueError):
            AsyncScheduler(max_delay=0)
        with pytest.raises(ValueError):
            AsyncScheduler(p=1.0)
        with pytest.raises(ValueError):
            AsyncScheduler(move_max_delay=-1)


class TestSchedulerCompatibility:
    """The fail-fast mismatch check mirroring the communication check."""

    class FsyncOnly(RobotAlgorithm):
        name = "fsync_only"
        requires_communication = CommunicationModel.LOCAL
        requires_neighborhood_knowledge = False
        compatible_schedulers = ("fsync",)

        def decide(self, observation: Observation) -> Decision:
            return STAY

    def _engine(self, **kwargs):
        return SimulationEngine(
            StaticDynamicGraph(star_graph(8)),
            RobotSet.rooted(6, 8),
            self.FsyncOnly(),
            max_rounds=2,
            **kwargs,
        )

    def test_incompatible_scheduler_rejected(self):
        with pytest.raises(ValueError, match="compatible schedulers"):
            self._engine(scheduler=AsyncScheduler(seed=0))

    def test_incompatible_activation_schedule_rejected(self):
        """An activation policy runs only inside the ssync scheduler,
        which an fsync-only algorithm rejects."""
        with pytest.raises(ValueError, match="compatible schedulers"):
            self._engine(
                scheduler=SsyncScheduler(RandomSubsetActivation(0.5, seed=0))
            )

    def test_mismatch_override(self):
        self._engine(
            scheduler=AsyncScheduler(seed=0), allow_model_mismatch=True
        ).run()

    def test_fsync_always_accepted(self):
        self._engine().run()
        self._engine(scheduler=FsyncScheduler()).run()

    def test_scheduler_and_activation_mutually_exclusive(self):
        """``scheduler=`` is the only way in: the engine takes no
        ``activation_schedule`` shorthand beside it."""
        with pytest.raises(TypeError, match="activation_schedule"):
            self._engine(
                scheduler=FsyncScheduler(),
                activation_schedule=FullActivation(),
            )

    def test_lower_bound_candidates_declare_fsync_only(self):
        from repro.baselines.global_candidates import GLOBAL_NO1NK_CANDIDATES
        from repro.baselines.local_candidates import LOCAL_CANDIDATES

        for cls in (*LOCAL_CANDIDATES, *GLOBAL_NO1NK_CANDIDATES):
            assert cls.compatible_schedulers == ("fsync",), cls.name


def _scheduler_spec(scheduler, seed):
    return RunSpec(
        graph=ComponentSpec(
            "random_churn", {"n": 16, "extra_edges": 6, "seed": seed}
        ),
        placement=PlacementSpec(kind="rooted", k=10),
        scheduler=scheduler,
        max_rounds=5000,
        seed=seed,
        label=f"replay {scheduler.name if scheduler else 'fsync'} {seed}",
    )


SCHEDULER_COMPONENTS = {
    "fsync": ComponentSpec("fsync"),
    "ssync": ComponentSpec(
        "ssync", {"policy": "random_subset", "p": 0.7, "seed": 9}
    ),
    "async": ComponentSpec(
        "async",
        {"seed": 9, "distribution": "geometric", "max_delay": 4,
         "move_max_delay": 2},
    ),
}


#: Experiment E12's five execution models, each seeded per run.
E12_MODELS = {
    "fsync": lambda seed: None,
    "ssync p=0.6": lambda seed: ComponentSpec(
        "ssync", {"policy": "random_subset", "p": 0.6, "seed": seed * 13 + 1}
    ),
    "async uniform": lambda seed: ComponentSpec(
        "async",
        {"seed": seed * 13 + 1, "distribution": "uniform", "max_delay": 3},
    ),
    "async geometric": lambda seed: ComponentSpec(
        "async",
        {"seed": seed * 13 + 1, "distribution": "geometric",
         "max_delay": 6, "p": 0.5},
    ),
    "async biased": lambda seed: ComponentSpec(
        "async",
        {"seed": seed * 13 + 1, "distribution": "biased", "max_delay": 6,
         "laggards": [1, 2, 3]},
    ),
}


class TestSchedulerModelGrid:
    """Experiment E12: Algorithm 4 under every execution model (k=16,
    n=24, 5 seeds) disperses, and only FSYNC keeps the k - 1 bound."""

    @staticmethod
    def _spec(model, seed, collect_records=False):
        return RunSpec(
            graph=ComponentSpec(
                "random_churn", {"n": 24, "extra_edges": 12, "seed": seed}
            ),
            placement=PlacementSpec(kind="rooted", k=16),
            scheduler=E12_MODELS[model](seed),
            max_rounds=20000,
            collect_records=collect_records,
        )

    def test_every_model_disperses_and_fsync_is_fastest(self):
        from repro.sim.spec import execute

        steps = {}
        for model in E12_MODELS:
            results = [execute(self._spec(model, seed)) for seed in range(5)]
            assert all(r.dispersed for r in results), model
            steps[model] = [r.rounds for r in results]
        assert all(rounds <= 15 for rounds in steps["fsync"])
        mean = {model: sum(s) / len(s) for model, s in steps.items()}
        assert all(mean["fsync"] <= value for value in mean.values())
        assert mean["async biased"] >= mean["fsync"]

    @pytest.mark.parametrize("model", sorted(E12_MODELS))
    def test_replay_is_trace_identical(self, model):
        from repro.sim.spec import execute
        from repro.sim.traceio import run_result_to_json

        spec = self._spec(model, 3, collect_records=True)
        assert run_result_to_json(execute(spec)) == run_result_to_json(
            execute(spec)
        )


class TestCrossSchedulerReplay:
    """Identical seeds give identical traces, per scheduler model.

    Uses the same fingerprint as the chaos replay suite
    (``results_fingerprint``, one sha256 over each result's
    ``run_fingerprint``), so the async determinism criterion is checked
    with the exact machinery that gates chaos convergence.
    """

    def _fingerprint(self, name):
        from repro.chaos.replay import results_fingerprint
        from repro.sim.runner import SerialRunner

        specs = [
            _scheduler_spec(SCHEDULER_COMPONENTS[name], seed)
            for seed in range(3)
        ]
        results = SerialRunner().run(specs)
        assert all(r.dispersed for r in results), name
        return results_fingerprint(results)

    @pytest.mark.parametrize("name", ["fsync", "ssync", "async"])
    def test_double_replay_fingerprint_converges(self, name):
        assert self._fingerprint(name) == self._fingerprint(name)

    def test_models_diverge_from_each_other(self):
        prints = {name: self._fingerprint(name) for name in
                  ("fsync", "ssync", "async")}
        assert len(set(prints.values())) == 3

    def test_spec_scheduler_round_trip(self):
        spec = _scheduler_spec(SCHEDULER_COMPONENTS["async"], 1)
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.scheduler == SCHEDULER_COMPONENTS["async"]

    def test_fsync_spec_omits_scheduler_key(self):
        """Pre-scheduler specs keep their serialized form (and therefore
        their content digests): no scheduler key unless one was set."""
        spec = _scheduler_spec(None, 1)
        assert "scheduler" not in spec.to_dict()

    def test_spec_rejects_scheduler_plus_activation(self):
        """The retired ``activation`` key is refused, never dropped: an
        old SSYNC spec must not load silently as FSYNC."""
        data = _scheduler_spec(SCHEDULER_COMPONENTS["ssync"], 0).to_dict()
        data["activation"] = ComponentSpec("full").to_dict()
        with pytest.raises(SpecError, match="scheduler"):
            RunSpec.from_dict(data)
        del data["scheduler"]
        with pytest.raises(SpecError, match="retired"):
            RunSpec.from_dict(data)

    def test_registered_components_lists_schedulers(self):
        from repro.sim.spec import (
            _load_default_components,
            registered_components,
        )

        _load_default_components()
        assert registered_components()["scheduler"] == [
            "async", "fsync", "ssync",
        ]


class TestAsyncEngineSemantics:
    def test_pending_moves_finish_before_termination(self):
        """With a slow Move phase the run only terminates once every
        in-transit robot has arrived (dispersion + empty pending set)."""
        dyn = RandomChurnDynamicGraph(14, extra_edges=6, seed=2)
        result = SimulationEngine(
            dyn,
            RobotSet.rooted(9, 14),
            DispersionDynamic(),
            scheduler=AsyncScheduler(seed=4, max_delay=3, move_max_delay=3),
            max_rounds=20000,
        ).run()
        assert result.dispersed
        assert len(set(result.final_positions.values())) == 9

    def test_timeline_recorded_and_monotone(self):
        dyn = RandomChurnDynamicGraph(14, extra_edges=6, seed=2)
        result = SimulationEngine(
            dyn,
            RobotSet.rooted(9, 14),
            DispersionDynamic(),
            scheduler=AsyncScheduler(seed=4, max_delay=3),
            max_rounds=20000,
        ).run()
        timeline = result.activation_timeline()
        assert timeline
        epochs = [epoch for epoch, _ in timeline]
        assert all(b > a for a, b in zip(epochs, epochs[1:]))
        assert result.final_epoch == epochs[-1]

    def test_fsync_records_have_no_timeline(self):
        dyn = RandomChurnDynamicGraph(14, extra_edges=6, seed=2)
        result = SimulationEngine(
            dyn, RobotSet.rooted(9, 14), DispersionDynamic()
        ).run()
        assert result.final_epoch is None
        assert result.activation_timeline() == []
        assert all(r.epoch is None for r in result.records)
        assert all(r.activated_robots is None for r in result.records)


class TestSemiSyncDispersionBounds:
    def test_k_round_bound_can_break(self):
        """The synchronous guarantee is genuinely lost: some seed exceeds
        the k - 1 bound under partial activation."""
        n, k = 14, 10
        exceeded = False
        for seed in range(10):
            dyn = RandomChurnDynamicGraph(n, extra_edges=6, seed=seed)
            result = SimulationEngine(
                dyn,
                RobotSet.rooted(k, n),
                DispersionDynamic(),
                scheduler=SsyncScheduler(
                    RandomSubsetActivation(0.55, seed=seed)
                ),
                max_rounds=5000,
            ).run()
            assert result.dispersed
            if result.rounds > k - 1:
                exceeded = True
                break
        assert exceeded
