"""The EngineBackend API and reference/vectorized equivalence.

The vectorized backend's whole contract is *bit-identicality*: for any
spec, under any scheduler model, its run must serialize byte-for-byte
equal to the reference backend's.  This suite pins that contract with a
property grid across graph families and scheduler models, fingerprints
the campaign-shaped specs both ways, pins the component-labeling kernel
on a disconnected dynamic-graph round, and covers the spec/registry/API
surface (``backend`` field digests, ``repro.run(backend=...)``, CLI
flags, unknown-name failures).  A Hypothesis differential test extends
the grid to generated specs over every registered algorithm; a second
strategy draws only fault-free FSYNC Algorithm 4 runs and checks
Theorem 4's ``k - initial_occupied`` round bound on every example; a
third draws crash schedules (up to ``k - 1`` crashes, any round, both
phases) and checks that bound and Lemma 7's potential under crashes
(Theorem 5).  A static star with a drawn centre, ports and placement
attains Theorem 4's bound exactly; a lockstep oracle steps one engine per
backend and compares the ``RoundState`` after every round, so a shrunk
counterexample names the first round that diverges.  A construction
count pins that runs outside the array path build no arrays at all.
"""

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.bounds import check_rounds_upper_bound
from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import StaticDynamicGraph
from repro.graph.generators import FAMILY_BUILDERS, star_graph
from repro.robots.memory import bound_bits
from repro.sim import backend as backend_module
from repro.sim import backend_vectorized
from repro.sim.backend import EngineBackend, ReferenceBackend
from repro.sim.backend_vectorized import (
    VectorizedBackend,
    label_occupied_components,
    snapshot_to_csr,
)
from repro.sim.engine import RoundState, SimulationEngine
from repro.sim.hooks import LiveInvariantChecker
from repro.sim.spec import (
    ComponentSpec,
    CrashSpec,
    PlacementSpec,
    RunSpec,
    SpecError,
    build_algorithm,
    build_backend,
    build_engine,
    build_graph,
    execute,
    registered_components,
    spec_digest,
)
from repro.sim.traceio import run_fingerprint, run_result_to_json


SCHEDULERS = {
    "fsync": None,
    "ssync": ComponentSpec(
        "ssync", {"policy": "random_subset", "p": 0.6, "seed": 5}
    ),
    "async": ComponentSpec(
        "async", {"seed": 5, "distribution": "uniform", "max_delay": 3}
    ),
}


VECTORIZED = ComponentSpec("vectorized")

#: The campaign's scheduler-models base instance.
CHURN_BASE = RunSpec(
    graph=ComponentSpec(
        "random_churn", {"n": 18, "extra_edges": 9, "seed": 3}
    ),
    placement=PlacementSpec(kind="rooted", k=12),
    max_rounds=4000,
)


def both_backends(spec):
    """Execute ``spec`` under both backends; return the two results."""
    reference = execute(spec)
    vectorized = execute(spec.with_(backend=VECTORIZED))
    return reference, vectorized


def assert_bit_identical(spec):
    reference, vectorized = both_backends(spec)
    assert run_result_to_json(reference) == run_result_to_json(vectorized), (
        f"backend divergence on {spec.label or spec!r}"
    )


# ----------------------------------------------------------------------
# Cross-backend equivalence
# ----------------------------------------------------------------------


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize(
        "family,n", [("random_dense", 16), ("random_sparse", 20),
                     ("random_tree", 14)]
    )
    def test_static_family_grid(self, family, n, scheduler):
        k = (3 * n) // 4
        spec = RunSpec(
            graph=ComponentSpec(
                "static_family", {"family": family, "n": n, "seed": 2}
            ),
            placement=PlacementSpec(kind="rooted", k=k),
            scheduler=SCHEDULERS[scheduler],
            max_rounds=10 * k * n + 100,
            label=f"{family} n={n} {scheduler}",
        )
        assert_bit_identical(spec)

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_random_churn_arbitrary_placement(self, scheduler):
        spec = RunSpec(
            graph=ComponentSpec(
                "random_churn", {"n": 24, "extra_edges": 12, "seed": 6}
            ),
            placement=PlacementSpec(kind="arbitrary", k=18),
            scheduler=SCHEDULERS[scheduler],
            seed=11,
            max_rounds=5000,
            label=f"churn arbitrary {scheduler}",
        )
        assert_bit_identical(spec)

    def test_crash_faults_fall_back_identically(self):
        spec = repro.make_spec(
            "random_churn",
            {"n": 20, "extra_edges": 10, "seed": 3},
            k=14,
            crash=CrashSpec(
                kind="events",
                events=((2, 1, "before_communicate"),),
            ),
            label="crash fallback",
        )
        assert_bit_identical(spec)

    def test_byzantine_falls_back_identically(self):
        spec = RunSpec(
            graph=ComponentSpec(
                "random_churn", {"n": 20, "extra_edges": 10, "seed": 2}
            ),
            placement=PlacementSpec(kind="rooted", k=12),
            byzantine={1: ComponentSpec("hide_multiplicity")},
            max_rounds=60,
            label="byzantine fallback",
        )
        assert_bit_identical(spec)

    def test_local_communication_falls_back_identically(self):
        spec = RunSpec(
            graph=ComponentSpec(
                "random_churn", {"n": 16, "extra_edges": 8, "seed": 5}
            ),
            placement=PlacementSpec(kind="rooted", k=10),
            algorithm=ComponentSpec("random_walk_dispersion"),
            communication="local",
            max_rounds=400,
            label="local fallback",
        )
        assert_bit_identical(spec)

    def test_campaign_shaped_specs_fingerprint_equal(self):
        """The campaign's scheduler-models base instance, all models,
        under Algorithm 4, its faithful mode and the four ablations (the
        last five run the reference phases inside the vectorized
        backend)."""
        for algorithm in (
            ComponentSpec("dispersion_dynamic"),
            ComponentSpec("dispersion_dynamic", {"faithful": True}),
            ComponentSpec("ablation_bfs_tree"),
            ComponentSpec("ablation_descending_leaf_order"),
            ComponentSpec("ablation_no_disjointness"),
            ComponentSpec("ablation_no_truncation"),
        ):
            for name in sorted(SCHEDULERS):
                reference, vectorized = both_backends(CHURN_BASE.with_(
                    algorithm=algorithm,
                    scheduler=SCHEDULERS[name],
                    label=f"fp {algorithm.name} {name}",
                ))
                assert run_fingerprint(reference) == run_fingerprint(
                    vectorized
                ), (algorithm, name)

    @pytest.mark.parametrize(
        "n,k", [(96, 72), (192, 144), (384, 288), (512, 384)]
    )
    def test_large_static_dense_cells(self, n, k):
        """The perfbench static-dense cells plus the 512/384 cell.

        Records only on the smallest cell: they feed the full trace
        comparison without slowing the big cells.
        """
        spec = RunSpec(
            graph=ComponentSpec(
                "static_family",
                {"family": "random_dense", "n": n, "seed": 9},
            ),
            placement=PlacementSpec(kind="rooted", k=k),
            collect_records=n == 96,
            label=f"static dense n={n} k={k}",
        )
        reference, vectorized = both_backends(spec)
        assert reference.dispersed
        assert reference.final_positions == vectorized.final_positions
        assert reference.rounds == vectorized.rounds
        assert reference.total_moves == vectorized.total_moves
        assert run_result_to_json(reference) == run_result_to_json(vectorized)


# ----------------------------------------------------------------------
# Generated specs: reference and vectorized must fingerprint equal
# ----------------------------------------------------------------------


def _declared_model(name):
    """``(communication, requires_nk, schedulers, byzantine_ok)`` of an
    algorithm.  Byzantine policies forge broadcast packets, an attack on
    Algorithm 4 and its ablations; the baselines and lower-bound
    candidates assume every packet is true (a robot finds its own id in
    its own packet, every listed id is a real robot)."""
    algorithm = build_algorithm(
        CHURN_BASE.with_(algorithm=ComponentSpec(name))
    )
    return (
        algorithm.requires_communication.value,
        algorithm.requires_neighborhood_knowledge,
        sorted(set(algorithm.compatible_schedulers) & set(SCHEDULERS)),
        isinstance(algorithm, DispersionDynamic),
    )


DECLARED_MODELS = {
    name: _declared_model(name)
    for name in sorted(registered_components()["algorithm"])
}


def _draw_instance(draw):
    """``(n, k, seed, graph)``: random churn (with or without edge
    persistence), T-interval churn or a static-family graph, n <= 14."""
    n = draw(st.integers(min_value=4, max_value=14))
    k = draw(st.integers(min_value=2, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(
        ["random_churn", "t_interval_churn", "static_family"]
    ))
    if kind == "random_churn":
        graph = ComponentSpec("random_churn", {
            "n": n,
            "extra_edges": draw(st.integers(0, n)),
            "persistence": draw(st.sampled_from([0.0, 0.5, 1.0])),
            "seed": seed,
        })
    elif kind == "t_interval_churn":
        graph = ComponentSpec("t_interval_churn", {
            "n": n,
            "interval": draw(st.integers(1, 4)),
            "extra_edges": draw(st.integers(0, n)),
            "seed": seed,
        })
    else:
        family = draw(st.sampled_from(sorted(FAMILY_BUILDERS)))
        graph = ComponentSpec(
            "static_family", {"family": family, "n": n, "seed": seed}
        )
    return n, k, seed, graph


@st.composite
def generated_specs(draw):
    """A small run that is valid under its algorithm's declared model."""
    name = draw(st.sampled_from(sorted(DECLARED_MODELS)))
    communication, requires_nk, schedulers, byzantine_ok = (
        DECLARED_MODELS[name]
    )
    params = (
        {"faithful": draw(st.booleans())}
        if name == "dispersion_dynamic" else {}
    )
    n, k, seed, graph = _draw_instance(draw)
    fault = draw(st.sampled_from(
        ["none", "crash", "byzantine"] if byzantine_ok else ["none", "crash"]
    ))
    crash = None
    byzantine = {}
    if fault == "crash":
        crash = CrashSpec(kind="events", events=((
            draw(st.integers(1, k)),
            draw(st.integers(0, 6)),
            draw(st.sampled_from(["before_communicate", "after_compute"])),
        ),))
    elif fault == "byzantine":
        policy = draw(st.sampled_from(registered_components()["byzantine"]))
        byzantine = {draw(st.integers(1, k)): ComponentSpec(policy)}
    return RunSpec(
        graph=graph,
        placement=PlacementSpec(
            kind=draw(st.sampled_from(["rooted", "arbitrary"])), k=k
        ),
        algorithm=ComponentSpec(name, params),
        scheduler=SCHEDULERS[draw(st.sampled_from(schedulers))],
        communication=communication,
        neighborhood_knowledge=requires_nk or draw(st.booleans()),
        crash=crash,
        byzantine=byzantine,
        seed=seed,
        max_rounds=80,
    )


class TestGeneratedSpecs:
    @given(generated_specs())
    @settings(max_examples=800, deadline=None, derandomize=True)
    def test_backends_fingerprint_equal(self, spec):
        reference, vectorized = both_backends(spec)
        assert run_fingerprint(reference) == run_fingerprint(vectorized), (
            spec.to_json()
        )
        if (
            spec.algorithm.name == "dispersion_dynamic"
            and spec.scheduler is None
            and spec.crash is None
            and not spec.byzantine
        ):
            # Theorem 4: fault-free FSYNC Algorithm 4 disperses within
            # k - initial_occupied rounds on any connected dynamic graph.
            assert reference.dispersed, spec.to_json()
            assert (
                reference.rounds
                <= spec.placement.k - reference.initial_occupied
            ), spec.to_json()


@st.composite
def theorem4_specs(draw):
    """A fault-free FSYNC Algorithm 4 run: Theorem 4's hypotheses.

    Both ``faithful`` modes, churn and every static family, rooted and
    arbitrary placement, and a round budget of at least ``k``, which
    the theorem's ``k - initial_occupied`` bound never exhausts.
    """
    communication, requires_nk, _, _ = DECLARED_MODELS["dispersion_dynamic"]
    n, k, seed, graph = _draw_instance(draw)
    return RunSpec(
        graph=graph,
        placement=PlacementSpec(
            kind=draw(st.sampled_from(["rooted", "arbitrary"])), k=k
        ),
        algorithm=ComponentSpec(
            "dispersion_dynamic", {"faithful": draw(st.booleans())}
        ),
        communication=communication,
        neighborhood_knowledge=requires_nk or draw(st.booleans()),
        seed=seed,
        max_rounds=draw(st.integers(min_value=k, max_value=2 * k)),
    )


class TestTheorem4Generated:
    @given(theorem4_specs())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_disperses_within_k_minus_initial_occupied(self, spec):
        # Lemma 7 (an occupied node is never vacated and every round
        # occupies a new one) checked live on the reference run; Lemma 8
        # (the ID is the only persistent state: ceil(log2(k+1)) bits).
        checker = LiveInvariantChecker()
        reference = build_engine(spec, observers=[checker]).run()
        vectorized = execute(spec.with_(backend=VECTORIZED))
        assert run_fingerprint(reference) == run_fingerprint(vectorized), (
            spec.to_json()
        )
        assert reference.dispersed, spec.to_json()
        assert (
            reference.rounds <= spec.placement.k - reference.initial_occupied
        ), spec.to_json()
        assert checker.clean, (checker.violations, spec.to_json())
        assert reference.max_persistent_bits == bound_bits(spec.placement.k), (
            spec.to_json()
        )


@st.composite
def star_instances(draw):
    """A static star with a drawn centre and port labelling, the robots
    rooted on any node or placed arbitrarily, and either ``faithful``."""
    n = draw(st.integers(min_value=2, max_value=16))
    k = draw(st.integers(min_value=1, max_value=n))
    star = star_graph(
        n,
        center=draw(st.integers(0, n - 1)),
        rng=random.Random(draw(st.integers(0, 10_000))),
    )
    if draw(st.booleans()):
        positions = dict.fromkeys(range(1, k + 1), draw(st.integers(0, n - 1)))
    else:
        positions = {
            robot: draw(st.integers(0, n - 1)) for robot in range(1, k + 1)
        }
    return star, positions, draw(st.booleans())


class TestTheorem4Attained:
    @given(star_instances())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_static_star_takes_exactly_k_minus_initial_occupied(self, instance):
        # docs/model.md: a static star occupies exactly one new node per
        # round from any placement, so Theorem 4's bound is attained.
        star, positions, faithful = instance
        reference, vectorized = (
            SimulationEngine(
                StaticDynamicGraph(star),
                positions,
                DispersionDynamic(faithful=faithful),
                backend=build_backend(ComponentSpec(name)),
            ).run()
            for name in ("reference", "vectorized")
        )
        assert run_fingerprint(reference) == run_fingerprint(vectorized)
        assert reference.dispersed
        assert reference.rounds == len(positions) - len(set(positions.values()))


class TestLockstep:
    """One engine per backend stepped on the same snapshots: the first
    round whose state differs is the one an assertion names."""

    @given(theorem4_specs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_round_states_agree_after_every_round(self, spec):
        engines = [
            build_engine(spec.with_(backend=ComponentSpec(name)))
            for name in ("reference", "vectorized")
        ]
        for engine in engines:
            engine.algorithm.on_run_start(engine.k, engine.n)
        graph = build_graph(spec, None)
        positions = spec.placement.build(graph.n, spec.seed).positions
        reference = vectorized = RoundState(
            positions=positions, ever_occupied=frozenset(positions.values())
        )
        for round_index in range(spec.max_rounds):
            if reference.is_dispersed(()):
                break
            snapshot = graph.snapshot(round_index)
            (reference, ref_outcome), (vectorized, vec_outcome) = (
                engine.step(state, snapshot, round_index)
                for engine, state in zip(engines, (reference, vectorized))
            )
            where = f"round {round_index} of {spec.to_json()}"
            assert vectorized == reference, where
            assert list(vectorized.positions.items()) == list(
                reference.positions.items()
            ), where
            assert vec_outcome.moved == ref_outcome.moved, where
            assert engines[1].backend.audit_memory(vectorized) == (
                engines[0].backend.audit_memory(reference)
            ), where
        assert reference.is_dispersed(()), spec.to_json()


@st.composite
def theorem5_specs(draw):
    """A :func:`theorem4_specs` run plus a drawn crash schedule: Theorem 5.

    ``f`` in ``[0, k - 1]`` distinct victims, each crashing in a round of
    ``[0, k]`` in either phase, so crashes strike early, late and after
    the run has ended.  The budget of at least ``k`` rounds still cannot
    run out: the potential bound is ``k - initial_occupied``.
    """
    spec = draw(theorem4_specs())
    k = spec.placement.k
    victims = draw(st.permutations(range(1, k + 1)))
    events = tuple(
        (robot, draw(st.integers(0, k)), draw(st.sampled_from(
            ["before_communicate", "after_compute"]
        )))
        for robot in sorted(victims[:draw(st.integers(0, k - 1))])
    )
    return spec.with_(crash=CrashSpec(kind="events", events=events))


class TestTheorem5Generated:
    @given(theorem5_specs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_crash_runs_meet_the_potential_bound(self, spec):
        # Lemma 7 with crashes: U = alive - occupied falls every round and
        # only an after-Compute crash may vacate a node (checked live on
        # the reference run), so rounds <= k - initial_occupied.
        checker = LiveInvariantChecker()
        reference = build_engine(spec, observers=[checker]).run()
        vectorized = execute(spec.with_(backend=VECTORIZED))
        assert run_fingerprint(reference) == run_fingerprint(vectorized), (
            spec.to_json()
        )
        assert reference.dispersed, spec.to_json()
        assert check_rounds_upper_bound(reference), spec.to_json()
        assert checker.clean, (checker.violations, spec.to_json())
        # Lemma 8 on every run, one that round-0 crashes leave dispersed
        # (no round executed) included.
        assert reference.max_persistent_bits == bound_bits(spec.placement.k), (
            spec.to_json()
        )


# ----------------------------------------------------------------------
# The array path is chosen once per run
# ----------------------------------------------------------------------


def _count_constructions(monkeypatch):
    """Count CSR conversions and round/observation array objects."""
    counts = {"csr": 0, "arrays": 0, "lazy": 0}

    def counting(key, build):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return build(*args, **kwargs)
        return wrapper

    for key, attribute in (
        ("csr", "snapshot_to_csr"),
        ("arrays", "_RoundArrays"),
        ("lazy", "_LazyObservations"),
    ):
        monkeypatch.setattr(
            backend_vectorized,
            attribute,
            counting(key, getattr(backend_vectorized, attribute)),
        )
    return counts


class TestArrayPathDecision:
    @pytest.mark.parametrize(
        "changes",
        [
            {"algorithm": ComponentSpec(
                "dispersion_dynamic", {"faithful": True})},
            {"algorithm": ComponentSpec("dfs_dispersion_local"),
             "communication": "local"},
            {"byzantine": {1: ComponentSpec("hide_multiplicity")},
             "max_rounds": 60},
            {"algorithm": ComponentSpec("ablation_no_truncation")},
        ],
        ids=["faithful", "local", "byzantine", "ablation"],
    )
    def test_reference_routed_runs_build_no_arrays(
        self, monkeypatch, changes
    ):
        counts = _count_constructions(monkeypatch)
        result = execute(CHURN_BASE.with_(backend=VECTORIZED, **changes))
        assert result.rounds > 0
        assert counts == {"csr": 0, "arrays": 0, "lazy": 0}

    def test_stock_run_builds_arrays_once_per_round(self, monkeypatch):
        counts = _count_constructions(monkeypatch)
        result = execute(CHURN_BASE.with_(backend=VECTORIZED))
        assert result.dispersed and result.rounds > 0
        # one observe per round, plus the termination-detection observe
        assert counts == {
            "csr": result.rounds + 1,
            "arrays": result.rounds + 1,
            "lazy": result.rounds + 1,
        }


class TestMemoryAudit:
    """The ID-only default state is charged once per round; a state the
    algorithm declares itself is charged robot by robot."""

    STATIC = RunSpec(
        graph=ComponentSpec(
            "static_family", {"family": "random_dense", "n": 14, "seed": 4}
        ),
        placement=PlacementSpec(kind="rooted", k=9),
    )

    @staticmethod
    def _count_audits(monkeypatch):
        calls = []
        real = backend_module.bits_for_state

        def counting(state, *, bounds=None):
            calls.append(dict(state))
            return real(state, bounds=bounds)

        monkeypatch.setattr(backend_module, "bits_for_state", counting)
        return calls

    @pytest.mark.parametrize("backend", [None, VECTORIZED])
    def test_default_state_is_charged_once_per_round(
        self, monkeypatch, backend
    ):
        calls = self._count_audits(monkeypatch)
        result = execute(self.STATIC.with_(backend=backend))
        assert result.dispersed and result.rounds > 0
        assert calls == [{"id": 9}] * result.rounds
        assert result.max_persistent_bits == bound_bits(9)

    @pytest.mark.parametrize("backend", [ReferenceBackend, VectorizedBackend])
    def test_default_state_over_its_bound_still_raises(self, backend):
        class TightIdBound(DispersionDynamic):
            def persistent_state_bounds(self, k, n):
                return {"id": k - 1}

        engine = SimulationEngine(
            StaticDynamicGraph(FAMILY_BUILDERS["random_dense"](
                14, random.Random(4)
            )),
            {robot_id: 0 for robot_id in range(1, 10)},
            TightIdBound(),
            backend=backend(),
        )
        with pytest.raises(ValueError, match="value 9 exceeds its declared"):
            engine.run()

    @pytest.mark.parametrize("backend", [None, VECTORIZED])
    def test_declared_state_is_charged_per_robot(self, monkeypatch, backend):
        calls = self._count_audits(monkeypatch)
        result = execute(self.STATIC.with_(
            algorithm=ComponentSpec("dfs_dispersion_local"),
            communication="local",
            backend=backend,
        ))
        assert result.dispersed and result.rounds > 0
        # No crash: every robot is audited after every round.
        assert len(calls) == 9 * result.rounds
        assert {call["id"] for call in calls} == set(range(1, 10))
        # id in [1, 9], settled, parent_port and rotor in [0, n].
        assert result.max_persistent_bits == (
            bound_bits(9) + 1 + 2 * bound_bits(14)
        )


# ----------------------------------------------------------------------
# The vectorized component-labeling kernel
# ----------------------------------------------------------------------


class TestLabelingKernel:
    def test_disconnected_dynamic_round_labels_are_pinned(self):
        """Round 1 of the seeded churn graph splits the occupied set
        into three components; the canonical labels are pinned."""
        from repro.graph.dynamic import RandomChurnDynamicGraph

        snapshot = RandomChurnDynamicGraph(
            12, extra_edges=6, seed=8
        ).snapshot(1)
        occupied = np.array([0, 1, 3, 4, 7, 9, 10], dtype=np.int64)
        indptr, neighbors = snapshot_to_csr(snapshot)
        labels = label_occupied_components(indptr, neighbors, occupied)
        assert labels.tolist() == [0, 1, 0, 3, 1, 0, 1]
        # Agreement with the reference partition on the same round.
        components = snapshot.induced_occupied_components(
            frozenset(int(v) for v in occupied)
        )
        assert sorted(sorted(c) for c in components) == [
            [0, 3, 9], [1, 7, 10], [4],
        ]
        assert len(set(labels.tolist())) == len(components)

    def test_empty_and_singleton_occupied_sets(self):
        from repro.graph.generators import build_family
        import random as _random

        snapshot = build_family("cycle", 6, _random.Random(0))
        indptr, neighbors = snapshot_to_csr(snapshot)
        assert label_occupied_components(
            indptr, neighbors, np.empty(0, dtype=np.int64)
        ).tolist() == []
        assert label_occupied_components(
            indptr, neighbors, np.array([4], dtype=np.int64)
        ).tolist() == [0]


# ----------------------------------------------------------------------
# Spec field, registry and API surface
# ----------------------------------------------------------------------


class TestSpecBackendField:
    def test_default_spec_omits_backend_and_keeps_digest(self):
        spec = repro.make_spec(
            "random_churn", {"n": 12, "extra_edges": 6, "seed": 1}, k=8
        )
        assert spec.backend is None
        assert "backend" not in spec.to_dict()
        # pre-backend digests must be byte-identical: the dict is the
        # digest's input, so key absence is the whole guarantee
        assert spec_digest(spec) == spec_digest(
            RunSpec.from_dict(spec.to_dict())
        )

    def test_backend_round_trips_and_changes_digest(self):
        spec = repro.make_spec(
            "random_churn", {"n": 12, "extra_edges": 6, "seed": 1}, k=8
        )
        pinned = spec.with_(backend=ComponentSpec("vectorized"))
        assert pinned.to_dict()["backend"]["name"] == "vectorized"
        assert RunSpec.from_dict(pinned.to_dict()) == pinned
        assert spec_digest(pinned) != spec_digest(spec)

    def test_registered_backends(self):
        names = registered_components()["backend"]
        assert "reference" in names and "vectorized" in names

    def test_unknown_backend_fails_fast_listing_available(self):
        with pytest.raises(SpecError, match="unknown backend component"):
            build_backend(ComponentSpec("warp_drive"))
        with pytest.raises(SpecError, match="reference"):
            build_backend(ComponentSpec("warp_drive"))


class TestStepIsPure:
    """``SimulationEngine.step`` maps a state to the next one."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_same_state_same_step_input_untouched(self, backend):
        snapshot = FAMILY_BUILDERS["random_dense"](9, random.Random(4))
        # Robot 5 is in transit and arrives this round (settle); robot
        # 6 crashed earlier; robot 4 entered node 1 through port 2.
        state = RoundState(
            positions={4: 1, 1: 0, 2: 0, 3: 0, 5: 1},
            entry_ports={4: 2},
            pending_moves={5: (0, 2, 1)},
            crashed=frozenset({6}),
            ever_occupied=frozenset({0, 1}),
            packets_broadcast=4,
            packet_deliveries=9,
        )
        before = copy.deepcopy(state)
        engine = SimulationEngine(
            StaticDynamicGraph(snapshot),
            {robot: 0 for robot in range(1, 7)},
            DispersionDynamic(),
            backend=build_backend(ComponentSpec(backend)),
        )
        first = engine.step(state, snapshot, 0)
        second = engine.step(state, snapshot, 0)
        assert first == second
        assert state == before
        assert list(state.positions.items()) == list(before.positions.items())
        after, outcome = first
        assert 5 in outcome.moved and after.positions[5] == 2
        assert after.positions != state.positions
        assert list(after.positions) == list(state.positions)
        # One packet per occupied node (0 and 1), delivered to all 5.
        assert after.packets_broadcast == 4 + 2
        assert after.packet_deliveries == 9 + 2 * 5


class TestBackendApi:
    def test_engine_backend_is_abstract(self):
        with pytest.raises(TypeError):
            EngineBackend()

    def test_unbound_backend_rejects_engine_access(self):
        backend = ReferenceBackend()
        with pytest.raises(RuntimeError, match="not bound"):
            backend.engine

    def test_backend_names(self):
        assert ReferenceBackend().name == "reference"
        assert VectorizedBackend().name == "vectorized"

    def test_repro_run_accepts_backend_keyword(self):
        spec = repro.make_spec(
            "random_churn", {"n": 14, "extra_edges": 7, "seed": 2}, k=9
        )
        reference = repro.run(spec)
        vectorized = repro.run(spec, backend="vectorized")
        assert run_result_to_json(reference) == run_result_to_json(
            vectorized
        )

    def test_repro_sweep_accepts_backend_keyword(self):
        spec = repro.make_spec(
            "random_churn", {"n": 14, "extra_edges": 7, "seed": 2}, k=9
        )
        results = repro.sweep([spec], backend="vectorized")
        assert run_result_to_json(results[0]) == run_result_to_json(
            repro.run(spec)
        )

    def test_register_custom_backend(self):
        calls = []

        class ProbeBackend(ReferenceBackend):
            name = "probe"

            def observe(self, state, snapshot, round_index):
                calls.append(round_index)
                return super().observe(state, snapshot, round_index)

        repro.register_backend(
            "probe_for_test", lambda params: ProbeBackend()
        )
        try:
            spec = repro.make_spec(
                "random_churn",
                {"n": 12, "extra_edges": 6, "seed": 1},
                k=8,
                backend=ComponentSpec("probe_for_test"),
            )
            result = execute(spec)
            assert result.dispersed
            assert calls  # the custom backend really ran the phases
        finally:
            from repro.sim import spec as spec_module

            spec_module._BACKEND_FACTORIES.pop("probe_for_test", None)


class TestCliBackendFlags:
    def test_run_accepts_registered_backend(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--backend", "vectorized", "--n", "12", "--k", "8"]
        )
        assert args.backend == "vectorized"

    def test_unknown_backend_is_a_parse_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "warp_drive"])
        err = capsys.readouterr().err
        assert "unknown backend 'warp_drive'" in err
        assert "reference" in err and "vectorized" in err

    def test_unknown_scheduler_is_a_parse_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "warp"])
        err = capsys.readouterr().err
        assert "unknown scheduler 'warp'" in err
        assert "fsync" in err

    @pytest.mark.parametrize(
        "flag,expected",
        [("--list-backends", "vectorized"), ("--list-schedulers", "async")],
    )
    def test_list_flags_print_registry_and_exit(self, flag, expected, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([flag])
        assert excinfo.value.code == 0
        assert expected in capsys.readouterr().out.splitlines()
