"""Declarative, serializable run specifications.

A :class:`RunSpec` is pure data: it names every ingredient of one
simulation run -- the dynamic-graph factory and its parameters, the
initial placement, the algorithm, the communication/sensing model, crash
and byzantine schedules, the scheduler model / activation schedule, the
master seed and the engine knobs -- without holding any live object.  That buys three things
at once:

* **reconstruction** -- ``execute(spec)`` builds the exact engine the ~10
  scattered ``SimulationEngine`` kwargs used to describe, so a run is one
  JSON-able value instead of a page of imperative setup;
* **transport** -- specs pickle and JSON round-trip
  (:meth:`RunSpec.to_dict` / :meth:`RunSpec.from_dict`), which is what
  lets :class:`~repro.sim.runner.ProcessPoolRunner` fan a grid of specs
  out across worker processes;
* **determinism** -- every stochastic component (graph churn, arbitrary
  placements, random crash schedules) draws from an RNG derived from the
  spec's ``seed``, so the same spec always produces the same
  :class:`~repro.sim.metrics.RunResult`, in any process.

Factories are looked up by name in extensible registries
(:func:`register_graph`, :func:`register_algorithm`,
:func:`register_byzantine`, :func:`register_activation`,
:func:`register_scheduler`); the library's
own graph processes, algorithms, ablation variants, baselines and attack
policies are pre-registered lazily on first resolution, so downstream
code can add its own without import-order gymnastics.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.robots.faults import CrashEvent, CrashPhase, CrashSchedule
from repro.robots.robot import RobotSet
from repro.sim.observation import CommunicationModel

SPEC_FORMAT_VERSION = 1

#: The code-version salt mixed into every :func:`spec_digest`.  It names
#: the *run semantics* of this tree: bump the trailing revision whenever a
#: change alters what :func:`execute` returns for an unchanged spec (RNG
#: streams, tie-breaks, metrics), so persisted results keyed under the old
#: salt become unreachable instead of silently stale.
CODE_VERSION_SALT = f"spec{SPEC_FORMAT_VERSION}:results2"

#: The digest-stability contract, machine-checked by ``repro lint
#: --all`` (rules S001/S002 in :mod:`repro.lint.deep.contracts`).
#: Per spec class: the fields whose keys every format-v1 document
#: already carries.  A *new* defaulted field must be emitted behind an
#: ``if self.<field> ...`` guard in ``to_dict`` so pre-existing specs --
#: and their content digests, hence the entire run store -- stay
#: byte-identical; emitting one unconditionally is exactly the drift
#: the hand audits of earlier releases existed to catch.  Growing a
#: set below is a format-version event, not a convenience.
SPEC_BASELINE_FIELDS: Mapping[str, FrozenSet[str]] = {
    "RunSpec": frozenset(
        {
            "graph",
            "placement",
            "algorithm",
            "communication",
            "neighborhood_knowledge",
            "seed",
            "collect_records",
            "collect_snapshots",
            "validate_graphs",
            "allow_model_mismatch",
        }
    ),
    "ComponentSpec": frozenset({"name", "params"}),
    "PlacementSpec": frozenset({"kind", "k", "root"}),
    "CrashSpec": frozenset({"kind", "events", "f", "max_round"}),
}

#: Fields excluded from digest material by design (display-only).
#: :func:`canonical_spec_json` strips them before hashing, so the
#: S-rules do not hold them to the omitted-when-default bar.
DIGEST_EXEMPT_FIELDS: Mapping[str, FrozenSet[str]] = {
    "RunSpec": frozenset({"label"}),
}


class SpecError(ValueError):
    """A run specification references an unknown component or bad value."""


# ----------------------------------------------------------------------
# Component registries
# ----------------------------------------------------------------------

_GRAPH_FACTORIES: Dict[str, Callable] = {}
_ALGORITHM_FACTORIES: Dict[str, Callable] = {}
_BYZANTINE_FACTORIES: Dict[str, Callable] = {}
_ACTIVATION_FACTORIES: Dict[str, Callable] = {}
_SCHEDULER_FACTORIES: Dict[str, Callable] = {}
_BACKEND_FACTORIES: Dict[str, Callable] = {}
_DEFAULTS_LOADED = False


def register_graph(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register ``factory(params, ctx) -> DynamicGraph`` under ``name``.

    ``params`` is the spec's parameter mapping; ``ctx`` is a
    :class:`GraphBuildContext` carrying the derived seed, the already-built
    algorithm (adaptive adversaries probe it) and the run's information
    model.  Usable as a decorator (``@register_graph("my_process")``).
    """
    if factory is None:
        return lambda fn: register_graph(name, fn)
    _GRAPH_FACTORIES[name] = factory
    return factory


def register_algorithm(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register ``factory(params) -> RobotAlgorithm`` under ``name``."""
    if factory is None:
        return lambda fn: register_algorithm(name, fn)
    _ALGORITHM_FACTORIES[name] = factory
    return factory


def register_byzantine(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register ``factory(params) -> ByzantinePolicy`` under ``name``."""
    if factory is None:
        return lambda fn: register_byzantine(name, fn)
    _BYZANTINE_FACTORIES[name] = factory
    return factory


def register_scheduler(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register a scheduler-model factory ``params -> SchedulerModel``."""
    if factory is None:
        return lambda fn: register_scheduler(name, fn)
    _SCHEDULER_FACTORIES[name] = factory
    return factory


def register_activation(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register ``factory(params) -> ActivationSchedule`` under ``name``."""
    if factory is None:
        return lambda fn: register_activation(name, fn)
    _ACTIVATION_FACTORIES[name] = factory
    return factory


def register_backend(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register an engine-backend factory ``params -> EngineBackend``.

    Backends execute the engine's phase primitives (see
    :mod:`repro.sim.backend`); ``RunSpec(backend=ComponentSpec(name))``
    or ``cli run --backend name`` selects one per run.  Usable as a
    decorator (``@register_backend("my_backend")``).
    """
    if factory is None:
        return lambda fn: register_backend(name, fn)
    _BACKEND_FACTORIES[name] = factory
    return factory


def registered_components() -> Dict[str, List[str]]:
    """The names currently resolvable, by registry kind."""
    _load_default_components()
    return {
        "graph": sorted(_GRAPH_FACTORIES),
        "algorithm": sorted(_ALGORITHM_FACTORIES),
        "byzantine": sorted(_BYZANTINE_FACTORIES),
        "activation": sorted(_ACTIVATION_FACTORIES),
        "scheduler": sorted(_SCHEDULER_FACTORIES),
        "backend": sorted(_BACKEND_FACTORIES),
    }


def _lookup(registry: Dict[str, Callable], kind: str, name: str) -> Callable:
    _load_default_components()
    try:
        return registry[name]
    except KeyError:
        raise SpecError(
            f"unknown {kind} component {name!r}; known: {sorted(registry)}"
        ) from None


# ----------------------------------------------------------------------
# Spec dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentSpec:
    """A named, parameterized component: registry ``name`` + ``params``."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serializable given plain params)."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComponentSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(name=data["name"], params=dict(data.get("params", {})))


@dataclass(frozen=True)
class PlacementSpec:
    """The initial robot placement, declaratively.

    ``kind`` is one of:

    * ``"rooted"`` -- all ``k`` robots on node ``root`` (default 0);
    * ``"arbitrary"`` -- the paper's arbitrary initial configuration,
      sampled from the spec seed (``num_occupied`` optionally pins the
      number of initially occupied nodes);
    * ``"explicit"`` -- a literal ``{robot_id: node}`` mapping.
    """

    kind: str = "rooted"
    k: int = 0
    root: int = 0
    num_occupied: Optional[int] = None
    positions: Optional[Mapping[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("rooted", "arbitrary", "explicit"):
            raise SpecError(
                f"unknown placement kind {self.kind!r}; expected rooted, "
                "arbitrary or explicit"
            )
        if self.kind == "explicit":
            if not self.positions:
                raise SpecError("explicit placement needs a positions mapping")
            # Canonicalize: k is derived, so direct construction and
            # from_dict() produce equal specs.
            object.__setattr__(self, "k", len(self.positions))
        elif self.k < 1:
            raise SpecError(f"placement needs k >= 1, got k={self.k}")

    def build(self, n: int, seed: int) -> RobotSet:
        """Materialize the placement for an ``n``-node graph."""
        if self.kind == "rooted":
            return RobotSet.rooted(self.k, n, root=self.root)
        if self.kind == "arbitrary":
            return RobotSet.arbitrary(
                self.k, n, random.Random(seed),
                num_occupied=self.num_occupied,
            )
        assert self.positions is not None
        return RobotSet({int(r): v for r, v in self.positions.items()}, n)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (robot ids stringified for JSON)."""
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "explicit":
            assert self.positions is not None
            data["positions"] = {
                str(r): v for r, v in self.positions.items()
            }
        else:
            data["k"] = self.k
            if self.kind == "rooted":
                data["root"] = self.root
            if self.kind == "arbitrary" and self.num_occupied is not None:
                data["num_occupied"] = self.num_occupied
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementSpec":
        """Inverse of :meth:`to_dict`."""
        positions = data.get("positions")
        if positions is not None:
            positions = {int(r): v for r, v in positions.items()}
        return cls(
            kind=data.get("kind", "rooted"),
            k=int(data.get("k", len(positions or {}))),
            root=int(data.get("root", 0)),
            num_occupied=data.get("num_occupied"),
            positions=positions,
        )


@dataclass(frozen=True)
class CrashSpec:
    """A crash-fault schedule, declaratively.

    ``kind="events"`` lists explicit ``(robot, round, phase)`` triples;
    ``kind="random"`` draws ``f`` victims uniformly in ``[0, max_round]``
    from an RNG derived from the run seed and the victim count, matching
    :meth:`repro.robots.faults.CrashSchedule.random_schedule`.
    """

    kind: str = "events"
    events: Tuple[Tuple[int, int, str], ...] = ()
    f: int = 0
    max_round: int = 0
    phases: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("events", "random"):
            raise SpecError(
                f"unknown crash kind {self.kind!r}; expected events or random"
            )

    def build(self, k: int, seed: int) -> CrashSchedule:
        """Materialize the schedule for ``k`` robots under ``seed``."""
        if self.kind == "events":
            return CrashSchedule(
                CrashEvent(robot, rnd, CrashPhase(phase))
                for robot, rnd, phase in self.events
            )
        rng = random.Random(f"fault:{k}:{self.f}:{seed}")
        phases = (
            [CrashPhase(p) for p in self.phases] if self.phases else None
        )
        return CrashSchedule.random_schedule(
            k, self.f, self.max_round, rng, phases=phases
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        if self.kind == "events":
            return {
                "kind": "events",
                "events": [list(event) for event in self.events],
            }
        data: Dict[str, Any] = {
            "kind": "random", "f": self.f, "max_round": self.max_round,
        }
        if self.phases is not None:
            data["phases"] = list(self.phases)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CrashSpec":
        """Inverse of :meth:`to_dict`."""
        phases = data.get("phases")
        return cls(
            kind=data.get("kind", "events"),
            events=tuple(
                (int(r), int(rnd), str(phase))
                for r, rnd, phase in data.get("events", ())
            ),
            f=int(data.get("f", 0)),
            max_round=int(data.get("max_round", 0)),
            phases=tuple(phases) if phases is not None else None,
        )


@dataclass(frozen=True)
class GraphBuildContext:
    """What a graph factory may consult besides its own params."""

    n: int
    seed: int
    algorithm: Any
    communication: CommunicationModel
    neighborhood_knowledge: bool


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reconstruct one simulation run, as pure data.

    Build one directly or with :func:`make_spec`; materialize with
    :func:`build_engine` / :func:`execute`; serialize with
    :meth:`to_dict` / :meth:`to_json`.
    """

    graph: ComponentSpec
    placement: PlacementSpec
    algorithm: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("dispersion_dynamic")
    )
    communication: str = "global"
    neighborhood_knowledge: bool = True
    crash: Optional[CrashSpec] = None
    byzantine: Mapping[int, ComponentSpec] = field(default_factory=dict)
    activation: Optional[ComponentSpec] = None
    scheduler: Optional[ComponentSpec] = None
    backend: Optional[ComponentSpec] = None
    seed: int = 0
    max_rounds: Optional[int] = None
    collect_records: bool = True
    collect_snapshots: bool = False
    validate_graphs: bool = True
    allow_model_mismatch: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.communication not in ("global", "local"):
            raise SpecError(
                f"communication must be 'global' or 'local', got "
                f"{self.communication!r}"
            )
        if self.scheduler is not None and self.activation is not None:
            raise SpecError(
                "a spec takes either 'scheduler' or 'activation', not both "
                "(an activation component is shorthand for the ssync "
                "scheduler with that policy)"
            )

    @property
    def communication_model(self) -> CommunicationModel:
        """The ``communication`` field as the engine's enum."""
        return (
            CommunicationModel.GLOBAL
            if self.communication == "global"
            else CommunicationModel.LOCAL
        )

    def with_(self, **changes: Any) -> "RunSpec":
        """A copy with the given fields replaced (specs are immutable)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-serializable dict export of the spec."""
        data: Dict[str, Any] = {
            "format_version": SPEC_FORMAT_VERSION,
            "kind": "run_spec",
            "graph": self.graph.to_dict(),
            "placement": self.placement.to_dict(),
            "algorithm": self.algorithm.to_dict(),
            "communication": self.communication,
            "neighborhood_knowledge": self.neighborhood_knowledge,
            "seed": self.seed,
            "collect_records": self.collect_records,
            "collect_snapshots": self.collect_snapshots,
            "validate_graphs": self.validate_graphs,
            "allow_model_mismatch": self.allow_model_mismatch,
        }
        if self.crash is not None:
            data["crash"] = self.crash.to_dict()
        if self.byzantine:
            data["byzantine"] = {
                str(robot): spec.to_dict()
                for robot, spec in self.byzantine.items()
            }
        if self.activation is not None:
            data["activation"] = self.activation.to_dict()
        # Omitted when None (the FSYNC default) so pre-scheduler specs --
        # and their content digests -- are byte-identical.
        if self.scheduler is not None:
            data["scheduler"] = self.scheduler.to_dict()
        # Omitted when None (the reference default) so pre-backend specs
        # -- and their content digests -- are byte-identical.
        if self.backend is not None:
            data["backend"] = self.backend.to_dict()
        if self.max_rounds is not None:
            data["max_rounds"] = self.max_rounds
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        version = data.get("format_version", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise SpecError(
                f"unsupported spec format_version {version}; this library "
                f"reads version {SPEC_FORMAT_VERSION}"
            )
        crash = data.get("crash")
        activation = data.get("activation")
        scheduler = data.get("scheduler")
        backend = data.get("backend")
        return cls(
            graph=ComponentSpec.from_dict(data["graph"]),
            placement=PlacementSpec.from_dict(data["placement"]),
            algorithm=ComponentSpec.from_dict(
                data.get("algorithm", {"name": "dispersion_dynamic"})
            ),
            communication=data.get("communication", "global"),
            neighborhood_knowledge=bool(
                data.get("neighborhood_knowledge", True)
            ),
            crash=CrashSpec.from_dict(crash) if crash is not None else None,
            byzantine={
                int(robot): ComponentSpec.from_dict(spec)
                for robot, spec in data.get("byzantine", {}).items()
            },
            activation=(
                ComponentSpec.from_dict(activation)
                if activation is not None else None
            ),
            scheduler=(
                ComponentSpec.from_dict(scheduler)
                if scheduler is not None else None
            ),
            backend=(
                ComponentSpec.from_dict(backend)
                if backend is not None else None
            ),
            seed=int(data.get("seed", 0)),
            max_rounds=data.get("max_rounds"),
            collect_records=bool(data.get("collect_records", True)),
            collect_snapshots=bool(data.get("collect_snapshots", False)),
            validate_graphs=bool(data.get("validate_graphs", True)),
            allow_model_mismatch=bool(
                data.get("allow_model_mismatch", False)
            ),
            label=str(data.get("label", "")),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """The spec as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------


#: Exact types that are already canonical, as keys and as leaf values.
#: Exact, not ``isinstance``: ``str(k) == k`` holds only for an exact
#: ``str`` key (a ``(str, Enum)`` member stringifies to its name).
_CANONICAL_KEY_TYPES: FrozenSet[type] = frozenset({str})
_CANONICAL_LEAF_TYPES: FrozenSet[type] = frozenset(
    {str, int, bool, type(None)}
)


def _canonical_value(value: Any) -> Any:
    """Normalize a spec payload value for stable hashing.

    Mapping keys are stringified (JSON coerces them anyway, but *before*
    sorting, so ``{1: ...}`` and ``{"1": ...}`` hash alike), sequences
    become lists, and integral floats collapse to ints so ``1.0`` and
    ``1`` -- the same value to every component factory -- share a digest.
    Non-finite floats are rejected: they have no canonical JSON form.

    A plain ``dict`` with ``str`` keys, or a plain ``list``/``tuple``,
    whose values are all ``str``/``int``/``bool``/``None`` is already in
    that form and comes back as it is (``json.dumps`` writes a tuple as
    a list).  Its types are checked once per container, not per value.
    """
    kind = type(value)
    if kind is dict:
        if _CANONICAL_KEY_TYPES.issuperset(map(type, value)) and (
            _CANONICAL_LEAF_TYPES.issuperset(map(type, value.values()))
        ):
            return value
    elif kind is list or kind is tuple:
        if _CANONICAL_LEAF_TYPES.issuperset(map(type, value)):
            return value
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise SpecError(
                f"non-finite float {value!r} in spec; it has no canonical "
                "JSON form and cannot be content-addressed"
            )
        if value == int(value) and abs(value) < 2**53:
            return int(value)
        return value
    if isinstance(value, Mapping):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    raise SpecError(
        f"value {value!r} of type {type(value).__name__} in spec is not "
        "JSON-serializable; specs must be pure data"
    )


def canonical_json(data: Any) -> str:
    """Canonical compact JSON of a pure-data value.

    Keys are sorted at every depth, separators are compact, and values go
    through :func:`_canonical_value`, so dict insertion order and float
    spelling (``1.0`` vs ``1``) cannot change the output.  This is the
    shared serialization of every content-addressed payload in the
    library: spec digests (:func:`canonical_spec_json`), store entry
    checksums (:mod:`repro.sim.store`) and fault-plan digests
    (:mod:`repro.chaos.plan`).
    """
    return json.dumps(
        _canonical_value(data),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def canonical_spec_json(spec: "RunSpec") -> str:
    """The spec's canonical JSON: one byte string per semantic spec.

    The display ``label`` is excluded: it never influences the run.  This
    is the hashing pre-image of :func:`spec_digest`.
    """
    data = spec.to_dict()
    data.pop("label", None)
    return canonical_json(data)


def spec_digest(spec: "RunSpec", *, salt: str = CODE_VERSION_SALT) -> str:
    """Stable content hash of a spec under a code-version ``salt``.

    The sha256 of ``salt`` + newline + :func:`canonical_spec_json`.  Two
    specs share a digest iff they describe the same run under the same
    code revision; this is the key of
    :class:`~repro.sim.store.RunStore`.
    """
    payload = f"{salt}\n{canonical_spec_json(spec)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_spec(
    graph: str,
    graph_params: Optional[Mapping[str, Any]] = None,
    *,
    k: int,
    algorithm: str = "dispersion_dynamic",
    algorithm_params: Optional[Mapping[str, Any]] = None,
    placement: str = "rooted",
    seed: int = 0,
    **kwargs: Any,
) -> RunSpec:
    """Convenience constructor for the common shape of spec.

    ``graph`` / ``algorithm`` are registry names; remaining keyword
    arguments go straight to :class:`RunSpec` (``communication``,
    ``max_rounds``, ``crash``, ...).
    """
    return RunSpec(
        graph=ComponentSpec(graph, dict(graph_params or {})),
        placement=PlacementSpec(kind=placement, k=k),
        algorithm=ComponentSpec(algorithm, dict(algorithm_params or {})),
        seed=seed,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Materialization
# ----------------------------------------------------------------------


def build_algorithm(spec: RunSpec) -> Any:
    """Construct the spec's algorithm instance."""
    factory = _lookup(
        _ALGORITHM_FACTORIES, "algorithm", spec.algorithm.name
    )
    return factory(dict(spec.algorithm.params))


def build_graph(spec: RunSpec, algorithm: Any) -> Any:
    """Construct the spec's dynamic-graph process.

    ``algorithm`` is the already-built algorithm instance: adaptive
    adversaries (ring blocking mode, the impossibility adversaries) probe
    it when choosing each round's graph.
    """
    factory = _lookup(_GRAPH_FACTORIES, "graph", spec.graph.name)
    params = dict(spec.graph.params)
    n = params.get("n")
    if n is None:
        raise SpecError(
            f"graph component {spec.graph.name!r} params must include 'n'"
        )
    context = GraphBuildContext(
        n=int(n),
        seed=int(params.pop("seed", spec.seed)),
        algorithm=algorithm,
        communication=spec.communication_model,
        neighborhood_knowledge=spec.neighborhood_knowledge,
    )
    return factory(params, context)


def build_backend(component: ComponentSpec) -> Any:
    """Construct the spec's :class:`~repro.sim.backend.EngineBackend`."""
    factory = _lookup(_BACKEND_FACTORIES, "backend", component.name)
    return factory(dict(component.params))


def build_engine(spec: RunSpec, *, observers: Sequence[Any] = ()) -> Any:
    """Materialize the full :class:`~repro.sim.engine.SimulationEngine`."""
    from repro.sim.engine import SimulationEngine

    algorithm = build_algorithm(spec)
    dynamic_graph = build_graph(spec, algorithm)
    robots = spec.placement.build(dynamic_graph.n, spec.seed)
    crash_schedule = (
        spec.crash.build(robots.k, spec.seed)
        if spec.crash is not None else None
    )
    byzantine = {
        robot: _lookup(_BYZANTINE_FACTORIES, "byzantine", policy.name)(
            dict(policy.params)
        )
        for robot, policy in spec.byzantine.items()
    }
    activation = (
        _lookup(_ACTIVATION_FACTORIES, "activation", spec.activation.name)(
            dict(spec.activation.params)
        )
        if spec.activation is not None else None
    )
    scheduler = (
        _lookup(_SCHEDULER_FACTORIES, "scheduler", spec.scheduler.name)(
            dict(spec.scheduler.params)
        )
        if spec.scheduler is not None else None
    )
    backend = (
        build_backend(spec.backend) if spec.backend is not None else None
    )
    return SimulationEngine(
        dynamic_graph,
        robots,
        algorithm,
        crash_schedule=crash_schedule,
        communication=spec.communication_model,
        neighborhood_knowledge=spec.neighborhood_knowledge,
        max_rounds=spec.max_rounds,
        collect_records=spec.collect_records,
        collect_snapshots=spec.collect_snapshots,
        validate_graphs=spec.validate_graphs,
        allow_model_mismatch=spec.allow_model_mismatch,
        activation_schedule=activation,
        scheduler=scheduler,
        byzantine_policies=byzantine or None,
        backend=backend,
        observers=observers,
    )


def execute(spec: RunSpec) -> Any:
    """Build the engine from ``spec`` and run it to termination.

    This is the worker function the runners fan out: a pure function of
    the spec, importable at module level (hence picklable).
    """
    return build_engine(spec).run()


# ----------------------------------------------------------------------
# Default component registrations (lazy: avoids import cycles with
# repro.core / repro.baselines / repro.adversary, which import repro.sim)
# ----------------------------------------------------------------------


def _load_default_components() -> None:
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    _DEFAULTS_LOADED = True

    from repro.adversary.global_impossibility import CliqueRewiringAdversary
    from repro.adversary.local_impossibility import LocalStallAdversary
    from repro.adversary.star_lower_bound import StarStarAdversary
    from repro.analysis.ablation import (
        BfsTreeVariant,
        NoDisjointnessVariant,
        NoTruncationVariant,
        UnorderedLeafVariant,
    )
    from repro.baselines.dfs_local import DfsDispersionLocal
    from repro.baselines.global_candidates import GLOBAL_NO1NK_CANDIDATES
    from repro.baselines.local_candidates import LOCAL_CANDIDATES
    from repro.baselines.random_walk import RandomWalkDispersion
    from repro.baselines.randomized_anonymous import (
        RandomizedAnonymousDispersion,
    )
    from repro.baselines.ring_walk import RingWalkDispersion
    from repro.core.dispersion import DispersionDynamic
    from repro.graph import generators
    from repro.graph.dynamic import (
        RandomChurnDynamicGraph,
        StaticDynamicGraph,
        TIntervalChurnDynamicGraph,
    )
    from repro.graph.rings import RingDynamicGraph
    from repro.robots.byzantine import (
        FakeMultiplicity,
        HideMultiplicity,
        ScrambleNeighbors,
    )
    from repro.sim.scheduling import (
        AsyncScheduler,
        FsyncScheduler,
        FullActivation,
        RandomSubsetActivation,
        RoundRobinActivation,
        SsyncScheduler,
    )

    # -- graphs --------------------------------------------------------
    def _random_churn(params: Dict[str, Any], ctx: GraphBuildContext) -> RandomChurnDynamicGraph:
        return RandomChurnDynamicGraph(
            ctx.n,
            extra_edges=int(params.get("extra_edges", 0)),
            persistence=float(params.get("persistence", 0.0)),
            seed=ctx.seed,
        )

    def _t_interval(params: Dict[str, Any], ctx: GraphBuildContext) -> TIntervalChurnDynamicGraph:
        return TIntervalChurnDynamicGraph(
            ctx.n,
            interval=int(params["interval"]),
            extra_edges=int(params.get("extra_edges", 0)),
            seed=ctx.seed,
        )

    def _static_family(params: Dict[str, Any], ctx: GraphBuildContext) -> StaticDynamicGraph:
        snapshot = generators.build_family(
            params["family"], ctx.n, random.Random(ctx.seed)
        )
        return StaticDynamicGraph(snapshot)

    def _ring(params: Dict[str, Any], ctx: GraphBuildContext) -> RingDynamicGraph:
        communication = params.get("communication")
        return RingDynamicGraph(
            ctx.n,
            mode=params.get("mode", "random"),
            removal_probability=float(
                params.get("removal_probability", 0.8)
            ),
            seed=ctx.seed,
            algorithm=ctx.algorithm,
            communication=(
                CommunicationModel(communication)
                if communication is not None else None
            ),
            neighborhood_knowledge=ctx.neighborhood_knowledge,
        )

    def _star_star(params: Dict[str, Any], ctx: GraphBuildContext) -> StarStarAdversary:
        return StarStarAdversary(
            ctx.n,
            list(params.get("initial_occupied", [0])),
            seed=ctx.seed,
        )

    def _local_stall(params: Dict[str, Any], ctx: GraphBuildContext) -> LocalStallAdversary:
        return LocalStallAdversary(ctx.n, ctx.algorithm, seed=ctx.seed)

    def _clique_rewiring(params: Dict[str, Any], ctx: GraphBuildContext) -> CliqueRewiringAdversary:
        return CliqueRewiringAdversary(ctx.n, ctx.algorithm, seed=ctx.seed)

    def _fig3_static(params: Dict[str, Any], ctx: GraphBuildContext) -> StaticDynamicGraph:
        from repro.analysis.figures import build_fig3_instance

        return StaticDynamicGraph(build_fig3_instance().snapshot)

    register_graph("random_churn", _random_churn)
    register_graph("t_interval_churn", _t_interval)
    register_graph("static_family", _static_family)
    register_graph("ring", _ring)
    register_graph("star_star", _star_star)
    register_graph("local_stall", _local_stall)
    register_graph("clique_rewiring", _clique_rewiring)
    register_graph("fig3_static", _fig3_static)

    # -- algorithms ----------------------------------------------------
    register_algorithm(
        "dispersion_dynamic",
        lambda params: DispersionDynamic(
            faithful=bool(params.get("faithful", False))
        ),
    )
    register_algorithm(
        RandomWalkDispersion.name,
        lambda params: RandomWalkDispersion(
            seed=int(params.get("seed", 0)),
            lazy=bool(params.get("lazy", False)),
        ),
    )
    register_algorithm(
        RandomizedAnonymousDispersion.name,
        lambda params: RandomizedAnonymousDispersion(**params),
    )
    for no_param_cls in (
        DfsDispersionLocal,
        RingWalkDispersion,
        BfsTreeVariant,
        NoDisjointnessVariant,
        NoTruncationVariant,
        UnorderedLeafVariant,
        *LOCAL_CANDIDATES,
        *GLOBAL_NO1NK_CANDIDATES,
    ):
        register_algorithm(
            no_param_cls.name,
            (lambda cls: lambda params: cls(**params))(no_param_cls),
        )

    # -- byzantine policies --------------------------------------------
    register_byzantine(
        "hide_multiplicity", lambda params: HideMultiplicity(**params)
    )
    register_byzantine(
        "fake_multiplicity", lambda params: FakeMultiplicity(**params)
    )
    register_byzantine(
        "scramble_neighbors", lambda params: ScrambleNeighbors(**params)
    )

    # -- activation schedules ------------------------------------------
    register_activation("full", lambda params: FullActivation())
    register_activation(
        "random_subset",
        lambda params: RandomSubsetActivation(
            float(params["p"]), seed=int(params.get("seed", 0))
        ),
    )
    register_activation(
        "round_robin",
        lambda params: RoundRobinActivation(int(params["window"])),
    )

    # -- scheduler models ----------------------------------------------
    def _ssync_scheduler(params: Dict[str, Any]) -> SsyncScheduler:
        params = dict(params)
        policy_name = str(params.pop("policy", "full"))
        policy = _lookup(_ACTIVATION_FACTORIES, "activation", policy_name)(
            params
        )
        return SsyncScheduler(policy)

    register_scheduler("fsync", lambda params: FsyncScheduler())
    register_scheduler("ssync", _ssync_scheduler)
    register_scheduler(
        "async",
        lambda params: AsyncScheduler(
            seed=int(params.get("seed", 0)),
            distribution=str(params.get("distribution", "uniform")),
            max_delay=int(params.get("max_delay", 4)),
            p=float(params.get("p", 0.5)),
            move_max_delay=int(params.get("move_max_delay", 0)),
            laggards=tuple(
                int(r) for r in params.get("laggards", ())
            ),
        ),
    )

    # -- engine backends -----------------------------------------------
    from repro.sim.backend import ReferenceBackend

    register_backend("reference", lambda params: ReferenceBackend())
    try:
        from repro.sim.backend_vectorized import VectorizedBackend
    except ImportError:  # pragma: no cover - numpy is a project dep
        pass  # without numpy only the reference backend is available
    else:
        register_backend("vectorized", lambda params: VectorizedBackend())
