"""The declarative RunSpec layer: serialization and engine parity.

Covers the ISSUE's satellite contracts:

* ``RunSpec -> dict -> RunSpec`` / ``RunSpec -> json -> RunSpec``
  round-trips are the identity, property-tested over a generated grid of
  placements, crash schedules, byzantine assignments and engine knobs;
* a spec-built engine behaves **identically** to one assembled from
  direct ``SimulationEngine`` kwargs -- in particular the
  ``collect_records=False`` path and the ``allow_model_mismatch``
  override, the two knobs most at risk of drifting when the construction
  path is abstracted away.
"""

import collections
import enum
import json
import math
import random
import types
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import RandomChurnDynamicGraph
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.spec import (
    ComponentSpec,
    CrashSpec,
    PlacementSpec,
    RunSpec,
    SpecError,
    _canonical_value,
    build_engine,
    canonical_json,
    canonical_spec_json,
    execute,
    make_spec,
    spec_digest,
)
from repro.sim.traceio import run_result_to_dict


def _spec_grid():
    """A deterministic property-test grid of structurally varied specs."""
    rng = random.Random(2024)
    specs = []
    for i in range(40):
        kind = rng.choice(["rooted", "arbitrary", "explicit"])
        n = rng.randint(6, 24)
        k = rng.randint(2, n)
        if kind == "explicit":
            placement = PlacementSpec(
                kind="explicit",
                positions={
                    r + 1: rng.randrange(n) for r in range(k)
                },
            )
        elif kind == "arbitrary":
            placement = PlacementSpec(
                kind="arbitrary", k=k,
                num_occupied=rng.choice([None, max(1, k // 2)]),
            )
        else:
            placement = PlacementSpec(kind="rooted", k=k, root=rng.randrange(n))
        crash = rng.choice(
            [
                None,
                CrashSpec(kind="random", f=min(2, k), max_round=rng.randint(0, 9)),
                CrashSpec(
                    kind="events",
                    events=((1, rng.randint(0, 5), "before_communicate"),),
                ),
            ]
        )
        byzantine = rng.choice(
            [
                {},
                {1: ComponentSpec("hide_multiplicity")},
                {
                    1: ComponentSpec("scramble_neighbors"),
                    2: ComponentSpec("hide_multiplicity"),
                },
            ]
        )
        scheduler = rng.choice(
            [
                None,
                ComponentSpec("ssync", {"policy": "full"}),
                ComponentSpec(
                    "ssync", {"policy": "random_subset", "p": 0.5, "seed": i}
                ),
                ComponentSpec("ssync", {"policy": "round_robin", "window": 3}),
            ]
        )
        specs.append(
            RunSpec(
                graph=ComponentSpec(
                    "random_churn",
                    {"n": n, "extra_edges": rng.randint(0, n)},
                ),
                placement=placement,
                algorithm=ComponentSpec("dispersion_dynamic"),
                communication=rng.choice(["global", "local"]),
                neighborhood_knowledge=rng.choice([True, False]),
                crash=crash,
                byzantine=byzantine,
                scheduler=scheduler,
                seed=rng.randint(0, 10_000),
                max_rounds=rng.choice([None, rng.randint(1, 500)]),
                collect_records=rng.choice([True, False]),
                collect_snapshots=rng.choice([True, False]),
                validate_graphs=rng.choice([True, False]),
                allow_model_mismatch=rng.choice([True, False]),
                label=rng.choice(["", f"case {i}"]),
            )
        )
    return specs


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        for spec in _spec_grid():
            assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_identity(self):
        for spec in _spec_grid():
            assert RunSpec.from_json(spec.to_json()) == spec

    def test_json_is_stable_text(self):
        # Serializing twice gives the same canonical text (sorted keys).
        for spec in _spec_grid()[:10]:
            assert spec.to_json() == RunSpec.from_json(spec.to_json()).to_json()

    def test_unknown_format_version_rejected(self):
        data = _spec_grid()[0].to_dict()
        data["format_version"] = 99
        with pytest.raises(SpecError):
            RunSpec.from_dict(data)


class TestValidation:
    def test_unknown_graph_component(self):
        spec = make_spec("no_such_process", {"n": 8}, k=4)
        with pytest.raises(SpecError, match="no_such_process"):
            execute(spec)

    def test_unknown_placement_kind(self):
        with pytest.raises(SpecError):
            PlacementSpec(kind="teleport", k=3)

    def test_graph_params_require_n(self):
        spec = make_spec("random_churn", {}, k=4)
        with pytest.raises(SpecError, match="'n'"):
            execute(spec)

    def test_bad_communication_value(self):
        with pytest.raises(SpecError):
            make_spec("random_churn", {"n": 8}, k=4, communication="psychic")


def _direct_engine(**overrides):
    dyn = RandomChurnDynamicGraph(12, extra_edges=6, seed=5)
    robots = RobotSet.rooted(8, 12)
    kwargs = dict(max_rounds=96)
    kwargs.update(overrides)
    return SimulationEngine(dyn, robots, DispersionDynamic(), **kwargs)


def _base_spec(**overrides) -> RunSpec:
    spec = RunSpec(
        graph=ComponentSpec("random_churn", {"n": 12, "extra_edges": 6, "seed": 5}),
        placement=PlacementSpec(kind="rooted", k=8),
        max_rounds=96,
    )
    return spec.with_(**overrides) if overrides else spec


class TestEngineParity:
    """collect_records / allow_model_mismatch must not drift between the
    direct-kwargs path and the spec path (the ISSUE's latent-drift fix)."""

    def test_default_paths_identical(self):
        assert run_result_to_dict(execute(_base_spec())) == run_result_to_dict(
            _direct_engine().run()
        )

    def test_collect_records_false_identical(self):
        via_spec = execute(_base_spec(collect_records=False))
        direct = _direct_engine(collect_records=False).run()
        assert run_result_to_dict(via_spec) == run_result_to_dict(direct)
        # ...and the knob actually took effect on both paths.
        assert via_spec.records == []
        assert direct.records == []
        # Headline metrics survive the records being dropped.
        with_records = execute(_base_spec())
        assert via_spec.rounds == with_records.rounds
        assert via_spec.total_moves == with_records.total_moves
        assert via_spec.final_positions == with_records.final_positions

    def test_model_mismatch_raises_on_both_paths(self):
        with pytest.raises(ValueError, match="allow_model_mismatch"):
            _direct_engine(neighborhood_knowledge=False)
        with pytest.raises(ValueError, match="allow_model_mismatch"):
            build_engine(_base_spec(neighborhood_knowledge=False))

    def test_model_mismatch_override_identical(self):
        via_spec = execute(
            _base_spec(neighborhood_knowledge=False, allow_model_mismatch=True)
        )
        direct = _direct_engine(
            neighborhood_knowledge=False, allow_model_mismatch=True
        ).run()
        assert run_result_to_dict(via_spec) == run_result_to_dict(direct)

    def test_collect_snapshots_identical(self):
        via_spec = execute(_base_spec(collect_snapshots=True))
        direct = _direct_engine(collect_snapshots=True).run()
        assert run_result_to_dict(via_spec) == run_result_to_dict(direct)


class TestDigest:
    """Content-addressed spec hashing: canonical form and stability."""

    def _spec(self, **overrides):
        kwargs = {"k": 8, "seed": 3, **overrides}
        return make_spec("random_churn", {"n": 16, "extra_edges": 8}, **kwargs)

    def test_known_digest_is_pinned(self):
        # Regression pin: if this moves, every existing run store silently
        # invalidates.  Bump CODE_VERSION_SALT (and this constant) only on
        # deliberate semantic changes to specs or results.
        assert spec_digest(self._spec()) == (
            "5f55ade978d63ef8f71e9628c75e4b31c2b48035a2a1c2863b9989e15e0f0838"
        )

    def test_digest_insensitive_to_dict_key_order(self):
        a = make_spec("random_churn", {"n": 16, "extra_edges": 8}, k=8, seed=3)
        b = make_spec("random_churn", {"extra_edges": 8, "n": 16}, k=8, seed=3)
        assert canonical_spec_json(a) == canonical_spec_json(b)
        assert spec_digest(a) == spec_digest(b)

    def test_digest_insensitive_to_float_formatting(self):
        a = make_spec("random_churn", {"n": 16, "extra_edges": 8}, k=8, seed=3)
        b = make_spec(
            "random_churn", {"n": 16, "extra_edges": 8.0}, k=8, seed=3
        )
        assert spec_digest(a) == spec_digest(b)

    def test_label_is_cosmetic(self):
        assert spec_digest(self._spec()) == spec_digest(
            self._spec(label="pretty name")
        )

    def test_semantic_fields_change_the_digest(self):
        base = spec_digest(self._spec())
        assert spec_digest(self._spec(seed=4)) != base
        assert spec_digest(
            make_spec("random_churn", {"n": 16, "extra_edges": 9}, k=8, seed=3)
        ) != base

    def test_salt_changes_the_digest(self):
        spec = self._spec()
        assert spec_digest(spec) != spec_digest(spec, salt="results2")

    def test_non_finite_floats_rejected(self):
        spec = self._spec().with_(
            graph=ComponentSpec("random_churn", {"n": 16, "p": float("nan")})
        )
        with pytest.raises(SpecError, match="non-finite"):
            canonical_spec_json(spec)


# ----------------------------------------------------------------------
# The canonical form against a per-scalar oracle
# ----------------------------------------------------------------------


def _oracle_canonical_value(value):
    """The per-scalar canonical form: every container rebuilt, every
    scalar visited.  ``canonical_json`` must give the same bytes."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise SpecError(f"non-finite float {value!r}")
        if value == int(value) and abs(value) < 2**53:
            return int(value)
        return value
    if isinstance(value, Mapping):
        return {str(k): _oracle_canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_oracle_canonical_value(v) for v in value]
    raise SpecError(f"value {value!r} is not JSON-serializable")


def _oracle_canonical_json(data):
    return json.dumps(
        _oracle_canonical_value(data),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


class _Color(str, enum.Enum):
    RED = "red"
    BLUE = "blue"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 12


_CANONICAL_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4)
)
_KEYS = st.one_of(
    st.text(max_size=4),
    # 10 < 9 as strings: stringified before sorting, they sort as text
    st.integers(min_value=10, max_value=10**6),
    st.booleans(),
    st.sampled_from(list(_Color)),
)
_FLOATS = st.one_of(
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    st.sampled_from(
        [2.0**53, -(2.0**53), 2.0**53 + 2, 1e300, 0.5, -0.0,
         math.nan, math.inf, -math.inf]
    ),
    st.floats(),
)
_ODD_LEAVES = st.one_of(
    st.sampled_from(list(_Level)),
    st.sets(st.integers(), max_size=2),
    st.binary(max_size=2),
    st.builds(object),
)


def _containers(children):
    dicts = st.dictionaries(_KEYS, children, max_size=4)
    return st.one_of(
        st.dictionaries(st.text(max_size=4), _CANONICAL_LEAVES, max_size=4),
        st.lists(_CANONICAL_LEAVES, max_size=4),
        dicts,
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        dicts.map(collections.OrderedDict),
        dicts.map(types.MappingProxyType),
    )


_VALUES = st.recursive(
    st.one_of(_CANONICAL_LEAVES, _FLOATS, _ODD_LEAVES),
    _containers,
    max_leaves=12,
)


def _outcome(canonicalize, value):
    try:
        return canonicalize(value)
    except Exception as error:  # the exception type is the outcome
        return type(error)


class TestCanonicalForm:
    """``canonical_json`` checks types per container; a per-scalar
    oracle pins that it writes the same bytes, or raises the same way."""

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_matches_the_per_scalar_oracle(self, value):
        assert _outcome(canonical_json, value) == _outcome(
            _oracle_canonical_json, value
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.dictionaries(st.text(), _CANONICAL_LEAVES),
            st.lists(_CANONICAL_LEAVES),
            st.lists(_CANONICAL_LEAVES).map(tuple),
        )
    )
    def test_canonical_container_comes_back_as_is(self, value):
        assert _canonical_value(value) is value
