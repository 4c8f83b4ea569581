"""Tests for effect inference and the E/M/S contracts of ``repro lint --all``.

Fixture packages are written under ``tmp_path`` exactly like the
taint-path suite and indexed with the same ``build_index`` the CLI
uses.  The suite pins the effect-summary semantics (aliases, augmented
subscripts, comprehensions, lambdas, ``functools.partial``, numpy
in-place operations, registry dispatch), every E/M/S contract rule with
its fingerprint and call-chain message, every payload write form an
observer hook can take (E003 is the only hook-mutation detector), the
CLI exit-code contract, and the guard that the repository self-check
really sees the reference backend's phase mutations.
"""

import textwrap

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.deep import run_whole_program_analysis
from repro.lint.deep.callgraph import build_call_graph
from repro.lint.deep.contracts import check_contracts
from repro.lint.deep.effects import infer_effects, witness_chain
from repro.lint.deep.modindex import build_index

def build(root, files):
    """Write a fixture tree and index it (``__init__.py`` chain included)."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip("\n"))
    for rel in files:
        parent = (root / rel).parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
    return build_index([root])


def summaries_of(root, files):
    graph = build_call_graph(build(root, files))
    return graph, infer_effects(graph)


def contract_findings(root, files):
    graph, summaries = summaries_of(root, files)
    return check_contracts(graph, summaries)


def effect_keys(summaries, qualname):
    return set(summaries[qualname].effects)


# ----------------------------------------------------------------------
# Effect summaries: the direct pass
# ----------------------------------------------------------------------


class TestDirectEffects:
    def test_param_subscript_and_attribute_stores(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def f(d, obj):
                        d["k"] = 1
                        obj.field = 2
                    """,
            },
        )
        assert effect_keys(summaries, "pkg.m.f") == {
            ("mut", 0, ()),
            ("mut", 1, ("field",)),
        }

    def test_augmented_assignment_to_subscript(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def f(counts, key):
                        counts[key] += 1
                    """,
            },
        )
        assert ("mut", 0, ()) in effect_keys(summaries, "pkg.m.f")

    def test_numpy_style_inplace_ops(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def bump(arr):
                        arr += 1

                    def mask_zero(arr, mask):
                        arr[mask] = 0

                    def wipe(arr):
                        arr.fill(0)
                    """,
            },
        )
        assert ("mut", 0, ()) in effect_keys(summaries, "pkg.m.bump")
        assert ("mut", 0, ()) in effect_keys(summaries, "pkg.m.mask_zero")
        assert ("mut", 0, ()) in effect_keys(summaries, "pkg.m.wipe")

    def test_plain_rebinding_is_not_a_mutation(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def f(x):
                        x = x + 1
                        return x
                    """,
            },
        )
        assert effect_keys(summaries, "pkg.m.f") == set()

    def test_local_alias_reaches_the_parameter(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def f(payload):
                        rr = payload
                        rr.robots.clear()
                    """,
            },
        )
        assert ("mut", 0, ("robots",)) in effect_keys(summaries, "pkg.m.f")

    def test_rebound_parameter_is_severed(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def f(d):
                        d = {}
                        d["k"] = 1
                    """,
            },
        )
        assert effect_keys(summaries, "pkg.m.f") == set()

    def test_mutation_inside_comprehension(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def f(seen, items):
                        return [seen.add(x) for x in items]
                    """,
            },
        )
        assert ("mut", 0, ()) in effect_keys(summaries, "pkg.m.f")

    def test_mutation_inside_local_lambda_charges_encloser(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def f(log):
                        emit = lambda x: log.append(x)
                        return emit
                    """,
            },
        )
        assert ("mut", 0, ()) in effect_keys(summaries, "pkg.m.f")

    def test_shadowed_name_in_nested_def_is_not_charged(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def f(log):
                        def inner(log):
                            log.append(1)
                        return inner
                    """,
            },
        )
        # inner's ``log`` shadows f's parameter; f itself is pure.
        assert effect_keys(summaries, "pkg.m.f") == set()

    def test_global_write_and_io_detection(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    REGISTRY = {}

                    def register(name):
                        REGISTRY[name] = 1

                    def report(path, text):
                        path.write_text(text)
                    """,
            },
        )
        assert ("global", "pkg.m.REGISTRY") in effect_keys(
            summaries, "pkg.m.register"
        )
        assert ("io", ".write_text()") in effect_keys(
            summaries, "pkg.m.report"
        )


# ----------------------------------------------------------------------
# Effect summaries: propagation through the call graph
# ----------------------------------------------------------------------


class TestPropagation:
    def test_mutation_propagates_through_helper(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def helper(d):
                        d["k"] = 1

                    def caller(payload):
                        helper(payload)
                    """,
            },
        )
        assert ("mut", 0, ()) in effect_keys(summaries, "pkg.m.caller")

    def test_witness_chain_names_the_leaf(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def leaf(d):
                        d["k"] = 1

                    def mid(d):
                        leaf(d)

                    def top(payload):
                        mid(payload)
                    """,
            },
        )
        chain, direct = witness_chain(summaries, "pkg.m.top", ("mut", 0, ()))
        assert chain == ["pkg.m.top", "pkg.m.mid", "pkg.m.leaf"]
        assert direct is not None and direct.detail == "subscript store"

    def test_partial_wrapped_mutator(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    import functools

                    def add_item(d, value):
                        d["k"] = value

                    def run(payload):
                        handler = functools.partial(add_item, payload)
                        return handler
                    """,
            },
        )
        assert ("mut", 0, ()) in effect_keys(summaries, "pkg.m.run")

    def test_method_call_binds_receiver(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    class Buf:
                        def push(self, x):
                            self.items.append(x)

                    class Holder:
                        def __init__(self):
                            self.buf = Buf()

                        def run(self, x):
                            self.buf.push(x)
                    """,
            },
        )
        # ``self.buf.push(x)`` dispatches into Buf.push; its self-rooted
        # mutation re-roots onto the caller's ``self.buf`` receiver.
        assert ("mut", 0, ("buf", "items")) in effect_keys(
            summaries, "pkg.m.Holder.run"
        )

    def test_registry_dispatch_carries_global_write(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/reg.py": """
                    _FACTORIES = {}
                    COUNTS = {}

                    def register(name, factory):
                        _FACTORIES[name] = factory
                        return factory

                    def counting_factory():
                        COUNTS["made"] = 1

                    def _load():
                        register("counting", counting_factory)

                    def dispatch(name):
                        return _FACTORIES[name]()
                    """,
            },
        )
        # The factory is reached only through the registry; its global
        # write must still surface in the dispatcher's summary.
        assert ("global", "pkg.reg.COUNTS") in effect_keys(
            summaries, "pkg.reg.dispatch"
        )

    def test_pure_pipeline_stays_pure(self, tmp_path):
        _, summaries = summaries_of(
            tmp_path,
            {
                "pkg/m.py": """
                    def double(x):
                        return x * 2

                    def run(values):
                        return [double(v) for v in values]
                    """,
            },
        )
        assert effect_keys(summaries, "pkg.m.run") == set()


# ----------------------------------------------------------------------
# E-rules: backend phases and observer hooks
# ----------------------------------------------------------------------

BACKEND_PREAMBLE = "class EngineBackend:\n    pass\n\n\n"


def backend_module(body):
    """A fixture module: the EngineBackend stub plus a dedented body."""
    return BACKEND_PREAMBLE + textwrap.dedent(body).lstrip("\n")


#: A backend whose observe phase writes engine positions (E001).
BAD_BACKEND = {
    "pkg/backend.py": backend_module("""
        class BadBackend(EngineBackend):
            def observe(self, state, snapshot, round_index):
                engine = self.engine
                engine._positions[0] = 3
        """),
}


class TestPhaseContracts:
    def test_e001_wrong_phase_engine_mutation(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/backend.py": backend_module("""
                    class BadBackend(EngineBackend):
                        def observe(self, state, snapshot, round_index):
                            engine = self.engine
                            engine._positions[0] = 3
                            return {}
                    """),
            },
        )
        assert [fp for _, fp in findings] == [
            "E001|pkg.backend.BadBackend.observe|_positions"
        ]
        finding = findings[0][0]
        assert finding.code == "E001"
        assert "`observe` mutates engine state `_positions`" in finding.message
        assert "(allowed: none)" in finding.message

    def test_e001_state_each_phase_no_longer_owns(self, tmp_path):
        # observe used to charge the packet counters and move/settle to
        # write positions; the engine owns all of that now.
        findings = contract_findings(
            tmp_path,
            {
                "pkg/backend.py": backend_module("""
                    class OldBackend(EngineBackend):
                        def observe(self, state, snapshot, round_index):
                            engine = self.engine
                            engine._packets_broadcast += 1
                            return {}

                        def move(self, state, snapshot, round_index,
                                 decisions, activation):
                            engine = self.engine
                            engine._positions[0] = 1

                        def settle(self, state, round_index):
                            self.engine.algorithm.memory.clear()
                    """),
            },
        )
        assert sorted(fp for _, fp in findings) == [
            "E001|pkg.backend.OldBackend.move|_positions",
            "E001|pkg.backend.OldBackend.observe|_packets_broadcast",
            "E001|pkg.backend.OldBackend.settle|algorithm",
        ]

    def test_e001_transitive_through_helper(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/backend.py": backend_module("""
                    def scramble(engine):
                        engine._entry_ports.clear()

                    class SneakyBackend(EngineBackend):
                        def move(self, state, snapshot, round_index,
                                 decisions, activation):
                            scramble(self.engine)
                    """),
            },
        )
        assert [fp for _, fp in findings] == [
            "E001|pkg.backend.SneakyBackend.move|_entry_ports"
        ]
        message = findings[0][0].message
        assert "pkg.backend.SneakyBackend.move -> pkg.backend.scramble" in (
            message
        )
        assert "call to .clear()" in message

    def test_allowed_phase_mutations_are_clean(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/backend.py": backend_module("""
                    from dataclasses import replace

                    class FineBackend(EngineBackend):
                        def observe(self, state, snapshot, round_index):
                            self._scratch = {}
                            return {}

                        def activate(self, state, round_index):
                            self.engine.scheduler.queue.append(round_index)

                        def compute(self, state, snapshot, round_index,
                                    observations, active):
                            engine = self.engine
                            engine.algorithm.memory[0] = 1
                            return {}

                        def move(self, state, snapshot, round_index,
                                 decisions, activation):
                            positions = dict(state.positions)
                            positions[0] = 1
                            return replace(state, positions=positions), [0]
                    """),
            },
        )
        assert findings == []

    def test_e002_move_writes_its_state(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/backend.py": backend_module("""
                    class InPlaceBackend(EngineBackend):
                        def move(self, state, snapshot, round_index,
                                 decisions, activation):
                            state.positions[0] = 1
                            return state, [0]
                    """),
            },
        )
        assert [fp for _, fp in findings] == [
            "E002|pkg.backend.InPlaceBackend.move|state"
        ]
        assert "`move` mutates its `state` payload parameter" in (
            findings[0][0].message
        )

    def test_e002_phase_mutates_payload(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/backend.py": backend_module("""
                    def note(observations):
                        observations["seen"] = True

                    class LeakyBackend(EngineBackend):
                        def compute(self, observations):
                            note(observations)
                            return observations
                    """),
            },
        )
        assert [fp for _, fp in findings] == [
            "E002|pkg.backend.LeakyBackend.compute|observations"
        ]
        assert "pkg.backend.note" in findings[0][0].message

    def test_e004_phase_performs_io(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/backend.py": backend_module("""
                    class ChattyBackend(EngineBackend):
                        def settle(self, state, round_index):
                            print(round_index)
                    """),
            },
        )
        assert [fp for _, fp in findings] == [
            "E004|pkg.backend.ChattyBackend.settle|print"
        ]

    def test_backend_naming_convention_is_enough(self, tmp_path):
        # No EngineBackend base anywhere: the *Backend-with-phase-methods
        # convention still brings the class under the contract.
        findings = contract_findings(
            tmp_path,
            {
                "pkg/exotic.py": """
                    class FancyBackend:
                        def observe(self, state, snapshot, round_index):
                            engine = self.engine
                            engine._positions.clear()
                    """,
            },
        )
        assert [fp for _, fp in findings] == [
            "E001|pkg.exotic.FancyBackend.observe|_positions"
        ]

    def test_non_backend_class_is_out_of_scope(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/other.py": """
                    class Collector:
                        def observe(self, state, snapshot, round_index):
                            engine = self.engine
                            engine._positions.clear()
                    """,
            },
        )
        assert findings == []


class TestHookContracts:
    ALIAS_HOOK = {
        "pkg/obs.py": """
            class TraceObserver:
                def on_round_end(self, payload):
                    rr = payload
                    rr.robots.clear()
            """,
    }

    #: Every payload write form an observer hook can take, as
    #: (class header, hook parameters, hook body, mutated parameter,
    #: line of the write).
    WRITE_FORMS = {
        "attribute-store": (
            "class TraceObserver:", "self, payload",
            "payload.num_moves = 0", "payload", 3,
        ),
        "subscript-store": (
            "class TraceObserver:", "self, payload",
            "payload[0] = 1", "payload", 3,
        ),
        "delete": (
            "class TraceObserver:", "self, payload",
            "del payload.robots", "payload", 3,
        ),
        "augmented-assignment": (
            "class TraceObserver:", "self, payload",
            "payload.count += 1", "payload", 3,
        ),
        "annotated-assignment": (
            "class TraceObserver:", "self, payload",
            "payload.count: int = 0", "payload", 3,
        ),
        "mutating-method": (
            "class TraceObserver:", "self, payload",
            "payload.robots.append(1)", "payload", 3,
        ),
        "keyword-only-parameter": (
            "class TraceObserver:", "self, *, payload",
            "payload.count = 0", "payload", 3,
        ),
        "varargs-parameter": (
            "class TraceObserver:", "self, *payloads",
            "payloads[0].count = 0", "payloads", 3,
        ),
        "nested-def": (
            "class TraceObserver:", "self, payload",
            "def reset():\n            payload.count = 0\n        reset()",
            "payload", 4,
        ),
        "observer-base-class": (
            "class Tracer(RoundObserver):", "self, payload",
            "payload.count = 0", "payload", 3,
        ),
    }

    @pytest.mark.parametrize("form", sorted(WRITE_FORMS))
    def test_e003_flags_every_payload_write_form(self, tmp_path, form):
        header, params, body, param, line = self.WRITE_FORMS[form]
        source = (
            f"{header}\n"
            f"    def on_round_end({params}):\n"
            f"        {body}\n"
        )
        findings = contract_findings(tmp_path, {"pkg/obs.py": source})
        owner = header[len("class "):].split("(")[0].rstrip(":")
        assert [fp for _, fp in findings] == [
            f"E003|pkg.obs.{owner}.on_round_end|{param}"
        ]
        assert findings[0][0].line == line

    def test_observer_owned_state_is_clean(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/obs.py": """
                    class CountingObserver:
                        def on_round_end(self, payload):
                            self.last = payload
                            self.moves.append(payload.num_moves)
                    """,
            },
        )
        assert findings == []

    def test_e003_catches_the_alias(self, tmp_path):
        findings = contract_findings(tmp_path, self.ALIAS_HOOK)
        assert [fp for _, fp in findings] == [
            "E003|pkg.obs.TraceObserver.on_round_end|payload"
        ]
        assert "on_round_end" in findings[0][0].message

    def test_e003_transitive_mutation(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/obs.py": """
                    def prune(snapshot):
                        snapshot.robots.pop(0)

                    class PruningObserver:
                        def on_round_start(self, snapshot):
                            prune(snapshot)
                    """,
            },
        )
        assert [fp for _, fp in findings] == [
            "E003|pkg.obs.PruningObserver.on_round_start|snapshot"
        ]

    def test_read_only_hook_is_clean(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/obs.py": """
                    class CountingObserver:
                        def on_round_end(self, payload):
                            self.rounds = getattr(self, "rounds", 0) + 1
                            return len(payload.robots)
                    """,
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# M-rules: mutation after fork-boundary capture
# ----------------------------------------------------------------------


class TestCaptureContracts:
    def test_m001_direct_mutation_after_submit(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/sim/runner.py": """
                    def run_all(pool, units, shared):
                        futures = [pool.submit(work, shared) for _ in units]
                        shared["late"] = True
                        return futures

                    def work(shared):
                        return shared
                    """,
            },
        )
        assert [fp for _, fp in findings] == [
            "M001|pkg.sim.runner.run_all|shared"
        ]
        assert "captured by a submitted work unit" in findings[0][0].message

    def test_m001_transitive_mutation_after_submit(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/sim/runner.py": """
                    def poison(config):
                        config["late"] = True

                    def run_all(pool, units, config):
                        futures = [pool.submit(work, config) for _ in units]
                        poison(config)
                        return futures

                    def work(config):
                        return config
                    """,
            },
        )
        assert [fp for _, fp in findings] == [
            "M001|pkg.sim.runner.run_all|config"
        ]
        assert "pkg.sim.runner.poison" in findings[0][0].message

    def test_mutation_before_submit_is_clean(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/sim/runner.py": """
                    def run_all(pool, units, shared):
                        shared["early"] = True
                        return [pool.submit(work, shared) for _ in units]

                    def work(shared):
                        return shared
                    """,
            },
        )
        assert findings == []

    def test_outside_fork_scope_is_clean(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/other.py": """
                    def run_all(pool, units, shared):
                        futures = [pool.submit(work, shared) for _ in units]
                        shared["late"] = True
                        return futures

                    def work(shared):
                        return shared
                    """,
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# S-rules: spec serialization / digest stability
# ----------------------------------------------------------------------


class TestSpecContracts:
    def test_s001_defaulted_field_emitted_unconditionally(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/sim/spec.py": """
                    class RunSpec:
                        seed: int = 0
                        shiny: int = 0

                        def to_dict(self):
                            return {
                                "seed": self.seed,
                                "shiny": self.shiny,
                            }
                    """,
            },
        )
        assert [fp for _, fp in findings] == [
            "S001|pkg.sim.spec.RunSpec|shiny"
        ]
        assert "serialized unconditionally" in findings[0][0].message

    def test_guarded_emission_is_clean(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/sim/spec.py": """
                    class RunSpec:
                        seed: int = 0
                        shiny: int = 0

                        def to_dict(self):
                            data = {"seed": self.seed}
                            if self.shiny:
                                data["shiny"] = self.shiny
                            return data
                    """,
            },
        )
        assert findings == []

    def test_s002_field_never_serialized(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/sim/spec.py": """
                    class WidgetSpec:
                        kind: str
                        forgotten: int = 0

                        def to_dict(self):
                            return {"kind": self.kind}
                    """,
            },
        )
        assert [fp for _, fp in findings] == [
            "S002|pkg.sim.spec.WidgetSpec|forgotten"
        ]
        assert "never reaches to_dict" in findings[0][0].message

    def test_label_exemption_and_baseline_grandfather(self, tmp_path):
        # ``label`` is digest-exempt by design; the format-v1 baseline
        # fields may stay unconditional.
        findings = contract_findings(
            tmp_path,
            {
                "pkg/sim/spec.py": """
                    class RunSpec:
                        seed: int = 0
                        label: str = ""

                        def to_dict(self):
                            return {"seed": self.seed}
                    """,
            },
        )
        assert findings == []

    def test_spec_outside_scope_is_ignored(self, tmp_path):
        findings = contract_findings(
            tmp_path,
            {
                "pkg/config.py": """
                    class RunSpec:
                        shiny: int = 0

                        def to_dict(self):
                            return {"shiny": self.shiny}
                    """,
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# Driver and CLI
# ----------------------------------------------------------------------


class TestEffectsCli:
    def test_fixing_the_violation_reports_stale(self, tmp_path, capsys):
        build(tmp_path, BAD_BACKEND)
        argv = [
            "--all",
            "--no-cache",
            "--baseline",
            str(tmp_path / "baseline.json"),
            str(tmp_path),
        ]
        lint_main(argv + ["--update-baseline"])
        capsys.readouterr()
        (tmp_path / "pkg" / "backend.py").write_text(
            textwrap.dedent(BACKEND_PREAMBLE).lstrip("\n")
        )
        assert lint_main(argv) == 1
        out = capsys.readouterr().out
        assert "B001" in out and "- stale:" in out

    def test_deep_and_effects_together_is_a_usage_error(self, capsys):
        # Both per-family flags are retired in favour of the one --all
        # pass, so asking for either (or both) is rejected outright.
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["--deep", "--effects"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --deep --effects" in err

    def test_select_with_effects_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["--effects", "--select", "E"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --effects" in capsys.readouterr().err
        assert lint_main(["--all", "--select", "E"]) == 2
        assert "--select picks shallow rules" in capsys.readouterr().err

    def test_internal_error_exits_two(self, tmp_path, capsys, monkeypatch):
        build(tmp_path, {"pkg/a.py": "x = 1\n"})

        def boom(*args, **kwargs):
            raise RuntimeError("analyzer exploded")

        monkeypatch.setattr(
            "repro.lint.deep.run_whole_program_analysis", boom
        )
        assert lint_main(["--all", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "internal error" in err and "analyzer exploded" in err

    def test_no_cache_skips_the_cache_dir(self, tmp_path, capsys, monkeypatch):
        # Lint keeps no cache: --no-cache is accepted and changes nothing.
        build(tmp_path, {"pkg/a.py": "x = 1\n"})
        monkeypatch.chdir(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        for flags in (["--no-cache"], []):
            argv = ["--all", *flags, "--baseline", baseline, str(tmp_path)]
            assert lint_main(argv) == 0
            assert not (tmp_path / ".lint-cache").exists()
        capsys.readouterr()

    def test_json_report_shape(self, tmp_path, capsys):
        build(tmp_path, BAD_BACKEND)
        baseline = str(tmp_path / "baseline.json")
        assert (
            lint_main(
                [
                    "--all",
                    "--no-cache",
                    "--json",
                    "--baseline",
                    baseline,
                    str(tmp_path),
                ]
            )
            == 1
        )
        import json

        data = json.loads(capsys.readouterr().out)
        tier = data["tiers"]["whole_program"]
        assert tier["kind"] == "reprolint_report"
        assert [f["code"] for f in tier["findings"]] == ["E001"]

    def test_list_rules_mentions_whole_program_families(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("E001", "E003", "M001", "S001", "S002", "B001"):
            assert code in out


class TestSuppression:
    def test_inline_suppression_is_honoured(self, tmp_path):
        build(
            tmp_path,
            {
                "pkg/obs.py": """
                    class TraceObserver:
                        def on_round_end(self, payload):
                            rr = payload
                            rr.robots.clear()  # reprolint: disable=E003
                    """,
            },
        )
        result = run_whole_program_analysis(
            [tmp_path], baseline_path=tmp_path / "baseline.json"
        )
        assert result.report.ok
        assert result.report.suppressed == 1


# ----------------------------------------------------------------------
# Self-check: the repository tree against its committed baseline
# ----------------------------------------------------------------------


class TestSelfCheck:
    def test_repo_tree_has_no_drift_against_committed_baseline(
        self, repo_lint
    ):
        assert repo_lint.report.ok, [
            finding.render() for finding in repo_lint.report.findings
        ]
        assert repo_lint.new == [] and repo_lint.stale == []
        # none of the effect-contract families is waived by the baseline
        assert not [
            fingerprint
            for fingerprint in repo_lint.fingerprints
            if fingerprint[0] in "EMS"
        ]

    def test_repo_phase_mutations_are_visible_to_the_analysis(
        self, repo_lint
    ):
        # Guard against a vacuously clean self-check: the phase bodies
        # are summarized (the vectorized observe's write to its own
        # per-round arrays is visible), and the reference move's fresh
        # copies are not mistaken for writes to the state it is handed.
        summaries = repo_lint.summaries
        observe = summaries[
            "repro.sim.backend_vectorized.VectorizedBackend.observe"
        ]
        assert ("mut", 0, ("_round",)) in observe.effects
        move = summaries["repro.sim.backend.ReferenceBackend.move"]
        assert not list(move.mutated_params())
