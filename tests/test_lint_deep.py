"""Tests for the whole-program pass of ``repro lint --all``: taint paths.

Fixture packages are written under ``tmp_path`` (with ``__init__.py``
files so the module indexer derives real dotted names) and indexed with
the same ``build_index`` the CLI uses.  The suite pins the call-graph
resolution cases the engine promises (cycles, re-exports, registry
factories, method dispatch, deferred imports), the exact taint-path
message format, the fork-safety F-rules, the one driver's baseline
drift gate, its shared index/call-graph/effects build over one load
of each file (and one P001 per broken file), and the
``--all`` CLI cycle for every rule family -- plus the self-check that
the repository's own tree is clean against the committed baseline.
"""

import json
import pathlib
import textwrap

import pytest

from repro.lint.deep import (
    BASELINE_KIND,
    BaselineError,
    diff_baseline,
    load_baseline,
    render_baseline,
    run_whole_program_analysis,
    write_baseline,
)
from repro.lint.deep.callgraph import build_call_graph
from repro.lint.deep.concurrency import check_fork_safety
from repro.lint.deep.modindex import build_index
from repro.lint.deep.taint import collect_seeds, trace_taint_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import lint_source
from tests.test_lint_effects import BAD_BACKEND
from tests.test_lint_robotmodel import HIDDEN_STATE

REPO = pathlib.Path(__file__).resolve().parent.parent


def build(root, files):
    """Write a fixture tree and index it.

    Every directory between a written file and ``root`` gets an
    ``__init__.py`` (unless the fixture supplies one), so dotted module
    names resolve the same way they do for the real package.
    """
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


def graph_of(root, files):
    return build_call_graph(build(root, files))


#: The acceptance-criterion fixture: a tainted helper two call hops away
#: from the deterministic core.
TWO_HOP_TAINT = {
    "pkg/sim/engine.py": """
        from pkg.util.helper import decorate

        def run():
            return decorate()
        """,
    "pkg/util/helper.py": """
        from pkg.util.clock import stamp

        def decorate():
            return stamp()
        """,
    "pkg/util/clock.py": """
        import time

        def stamp():
            return time.time()
        """,
}


# ----------------------------------------------------------------------
# Module indexing
# ----------------------------------------------------------------------


class TestModuleIndex:
    def test_dotted_names_derived_from_package_layout(self, tmp_path):
        index = build(tmp_path, TWO_HOP_TAINT)
        assert "pkg.sim.engine" in index.modules
        assert "pkg.util.clock.stamp" in index.functions
        assert index.files_indexed == 6  # 3 modules + 3 __init__.py

    def test_annotated_registry_dict_is_indexed(self, tmp_path):
        index = build(
            tmp_path,
            {
                "pkg/reg.py": """
                    from typing import Any, Callable, Dict

                    _FACTORIES: Dict[str, Callable[[], Any]] = {}
                    """,
            },
        )
        assert "_FACTORIES" in index.modules["pkg.reg"].registry_dicts

    def test_syntax_error_is_recorded_not_fatal(self, tmp_path):
        index = build(
            tmp_path,
            {"pkg/ok.py": "x = 1\n", "pkg/bad.py": "def broken(:\n"},
        )
        assert "pkg.ok" in index.modules
        assert "pkg.bad" not in index.modules
        assert len(index.parse_errors) == 1
        assert index.parse_errors[0].path.endswith("pkg/bad.py")


# ----------------------------------------------------------------------
# Call-graph resolution
# ----------------------------------------------------------------------


class TestCallGraph:
    def test_cyclic_modules_resolve_both_directions(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/a.py": """
                    from pkg import b

                    def ping():
                        return b.pong()
                    """,
                "pkg/b.py": """
                    from pkg import a

                    def pong():
                        return a.ping()
                    """,
            },
        )
        assert "pkg.b.pong" in graph.callees("pkg.a.ping")
        assert "pkg.a.ping" in graph.callees("pkg.b.pong")
        # and the taint tracer's BFS terminates on the cycle
        trace_taint_paths(graph, core_paths=("pkg/a.py",))

    def test_re_exported_name_resolves_to_defining_module(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/impl.py": """
                    def helper():
                        return 1
                    """,
                "pkg/__init__.py": "from pkg.impl import helper\n",
                "main.py": """
                    from pkg import helper

                    def use():
                        return helper()
                    """,
            },
        )
        assert "pkg.impl.helper" in graph.callees("main.use")

    def test_registry_factory_and_method_resolution(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/registry.py": """
                    _FACTORIES = {}

                    def register(name, factory):
                        _FACTORIES[name] = factory
                        return factory

                    def create(name):
                        return _FACTORIES[name]()
                    """,
                "pkg/things.py": """
                    from pkg.registry import register

                    class Ring:
                        def __init__(self):
                            self.n = 0

                        def spin(self):
                            return self.n

                    def _make_ring():
                        return Ring()

                    def _load():
                        register("ring", _make_ring)

                    def drive():
                        ring = Ring()
                        return ring.spin()
                    """,
            },
        )
        # registration through the registrar function is observed ...
        assert graph.registries["pkg.registry._FACTORIES"] == {
            "pkg.things._make_ring"
        }
        # ... so the dict's consumer dispatches to every member
        assert "pkg.things._make_ring" in graph.callees("pkg.registry.create")
        # factory -> constructor, and local-variable method dispatch
        assert "pkg.things.Ring.__init__" in graph.callees(
            "pkg.things._make_ring"
        )
        assert "pkg.things.Ring.spin" in graph.callees("pkg.things.drive")

    def test_attribute_chain_dispatch_through_instance_attribute(
        self, tmp_path
    ):
        # ``self.runner.run()`` resolves through the class's inferred
        # attribute type -- including the ``param or Default()`` idiom
        # and annotated assignments -- and covers subclass overrides.
        graph = graph_of(
            tmp_path,
            {
                "pkg/sim/engine.py": """
                    from pkg.sim.backend import ReferenceBackend

                    class Engine:
                        def __init__(self, backend=None):
                            self._backend = backend or ReferenceBackend()

                        def step(self):
                            return self._backend.observe()
                    """,
                "pkg/sim/backend.py": """
                    class ReferenceBackend:
                        def observe(self):
                            return 1

                    class VectorizedBackend(ReferenceBackend):
                        def observe(self):
                            return 2
                    """,
            },
        )
        callees = graph.callees("pkg.sim.engine.Engine.step")
        assert "pkg.sim.backend.ReferenceBackend.observe" in callees
        # the registry-selected subclass stays visible to the graph
        assert "pkg.sim.backend.VectorizedBackend.observe" in callees

    def test_container_of_callables_dispatches_to_members(self, tmp_path):
        # A module-level literal tuple/dict of callables is a populated
        # registry: every reader edges to every member.
        graph = graph_of(
            tmp_path,
            {
                "pkg/sections.py": """
                    def _alpha():
                        return 1

                    def _beta():
                        return 2

                    _SECTIONS = (_alpha, _beta)
                    BUILDERS = {"alpha": _alpha}

                    def run_all():
                        return [section() for section in _SECTIONS]

                    def pick(name):
                        return BUILDERS[name]()
                    """,
            },
        )
        assert graph.registries["pkg.sections._SECTIONS"] == {
            "pkg.sections._alpha",
            "pkg.sections._beta",
        }
        run_all = graph.callees("pkg.sections.run_all")
        assert "pkg.sections._alpha" in run_all
        assert "pkg.sections._beta" in run_all
        assert "pkg.sections._alpha" in graph.callees("pkg.sections.pick")

    def test_partial_construction_edges_to_wrapped_callable(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/things.py": """
                    import functools
                    import functools as ft
                    from functools import partial

                    def make(n):
                        return n

                    def build_module_form():
                        return functools.partial(make, 3)

                    def build_alias_form():
                        return ft.partial(make, 4)

                    def build_name_form():
                        return partial(make, 5)

                    def build_deferred_form():
                        from functools import partial as bind
                        return bind(make, 6)
                    """,
            },
        )
        for caller in (
            "pkg.things.build_module_form",
            "pkg.things.build_alias_form",
            "pkg.things.build_name_form",
            "pkg.things.build_deferred_form",
        ):
            assert "pkg.things.make" in graph.callees(caller), caller

    def test_partial_passed_to_registrar_registers_wrapped(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/registry.py": """
                    _FACTORIES = {}

                    def register(name, factory):
                        _FACTORIES[name] = factory

                    def create(name):
                        return _FACTORIES[name]()
                    """,
                "pkg/things.py": """
                    from functools import partial

                    from pkg.registry import register

                    def make(n):
                        return n

                    def _load():
                        register("three", partial(make, 3))
                    """,
            },
        )
        assert graph.registries["pkg.registry._FACTORIES"] == {
            "pkg.things.make"
        }
        assert "pkg.things.make" in graph.callees("pkg.registry.create")

    def test_function_level_deferred_import_resolves(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/impl.py": """
                    def helper():
                        return 1
                    """,
                "pkg/deferred.py": """
                    def late():
                        from pkg.impl import helper
                        return helper()
                    """,
            },
        )
        assert "pkg.impl.helper" in graph.callees("pkg.deferred.late")


# ----------------------------------------------------------------------
# Taint seeds and propagation
# ----------------------------------------------------------------------


class TestTaint:
    def test_seed_kinds_collected(self, tmp_path):
        index = build(
            tmp_path,
            {
                "pkg/noisy.py": """
                    import os

                    def noisy(d):
                        for item in {1, 2}:
                            print(item)
                        names = os.listdir(d)
                        home = os.environ["HOME"]
                        return names, home, hash(d)
                    """,
            },
        )
        seeds = collect_seeds(index.functions["pkg.noisy.noisy"])
        assert {seed.kind for seed in seeds} == {
            "set_iteration",
            "fs_order",
            "env_read",
            "builtin_hash",
        }

    def test_two_hop_path_message_format_is_pinned(self, tmp_path):
        graph = graph_of(tmp_path, TWO_HOP_TAINT)
        result = trace_taint_paths(graph)
        assert len(result.paths) == 1
        path = result.paths[0]
        assert path.fingerprint == (
            "T001|pkg.sim.engine.run->pkg.util.helper.decorate"
            "->pkg.util.clock.stamp|wall_clock|time.time"
        )
        prefix, _, location = path.message.partition("; source at ")
        assert prefix == (
            "deterministic core reaches wall-clock read `time.time`: "
            "pkg.sim.engine.run -> pkg.util.helper.decorate "
            "-> pkg.util.clock.stamp"
        )
        assert location.endswith("pkg/util/clock.py:4")

    def test_partial_dispatch_chain_fingerprint_is_pinned(self, tmp_path):
        # Deferring the tainted call through ``functools.partial`` does
        # not hide it: the resolver sees through the partial and the
        # T001 chain names the wrapped callable.
        graph = graph_of(
            tmp_path,
            {
                "pkg/sim/engine.py": """
                    from functools import partial

                    from pkg.util.clock import stamp

                    def run():
                        return partial(stamp)
                    """,
                "pkg/util/clock.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
            },
        )
        result = trace_taint_paths(graph)
        assert len(result.paths) == 1
        assert result.paths[0].fingerprint == (
            "T001|pkg.sim.engine.run->pkg.util.clock.stamp"
            "|wall_clock|time.time"
        )

    def test_taint_path_through_backend_attribute_dispatch_is_pinned(
        self, tmp_path
    ):
        # The engine refactor routes every phase through
        # ``self._backend.<phase>()``; a nondeterministic backend
        # implementation must still be reachable from the core.
        graph = graph_of(
            tmp_path,
            {
                "pkg/sim/engine.py": """
                    from pkg.sim.vec import VectorizedBackend

                    class Engine:
                        def __init__(self, backend=None):
                            self._backend = backend or VectorizedBackend()

                        def step(self):
                            return self._backend.observe()
                    """,
                "pkg/sim/vec.py": """
                    import time

                    class VectorizedBackend:
                        def observe(self):
                            return time.time()
                    """,
            },
        )
        result = trace_taint_paths(graph)
        assert len(result.paths) == 1
        assert result.paths[0].fingerprint == (
            "T001|pkg.sim.engine.Engine.step"
            "->pkg.sim.vec.VectorizedBackend.observe|wall_clock|time.time"
        )

    def test_direct_seed_in_core_is_not_a_taint_path(self, tmp_path):
        # zero-hop sources are the shallow D-rules' job; T001 only
        # reports *transitive* reaches (chains of >= 1 edge).
        graph = graph_of(
            tmp_path,
            {
                "pkg/sim/engine.py": """
                    import time

                    def run():
                        return time.time()
                    """,
            },
        )
        assert trace_taint_paths(graph).paths == []

    def test_seed_line_suppression_clears_the_path(self, tmp_path):
        files = dict(TWO_HOP_TAINT)
        files["pkg/util/clock.py"] = """
            import time

            def stamp():
                return time.time()  # reprolint: disable=D001
            """
        result = trace_taint_paths(graph_of(tmp_path, files))
        assert result.paths == []
        assert result.suppressed_seeds == 1

    def test_root_call_site_suppression_clears_the_finding(self, tmp_path):
        files = dict(TWO_HOP_TAINT)
        files["pkg/sim/engine.py"] = """
            from pkg.util.helper import decorate

            def run():
                return decorate()  # reprolint: disable=T001
            """
        build(tmp_path, files)
        result = run_whole_program_analysis(
            [tmp_path], baseline_path=tmp_path / "baseline.json"
        )
        assert result.report.ok
        assert result.fingerprints == set()
        assert result.report.suppressed == 1


#: One snippet per nondeterminism source form, returned from line 6 of a
#: digest-path module: (expression, shallow code, shallow message, seed
#: kind).  Both tiers classify every form through one function, so each
#: row pins the shallow finding and the taint seed together.
SOURCE_FORMS = [
    (
        "time.time()",
        "D001",
        "wall-clock read `time.time()` in deterministic code; derive "
        "logical time from the engine's round counter (reprolint: "
        "disable=D001 if provably digest-irrelevant)",
        "wall_clock",
    ),
    (
        "datetime.datetime.now()",
        "D001",
        "wall-clock read `datetime.datetime.now()` in deterministic "
        "code; derive logical time from the engine's round counter "
        "(reprolint: disable=D001 if provably digest-irrelevant)",
        "wall_clock",
    ),
    (
        "random.shuffle(x)",
        "D002",
        "`random.shuffle()` draws from the global RNG; use a "
        "random.Random(seed) instance derived from the spec seed",
        "unseeded_rng",
    ),
    (
        "random.Random()",
        "D002",
        "`random.Random()` without a seed self-seeds from the OS; pass a "
        "seed derived from the spec",
        "unseeded_rng",
    ),
    (
        "np.random.rand(3)",
        "D002",
        "`np.random.rand()` uses numpy's global RNG; construct a numpy "
        "Generator from the spec seed instead",
        "unseeded_rng",
    ),
    (
        "os.environ['HOME']",
        "D003",
        "`os.environ` read in deterministic code; pass configuration "
        "through the spec or CLI instead",
        "env_read",
    ),
    (
        "os.getenv('HOME')",
        "D003",
        "`os.getenv()` read in deterministic code; pass configuration "
        "through the spec or CLI instead",
        "env_read",
    ),
    (
        "os.environb.get(b'HOME')",
        "D003",
        "`os.environb.get()` read in deterministic code; pass "
        "configuration through the spec or CLI instead",
        "env_read",
    ),
    (
        "hash(x)",
        "C003",
        "builtin hash() is salted per process; use hashlib.sha256 over "
        "canonical bytes",
        "builtin_hash",
    ),
]


class TestSourceClassifier:
    @pytest.mark.parametrize(
        "expression, code, message, kind",
        SOURCE_FORMS,
        ids=[row[0] for row in SOURCE_FORMS],
    )
    def test_shallow_finding_and_seed_agree(
        self, tmp_path, expression, code, message, kind
    ):
        source = (
            "import datetime, os, random, time\n"
            "import numpy as np\n"
            "\n"
            "\n"
            "def f(x):\n"
            f"    return {expression}\n"
        )
        report = lint_source(source, "pkg/sim/store.py")
        assert [
            (f.code, f.line, f.column, f.message) for f in report.findings
        ] == [(code, 6, 12, message)]
        index = build(tmp_path, {"pkg/sim/store.py": source})
        seeds = collect_seeds(index.functions["pkg.sim.store.f"])
        assert [(s.kind, s.lineno, s.col) for s in seeds] == [(kind, 6, 12)]

    def test_seeded_numpy_constructor_is_not_a_seed(self, tmp_path):
        index = build(
            tmp_path,
            {
                "pkg/rng.py": """
                    import numpy as np

                    def make(seed):
                        return np.random.default_rng(seed), np.random.default_rng()
                    """,
            },
        )
        seeds = collect_seeds(index.functions["pkg.rng.make"])
        assert [(s.kind, s.detail, s.col) for s in seeds] == [
            ("unseeded_rng", "np.random.default_rng", 41)
        ]


# ----------------------------------------------------------------------
# Fork-safety (F-rules)
# ----------------------------------------------------------------------


class TestForkSafety:
    def test_post_import_global_writes_flagged(self, tmp_path):
        index = build(
            tmp_path,
            {
                "proj/sim/runner.py": """
                    _CACHE = {}
                    _COUNT = 0

                    def remember(key, value):
                        _CACHE[key] = value

                    def bump():
                        global _COUNT
                        _COUNT += 1
                    """,
            },
        )
        findings = [f for f, _ in check_fork_safety(index)]
        assert [f.code for f in findings] == ["F001", "F001"]
        assert {"_CACHE", "_COUNT"} <= {
            name
            for f in findings
            for name in ("_CACHE", "_COUNT")
            if name in f.message
        }

    def test_import_time_file_handle_flagged(self, tmp_path):
        index = build(
            tmp_path,
            {
                "proj/chaos/runner.py": """
                    LOG = open("runner.log", "a")
                    """,
            },
        )
        findings = [f for f, _ in check_fork_safety(index)]
        assert [f.code for f in findings] == ["F002"]

    def test_lock_held_around_atomic_rename_flagged(self, tmp_path):
        index = build(
            tmp_path,
            {
                "proj/sim/runner.py": """
                    import os
                    import threading

                    _LOCK = threading.Lock()

                    def publish(tmp, final):
                        with _LOCK:
                            os.replace(tmp, final)
                    """,
            },
        )
        findings = [f for f, _ in check_fork_safety(index)]
        assert [f.code for f in findings] == ["F003"]

    def test_modules_outside_fork_scope_not_checked(self, tmp_path):
        index = build(
            tmp_path,
            {
                "proj/util/other.py": """
                    _CACHE = {}

                    def remember(key, value):
                        _CACHE[key] = value
                    """,
            },
        )
        assert check_fork_safety(index) == []


# ----------------------------------------------------------------------
# Baseline snapshot
# ----------------------------------------------------------------------


class TestBaseline:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, {"T001|b|wall_clock|x", "T001|a|env_read|y"})
        assert load_baseline(path) == {
            "T001|a|env_read|y",
            "T001|b|wall_clock|x",
        }
        # rendering is canonical: same set, same bytes
        assert path.read_text() == render_baseline(
            ["T001|b|wall_clock|x", "T001|a|env_read|y"]
        )
        assert BASELINE_KIND in path.read_text()

    def test_diff_separates_new_from_stale(self):
        new, stale = diff_baseline({"a", "b"}, {"b", "c"})
        assert new == ["a"]
        assert stale == ["c"]

    def test_load_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"kind": "something_else", "entries": []}\n')
        with pytest.raises(BaselineError):
            load_baseline(path)


# ----------------------------------------------------------------------
# The driver and its drift gate
# ----------------------------------------------------------------------


class TestDeepAnalysis:
    def test_missing_baseline_reports_every_path_as_new(self, tmp_path):
        build(tmp_path, TWO_HOP_TAINT)
        result = run_whole_program_analysis(
            [tmp_path], baseline_path=tmp_path / "baseline.json"
        )
        assert not result.report.ok
        assert [f.code for f in result.report.findings] == ["T001"]
        assert result.accepted == 0
        assert len(result.new) == 1

    def test_update_baseline_round_trips_byte_identical(self, tmp_path):
        build(tmp_path, TWO_HOP_TAINT)
        baseline = tmp_path / "baseline.json"
        first = run_whole_program_analysis(
            [tmp_path], baseline_path=baseline, update_baseline=True
        )
        assert first.updated and first.report.ok
        snapshot = baseline.read_bytes()
        # accepted now, no drift
        second = run_whole_program_analysis([tmp_path], baseline_path=baseline)
        assert second.report.ok
        assert second.new == [] and second.stale == []
        assert second.accepted == 1
        # re-updating an unchanged tree must not move a byte
        run_whole_program_analysis(
            [tmp_path], baseline_path=baseline, update_baseline=True
        )
        assert baseline.read_bytes() == snapshot

    def test_stale_baseline_entry_surfaces_as_b001(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "clean.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, {"T001|gone.func|wall_clock|time.time"})
        result = run_whole_program_analysis([tmp_path], baseline_path=baseline)
        assert not result.report.ok
        assert [f.code for f in result.report.findings] == ["B001"]
        assert "T001|gone.func|wall_clock|time.time" in (
            result.report.findings[0].message
        )


class TestDeepCli:
    """Usage errors around the whole-program pass that replaced --deep."""

    def test_select_with_deep_is_a_usage_error(self, capsys):
        # --deep is retired; the pass it ran is part of --all, which
        # runs every rule and so takes no --select either.
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["--deep", "--select", "D"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --deep" in capsys.readouterr().err
        assert lint_main(["--all", "--select", "D"]) == 2
        assert "--select picks shallow rules" in capsys.readouterr().err

    def test_baseline_flags_require_deep(self, capsys):
        # The baseline flags belong to the whole-program pass, now --all.
        assert lint_main(["--update-baseline"]) == 2
        assert "require --all" in capsys.readouterr().err


#: A module with nested callables and a suppression marker, for the
#: walk and tokenization counts of one ``--all`` run.
CLOSURES_WITH_SUPPRESSION = {
    "pkg/util/closures.py": """
        def outer(values):
            def inner(value):
                return value + 1
            return sorted(values, key=lambda value: inner(value))

        LIMIT = 3  # reprolint: disable=D001 -- marks the file for the tokenizer
        """,
}


class TestWholeProgramCli:
    """``repro lint --all`` over the one whole-program driver."""

    @pytest.fixture(
        params=[
            ("T001", TWO_HOP_TAINT),
            ("E001", BAD_BACKEND),
            ("A001", HIDDEN_STATE),
        ],
        ids=lambda param: param[0],
    )
    def violation(self, request, tmp_path):
        code, files = request.param
        build(tmp_path, files)
        return code

    def test_drift_then_update_then_clean(self, tmp_path, capsys, violation):
        baseline = str(tmp_path / "baseline.json")
        argv = ["--all", "--no-cache", "--baseline", baseline, str(tmp_path)]
        assert lint_main(argv) == 1
        out = capsys.readouterr().out
        assert violation in out and "+ new:" in out
        assert "whole-program analysis:" in out
        assert lint_main(argv + ["--update-baseline"]) == 0
        assert "baseline updated" in capsys.readouterr().out
        assert lint_main(argv) == 0
        assert "no drift against baseline" in capsys.readouterr().out

    def test_one_run_builds_each_stage_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # perfbench's tracer wraps these same module globals; each must
        # run once per invocation, however many rule families report.
        import ast
        import collections
        import sys
        import tokenize

        import repro.lint.deep.analysis as analysis
        import repro.lint.rules as rules
        from repro.lint.deep.modindex import FunctionInfo
        from repro.lint.registryrules import RegistrationSites

        stages = (
            "build_index",
            "build_call_graph",
            "infer_effects",
            "trace_taint_paths",
            "check_fork_safety",
            "check_contracts",
            "check_robot_model",
        )
        calls = dict.fromkeys(stages, 0)
        results = {}
        for stage in stages:
            real = getattr(analysis, stage)

            def counted(*args, _real=real, _stage=stage, **kwargs):
                calls[_stage] += 1
                results[_stage] = _real(*args, **kwargs)
                return results[_stage]

            monkeypatch.setattr(analysis, stage, counted)
        build(tmp_path, {**TWO_HOP_TAINT, **CLOSURES_WITH_SUPPRESSION})
        modules = sorted(tmp_path.rglob("*.py"))
        assert len(modules) == 7
        # Both tiers share one load: every module is read, parsed and
        # walked once, and tokenized once if it can hold a suppression
        # marker.  Parses count by filename (the call graph also parses
        # string annotations, under no filename); tokenizations by
        # source text, which the tokenizer's readline still holds.
        reads = collections.Counter()
        parses = collections.Counter()
        tokenized = collections.Counter()
        module_walks = collections.Counter()
        own_walks = collections.Counter()
        real_read, real_parse = pathlib.Path.read_text, ast.parse
        real_tokens, real_walk = tokenize.generate_tokens, ast.walk
        real_own = rules.iter_own_nodes

        def read_text(path, *args, **kwargs):
            reads[path.as_posix()] += 1
            return real_read(path, *args, **kwargs)

        def parse(source, filename="<unknown>", *args, **kwargs):
            parses[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        def generate_tokens(readline):
            tokenized[readline.__self__.getvalue()] += 1
            return real_tokens(readline)

        def walk(node):
            # AST nodes hash by identity, and the run keeps them alive.
            if isinstance(node, ast.Module):
                module_walks[node] += 1
            return real_walk(node)

        def iter_own_nodes(root):
            own_walks[root] += 1
            return real_own(root)

        registry_walks = collections.Counter()
        import_tables = collections.Counter()
        real_sites = RegistrationSites.__init__
        real_imports = FunctionInfo.local_imports.func

        def collect_sites(self, context):
            registry_walks[context.path] += 1
            real_sites(self, context)

        def local_imports(function):
            import_tables[function.node] += 1
            return real_imports(function)

        monkeypatch.setattr(RegistrationSites, "__init__", collect_sites)
        monkeypatch.setattr(FunctionInfo.local_imports, "func", local_imports)
        monkeypatch.setattr(pathlib.Path, "read_text", read_text)
        monkeypatch.setattr(ast, "parse", parse)
        monkeypatch.setattr(tokenize, "generate_tokens", generate_tokens)
        monkeypatch.setattr(ast, "walk", walk)
        for module in list(sys.modules.values()):
            if getattr(module, "iter_own_nodes", None) is real_own:
                monkeypatch.setattr(module, "iter_own_nodes", iter_own_nodes)
        baseline = str(tmp_path / "baseline.json")
        assert lint_main(
            ["--all", "--no-cache", "--baseline", baseline, str(tmp_path)]
        ) == 1
        assert "T001" in capsys.readouterr().out
        assert calls == dict.fromkeys(stages, 1)
        once = dict.fromkeys((path.as_posix() for path in modules), 1)
        assert {n: c for n, c in reads.items() if n.endswith(".py")} == once
        assert {n: c for n, c in parses.items() if n in once} == once
        sources = [real_read(path) for path in modules]
        assert tokenized == collections.Counter(
            source for source in sources if "reprolint" in source
        )
        assert len(tokenized) == 1
        # One full walk per module, and one own-node walk per indexed
        # callable (nested def and lambda included), shared by every
        # rule and pass.
        assert sorted(module_walks.values()) == [1] * len(modules)
        functions = results["build_index"].functions.values()
        assert "pkg.util.closures.outer.inner" in {
            function.qualname for function in functions
        }
        assert own_walks == collections.Counter(
            function.node for function in functions
        )
        assert len(own_walks) == 6
        # R001-R003 share one registration-site collection per module,
        # and the call graph one import table per callable.
        assert sorted(registry_walks.values()) == [1] * len(modules)
        assert import_tables == own_walks

    def test_broken_module_is_one_p001_across_tiers(self, tmp_path, capsys):
        build(tmp_path, {"pkg/ok.py": "x = 1\n", "pkg/bad.py": "def f(:\n"})
        baseline = str(tmp_path / "baseline.json")
        assert lint_main(
            ["--all", "--json", "--baseline", baseline, str(tmp_path)]
        ) == 1
        tiers = json.loads(capsys.readouterr().out)["tiers"]
        p001 = [
            (tier, finding)
            for tier, report in sorted(tiers.items())
            for finding in report["findings"]
            if finding["code"] == "P001"
        ]
        assert len(p001) == 1
        tier, finding = p001[0]
        assert finding["path"].endswith("pkg/bad.py")
        # the shallow engine's location: SyntaxError.offset, not column 1
        assert (tier, finding["line"], finding["column"]) == ("shallow", 1, 7)


# ----------------------------------------------------------------------
# Self-check: the repository tree against its committed baseline
# ----------------------------------------------------------------------


class TestSelfCheck:
    def test_repo_tree_has_no_drift_against_committed_baseline(
        self, repo_lint
    ):
        result = repo_lint
        assert result.report.ok, [
            finding.render() for finding in result.report.findings
        ]
        assert result.new == [] and result.stale == []
        # the graph really is whole-program, not a trivial index
        assert result.call_graph is not None
        assert result.call_graph.edge_count > 300
        assert result.call_graph.registries
