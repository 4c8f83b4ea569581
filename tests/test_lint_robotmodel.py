"""Tests for the A-rule robot-model conformance checks of ``repro lint --all``.

Fixture packages are written under ``tmp_path`` exactly like the
taint-path and effects suites and indexed with the same
``build_index`` the CLI uses.  The suite pins every A rule with its
location-free fingerprint and witness-chain message, the exemptions
that keep honest algorithms clean (declared state reads, round-reset
scratch, bool-valued fields, GLOBAL algorithms), the baseline
round-trip byte-for-byte, stale ``B001`` entries, inline suppression,
the merged ``--all`` CLI mode, the
guards that keep the repository self-check from being vacuous, and
the static/runtime cross-check: an algorithm with hidden persistent
state is flagged by ``A001`` *and* demonstrably under-audited by the
engine's runtime memory accounting.
"""

import dataclasses
import json
import pathlib
import textwrap

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.deep import (
    render_baseline,
    run_whole_program_analysis,
)
from repro.lint.deep.callgraph import _Resolver, build_call_graph
from repro.lint.deep.effects import infer_effects
from repro.lint.deep.modindex import build_index
from repro.lint.deep.robotmodel import _is_algorithm_class, check_robot_model
from repro.sim.observation import OBSERVATION_FIELD_SCOPES, Observation

REPO = pathlib.Path(__file__).resolve().parent.parent


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


def robot_findings(root, files):
    graph = build_call_graph(build(root, files))
    return check_robot_model(graph, infer_effects(graph))


def fingerprints(findings):
    return {fingerprint for _, fingerprint in findings}


#: A stub base so fixtures match by base-chain name without importing
#: the real package, plus a forbidden-scope module for A004.
BASE = {
    "pkg/base.py": """
        class RobotAlgorithm:
            def persistent_state(self, robot_id):
                return {"id": robot_id}

            def persistent_state_bounds(self, k, n):
                return {"id": k}
        """,
    "pkg/sim/engine.py": """
        def peek_positions(engine):
            return engine.positions
        """,
}


def with_algos(source):
    files = dict(BASE)
    files["pkg/algos.py"] = textwrap.dedent(
        """
        from pkg.base import RobotAlgorithm
        from pkg.sim.engine import peek_positions


        class CommunicationModel:
            LOCAL = "local"
            GLOBAL = "global"

        """
    ) + textwrap.dedent(source)
    return files


#: An algorithm whose decide() keeps a counter persistent_state() never
#: emits (A001).
HIDDEN_STATE = with_algos("""
    class SneakyCounter(RobotAlgorithm):
        def decide(self, observation):
            self._visits = 1
            return None
    """)


# ----------------------------------------------------------------------
# Class discovery
# ----------------------------------------------------------------------


class TestDiscovery:
    def test_direct_convention_and_unrelated_classes(self, tmp_path):
        index = build(
            tmp_path,
            with_algos("""
                class Direct(RobotAlgorithm):
                    def decide(self, observation):
                        self._hidden = 1
                        return None


                class WalkerDispersion:
                    def decide(self, observation):
                        self._hidden = 1
                        return None


                class Bystander:
                    def decide(self, observation):
                        self._hidden = 1
                        return None
                """),
        )
        graph = build_call_graph(index)
        found = fingerprints(check_robot_model(graph, infer_effects(graph)))
        assert "A001|pkg.algos.Direct.decide|_hidden" in found
        assert "A001|pkg.algos.WalkerDispersion.decide|_hidden" in found
        assert not any("Bystander" in f for f in found)

    def test_the_base_class_itself_is_never_checked(self, tmp_path):
        assert robot_findings(tmp_path, dict(BASE)) == []


# ----------------------------------------------------------------------
# A001: hidden persistent state
# ----------------------------------------------------------------------


class TestA001HiddenState:
    def test_write_through_helper_with_witness_chain(self, tmp_path):
        findings = robot_findings(
            tmp_path,
            with_algos("""
                class SneakyCounter(RobotAlgorithm):
                    def __init__(self):
                        self._visits = {}

                    def decide(self, observation):
                        self._bump(observation.robot_id)
                        return None

                    def _bump(self, robot_id):
                        self._visits[robot_id] = 1
                """),
        )
        assert fingerprints(findings) == {
            "A001|pkg.algos.SneakyCounter.decide|_visits"
        }
        finding = findings[0][0]
        assert finding.code == "A001"
        assert "hidden persistent state `self._visits`" in finding.message
        assert (
            "pkg.algos.SneakyCounter.decide -> pkg.algos.SneakyCounter._bump"
            in finding.message
        )

    def test_declared_state_reads_are_exempt(self, tmp_path):
        assert (
            robot_findings(
                tmp_path,
                with_algos("""
                    class Declared(RobotAlgorithm):
                        def decide(self, observation):
                            self._steps = 1
                            return None

                        def persistent_state(self, robot_id):
                            return {"id": robot_id, "steps": self._steps}

                        def persistent_state_bounds(self, k, n):
                            return {"id": k, "steps": n}
                    """),
            )
            == []
        )

    def test_round_reset_scratch_is_exempt(self, tmp_path):
        assert (
            robot_findings(
                tmp_path,
                with_algos("""
                    class CleanRoundScratch(RobotAlgorithm):
                        def on_round_start(self, round_index):
                            self._scratch = None
                            self._cache.clear()

                        def decide(self, observation):
                            self._scratch = observation.robot_id
                            self._cache[1] = 2
                            return None
                    """),
            )
            == []
        )

    def test_guarded_reset_does_not_exonerate(self, tmp_path):
        findings = robot_findings(
            tmp_path,
            with_algos("""
                class GuardedReset(RobotAlgorithm):
                    def on_round_start(self, round_index):
                        if round_index > 0:
                            self._scratch = None

                    def decide(self, observation):
                        self._scratch = observation.robot_id
                        return None
                """),
        )
        # The guarded reset exonerates nothing -- and is itself an
        # undeclared persistent write from a persistent hook.
        assert fingerprints(findings) == {
            "A001|pkg.algos.GuardedReset.decide|_scratch",
            "A001|pkg.algos.GuardedReset.on_round_start|_scratch",
        }


# ----------------------------------------------------------------------
# A002: declared state without a bound
# ----------------------------------------------------------------------


class TestA002UnboundedState:
    def test_unbounded_int_field_flagged_bool_exempt(self, tmp_path):
        findings = robot_findings(
            tmp_path,
            with_algos("""
                class UnboundedField(RobotAlgorithm):
                    def persistent_state(self, robot_id):
                        return {
                            "id": robot_id,
                            "steps": self._steps.get(robot_id, 0),
                            "settled": self._steps.get(robot_id, 0) > 1,
                        }

                    def decide(self, observation):
                        return None
                """),
        )
        assert fingerprints(findings) == {
            "A002|pkg.algos.UnboundedField.persistent_state|steps"
        }
        assert "no bound in persistent_state_bounds()" in (
            findings[0][0].message
        )

    def test_inherited_consistent_pair_reported_once(self, tmp_path):
        findings = robot_findings(
            tmp_path,
            with_algos("""
                class Parent(RobotAlgorithm):
                    def persistent_state(self, robot_id):
                        return {"id": robot_id, "phase": self._phase}

                    def decide(self, observation):
                        return None


                class ChildDispersion(Parent):
                    def decide(self, observation):
                        return None
                """),
        )
        assert fingerprints(findings) == {
            "A002|pkg.algos.Parent.persistent_state|phase"
        }


# ----------------------------------------------------------------------
# A003: observation scope under LOCAL communication
# ----------------------------------------------------------------------


class TestA003ObservationScope:
    PEEKER = """
        class LocalPeeker(RobotAlgorithm):
            requires_communication = CommunicationModel.LOCAL

            def decide(self, observation):
                return self._scan(observation)

            def _scan(self, obs):
                view = obs
                if view.sees_multiplicity:
                    return len(view.packets)
                return None
        """

    def test_global_reads_via_helper_and_alias(self, tmp_path):
        findings = robot_findings(tmp_path, with_algos(self.PEEKER))
        assert fingerprints(findings) == {
            "A003|pkg.algos.LocalPeeker.decide|sees_multiplicity",
            "A003|pkg.algos.LocalPeeker.decide|packets",
        }
        by_field = {f.message.split("`")[5]: f for f, _ in findings}
        message = by_field["sees_multiplicity"].message
        assert "requires_communication = LOCAL" in message
        assert (
            "pkg.algos.LocalPeeker.decide -> pkg.algos.LocalPeeker._scan"
            in message
        )
        assert "reads observation.sees_multiplicity at" in message

    def test_global_algorithm_may_read_global_fields(self, tmp_path):
        assert (
            robot_findings(
                tmp_path,
                with_algos("""
                    class GlobalPeeker(RobotAlgorithm):
                        requires_communication = CommunicationModel.GLOBAL

                        def decide(self, observation):
                            return len(observation.packets)
                    """),
            )
            == []
        )

    def test_local_algorithm_may_read_local_fields(self, tmp_path):
        assert (
            robot_findings(
                tmp_path,
                with_algos("""
                    class LocalReader(RobotAlgorithm):
                        requires_communication = CommunicationModel.LOCAL

                        def decide(self, observation):
                            packet = observation.own_packet
                            return observation.entry_port
                    """),
            )
            == []
        )


# ----------------------------------------------------------------------
# A004: decide() escaping the Observation surface
# ----------------------------------------------------------------------


class TestA004ModelEscape:
    def test_reaching_engine_module_is_flagged(self, tmp_path):
        findings = robot_findings(
            tmp_path,
            with_algos("""
                class EscapeArtist(RobotAlgorithm):
                    def decide(self, observation):
                        return peek_positions(observation)
                """),
        )
        found = fingerprints(findings)
        assert len(found) == 1
        fingerprint = found.pop()
        # Display paths are cwd-relative in the repo but absolute for a
        # tmp fixture, so pin prefix and suffix rather than the middle.
        assert fingerprint.startswith("A004|pkg.algos.EscapeArtist.decide|")
        assert fingerprint.endswith("pkg/sim/engine.py")
        message = findings[0][0].message
        assert "simulator internals in" in message
        assert "pkg/sim/engine.py" in message
        assert (
            "pkg.algos.EscapeArtist.decide -> pkg.sim.engine.peek_positions"
            in message
        )

    def test_helpers_inside_the_algorithm_module_are_fine(self, tmp_path):
        assert (
            robot_findings(
                tmp_path,
                with_algos("""
                    def pick_port(degree):
                        return 1 if degree else 0


                    class WellBehaved(RobotAlgorithm):
                        def decide(self, observation):
                            return pick_port(2)
                    """),
            )
            == []
        )


# ----------------------------------------------------------------------
# A005: observation mutation
# ----------------------------------------------------------------------


class TestA005ObservationMutation:
    def test_direct_mutation_in_decide(self, tmp_path):
        findings = robot_findings(
            tmp_path,
            with_algos("""
                class ObservationScribbler(RobotAlgorithm):
                    def decide(self, observation):
                        observation.packets.clear()
                        return None
                """),
        )
        assert fingerprints(findings) == {
            "A005|pkg.algos.ObservationScribbler.decide|observation"
        }
        assert "mutates its `observation`" in findings[0][0].message

    def test_mutation_in_detects_termination(self, tmp_path):
        findings = robot_findings(
            tmp_path,
            with_algos("""
                class TerminatorScribbler(RobotAlgorithm):
                    def decide(self, observation):
                        return None

                    def detects_termination(self, observation):
                        observation.round_index = 0
                        return False
                """),
        )
        assert fingerprints(findings) == {
            "A005|pkg.algos.TerminatorScribbler.detects_termination"
            "|observation"
        }


# ----------------------------------------------------------------------
# Suppression and baseline
# ----------------------------------------------------------------------


class TestSuppressionAndBaseline:
    def test_inline_suppression_is_honoured(self, tmp_path):
        files = with_algos("""
            class Hushed(RobotAlgorithm):
                def decide(self, observation):
                    self._visits = 1  # reprolint: disable=A001
                    return None
            """)
        build(tmp_path, files)
        result = run_whole_program_analysis(
            [tmp_path], baseline_path=tmp_path / "baseline.json"
        )
        assert result.report.ok
        assert result.report.suppressed == 1

    def test_update_baseline_is_byte_stable(self, tmp_path):
        build(tmp_path, HIDDEN_STATE)
        baseline = tmp_path / "baseline.json"
        run_whole_program_analysis(
            [tmp_path], baseline_path=baseline, update_baseline=True
        )
        first = baseline.read_bytes()
        run_whole_program_analysis(
            [tmp_path], baseline_path=baseline, update_baseline=True
        )
        assert baseline.read_bytes() == first
        result = run_whole_program_analysis(
            [tmp_path], baseline_path=baseline
        )
        assert result.report.ok and result.accepted == 1

    def test_fixed_violation_reports_stale_entry(self, tmp_path):
        build(tmp_path, HIDDEN_STATE)
        baseline = tmp_path / "baseline.json"
        run_whole_program_analysis(
            [tmp_path], baseline_path=baseline, update_baseline=True
        )
        (tmp_path / "pkg" / "algos.py").write_text(
            textwrap.dedent(
                """
                from pkg.base import RobotAlgorithm


                class SneakyCounter(RobotAlgorithm):
                    def decide(self, observation):
                        return None
                """
            ).lstrip("\n")
        )
        result = run_whole_program_analysis([tmp_path], baseline_path=baseline)
        assert not result.report.ok
        assert result.stale == ["A001|pkg.algos.SneakyCounter.decide|_visits"]
        assert result.report.findings[0].code == "B001"


# ----------------------------------------------------------------------
# The observation scope table itself
# ----------------------------------------------------------------------


class TestObservationScopeTable:
    def test_every_observation_member_is_scoped(self):
        members = {field.name for field in dataclasses.fields(Observation)}
        members |= {
            name
            for name, value in vars(Observation).items()
            if isinstance(value, property)
        }
        assert members == set(OBSERVATION_FIELD_SCOPES)

    def test_scopes_are_well_formed(self):
        assert set(OBSERVATION_FIELD_SCOPES.values()) <= {"local", "global"}
        # The split that makes A003 non-vacuous: both sides inhabited.
        assert "global" in OBSERVATION_FIELD_SCOPES.values()
        assert "local" in OBSERVATION_FIELD_SCOPES.values()


# ----------------------------------------------------------------------
# CLI: the merged --all mode
# ----------------------------------------------------------------------


class TestRobotModelCli:
    def test_json_report_shape(self, tmp_path, capsys):
        build(tmp_path, HIDDEN_STATE)
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
        data = json.loads(capsys.readouterr().out)
        tier = data["tiers"]["whole_program"]
        assert tier["kind"] == "reprolint_report"
        assert [f["code"] for f in tier["findings"]] == ["A001"]

    def test_bad_baseline_file_is_a_usage_error(self, capsys):
        assert (
            lint_main(
                [
                    "--all",
                    "--no-cache",
                    "--baseline",
                    str(REPO / "pyproject.toml"),
                    str(REPO / "src"),
                ]
            )
            == 2
        )
        assert "does not parse as JSON" in capsys.readouterr().err

    def test_mode_exclusions(self, capsys):
        # The per-family modes are gone: --all is the one whole-program
        # mode, and it runs every rule, so --select does not combine.
        for flag in ("--deep", "--effects", "--robot-model"):
            with pytest.raises(SystemExit) as exit_info:
                lint_main([flag])
            assert exit_info.value.code == 2
        assert lint_main(["--all", "--select", "A"]) == 2
        assert "--select picks shallow rules" in capsys.readouterr().err

    def test_list_rules_mentions_the_a_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("A001", "A002", "A003", "A004", "A005"):
            assert code in out
        assert "run by --all" in out


class TestAllCli:
    def test_clean_tree_round_trips_through_all_tiers(
        self, tmp_path, capsys, monkeypatch
    ):
        build(tmp_path, {"pkg/a.py": "x = 1\n"})
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--all", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for header in ("== shallow ==", "== whole-program =="):
            assert header in out
        assert "whole-program analysis:" in out

    def test_violation_fails_combined_and_json_merges_tiers(
        self, tmp_path, capsys, monkeypatch
    ):
        build(tmp_path, HIDDEN_STATE)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--all", "--json", str(tmp_path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "reprolint_all_report"
        assert data["format_version"] == 2
        assert set(data["tiers"]) == {"shallow", "whole_program"}
        assert data["ok"] is False
        whole = data["tiers"]["whole_program"]
        assert whole["ok"] is False
        assert [f["code"] for f in whole["findings"]] == ["A001"]

    def test_update_baseline_updates_every_tier(
        self, tmp_path, capsys, monkeypatch
    ):
        build(tmp_path, HIDDEN_STATE)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--all", "--update-baseline", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "lint-baseline.json"
        ]
        assert lint_main(["--all", str(tmp_path)]) == 0

    def test_all_usage_errors(self, capsys):
        assert lint_main(["--update-baseline"]) == 2
        assert "require --all" in capsys.readouterr().err
        assert lint_main(["--baseline", "x.json"]) == 2
        assert "require --all" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Static/runtime cross-check: A001 vs the engine's memory audit
# ----------------------------------------------------------------------

CROSSCHECK_SOURCE = """
from repro.sim.algorithm import RobotAlgorithm, STAY


class HiddenCounterDispersion(RobotAlgorithm):
    name = "hidden_counter"

    def __init__(self):
        self._visits = {}

    def decide(self, observation):
        robot_id = observation.robot_id
        self._visits[robot_id] = self._visits.get(robot_id, 0) + 1
        return STAY


class DeclaredCounterDispersion(RobotAlgorithm):
    name = "declared_counter"

    def __init__(self):
        self._visits = {}

    def decide(self, observation):
        robot_id = observation.robot_id
        self._visits[robot_id] = self._visits.get(robot_id, 0) + 1
        return STAY

    def persistent_state(self, robot_id):
        return {"id": robot_id, "visits": self._visits.get(robot_id, 0)}

    def persistent_state_bounds(self, k, n):
        return {"id": k, "visits": 8 * n}
"""


class TestRuntimeCrossCheck:
    """One source, audited both ways.

    The *same* algorithm text is statically analyzed (A001 must flag
    the hidden counter and pass the declaring twin) and executed in the
    real engine (the runtime audit must under-charge the hidden counter
    and fully charge the declared one) -- pinning that the static rule
    and Lemma 8's runtime accounting enforce the same contract.
    """

    def _classes(self):
        namespace = {}
        exec(
            compile(
                textwrap.dedent(CROSSCHECK_SOURCE), "<crosscheck>", "exec"
            ),
            namespace,
        )
        return (
            namespace["HiddenCounterDispersion"],
            namespace["DeclaredCounterDispersion"],
        )

    def test_static_analysis_flags_only_the_hidden_twin(self, tmp_path):
        findings = robot_findings(
            tmp_path, {"sneakpkg/hidden.py": CROSSCHECK_SOURCE}
        )
        assert fingerprints(findings) == {
            "A001|sneakpkg.hidden.HiddenCounterDispersion.decide|_visits"
        }

    def test_runtime_audit_diverges_exactly_where_a001_points(self):
        from repro.graph.dynamic import StaticDynamicGraph
        from repro.graph.generators import path_graph
        from repro.robots.memory import bits_for_state
        from repro.robots.robot import RobotSet
        from repro.sim.engine import SimulationEngine

        hidden_cls, declared_cls = self._classes()
        k, n, rounds = 3, 5, 3

        hidden = hidden_cls()
        hidden_result = SimulationEngine(
            StaticDynamicGraph(path_graph(n)),
            RobotSet.rooted(k, n),
            hidden,
            max_rounds=rounds,
        ).run()
        # The hidden counter accumulated information every round...
        assert hidden._visits[1] == rounds
        # ...but the audited state surface never shows it, so the
        # runtime audit charges only the ID: the divergence A001 names.
        state = hidden.persistent_state(1)
        assert "visits" not in state and "_visits" not in state
        assert hidden_result.max_persistent_bits == bits_for_state(
            {"id": 1}, bounds={"id": k}
        )

        declared = declared_cls()
        declared_result = SimulationEngine(
            StaticDynamicGraph(path_graph(n)),
            RobotSet.rooted(k, n),
            declared,
            max_rounds=rounds,
        ).run()
        # The declaring twin exposes the counter and gets charged for
        # it -- strictly more bits than the hidden twin's audit saw.
        assert declared.persistent_state(1)["visits"] == rounds
        assert (
            declared_result.max_persistent_bits
            > hidden_result.max_persistent_bits
        )


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
        # no robot-model finding is waived by the baseline
        assert not [
            fingerprint
            for fingerprint in repo_lint.fingerprints
            if fingerprint.startswith("A")
        ]

    def test_committed_baseline_regenerates_byte_identically(
        self, repo_lint
    ):
        # --update-baseline writes exactly render_baseline(fingerprints)
        assert render_baseline(repo_lint.fingerprints) == (
            REPO / "lint-baseline.json"
        ).read_text()

    def test_repo_algorithms_are_actually_discovered(self, repo_lint):
        # Guard against a vacuously clean self-check: the tier must see
        # the shipped algorithm classes and their state writes.
        index = repo_lint.call_graph.index
        resolver = _Resolver(index)
        discovered = {
            name
            for name, cls in index.classes.items()
            if _is_algorithm_class(cls, resolver)
        }
        assert "repro.baselines.dfs_local.DfsDispersionLocal" in discovered
        assert "repro.core.dispersion.DispersionDynamic" in discovered
        assert len(discovered) >= 17
        decide = repo_lint.summaries[
            "repro.baselines.dfs_local.DfsDispersionLocal.decide"
        ]
        # The settle write is visible to A001; the class stays clean
        # only because persistent_state() declares the attribute.
        assert ("mut", 0, ("_settled",)) in decide.effects
