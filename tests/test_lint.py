"""Tests for ``repro lint``: the determinism / cache-safety analyzer.

Each rule family gets good/bad fixture snippets linted under synthetic
paths (scope patterns are suffix-based, so ``<tmp>/sim/engine.py`` picks
up the same obligations as the real file).  Beyond the rules, this file
pins the suppression mechanics, the schema-stable JSON report, the CLI
exit-code convention, and the self-check that the analyzer runs clean on
the repository's own tree.
"""

import json
import pathlib
import textwrap

import pytest

from repro.lint import (
    CACHE_SCOPE,
    DETERMINISM_SCOPE,
    PARSE_ERROR_CODE,
    REPORT_FORMAT_VERSION,
    all_rules,
    iter_python_files,
    lint_paths,
    lint_source,
    path_in_scope,
    render_json,
    render_text,
    report_to_dict,
    rule_catalogue,
    select_rules,
)
from repro.lint.cli import main as lint_main

REPO = pathlib.Path(__file__).resolve().parent.parent


def check(source, path="proj/sim/engine.py", select=None):
    """Lint a dedented snippet as if it lived at ``path``."""
    rules = select_rules(list(select)) if select is not None else None
    return lint_source(textwrap.dedent(source), path, rules=rules)


def codes(report):
    return [finding.code for finding in report.findings]


# ----------------------------------------------------------------------
# Scope matching
# ----------------------------------------------------------------------


class TestScopes:
    def test_suffix_pattern_matches_anywhere(self):
        assert path_in_scope("sim/engine.py", DETERMINISM_SCOPE)
        assert path_in_scope("src/repro/sim/engine.py", DETERMINISM_SCOPE)
        assert path_in_scope("/tmp/x/sim/engine.py", DETERMINISM_SCOPE)

    def test_unrelated_file_is_out_of_scope(self):
        assert not path_in_scope(
            "src/repro/analysis/figures.py", DETERMINISM_SCOPE
        )

    def test_directory_pattern_matches_segment(self):
        assert path_in_scope("src/repro/robots/faults.py", DETERMINISM_SCOPE)
        # A *file* named like the directory does not match the pattern.
        assert not path_in_scope("src/repro/robots.py", ("robots/",))

    def test_empty_scope_means_everywhere(self):
        assert path_in_scope("anything/at/all.py", ())

    def test_cache_scope_is_subset_of_determinism_scope(self):
        assert set(CACHE_SCOPE) <= set(DETERMINISM_SCOPE)

    def test_exempt_pattern_carves_file_out_of_scope(self):
        from repro.lint.rules import DETERMINISM_EXEMPT

        assert path_in_scope("proj/chaos/plan.py", DETERMINISM_SCOPE)
        assert not path_in_scope(
            "proj/chaos/injectors.py", DETERMINISM_SCOPE, DETERMINISM_EXEMPT
        )
        # Exemption wins even over empty-scope ("everywhere") rules.
        assert not path_in_scope(
            "proj/chaos/injectors.py", (), DETERMINISM_EXEMPT
        )


class TestChaosExemption:
    def test_injector_shims_are_exempt_from_d_rules(self):
        # The injector module's whole job is nondeterminism (sleeps,
        # SIGKILL); the D rules must not flag it.
        report = check(
            "import time\ntime.sleep(30.0)\nstarted = time.time()\n",
            path="proj/chaos/injectors.py",
        )
        assert report.ok

    def test_rest_of_chaos_package_stays_in_scope(self):
        # Everything else in chaos/ carries the full determinism
        # obligations -- its replay contract depends on them.
        report = check(
            "import time\nstarted = time.time()\n",
            path="proj/chaos/plan.py",
        )
        assert codes(report) == ["D001"]
        report = check(
            "import random\nport = random.randint(1, 4)\n",
            path="proj/chaos/runner.py",
        )
        assert codes(report) == ["D002"]


# ----------------------------------------------------------------------
# D-rules: determinism
# ----------------------------------------------------------------------


class TestWallClockRule:
    def test_time_time_flagged(self):
        report = check("import time\nstarted = time.time()\n")
        assert codes(report) == ["D001"]

    def test_datetime_now_flagged(self):
        report = check(
            "import datetime\nstamp = datetime.datetime.now()\n"
        )
        assert codes(report) == ["D001"]

    def test_perf_counter_allowed(self):
        report = check("import time\nt0 = time.perf_counter()\n")
        assert report.ok

    def test_out_of_scope_file_not_checked(self):
        report = check(
            "import time\nstarted = time.time()\n",
            path="proj/analysis/figures.py",
        )
        assert report.ok


class TestUnseededRandomnessRule:
    def test_global_rng_call_flagged(self):
        report = check("import random\nport = random.randint(1, 4)\n")
        assert codes(report) == ["D002"]

    def test_unseeded_random_instance_flagged(self):
        report = check("import random\nrng = random.Random()\n")
        assert codes(report) == ["D002"]

    def test_seeded_random_instance_allowed(self):
        report = check("import random\nrng = random.Random(42)\n")
        assert report.ok

    def test_numpy_global_rng_flagged(self):
        report = check(
            "import numpy as np\nnoise = np.random.rand(3)\n"
        )
        assert codes(report) == ["D002"]

    @pytest.mark.parametrize(
        "call",
        [
            "np.random.default_rng(7)",
            "np.random.default_rng(seed=spec_seed)",
            "np.random.Generator(np.random.PCG64(7))",
            "numpy.random.RandomState(7)",
            "np.random.SeedSequence(entropy=7)",
        ],
    )
    def test_seeded_numpy_constructor_allowed(self, call):
        # The fix D002's own message recommends must not trip D002.
        report = check(f"import numpy\nimport numpy as np\nrng = {call}\n")
        assert report.ok

    def test_unseeded_numpy_constructor_flagged(self):
        report = check("import numpy as np\nrng = np.random.default_rng()\n")
        assert codes(report) == ["D002"]


class TestEnvironmentReadRule:
    def test_environ_subscript_flagged(self):
        report = check("import os\njobs = os.environ['REPRO_JOBS']\n")
        assert codes(report) == ["D003"]

    def test_getenv_flagged(self):
        report = check("import os\njobs = os.getenv('REPRO_JOBS')\n")
        assert codes(report) == ["D003"]

    def test_out_of_scope_read_allowed(self):
        report = check(
            "import os\njobs = os.getenv('REPRO_JOBS')\n",
            path="proj/analysis/campaign.py",
        )
        assert report.ok


# ----------------------------------------------------------------------
# C-rules: cache safety (digest-path files only)
# ----------------------------------------------------------------------


class TestCanonicalJsonRule:
    def test_unsorted_dumps_flagged_in_digest_path(self):
        report = check(
            "import json\npayload = json.dumps({'a': 1})\n",
            path="proj/sim/store.py",
        )
        assert codes(report) == ["C001"]

    def test_sorted_dumps_allowed(self):
        report = check(
            "import json\n"
            "payload = json.dumps({'a': 1}, sort_keys=True)\n",
            path="proj/sim/store.py",
        )
        assert report.ok

    def test_engine_not_in_cache_scope(self):
        report = check(
            "import json\npayload = json.dumps({'a': 1})\n",
            path="proj/sim/engine.py",
        )
        assert report.ok


class TestFloatFormattingRule:
    def test_fstring_float_spec_flagged(self):
        report = check(
            "key = f'{persistence:.3f}'\n", path="proj/sim/spec.py"
        )
        assert codes(report) == ["C002"]

    def test_percent_float_flagged(self):
        report = check(
            "key = '%.3f' % persistence\n", path="proj/sim/spec.py"
        )
        assert codes(report) == ["C002"]

    def test_str_format_float_flagged(self):
        report = check(
            "key = '{:.2e}'.format(persistence)\n",
            path="proj/sim/spec.py",
        )
        assert codes(report) == ["C002"]

    def test_plain_interpolation_allowed(self):
        report = check(
            "key = f'{name}:{count:>3}'\n", path="proj/sim/spec.py"
        )
        assert report.ok


class TestProcessSaltedHashRule:
    def test_builtin_hash_flagged_in_digest_path(self):
        report = check(
            "key = hash(payload)\n", path="proj/sim/store.py"
        )
        assert codes(report) == ["C003"]

    def test_hash_allowed_outside_digest_path(self):
        report = check(
            "key = hash(payload)\n", path="proj/graph/snapshot.py"
        )
        assert report.ok


# ----------------------------------------------------------------------
# R-rules: registry hygiene
# ----------------------------------------------------------------------


class TestRegistryRules:
    def test_computed_name_flagged(self):
        report = check(
            "register_graph(make_name(variant), factory)\n",
            path="proj/plugin.py",
        )
        assert codes(report) == ["R001"]

    def test_literal_and_class_name_constant_allowed(self):
        report = check(
            "register_graph('ring', lambda params, ctx: None)\n"
            "register_algorithm(Algo.name, lambda params: None)\n",
            path="proj/plugin.py",
        )
        assert report.ok

    def test_duplicate_registration_flagged_once(self):
        report = check(
            "register_graph('ring', lambda params, ctx: None)\n"
            "register_graph('ring', lambda params, ctx: None)\n",
            path="proj/plugin.py",
        )
        assert codes(report) == ["R002"]

    def test_lambda_arity_mismatch_flagged(self):
        report = check(
            "register_graph('ring', lambda params: None)\n",
            path="proj/plugin.py",
        )
        assert codes(report) == ["R003"]

    def test_decorated_def_arity_mismatch_flagged(self):
        report = check(
            """\
            @register_algorithm('walker')
            def make_walker(params, extra):
                return extra
            """,
            path="proj/plugin.py",
        )
        assert codes(report) == ["R003"]

    def test_local_def_arity_checked_by_name(self):
        report = check(
            """\
            def make_ring(params):
                return params

            register_graph('ring', make_ring)
            """,
            path="proj/plugin.py",
        )
        assert codes(report) == ["R003"]

    def test_defaulted_ctx_widens_accepted_arity(self):
        report = check(
            "register_algorithm('w', lambda params, ctx=None: None)\n",
            path="proj/plugin.py",
        )
        assert report.ok

    def test_registry_defining_module_is_exempt(self):
        report = check(
            """\
            def register_graph(name, factory=None):
                return factory

            register_graph(computed_name(), lambda: None)
            """,
            path="proj/sim/spec_like.py",
        )
        assert report.ok


# ----------------------------------------------------------------------
# H-rules: observers watch, they never steer
# ----------------------------------------------------------------------


class TestHookRules:
    def test_observer_owned_state_allowed(self):
        report = check(
            """\
            class CountingObserver:
                def on_round_end(self, record):
                    self.last = record
                    self.moves.append(record.num_moves)
            """,
            path="proj/anywhere.py",
        )
        assert report.ok

    def test_hook_return_value_flagged(self):
        report = check(
            """\
            class CountingObserver:
                def on_round_end(self, record):
                    return record
            """,
            path="proj/anywhere.py",
        )
        assert codes(report) == ["H002"]

    def test_bare_and_none_returns_allowed(self):
        report = check(
            """\
            class CountingObserver:
                def on_round_end(self, record):
                    if record is None:
                        return
                    return None
            """,
            path="proj/anywhere.py",
        )
        assert report.ok

    def test_nested_function_return_not_attributed_to_hook(self):
        report = check(
            """\
            class CountingObserver:
                def on_round_end(self, record):
                    def key(item):
                        return item.round_index
                    self.order = sorted(self.seen, key=key)
            """,
            path="proj/anywhere.py",
        )
        assert report.ok

    def test_non_observer_class_not_checked(self):
        report = check(
            """\
            class Controller:
                def on_round_end(self, record):
                    return record
            """,
            path="proj/anywhere.py",
        )
        assert report.ok


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


class TestSuppressions:
    def test_matching_code_suppresses_and_is_counted(self):
        report = check(
            "import time\n"
            "started = time.time()  # reprolint: disable=D001\n"
        )
        assert report.ok
        assert report.suppressed == 1

    def test_bare_disable_suppresses_every_code(self):
        report = check(
            "import time, json\n"
            "x = json.dumps({'a': time.time()})  # reprolint: disable\n",
            path="proj/sim/store.py",
        )
        assert report.ok
        assert report.suppressed == 2

    def test_other_code_does_not_suppress(self):
        report = check(
            "import time\n"
            "started = time.time()  # reprolint: disable=D002\n"
        )
        assert codes(report) == ["D001"]
        assert report.suppressed == 0

    def test_comma_list_suppresses_each_listed_code(self):
        report = check(
            "import time, os\n"
            "x = (time.time(), os.getenv('A'))"
            "  # reprolint: disable=D001,D003\n"
        )
        assert report.ok
        assert report.suppressed == 2

    def test_marker_inside_string_literal_does_not_suppress(self):
        report = check(
            "import time\n"
            "x = (time.time(), '# reprolint: disable=D001')\n"
        )
        assert codes(report) == ["D001"]


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------


class TestEngineMechanics:
    def test_syntax_error_is_a_parse_finding(self):
        report = check("def broken(:\n")
        assert codes(report) == [PARSE_ERROR_CODE]
        assert not report.ok

    def test_findings_sorted_by_location(self):
        report = check(
            "import time, os\n"
            "b = os.getenv('A')\n"
            "a = time.time()\n"
        )
        assert [(f.line, f.code) for f in report.findings] == [
            (2, "D003"),
            (3, "D001"),
        ]

    def test_finding_render_shape(self):
        report = check("import time\nstarted = time.time()\n")
        rendered = report.findings[0].render()
        assert rendered.startswith("proj/sim/engine.py:2:")
        assert " D001 " in rendered

    def test_select_by_family_prefix(self):
        source = (
            "import time, os\n"
            "a = time.time()\n"
            "b = os.getenv('A')\n"
            "c = hash(a)\n"
        )
        report = check(source, path="proj/sim/store.py", select=["D001"])
        assert codes(report) == ["D001"]
        report = check(source, path="proj/sim/store.py", select=["D", "C"])
        assert codes(report) == ["D001", "D003", "C003"]  # location order

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError):
            select_rules(["Z9"])

    def test_iter_python_files_missing_target_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_python_files([tmp_path / "nope"])

    def test_iter_python_files_deduplicates(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        assert iter_python_files([target, target, tmp_path]) == [target]

    def test_lint_paths_applies_scopes_to_fixture_trees(self, tmp_path):
        bad = tmp_path / "sim" / "engine.py"
        bad.parent.mkdir()
        bad.write_text("import time\nstarted = time.time()\n")
        report = lint_paths([tmp_path])
        assert codes(report) == ["D001"]
        assert report.files_scanned == 1


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


class TestReports:
    def test_json_schema_keys_are_stable(self):
        report = check("import time\nstarted = time.time()\n")
        data = report_to_dict(report)
        assert sorted(data) == [
            "counts",
            "files_scanned",
            "findings",
            "format_version",
            "kind",
            "ok",
            "suppressed",
        ]
        assert data["kind"] == "reprolint_report"
        assert data["format_version"] == REPORT_FORMAT_VERSION
        assert data["ok"] is False
        assert data["counts"] == {"D001": 1}
        assert sorted(data["findings"][0]) == [
            "code",
            "column",
            "line",
            "message",
            "path",
        ]

    def test_render_json_is_canonical(self):
        report = check("import time\nstarted = time.time()\n")
        text = render_json(report)
        assert json.loads(text) == report_to_dict(report)
        assert text == render_json(report)

    def test_render_text_summarizes_by_code(self):
        report = check(
            "import time\na = time.time()\nb = time.time()\n"
        )
        text = render_text(report)
        assert "D001 x2" in text
        assert text.count("\n") == 2  # two findings + one summary line

    def test_clean_text_report(self):
        report = check("x = 1\n")
        assert render_text(report) == "reprolint: 1 file(s) clean"

    def test_rule_catalogue_covers_every_family(self):
        infos = rule_catalogue()
        assert {info.category for info in infos} >= {"D", "C", "R", "H"}
        assert [info.code for info in infos] == sorted(
            info.code for info in infos
        )
        for info in infos:
            assert info.rationale
            assert info.example_bad
            assert info.example_good

    def test_every_rule_has_unique_code(self):
        rules = all_rules()
        assert len({r.info.code for r in rules}) == len(rules)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "sim" / "engine.py"
        bad.parent.mkdir()
        bad.write_text("import time\nstarted = time.time()\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "D001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "repro lint:" in capsys.readouterr().err

    def test_exit_two_on_unknown_selector(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main(["--select", "Z9", str(tmp_path)]) == 2
        assert "unknown rule selector" in capsys.readouterr().err

    def test_json_flag_emits_schema_stable_report(self, tmp_path, capsys):
        bad = tmp_path / "sim" / "engine.py"
        bad.parent.mkdir()
        bad.write_text("import time\nstarted = time.time()\n")
        assert lint_main(["--json", str(tmp_path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "reprolint_report"
        assert data["counts"] == {"D001": 1}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("D001", "C001", "R001", "H002"):
            assert code in out

    def test_repro_cli_subcommand_wired(self, tmp_path, capsys):
        from repro.cli import build_parser

        (tmp_path / "ok.py").write_text("x = 1\n")
        args = build_parser().parse_args(["lint", str(tmp_path)])
        assert args.func(args) == 0
        assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Self-check: the analyzer holds on the repository's own tree
# ----------------------------------------------------------------------


class TestSelfCheck:
    def test_lint_package_is_clean_under_its_own_rules(self):
        report = lint_paths([REPO / "src" / "repro" / "lint"])
        assert report.ok, render_text(report)

    def test_whole_tree_is_clean(self):
        report = lint_paths(
            [REPO / "src", REPO / "tests", REPO / "benchmarks"]
        )
        assert report.ok, render_text(report)
        assert report.files_scanned > 100
