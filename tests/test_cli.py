"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main

#: Per-claim commands whose claims the campaign's sections now own.
RETIRED_COMMANDS = ("sweep", "faults", "lower-bound", "figure3", "ring", "table1")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_are_exactly_the_six(self):
        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == {
            "run", "campaign", "cache", "chaos", "export-dot", "lint"
        }

    @pytest.mark.parametrize("name", RETIRED_COMMANDS)
    def test_retired_command_exits_two(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 40 and args.k == 30


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--n", "16", "--k", "10", "--rooted"]) == 0
        out = capsys.readouterr().out
        assert "dispersed" in out

    def test_run_with_trace(self, capsys):
        assert main(
            ["run", "--n", "12", "--k", "8", "--rooted", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "occ_before" in out


class TestNewCommands:
    def test_export_dot_figure3(self, capsys):
        assert main(["export-dot", "figure3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph figure3 {")

    def test_export_dot_random_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.dot"
        assert main(
            ["export-dot", "random", "--n", "8", "--k", "5",
             "--output", str(target)]
        ) == 0
        assert target.read_text().startswith("graph configuration {")

    def test_campaign_quick(self, capsys):
        assert main(["campaign", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "17/17 experiments match" in out
        assert "FAIL" not in out

    def test_run_live(self, capsys):
        assert main(["run", "--n", "10", "--k", "6", "--rooted",
                     "--live"]) == 0
        out = capsys.readouterr().out
        assert "round   0" in out and "dispersed" in out


def _seed_store(root, count=3):
    import repro
    from repro.sim.spec import make_spec
    from repro.sim.store import RunStore

    store = RunStore(root)
    specs = [
        make_spec(
            "random_churn", {"n": 12, "extra_edges": 6}, k=6, seed=seed
        )
        for seed in range(count)
    ]
    for spec in specs:
        store.put(spec, repro.execute(spec))
    return store, specs


class TestCacheVerifyCommand:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        _seed_store(tmp_path)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 entries checked, 3 ok, 0 corrupt" in out

    def test_corruption_exits_one_and_fix_quarantines(self, tmp_path, capsys):
        store, specs = _seed_store(tmp_path)
        victim = store.path_for(store.digest(specs[0]))
        victim.write_bytes(victim.read_bytes()[:40])
        # List-only: reports, exits 1, leaves the entry in place.
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        assert "1 corrupt, 0 quarantined" in capsys.readouterr().out
        assert victim.exists()
        # --fix moves it aside so the next read recomputes.
        assert main(
            ["cache", "verify", "--fix", "--cache-dir", str(tmp_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "1 corrupt, 1 quarantined" in out and "recomputed" in out
        assert not victim.exists()
        assert (store.quarantine_dir / victim.name).exists()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0

    def test_json_output(self, tmp_path, capsys):
        import json

        _seed_store(tmp_path)
        assert main(
            ["cache", "verify", "--json", "--cache-dir", str(tmp_path)]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "run_store_verify"
        assert data["clean"] is True and data["checked"] == 3

    def test_stats_and_gc_report_integrity_fields(self, tmp_path, capsys):
        import json

        store, specs = _seed_store(tmp_path)
        assert main(
            ["cache", "stats", "--json", "--cache-dir", str(tmp_path)]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["corrupt_entries"] == 0
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 0 entries, kept 3" in out
        assert "unlink errors" not in out  # only surfaced when nonzero


class TestChaosCommand:
    def test_replay_converges_and_writes_report(self, tmp_path, capsys):
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                {
                    "kind": "fault_plan",
                    "format_version": 2,
                    "seed": 3,
                    "runner": [
                        {"kind": "transient", "spec_index": 9, "times": 1}
                    ],
                }
            )
        )
        report_path = tmp_path / "report.json"
        assert main(
            ["chaos", "--plan", str(plan_path), "--quick",
             "--json", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "CONVERGED" in out
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert [f["kind"] for f in data["failures"]] == ["transient"]

    def test_missing_and_invalid_plans_exit_two(self, tmp_path, capsys):
        assert main(
            ["chaos", "--plan", str(tmp_path / "absent.json")]
        ) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "fault_plan", "format_version": 99}')
        assert main(["chaos", "--plan", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "invalid fault plan" in err

    def test_plan_with_unknown_entry_key_exits_two(self, tmp_path, capsys):
        import json

        plan = tmp_path / "typo.json"
        plan.write_text(json.dumps({
            "format_version": 2,
            "runner": [{"kind": "crash", "spec_index": 3, "unit_index": 7}],
            "engine": [{"phase": "on_move", "spec_index": 1, "rounds": 4}],
        }))
        assert main(["chaos", "--plan", str(plan), "--quick"]) == 2
        assert "unit_index" in capsys.readouterr().err


class TestCacheGcPurgeQuarantine:
    def test_purge_flag_reports_purged_count(self, tmp_path, capsys):
        store, specs = _seed_store(tmp_path)
        victim = store.path_for(store.digest(specs[0]))
        victim.write_text("{not json")
        assert store.get(specs[0]) is None  # read path quarantines it
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "quarantined" not in capsys.readouterr().out
        assert store.quarantine_usage()["entries"] == 1
        assert main(
            ["cache", "gc", "--purge-quarantine", "0",
             "--cache-dir", str(tmp_path)]
        ) == 0
        assert "purged 1 quarantined" in capsys.readouterr().out
        assert store.quarantine_usage()["entries"] == 0


class TestChaosGoldenFailures:
    @staticmethod
    def _plan(tmp_path):
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                {
                    "kind": "fault_plan",
                    "format_version": 2,
                    "seed": 3,
                    "runner": [
                        {"kind": "transient", "spec_index": 9, "times": 1}
                    ],
                }
            )
        )
        return plan_path

    def test_update_then_compare_round_trip(self, tmp_path, capsys):
        from repro.chaos import load_failure_stream

        plan = self._plan(tmp_path)
        golden = tmp_path / "golden.json"
        assert main(
            ["chaos", "--plan", str(plan), "--quick",
             "--golden-failures", str(golden), "--update-golden"]
        ) == 0
        assert "wrote golden failure stream" in capsys.readouterr().out
        _, records = load_failure_stream(golden.read_text())
        assert [r.kind for r in records] == ["transient"]
        assert main(
            ["chaos", "--plan", str(plan), "--quick",
             "--golden-failures", str(golden)]
        ) == 0
        assert "failure stream matches" in capsys.readouterr().out

    def test_drift_fails_with_readable_diff(self, tmp_path, capsys):
        from repro.chaos import render_failure_stream

        plan = self._plan(tmp_path)
        golden = tmp_path / "golden.json"
        golden.write_text(render_failure_stream("0" * 64, []))
        assert main(
            ["chaos", "--plan", str(plan), "--quick",
             "--golden-failures", str(golden)]
        ) == 1
        out = capsys.readouterr().out
        assert "failure stream drift" in out
        assert "plan digest mismatch" in out
        assert "+ unexpected" in out
