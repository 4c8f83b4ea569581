"""Tests for the analysis package: experiments, bounds, tables, figures."""

import random

import pytest

import repro
from repro.adversary.star_lower_bound import StarStarAdversary
from repro.analysis.bounds import check_rounds_upper_bound
from repro.analysis.experiments import (
    faults_specs,
    rounds_vs_k_specs,
    summarize,
)
from repro.analysis.figures import build_fig3_instance, fig3_component_summary
from repro.analysis.tables import format_table
from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import RandomChurnDynamicGraph
from repro.robots.faults import CrashSchedule
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.invariants import check_potential


def _churn_run(n, seed, k, **engine_kwargs):
    """Algorithm 4 from ``k`` rooted robots on random churn over ``n``."""
    return SimulationEngine(
        RandomChurnDynamicGraph(n, extra_edges=n // 2, seed=seed),
        RobotSet.rooted(k, n),
        DispersionDynamic(),
        **engine_kwargs,
    ).run()


class TestBounds:
    def test_rounds_bound_holds_on_faulty_runs(self):
        k, n = 8, 12
        schedule = CrashSchedule.random_schedule(k, 2, 2, random.Random(0))
        result = _churn_run(n, 0, k, crash_schedule=schedule)
        assert result.crashed_robots
        assert check_rounds_upper_bound(result)  # rounds <= k - alpha_0
        assert check_potential(result) == []

    def test_progress_extrema(self):
        result = SimulationEngine(
            StarStarAdversary(12, [0], seed=1),
            RobotSet.rooted(8, 12),
            DispersionDynamic(),
        ).run()
        progress = result.progress_per_round()
        assert max(progress) == 1
        assert min(progress) == 1


class TestExperimentRunners:
    def test_sweep_rounds_vs_k(self):
        specs = rounds_vs_k_specs([4, 8], seeds=(0, 1))
        assert [spec.placement.k for spec in specs] == [4, 4, 8, 8]
        for spec, result in zip(specs, repro.sweep(specs)):
            assert result.dispersed
            assert result.rounds <= spec.placement.k - 1

    def test_sweep_faults(self):
        specs = faults_specs(8, [0, 2, 4], seeds=(0,))
        assert [spec.crash.f for spec in specs] == [0, 2, 4]
        for spec, result in zip(specs, repro.sweep(specs)):
            assert result.dispersed

    def test_summarize(self):
        result = repro.execute(rounds_vs_k_specs([4], seeds=(0,))[0])
        stats = summarize([result, result])
        assert stats["mean_rounds"] == float(result.rounds)
        assert stats["mean_moves"] == float(result.total_moves)
        assert stats["all_dispersed"] == 1.0


class TestTables:
    def test_basic_table(self):
        text = format_table(
            ("name", "value"), [("alpha", 1), ("b", 22)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert lines[2].startswith("-")
        assert lines[3].startswith("alpha")
        # numeric right-alignment
        assert lines[4].endswith("22")

    def test_floats_and_bools(self):
        text = format_table(("x", "ok"), [(1.234, True), (5.0, False)])
        assert "1.23" in text and "yes" in text and "no" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])


class TestFig3Instance:
    def test_parameters_match_paper(self):
        instance = build_fig3_instance()
        assert instance.n == 15
        assert instance.snapshot.num_edges == 17
        assert instance.k == 14
        assert instance.snapshot.is_connected()

    def test_red_component_robots_match_paper(self):
        """The paper: robots 2, 4, 6, 8-11 compute CG^2."""
        instance = build_fig3_instance()
        red = instance.expected_components[1]
        red_nodes = {
            node
            for rep in red
            for r, node in instance.positions.items()
            if r == rep
        }
        red_robots = sorted(
            r for r, node in instance.positions.items() if node in red_nodes
        )
        assert red_robots == [2, 4, 6, 8, 9, 10, 11]

    def test_components_two_hops_apart(self):
        instance = build_fig3_instance()
        green_nodes = range(0, 6)
        red_nodes = range(6, 12)
        for g in green_nodes:
            for r in red_nodes:
                assert not instance.snapshot.has_edge(g, r)

    def test_summary_lines(self):
        lines = fig3_component_summary(build_fig3_instance())
        assert any("green" in line for line in lines)
        assert any("root 2" in line for line in lines)


class TestRenderers:
    def test_render_configuration(self):
        from repro.analysis.render import render_configuration

        instance = build_fig3_instance()
        text = render_configuration(instance.snapshot, instance.positions)
        assert "node0" in text and "robots 1,12" in text
        assert "empty" in text

    def test_render_configuration_with_labels(self):
        from repro.analysis.render import render_configuration
        from repro.graph.generators import path_graph

        text = render_configuration(
            path_graph(2), {1: 0}, node_labels={0: "depot", 1: "dock"}
        )
        assert "depot" in text and "dock" in text

    def test_render_progress_and_bar(self):
        from repro.analysis.render import occupancy_bar, render_progress

        result = _churn_run(12, 1, 8)
        progress = render_progress(result)
        assert "round" in progress and "occupied" in progress
        bar = occupancy_bar(result)
        assert "8/8" in bar


class TestCampaign:
    def test_quick_campaign_passes(self, quick_campaign):
        report = quick_campaign
        assert report.all_passed
        assert len(report.sections) == 17
        rendered = report.render()
        assert "Table I row 3" in rendered
        assert "Figure 2" in rendered
        assert "scheduler models" in rendered
        assert "[PASS]" in rendered and "[FAIL]" not in rendered

    def test_report_names_engine_backend_and_runner(self, quick_campaign):
        """``backend`` is the engine backend (the default when none is
        pinned), ``runner`` the runner that executed the grids."""
        data = quick_campaign.to_dict()
        assert data["backend"] == "reference"
        assert data["runner"] == "serial"

    def test_rejects_unknown_scale(self):
        from repro.analysis.campaign import run_campaign
        import pytest as _pytest

        with _pytest.raises(ValueError):
            run_campaign("gigantic")


class TestLatexTables:
    def test_basic_latex(self):
        from repro.analysis.tables import format_latex_table

        text = format_latex_table(
            ("k", "rounds"), [(8, 7), (16, 15)],
            caption="Lower bound", label="tab:lb",
        )
        assert text.startswith(r"\begin{table}[t]")
        assert r"\caption{Lower bound}" in text
        assert r"\label{tab:lb}" in text
        assert "8 & 7" in text
        assert text.rstrip().endswith(r"\end{table}")

    def test_latex_escaping(self):
        from repro.analysis.tables import format_latex_table

        text = format_latex_table(("name_%",), [("a&b",)])
        assert r"name\_\%" in text and r"a\&b" in text

    def test_latex_rejects_ragged(self):
        from repro.analysis.tables import format_latex_table
        import pytest as _pytest

        with _pytest.raises(ValueError):
            format_latex_table(("a", "b"), [(1,)])

    def test_latex_bools_render(self):
        from repro.analysis.tables import format_latex_table

        text = format_latex_table(("tight",), [(True,), (False,)])
        assert "yes" in text and "no" in text
