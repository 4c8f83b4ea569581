"""Tests for the analysis package: experiments, bounds, tables, figures."""

import random

import pytest

from repro.adversary.star_lower_bound import StarStarAdversary
from repro.analysis.bounds import (
    check_faulty_rounds_bound,
    check_memory_logarithmic,
    check_monotone_progress,
    check_rounds_upper_bound,
    linear_fit,
    max_new_nodes_per_round,
    min_new_nodes_per_round,
)
from repro.analysis.experiments import (
    DispersionOutcome,
    churn_dynamics,
    run_dispersion,
    static_dynamics,
    summarize,
    sweep_faults,
    sweep_rounds_vs_k,
)
from repro.analysis.figures import build_fig3_instance, fig3_component_summary
from repro.analysis.tables import format_table
from repro.graph.generators import random_connected_graph
from repro.robots.faults import CrashSchedule
from repro.robots.robot import RobotSet


class TestBounds:
    def test_linear_fit_recovers_line(self):
        xs = [1, 2, 3, 4]
        ys = [3, 5, 7, 9]
        slope, intercept = linear_fit(xs, ys)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_linear_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])

    def test_memory_check(self):
        assert check_memory_logarithmic({8: 4, 64: 7, 1024: 11})
        assert not check_memory_logarithmic({8: 50})

    def test_rounds_bound_rejects_faulty_runs(self):
        k, n = 8, 12
        schedule = CrashSchedule.random_schedule(k, 2, 2, random.Random(0))
        result = run_dispersion(
            churn_dynamics()(n, 0),
            RobotSet.rooted(k, n),
            crash_schedule=schedule,
        )
        with pytest.raises(ValueError):
            check_rounds_upper_bound(result)
        with pytest.raises(ValueError):
            check_monotone_progress(result)
        assert check_faulty_rounds_bound(result)

    def test_progress_extrema(self):
        result = run_dispersion(
            StarStarAdversary(12, [0], seed=1), RobotSet.rooted(8, 12)
        )
        assert max_new_nodes_per_round(result) == 1
        assert min_new_nodes_per_round(result) == 1


class TestExperimentRunners:
    def test_run_dispersion_defaults(self):
        result = run_dispersion(
            churn_dynamics()(16, 3), RobotSet.rooted(10, 16)
        )
        assert result.dispersed

    def test_static_dynamics_factory(self):
        factory = static_dynamics(
            lambda n, rng: random_connected_graph(n, n, rng)
        )
        dyn = factory(12, 5)
        assert dyn.snapshot(0) is dyn.snapshot(3)

    def test_sweep_rounds_vs_k(self):
        data = sweep_rounds_vs_k([4, 8], seeds=(0, 1))
        assert set(data) == {4, 8}
        for k, outcomes in data.items():
            assert len(outcomes) == 2
            for outcome in outcomes:
                assert outcome.dispersed
                assert outcome.rounds <= k - 1

    def test_sweep_faults(self):
        data = sweep_faults(8, [0, 2, 4], seeds=(0,))
        assert set(data) == {0, 2, 4}
        for f, outcomes in data.items():
            assert outcomes[0].faults == f
            assert outcomes[0].dispersed

    def test_summarize(self):
        outcome = DispersionOutcome(
            k=4, n=8, initial_occupied=1, rounds=3, total_moves=5,
            max_persistent_bits=3, dispersed=True, alive=4, faults=0,
        )
        stats = summarize([outcome, outcome])
        assert stats["mean_rounds"] == 3.0
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

        result = run_dispersion(
            churn_dynamics()(12, 1), RobotSet.rooted(8, 12)
        )
        progress = render_progress(result)
        assert "round" in progress and "occupied" in progress
        bar = occupancy_bar(result)
        assert "8/8" in bar


class TestCampaign:
    def test_quick_campaign_passes(self):
        from repro.analysis.campaign import run_campaign

        report = run_campaign("quick")
        assert report.all_passed
        assert len(report.sections) == 10
        rendered = report.render()
        assert "Table I row 3" in rendered
        assert "Figure 2" in rendered
        assert "scheduler models" in rendered
        assert "[PASS]" in rendered and "[FAIL]" not in rendered

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


class TestPaperTable:
    def test_table1_all_rows_hold(self):
        from repro.analysis.paper_table import table1

        text, all_ok = table1()
        assert all_ok
        assert "Thm 1" in text and "Thm 5" in text
        # four result rows under title + header + rule
        assert len(text.splitlines()) == 7


class TestComparisonHarness:
    def make_comparison(self, budget=400):
        from repro.analysis.comparison import Contender, compare
        from repro.baselines.random_walk import RandomWalkDispersion
        from repro.core.dispersion import DispersionDynamic
        from repro.graph.dynamic import RandomChurnDynamicGraph

        return compare(
            [
                Contender("paper", DispersionDynamic),
                Contender("walk", lambda: RandomWalkDispersion(seed=1)),
            ],
            lambda seed, algo: RandomChurnDynamicGraph(
                16, extra_edges=8, seed=seed
            ),
            lambda seed: RobotSet.rooted(10, 16),
            seeds=(0, 1),
            budget=budget,
        )

    def test_both_complete_on_benign_churn(self):
        result = self.make_comparison()
        assert result.completion_rate("paper") == 1.0
        assert result.completion_rate("walk") == 1.0
        assert result.mean_rounds("paper") <= 9  # k - 1

    def test_table_renders(self):
        result = self.make_comparison()
        text = result.table(title="benign churn")
        assert "paper" in text and "walk" in text
        assert "2/2" in text

    def test_speedup_on_worst_case(self):
        from repro.adversary.star_lower_bound import StarStarAdversary
        from repro.analysis.comparison import Contender, compare
        from repro.baselines.random_walk import RandomWalkDispersion
        from repro.core.dispersion import DispersionDynamic

        result = compare(
            [
                Contender("paper", DispersionDynamic),
                Contender("walk", lambda: RandomWalkDispersion(seed=2)),
            ],
            lambda seed, algo: StarStarAdversary(16, [0], seed=seed),
            lambda seed: RobotSet.rooted(12, 16),
            seeds=(0, 1),
            budget=20000,
        )
        assert result.completion_rate("paper") == 1.0
        assert result.mean_rounds("paper") == 11.0  # k - 1 exactly
        speedup = result.speedup("walk", "paper")
        assert speedup is not None and speedup > 1.0

    def test_incomplete_runs_reported(self):
        """A stalling contender shows 0 completions, not a crash."""
        from repro.adversary.local_impossibility import (
            LocalStallAdversary,
            build_fig1_instance,
        )
        from repro.analysis.comparison import Contender, compare
        from repro.baselines.local_candidates import LocalChainShift

        instance = build_fig1_instance(6, 9)

        result = compare(
            [Contender("stalled", LocalChainShift)],
            lambda seed, algo: LocalStallAdversary(9, algo, seed=seed),
            lambda seed: RobotSet(dict(instance.positions), 9),
            seeds=(0,),
            budget=80,
        )
        assert result.completion_rate("stalled") == 0.0
        assert result.mean_rounds("stalled") is None
        assert "0/1" in result.table()

    def test_rejects_duplicate_names(self):
        from repro.analysis.comparison import Contender, compare
        from repro.core.dispersion import DispersionDynamic
        import pytest as _pytest

        with _pytest.raises(ValueError):
            compare(
                [
                    Contender("same", DispersionDynamic),
                    Contender("same", DispersionDynamic),
                ],
                lambda seed, algo: None,
                lambda seed: None,
            )

    def test_rejects_empty(self):
        from repro.analysis.comparison import compare
        import pytest as _pytest

        with _pytest.raises(ValueError):
            compare([], lambda s, a: None, lambda s: None)
