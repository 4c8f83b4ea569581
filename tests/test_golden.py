"""Golden-value regression tests.

Every run in this library is deterministic given its seeds, so a handful
of exact outcomes can pin the implementation's observable behavior: if a
future change alters any tie-break, port convention, or RNG stream, these
tests catch it immediately (changing them knowingly is fine -- the point
is that it cannot happen silently, which matters for a reproduction whose
EXPERIMENTS.md quotes concrete numbers).
"""

from repro.adversary.star_lower_bound import StarStarAdversary
from repro.analysis.figures import build_fig3_instance
from repro.core.components import partition_into_components
from repro.core.dispersion import DispersionDynamic, component_moves
from repro.graph.dynamic import RandomChurnDynamicGraph, StaticDynamicGraph
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.observation import build_info_packets


class TestGoldenRuns:
    def test_quickstart_run(self):
        """The README's quickstart instance, exactly."""
        dyn = RandomChurnDynamicGraph(40, extra_edges=20, seed=7)
        result = SimulationEngine(
            dyn, RobotSet.rooted(30, 40), DispersionDynamic()
        ).run()
        assert result.dispersed
        assert result.rounds == 21
        assert result.total_moves == 73
        assert result.max_persistent_bits == 5

    def test_star_adversary_exact(self):
        adversary = StarStarAdversary(20, [0], seed=16)
        result = SimulationEngine(
            adversary, RobotSet.rooted(16, 20), DispersionDynamic()
        ).run()
        assert result.rounds == 15
        assert result.total_moves == 15  # exactly one move per round

    def test_fig3_first_round_moves(self):
        """The worked example's sliding map, exactly as EXPERIMENTS.md
        quotes it."""
        instance = build_fig3_instance()
        packets = list(
            build_info_packets(
                instance.snapshot, instance.positions
            ).values()
        )
        moves = {}
        for component in partition_into_components(packets):
            moves.update(component_moves(component))
        assert moves == {12: 1, 3: 2, 5: 3, 7: 2, 13: 3, 9: 3}

    def test_fig3_full_run(self):
        instance = build_fig3_instance()
        result = SimulationEngine(
            StaticDynamicGraph(instance.snapshot),
            instance.positions,
            DispersionDynamic(),
        ).run()
        assert result.dispersed
        assert result.rounds == 1
        assert result.total_moves == 6

    def test_churn_sequence_positions(self):
        """Full final placement of a small seeded run."""
        dyn = RandomChurnDynamicGraph(10, extra_edges=4, seed=3)
        result = SimulationEngine(
            dyn, RobotSet.rooted(6, 10), DispersionDynamic()
        ).run()
        assert result.dispersed
        assert result.final_positions == {
            1: 0, 2: 2, 3: 9, 4: 3, 5: 4, 6: 7,
        }
