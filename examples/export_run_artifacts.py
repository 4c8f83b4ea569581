#!/usr/bin/env python
"""Exporting a run: JSON trace, replay verification, and DOT pictures.

Reproduction artifacts should outlive the process that made them.  This
example runs one dispersion instance and then exercises the library's
export surface:

1. freeze the dynamic graph's rounds into a scripted sequence and verify
   that replaying the script reproduces the recorded run bit-for-bit;
2. dump the full run (per-round positions, moves, crashes, occupancy) as
   JSON, ready for external analysis;
3. emit Graphviz DOT pictures: the initial configuration and the paper's
   Figure 3/4 instance with components, spanning trees, and the selected
   sliding paths highlighted.

Artifacts are written to ``./run_artifacts/`` (created if missing).

Run:  python examples/export_run_artifacts.py
"""

import json
import pathlib

from repro import (
    DispersionDynamic,
    RandomChurnDynamicGraph,
    RobotSet,
    SimulationEngine,
)
from repro.analysis.dot import configuration_to_dot, figure3_dot
from repro.sim.traceio import (
    dynamic_graph_to_script,
    replay_and_verify,
    run_result_to_json,
)

OUT_DIR = pathlib.Path("run_artifacts")


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    n, k, seed = 20, 14, 42

    # --- run the instance ------------------------------------------------
    dynamic_graph = RandomChurnDynamicGraph(n, extra_edges=8, seed=seed)
    robots = RobotSet.rooted(k, n)
    result = SimulationEngine(
        dynamic_graph, robots, DispersionDynamic()
    ).run()
    print(f"run: {result.summary()}")

    # --- 1. freeze + replay ----------------------------------------------
    script = dynamic_graph_to_script(
        RandomChurnDynamicGraph(n, extra_edges=8, seed=seed),
        result.rounds + 1,
    )
    replay_and_verify(script, robots.positions, result)
    print("replay of the frozen graph script reproduced the run exactly")

    # --- 2. JSON trace -----------------------------------------------------
    trace_path = OUT_DIR / "run_trace.json"
    trace_path.write_text(run_result_to_json(result, indent=2))
    decoded = json.loads(trace_path.read_text())
    print(f"wrote {trace_path} "
          f"({len(decoded['records'])} round records, "
          f"{trace_path.stat().st_size} bytes)")

    # --- 3. DOT pictures ---------------------------------------------------
    initial_dot = OUT_DIR / "initial_configuration.dot"
    initial_dot.write_text(
        configuration_to_dot(
            dynamic_graph.snapshot(0), robots.positions, name="round0"
        )
        + "\n"
    )
    fig_dot = OUT_DIR / "figure3.dot"
    fig_dot.write_text(figure3_dot() + "\n")
    print(f"wrote {initial_dot} and {fig_dot} -- render with "
          "`dot -Tpng <file> -o out.png`")

    # the exports round-trip: a quick self-check
    assert decoded["rounds"] == result.rounds
    assert decoded["reason"] == "dispersed"
    assert fig_dot.read_text().startswith("graph figure3")


if __name__ == "__main__":
    main()
