"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pathlib
import random
from typing import Dict, List, Tuple

import pytest

from repro.graph.generators import random_connected_graph
from repro.graph.snapshot import GraphSnapshot
from repro.robots.robot import RobotSet
from repro.sim.observation import InfoPacket, build_info_packets


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests that need more seeds build their own."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def repo_lint():
    """One whole-program lint run over ``src`` against the committed baseline.

    The lint self-checks all read this single run, so the repository's
    tree is indexed, graphed and effect-summarized once per session.
    """
    from repro.lint.deep import run_whole_program_analysis

    repo = pathlib.Path(__file__).resolve().parent.parent
    return run_whole_program_analysis(
        [repo / "src"], baseline_path=repo / "lint-baseline.json"
    )


@pytest.fixture(scope="session")
def quick_campaign():
    """One store-less ``run_campaign("quick")`` report.

    The tests that only read a quick campaign's report (its verdicts,
    section titles or cache block) share this one cold pass; a test
    whose point is a cold pass runs its own.
    """
    from repro.analysis.campaign import run_campaign

    return run_campaign("quick")


@pytest.fixture(autouse=True)
def _isolated_run_store(tmp_path, monkeypatch):
    """Point the default run store at a per-test directory.

    CLI commands cache by default, so without this every test invocation
    would read and write the developer's real ``~/.cache`` store --
    leaking state between tests and polluting the machine.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "run-store"))


def make_packets(
    snapshot: GraphSnapshot, positions: Dict[int, int]
) -> List[InfoPacket]:
    """All information packets of a configuration (1-NK enabled)."""
    return list(build_info_packets(snapshot, positions).values())


def random_instance(
    seed: int,
    *,
    min_n: int = 4,
    max_n: int = 30,
) -> Tuple[GraphSnapshot, Dict[int, int]]:
    """A random connected snapshot plus a random robot placement on it."""
    rng = random.Random(seed)
    n = rng.randint(min_n, max_n)
    snapshot = random_connected_graph(n, rng.randint(0, 2 * n), rng)
    k = rng.randint(2, n)
    robots = RobotSet.arbitrary(k, n, rng)
    return snapshot, robots.positions


def representative_of(positions: Dict[int, int], node: int) -> int:
    """Smallest robot ID on ``node`` (its packet representative)."""
    ids = [r for r, pos in positions.items() if pos == node]
    if not ids:
        raise ValueError(f"node {node} is empty")
    return min(ids)
