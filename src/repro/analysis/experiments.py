"""The Table I row 3 and row 4 run grids, and their per-group summary.

:func:`rounds_vs_k_specs` and :func:`faults_specs` declare the rounds-vs-k
and crash-fault sweeps as :class:`~repro.sim.spec.RunSpec` grids.  Run
them through any :class:`~repro.sim.runner.Runner`, or through
``repro.sweep(specs, jobs=N, store=...)`` to fan the grid across cores
and cache every run: an interrupted sweep resumes where it stopped and
an identical re-run costs only disk reads.  :func:`summarize` turns one
group of results into the mean/min/max row a report prints.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.robots.faults import CrashPhase
from repro.sim.metrics import RunResult
from repro.sim.spec import ComponentSpec, CrashSpec, PlacementSpec, RunSpec


def rounds_vs_k_specs(
    k_values: Sequence[int],
    *,
    n_for_k: Callable[[int], int] = lambda k: 2 * k,
    extra_edges_per_node: float = 0.5,
    rooted: bool = True,
    seeds: Sequence[int] = (0, 1, 2),
    algorithm: str = "dispersion_dynamic",
) -> List[RunSpec]:
    """The rounds-vs-k sweep as a declarative :class:`RunSpec` grid.

    One spec per ``(k, seed)`` pair, in ``k``-major order: rooted (or
    arbitrary) starts on random churn with ``n = n_for_k(k)`` nodes and
    ``extra_edges_per_node * n`` churn edges.
    """
    specs: List[RunSpec] = []
    for k in k_values:
        n = n_for_k(k)
        for seed in seeds:
            specs.append(
                RunSpec(
                    graph=ComponentSpec(
                        "random_churn",
                        {"n": n, "extra_edges": int(extra_edges_per_node * n)},
                    ),
                    placement=PlacementSpec(
                        kind="rooted" if rooted else "arbitrary", k=k
                    ),
                    algorithm=ComponentSpec(algorithm),
                    seed=seed,
                    max_rounds=4 * k + 64,
                    collect_records=False,
                    label=f"k={k} seed={seed}",
                )
            )
    return specs


def faults_specs(
    k: int,
    f_values: Sequence[int],
    *,
    n: Optional[int] = None,
    extra_edges_per_node: float = 0.5,
    seeds: Sequence[int] = (0, 1, 2),
    crash_window: Optional[int] = None,
    phases: Optional[List[CrashPhase]] = None,
) -> List[RunSpec]:
    """The crash-fault sweep as a declarative :class:`RunSpec` grid.

    One spec per ``(f, seed)`` pair, in ``f``-major order.  Crashes are
    scheduled uniformly in ``[0, crash_window]`` (default: early, within
    the first ``k // 2`` rounds, the regime where Theorem 5's O(k - f)
    saving is visible).
    """
    n = n or 2 * k
    window = crash_window if crash_window is not None else max(1, k // 2)
    specs: List[RunSpec] = []
    for f in f_values:
        for seed in seeds:
            specs.append(
                RunSpec(
                    graph=ComponentSpec(
                        "random_churn",
                        {"n": n, "extra_edges": int(extra_edges_per_node * n)},
                    ),
                    placement=PlacementSpec(kind="rooted", k=k),
                    crash=CrashSpec(
                        kind="random",
                        f=f,
                        max_round=window,
                        phases=(
                            tuple(p.value for p in phases)
                            if phases is not None else None
                        ),
                    ),
                    seed=seed,
                    max_rounds=4 * k + 64,
                    collect_records=False,
                    label=f"k={k} f={f} seed={seed}",
                )
            )
    return specs


def summarize(results: Sequence[RunResult]) -> Dict[str, float]:
    """Mean/min/max rounds and mean moves over a group of runs."""
    rounds = [r.rounds for r in results]
    moves = [r.total_moves for r in results]
    return {
        "mean_rounds": sum(rounds) / len(rounds),
        "min_rounds": float(min(rounds)),
        "max_rounds": float(max(rounds)),
        "mean_moves": sum(moves) / len(moves),
        "all_dispersed": float(all(r.dispersed for r in results)),
    }
