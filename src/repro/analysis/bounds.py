"""Empirical checks of the paper's bounds.

Each function takes measured data and decides whether the corresponding
theoretical claim holds in the measurements:

* Theorem 4 upper bound -- fault-free runs finish within ``k - alpha_0``
  rounds (the occupied set starts at ``alpha_0`` nodes and must gain at
  least one node per round, Lemma 7);
* Lemma 7 -- the occupied node set grows monotonically, by at least one
  node per executed round, in fault-free runs;
* Lemma 8 -- peak persistent memory grows like ``ceil(log2 k)`` bits.

The Theta(k) linearity fit is :func:`repro.analysis.statistics.fit_line`.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.sim.metrics import RunResult


def check_rounds_upper_bound(result: RunResult) -> bool:
    """Theorem 4: a fault-free run finishes in at most ``k - alpha_0``
    rounds (and trivially at least 0)."""
    if result.crashed_robots:
        raise ValueError(
            "the k - alpha_0 bound is for fault-free runs; use the O(k - f) "
            "check for faulty ones"
        )
    if not result.dispersed:
        return False
    return result.rounds <= result.k - result.initial_occupied


def check_faulty_rounds_bound(result: RunResult, slack: int = 1) -> bool:
    """Theorem 5 shape: with ``f`` crashes the run needs O(k - f) rounds.

    The executable form: rounds <= (k - f) + slack extra rounds for crash
    timing artifacts (a crash after Compute can undo one round's progress:
    the crashed robot's vacated node must be re-occupied).
    """
    if not result.dispersed:
        return False
    f = len(result.crashed_robots)
    return result.rounds <= max(0, result.k - f) + slack * max(1, f)


def check_monotone_progress(result: RunResult) -> bool:
    """Lemma 7 on a fault-free trace: |occupied| strictly grows each round.

    Requires the run to have per-round records.
    """
    if result.crashed_robots:
        raise ValueError("Lemma 7 is a fault-free statement")
    trajectory = result.occupied_trajectory()
    return all(b >= a + 1 for a, b in zip(trajectory, trajectory[1:]))


def check_memory_logarithmic(
    bits_by_k: Dict[int, int], *, constant: float = 3.0
) -> bool:
    """Lemma 8 shape: measured peak bits <= constant * ceil(log2 k) + 1,
    and non-decreasing dependence on k overall."""
    for k, bits in bits_by_k.items():
        budget = constant * max(1.0, math.ceil(math.log2(max(k, 2)))) + 1
        if bits > budget:
            return False
    return True


def max_new_nodes_per_round(result: RunResult) -> int:
    """Largest per-round occupied-set growth in a recorded trace."""
    progress = result.progress_per_round()
    return max(progress) if progress else 0


def min_new_nodes_per_round(result: RunResult) -> int:
    """Smallest per-round occupied-set growth in a recorded trace."""
    progress = result.progress_per_round()
    return min(progress) if progress else 0


def rounds_match_lower_bound(result: RunResult) -> bool:
    """Against the Theorem 3 adversary, rounds must be exactly
    ``k - alpha_0``: at most one new node per round is reachable, and the
    algorithm's Lemma 7 guarantees at least one."""
    if not result.dispersed:
        return False
    return result.rounds == result.k - result.initial_occupied
