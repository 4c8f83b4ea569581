"""Empirical checks of the paper's round bounds.

Each function takes a measured run and decides whether the corresponding
theoretical claim holds in it:

* Theorems 4 and 5 upper bound -- every run finishes within
  ``k - alpha_0`` rounds, with or without crashes: the unsettled-robot
  potential ``U`` starts at ``k - alpha_0``, a crash never raises it and
  every round lowers it (Lemma 7 with crashes,
  :func:`repro.sim.invariants.check_potential_round`);
* Theorem 3 lower bound -- against the star-star adversary the run takes
  exactly ``k - alpha_0`` rounds.

Lemma 8's width is :func:`repro.robots.memory.bound_bits`; the Theta(k)
linearity fit is :func:`repro.analysis.statistics.fit_line`.
"""

from __future__ import annotations

from repro.sim.metrics import RunResult


def check_rounds_upper_bound(result: RunResult) -> bool:
    """Theorems 4 and 5: a run disperses in at most ``k - alpha_0`` rounds.

    The bound holds under crashes too (docs/model.md): ``U_0 = k -
    alpha_0``, a crash never raises ``U`` and every round lowers it by at
    least one.  When all ``f`` crashes strike before the first
    Communicate, ``U`` starts at most ``k - f - 1`` (some node stays
    occupied), which is Theorem 5's O(k - f); later crashes do not
    shorten a run.
    """
    if not result.dispersed:
        return False
    return result.rounds <= result.k - result.initial_occupied


def rounds_match_lower_bound(result: RunResult) -> bool:
    """Against the Theorem 3 adversary, rounds must be exactly
    ``k - alpha_0``: at most one new node per round is reachable, and the
    algorithm's Lemma 7 guarantees at least one."""
    if not result.dispersed:
        return False
    return result.rounds == result.k - result.initial_occupied
