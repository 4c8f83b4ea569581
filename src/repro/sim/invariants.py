"""Post-hoc invariant verification of recorded runs.

A :class:`~repro.sim.metrics.RunResult` produced with
``collect_records=True`` (and, for the physical checks,
``collect_snapshots=True``) carries enough ground truth to verify that the
run respected both the *model* and the *paper's* invariants.  The checks
are split accordingly:

Model invariants (must hold for every algorithm):

* :func:`check_moves_cross_edges` -- every position change in a round
  traverses exactly one edge of that round's graph ``G_r`` (no teleports);
* :func:`check_robots_conserved` -- robots only disappear by crashing;
* :func:`check_round_indices` -- records are contiguous from round 0.

Paper invariants (hold for the canonical algorithm in its model):

* :func:`check_occupied_monotone` -- previously occupied nodes stay
  occupied (Lemma 7's first half; fault-free synchronous runs only);
* :func:`check_progress_every_round` -- at least one newly occupied node
  per executed round (Lemma 7's second half);
* :func:`check_moves_bounded_by_paths` -- at most one robot leaves any
  non-root node per round (disjointness made physical).

:func:`verify_run` bundles the applicable checks and returns a list of
violation strings (empty = clean), so tests can assert emptiness and
experiments can count violations.
"""

from __future__ import annotations

from typing import List

from repro.sim.metrics import RunResult, TerminationReason


def check_round_indices(result: RunResult) -> List[str]:
    """Records must be contiguous, starting at round 0."""
    violations = []
    for expected, record in enumerate(result.records):
        if record.round_index != expected:
            violations.append(
                f"record {expected} carries round_index "
                f"{record.round_index}"
            )
    return violations


def check_robots_conserved(result: RunResult) -> List[str]:
    """Robots present at a round's start either end it somewhere or crash
    (after Compute); new robots never appear."""
    violations = []
    for record in result.records:
        before = set(record.positions_before)
        after = set(record.positions_after)
        crashed = set(record.crashed_after_compute)
        if after - before:
            violations.append(
                f"round {record.round_index}: robots {sorted(after - before)} "
                "appeared from nowhere"
            )
        missing = before - after - crashed
        if missing:
            violations.append(
                f"round {record.round_index}: robots {sorted(missing)} "
                "vanished without crashing"
            )
    return violations


def check_moves_cross_edges(result: RunResult) -> List[str]:
    """Every per-round position change must be along an edge of ``G_r``.

    Requires snapshots in the records (``collect_snapshots=True``).
    """
    violations = []
    for record in result.records:
        if record.snapshot is None:
            violations.append(
                f"round {record.round_index}: no snapshot recorded; rerun "
                "with collect_snapshots=True"
            )
            continue
        for robot_id, before in record.positions_before.items():
            after = record.positions_after.get(robot_id)
            if after is None or after == before:
                continue
            if not record.snapshot.has_edge(before, after):
                violations.append(
                    f"round {record.round_index}: robot {robot_id} "
                    f"teleported {before} -> {after} (no such edge in G_r)"
                )
    return violations


def check_occupied_monotone(result: RunResult) -> List[str]:
    """Fault-free Lemma 7 (first half): occupied nodes never vacate."""
    violations = []
    for record in result.records:
        lost = record.occupied_before - record.occupied_after
        if lost:
            violations.append(
                f"round {record.round_index}: occupied nodes "
                f"{sorted(lost)} were vacated"
            )
    return violations


def check_progress_every_round(result: RunResult) -> List[str]:
    """Fault-free Lemma 7 (second half): >= 1 new node per round."""
    violations = []
    for record in result.records:
        if not record.newly_occupied:
            violations.append(
                f"round {record.round_index}: no newly occupied node"
            )
    return violations


def check_moves_bounded_by_paths(result: RunResult) -> List[str]:
    """At most one robot leaves any node per round, except multiplicity
    nodes acting as path roots (which may send one robot per path).

    For the canonical algorithm, a node that is not a spanning-tree root
    belongs to at most one disjoint path (Observation 4), so at most one
    of its robots moves.  Roots may send several, but never all: the node
    must stay occupied.  The executable form: every node that loses robots
    this round either keeps at least one, or receives a replacement.
    """
    violations = []
    for record in result.records:
        departures: dict = {}
        for robot_id, before in record.positions_before.items():
            after = record.positions_after.get(robot_id)
            if after is not None and after != before:
                departures.setdefault(before, []).append(robot_id)
        for node in departures:
            if node not in record.occupied_after:
                violations.append(
                    f"round {record.round_index}: node {node} sent "
                    f"{sorted(departures[node])} away and ended empty"
                )
    return violations


def verify_run(
    result: RunResult,
    *,
    expect_paper_invariants: bool = True,
    expect_physical_moves: bool = True,
) -> List[str]:
    """Run the applicable checks; return all violations found.

    ``expect_paper_invariants`` should be False for runs with crashes,
    semi-synchronous schedules, or non-canonical algorithms -- the model
    checks still apply, the Lemma 7 family does not.
    """
    violations = check_round_indices(result)
    violations += check_robots_conserved(result)
    if expect_physical_moves:
        violations += check_moves_cross_edges(result)
    if expect_paper_invariants:
        if result.crashed_robots:
            raise ValueError(
                "paper invariants are fault-free statements; pass "
                "expect_paper_invariants=False for faulty runs"
            )
        violations += check_occupied_monotone(result)
        if result.reason is not TerminationReason.ALREADY_DISPERSED:
            violations += check_progress_every_round(result)
        violations += check_moves_bounded_by_paths(result)
    return violations
