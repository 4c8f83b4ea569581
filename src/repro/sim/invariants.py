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

* :func:`check_potential_round` -- Lemma 7 extended to crashes, the one
  place it is computed: with ``U = alive robots - occupied nodes``, every
  FSYNC round that starts with ``U > 0`` lowers ``U``, and no node
  empties unless a robot crashed after Compute.  It returns a
  :class:`PotentialViolation` so callers can count the two kinds apart;
  :func:`check_potential` runs it over a whole record.  It bounds every
  run by ``k - alpha_0`` rounds, crashes or not (docs/model.md);
* :func:`check_moves_bounded_by_paths` -- at most one robot leaves any
  non-root node per round (disjointness made physical).

:func:`verify_run` bundles the applicable checks and returns a list of
violation strings (empty = clean), so tests can assert emptiness and
experiments can count violations.
"""

from __future__ import annotations

import enum
from typing import List

from repro.sim.metrics import RoundRecord, RunResult


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


class PotentialViolation(enum.Flag):
    """What :func:`check_potential_round` found wrong with one round."""

    NONE = 0
    NO_PROGRESS = enum.auto()
    """The round started with ``U > 0`` and ``U`` fell by less than one."""
    VACATED = enum.auto()
    """An occupied node emptied in a round without an after-Compute crash."""


def check_potential_round(record: RoundRecord) -> PotentialViolation:
    """Lemma 7 with crashes on one round: ``U`` falls, nothing is vacated.

    ``U = len(positions) - len(occupied)`` on each side of the round.  A
    crash never raises ``U`` (a lone robot takes its node with it; a
    robot on a multiplicity node lowers ``U`` by one), so a crash is
    never an excuse for ``U`` to stall.  It is the one excuse for a
    vacated node: a settled robot that crashes after Compute empties its
    node.  On a fault-free run robots are conserved, so ``U`` falls
    exactly when the occupied set grows: with nothing vacated, that is
    the paper's Lemma 7.
    """
    found = PotentialViolation.NONE
    before = len(record.positions_before) - len(record.occupied_before)
    after = len(record.positions_after) - len(record.occupied_after)
    if before > 0 and after >= before:
        found |= PotentialViolation.NO_PROGRESS
    if not (
        record.crashed_after_compute
        or record.occupied_before <= record.occupied_after
    ):
        found |= PotentialViolation.VACATED
    return found


def potential_violations(record: RoundRecord) -> List[str]:
    """:func:`check_potential_round`'s finding as violation strings."""
    found = check_potential_round(record)
    violations = []
    if PotentialViolation.NO_PROGRESS in found:
        violations.append(
            f"round {record.round_index}: the unsettled-robot count "
            "did not fall"
        )
    if PotentialViolation.VACATED in found:
        lost = sorted(record.occupied_before - record.occupied_after)
        violations.append(
            f"round {record.round_index}: occupied nodes {lost} were "
            "vacated"
        )
    return violations


def check_potential(result: RunResult) -> List[str]:
    """Lemma 7 / Theorem 5's potential on every recorded round."""
    return [
        violation
        for record in result.records
        for violation in potential_violations(record)
    ]


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
    checks still apply.  A crash run is refused rather than checked: the
    potential is crash-aware, but :func:`check_moves_bounded_by_paths` is
    not (a crash after Compute can empty a node that sent a robot away);
    check such a run with :func:`check_potential`.
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
        violations += check_potential(result)
        violations += check_moves_bounded_by_paths(result)
    return violations
