"""Run records and metrics collected by the engine.

The two performance metrics of the paper are rounds-to-dispersion and
persistent bits per robot; the engine additionally records per-round
snapshots of the configuration (positions, occupied set, moves, crashes)
so tests can check the progress lemmas (e.g. Lemma 7: the occupied set
grows by at least one node per round in fault-free runs) and examples can
render traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.graph.snapshot import GraphSnapshot


class TerminationReason(enum.Enum):
    """Why a run ended."""

    DISPERSED = "dispersed"
    """Ground truth reached a configuration with no multiplicity node
    (among alive robots)."""

    ALREADY_DISPERSED = "already_dispersed"
    """The initial configuration was already dispersed; zero rounds run."""

    ROUND_LIMIT = "round_limit"
    """The max_rounds cap was hit before dispersion -- for a correct
    algorithm on a legal instance this indicates a failure (or an
    impossibility demonstration doing its job)."""

    ALL_CRASHED = "all_crashed"
    """Every robot crashed; dispersion is vacuous."""


@dataclass(frozen=True)
class RoundRecord:
    """Ground-truth record of one executed round.

    The engine keeps one container per configuration: a record's
    ``positions_before``/``occupied_before`` are the previous record's
    ``positions_after``/``occupied_after`` objects (unless a
    before-Communicate crash replaced the configuration), and
    ``positions_after`` is the engine state's own dict.  Treat them as
    read-only; copy one (``dict(record.positions_after)``) before
    editing it.
    """

    round_index: int
    positions_before: Dict[int, int]
    """Alive robot -> node at the start of the round (after
    before-communicate crashes)."""

    positions_after: Dict[int, int]
    """Alive robot -> node at the end of the round."""

    moved_robots: Tuple[int, ...]
    """Robots that changed node this round, sorted."""

    crashed_before_communicate: Tuple[int, ...]
    crashed_after_compute: Tuple[int, ...]

    occupied_before: FrozenSet[int]
    occupied_after: FrozenSet[int]

    num_components: int
    """Number of connected components of the occupied subgraph (ground
    truth), measured at Communicate time."""

    max_persistent_bits: int
    """Largest per-robot persistent memory measured this round."""

    snapshot: Optional["GraphSnapshot"] = None
    """The round's graph ``G_r``; populated only when the engine runs with
    ``collect_snapshots=True`` (used by post-hoc invariant verification)."""

    epoch: Optional[int] = None
    """Logical time of this step under a non-fully-synchronous scheduler
    model (the step index under SSYNC, the event-queue clock under
    ASYNC).  ``None`` in FSYNC runs, whose records keep the paper's
    plain form."""

    activated_robots: Optional[Tuple[int, ...]] = None
    """Robots activated this step (sorted), recorded only under a
    non-fully-synchronous scheduler model; ``None`` in FSYNC runs."""

    @property
    def newly_occupied(self) -> FrozenSet[int]:
        """Nodes occupied at round end that were empty at round start."""
        return self.occupied_after - self.occupied_before

    @property
    def num_moves(self) -> int:
        """Number of robots that traversed an edge this round."""
        return len(self.moved_robots)


@dataclass
class RunResult:
    """Complete outcome of one simulated run."""

    reason: TerminationReason
    rounds: int
    """Number of executed rounds (rounds in which the CCM loop ran)."""

    k: int
    n: int
    initial_occupied: int
    """Number of distinct nodes occupied at round 0 (alpha_0)."""

    final_positions: Dict[int, int]
    """Alive robot -> node at termination."""

    crashed_robots: Tuple[int, ...]
    byzantine_robots: Tuple[int, ...]
    total_moves: int
    max_persistent_bits: int
    """Peak persistent memory of any robot over the whole run."""

    total_packets_broadcast: int = 0
    """Sum over rounds of the packets sent (one per occupied node): the
    paper's Communicate phase has every occupied node broadcast once."""

    total_packet_deliveries: int = 0
    """Sum over rounds of packet receptions: under global communication
    every alive robot receives every broadcast (alpha * k' per round);
    under local communication only co-located robots do."""

    records: List[RoundRecord] = field(default_factory=list)
    algorithm_detected_termination: bool = False
    """Whether the robots themselves detected completion (vs. only the
    engine's ground-truth stop)."""

    final_epoch: Optional[int] = None
    """Logical time of the last executed step under a
    non-fully-synchronous scheduler model; ``None`` in FSYNC runs
    (where logical time and the round counter coincide)."""

    def activation_timeline(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Per-step ``(epoch, activated robots)`` pairs, oldest first.

        Empty for FSYNC runs (every robot is active every round) and for
        runs executed with ``collect_records=False``.
        """
        return [
            (r.epoch, r.activated_robots)
            for r in self.records
            if r.epoch is not None and r.activated_robots is not None
        ]

    @property
    def dispersed(self) -> bool:
        """Whether the run ended in a dispersion configuration."""
        return self.reason in (
            TerminationReason.DISPERSED,
            TerminationReason.ALREADY_DISPERSED,
        )

    @property
    def alive_count(self) -> int:
        """Robots alive at termination."""
        return len(self.final_positions)

    def occupied_trajectory(self) -> List[int]:
        """|occupied| at the start of each round, plus the final value.

        For a fault-free run of the paper's algorithm this sequence is
        strictly increasing by at least 1 per round (Lemma 7).
        """
        if not self.records:
            return [self.initial_occupied]
        sizes = [len(r.occupied_before) for r in self.records]
        sizes.append(len(self.records[-1].occupied_after))
        return sizes

    def progress_per_round(self) -> List[int]:
        """Newly-occupied-node count of each executed round."""
        return [len(r.newly_occupied) for r in self.records]

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.reason.value}: k={self.k} n={self.n} "
            f"rounds={self.rounds} moves={self.total_moves} "
            f"mem={self.max_persistent_bits}b "
            f"alive={self.alive_count}/{self.k}"
        )
