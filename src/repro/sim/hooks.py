"""Per-round phase instrumentation hooks for the simulation engine.

The engine's CCM loop exposes six instrumentation points -- run start,
round start, after Communicate, after Compute, after Move, round end --
plus run end.  Anything that used to be inlined engine code (metrics
collection, live narration, invariant monitoring, trace capture) is now an
:class:`EngineObserver` attached via ``SimulationEngine(observers=[...])``:
the engine *drives*, observers *watch*.  Observers never mutate the run;
every payload they receive is either a copy or documented read-only.

Provided observers:

* :class:`TraceCollector` -- accumulates the per-round
  :class:`~repro.sim.metrics.RoundRecord` s (the engine itself uses one
  internally when ``collect_records=True``);
* :class:`CallbackObserver` -- adapts a plain ``callable(RoundRecord)``
  onto the observer API, called once per completed round;
* :class:`ProgressNarrator` -- prints a one-line live summary per round
  (what ``repro-dispersion run --live`` shows);
* :class:`PhaseTimer` -- wall-clock accounting per CCM phase, for finding
  out where a run actually spends its time;
* :class:`LiveInvariantChecker` -- checks the Lemma 7 shape (monotone
  occupancy, per-round progress) *as the run executes*, so large sweeps
  can keep ``collect_records=False`` and still assert the invariants.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, TextIO, Tuple

from repro.sim.metrics import RoundRecord, RunResult


class EngineObserver:
    """Base class for phase observers: every hook defaults to a no-op.

    Subclass and override only the phases of interest.  Hooks fire in the
    order ``on_run_start``, then per executed round ``on_round_start`` ->
    ``on_communicate`` -> ``on_compute`` -> ``on_move`` -> ``on_round_end``,
    and finally ``on_run_end``.  On the final (termination-detection)
    round only ``on_round_start`` and ``on_communicate`` fire: the engine
    stops before Compute once the configuration is dispersed.
    """

    def on_run_start(self, k: int, n: int) -> None:
        """Called once before round 0."""

    def on_round_start(self, round_index: int, snapshot) -> None:
        """Called with the validated graph ``G_r`` of the round."""

    def on_communicate(self, round_index: int, observations: Mapping) -> None:
        """Called after packet delivery; ``observations`` maps alive robot
        id -> :class:`~repro.sim.observation.Observation` (read-only)."""

    def on_compute(self, round_index: int, decisions: Mapping) -> None:
        """Called after all decisions are collected, before any is applied;
        ``decisions`` maps active robot id -> Decision (read-only)."""

    def on_move(
        self, round_index: int, moved: Tuple[int, ...], positions: Dict[int, int]
    ) -> None:
        """Called after simultaneous move application; ``positions`` is a
        copy of the post-move alive robot -> node mapping."""

    def on_round_end(self, record: RoundRecord) -> None:
        """Called with the completed round's ground-truth record."""

    def on_run_end(self, result: RunResult) -> None:
        """Called once with the final :class:`RunResult`."""


class CallbackObserver(EngineObserver):
    """Adapter: a plain ``callable(RoundRecord)`` as an observer.

    The callable receives each completed round's record from
    :meth:`on_round_end`; it sees nothing of the other hooks.
    """

    def __init__(self, callback: Callable[[RoundRecord], None]) -> None:
        self._callback = callback

    def on_round_end(self, record: RoundRecord) -> None:
        """Forward the record to the wrapped callable."""
        self._callback(record)


class TraceCollector(EngineObserver):
    """Accumulates every :class:`RoundRecord` of a run, in order."""

    def __init__(self) -> None:
        self.records: List[RoundRecord] = []

    def on_run_start(self, k: int, n: int) -> None:
        """Reset so a collector can be reused across runs."""
        self.records = []

    def on_round_end(self, record: RoundRecord) -> None:
        """Store the completed round."""
        self.records.append(record)


class ProgressNarrator(EngineObserver):
    """Prints one line per executed round (the CLI's ``--live`` view)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream

    def on_round_end(self, record: RoundRecord) -> None:
        """Print the round's occupancy delta and move count."""
        print(
            f"round {record.round_index:>3}: occupied "
            f"{len(record.occupied_before):>3} -> "
            f"{len(record.occupied_after):>3}, moves {record.num_moves}",
            file=self._stream,
        )


class PhaseTimer(EngineObserver):
    """Wall-clock accounting of the engine's phases.

    ``totals`` maps phase name (``"adversary"``, ``"communicate"``,
    ``"compute"``, ``"move"``, ``"bookkeeping"``) to accumulated seconds.
    The adversary bucket covers snapshot generation + validation (round
    start up to the Communicate hook's predecessor); bookkeeping covers
    record construction after Move.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {
            "adversary": 0.0,
            "communicate": 0.0,
            "compute": 0.0,
            "move": 0.0,
            "bookkeeping": 0.0,
        }
        self.rounds = 0
        self._t_run = 0.0
        self._t_last = 0.0

    def _lap(self, bucket: str) -> None:
        now = time.perf_counter()
        self.totals[bucket] += now - self._t_last
        self._t_last = now

    def on_run_start(self, k: int, n: int) -> None:
        """Start the clock."""
        self._t_run = self._t_last = time.perf_counter()

    def on_round_start(self, round_index: int, snapshot) -> None:
        """Charge time since the previous hook to adversary/generation."""
        self._lap("adversary")

    def on_communicate(self, round_index: int, observations: Mapping) -> None:
        """Charge the Communicate phase."""
        self._lap("communicate")

    def on_compute(self, round_index: int, decisions: Mapping) -> None:
        """Charge the Compute phase."""
        self._lap("compute")

    def on_move(self, round_index, moved, positions) -> None:
        """Charge the Move phase."""
        self._lap("move")

    def on_round_end(self, record: RoundRecord) -> None:
        """Charge record construction and count the round."""
        self._lap("bookkeeping")
        self.rounds += 1

    @property
    def total_seconds(self) -> float:
        """Seconds across all buckets measured so far."""
        return sum(self.totals.values())

    def summary(self) -> str:
        """One line: per-phase totals in milliseconds."""
        parts = ", ".join(
            f"{name} {seconds * 1e3:.1f}ms"
            for name, seconds in self.totals.items()
        )
        return f"{self.rounds} rounds: {parts}"


class LiveInvariantChecker(EngineObserver):
    """Checks the Lemma 7 shape round by round, without stored records.

    Collects human-readable violation strings in :attr:`violations`
    (mirroring :func:`repro.sim.invariants.check_occupied_monotone` and
    :func:`~repro.sim.invariants.check_progress_every_round`, but live) so
    large sweeps can run ``collect_records=False`` and still assert the
    paper's progress guarantee.  Only meaningful for fault-free runs of
    the canonical algorithm.
    """

    def __init__(self) -> None:
        self.violations: List[str] = []

    def on_run_start(self, k: int, n: int) -> None:
        """Reset so a checker can be reused across runs."""
        self.violations = []

    def on_round_end(self, record: RoundRecord) -> None:
        """Check monotone occupancy and per-round progress."""
        lost = record.occupied_before - record.occupied_after
        if lost:
            self.violations.append(
                f"round {record.round_index}: occupied nodes "
                f"{sorted(lost)} were vacated"
            )
        if not record.newly_occupied:
            self.violations.append(
                f"round {record.round_index}: no newly occupied node"
            )

    @property
    def clean(self) -> bool:
        """Whether no violation has been observed."""
        return not self.violations
