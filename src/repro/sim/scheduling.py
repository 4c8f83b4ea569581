"""Scheduler models and activation policies: FSYNC, SSYNC, ASYNC.

The paper's setting is fully synchronous -- every robot executes every CCM
round -- and its Section VIII lists semi-synchronous / asynchronous
settings as future work.  This module implements the scheduling layer for
that direction, in two tiers:

**Activation policies** (which robots wake inside a semi-synchronous
step):

* :class:`FullActivation` -- the paper's model; every alive robot is
  active every round (the engine's default);
* :class:`RandomSubsetActivation` -- the classical SSYNC adversary
  surrogate: each alive robot is independently active with probability
  ``p`` (derandomized per (seed, round, robot)), with a guaranteed
  non-empty activation set;
* :class:`RoundRobinActivation` -- a deterministic SSYNC schedule
  activating robots whose ID matches the round modulo a window.

**Scheduler models** (how the engine's steps relate to logical time),
the :class:`SchedulerModel` hierarchy driving the engine's phase loop:

* :class:`FsyncScheduler` -- the paper's model: every eligible robot is
  activated every step and the logical epoch equals the step index;
* :class:`SsyncScheduler` -- wraps an activation policy; a subset wakes
  each step, everyone shares the step's epoch;
* :class:`AsyncScheduler` -- a deterministic seeded event-queue LCM
  scheduler: each robot carries its own next-activation event on an
  integer logical clock, delays are drawn from a derandomized
  distribution (uniform / geometric / adversarially biased), and each
  engine step fires the earliest batch of events.  Optionally the Move
  phase itself takes time (``move_max_delay``), producing in-transit
  robots whose arrivals the engine settles in later steps.

Semantics under partial activation: *presence is physical* -- inactive
robots still occupy their nodes and appear in everyone's information
packets (1-NK senses robots, not activity) -- but only active robots
compute and move.  Under these semantics the paper's Lemma 7 no longer
holds round-for-round (a sliding path can be executed partially, vacating
a node), which is exactly the degradation the campaign's E5 section measures; with
random activation every configuration still has positive probability of a
fully-active round, so dispersion remains achieved with probability 1.
See ``docs/scheduling.md`` for the full model definitions.

Scheduler models are *backend-neutral*: the engine calls them only
through :class:`~repro.sim.backend.EngineBackend` phase primitives
(``activate`` validates the model's activation set, ``move``/``settle``
consume its arrival epochs), so any conforming backend -- reference or
vectorized -- must produce byte-identical schedules for the same seed
under all three models.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple


class ActivationSchedule(ABC):
    """Decides which alive robots execute a given round."""

    @abstractmethod
    def active_robots(
        self, round_index: int, alive: Sequence[int]
    ) -> FrozenSet[int]:
        """The subset of ``alive`` robot IDs that are active this round.

        Must be a subset of ``alive`` and non-empty whenever ``alive`` is
        (an all-asleep round would be indistinguishable from a stutter and
        only inflates round counts).
        """

    @property
    def is_synchronous(self) -> bool:
        """Whether this schedule activates everyone every round."""
        return False


class FullActivation(ActivationSchedule):
    """The paper's synchronous setting: everyone, every round."""

    def active_robots(
        self, round_index: int, alive: Sequence[int]
    ) -> FrozenSet[int]:
        return frozenset(alive)

    @property
    def is_synchronous(self) -> bool:
        return True


class RandomSubsetActivation(ActivationSchedule):
    """Each alive robot is active with probability ``p``, independently.

    Derandomized by hashing (seed, round, robot) so runs are reproducible.
    If the sampled set comes out empty, the smallest alive robot is
    activated (the scheduler must be fair enough to keep time moving).
    """

    def __init__(self, p: float, *, seed: int = 0) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"activation probability must be in (0, 1], got {p}")
        self._p = p
        self._seed = seed

    @property
    def p(self) -> float:
        """The per-robot activation probability."""
        return self._p

    def _coin(self, round_index: int, robot_id: int) -> float:
        digest = hashlib.sha256(
            f"{self._seed}:{round_index}:{robot_id}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def active_robots(
        self, round_index: int, alive: Sequence[int]
    ) -> FrozenSet[int]:
        chosen = {
            robot_id
            for robot_id in alive
            if self._coin(round_index, robot_id) < self._p
        }
        if not chosen and alive:
            chosen = {min(alive)}
        return frozenset(chosen)


class RoundRobinActivation(ActivationSchedule):
    """Deterministic SSYNC: robot ``i`` is active when
    ``i % window == round % window`` (plus everyone every ``window``-th
    round so multi-robot coordination is periodically possible)."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._window = window

    def active_robots(
        self, round_index: int, alive: Sequence[int]
    ) -> FrozenSet[int]:
        if self._window == 1 or round_index % self._window == 0:
            return frozenset(alive)
        phase = round_index % self._window
        chosen = frozenset(
            robot_id for robot_id in alive if robot_id % self._window == phase
        )
        if not chosen and alive:
            chosen = frozenset({min(alive)})
        return chosen


# ---------------------------------------------------------------------------
# Scheduler models
# ---------------------------------------------------------------------------


def _unit_interval(*parts: object) -> float:
    """Derandomized coin in [0, 1) from hashing the given parts."""
    digest = hashlib.sha256(
        ":".join(str(part) for part in parts).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class Activation:
    """One scheduler step: who wakes, at what logical time.

    ``epoch`` is the logical time of the step (equal to the engine's step
    index under FSYNC/SSYNC; the event-queue clock under ASYNC).
    ``move_delays`` maps an activated robot to the number of additional
    engine steps its Move phase takes; robots absent from the mapping
    move atomically within the step (delay 0).
    """

    epoch: int
    active: FrozenSet[int]
    move_delays: Mapping[int, int] = field(default_factory=dict)


class SchedulerModel(ABC):
    """Drives the engine's phase loop: maps engine steps to activations.

    The engine calls :meth:`next_activation` once per step with the
    *eligible* robots -- alive honest robots that are not mid-traversal
    (a robot executing a delayed Move is busy and cannot be activated
    again until it arrives).  Byzantine robots are scheduled by the
    engine itself (the adversary ignores the scheduler).
    """

    name: str = "abstract"

    @abstractmethod
    def next_activation(
        self, step: int, eligible: Sequence[int]
    ) -> Activation:
        """The activation executed at engine step ``step``.

        ``active`` must be a subset of ``eligible``; it may be empty only
        when ``eligible`` is (the engine additionally tolerates an empty
        activation while moves are still in flight).
        """

    @property
    def is_fully_synchronous(self) -> bool:
        """Whether every eligible robot is activated every step.

        When True the engine keeps records in the paper's plain FSYNC
        form (no activation timeline, no epochs) so fully-synchronous
        runs stay byte-identical to the pre-scheduler engine.
        """
        return False


class FsyncScheduler(SchedulerModel):
    """The paper's model: everyone, every step; epoch == step index."""

    name = "fsync"

    def next_activation(
        self, step: int, eligible: Sequence[int]
    ) -> Activation:
        return Activation(epoch=step, active=frozenset(eligible))

    @property
    def is_fully_synchronous(self) -> bool:
        return True


class SsyncScheduler(SchedulerModel):
    """Semi-synchronous: an activation policy picks who wakes each step.

    Absorbs the :class:`ActivationSchedule` classes as pluggable
    policies; epoch equals the step index (SSYNC shares the global round
    structure, only participation varies).
    """

    name = "ssync"

    def __init__(self, policy: ActivationSchedule) -> None:
        self._policy = policy

    @property
    def policy(self) -> ActivationSchedule:
        """The wrapped activation policy."""
        return self._policy

    def next_activation(
        self, step: int, eligible: Sequence[int]
    ) -> Activation:
        return Activation(
            epoch=step,
            active=frozenset(self._policy.active_robots(step, eligible)),
        )

    @property
    def is_fully_synchronous(self) -> bool:
        return self._policy.is_synchronous


ASYNC_DISTRIBUTIONS: Tuple[str, ...] = ("uniform", "geometric", "biased")
"""Supported inter-activation delay distributions for ASYNC runs."""


class AsyncScheduler(SchedulerModel):
    """Deterministic event-queue LCM scheduler on an integer clock.

    Every robot carries its own next-activation event; each engine step
    fires the earliest pending batch (ties activate together, smallest
    IDs first in the engine's compute order) and reschedules the fired
    robots by a freshly drawn delay.  All randomness is derandomized by
    hashing ``(seed, robot, activation_count)``, so a run is a pure
    function of its seed -- replaying it is bit-identical.

    Delay distributions (``1 <= delay <= max_delay`` always):

    * ``uniform`` -- uniform on ``{1, ..., max_delay}``;
    * ``geometric`` -- geometric with success probability ``p``, capped
      at ``max_delay`` (bursty: mostly short delays, occasional long);
    * ``biased`` -- the adversarial schedule: robots listed in
      ``laggards`` always draw ``max_delay`` while everyone else draws
      uniformly from the fast half -- a bounded starvation adversary.

    ``move_max_delay > 0`` additionally makes the Move phase itself take
    a uniform 1..move_max_delay steps: the robot commits to its edge at
    decision time but occupies its origin node until the arrival step
    (in transit, it is not eligible for activation).
    """

    name = "async"

    def __init__(
        self,
        *,
        seed: int = 0,
        distribution: str = "uniform",
        max_delay: int = 4,
        p: float = 0.5,
        move_max_delay: int = 0,
        laggards: Sequence[int] = (),
    ) -> None:
        if distribution not in ASYNC_DISTRIBUTIONS:
            raise ValueError(
                f"unknown delay distribution {distribution!r}; expected one "
                f"of {ASYNC_DISTRIBUTIONS}"
            )
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if not 0.0 < p < 1.0:
            raise ValueError(f"geometric p must be in (0, 1), got {p}")
        if move_max_delay < 0:
            raise ValueError("move_max_delay must be >= 0")
        self._seed = seed
        self._distribution = distribution
        self._max_delay = max_delay
        self._p = p
        self._move_max_delay = move_max_delay
        self._laggards = frozenset(laggards)
        self._clock = 0
        self._next_event: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}

    @property
    def clock(self) -> int:
        """Logical time of the most recent activation (0 before any)."""
        return self._clock

    def _delay(self, robot_id: int, count: int) -> int:
        u = _unit_interval(self._seed, "act", robot_id, count)
        if self._distribution == "geometric":
            trials = 1 + int(math.log(1.0 - u) / math.log(1.0 - self._p))
            return min(self._max_delay, trials)
        if self._distribution == "biased":
            if robot_id in self._laggards:
                return self._max_delay
            return 1 + int(u * max(1, self._max_delay // 2))
        return 1 + int(u * self._max_delay)

    def _move_delay(self, robot_id: int, count: int) -> int:
        if self._move_max_delay == 0:
            return 0
        u = _unit_interval(self._seed, "move", robot_id, count)
        return 1 + int(u * self._move_max_delay)

    def next_activation(
        self, step: int, eligible: Sequence[int]
    ) -> Activation:
        eligible = sorted(eligible)
        if not eligible:
            return Activation(epoch=self._clock, active=frozenset())
        for robot_id in eligible:
            if robot_id not in self._next_event:
                self._next_event[robot_id] = self._clock + self._delay(
                    robot_id, 0
                )
                self._fired[robot_id] = 1
        # A robot whose event time passed while it was ineligible (in
        # transit) fires as soon as it becomes eligible again; the clock
        # itself is strictly monotone.
        effective = {
            robot_id: max(self._next_event[robot_id], self._clock + 1)
            for robot_id in eligible
        }
        epoch = min(effective.values())
        batch = tuple(r for r in eligible if effective[r] == epoch)
        self._clock = epoch
        move_delays: Dict[int, int] = {}
        for robot_id in batch:
            count = self._fired[robot_id]
            self._next_event[robot_id] = epoch + self._delay(robot_id, count)
            self._fired[robot_id] = count + 1
            delay = self._move_delay(robot_id, count)
            if delay:
                move_delays[robot_id] = delay
        return Activation(
            epoch=epoch, active=frozenset(batch), move_delays=move_delays
        )
