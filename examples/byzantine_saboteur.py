#!/usr/bin/env python
"""A single byzantine saboteur silences an entire robot fleet.

The paper's Section VIII lists byzantine fault tolerance as an open
problem. This example shows *why* it is hard: Algorithm 4's robots decide
everything -- termination included -- from the information packets they
receive, and packets are trusted.

The scenario: 16 warehouse robots must spread over 24 staging bays. Robot
1 is compromised. Sitting on the crowded starting bay as its smallest-ID
robot, it is the one that broadcasts the bay's packet -- and it lies,
reporting itself alone. Every honest robot concludes the fleet is already
dispersed. Nobody ever moves.

Then the saboteur's battery dies (a crash at round 5). The next round's
packets are built without it, the hidden multiplicity becomes visible, and
the honest fleet disperses within the usual k - 1 bound.

Run:  python examples/byzantine_saboteur.py
"""

from repro import (
    CrashEvent,
    CrashPhase,
    CrashSchedule,
    DispersionDynamic,
    RandomChurnDynamicGraph,
    RobotSet,
    SimulationEngine,
)
from repro.analysis.render import occupancy_bar
from repro.robots.byzantine import HideMultiplicity

N_BAYS, N_ROBOTS = 24, 16
SABOTEUR = 1


def main() -> None:
    def engine(byzantine, crash_round=None):
        schedule = (
            CrashSchedule(
                [CrashEvent(SABOTEUR, crash_round,
                            CrashPhase.BEFORE_COMMUNICATE)]
            )
            if crash_round is not None
            else CrashSchedule.none()
        )
        return SimulationEngine(
            RandomChurnDynamicGraph(N_BAYS, extra_edges=12, seed=11),
            RobotSet.rooted(N_ROBOTS, N_BAYS),
            DispersionDynamic(),
            byzantine_policies=(
                {SABOTEUR: HideMultiplicity()} if byzantine else None
            ),
            crash_schedule=schedule,
            max_rounds=60,
        ).run()

    print("1. honest fleet (baseline):")
    honest = engine(byzantine=False)
    print(f"   {honest.summary()}")
    assert honest.dispersed

    print("\n2. with the saboteur broadcasting 'I am alone here':")
    sabotaged = engine(byzantine=True)
    print(f"   {sabotaged.summary()}")
    print(f"   moves made in {sabotaged.rounds} rounds: "
          f"{sabotaged.total_moves} -- the fleet believes it is done")
    assert not sabotaged.dispersed
    assert sabotaged.total_moves == 0

    print("\n3. the saboteur's battery dies at round 5:")
    recovered = engine(byzantine=True, crash_round=5)
    print(f"   {recovered.summary()}")
    print(occupancy_bar(recovered))
    assert recovered.dispersed
    assert recovered.rounds <= 5 + N_ROBOTS - 1
    print("\n   with the liar gone the truth is visible again and the "
          "honest fleet\n   disperses within k - 1 rounds of the crash -- "
          "the damage was entirely\n   in the forged packets "
          "(see experiment E7 in EXPERIMENTS.md).")


if __name__ == "__main__":
    main()
