"""Serialization of runs and dynamic-graph scripts to and from JSON.

Reproduction artifacts should be inspectable and replayable outside the
process that produced them.  This module provides:

* :func:`snapshot_to_dict` / :func:`snapshot_from_dict` -- lossless
  round-graph serialization (including port labels, which matter: two
  labellings of the same graph are different inputs to the robots);
* :func:`dynamic_graph_to_script` -- freeze the first R rounds of any
  dynamic process into a plain list-of-snapshots script;
* :func:`script_from_dict` / :func:`script_to_dict` -- (de)serialize such
  scripts as :class:`~repro.graph.dynamic.SequenceDynamicGraph`;
* :func:`run_result_to_dict` / :func:`run_result_from_dict` -- lossless
  run export and reconstruction (metrics + per-round records), which is
  how :class:`~repro.sim.store.RunStore` persists results: a stored hit
  compares equal, field for field, to the result it replaced;
* :func:`replay_and_verify` -- re-execute a serialized instance and check
  the recorded outcome still holds (the reproducibility self-test).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, FrozenSet, List, Optional

from repro.graph.dynamic import DynamicGraph, SequenceDynamicGraph
from repro.graph.snapshot import GraphSnapshot
from repro.sim.metrics import RoundRecord, RunResult, TerminationReason

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def snapshot_to_dict(snapshot: GraphSnapshot) -> Dict[str, Any]:
    """Lossless dict form of a snapshot (ports included)."""
    return {
        "n": snapshot.n,
        "ports": [
            {str(port): neighbor for port, neighbor in snapshot.port_map(v).items()}
            for v in snapshot.nodes()
        ],
    }


def snapshot_from_dict(data: Dict[str, Any]) -> GraphSnapshot:
    """Inverse of :func:`snapshot_to_dict` (validates structure)."""
    try:
        n = int(data["n"])
        ports = [
            {int(port): int(neighbor) for port, neighbor in entry.items()}
            for entry in data["ports"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed snapshot payload: {exc}") from exc
    return GraphSnapshot.from_port_maps(n, ports)


# ---------------------------------------------------------------------------
# Dynamic-graph scripts
# ---------------------------------------------------------------------------


def dynamic_graph_to_script(
    dynamic_graph: DynamicGraph, rounds: int, *, tail: str = "hold"
) -> SequenceDynamicGraph:
    """Freeze the first ``rounds`` snapshots of an *oblivious* process.

    Adaptive adversaries depend on the run's configuration and cannot be
    frozen without it; they are rejected.
    """
    if dynamic_graph.is_adaptive:
        raise ValueError(
            "adaptive adversaries cannot be frozen into a script without "
            "the configuration history; serialize the run's snapshots from "
            "the engine instead"
        )
    if rounds < 1:
        raise ValueError("need at least one round")
    snapshots = [dynamic_graph.snapshot(r) for r in range(rounds)]
    return SequenceDynamicGraph(snapshots, tail=tail)


def script_to_dict(script: SequenceDynamicGraph, rounds: int) -> Dict[str, Any]:
    """Dict form of the first ``rounds`` snapshots of a script."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "dynamic_graph_script",
        "snapshots": [
            snapshot_to_dict(script.snapshot(r)) for r in range(rounds)
        ],
    }


def script_from_dict(data: Dict[str, Any], *, tail: str = "hold") -> SequenceDynamicGraph:
    """Inverse of :func:`script_to_dict`."""
    if data.get("kind") != "dynamic_graph_script":
        raise ValueError("payload is not a dynamic_graph_script")
    snapshots = [snapshot_from_dict(s) for s in data["snapshots"]]
    return SequenceDynamicGraph(snapshots, tail=tail)


# ---------------------------------------------------------------------------
# Run results
# ---------------------------------------------------------------------------


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Full dict export of a run (JSON-serializable, lossless).

    Records share their configuration containers (see
    :class:`~repro.sim.metrics.RoundRecord`), so each positions dict and
    occupied set is converted once and the export shares the converted
    dict or list the same way.  Treat the output as read-only.
    """
    # Keyed on id(): every key's object stays alive in result.records
    # for the whole call, so no id is reused.
    positions_done: Dict[int, Dict[str, int]] = {}
    occupied_done: Dict[int, List[int]] = {}

    def positions(mapping: Dict[int, int]) -> Dict[str, int]:
        done = positions_done.get(id(mapping))
        if done is None:
            done = positions_done[id(mapping)] = {
                str(r): v for r, v in mapping.items()
            }
        return done

    def occupied(nodes: FrozenSet[int]) -> List[int]:
        done = occupied_done.get(id(nodes))
        if done is None:
            done = occupied_done[id(nodes)] = sorted(nodes)
        return done

    records = []
    for record in result.records:
        entry: Dict[str, Any] = {
            "round": record.round_index,
            "positions_before": positions(record.positions_before),
            "positions_after": positions(record.positions_after),
            "moved": list(record.moved_robots),
            "crashed_before_communicate": list(
                record.crashed_before_communicate
            ),
            "crashed_after_compute": list(record.crashed_after_compute),
            "occupied_before": occupied(record.occupied_before),
            "occupied_after": occupied(record.occupied_after),
            "num_components": record.num_components,
            "max_persistent_bits": record.max_persistent_bits,
        }
        if record.snapshot is not None:
            entry["snapshot"] = snapshot_to_dict(record.snapshot)
        # Scheduler-timeline fields are emitted only when present so
        # FSYNC exports stay byte-identical to the historical format.
        if record.epoch is not None:
            entry["epoch"] = record.epoch
        if record.activated_robots is not None:
            entry["activated"] = list(record.activated_robots)
        records.append(entry)
    payload: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "run_result",
        "reason": result.reason.value,
        "rounds": result.rounds,
        "k": result.k,
        "n": result.n,
        "initial_occupied": result.initial_occupied,
        "final_positions": {
            str(robot): node for robot, node in result.final_positions.items()
        },
        "crashed_robots": list(result.crashed_robots),
        "byzantine_robots": list(result.byzantine_robots),
        "total_moves": result.total_moves,
        "max_persistent_bits": result.max_persistent_bits,
        "total_packets_broadcast": result.total_packets_broadcast,
        "total_packet_deliveries": result.total_packet_deliveries,
        "algorithm_detected_termination": result.algorithm_detected_termination,
        "records": records,
    }
    if result.final_epoch is not None:
        payload["final_epoch"] = result.final_epoch
    return payload


def _record_from_dict(data: Dict[str, Any]) -> RoundRecord:
    snapshot = data.get("snapshot")
    epoch = data.get("epoch")
    activated = data.get("activated")
    return RoundRecord(
        round_index=int(data["round"]),
        positions_before={
            int(r): int(v) for r, v in data["positions_before"].items()
        },
        positions_after={
            int(r): int(v) for r, v in data["positions_after"].items()
        },
        moved_robots=tuple(int(r) for r in data["moved"]),
        crashed_before_communicate=tuple(
            int(r) for r in data["crashed_before_communicate"]
        ),
        crashed_after_compute=tuple(
            int(r) for r in data["crashed_after_compute"]
        ),
        occupied_before=frozenset(
            int(v) for v in data["occupied_before"]
        ),
        occupied_after=frozenset(int(v) for v in data["occupied_after"]),
        num_components=int(data["num_components"]),
        max_persistent_bits=int(data["max_persistent_bits"]),
        snapshot=(
            snapshot_from_dict(snapshot) if snapshot is not None else None
        ),
        epoch=int(epoch) if epoch is not None else None,
        activated_robots=(
            tuple(int(r) for r in activated)
            if activated is not None
            else None
        ),
    )


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Inverse of :func:`run_result_to_dict`.

    The reconstructed :class:`~repro.sim.metrics.RunResult` compares
    equal, field for field (records and stored snapshots included), to
    the exported one -- the property the run store's cache hits rely on.
    Raises ``ValueError`` on malformed payloads.
    """
    if data.get("kind") != "run_result":
        raise ValueError("payload is not a run_result")
    try:
        return RunResult(
            reason=TerminationReason(data["reason"]),
            rounds=int(data["rounds"]),
            k=int(data["k"]),
            n=int(data["n"]),
            initial_occupied=int(data["initial_occupied"]),
            final_positions={
                int(r): int(v)
                for r, v in data["final_positions"].items()
            },
            crashed_robots=tuple(
                int(r) for r in data["crashed_robots"]
            ),
            byzantine_robots=tuple(
                int(r) for r in data.get("byzantine_robots", ())
            ),
            total_moves=int(data["total_moves"]),
            max_persistent_bits=int(data["max_persistent_bits"]),
            total_packets_broadcast=int(
                data.get("total_packets_broadcast", 0)
            ),
            total_packet_deliveries=int(
                data.get("total_packet_deliveries", 0)
            ),
            records=[
                _record_from_dict(entry) for entry in data["records"]
            ],
            algorithm_detected_termination=bool(
                data["algorithm_detected_termination"]
            ),
            final_epoch=(
                int(data["final_epoch"])
                if data.get("final_epoch") is not None
                else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed run_result payload: {exc}") from exc


def run_result_to_json(result: RunResult, *, indent: Optional[int] = None) -> str:
    """JSON string export of a run."""
    return json.dumps(run_result_to_dict(result), indent=indent, sort_keys=True)


def run_fingerprint(result: RunResult) -> str:
    """A stable sha256 hex digest of a run's full serialized trace.

    Two runs fingerprint equal iff their :func:`run_result_to_json`
    exports are byte-identical -- the equality contract the engine
    backends are held to (``reference`` vs ``vectorized``) and the
    check the cross-backend replay tests assert.
    """
    payload = run_result_to_json(result).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_and_verify(
    script: SequenceDynamicGraph,
    initial_positions: Dict[int, int],
    expected: RunResult,
) -> RunResult:
    """Re-run a serialized instance and verify it reproduces ``expected``.

    Checks the headline outcome (reason, rounds, final positions, moves).
    Raises ``AssertionError`` on divergence; returns the replayed result.
    """
    from repro.core.dispersion import DispersionDynamic
    from repro.sim.engine import SimulationEngine

    replayed = SimulationEngine(
        script, dict(initial_positions), DispersionDynamic()
    ).run()
    if (
        replayed.reason is not expected.reason
        or replayed.rounds != expected.rounds
        or replayed.final_positions != expected.final_positions
        or replayed.total_moves != expected.total_moves
    ):
        raise AssertionError(
            "replay diverged from the recorded run: "
            f"{replayed.summary()} vs {expected.summary()}"
        )
    return replayed
