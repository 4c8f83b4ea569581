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
* :func:`run_result_to_json` / :func:`run_fingerprint` -- the export's
  JSON text and its sha256, encoded one record at a time by one
  generator, so the fingerprint of a long run never holds the whole
  export (nor its dict tree) in memory;
* :func:`replay_and_verify` -- re-execute a serialized instance and check
  the recorded outcome still holds (the reproducibility self-test).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Iterator, List, Optional

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


def _converted(memo: Dict[int, Any], container: Any, convert: Callable[[Any], Any]) -> Any:
    """``convert(container)``, done once per container object in ``memo``.

    Keyed on id(): every key's object stays alive in the result's
    records for as long as the memo is used, so no id is reused.
    """
    done = memo.get(id(container))
    if done is None:
        done = memo[id(container)] = convert(container)
    return done


def _positions_to_dict(mapping: Dict[int, int]) -> Dict[str, int]:
    return {str(robot): node for robot, node in mapping.items()}


def _record_to_dict(record: RoundRecord, memo: Dict[int, Any]) -> Dict[str, Any]:
    """One record's export; its configuration containers go through ``memo``."""
    entry: Dict[str, Any] = {
        "round": record.round_index,
        "positions_before": _converted(memo, record.positions_before, _positions_to_dict),
        "positions_after": _converted(memo, record.positions_after, _positions_to_dict),
        "moved": list(record.moved_robots),
        "crashed_before_communicate": list(record.crashed_before_communicate),
        "crashed_after_compute": list(record.crashed_after_compute),
        "occupied_before": _converted(memo, record.occupied_before, sorted),
        "occupied_after": _converted(memo, record.occupied_after, sorted),
        "num_components": record.num_components,
        "max_persistent_bits": record.max_persistent_bits,
    }
    if record.snapshot is not None:
        entry["snapshot"] = snapshot_to_dict(record.snapshot)
    # Scheduler-timeline fields are emitted only when present so FSYNC
    # exports stay byte-identical to the historical format.
    if record.epoch is not None:
        entry["epoch"] = record.epoch
    if record.activated_robots is not None:
        entry["activated"] = list(record.activated_robots)
    return entry


def _run_payload(result: RunResult, records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The run's export around the given ``records`` list."""
    payload: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "run_result",
        "reason": result.reason.value,
        "rounds": result.rounds,
        "k": result.k,
        "n": result.n,
        "initial_occupied": result.initial_occupied,
        "final_positions": _positions_to_dict(result.final_positions),
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


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Full dict export of a run (JSON-serializable, lossless).

    Records share their configuration containers (see
    :class:`~repro.sim.metrics.RoundRecord`), so each positions dict and
    occupied set is converted once and the export shares the converted
    dict or list the same way.  Treat the output as read-only.
    """
    memo: Dict[int, Any] = {}
    return _run_payload(
        result, [_record_to_dict(record, memo) for record in result.records]
    )


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


#: The records member of an export whose records list is empty, the same
#: text with and without ``indent``.  Only the top-level key can match: a
#: quote inside a JSON string is always escaped.
_EMPTY_RECORDS = '"records": []'


def _run_json_pieces(result: RunResult, indent: Optional[int]) -> Iterator[str]:
    """``json.dumps(run_result_to_dict(result), indent=indent,
    sort_keys=True)``, one record at a time.

    The text around the records is encoded with an empty records list and
    split there.  Each record is encoded on its own and, under
    ``indent``, re-indented to its depth in the export: a record's
    newlines are all indentation, since JSON strings never contain a raw
    newline.  A converted configuration container is kept only until the
    next record, which shares it, has been encoded.
    """
    text = json.dumps(_run_payload(result, []), indent=indent, sort_keys=True)
    if not result.records:
        yield text
        return
    head, _, tail = text.partition(_EMPTY_RECORDS)
    if indent is None:
        item, separator, close = "", ", ", "]"
    else:
        item = "\n" + " " * (2 * indent)
        separator, close = "," + item, "\n" + " " * indent + "]"
    yield head + '"records": [' + item
    memo: Dict[int, Any] = {}
    for index, record in enumerate(result.records):
        entry = _record_to_dict(record, memo)
        memo = {
            id(record.positions_after): entry["positions_after"],
            id(record.occupied_after): entry["occupied_after"],
        }
        chunk = json.dumps(entry, indent=indent, sort_keys=True)
        if indent is not None:
            chunk = chunk.replace("\n", item)
        yield separator + chunk if index else chunk
    yield close + tail


def run_result_to_json(result: RunResult, *, indent: Optional[int] = None) -> str:
    """JSON string export of a run: ``run_result_to_dict`` with sorted keys."""
    return "".join(_run_json_pieces(result, indent))


def run_fingerprint(result: RunResult) -> str:
    """A stable sha256 hex digest of a run's full serialized trace.

    Two runs fingerprint equal iff their :func:`run_result_to_json`
    exports are byte-identical -- the equality contract the engine
    backends are held to (``reference`` vs ``vectorized``) and the
    check the cross-backend replay tests assert.  The export is hashed
    record by record and never held whole.
    """
    digest = hashlib.sha256()
    for piece in _run_json_pieces(result, None):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


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
