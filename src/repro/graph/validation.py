"""Structural validation of graph snapshots and dynamic processes.

The simulator enforces the 1-interval connected model of the paper: every
snapshot an adversary emits must be connected, simple, and properly
port-labelled.  :func:`validate_snapshot` raises
:class:`GraphValidationError` with a precise message on any violation so a
buggy adversary fails loudly instead of silently producing unsound runs.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.snapshot import GraphSnapshot


class GraphValidationError(ValueError):
    """A snapshot violates the dynamic-graph model's constraints."""


def is_connected(snapshot: GraphSnapshot) -> bool:
    """Whether ``snapshot`` is connected; thin alias used across the package."""
    return snapshot.is_connected()


def validate_snapshot(
    snapshot: GraphSnapshot,
    *,
    expected_n: Optional[int] = None,
    require_connected: bool = True,
    round_index: Optional[int] = None,
) -> None:
    """Validate one round's snapshot against the model constraints.

    Checks performed:

    * the vertex set has the expected (fixed) size -- the 1-interval model
      allows edge churn only, never node churn;
    * the graph is connected (unless ``require_connected`` is False);
    * port labels are structurally sound (this is established at snapshot
      construction; re-checked cheaply here via degree bounds on the CSR
      ``indptr``).

    Raises :class:`GraphValidationError` with the offending round index in
    the message when a check fails.
    """
    where = "" if round_index is None else f" at round {round_index}"
    if expected_n is not None and snapshot.n != expected_n:
        raise GraphValidationError(
            f"node set changed{where}: expected n={expected_n}, "
            f"got n={snapshot.n}; the 1-interval model fixes the vertex set"
        )
    if require_connected and not snapshot.is_connected():
        raise GraphValidationError(
            f"snapshot{where} is disconnected; the 1-interval connected "
            "model requires every G_r to be connected"
        )
    n = snapshot.n
    indptr, _ = snapshot.csr()
    for v in range(n):
        degree = indptr[v + 1] - indptr[v]
        if degree > n - 1:
            raise GraphValidationError(
                f"node {v}{where} has degree {degree} > n-1; "
                "parallel edges or self-loops present"
            )


def validate_prefix(dynamic_graph, rounds: int, *, expected_n: int) -> None:
    """Validate the first ``rounds`` snapshots of a dynamic graph process.

    Useful in tests for scripted or generated dynamics.  The process is
    queried with an empty occupancy history (non-adaptive view).
    """
    for r in range(rounds):
        snapshot = dynamic_graph.snapshot(r)
        validate_snapshot(snapshot, expected_n=expected_n, round_index=r)
