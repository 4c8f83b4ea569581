"""Graph substrate: port-labelled anonymous snapshots and dynamic processes.

The paper's setting is an ``n``-node anonymous dynamic graph: nodes carry no
identifiers, but each node ``v`` labels its incident edges with distinct
*ports* ``1..degree(v)``.  The dynamic graph is a sequence of such snapshots
``G_0, G_1, ...`` produced by an adversary that may rewire edges every round
as long as each snapshot stays connected (the 1-interval connected model of
Kuhn, Lynch and Oshman).

This subpackage provides:

* :class:`~repro.graph.snapshot.GraphSnapshot` -- an immutable port-labelled
  snapshot (the graph of one round),
* :mod:`~repro.graph.generators` -- families of graphs used by the tests,
  examples, and the campaign,
* :mod:`~repro.graph.dynamic` -- dynamic-graph processes (static, scripted,
  random churn, T-interval connected churn),
* :mod:`~repro.graph.validation` -- structural validation helpers.
"""

from repro.graph.snapshot import GraphSnapshot, PortLabeledEdge
from repro.graph.dynamic import (
    DynamicGraph,
    StaticDynamicGraph,
    SequenceDynamicGraph,
    RandomChurnDynamicGraph,
    RecordingDynamicGraph,
    TIntervalChurnDynamicGraph,
    FunctionalDynamicGraph,
)
from repro.graph.rings import RingDynamicGraph, ring_edges
from repro.graph.validation import (
    GraphValidationError,
    validate_snapshot,
    is_connected,
)

__all__ = [
    "GraphSnapshot",
    "PortLabeledEdge",
    "DynamicGraph",
    "StaticDynamicGraph",
    "SequenceDynamicGraph",
    "RandomChurnDynamicGraph",
    "RecordingDynamicGraph",
    "TIntervalChurnDynamicGraph",
    "FunctionalDynamicGraph",
    "RingDynamicGraph",
    "ring_edges",
    "GraphValidationError",
    "validate_snapshot",
    "is_connected",
]
