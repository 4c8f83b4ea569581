"""In-memory span tracer that wraps the program's public functions.

The benchmark measures each layer from outside: :meth:`Tracer.install`
replaces a module global or a class attribute with a wrapper that records
one span per call and restores the original on :meth:`Tracer.uninstall`.
Nothing under ``src/`` is edited.  A span is ``[name, start_ns, end_ns,
parent, op]``: ``parent`` is the index of the enclosing span (``-1`` for
an operation's root) and ``op`` is the id shared by every span of one
operation (one run on one backend, one store call, one lint invocation).
Spans stay in memory until the benchmark writes them out at the end; self
times are computed from them afterwards, never while the workload runs.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(module, attribute path, span name)`` for every function the traced run
#: wraps.  The attribute path is ``"func"`` for a module global and
#: ``"Class.method"`` for a method; a span's layer is its name's first part.
WRAP_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.dynamic", "StaticDynamicGraph.snapshot", "graph.snapshot"),
    ("repro.graph.dynamic", "RandomChurnDynamicGraph.snapshot", "graph.snapshot"),
    ("repro.sim.engine", "validate_snapshot", "graph.validate"),
    ("repro.sim.backend", "ReferenceBackend.compute", "ref.compute"),
    ("repro.sim.backend", "build_info_packets", "obs.build_packets"),
    ("repro.sim.backend", "observations_from_packets", "obs.observations"),
    ("repro.sim.backend_vectorized", "VectorizedBackend.observe", "vec.observe"),
    ("repro.sim.backend_vectorized", "VectorizedBackend.compute", "vec.compute"),
    ("repro.sim.backend_vectorized", "snapshot_to_csr", "vec.csr"),
    ("repro.sim.backend_vectorized", "occupied_subgraph_edges", "vec.subgraph_edges"),
    ("repro.sim.backend_vectorized", "build_info_packets", "vec.lazy_packets"),
    ("repro.sim.backend_vectorized", "observations_from_packets", "vec.lazy_observations"),
    ("repro.core.dispersion", "partition_into_components", "core.components"),
    ("repro.core.dispersion", "build_component", "core.components"),
    ("repro.core.dispersion", "build_spanning_tree", "core.spanning_tree"),
    ("repro.core.dispersion", "compute_disjoint_paths", "core.disjoint_paths"),
    ("repro.core.dispersion", "compute_sliding_moves", "core.sliding"),
    ("repro.sim.store", "spec_digest", "spec.digest"),
    ("repro.sim.store", "run_result_to_dict", "traceio.to_dict"),
    ("repro.sim.store", "run_result_from_dict", "traceio.from_dict"),
    ("repro.lint.deep.analysis", "build_index", "lint.index"),
    ("repro.lint.deep.analysis", "build_call_graph", "lint.callgraph"),
    ("repro.lint.deep.analysis", "infer_effects", "lint.effects"),
    ("repro.lint.deep.analysis", "trace_taint_paths", "lint.taint"),
    ("repro.lint.deep.analysis", "check_contracts", "lint.contracts"),
    ("repro.lint.deep.analysis", "check_robot_model", "lint.robot_model"),
    ("repro.lint.deep.analysis", "check_fork_safety", "lint.fork_safety"),
)

Span = List[Any]


class Tracer:
    """Records spans in memory; installs and removes the call wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``op id -> (label, repeat)`` for every operation recorded
        self.ops: Dict[int, Tuple[str, int]] = {}
        self.repeat = 0
        self._current = -1
        self._op = -1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> Tuple[int, int]:
        parent = self._current
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op])
        self._current = index
        return index, parent

    def _close(self, index: int, parent: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._current = parent

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body, as a child of the open span."""
        index, parent = self._open(name)
        try:
            yield
        finally:
            self._close(index, parent)

    @contextlib.contextmanager
    def op(self, name: str, label: str) -> Iterator[None]:
        """Open the root span of one operation under a fresh op id."""
        outer = self._op
        self._op = len(self.ops)
        self.ops[self._op] = (label, self.repeat)
        try:
            with self.span(name):
                yield
        finally:
            self._op = outer

    def _wrapper(self, original: Callable, name: str) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index, parent = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index, parent)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # -- installation --------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name))

    def install(self) -> None:
        """Wrap every :data:`WRAP_TARGETS` entry."""
        for module_name, path, name in WRAP_TARGETS:
            owner: Any = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            self.patch(owner, attr, name)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def table(self, keep: Optional[Callable[[int], bool]] = None) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` over the spans of kept ops.

        A span's self time is its duration minus the durations of its
        direct children, which is the part of its interval no child covers
        (spans nest strictly: a child opens and closes inside its parent).
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        rows: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, op) in enumerate(spans):
            if keep is not None and not keep(op):
                continue
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[index]) / 1e9
        return rows

    def parent_counts(self, child: str, parent: str, keep: Callable[[int], bool]) -> int:
        """How many ``child`` spans of kept ops sit directly under ``parent``."""
        spans = self.spans
        return sum(
            1
            for name, _start, _end, up, op in spans
            if name == child and up >= 0 and spans[up][0] == parent and keep(op)
        )

    def export(self) -> Dict[str, Any]:
        """The raw spans in a compact columnar form (microseconds)."""
        names: Dict[str, int] = {}
        origin = self.spans[0][1] if self.spans else 0
        rows = [
            [
                names.setdefault(name, len(names)),
                (start - origin) // 1000,
                (end - origin) // 1000,
                parent,
                op,
            ]
            for name, start, end, parent, op in self.spans
        ]
        return {
            "names": list(names),
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "rows": rows,
            "ops": {str(op): list(info) for op, info in self.ops.items()},
        }


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: the first part of its name."""
    return span_name.split(".", 1)[0]
