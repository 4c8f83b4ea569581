"""Robot-model conformance checking: the A rule family.

The paper's results are statements about a *model* -- Theta(log k)
persistent bits per robot (Lemma 8), a strict global-vs-local
communication split (Theorems 1-2), and robots that see the world only
through their :class:`~repro.sim.observation.Observation`.  The runtime
enforces these per configuration (``audit_memory``, the engine's
comm-model fail-fast); these rules prove them over *all* code paths of
every algorithm class, the way :mod:`~repro.lint.deep.contracts` proves
the backend phase contracts.

* ``A001`` **hidden persistent state** -- an instance attribute written
  in ``decide``/``on_round_start``/``on_run_start`` (directly or through
  callee effect summaries) that survives between rounds but is never
  emitted by the class's ``persistent_state()``.  State the audit cannot
  see is state Lemma 8 cannot charge.  Exonerated: attributes the
  resolved ``persistent_state()`` reads, and round-temporary scratch --
  attributes unconditionally reassigned or ``.clear()``-ed at the top
  level of ``on_round_start()`` (in-round computation is free).
* ``A002`` **unbounded declared state** -- a field emitted by
  ``persistent_state()`` with no matching key in
  ``persistent_state_bounds()``.  The bit audit charges
  ``ceil(log2(bound+1))`` per bounded integer; a missing bound makes the
  field unchargeable.  Statically bool-valued fields are exempt (a bool
  costs one bit, no bound needed -- mirroring
  :func:`repro.robots.memory.bits_for_value`).
* ``A003`` **observation-scope violation** -- an algorithm declaring
  ``requires_communication = LOCAL`` reads a global-only
  ``Observation`` member, per the machine-readable
  :data:`repro.sim.observation.OBSERVATION_FIELD_SCOPES` table.  The
  read is followed through helpers the observation is passed to.
* ``A004`` **model escape** -- ``decide()`` transitively reaches
  engine/graph/store/adversary code: a robot reading simulator state
  outside the Observation surface breaks anonymity (node indices must
  never leak into decisions).
* ``A005`` **observation mutation** -- ``decide()`` or
  ``detects_termination()`` mutates its observation (via the effects
  engine); observations are shared, immutable-by-contract views.

Algorithm classes are found as ``RobotAlgorithm`` subclasses by base
chain, or by convention (``*Algorithm``/``*Dispersion`` naming with a
``decide`` method) so fixtures match without importing the real base.
All fingerprints are location-free: ``CODE|qualname|subject``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.deep.callgraph import (
    CallGraph,
    _Resolver,
    iter_own_nodes,
)
from repro.lint.deep.contracts import (
    _base_chain_names,
    _finding_site,
)
from repro.lint.deep.effects import (
    FunctionEffects,
    _bind_arguments,
    _peel,
)
from repro.lint.deep.modindex import ClassInfo, FunctionInfo
from repro.lint.findings import Finding
from repro.lint.rules import path_in_scope
from repro.sim.observation import OBSERVATION_FIELD_SCOPES

#: The hooks whose writes persist between rounds (A001 scope).
PERSISTENT_HOOKS: Tuple[str, ...] = (
    "decide",
    "on_round_start",
    "on_run_start",
)

#: The hooks handed an observation (A003/A005 scope).
OBSERVING_HOOKS: Tuple[str, ...] = ("decide", "detects_termination")

#: Module scopes `decide()` must never reach (A004): simulator internals
#: outside the Observation surface.  ``sim/observation.py`` and
#: ``sim/algorithm.py`` are the robot-visible surface and stay legal, as
#: does the pure packet-combinatorics layer in ``core/``.
ROBOT_FORBIDDEN_SCOPES: Tuple[str, ...] = (
    "sim/engine.py",
    "sim/backend.py",
    "sim/backend_vectorized.py",
    "sim/scheduling.py",
    "sim/hooks.py",
    "sim/traceio.py",
    "sim/spec.py",
    "sim/runner.py",
    "sim/store.py",
    "graph/",
    "store/",
    "runner/",
    "chaos/",
    "adversary/",
)


def check_robot_model(
    graph: CallGraph, summaries: Dict[str, FunctionEffects]
) -> List[Tuple[Finding, str]]:
    """Every A-rule finding (with baseline fingerprint) in the tree."""
    resolver = _Resolver(graph.index)
    results: List[Tuple[Finding, str]] = []
    seen_bounds_pairs: Set[Tuple[str, str]] = set()
    for name in sorted(graph.index.classes):
        cls = graph.index.classes[name]
        if not _is_algorithm_class(cls, resolver):
            continue
        results.extend(
            _check_hidden_state(graph, summaries, resolver, cls)
        )
        results.extend(
            _check_state_bounds(resolver, cls, seen_bounds_pairs)
        )
        results.extend(
            _check_observation_scope(graph, summaries, resolver, cls)
        )
        results.extend(_check_model_escape(graph, cls))
        results.extend(_check_observation_mutation(graph, summaries, cls))
    results.sort(key=lambda pair: (pair[0].path, pair[0].line, pair[0].code))
    return results


# ----------------------------------------------------------------------
# Class discovery
# ----------------------------------------------------------------------


def _is_algorithm_class(cls: ClassInfo, resolver: _Resolver) -> bool:
    """RobotAlgorithm subclasses, by base chain or naming convention."""
    if cls.node.name == "RobotAlgorithm":
        return False
    bases = _base_chain_names(cls, resolver)
    if "RobotAlgorithm" in bases:
        return True
    suffixes = ("Algorithm", "Dispersion")
    convention = cls.node.name.endswith(suffixes) or any(
        name.endswith(suffixes) for name in bases
    )
    return convention and resolver.resolve_method(cls, "decide") is not None


def _defining_class_name(function: FunctionInfo) -> Optional[str]:
    return function.class_name


# ----------------------------------------------------------------------
# A001: hidden persistent state
# ----------------------------------------------------------------------


def _self_reads(method: ast.AST) -> Set[str]:
    """Every ``self.<attr>`` referenced anywhere inside ``method``."""
    found: Set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            found.add(node.attr)
    return found


def _round_reset_attrs(method: Optional[FunctionInfo]) -> Set[str]:
    """Attributes ``on_round_start`` unconditionally resets.

    A top-level ``self.attr = ...`` assignment or ``self.attr.clear()``
    call runs every round before any ``decide()``, so the attribute is
    round-temporary scratch -- free memory in the paper's accounting.
    Anything guarded (under ``if``/loops/``try``) does not count.
    """
    if method is None:
        return set()
    reset: Set[str] = set()
    for stmt in getattr(method.node, "body", []):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    reset.add(target.attr)
        elif (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "clear"
        ):
            peeled = _peel(stmt.value.func.value)
            if (
                peeled is not None
                and peeled[0] == "self"
                and len(peeled[1]) == 1
            ):
                reset.add(peeled[1][0])
    return reset


def _check_hidden_state(
    graph: CallGraph,
    summaries: Dict[str, FunctionEffects],
    resolver: _Resolver,
    cls: ClassInfo,
) -> Iterator[Tuple[Finding, str]]:
    state_method = resolver.resolve_method(cls, "persistent_state")
    declared = (
        _self_reads(state_method.node) if state_method is not None else set()
    )
    reset = _round_reset_attrs(
        resolver.resolve_method(cls, "on_round_start")
    )
    for hook in PERSISTENT_HOOKS:
        method = cls.methods.get(hook)
        if method is None:
            continue  # inherited hooks are checked on their definer
        effects = summaries.get(method.qualname)
        if effects is None:
            continue
        reported: Set[str] = set()
        for key in sorted(effects.effects, key=repr):
            if key[0] != "mut" or key[1] != 0 or not key[2]:
                continue
            attr = key[2][0]
            if attr in declared or attr in reset or attr in reported:
                continue
            reported.add(attr)
            path, line, col, chain = _finding_site(
                graph, summaries, method.qualname, key
            )
            yield (
                Finding(
                    path=path,
                    line=line,
                    column=col,
                    code="A001",
                    message=(
                        f"algorithm hook `{hook}` writes hidden "
                        f"persistent state `self.{attr}` that "
                        "persistent_state() never emits; the memory "
                        "audit (Lemma 8) cannot charge it -- declare "
                        "and bound it, or reset it unconditionally in "
                        f"on_round_start() -- chain: {chain}"
                    ),
                ),
                f"A001|{method.qualname}|{attr}",
            )


# ----------------------------------------------------------------------
# A002: declared state without a bound
# ----------------------------------------------------------------------


def _emitted_state_fields(method: ast.AST) -> Dict[str, ast.AST]:
    """``field name -> value expression`` a state method emits.

    Fields count where a dict literal carries a string key or a
    ``state["field"] = value`` store assigns one, anywhere in the body.
    """
    fields: Dict[str, ast.AST] = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    fields[key.value] = value
        elif (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and getattr(node, "value", None) is not None
        ):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    index = target.slice
                    if isinstance(index, ast.Constant) and isinstance(
                        index.value, str
                    ):
                        fields[index.value] = node.value
    return fields


_BOOL_CALLS = frozenset({"bool", "any", "all", "isinstance"})


def _is_bool_valued(expr: ast.AST) -> bool:
    """Whether a field's value expression is statically boolean.

    Bool fields cost one bit in the runtime audit
    (:func:`repro.robots.memory.bits_for_value`) and need no declared
    bound, so A002 must not demand one.
    """
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, bool)
    if isinstance(expr, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _BOOL_CALLS:
            return True
        # ``d.get(key, False)``: a bool default marks a bool-valued map.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and len(expr.args) == 2
            and isinstance(expr.args[1], ast.Constant)
            and isinstance(expr.args[1].value, bool)
        ):
            return True
    return False


def _check_state_bounds(
    resolver: _Resolver,
    cls: ClassInfo,
    seen_pairs: Set[Tuple[str, str]],
) -> Iterator[Tuple[Finding, str]]:
    state_method = resolver.resolve_method(cls, "persistent_state")
    bounds_method = resolver.resolve_method(cls, "persistent_state_bounds")
    if state_method is None:
        return
    if _defining_class_name(state_method) == "RobotAlgorithm":
        return  # the abstract base's default pair is consistent
    bounds_qualname = (
        bounds_method.qualname if bounds_method is not None else "<none>"
    )
    pair = (state_method.qualname, bounds_qualname)
    if pair in seen_pairs:
        return  # subclasses inheriting the same pair re-derive nothing
    seen_pairs.add(pair)
    bounded = (
        set(_emitted_state_fields(bounds_method.node))
        if bounds_method is not None
        else set()
    )
    for name, value in sorted(_emitted_state_fields(state_method.node).items()):
        if name in bounded or _is_bool_valued(value):
            continue
        yield (
            Finding(
                path=state_method.module.display_path,
                line=getattr(value, "lineno", state_method.lineno),
                column=getattr(value, "col_offset", 0) + 1,
                code="A002",
                message=(
                    f"persistent field `{name}` emitted by "
                    f"`{state_method.qualname}` has no bound in "
                    "persistent_state_bounds(); the memory audit "
                    "charges ceil(log2(bound+1)) bits per field and "
                    "cannot account an unbounded one (Lemma 8)"
                ),
            ),
            f"A002|{state_method.qualname}|{name}",
        )


# ----------------------------------------------------------------------
# A003: observation-scope discipline under LOCAL communication
# ----------------------------------------------------------------------


def _declared_communication(
    cls: ClassInfo, resolver: _Resolver, seen: Optional[Set[str]] = None
) -> Optional[str]:
    """The ``requires_communication`` member name (``LOCAL``/``GLOBAL``).

    Resolved syntactically through the base chain: the class-body
    assignment's value is a dotted name whose last segment names the
    enum member, so fixtures match without importing the real enum.
    """
    seen = set() if seen is None else seen
    if cls.qualname in seen:
        return None
    seen.add(cls.qualname)
    for stmt in cls.node.body:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "requires_communication"
                and getattr(stmt, "value", None) is not None
            ):
                peeled = _peel(stmt.value)
                if peeled is not None:
                    member = (peeled[1] or (peeled[0],))[-1]
                    return member.upper()
    for base in cls.bases:
        resolved = resolver.resolve(cls.module, base)
        if (
            resolved is not None
            and resolved[0] == "class"
            and isinstance(resolved[1], ClassInfo)
        ):
            found = _declared_communication(resolved[1], resolver, seen)
            if found is not None:
                return found
    return None


def _observation_param(effects: FunctionEffects) -> Optional[int]:
    """The observation's parameter index in a hook (first after self)."""
    return 1 if len(effects.params) >= 2 else None


def _global_field_reads(
    graph: CallGraph,
    summaries: Dict[str, FunctionEffects],
    entry: FunctionInfo,
) -> List[Tuple[str, List[str], ast.Attribute, FunctionInfo]]:
    """Global-scope ``Observation`` reads reachable from ``entry``.

    Worklist over ``(function, observation parameter)`` states: a direct
    ``obs.field`` read where the table scopes ``field`` global is a hit;
    a call forwarding the observation whole (``self._helper(obs)``)
    enqueues the callee with the bound parameter.  Straight-line local
    aliases (``view = observation``) are followed within each body.
    Returns ``(field, qualname chain, read site, containing function)``.
    """
    found: List[Tuple[str, List[str], ast.Attribute, FunctionInfo]] = []
    entry_effects = summaries.get(entry.qualname)
    if entry_effects is None:
        return found
    start = _observation_param(entry_effects)
    if start is None:
        return found
    queue: List[Tuple[FunctionInfo, int, List[str]]] = [
        (entry, start, [entry.qualname])
    ]
    visited: Set[Tuple[str, int]] = set()
    while queue:
        function, param_index, chain = queue.pop(0)
        if (function.qualname, param_index) in visited:
            continue
        visited.add((function.qualname, param_index))
        effects = summaries.get(function.qualname)
        if effects is None or param_index >= len(effects.params):
            continue
        obs_names = {effects.params[param_index]}
        nodes = sorted(
            iter_own_nodes(function.node),
            key=lambda n: (
                getattr(n, "lineno", 0),
                getattr(n, "col_offset", 0),
            ),
        )
        for node in nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)
                and node.value.id in obs_names
            ):
                obs_names.add(node.targets[0].id)
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in obs_names
                and OBSERVATION_FIELD_SCOPES.get(node.attr) == "global"
            ):
                found.append((node.attr, chain, node, function))
        for callee_name in sorted(graph.callees(function.qualname)):
            callee_effects = summaries.get(callee_name)
            callee_info = graph.index.functions.get(callee_name)
            if callee_effects is None or callee_info is None:
                continue
            for call, kind in graph.call_exprs.get(
                (function.qualname, callee_name), ()
            ):
                binding = _bind_arguments(call, kind, callee_effects.params)
                for index, argument in binding.items():
                    peeled = _peel(argument)
                    if (
                        peeled is not None
                        and not peeled[1]
                        and peeled[0] in obs_names
                    ):
                        queue.append(
                            (callee_info, index, chain + [callee_name])
                        )
    return found


def _check_observation_scope(
    graph: CallGraph,
    summaries: Dict[str, FunctionEffects],
    resolver: _Resolver,
    cls: ClassInfo,
) -> Iterator[Tuple[Finding, str]]:
    if _declared_communication(cls, resolver) != "LOCAL":
        return
    for hook in OBSERVING_HOOKS:
        method = resolver.resolve_method(cls, hook)
        if method is None or _defining_class_name(method) == "RobotAlgorithm":
            continue  # the abstract base's defaults are the GLOBAL model
        if hook not in cls.methods:
            # Inherited: only re-check when the definer itself is not a
            # LOCAL algorithm class (it was or will be checked there).
            definer_cls = method.module.classes.get(
                _defining_class_name(method) or ""
            )
            if (
                definer_cls is not None
                and _declared_communication(definer_cls, resolver) == "LOCAL"
            ):
                continue
        reported: Set[str] = set()
        for field, chain, node, container in _global_field_reads(
            graph, summaries, method
        ):
            if field in reported:
                continue
            reported.add(field)
            rendered = " -> ".join(chain)
            if len(chain) > 1:
                rendered += (
                    f" (reads observation.{field} at "
                    f"{container.module.display_path}:{node.lineno})"
                )
            yield (
                Finding(
                    path=method.module.display_path,
                    line=node.lineno
                    if container.qualname == method.qualname
                    else method.lineno,
                    column=node.col_offset + 1
                    if container.qualname == method.qualname
                    else 1,
                    code="A003",
                    message=(
                        f"`{cls.node.name}` declares "
                        "requires_communication = LOCAL but its "
                        f"`{hook}` reads the global-only observation "
                        f"field `{field}` "
                        "(OBSERVATION_FIELD_SCOPES); under local "
                        "communication that field carries only the "
                        "robot's own node -- chain: " + rendered
                    ),
                ),
                f"A003|{cls.qualname}.{hook}|{field}",
            )


# ----------------------------------------------------------------------
# A004: decide() escaping the Observation surface
# ----------------------------------------------------------------------


def _check_model_escape(
    graph: CallGraph, cls: ClassInfo
) -> Iterator[Tuple[Finding, str]]:
    method = cls.methods.get("decide")
    if method is None:
        return
    # BFS for shortest witness chains; parents reconstruct the path.
    parents: Dict[str, Optional[str]] = {method.qualname: None}
    queue: List[str] = [method.qualname]
    reported: Set[str] = set()
    while queue:
        current = queue.pop(0)
        for callee in sorted(graph.callees(current)):
            if callee in parents:
                continue
            parents[callee] = current
            target = graph.index.functions.get(callee)
            if target is None:
                continue
            display = target.module.display_path
            if path_in_scope(display, ROBOT_FORBIDDEN_SCOPES, ()):
                if display in reported:
                    continue
                reported.add(display)
                chain: List[str] = []
                walk: Optional[str] = callee
                while walk is not None:
                    chain.append(walk)
                    walk = parents[walk]
                chain.reverse()
                site = graph.callees(parents[callee] or method.qualname)[
                    callee
                ]
                yield (
                    Finding(
                        path=method.module.display_path,
                        line=site.lineno
                        if parents[callee] == method.qualname
                        else method.lineno,
                        column=site.col
                        if parents[callee] == method.qualname
                        else 1,
                        code="A004",
                        message=(
                            f"`{cls.node.name}.decide` transitively "
                            f"reaches simulator internals in {display}; "
                            "robots may only consult their Observation "
                            "(anonymity: node globals must never leak "
                            "into decisions) -- chain: "
                            + " -> ".join(chain)
                        ),
                    ),
                    f"A004|{method.qualname}|{display}",
                )
                continue  # report the boundary; don't walk past it
            queue.append(callee)


# ----------------------------------------------------------------------
# A005: observation mutation
# ----------------------------------------------------------------------


def _check_observation_mutation(
    graph: CallGraph,
    summaries: Dict[str, FunctionEffects],
    cls: ClassInfo,
) -> Iterator[Tuple[Finding, str]]:
    for hook in OBSERVING_HOOKS:
        method = cls.methods.get(hook)
        if method is None:
            continue
        effects = summaries.get(method.qualname)
        if effects is None:
            continue
        obs_index = _observation_param(effects)
        if obs_index is None:
            continue
        param = effects.params[obs_index]
        for key in sorted(effects.effects, key=repr):
            if key[0] != "mut" or key[1] != obs_index:
                continue
            path, line, col, chain = _finding_site(
                graph, summaries, method.qualname, key
            )
            yield (
                Finding(
                    path=path,
                    line=line,
                    column=col,
                    code="A005",
                    message=(
                        f"algorithm hook `{hook}` mutates its "
                        f"`{param}` observation; observations are "
                        "shared immutable views of the Communicate "
                        f"phase -- chain: {chain}"
                    ),
                ),
                f"A005|{method.qualname}|{param}",
            )
            break  # one finding per hook identifies the defect
