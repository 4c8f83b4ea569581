"""Whole-program side-effect inference over the deep-analysis call graph.

Every indexed callable gets a :class:`FunctionEffects` summary answering
three questions the phase/hook/digest contracts need answered
*transitively*, not just syntactically:

* **which parameters does it mutate, and through which attribute
  path?** -- assignment / augmented-assignment / ``del`` targets whose
  root resolves to a parameter (directly or through a local alias like
  ``rr = payload`` or ``engine = self.engine``), subscript stores
  (``positions[r] = v`` mutates ``positions``), mutating method calls
  (``list.append``, ``dict.update``, ...) and numpy in-place forms
  (``arr += 1``, ``arr[mask] = 0``, ``arr.fill(0)``);
* **which module-level globals does it write?** -- stores through
  ``global`` declarations plus subscript/attribute/method mutation of
  module-level names;
* **does it perform I/O?** -- ``open``/``print``, the mutating
  ``os``/``shutil``/``subprocess`` entry points, and write-method calls.

Summaries start from a direct per-function pass (closures included: a
nested ``def``/``lambda`` mutating an enclosing function's parameter
charges the encloser too, mirroring the call graph's "defining precedes
invoking" heuristic), then propagate to a fixpoint along call edges.
Propagation binds call-site arguments to callee parameters using the
per-edge call expressions the graph records -- the receiver of a method
call binds parameter zero, ``functools.partial(f, x)`` binds ``x`` to
``f``'s first parameter, keyword arguments bind by name -- so a callee
that mutates its parameter charges the caller's *argument* at the right
attribute path (``helper(engine)`` mutating ``engine._positions`` makes
the caller a mutator of ``self.engine._positions``).  Edges without a
recorded call expression (registry dispatch, nested-def edges) propagate
only the receiver-independent effects: global writes and I/O.

Attribute paths are truncated at :data:`MAX_PATH` segments and each
summary is capped at :data:`MAX_EFFECTS` entries, which keeps the
abstract domain finite and the fixpoint terminating.  Every effect
carries a :class:`Witness` -- either the direct source location or a link
to the callee effect it was propagated from -- so the contract checker
(:mod:`~repro.lint.deep.contracts`) can render full call chains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.deep.callgraph import CallGraph
from repro.lint.deep.modindex import FunctionInfo, ModuleInfo, nested_qualname
from repro.lint.rules import dotted_name

#: Longest attribute path a mutation effect tracks; deeper stores are
#: truncated (over-approximating toward "mutates the prefix object").
MAX_PATH = 6

#: Per-function effect-set cap; beyond it the summary stops widening and
#: flags itself ``overflowed`` (soundness valve, never hit in this tree).
MAX_EFFECTS = 512

#: Method names that mutate their receiver in the stdlib containers
#: (list/dict/set).  The fork-safety F001 check reuses this set.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "clear",
        "pop",
        "popitem",
        "remove",
        "discard",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: numpy in-place methods, charged like the stdlib container mutators.
NUMPY_INPLACE_METHODS = frozenset(
    {"fill", "put", "resize", "partition", "setflags", "itemset", "byteswap"}
)

MUTATOR_METHODS = MUTATING_METHODS | NUMPY_INPLACE_METHODS

#: Call names that perform I/O regardless of receiver.
IO_CALLS = frozenset(
    {
        "open",
        "print",
        "input",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.mkdir",
        "os.rmdir",
        "os.chmod",
        "os.symlink",
        "os.truncate",
        "shutil.move",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.rmtree",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Method names that write through their receiver to the outside world.
IO_METHODS = frozenset(
    {"write", "writelines", "write_text", "write_bytes"}
)

#: Effect keys are tuples: ``("mut", param_index, attr_path)``,
#: ``("global", name)`` or ``("io", label)``.
EffectKey = Tuple


@dataclass(frozen=True)
class Witness:
    """Why a summary carries an effect: a source site or a callee link."""

    lineno: int
    col: int
    detail: str
    #: ``(callee qualname, callee effect key)`` when propagated; the
    #: chain renderer follows these links down to a direct site.
    via: Optional[Tuple[str, EffectKey]] = None


@dataclass
class FunctionEffects:
    """One callable's inferred side effects plus resolution context."""

    qualname: str
    #: declared parameter names (``self`` included for methods), in
    #: binding order: positional-only, positional, keyword-only,
    #: ``*args``, ``**kwargs``.
    params: Tuple[str, ...] = ()
    effects: Dict[EffectKey, Witness] = field(default_factory=dict)
    #: final local-alias map (``rr -> (param index, attr path)``), kept
    #: so propagation can resolve call arguments in caller context.
    aliases: Dict[str, Tuple[int, Tuple[str, ...]]] = field(
        default_factory=dict
    )
    #: module-level assigned names visible to this function.
    module_globals: FrozenSet[str] = frozenset()
    overflowed: bool = False

    def add(self, key: EffectKey, witness: Witness) -> bool:
        """Record ``key`` unless present/overflowed; True when added."""
        if key in self.effects:
            return False
        if len(self.effects) >= MAX_EFFECTS:
            self.overflowed = True
            return False
        self.effects[key] = witness
        return True

    def param_name(self, index: int) -> str:
        """The declared name of parameter ``index`` (``argN`` past the end)."""
        named = index < len(self.params)
        return self.params[index] if named else f"arg{index}"

    def mutated_params(self) -> Iterator[Tuple[int, Tuple[str, ...]]]:
        """Every ``(param index, attr path)`` this callable mutates."""
        for key in self.effects:
            if key[0] == "mut":
                yield key[1], key[2]


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = node.args  # type: ignore[attr-defined]
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _peel(expr: ast.AST) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """``(root name, attr path)`` of a Name/Attribute/Subscript chain.

    Subscripts contribute no path segment: an element of a container is
    tracked as the container itself (mutating ``d[k]`` mutates ``d``;
    mutating ``d[k].field`` over-approximates to ``d.field``'s family).
    """
    attrs: List[str] = []
    current = expr
    while True:
        if isinstance(current, ast.Attribute):
            attrs.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        else:
            break
    if not isinstance(current, ast.Name):
        return None
    return current.id, tuple(reversed(attrs))


def _module_level_names(module: ModuleInfo) -> FrozenSet[str]:
    names: Set[str] = set(module.registry_dicts)
    for node in module.tree.body:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def _ordered_nodes(function: FunctionInfo) -> List[ast.AST]:
    """A callable's own nodes in source order (aliases are flow-read)."""
    return sorted(
        function.own_nodes,
        key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)),
    )


class _DirectPass:
    """One callable's syntactic effects, closures folded in."""

    def __init__(
        self,
        function: FunctionInfo,
        effects: FunctionEffects,
        functions: Dict[str, FunctionInfo],
    ) -> None:
        self.function = function
        self.effects = effects
        #: the index's callables, where each closure's own nodes live
        self.functions = functions

    def run(self) -> None:
        params = {
            name: index
            for index, name in enumerate(self.effects.params)
        }
        self._walk(self.function, params, self.effects.aliases, set())

    # -- scope walk ----------------------------------------------------

    def _closure(self, parent: FunctionInfo, node: ast.AST) -> FunctionInfo:
        """The indexed callable of a def/lambda nested in ``parent``.

        A closure whose name the call graph gave to an earlier sibling
        is not indexed; it gets a throwaway entry of its own.
        """
        qualname = nested_qualname(parent.qualname, node)
        indexed = self.functions.get(qualname)
        if indexed is not None and indexed.node is node:
            return indexed
        return FunctionInfo(
            qualname=qualname,
            module=parent.module,
            node=node,
            lineno=getattr(node, "lineno", parent.lineno),
        )

    def _walk(
        self,
        function: FunctionInfo,
        params: Dict[str, int],
        aliases: Dict[str, Tuple[int, Tuple[str, ...]]],
        declared_globals: Set[str],
    ) -> None:
        params = dict(params)
        declared_globals = set(declared_globals)
        nodes = _ordered_nodes(function)
        nested: List[ast.AST] = []
        for node in nodes:
            if isinstance(node, ast.Global):
                declared_globals.update(node.names)
        for node in nodes:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.append(node)
                continue
            self._visit(node, params, aliases, declared_globals)
        # A closure mutating an enclosing parameter charges the encloser
        # (its own summary, built separately, charges it again -- the
        # over-approximation is deliberate).  The closure's own params
        # shadow the outer bindings.
        for child in nested:
            shadowed = set(_param_names(child))
            inner_params = {
                name: index
                for name, index in params.items()
                if name not in shadowed
            }
            inner_aliases = {
                name: origin
                for name, origin in aliases.items()
                if name not in shadowed
            }
            self._walk(
                self._closure(function, child),
                inner_params,
                inner_aliases,
                declared_globals,
            )

    # -- per-node dispatch ---------------------------------------------

    def _visit(
        self,
        node: ast.AST,
        params: Dict[str, int],
        aliases: Dict[str, Tuple[int, Tuple[str, ...]]],
        declared_globals: Set[str],
    ) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._store(target, node, params, aliases, declared_globals)
            if len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name
            ):
                self._rebind(
                    node.targets[0].id, node.value, params, aliases
                )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._store(node.target, node, params, aliases, declared_globals)
            if isinstance(node.target, ast.Name):
                self._rebind(node.target.id, node.value, params, aliases)
        elif isinstance(node, ast.AugAssign):
            self._store(
                node.target,
                node,
                params,
                aliases,
                declared_globals,
                augmented=True,
            )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    self._store(
                        target, node, params, aliases, declared_globals
                    )
        elif isinstance(node, ast.Call):
            self._call(node, params, aliases, declared_globals)

    def _rebind(
        self,
        name: str,
        value: ast.AST,
        params: Dict[str, int],
        aliases: Dict[str, Tuple[int, Tuple[str, ...]]],
    ) -> None:
        """Track ``x = <param-rooted chain>`` aliases flow-forward."""
        if name in params:
            # Rebinding a parameter name severs it for the rest of the
            # (straight-line approximation of the) body.
            del params[name]
        peeled = _peel(value)
        origin = (
            self._origin(peeled[0], peeled[1], params, aliases)
            if peeled is not None and not isinstance(value, ast.Subscript)
            else None
        )
        if origin is not None:
            aliases[name] = origin
        else:
            aliases.pop(name, None)

    def _origin(
        self,
        root: str,
        attrs: Tuple[str, ...],
        params: Dict[str, int],
        aliases: Dict[str, Tuple[int, Tuple[str, ...]]],
    ) -> Optional[Tuple[int, Tuple[str, ...]]]:
        if root in params:
            return params[root], attrs[:MAX_PATH]
        if root in aliases:
            index, base = aliases[root]
            return index, (base + attrs)[:MAX_PATH]
        return None

    def _store(
        self,
        target: ast.AST,
        node: ast.AST,
        params: Dict[str, int],
        aliases: Dict[str, Tuple[int, Tuple[str, ...]]],
        declared_globals: Set[str],
        augmented: bool = False,
    ) -> None:
        if isinstance(target, ast.Name):
            # Plain rebinding mutates nothing -- except augmented
            # assignment, which is in-place for arrays and containers
            # (``arr += 1``), and stores through ``global``.
            if augmented and target.id in declared_globals:
                self._global_write(target.id, node, "augmented assignment")
            elif augmented:
                origin = self._origin(target.id, (), params, aliases)
                if origin is not None:
                    self._mutation(origin, node, "augmented assignment")
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        peeled = _peel(target)
        if peeled is None:
            return
        root, attrs = peeled
        detail = (
            "augmented assignment"
            if augmented
            else "delete"
            if isinstance(node, ast.Delete)
            else "subscript store"
            if isinstance(target, ast.Subscript)
            else "attribute store"
        )
        origin = self._origin(root, attrs, params, aliases)
        if origin is not None:
            self._mutation(origin, node, detail)
        elif self._is_global(root, params, aliases, declared_globals):
            self._global_write(root, node, detail)

    def _call(
        self,
        node: ast.Call,
        params: Dict[str, int],
        aliases: Dict[str, Tuple[int, Tuple[str, ...]]],
        declared_globals: Set[str],
    ) -> None:
        func = node.func
        dotted = dotted_name(func)
        if dotted in IO_CALLS:
            self._io(dotted, node)
            return
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in IO_METHODS:
            self._io(f".{func.attr}()", node)
        if func.attr not in MUTATOR_METHODS:
            return
        peeled = _peel(func.value)
        if peeled is None:
            return
        root, attrs = peeled
        detail = f"call to .{func.attr}()"
        origin = self._origin(root, attrs, params, aliases)
        if origin is not None:
            self._mutation(origin, node, detail)
        elif self._is_global(root, params, aliases, declared_globals):
            self._global_write(root, node, detail)

    # -- effect recording ----------------------------------------------

    def _is_global(
        self,
        root: str,
        params: Dict[str, int],
        aliases: Dict[str, Tuple[int, Tuple[str, ...]]],
        declared_globals: Set[str],
    ) -> bool:
        if root in declared_globals:
            return True
        return (
            root in self.effects.module_globals
            and root not in params
            and root not in aliases
            and root not in self._locally_bound()
        )

    def _locally_bound(self) -> Set[str]:
        cached = getattr(self, "_local_names", None)
        if cached is not None:
            return cached
        names: Set[str] = set()
        for node in ast.walk(self.function.node):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                names.add(node.id)
        self._local_names = names
        return names

    def _mutation(
        self,
        origin: Tuple[int, Tuple[str, ...]],
        node: ast.AST,
        detail: str,
    ) -> None:
        index, path = origin
        self.effects.add(
            ("mut", index, path),
            Witness(
                getattr(node, "lineno", self.function.lineno),
                getattr(node, "col_offset", 0) + 1,
                detail,
            ),
        )

    def _global_write(self, name: str, node: ast.AST, detail: str) -> None:
        self.effects.add(
            ("global", f"{self.function.module.name}.{name}"),
            Witness(
                getattr(node, "lineno", self.function.lineno),
                getattr(node, "col_offset", 0) + 1,
                detail,
            ),
        )

    def _io(self, label: str, node: ast.AST) -> None:
        self.effects.add(
            ("io", label),
            Witness(
                getattr(node, "lineno", self.function.lineno),
                getattr(node, "col_offset", 0) + 1,
                f"call to {label}",
            ),
        )


def _bind_arguments(
    node: ast.Call, kind: str, callee_params: Tuple[str, ...]
) -> Dict[int, ast.AST]:
    """Map callee parameter indices to caller-side argument expressions."""
    mapping: Dict[int, ast.AST] = {}
    args = list(node.args)
    start = 0
    if kind == "partial":
        args = args[1:]
    elif kind == "method":
        if isinstance(node.func, ast.Attribute):
            mapping[0] = node.func.value
        start = 1
    elif kind == "ctor":
        start = 1  # the fresh instance binds self; nothing caller-side
    for offset, arg in enumerate(args):
        if isinstance(arg, ast.Starred):
            break
        mapping[start + offset] = arg
    for keyword in node.keywords:
        if keyword.arg is None:
            continue
        if keyword.arg in callee_params:
            mapping[callee_params.index(keyword.arg)] = keyword.value
    return mapping


def infer_effects(graph: CallGraph) -> Dict[str, FunctionEffects]:
    """Effect summaries for every indexed callable, fixpoint-propagated."""
    summaries: Dict[str, FunctionEffects] = {}
    module_globals: Dict[str, FrozenSet[str]] = {}
    for function in graph.index.functions.values():
        if not isinstance(
            function.node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
        ):
            continue
        module = function.module
        if module.name not in module_globals:
            module_globals[module.name] = _module_level_names(module)
        effects = FunctionEffects(
            qualname=function.qualname,
            params=_param_names(function.node),
            module_globals=module_globals[module.name],
        )
        _DirectPass(function, effects, graph.index.functions).run()
        summaries[function.qualname] = effects
    _propagate(graph, summaries)
    return summaries


def _propagate(
    graph: CallGraph, summaries: Dict[str, FunctionEffects]
) -> None:
    rounds = 0
    changed = True
    while changed and rounds < 64:
        changed = False
        rounds += 1
        for caller_name, callees in graph.edges.items():
            caller = summaries.get(caller_name)
            if caller is None:
                continue
            for callee_name, site in callees.items():
                if callee_name == caller_name:
                    continue
                callee = summaries.get(callee_name)
                if callee is None:
                    continue
                # Receiver-independent effects cross every edge,
                # including registry dispatch and nested-def edges.
                for key in list(callee.effects):
                    if key[0] not in ("global", "io"):
                        continue
                    if caller.add(
                        key,
                        Witness(
                            site.lineno,
                            site.col,
                            f"via {callee_name}",
                            via=(callee_name, key),
                        ),
                    ):
                        changed = True
                # Parameter mutations need an argument binding, so they
                # cross only edges with a recorded call expression.
                for call, kind in graph.call_exprs.get(
                    (caller_name, callee_name), ()
                ):
                    binding = _bind_arguments(call, kind, callee.params)
                    for index, path in list(callee.mutated_params()):
                        argument = binding.get(index)
                        if argument is None:
                            continue
                        peeled = _peel(argument)
                        if peeled is None:
                            continue
                        root, attrs = peeled
                        caller_params = {
                            name: i
                            for i, name in enumerate(caller.params)
                        }
                        origin = None
                        if root in caller_params:
                            origin = (caller_params[root], attrs)
                        elif root in caller.aliases:
                            base_index, base = caller.aliases[root]
                            origin = (base_index, base + attrs)
                        key: EffectKey
                        if origin is not None:
                            base_index, base_path = origin
                            key = (
                                "mut",
                                base_index,
                                (base_path + path)[:MAX_PATH],
                            )
                        elif root in caller.module_globals:
                            module = graph.index.functions[
                                caller_name
                            ].module
                            key = ("global", f"{module.name}.{root}")
                        else:
                            continue
                        if caller.add(
                            key,
                            Witness(
                                call.lineno,
                                call.col_offset + 1,
                                f"via {callee_name}",
                                via=(callee_name, ("mut", index, path)),
                            ),
                        ):
                            changed = True


def witness_chain(
    summaries: Dict[str, FunctionEffects],
    qualname: str,
    key: EffectKey,
) -> Tuple[List[str], Optional[Witness]]:
    """The call chain from ``qualname`` down to the direct mutation site.

    Returns ``(chain, direct)`` where ``chain`` starts at ``qualname``
    and ends at the function containing the direct effect, and
    ``direct`` is that effect's witness (None when the chain dead-ends,
    which only a malformed summary set can produce).
    """
    chain = [qualname]
    effects = summaries.get(qualname)
    witness = effects.effects.get(key) if effects is not None else None
    guard = 0
    while witness is not None and witness.via is not None and guard < 32:
        callee_name, callee_key = witness.via
        chain.append(callee_name)
        effects = summaries.get(callee_name)
        witness = (
            effects.effects.get(callee_key)
            if effects is not None
            else None
        )
        guard += 1
    return chain, witness
