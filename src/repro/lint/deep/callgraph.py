"""Import-resolving call-graph construction over a :class:`ProjectIndex`.

The graph's nodes are the indexed functions (methods, nested functions
and lambdas included -- nested callables get an edge from their encloser,
since defining one almost always precedes calling it in the same dynamic
extent).  Edges are added for every call whose target the resolver can
pin down statically:

* plain names and dotted paths, through each module's import table and
  simple aliases, including re-exports through package ``__init__``
  modules (``from pkg.impl import helper`` makes ``pkg.helper()``
  resolve to ``pkg.impl.helper``);
* ``self.method()`` / ``cls.method()`` inside a class, with method
  resolution through statically named base classes;
* ``x.method()`` where ``x`` was assigned a constructor call of a
  resolvable class earlier in the same function body (one-pass local
  type inference);
* constructor calls, which edge to the class's ``__init__`` (resolved
  through bases);
* ``functools.partial(f, ...)`` construction, which edges the builder
  to ``f`` (constructing a partial nearly always precedes invoking it
  in the same dynamic extent, mirroring the nested-def heuristic) and
  lets a partial passed to a registrar register the wrapped callable;
* **registry dispatch**: a function that registers callables into a
  module-level dict (``_FACTORIES[name] = factory``) marks that dict as
  a registry; every call site of the registrar -- including decorator
  form ``@register("name")`` -- records the registered factory, and any
  *other* function that references the dict gets edges to every
  registered member.  This is how ``repro.sim.spec.build_graph`` (which
  only ever calls ``_lookup(_GRAPH_FACTORIES, ...)(...)``) acquires
  edges to each concrete graph factory;
* **container dispatch**: a module-level tuple/list/set/dict *literal*
  of resolvable callables (``_SECTIONS = (_section_a, _section_b)``) is
  treated exactly like a populated registry -- every function that
  reads the container name gets edges to each member;
* **attribute-chain dispatch**: ``self.attr.method()`` resolves through
  per-class attribute-type inference -- any ``self.attr = ClassName(...)``
  assignment in any method of the class (including ``x or ClassName()``
  and conditional-expression forms) types the attribute, and the call
  edges to that class's method *and every indexed subclass override*.
  This is how the engine's phase loop (which only ever calls
  ``self._backend.observe(...)`` etc.) acquires edges into both the
  reference and the vectorized :class:`~repro.sim.backend.EngineBackend`
  implementations.

Unresolvable calls (stdlib, attribute chains on unknown objects) are
simply absent from the graph; the taint pass catches their
nondeterministic subset directly at the call site via seed patterns.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.lint.deep.modindex import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    nested_qualname,
)
from repro.lint.rules import dotted_name

#: Resolution results: a concrete callable, a class, or a registry dict.
_Resolved = Union[
    Tuple[str, FunctionInfo], Tuple[str, ClassInfo], Tuple[str, str], None
]


@dataclass(frozen=True)
class CallSite:
    """Where an edge's first witnessed call appears in the caller."""

    lineno: int
    col: int


@dataclass
class CallGraph:
    """Directed call edges between qualified function names."""

    index: ProjectIndex
    #: caller qualname -> callee qualname -> first witnessed call site
    edges: Dict[str, Dict[str, CallSite]] = field(default_factory=dict)
    #: registry dict qualname -> registered member qualnames
    registries: Dict[str, Set[str]] = field(default_factory=dict)
    #: (caller, callee) -> every witnessed call expression with its
    #: binding shape: ``"call"`` (positional args map to params as
    #: written), ``"method"`` (the receiver binds the callee's first
    #: parameter, positional args shift by one), ``"ctor"`` (the fresh
    #: instance binds ``self``, positional args shift by one) or
    #: ``"partial"`` (``functools.partial(f, ...)``: args after the
    #: callable map from parameter zero).  Registry-dispatch and
    #: nested-def edges have no call expression and record nothing --
    #: the effects pass then propagates only receiver-independent
    #: effects (global writes, I/O) across them.
    call_exprs: Dict[Tuple[str, str], List[Tuple[ast.Call, str]]] = field(
        default_factory=dict
    )

    def add_edge(
        self,
        caller: str,
        callee: str,
        site: CallSite,
        node: Optional[ast.Call] = None,
        kind: str = "call",
    ) -> None:
        """Record ``caller -> callee`` (first call site wins).

        When ``node`` is the witnessed :class:`ast.Call`, it is kept --
        with its argument-binding ``kind`` -- for the effects pass.
        """
        self.edges.setdefault(caller, {}).setdefault(callee, site)
        if node is not None:
            self.call_exprs.setdefault((caller, callee), []).append(
                (node, kind)
            )

    def callees(self, caller: str) -> Dict[str, CallSite]:
        """Every edge out of ``caller`` (empty dict when none)."""
        return self.edges.get(caller, {})

    @property
    def edge_count(self) -> int:
        """Total number of resolved call edges."""
        return sum(len(targets) for targets in self.edges.values())


class _Resolver:
    """Name resolution against a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index

    # -- public entry points -------------------------------------------

    def resolve(self, module: ModuleInfo, dotted: str) -> _Resolved:
        """Resolve ``dotted`` as written inside ``module``."""
        return self._resolve_local(module, dotted, set())

    def resolve_absolute(self, dotted: str) -> _Resolved:
        """Resolve an already-absolute dotted path."""
        return self._resolve_absolute(dotted, set())

    def resolve_method(
        self, cls: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls``, then through its bases."""
        return self._method(cls, name, set())

    def constructor(self, cls: ClassInfo) -> Optional[FunctionInfo]:
        """The ``__init__`` a constructor call lands in, if indexed."""
        return self._method(cls, "__init__", set())

    # -- internals -----------------------------------------------------

    def _method(
        self, cls: ClassInfo, name: str, seen: Set[str]
    ) -> Optional[FunctionInfo]:
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            resolved = self._resolve_local(cls.module, base, set())
            if (
                resolved is not None
                and resolved[0] == "class"
                and isinstance(resolved[1], ClassInfo)
            ):
                found = self._method(resolved[1], name, seen)
                if found is not None:
                    return found
        return None

    def _resolve_local(
        self, module: ModuleInfo, dotted: str, seen: Set[str]
    ) -> _Resolved:
        key = f"{module.name}:{dotted}"
        if key in seen:
            return None
        seen.add(key)
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        if dotted in module.functions:
            return ("func", module.functions[dotted])
        if head in module.classes:
            cls = module.classes[head]
            if not rest:
                return ("class", cls)
            if len(rest) == 1:
                method = self.resolve_method(cls, rest[0])
                if method is not None:
                    return ("func", method)
            return None
        if head in module.registry_dicts and not rest:
            return ("registry", f"{module.name}.{head}")
        if head in module.imports:
            return self._resolve_absolute(
                ".".join([module.imports[head]] + rest), seen
            )
        if head in module.aliases:
            return self._resolve_local(
                module, ".".join([module.aliases[head]] + rest), seen
            )
        return None

    def _resolve_absolute(self, dotted: str, seen: Set[str]) -> _Resolved:
        if dotted in seen:
            return None
        seen.add(dotted)
        if dotted in self.index.functions:
            return ("func", self.index.functions[dotted])
        if dotted in self.index.classes:
            return ("class", self.index.classes[dotted])
        parts = dotted.split(".")
        # Longest module prefix wins: ``pkg.sub.mod.Class.method`` splits
        # at ``pkg.sub.mod`` even when ``pkg.sub`` is also a module.
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            module = self.index.modules.get(prefix)
            if module is None:
                continue
            rest = parts[cut:]
            return self._resolve_in_module(module, rest, seen)
        return None

    def _resolve_in_module(
        self, module: ModuleInfo, rest: List[str], seen: Set[str]
    ) -> _Resolved:
        symbol = ".".join(rest)
        if symbol in module.functions:
            return ("func", module.functions[symbol])
        head = rest[0]
        if head in module.classes:
            cls = module.classes[head]
            if len(rest) == 1:
                return ("class", cls)
            if len(rest) == 2:
                method = self.resolve_method(cls, rest[1])
                if method is not None:
                    return ("func", method)
            return None
        if head in module.registry_dicts and len(rest) == 1:
            return ("registry", f"{module.name}.{head}")
        if head in module.imports:
            # Re-exported name: follow the import out of this module.
            return self._resolve_absolute(
                ".".join([module.imports[head]] + rest[1:]), seen
            )
        if head in module.aliases:
            return self._resolve_local(
                module, ".".join([module.aliases[head]] + rest[1:]), seen
            )
        return None


def _self_attr_assignment(
    node: ast.AST,
) -> Tuple[Optional[str], Optional[ast.AST], Optional[ast.AST]]:
    """Decompose a ``self.attr = value`` statement (plain or annotated).

    Returns ``(attr, value, annotation)``; ``attr`` is None when the
    node is not a single-target attribute store on ``self``.
    """
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target: ast.AST = node.targets[0]
        annotation: Optional[ast.AST] = None
        value: Optional[ast.AST] = node.value
    elif isinstance(node, ast.AnnAssign):
        target = node.target
        annotation = node.annotation
        value = node.value
    else:
        return None, None, None
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr, value, annotation
    return None, None, None


def _module_scope_function(module: ModuleInfo) -> FunctionInfo:
    """A synthetic module-scope caller for resolving literal expressions."""
    return FunctionInfo(
        qualname=f"{module.name}.<module>",
        module=module,
        node=module.tree,
        lineno=1,
    )


def _registrar_registries(
    function: FunctionInfo,
) -> Set[str]:
    """The registry dicts ``function`` stores into (registrar detection).

    A registrar is any function whose body performs
    ``SOME_MODULE_DICT[...] = ...`` on a module-level registry-candidate
    dict of its own module.
    """
    found: Set[str] = set()
    module = function.module
    for node in function.own_nodes:
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in module.registry_dicts
            ):
                found.add(f"{module.name}.{target.value.id}")
    return found


@dataclass
class _Scope:
    """What one function body's names can see beyond module scope."""

    #: nested def name -> its call-graph node
    defs: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: local variable -> inferred class (``x = ClassName(...)``)
    types: Dict[str, ClassInfo] = field(default_factory=dict)
    #: function-level import alias -> absolute dotted target
    imports: Dict[str, str] = field(default_factory=dict)


class _GraphBuilder:
    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.resolver = _Resolver(index)
        self.graph = CallGraph(index=index)
        #: registrar qualname -> registry dict qualnames it writes
        self.registrars: Dict[str, Set[str]] = {}
        #: nested-callable qualname -> imports of its enclosing scope
        self.inherited_imports: Dict[str, Dict[str, str]] = {}
        #: class qualname -> attribute -> inferred classes of the value
        self.attr_types: Dict[str, Dict[str, List[ClassInfo]]] = {}
        #: class qualname -> direct indexed subclasses (lazily built)
        self._subclass_map: Optional[Dict[str, List[ClassInfo]]] = None

    def build(self) -> CallGraph:
        self._seed_container_registries()
        self._infer_class_attr_types()
        for function in list(self.index.functions.values()):
            registries = _registrar_registries(function)
            if registries:
                self.registrars[function.qualname] = registries
        # Walk a snapshot: lambdas/nested defs discovered mid-walk append
        # themselves to the index and queue for their own walk.
        queue = list(self.index.functions.values())
        walked: Set[str] = set()
        while queue:
            function = queue.pop(0)
            if function.qualname in walked:
                continue
            walked.add(function.qualname)
            queue.extend(self._walk_function(function))
        self._apply_registry_dispatch()
        return self.graph

    # -- container dispatch --------------------------------------------

    def _seed_container_registries(self) -> None:
        """Module-level literal containers of callables become registries.

        ``_SECTIONS = (_section_a, _section_b)`` or ``BUILDERS =
        {"path": _path}`` dispatch exactly like the empty-dict registry
        idiom, just with the members known statically; marking the name
        as a registry dict lets :meth:`_apply_registry_dispatch` edge
        every reader to every member.
        """
        for module in self.index.modules.values():
            for node in module.tree.body:
                if not (
                    isinstance(node, ast.Assign) and len(node.targets) == 1
                ):
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                elements: List[ast.AST]
                if isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
                    elements = list(node.value.elts)
                elif isinstance(node.value, ast.Dict):
                    elements = [v for v in node.value.values if v is not None]
                else:
                    continue
                members: Set[str] = set()
                for element in elements:
                    member = self._callable_qualname(
                        _module_scope_function(module), element, _Scope()
                    )
                    if member is not None:
                        members.add(member)
                if members:
                    module.registry_dicts.add(target.id)
                    self.graph.registries.setdefault(
                        f"{module.name}.{target.id}", set()
                    ).update(members)

    # -- attribute-chain dispatch --------------------------------------

    def _infer_class_attr_types(self) -> None:
        """Type ``self.attr`` from constructor assignments in any method.

        The inference is deliberately an over-approximation: every
        ``self.attr = <expr>`` whose expression contains a resolvable
        ``ClassName(...)`` call -- directly, behind ``or``/``and``, in a
        conditional expression, or through a local variable assigned a
        constructor call earlier in the same body -- contributes a
        candidate class, as does a resolvable class annotation on
        ``self.attr: "ClassName" = ...``.
        """
        for function in self.index.functions.values():
            if function.class_name is None:
                continue
            own_class = function.module.classes.get(function.class_name)
            if own_class is None:
                continue
            scope = _Scope(imports=dict(function.local_imports))
            self._type_locals(function, scope, own_class)
            for node in function.own_nodes:
                target, value, annotation = _self_attr_assignment(node)
                if target is None:
                    continue
                found: List[ClassInfo] = []
                if value is not None:
                    found.extend(
                        self._constructed_classes(
                            function.module, value, scope, own_class
                        )
                    )
                if annotation is not None:
                    cls = self._annotation_class(
                        function.module, annotation, scope
                    )
                    if cls is not None:
                        found.append(cls)
                slot = self.attr_types.setdefault(
                    own_class.qualname, {}
                ).setdefault(target, [])
                for cls in found:
                    if all(c.qualname != cls.qualname for c in slot):
                        slot.append(cls)

    def _annotation_class(
        self, module: ModuleInfo, annotation: ast.AST, scope: "_Scope"
    ) -> Optional[ClassInfo]:
        """The indexed class an attribute annotation names, if any."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(
                    annotation.value, mode="eval"
                ).body
            except SyntaxError:
                return None
        dotted = dotted_name(annotation)
        if dotted is None:
            return None
        resolved = self._resolve_in_scope(module, dotted, scope)
        if resolved is not None and resolved[0] == "class":
            assert isinstance(resolved[1], ClassInfo)
            return resolved[1]
        return None

    def _constructed_classes(
        self,
        module: ModuleInfo,
        expr: ast.AST,
        scope: "_Scope",
        own_class: Optional[ClassInfo],
    ) -> List[ClassInfo]:
        """Classes constructed anywhere in an assigned expression."""
        candidates: List[ast.AST] = [expr]
        if isinstance(expr, ast.BoolOp):
            candidates = list(expr.values)
        elif isinstance(expr, ast.IfExp):
            candidates = [expr.body, expr.orelse]
        found: List[ClassInfo] = []
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                if candidate.id in scope.types:
                    found.append(scope.types[candidate.id])
                continue
            if not isinstance(candidate, ast.Call):
                continue
            resolved = self._resolve_call_target(
                module, candidate.func, scope, own_class
            )
            if resolved is not None and resolved[0] == "class":
                assert isinstance(resolved[1], ClassInfo)
                found.append(resolved[1])
        return found

    def _attr_candidate_classes(
        self, cls: ClassInfo, attr: str, seen: Optional[Set[str]] = None
    ) -> List[ClassInfo]:
        """Inferred classes of ``self.attr`` on ``cls`` or its bases."""
        seen = set() if seen is None else seen
        if cls.qualname in seen:
            return []
        seen.add(cls.qualname)
        found = list(self.attr_types.get(cls.qualname, {}).get(attr, []))
        for base in cls.bases:
            resolved = self.resolver.resolve(cls.module, base)
            if (
                resolved is not None
                and resolved[0] == "class"
                and isinstance(resolved[1], ClassInfo)
            ):
                found.extend(
                    self._attr_candidate_classes(resolved[1], attr, seen)
                )
        return found

    def _subclasses_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """Every indexed transitive subclass of ``cls``."""
        if self._subclass_map is None:
            direct: Dict[str, List[ClassInfo]] = {}
            for candidate in self.index.classes.values():
                for base in candidate.bases:
                    resolved = self.resolver.resolve(candidate.module, base)
                    if (
                        resolved is not None
                        and resolved[0] == "class"
                        and isinstance(resolved[1], ClassInfo)
                    ):
                        direct.setdefault(
                            resolved[1].qualname, []
                        ).append(candidate)
            self._subclass_map = direct
        found: List[ClassInfo] = []
        queue = list(self._subclass_map.get(cls.qualname, []))
        seen: Set[str] = set()
        while queue:
            sub = queue.pop(0)
            if sub.qualname in seen:
                continue
            seen.add(sub.qualname)
            found.append(sub)
            queue.extend(self._subclass_map.get(sub.qualname, []))
        return found

    def _attribute_dispatch_targets(
        self,
        func_expr: ast.AST,
        own_class: Optional[ClassInfo],
    ) -> List[FunctionInfo]:
        """The methods a ``self.attr.method()`` call can land in.

        Over-approximates over both the inferred attribute classes and
        their indexed subclasses, which is what lets a registry-selected
        implementation (the engine's pluggable backend) stay visible to
        the taint pass.
        """
        if own_class is None or not isinstance(func_expr, ast.Attribute):
            return []
        receiver = func_expr.value
        if not (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id in ("self", "cls")
        ):
            return []
        targets: List[FunctionInfo] = []
        for cls in self._attr_candidate_classes(own_class, receiver.attr):
            for impl in [cls, *self._subclasses_of(cls)]:
                method = self.resolver.resolve_method(impl, func_expr.attr)
                if method is not None and all(
                    method.qualname != t.qualname for t in targets
                ):
                    targets.append(method)
        return targets

    # -- per-function walk ---------------------------------------------

    def _walk_function(self, function: FunctionInfo) -> List[FunctionInfo]:
        module = function.module
        discovered: List[FunctionInfo] = []
        scope = _Scope(
            imports=dict(self.inherited_imports.pop(function.qualname, {}))
        )
        own_class = (
            module.classes.get(function.class_name)
            if function.class_name is not None
            else None
        )
        nodes = function.own_nodes
        # Imports and nested defs first, so the later call pass resolves
        # local names regardless of traversal order.
        scope.imports.update(function.local_imports)
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = self._nested(function, node, scope)
                scope.defs[node.name] = nested
                discovered.append(nested)
            elif isinstance(node, ast.Lambda):
                discovered.append(self._nested(function, node, scope))
        # Type inference before call handling: node order is traversal
        # order, not source order, so a method call can surface before
        # the assignment that names its receiver.
        self._type_locals(function, scope, own_class)
        for node in nodes:
            if isinstance(node, ast.Call):
                self._handle_call(function, node, scope, own_class)
        self._handle_decorators(function, scope)
        return discovered

    def _type_locals(
        self,
        function: FunctionInfo,
        scope: "_Scope",
        own_class: Optional[ClassInfo],
    ) -> None:
        """Type each ``x = ClassName(...)`` local into ``scope.types``."""
        for node in function.own_nodes:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(
                node.value, ast.Call
            ):
                resolved = self._resolve_call_target(
                    function.module, node.value.func, scope, own_class
                )
                if resolved is not None and resolved[0] == "class":
                    assert isinstance(resolved[1], ClassInfo)
                    scope.types[target.id] = resolved[1]

    def _nested(
        self,
        parent: FunctionInfo,
        node: ast.AST,
        scope: Optional["_Scope"] = None,
    ) -> FunctionInfo:
        qualname = nested_qualname(parent.qualname, node)
        nested = FunctionInfo(
            qualname=qualname,
            module=parent.module,
            node=node,
            lineno=getattr(node, "lineno", parent.lineno),
            class_name=parent.class_name,
        )
        self.index.functions.setdefault(qualname, nested)
        if scope is not None and scope.imports:
            # Closures see the enclosing function's imports.
            self.inherited_imports.setdefault(qualname, scope.imports)
        # Defining a nested callable nearly always precedes invoking it
        # within the same dynamic extent; over-approximate with an edge.
        self.graph.add_edge(
            parent.qualname,
            qualname,
            CallSite(nested.lineno, getattr(node, "col_offset", 0) + 1),
        )
        return self.index.functions[qualname]

    # -- call handling -------------------------------------------------

    def _partial_target(
        self,
        function: FunctionInfo,
        node: ast.AST,
        scope: "_Scope",
    ) -> Optional[ast.AST]:
        """The wrapped callable of a ``functools.partial(f, ...)`` call.

        Returns the first positional argument when ``node`` is a call
        whose func resolves -- through function-level or module-level
        imports (``from functools import partial``, ``import functools``
        or any aliased form) -- to absolute ``functools.partial``;
        ``None`` otherwise.
        """
        if not isinstance(node, ast.Call) or not node.args:
            return None
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        head = parts[0]
        absolute = scope.imports.get(head) or function.module.imports.get(
            head
        )
        if absolute is None:
            return None
        if ".".join([absolute] + parts[1:]) != "functools.partial":
            return None
        return node.args[0]

    def _resolve_call_target(
        self,
        module: ModuleInfo,
        func_expr: ast.AST,
        scope: "_Scope",
        own_class: Optional[ClassInfo],
    ) -> _Resolved:
        if isinstance(func_expr, ast.Name) and func_expr.id in scope.defs:
            return ("func", scope.defs[func_expr.id])
        if isinstance(func_expr, ast.Attribute) and isinstance(
            func_expr.value, ast.Name
        ):
            root = func_expr.value.id
            if root in ("self", "cls") and own_class is not None:
                method = self.resolver.resolve_method(
                    own_class, func_expr.attr
                )
                if method is not None:
                    return ("func", method)
                return None
            if root in scope.types:
                method = self.resolver.resolve_method(
                    scope.types[root], func_expr.attr
                )
                if method is not None:
                    return ("func", method)
                return None
        dotted = dotted_name(func_expr)
        if dotted is None:
            return None
        return self._resolve_in_scope(module, dotted, scope)

    def _resolve_in_scope(
        self, module: ModuleInfo, dotted: str, scope: "_Scope"
    ) -> _Resolved:
        """``dotted`` through the function's imports, then the module's."""
        head, _, rest = dotted.partition(".")
        if head in scope.imports:
            absolute = scope.imports[head] + ("." + rest if rest else "")
            resolved = self.resolver.resolve_absolute(absolute)
            if resolved is not None:
                return resolved
        return self.resolver.resolve(module, dotted)

    def _handle_call(
        self,
        function: FunctionInfo,
        node: ast.Call,
        scope: "_Scope",
        own_class: Optional[ClassInfo],
    ) -> None:
        site = CallSite(node.lineno, node.col_offset + 1)
        # ``self.attr.method()``: dispatch through the inferred attribute
        # type(s), covering every indexed subclass override.
        for method in self._attribute_dispatch_targets(node.func, own_class):
            self.graph.add_edge(
                function.qualname, method.qualname, site, node, "method"
            )
        resolved = self._resolve_call_target(
            function.module, node.func, scope, own_class
        )
        # ``register(name)(fn)``: the outer call's func is itself a call
        # to a registrar; the outer argument is the registered factory.
        if isinstance(node.func, ast.Call):
            inner = self._resolve_call_target(
                function.module, node.func.func, scope, own_class
            )
            self._maybe_register(function, inner, node, scope)
        # ``functools.partial(f, ...)``: constructing the partial is, for
        # graph purposes, a (deferred) call of ``f``.
        wrapped = self._partial_target(function, node, scope)
        if wrapped is not None:
            member = self._callable_qualname(function, wrapped, scope)
            if member is not None:
                self.graph.add_edge(
                    function.qualname, member, site, node, "partial"
                )
        if resolved is None:
            return
        kind, target = resolved
        if kind == "func":
            assert isinstance(target, FunctionInfo)
            # A method reached through an attribute receiver binds that
            # receiver to its first parameter; a plain (or unbound
            # ``Class.method(obj, ...)``) call maps args positionally.
            shape = (
                "method"
                if target.class_name is not None
                and isinstance(node.func, ast.Attribute)
                else "call"
            )
            self.graph.add_edge(
                function.qualname, target.qualname, site, node, shape
            )
            self._maybe_register(function, resolved, node, scope)
        elif kind == "class":
            assert isinstance(target, ClassInfo)
            init = self.resolver.constructor(target)
            if init is not None:
                self.graph.add_edge(
                    function.qualname, init.qualname, site, node, "ctor"
                )

    def _handle_decorators(
        self, function: FunctionInfo, scope: "_Scope"
    ) -> None:
        """``@register("name")`` on a def registers the def itself."""
        for decorator in getattr(function.node, "decorator_list", []):
            if not isinstance(decorator, ast.Call):
                continue
            resolved = self._resolve_call_target(
                function.module, decorator.func, _Scope(), None
            )
            if resolved is None or resolved[0] != "func":
                continue
            assert isinstance(resolved[1], FunctionInfo)
            for registry in self.registrars.get(resolved[1].qualname, ()):
                self.graph.registries.setdefault(registry, set()).add(
                    function.qualname
                )

    def _maybe_register(
        self,
        function: FunctionInfo,
        registrar: _Resolved,
        call: ast.Call,
        scope: "_Scope",
    ) -> None:
        """If ``call`` invokes a registrar, record its callable args."""
        if registrar is None or registrar[0] != "func":
            return
        assert isinstance(registrar[1], FunctionInfo)
        registries = self.registrars.get(registrar[1].qualname)
        if not registries:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            member = self._callable_qualname(function, arg, scope)
            if member is None:
                continue
            for registry in registries:
                self.graph.registries.setdefault(registry, set()).add(
                    member
                )

    def _callable_qualname(
        self,
        function: FunctionInfo,
        node: ast.AST,
        scope: "_Scope",
    ) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return self._nested(function, node, scope).qualname
        # A partial handed to a registrar registers the wrapped callable.
        wrapped = self._partial_target(function, node, scope)
        if wrapped is not None:
            return self._callable_qualname(function, wrapped, scope)
        resolved = self._resolve_call_target(
            function.module, node, scope, None
        )
        if resolved is None:
            return None
        if resolved[0] == "func":
            assert isinstance(resolved[1], FunctionInfo)
            return resolved[1].qualname
        if resolved[0] == "class":
            assert isinstance(resolved[1], ClassInfo)
            init = self.resolver.constructor(resolved[1])
            return init.qualname if init is not None else None
        return None

    # -- registry dispatch ---------------------------------------------

    def _apply_registry_dispatch(self) -> None:
        """Edge every registry *reader* to every registered member."""
        for function in list(self.index.functions.values()):
            own = self.registrars.get(function.qualname, set())
            for registry, site in self._registry_references(function):
                if registry in own:
                    continue  # the registrar's own store, not a dispatch
                for member in sorted(
                    self.graph.registries.get(registry, set())
                ):
                    self.graph.add_edge(function.qualname, member, site)

    def _registry_references(
        self, function: FunctionInfo
    ) -> List[Tuple[str, CallSite]]:
        module = function.module
        found: Dict[str, CallSite] = {}
        for node in function.own_nodes:
            registry: Optional[str] = None
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in module.registry_dicts
            ):
                registry = f"{module.name}.{node.id}"
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is not None:
                    resolved = self.resolver.resolve(module, dotted)
                    if resolved is not None and resolved[0] == "registry":
                        assert isinstance(resolved[1], str)
                        registry = resolved[1]
            if registry is not None:
                found.setdefault(
                    registry,
                    CallSite(
                        getattr(node, "lineno", function.lineno),
                        getattr(node, "col_offset", 0) + 1,
                    ),
                )
        return sorted(found.items())


def build_call_graph(index: ProjectIndex) -> CallGraph:
    """Build the whole-program call graph over ``index``."""
    return _GraphBuilder(index).build()
