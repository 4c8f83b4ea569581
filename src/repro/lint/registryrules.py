"""R-rules: hygiene of the spec component registries.

:mod:`repro.sim.spec` resolves graphs, algorithms, byzantine policies
and activation schedules by *name*; a spec is only as reproducible as
those names are resolvable and their parameters serializable.  These
rules check registration sites statically: names must be grep-able
constants (R001), registered once (R002), and factories must accept the
calling convention the spec layer uses (R003) -- graph factories take
``(params, ctx)``, every other kind takes ``(params)``.

The module that *defines* a registry function (``def register_graph``)
is exempt from R001/R003 for calls to that function: the registry's own
decorator plumbing legitimately forwards computed names.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding, RuleInfo
from repro.lint.rules import ModuleContext, Rule, register_rule

#: Registry function name -> number of positional parameters the spec
#: layer calls the registered factory with.
REGISTRY_ARITY = {
    "register_graph": 2,
    "register_algorithm": 1,
    "register_byzantine": 1,
    "register_activation": 1,
    "register_scheduler": 1,
}


def _registry_call_name(context: ModuleContext, node: ast.Call) -> Optional[str]:
    """The registry function a call targets, or ``None``.

    Matches both ``register_graph(...)`` and ``spec.register_graph(...)``.
    """
    func = node.func
    if isinstance(func, ast.Name) and func.id in REGISTRY_ARITY:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in REGISTRY_ARITY:
        return func.attr
    return None


def _positional_param_range(fn: ast.AST) -> Optional[Tuple[int, int]]:
    """The ``(min, max)`` positional parameters a function/lambda accepts.

    Defaults widen the range downwards; ``None`` when the signature is
    open-ended (``*args``), which makes any calling convention fine.
    """
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return None
    args = fn.args
    if args.vararg is not None:
        return None
    total = len(args.posonlyargs) + len(args.args)
    return total - len(args.defaults), total


class RegistrationSites:
    """Every registry call site in a module, pre-digested.

    Built once per module per run, as
    :attr:`ModuleContext.registration_sites`, and shared by R001-R003.
    """

    def __init__(self, context: ModuleContext) -> None:
        #: registry function names *defined* here (exempt callers)
        self.exempt: Set[str] = set()
        #: ``(registry, call, name_node, factory_node, decorated_def)``
        self.sites: List[
            Tuple[str, ast.Call, Optional[ast.expr], Optional[ast.expr],
                  Optional[ast.FunctionDef]]
        ] = []
        #: module-level ``def``/``name = lambda`` bindings for R003 lookups
        self.local_functions: Dict[str, ast.AST] = {}
        for node in context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_functions[node.name] = node
                if isinstance(node, ast.FunctionDef) and (
                    node.name in REGISTRY_ARITY
                ):
                    self.exempt.add(node.name)
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Lambda
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_functions[target.id] = node.value
        decorator_calls = set()
        for node in context.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    if not isinstance(decorator, ast.Call):
                        continue
                    registry = _registry_call_name(context, decorator)
                    if registry is None:
                        continue
                    decorator_calls.add(id(decorator))
                    name_node = (
                        decorator.args[0] if decorator.args else None
                    )
                    if isinstance(node, ast.FunctionDef):
                        self.sites.append(
                            (registry, decorator, name_node, None, node)
                        )
        for node in context.nodes:
            if isinstance(node, ast.Call) and id(node) not in decorator_calls:
                registry = _registry_call_name(context, node)
                if registry is None:
                    continue
                name_node = node.args[0] if node.args else None
                factory = node.args[1] if len(node.args) > 1 else None
                self.sites.append((registry, node, name_node, factory, None))


@register_rule
class UnresolvableRegistryName(Rule):
    """R001: registry names must be static, grep-able constants."""

    info = RuleInfo(
        code="R001",
        name="unresolvable-registry-name",
        summary="component registered under a computed name",
        rationale=(
            "A spec references components by name; if the registered "
            "name is computed at runtime (f-string, call result), specs "
            "cannot be validated statically, the name cannot be "
            "grepped, and a rename silently orphans stored specs.  Use "
            "a string literal, or the conventional Class.name constant."
        ),
        example_bad='register_algorithm(make_name(variant), factory)',
        example_good='register_algorithm("dispersion_dynamic", factory)',
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        sites = context.registration_sites
        for registry, call, name_node, _factory, _decorated in sites.sites:
            if registry in sites.exempt:
                continue
            if name_node is None:
                continue
            if isinstance(name_node, ast.Constant) and isinstance(
                name_node.value, str
            ):
                continue
            if (
                isinstance(name_node, ast.Attribute)
                and name_node.attr == "name"
            ):
                # The Class.name convention: still a static constant.
                continue
            yield self.finding(
                context,
                name_node,
                f"{registry}() name is not a string literal or a "
                "Class.name constant; computed names are not "
                "statically resolvable",
            )


@register_rule
class DuplicateRegistration(Rule):
    """R002: a name must be registered at most once per registry."""

    info = RuleInfo(
        code="R002",
        name="duplicate-registration",
        summary="the same name registered twice in one module",
        rationale=(
            "Registries are last-writer-wins dicts; a duplicate "
            "registration silently shadows the earlier factory and "
            "changes what every stored spec under that name replays "
            "to.  Each (registry, name) pair must appear once."
        ),
        example_bad=(
            'register_graph("ring", make_ring)\n'
            'register_graph("ring", make_other_ring)'
        ),
        example_good='register_graph("ring_v2", make_other_ring)',
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        sites = context.registration_sites
        seen: Set[Tuple[str, str]] = set()
        for registry, _call, name_node, _factory, _decorated in sites.sites:
            if not (
                isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)
            ):
                continue
            key = (registry, name_node.value)
            if key in seen:
                yield self.finding(
                    context,
                    name_node,
                    f"{registry}() name {name_node.value!r} is already "
                    "registered in this module; the later factory "
                    "silently shadows the earlier one",
                )
            seen.add(key)


@register_rule
class FactoryArityMismatch(Rule):
    """R003: factories must match the registry calling convention."""

    info = RuleInfo(
        code="R003",
        name="factory-arity-mismatch",
        summary="registered factory signature cannot be called by the spec layer",
        rationale=(
            "build_engine() calls graph factories as factory(params, "
            "ctx) and every other kind as factory(params).  A factory "
            "with the wrong arity registers fine and then raises "
            "TypeError only when the first spec referencing it runs -- "
            "checkable statically for lambdas and same-module defs."
        ),
        example_bad='register_graph("ring", lambda params: Ring(params))',
        example_good=(
            'register_graph("ring", lambda params, ctx: '
            "Ring(ctx.n, seed=ctx.seed))"
        ),
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        sites = context.registration_sites
        for registry, _call, _name, factory, decorated in sites.sites:
            if registry in sites.exempt:
                continue
            expected = REGISTRY_ARITY[registry]
            target: Optional[ast.AST] = None
            if decorated is not None:
                target = decorated
            elif isinstance(factory, ast.Lambda):
                target = factory
            elif isinstance(factory, ast.Name):
                target = sites.local_functions.get(factory.id)
            if target is None:
                continue
            accepted = _positional_param_range(target)
            if accepted is not None and not (
                accepted[0] <= expected <= accepted[1]
            ):
                label = (
                    "(params, ctx)" if expected == 2 else "(params)"
                )
                yield self.finding(
                    context,
                    factory if factory is not None else decorated,
                    f"{registry}() factory takes "
                    f"{accepted[0]}-{accepted[1]} positional "
                    f"parameter(s) but the spec layer calls it as "
                    f"factory{label}",
                )
