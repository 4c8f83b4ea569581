"""H-rules: engine observers watch, they never steer.

The engine's hook contract (:class:`repro.sim.hooks.EngineObserver`)
promises that observers cannot perturb a run: every payload a hook
receives is a copy or documented read-only, and hook return values are
ignored.  An observer that mutates a payload (or relies on returning
something) breaks bit-reproducibility in the worst possible way --
results change depending on which observers happened to be attached,
which no digest accounts for.

H002 checks the ``on_*`` methods of observer classes everywhere in the
tree, fixtures included.  Payload mutation is the whole-program E003's
job (:mod:`repro.lint.deep.contracts`): it sees every write form,
through local aliases and helpers too, so no syntactic copy of it lives
here.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding, RuleInfo
from repro.lint.rules import ModuleContext, Rule, iter_own_nodes, register_rule


def _is_observer_class(node: ast.ClassDef) -> bool:
    """Whether a class is (or subclasses) an engine observer.

    Matches a base called ``EngineObserver`` (bare or dotted) or any
    base/class whose name ends in ``Observer`` -- the repo's naming
    convention, which also lets fixtures opt in without importing the
    real base.
    """
    if node.name.endswith("Observer"):
        return True
    for base in node.bases:
        name: Optional[str] = None
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        if name is not None and name.endswith("Observer"):
            return True
    return False


def _hook_methods(node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name.startswith("on_"):
            yield item


@register_rule
class ObserverReturnsValue(Rule):
    """H002: hook return values are ignored -- returning one is a bug."""

    info = RuleInfo(
        code="H002",
        name="observer-returns-value",
        summary="observer hook returns a value the engine discards",
        rationale=(
            "The engine never reads hook return values, so a `return "
            "something` inside on_* is dead code at best and, at "
            "worst, a misreading of the contract (e.g. returning a "
            "modified record expecting the engine to adopt it).  Hooks "
            "communicate only through observer-owned state."
        ),
        example_bad=(
            "def on_round_end(self, record):\n"
            "    return replace(record, num_moves=0)"
        ),
        example_good=(
            "def on_round_end(self, record):\n"
            "    self.last = record"
        ),
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not (isinstance(node, ast.ClassDef) and _is_observer_class(node)):
                continue
            for method in _hook_methods(node):
                yield from self._check_method(context, method)

    def _check_method(
        self, context: ModuleContext, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        # Nested defs/lambdas are not descended into: their returns
        # belong to them, not to the hook.
        for node in iter_own_nodes(method):
            if (
                isinstance(node, ast.Return)
                and node.value is not None
                and not (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is None
                )
            ):
                yield self.finding(
                    context,
                    node,
                    f"hook `{method.name}` returns a value; the "
                    "engine ignores hook return values",
                )
