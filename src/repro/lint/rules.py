"""Rule base class, scope matching and the rule registry.

A rule is a :class:`Rule` subclass with a :class:`~repro.lint.findings.RuleInfo`
and a :meth:`Rule.check` that reads a parsed module and yields
:class:`~repro.lint.findings.Finding` s.  Rules declare *where they
apply* through path-scope patterns, so the same analyzer can lint the
library tree (where ``sim/spec.py`` is determinism-critical) and a test
fixture tree (where a file placed under ``<tmp>/sim/spec.py`` picks up
the same obligations).

Scope patterns come in two shapes:

* ``"robots/"`` -- a directory segment: matches any file under a
  directory of that name, at any depth;
* ``"sim/engine.py"`` -- a path suffix: matches that file wherever the
  tree is rooted.

The registry (:func:`register_rule` / :func:`all_rules`) is how the
engine discovers rules; rule modules register at import time, mirroring
the simulator's component registries in :mod:`repro.sim.spec`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.lint.findings import Finding, RuleInfo

#: Path scope of determinism-critical code: everything whose behaviour
#: feeds a :class:`~repro.sim.metrics.RunResult` and therefore a
#: content-addressed digest.  The run store and trace serialization are
#: included: a wall-clock or environment read there can leak into cache
#: entries or replay artifacts.
DETERMINISM_SCOPE = (
    "sim/engine.py",
    "sim/spec.py",
    "sim/algorithm.py",
    "sim/store.py",
    "sim/traceio.py",
    "sim/runner.py",
    "sim/scheduling.py",
    "robots/",
    "graph/",
    "core/",
    "baselines/",
    "adversary/",
    "chaos/",
)

#: Files inside a determinism scope that are exempt from the D rules:
#: the chaos package's injector shims *are* the nondeterminism (a
#: SIGKILL, a sleep) by design.  Exemption is deliberately surgical --
#: one file, not the package -- so the rest of :mod:`repro.chaos`
#: (plans, records, replay fingerprints) stays under the full
#: determinism obligations its seeded-replay contract requires.
DETERMINISM_EXEMPT = (
    "chaos/injectors.py",
)

#: Path scope of the digest pipeline itself: the modules whose
#: serialization choices decide what byte string gets hashed into a
#: :class:`~repro.sim.store.RunStore` key or stored under one.
CACHE_SCOPE = (
    "sim/spec.py",
    "sim/store.py",
    "sim/traceio.py",
)


def _path_matches(path: str, patterns: Sequence[str]) -> bool:
    normalized = path.replace("\\", "/")
    segments = normalized.split("/")
    for pattern in patterns:
        if pattern.endswith("/"):
            if pattern[:-1] in segments[:-1]:
                return True
        elif normalized == pattern or normalized.endswith("/" + pattern):
            return True
    return False


def path_in_scope(
    path: str, scopes: Sequence[str], exempt: Sequence[str] = ()
) -> bool:
    """Whether ``path`` falls under any of the scope patterns.

    An empty ``scopes`` means "everywhere".  ``exempt`` patterns (same
    shapes as scopes) carve files back *out* -- a path matching one is
    never in scope, even under empty-``scopes``.  ``path`` is compared
    in POSIX form, case-sensitively.
    """
    if exempt and _path_matches(path, exempt):
        return False
    if not scopes:
        return True
    return _path_matches(path, scopes)


def dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted form of a ``Name``/``Attribute`` chain, if it is one.

    ``time.time`` -> ``"time.time"``; ``datetime.datetime.now`` ->
    ``"datetime.datetime.now"``; anything rooted in a call or subscript
    returns ``None``.  Both lint tiers share this one definition.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def iter_own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a callable's body without descending into nested callables.

    Nested ``def``/``lambda`` nodes are yielded (so the caller can index
    them as their own call-graph nodes) but their bodies are not
    traversed.  A module root walks the code run at import time.  Both
    lint tiers share this one walker.
    """
    if isinstance(root, ast.Lambda):
        stack: List[ast.AST] = [root.body]
    else:
        stack = list(getattr(root, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class ModuleContext:
    """Everything a rule may consult about the module under analysis.

    ``nodes`` is ``ast.walk(tree)`` in its breadth-first order, walked
    once when the module is loaded; rules iterate it instead of walking
    the tree again.
    """

    path: str
    tree: ast.Module
    source: str
    nodes: Tuple[ast.AST, ...] = field(repr=False)

    @cached_property
    def registration_sites(self):
        """The registry call sites R001-R003 share, collected on first use."""
        from repro.lint.registryrules import RegistrationSites

        return RegistrationSites(self)


class Rule:
    """Base class: one statically checkable invariant with a code.

    Subclasses set :attr:`info` and implement :meth:`check`.  A rule only
    runs on files matching ``info.scopes`` (empty = all files); the
    engine enforces that, so ``check`` can assume it is in scope.
    """

    info: RuleInfo

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        """Yield every violation of this rule in ``context``."""
        raise NotImplementedError

    def finding(
        self, context: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """A :class:`Finding` for ``node`` carrying this rule's code."""
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.info.code,
            message=message,
        )


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the registry, keyed by its code."""
    code = cls.info.code
    if code in _RULES:
        raise ValueError(f"duplicate lint rule code {code!r}")
    _RULES[code] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by code."""
    _load_rule_modules()
    return [_RULES[code]() for code in sorted(_RULES)]


def rule_catalogue() -> List[RuleInfo]:
    """The :class:`RuleInfo` of every registered rule, ordered by code."""
    _load_rule_modules()
    return [_RULES[code].info for code in sorted(_RULES)]


def select_rules(selectors: Optional[Iterable[str]]) -> List[Rule]:
    """Rules whose code starts with any selector (``None`` = all).

    Selectors are codes or code prefixes: ``["D"]`` picks the whole
    determinism family, ``["D001", "C"]`` picks one rule plus a family.
    Unknown selectors raise ``ValueError`` so typos fail loudly.
    """
    rules = all_rules()
    if selectors is None:
        return rules
    wanted = [s.strip() for s in selectors if s.strip()]
    known_codes = {rule.info.code for rule in rules}
    for selector in wanted:
        if not any(code.startswith(selector) for code in known_codes):
            raise ValueError(
                f"unknown rule selector {selector!r}; known codes: "
                f"{sorted(known_codes)}"
            )
    return [
        rule
        for rule in rules
        if any(rule.info.code.startswith(s) for s in wanted)
    ]


_RULE_MODULES_LOADED = False


def _load_rule_modules() -> None:
    """Import the rule modules once (they register on import)."""
    global _RULE_MODULES_LOADED
    if _RULE_MODULES_LOADED:
        return
    _RULE_MODULES_LOADED = True
    from repro.lint import cachesafety, determinism, hookrules, registryrules  # noqa: F401
