"""Fork-safety checks for the process-pool runner modules.

The runners (:mod:`repro.sim.runner`, :mod:`repro.chaos.runner`) hand
work to ``multiprocessing`` workers.  On the default ``fork`` start
method the child inherits a snapshot of the parent's memory, which makes
three patterns quietly unsafe:

* **F001** -- a function writing a mutable module-level global after
  import.  Parent-side mutations after workers fork are invisible to
  them (and vice versa), so the "shared" state silently diverges.
* **F002** -- a file handle opened at module import time.  Both sides of
  the fork inherit the same file descriptor and offset; interleaved
  writes corrupt, interleaved reads skip.
* **F003** -- a lock held *around* atomic-rename staging
  (``os.replace`` / ``os.rename`` / ``shutil.move``).  The rename is the
  atomicity mechanism; wrapping it in a lock adds nothing in-process and
  deadlocks a child forked while the parent held the lock.

These run only in the whole-program pass of ``repro lint --all`` (they
need no call graph, but they share its baseline and reporting); shallow
lint output is unchanged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint.deep.modindex import ModuleInfo, ProjectIndex, _dotted
from repro.lint.findings import Finding
from repro.lint.rules import path_in_scope

#: The fork-boundary modules the F-rules apply to.
FORK_SCOPE: Tuple[str, ...] = ("sim/runner.py", "chaos/runner.py")

#: Methods that mutate a list/dict/set in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Module-level calls that open a shared file handle at import time.
_OPEN_CALLS = frozenset({"open", "io.open", "gzip.open", "bz2.open"})

#: The atomic-staging renames F003 guards.
_RENAME_CALLS = frozenset({"os.replace", "os.rename", "shutil.move"})


def _module_level_mutables(module: ModuleInfo) -> Set[str]:
    """Module-level names bound to mutable list/dict/set displays."""
    names: Set[str] = set()
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set", "defaultdict")
        )
        if not mutable:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _iter_function_nodes(module: ModuleInfo) -> Iterator[ast.AST]:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_module_scope(module: ModuleInfo) -> Iterator[ast.AST]:
    """Walk code executed at import time (function bodies excluded)."""
    stack: List[ast.AST] = list(module.tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _check_global_writes(
    module: ModuleInfo,
) -> Iterator[Tuple[Finding, str]]:
    mutables = _module_level_mutables(module)
    for function in _iter_function_nodes(module):
        declared: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                declared.update(node.names)
        for node in ast.walk(function):
            name = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and (
                        target.id in declared
                    ):
                        name = target.id
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in mutables
                    ):
                        name = target.value.id
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutables
            ):
                name = node.func.value.id
            if name is None:
                continue
            yield (
                Finding(
                    path=module.display_path,
                    line=getattr(node, "lineno", 1),
                    column=getattr(node, "col_offset", 0) + 1,
                    code="F001",
                    message=(
                        f"module-level global `{name}` mutated after "
                        "import inside a fork-boundary module; forked "
                        "workers hold a stale copy -- pass state through "
                        "work-unit payloads instead"
                    ),
                ),
                f"F001|{module.name}|{name}",
            )


def _check_import_time_handles(
    module: ModuleInfo,
) -> Iterator[Tuple[Finding, str]]:
    for node in _walk_module_scope(module):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted not in _OPEN_CALLS:
            continue
        yield (
            Finding(
                path=module.display_path,
                line=node.lineno,
                column=node.col_offset + 1,
                code="F002",
                message=(
                    f"`{dotted}(...)` at import time in a fork-boundary "
                    "module; the file descriptor (and its offset) is "
                    "shared across the fork -- open handles inside the "
                    "function that uses them"
                ),
            ),
            f"F002|{module.name}|{dotted}",
        )


def _lockish(expr: ast.AST) -> str:
    """The dotted name of a lock-like context manager, else ``''``."""
    target = expr.func if isinstance(expr, ast.Call) else expr
    dotted = _dotted(target)
    if dotted is not None and "lock" in dotted.lower():
        return dotted
    return ""


def _check_locked_renames(
    module: ModuleInfo,
) -> Iterator[Tuple[Finding, str]]:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        lock = ""
        for item in node.items:
            lock = lock or _lockish(item.context_expr)
        if not lock:
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            dotted = _dotted(inner.func)
            if dotted not in _RENAME_CALLS:
                continue
            yield (
                Finding(
                    path=module.display_path,
                    line=inner.lineno,
                    column=inner.col_offset + 1,
                    code="F003",
                    message=(
                        f"`{dotted}(...)` inside `with {lock}`; the "
                        "atomic rename is the consistency mechanism and "
                        "needs no lock -- holding one here deadlocks a "
                        "worker forked while the parent owns it"
                    ),
                ),
                f"F003|{module.name}|{dotted}",
            )


def check_fork_safety(
    index: ProjectIndex,
    scope: Tuple[str, ...] = FORK_SCOPE,
) -> List[Tuple[Finding, str]]:
    """All F-rule findings (with baseline fingerprints) in scope."""
    results: List[Tuple[Finding, str]] = []
    for module in index.modules.values():
        if not path_in_scope(module.display_path, scope, ()):
            continue
        results.extend(_check_global_writes(module))
        results.extend(_check_import_time_handles(module))
        results.extend(_check_locked_renames(module))
    results.sort(key=lambda pair: (pair[0].path, pair[0].line, pair[0].code))
    return results
