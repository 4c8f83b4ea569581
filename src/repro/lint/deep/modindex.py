"""Module indexing for the whole-program analysis pass.

The per-file rules in :mod:`repro.lint` see one module at a time; the
whole-program pass (``repro lint --all``) needs to know, for *every*
module in the analyzed tree at once, what it defines, what it imports,
and what it re-exports -- that is the raw material the call-graph
builder resolves names against.

:func:`build_index` parses every ``*.py`` file under the given paths
exactly once and returns a :class:`ProjectIndex`:

* each module's dotted name is derived from the filesystem (walking up
  through ``__init__.py`` packages), so scanning ``src`` and scanning
  ``src/repro`` both index ``repro.sim.spec`` under the same name, and a
  synthetic fixture package under ``/tmp`` indexes the same way the real
  tree does;
* functions and methods are indexed by qualified name
  (``pkg.mod.func``, ``pkg.mod.Class.method``); lambdas get synthetic
  names (``pkg.mod.func.<lambda@LINE>``) so a registered factory lambda
  is a first-class call-graph node;
* imports (``import a.b as m``, ``from a.b import c as d``, relative
  forms) and simple module-level aliases (``helper = _impl``) are
  recorded per module, which is what lets the resolver follow
  re-exported names through package ``__init__`` modules;
* module-level names bound to empty dict displays are recorded as
  *registry candidates* -- the idiom :mod:`repro.sim.spec` uses for its
  component factories (``_GRAPH_FACTORIES = {}``).

Files that do not parse are skipped here and reported by the analysis
driver as ``P001`` findings, mirroring the shallow engine.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.lint.engine import iter_python_files

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.deep.cache import ModuleCache


@dataclass
class FunctionInfo:
    """One function, method or registered lambda in the analyzed tree."""

    qualname: str
    module: "ModuleInfo"
    node: ast.AST
    lineno: int
    class_name: Optional[str] = None

    @property
    def display(self) -> str:
        """The qualified name shown in taint-path chains."""
        return self.qualname


@dataclass
class ClassInfo:
    """One class definition plus its raw base-class names."""

    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything the resolver may consult about one module."""

    name: str
    path: pathlib.Path
    display_path: str
    tree: ast.Module
    source: str
    #: local alias -> absolute dotted target (module or module.symbol)
    imports: Dict[str, str] = field(default_factory=dict)
    #: local name -> other local/imported dotted name (``x = y``)
    aliases: Dict[str, str] = field(default_factory=dict)
    #: local symbol path -> function (``func`` or ``Class.method``)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: local class name -> class
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level names bound to ``{}`` / ``dict()`` (registry idiom)
    registry_dicts: Set[str] = field(default_factory=set)

    @property
    def package(self) -> str:
        """The package the module's relative imports resolve against."""
        if self.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]


@dataclass
class ProjectIndex:
    """The fully indexed tree: every module, function and class."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    parse_errors: List[Tuple[str, int, str]] = field(default_factory=list)

    @property
    def files_indexed(self) -> int:
        """How many modules parsed into the index."""
        return len(self.modules)


def module_name_for(path: pathlib.Path) -> str:
    """The dotted module name of ``path``, derived from the filesystem.

    Walks up through directories containing ``__init__.py`` to find the
    topmost package root, so the name is stable regardless of which
    ancestor directory the scan was rooted at.
    """
    path = path.resolve()
    parts: List[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        parts.append(path.stem)
    return ".".join(reversed(parts))


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a ``Name``/``Attribute`` chain, else ``None``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _resolve_relative(package: str, level: int, module: Optional[str]) -> str:
    """The absolute module a ``from ... import`` statement targets."""
    if level == 0:
        return module or ""
    parts = package.split(".") if package else []
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if module:
        parts.extend(module.split("."))
    return ".".join(parts)


def _index_imports(info: ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    info.imports[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a``; attribute access walks
                    # the rest of the dotted path.
                    root = alias.name.split(".", 1)[0]
                    info.imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(info.package, node.level, node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )


def _index_module_body(info: ModuleInfo, index: ProjectIndex) -> None:
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add_function(info, index, node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            _index_class(info, index, node)
        elif (
            isinstance(node, ast.Assign) and len(node.targets) == 1
        ) or (
            isinstance(node, ast.AnnAssign) and node.value is not None
        ):
            target = (
                node.targets[0]
                if isinstance(node, ast.Assign)
                else node.target
            )
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            assert value is not None
            if isinstance(value, ast.Dict) and not value.keys:
                info.registry_dicts.add(target.id)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "dict"
                and not value.args
                and not value.keywords
            ):
                info.registry_dicts.add(target.id)
            else:
                dotted = _dotted(value)
                if dotted is not None and dotted != target.id:
                    info.aliases[target.id] = dotted


def _add_function(
    info: ModuleInfo,
    index: ProjectIndex,
    node: ast.AST,
    local_name: str,
    class_name: Optional[str],
) -> FunctionInfo:
    qualname = f"{info.name}.{local_name}"
    function = FunctionInfo(
        qualname=qualname,
        module=info,
        node=node,
        lineno=getattr(node, "lineno", 1),
        class_name=class_name,
    )
    info.functions[local_name] = function
    index.functions[qualname] = function
    return function


def _index_class(
    info: ModuleInfo, index: ProjectIndex, node: ast.ClassDef
) -> None:
    bases = tuple(
        dotted for dotted in (_dotted(base) for base in node.bases)
        if dotted is not None
    )
    cls = ClassInfo(
        qualname=f"{info.name}.{node.name}",
        module=info,
        node=node,
        bases=bases,
    )
    info.classes[node.name] = cls
    index.classes[cls.qualname] = cls
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _add_function(
                info, index, child, f"{node.name}.{child.name}", node.name
            )
            cls.methods[child.name] = method


def build_index(
    paths: Iterable[Union[str, pathlib.Path]],
    cache: Optional["ModuleCache"] = None,
) -> ProjectIndex:
    """Parse and index every Python file under ``paths`` once.

    With a :class:`~repro.lint.deep.cache.ModuleCache`, each module's
    AST is looked up by source content hash before parsing and stored
    after; an unchanged tree re-indexes without touching the parser.
    """
    index = ProjectIndex()
    for file_path in iter_python_files(paths):
        display = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        tree = cache.load(source) if cache is not None else None
        if tree is None:
            try:
                tree = ast.parse(source, filename=display)
            except SyntaxError as error:
                index.parse_errors.append(
                    (display, error.lineno or 1, error.msg or "syntax error")
                )
                continue
            if cache is not None:
                cache.store(source, tree)
        name = module_name_for(file_path)
        if name in index.modules:
            # Two files mapping to one dotted name (e.g. the same tree
            # scanned through two roots): first one wins, deduplicated.
            continue
        info = ModuleInfo(
            name=name,
            path=file_path,
            display_path=display,
            tree=tree,
            source=source,
        )
        index.modules[name] = info
        _index_imports(info)
        _index_module_body(info, index)
    return index
