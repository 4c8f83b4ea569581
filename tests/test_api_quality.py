"""Meta-tests on the public API surface: documentation and consistency.

A library a downstream user adopts needs every public item documented and
a stable, importable public surface; these tests enforce both so the
guarantees do not rot.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import sysconfig

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.graph",
    "repro.graph.snapshot",
    "repro.graph.generators",
    "repro.graph.dynamic",
    "repro.graph.rings",
    "repro.graph.validation",
    "repro.robots",
    "repro.robots.robot",
    "repro.robots.memory",
    "repro.robots.faults",
    "repro.robots.byzantine",
    "repro.sim",
    "repro.sim.observation",
    "repro.sim.algorithm",
    "repro.sim.backend",
    "repro.sim.backend_vectorized",
    "repro.sim.engine",
    "repro.sim.metrics",
    "repro.sim.scheduling",
    "repro.sim.invariants",
    "repro.sim.traceio",
    "repro.sim.spec",
    "repro.sim.runner",
    "repro.sim.store",
    "repro.sim.hooks",
    "repro.chaos",
    "repro.chaos.engine_faults",
    "repro.chaos.failures",
    "repro.chaos.fs",
    "repro.chaos.injectors",
    "repro.chaos.plan",
    "repro.chaos.replay",
    "repro.chaos.runner",
    "repro.core",
    "repro.core.components",
    "repro.core.spanning_tree",
    "repro.core.disjoint_paths",
    "repro.core.sliding",
    "repro.core.dispersion",
    "repro.adversary",
    "repro.adversary.star_lower_bound",
    "repro.adversary.local_impossibility",
    "repro.adversary.global_impossibility",
    "repro.baselines",
    "repro.baselines.dfs_local",
    "repro.baselines.random_walk",
    "repro.baselines.randomized_anonymous",
    "repro.baselines.ring_walk",
    "repro.baselines.local_candidates",
    "repro.baselines.global_candidates",
    "repro.analysis",
    "repro.analysis.experiments",
    "repro.analysis.bounds",
    "repro.analysis.statistics",
    "repro.analysis.figures",
    "repro.analysis.tables",
    "repro.analysis.ablation",
    "repro.analysis.campaign",
    "repro.analysis.dot",
    "repro.analysis.render",
    "repro.lint",
    "repro.lint.cachesafety",
    "repro.lint.cli",
    "repro.lint.deep",
    "repro.lint.deep.analysis",
    "repro.lint.deep.baseline",
    "repro.lint.deep.callgraph",
    "repro.lint.deep.concurrency",
    "repro.lint.deep.contracts",
    "repro.lint.deep.effects",
    "repro.lint.deep.modindex",
    "repro.lint.deep.robotmodel",
    "repro.lint.deep.taint",
    "repro.lint.determinism",
    "repro.lint.engine",
    "repro.lint.findings",
    "repro.lint.hookrules",
    "repro.lint.registryrules",
    "repro.lint.reporters",
    "repro.lint.rules",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} has no module docstring"
    )


def test_no_public_module_missing_from_list():
    """Every repro.* module on disk is in PUBLIC_MODULES (no stowaways)."""
    found = {"repro"}
    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        if "__main__" in module_info.name:
            continue
        found.add(module_info.name)
    assert found <= set(PUBLIC_MODULES) | {"repro.cli"}, (
        sorted(found - set(PUBLIC_MODULES))
    )


def _public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.getmodule(member) is not module:
            continue  # re-exported from elsewhere
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, member in _public_members(module):
        if not (member.__doc__ and member.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if method.__doc__ and method.__doc__.strip():
                    continue
                # An override inherits its contract: accept a docstring on
                # any ancestor's version of the same method.
                inherited = any(
                    getattr(base, method_name, None) is not None
                    and getattr(base, method_name).__doc__
                    for base in member.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module_name}: undocumented public items: {undocumented}"
    )


def test_package_all_is_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_present():
    assert repro.__version__


def _attribute_owner(node):
    """The name an attribute is taken off: ``engine`` in ``engine._x``
    and ``self.engine._x``, ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_engine_private_state_stays_inside_the_engine():
    """Backends and everything else read the engine through its public
    properties and the state they are handed, never ``engine._*``."""
    root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative == "sim/engine.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=relative)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and _attribute_owner(node.value) in ("engine", "_engine")
            ):
                offenders.append(f"{relative}:{node.lineno}: {node.attr}")
    assert not offenders, offenders



def _is_stdlib(name):
    """Whether top-level module ``name`` ships with the interpreter.

    Python 3.10+ lists them in ``sys.stdlib_module_names``; on 3.9 a
    module is stdlib when it is built in or found under the stdlib
    directory outside any ``site-packages``.
    """
    listed = getattr(sys, "stdlib_module_names", None)
    if listed is not None:
        return name in listed
    if name in sys.builtin_module_names:
        return True
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError):
        return False
    if spec is None or spec.origin is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    origin = pathlib.Path(spec.origin).resolve()
    stdlib = pathlib.Path(sysconfig.get_paths()["stdlib"]).resolve()
    return stdlib in origin.parents and "site-packages" not in origin.parts


def _declared_dependencies():
    """Import names of pyproject's ``[project] dependencies``."""
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    listing = re.search(
        r"^dependencies = \[(.*?)\]", pyproject.read_text(), re.M | re.S
    )
    assert listing, "pyproject.toml declares no [project] dependencies"
    requirements = re.findall(r'"([^"]+)"', listing.group(1))
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def test_every_third_party_import_is_declared():
    """Each package ``src/repro`` imports is stdlib, ``repro`` itself, or
    listed in pyproject's ``[project] dependencies``."""
    root = pathlib.Path(repro.__file__).resolve().parent
    imported = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                imported.setdefault(top, f"{path.relative_to(root)}:{node.lineno}")
    declared = _declared_dependencies()
    undeclared = {
        top: where
        for top, where in imported.items()
        if top != "repro" and top not in declared and not _is_stdlib(top)
    }
    assert not undeclared, undeclared


@pytest.mark.parametrize("module", ["repro", "repro.lint.cli"])
def test_import_leaves_numpy_unloaded(module):
    """numpy loads where arrays are first built, not at import: the lint
    CLI imports ``repro.graph.dynamic`` but never draws a churn round,
    so it must not pay numpy's import time at start-up."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    probe = (
        f"import sys, {module}; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'); "
        "assert not loaded, loaded"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
