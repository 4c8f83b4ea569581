"""Meta-tests on the public API surface: documentation and consistency.

A library a downstream user adopts needs every public item documented and
a stable, importable public surface; these tests enforce both so the
guarantees do not rot.
"""

import importlib
import inspect
import pkgutil

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
    "repro.analysis.paper_table",
    "repro.analysis.comparison",
    "repro.analysis.dot",
    "repro.analysis.render",
    "repro.lint",
    "repro.lint.cachesafety",
    "repro.lint.cli",
    "repro.lint.deep",
    "repro.lint.deep.analysis",
    "repro.lint.deep.baseline",
    "repro.lint.deep.cache",
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
