"""Documentation-integrity tests.

A reproduction's documentation makes checkable claims: campaign sections
it names must exist, modules it maps to must import, and the repository
structure it describes must be real.  These tests keep the docs honest as
the code evolves.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    path = ROOT / name
    assert path.exists(), f"{name} is missing"
    return path.read_text()


class TestRequiredDocuments:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/paper_mapping.md", "docs/model.md", "docs/api.md",
         "docs/tutorial.md"],
    )
    def test_exists_and_nonempty(self, name):
        assert len(read(name)) > 500


#: How DESIGN.md and EXPERIMENTS.md name a campaign section: its title
#: up to the first " -- ", in a code span (`campaign: Table I row 3`).
SECTION_REFERENCE = re.compile(r"`campaign: ([^`]+)`")


class TestCampaignSectionsDocumented:
    @pytest.fixture(scope="class")
    def section_keys(self):
        from repro.analysis.campaign import run_campaign

        report = run_campaign("quick")
        return {section.title.split(" -- ")[0] for section in report.sections}

    @pytest.mark.parametrize("doc", ["DESIGN.md", "EXPERIMENTS.md"])
    def test_named_sections_exist(self, doc, section_keys):
        referenced = set(SECTION_REFERENCE.findall(read(doc)))
        assert referenced, f"{doc} names no campaign section?"
        assert referenced <= section_keys, (doc, referenced - section_keys)

    def test_every_section_is_documented(self, section_keys):
        referenced = set(SECTION_REFERENCE.findall(read("EXPERIMENTS.md")))
        assert section_keys <= referenced, (
            f"sections missing from EXPERIMENTS.md: "
            f"{sorted(section_keys - referenced)}"
        )


def _resolve(dotted: str) -> None:
    """Import ``dotted`` as a module, or as module.attribute."""
    try:
        importlib.import_module(dotted)
        return
    except ModuleNotFoundError:
        module_name, _, attribute = dotted.rpartition(".")
        module = importlib.import_module(module_name)
        assert hasattr(module, attribute), dotted


class TestModuleReferencesResolve:
    def test_paper_mapping_modules_import(self):
        text = read("docs/paper_mapping.md")
        for dotted in set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", text)):
            _resolve(dotted)

    def test_design_modules_import(self):
        text = read("DESIGN.md")
        for dotted in set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", text)):
            _resolve(dotted)


class TestExamplesDocumented:
    def test_readme_lists_every_example(self):
        readme = read("README.md")
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in readme, (
                f"examples/{path.name} missing from the README table"
            )


class TestQuickstartClaimIsTrue:
    def test_readme_quickstart_numbers(self):
        """The quickstart code block's assertions must actually hold
        (they are re-run exactly in tests/test_golden.py; here we check
        the README still shows that instance)."""
        readme = read("README.md")
        assert "RandomChurnDynamicGraph(n=40, extra_edges=20, seed=7)" in readme
        assert "result.rounds <= 29" in readme
        assert "result.max_persistent_bits == 5" in readme


class TestTutorialExecutes:
    def test_every_tutorial_block_runs(self):
        """The tutorial's python blocks are executed top to bottom in one
        shared namespace; a broken example is a broken doc."""
        text = read("docs/tutorial.md")
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) >= 6
        namespace = {}
        for block in blocks:
            exec(block, namespace)  # noqa: S102 - executing our own docs
