"""The lint engine: file discovery, loading, suppressions, dispatch.

:func:`load_modules` is the one front end of every lint tier: it
discovers ``*.py`` files under the given paths and reads, parses and
walks each exactly once (and tokenizes it at most once) into a
:class:`LoadedModule` (source, AST, node tuple, suppression table, or
the ``P001`` finding of a file that does not parse).  :func:`lint_paths`
runs every selected shallow rule whose scope matches over those
modules, honors inline suppressions, and returns a
:class:`LintReport` whose findings are sorted by location -- the same
report object both reporters and the CLI exit code are computed from.
The whole-program pass (:func:`repro.lint.deep.build_index`) indexes the
same loaded modules, so ``repro lint --all`` loads each file once.

Suppressions are inline comments on the offending line::

    created = time.time()  # reprolint: disable=D001 -- display only

``disable=CODE1,CODE2`` silences the listed codes on that line;
``disable`` with no codes silences everything on the line.  Suppressions
are deliberately line-scoped: there is no file- or block-level off
switch, so every exemption stays next to the code it excuses.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.lint.findings import Finding
from repro.lint.rules import (
    ModuleContext,
    Rule,
    path_in_scope,
    select_rules,
)

#: The code attached to files that do not parse: a broken file cannot be
#: proven clean, so it is a finding, not a crash.
PARSE_ERROR_CODE = "P001"

_SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?"
)

#: Marker for "every code suppressed on this line".
_ALL_CODES: FrozenSet[str] = frozenset({"*"})


@dataclass
class LintReport:
    """The outcome of one lint run: findings plus scan bookkeeping."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run found nothing (the gate condition)."""
        return not self.findings

    def counts(self) -> Dict[str, int]:
        """Finding count per rule code (sorted by code on render)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts


def _suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> codes suppressed on that line.

    Parsed from the token stream, so suppression markers inside string
    literals do not count.  A source without the ``reprolint`` literal
    that every marker contains cannot suppress anything and is not
    tokenized.
    """
    table: Dict[int, FrozenSet[str]] = {}
    if "reprolint" not in source:
        return table
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION.search(token.string)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                table[token.start[0]] = _ALL_CODES
            else:
                parsed = frozenset(
                    code.strip()
                    for code in codes.split(",")
                    if code.strip()
                )
                existing = table.get(token.start[0], frozenset())
                table[token.start[0]] = existing | parsed
    except (tokenize.TokenError, IndentationError):
        # Only parsed sources get here; one the tokenizer still
        # rejects simply keeps no suppressions.
        pass
    return table


def is_suppressed(
    table: Dict[int, FrozenSet[str]], line: int, *codes: str
) -> bool:
    """Whether ``table`` silences any of ``codes`` on ``line``."""
    active = table.get(line)
    if active is None:
        return False
    return "*" in active or any(code in active for code in codes)


@dataclass(frozen=True)
class LoadedModule:
    """One file as every lint tier sees it: read, parsed and walked once.

    Exactly one of ``tree`` and ``parse_error`` is set: a file that does
    not parse carries its ``P001`` finding instead of an AST (and an
    empty suppression table).  ``nodes`` is ``ast.walk(tree)`` in its
    breadth-first order, the one full walk of the module every rule and
    pass reads; it is empty for a file that does not parse.
    """

    path: str
    source: str
    tree: Optional[ast.Module]
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    parse_error: Optional[Finding] = None
    nodes: Tuple[ast.AST, ...] = field(default=(), repr=False)


#: A lint target: a file or directory to discover, or a loaded module.
Target = Union[str, pathlib.Path, LoadedModule]


def _load_source(source: str, path: str) -> LoadedModule:
    """Parse, walk and tokenize one module's source text under ``path``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return LoadedModule(
            path=path,
            source=source,
            tree=None,
            parse_error=Finding(
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 1),
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {error.msg}",
            ),
        )
    return LoadedModule(
        path, source, tree, _suppressions(source), nodes=tuple(ast.walk(tree))
    )


def _check(
    module: LoadedModule, rules: Sequence[Rule], report: LintReport
) -> None:
    """Run ``rules`` over one loaded module, into ``report``."""
    report.files_scanned += 1
    if module.parse_error is not None:
        report.findings.append(module.parse_error)
        return
    context = ModuleContext(
        path=module.path,
        tree=module.tree,
        source=module.source,
        nodes=module.nodes,
    )
    for rule in rules:
        if not path_in_scope(module.path, rule.info.scopes, rule.info.exempt):
            continue
        for finding in rule.check(context):
            if is_suppressed(module.suppressions, finding.line, finding.code):
                report.suppressed += 1
            else:
                report.findings.append(finding)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint one module's source text under ``path``'s scopes."""
    report = LintReport()
    _check(
        _load_source(source, path),
        select_rules(None) if rules is None else rules,
        report,
    )
    report.findings.sort()
    return report


def iter_python_files(
    paths: Iterable[Union[str, pathlib.Path]]
) -> List[pathlib.Path]:
    """Every ``*.py`` file under ``paths``, deduplicated and sorted.

    Missing paths raise ``FileNotFoundError`` -- a gate that silently
    lints nothing would pass vacuously.
    """
    seen = set()
    files: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            raise FileNotFoundError(f"lint target does not exist: {path}")
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files


def load_modules(paths: Iterable[Target]) -> List[LoadedModule]:
    """Every module under ``paths``, each read, parsed and walked once.

    Files and directories are discovered with :func:`iter_python_files`;
    already-loaded modules pass through untouched (ahead of the
    discovered ones), which is how ``repro lint --all`` hands one load
    to both the shallow rules and the whole-program index.
    """
    targets = list(paths)
    loaded = [t for t in targets if isinstance(t, LoadedModule)]
    files = iter_python_files(
        t for t in targets if not isinstance(t, LoadedModule)
    )
    return loaded + [
        _load_source(file.read_text(encoding="utf-8"), file.as_posix())
        for file in files
    ]


def lint_paths(
    paths: Iterable[Target],
    *,
    select: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every module under ``paths`` with the selected rules."""
    rules = select_rules(list(select) if select is not None else None)
    report = LintReport()
    for module in load_modules(paths):
        _check(module, rules, report)
    report.findings.sort()
    return report
