"""The data model of ``repro lint``: findings and rule metadata.

A :class:`Finding` is one rule violation at one source location; a
:class:`RuleInfo` is the static description of a rule (code, scope,
rationale, examples) that the reporters, the documentation generator and
``repro lint --list-rules`` all render from.  Keeping both as frozen
dataclasses means a lint run is pure data end to end -- the same property
the simulator's :class:`~repro.sim.spec.RunSpec` layer is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is ``(path, line, column, code)`` so reports are stable
    regardless of the order rules ran in.
    """

    path: str
    line: int
    column: int
    code: str
    message: str

    def render(self) -> str:
        """The classic ``path:line:col: CODE message`` one-liner."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (one entry of the ``--json`` report)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "message": self.message,
        }


@dataclass(frozen=True)
class RuleInfo:
    """Static metadata of one lint rule.

    ``scopes`` is the tuple of path patterns the rule applies to (a
    pattern ending in ``/`` matches a directory segment, anything else
    matches a path suffix); an empty tuple means the rule applies to
    every analyzed file.  ``exempt`` patterns (same shapes) carve
    specific files back out of the scope -- e.g. the chaos package's
    injector shims, whose whole job is the nondeterminism the D rules
    forbid.  ``example_bad`` / ``example_good`` are small snippets used
    by the docs and the rule catalogue.
    """

    code: str
    name: str
    summary: str
    rationale: str
    scopes: Tuple[str, ...] = field(default=())
    exempt: Tuple[str, ...] = field(default=())
    example_bad: str = ""
    example_good: str = ""

    @property
    def category(self) -> str:
        """The rule family letter.

        Shallow families: ``D`` (determinism), ``C`` (cache safety),
        ``R`` (reducibility), ``H`` (hook discipline).  Whole-program
        families live outside the shallow catalogue and run under
        ``--all``: ``T``/``F``/``E``/``M``/``S``/``A``, plus the ``P``
        (parse) and ``B`` (baseline drift) codes.
        """
        return self.code[:1]
