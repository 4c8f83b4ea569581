"""C-rules: cache safety of the content-addressed digest pipeline.

:class:`~repro.sim.store.RunStore` keys results by the sha256 of a
spec's *canonical* JSON.  Two failure modes would silently corrupt that
contract: serializing digest material with a non-canonical encoder (so
equal specs hash differently, or different specs collide under
re-encoding), and formatting floats through locale- or
precision-sensitive paths (so ``1.0`` and ``1`` -- one value -- produce
two byte strings).  A third, subtler one is the builtin :func:`hash`,
which is salted per process for strings and therefore must never feed
anything persisted or compared across processes.  These rules scope to
the digest pipeline (:data:`~repro.lint.rules.CACHE_SCOPE`).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.determinism import SourceRule
from repro.lint.findings import Finding, RuleInfo
from repro.lint.rules import (
    CACHE_SCOPE,
    ModuleContext,
    Rule,
    dotted_name,
    register_rule,
)

#: Format specs that render floats: a fixed/exponent/general conversion,
#: optionally preceded by width/precision (``.3f``, ``>10.2e``, ``g``).
_FLOAT_FORMAT_SPEC = re.compile(r"[#0-9,._ <>^+-]*[efgEFG%n]$")

#: printf-style float conversions inside a ``%`` format string.
_FLOAT_PERCENT = re.compile(r"%[#0-9. +-]*[efgEFG]")

#: ``str.format`` templates with a float conversion in any replacement
#: field (``{x:.3f}``, ``{0:g}``).
_FLOAT_BRACE = re.compile(r"\{[^{}]*:[^{}]*[efgEFG%n]\}")


@register_rule
class NonCanonicalJson(Rule):
    """C001: every JSON encode in the digest path must sort its keys."""

    info = RuleInfo(
        code="C001",
        name="non-canonical-json",
        summary="json.dump(s) without sort_keys=True in the digest path",
        rationale=(
            "dict iteration order is insertion order, so an unsorted "
            "encode makes the serialized bytes depend on construction "
            "history rather than content -- two equal specs could hash "
            "differently.  Every json.dump/json.dumps in the digest "
            "path must pass sort_keys=True (canonical_spec_json is the "
            "reference encoder)."
        ),
        scopes=CACHE_SCOPE,
        example_bad="json.dumps(spec.to_dict())",
        example_good="json.dumps(spec.to_dict(), sort_keys=True)",
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted not in ("json.dump", "json.dumps"):
                continue
            sorted_keys = False
            for keyword in node.keywords:
                if keyword.arg == "sort_keys":
                    value = keyword.value
                    sorted_keys = (
                        isinstance(value, ast.Constant)
                        and value.value is True
                    )
            if not sorted_keys:
                yield self.finding(
                    context,
                    node,
                    f"`{dotted}(...)` without sort_keys=True in the "
                    "digest path; insertion-order bytes are not "
                    "canonical",
                )


@register_rule
class FloatFormattingDrift(Rule):
    """C002: no precision-dependent float formatting in the digest path."""

    info = RuleInfo(
        code="C002",
        name="float-format-drift",
        summary="float string-formatting in the digest path",
        rationale=(
            "Formatting a float through %.3f / {:g} / f'{x:.2e}' bakes "
            "a display precision into bytes that may be hashed or "
            "stored; the same value then round-trips to a different "
            "spec.  Digest material must carry floats as JSON numbers "
            "(repr round-trip) via the canonical encoder, never as "
            "formatted text."
        ),
        scopes=CACHE_SCOPE,
        example_bad="key = f\"{persistence:.3f}\"",
        example_good="payload[\"persistence\"] = persistence  # JSON number",
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in context.nodes:
            if isinstance(node, ast.FormattedValue):
                spec = node.format_spec
                if spec is None:
                    continue
                literal = "".join(
                    value.value
                    for value in spec.values
                    if isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                )
                if literal and _FLOAT_FORMAT_SPEC.match(literal):
                    yield self.finding(
                        context,
                        node,
                        f"float format spec `:{literal}` in the digest "
                        "path; formatted floats drift under precision "
                        "changes",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                left = node.left
                if (
                    isinstance(left, ast.Constant)
                    and isinstance(left.value, str)
                    and _FLOAT_PERCENT.search(left.value)
                ):
                    yield self.finding(
                        context,
                        node,
                        "printf-style float conversion in the digest "
                        "path; formatted floats drift under precision "
                        "changes",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "format"
                    and isinstance(func.value, ast.Constant)
                    and isinstance(func.value.value, str)
                    and _FLOAT_BRACE.search(func.value.value)
                ):
                    yield self.finding(
                        context,
                        node,
                        "str.format float conversion in the digest "
                        "path; formatted floats drift under precision "
                        "changes",
                    )


@register_rule
class ProcessSaltedHash(SourceRule):
    """C003: the builtin ``hash()`` must not feed the digest path."""

    kind = "builtin_hash"
    info = RuleInfo(
        code="C003",
        name="process-salted-hash",
        summary="builtin hash() call in the digest path",
        rationale=(
            "hash() of str/bytes is salted per interpreter process "
            "(PYTHONHASHSEED), so its value cannot be persisted, "
            "compared across workers, or mixed into a digest.  Use "
            "hashlib.sha256 over canonical bytes instead."
        ),
        scopes=CACHE_SCOPE,
        example_bad="key = hash(spec.to_json())",
        example_good="key = hashlib.sha256(canonical_bytes).hexdigest()",
    )

    def message(self, detail: str) -> str:
        return (
            "builtin hash() is salted per process; use hashlib.sha256 "
            "over canonical bytes"
        )
