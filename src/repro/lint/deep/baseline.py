"""The whole-program baseline snapshot (`lint-baseline.json`).

Whole-program findings are about *drift*, not absolutes: the gate must
fail when a change introduces a new taint path or contract breach,
without demanding the tree be finding-free from day one.  The baseline
is the checked-in set of accepted finding fingerprints; a run fails on

* **new** findings -- fingerprints present in the tree but not in the
  baseline (reported under their own codes, ``T001``/``F00x``/
  ``E00x``/``M001``/``S00x``/``A00x``), and
* **stale** entries -- baseline fingerprints no longer produced by the
  tree (reported as ``B001`` anchored at the baseline file), so a fixed
  path cannot silently linger as an accepted exemption.

Fingerprints are location-free (rule code + call-chain qualnames +
seed identity, never line numbers), so moving code within a file does
not churn the baseline, and the leading rule code keeps every family
apart in one flat list.  The file format mirrors the JSON reporter's conventions:
``kind`` + ``format_version`` header, sorted keys, two-space indent,
trailing newline -- ``--update-baseline`` on an unchanged tree rewrites
the file byte-identically.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, List, Set, Tuple, Union

BASELINE_KIND = "reprolint_deep_baseline"
BASELINE_FORMAT_VERSION = 1

#: Default location, resolved against the working directory (the repo
#: root in CI and normal use).
DEFAULT_BASELINE_PATH = "lint-baseline.json"

STALE_CODE = "B001"


class BaselineError(ValueError):
    """The baseline file exists but does not follow the schema."""


def render_baseline(fingerprints: Iterable[str]) -> str:
    """The canonical on-disk form of a baseline (sorted, deduplicated)."""
    document = {
        "kind": BASELINE_KIND,
        "format_version": BASELINE_FORMAT_VERSION,
        "entries": sorted(set(fingerprints)),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_baseline(
    path: Union[str, pathlib.Path], fingerprints: Iterable[str]
) -> None:
    """Write the canonical baseline document to ``path``."""
    pathlib.Path(path).write_text(
        render_baseline(fingerprints), encoding="utf-8"
    )


def load_baseline(path: Union[str, pathlib.Path]) -> Set[str]:
    """The accepted fingerprints in ``path`` (raises on schema drift)."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except ValueError as error:
        raise BaselineError(
            f"baseline {path} does not parse as JSON: {error}"
        ) from error
    if not isinstance(data, dict) or data.get("kind") != BASELINE_KIND:
        raise BaselineError(
            f"baseline {path} is not a {BASELINE_KIND} document"
        )
    version = data.get("format_version")
    if version != BASELINE_FORMAT_VERSION:
        raise BaselineError(
            f"baseline {path} has format_version {version!r}; this "
            f"library reads version {BASELINE_FORMAT_VERSION}"
        )
    entries = data.get("entries")
    if not isinstance(entries, list) or not all(
        isinstance(entry, str) for entry in entries
    ):
        raise BaselineError(
            f"baseline {path} entries must be a list of strings"
        )
    return set(entries)


def diff_baseline(
    current: Set[str], accepted: Set[str]
) -> Tuple[List[str], List[str]]:
    """``(new, stale)`` fingerprints, each sorted for stable output."""
    return sorted(current - accepted), sorted(accepted - current)
