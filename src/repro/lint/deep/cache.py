"""Content-addressed disk cache for parsed module ASTs.

The whole-program pass re-parses the whole tree on every run; in CI
and in tight edit-lint loops almost nothing changed since the last run.
This cache keys each module's pickled AST by a hash of its *source
text* (plus a format version, the analyzer generation
:data:`ANALYZER_VERSION`, and the interpreter's minor version, since
pickled AST layouts differ across the latter two), so a cache entry can
never go stale -- an edited file, or an upgraded analyzer, simply
misses.

Entries live under ``.lint-cache/<hh>/<hash>.ast.pkl`` next to the
analyzed tree.  Writes go through a temp file + :func:`os.replace` so a
crashed run never leaves a truncated pickle; loads swallow *any*
exception and fall back to parsing, so a corrupt or cross-version entry
costs only the parse it would have cost anyway.  The directory is an
artifact, not a source of truth: it is safe to delete at any time and
belongs in ``.gitignore``.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pathlib
import pickle
import sys
import tempfile
from typing import Optional

__all__ = [
    "ANALYZER_VERSION",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "ModuleCache",
]

#: Bump when the cached payload's meaning changes (e.g. we start caching
#: derived per-module facts alongside the AST).
CACHE_FORMAT_VERSION = 1

#: Bump with every behavioural change to the whole-program analyzers or
#: their contract tables.  Part of the cache key, so an analyzer upgrade
#: invalidates every entry wholesale: nothing derived under the old
#: analyzer (now or in a future payload format that caches summaries)
#: can be served against the new one.
ANALYZER_VERSION = 2

#: Directory name used by the CLI (relative to the working tree).
DEFAULT_CACHE_DIR = ".lint-cache"


class ModuleCache:
    """Pickled-AST store keyed by source content hash.

    ``hits``/``misses`` counters make cache behaviour observable in
    tests and in ``--json`` tooling without any extra I/O.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(source: str) -> str:
        """Content hash for one module's source text."""
        preamble = (
            f"reprolint-cache:{CACHE_FORMAT_VERSION}"
            f":analyzer{ANALYZER_VERSION}"
            f":py{sys.version_info.major}.{sys.version_info.minor}\n"
        )
        return hashlib.sha256(
            (preamble + source).encode("utf-8")
        ).hexdigest()

    def _entry_path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.ast.pkl"

    def load(self, source: str) -> Optional[ast.Module]:
        """The cached AST for ``source``, or None on miss/corruption."""
        path = self._entry_path(self.key_for(source))
        try:
            with open(path, "rb") as handle:
                tree = pickle.load(handle)
        except Exception:
            # Missing, truncated, corrupt or cross-version entry: a
            # cache must never turn into a correctness problem, so any
            # failure at all is just a miss.
            self.misses += 1
            return None
        if not isinstance(tree, ast.Module):
            self.misses += 1
            return None
        self.hits += 1
        return tree

    def store(self, source: str, tree: ast.Module) -> None:
        """Persist ``tree`` under ``source``'s content hash."""
        path = self._entry_path(self.key_for(source))
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                mode="wb",
                dir=path.parent,
                prefix=path.name,
                suffix=".tmp",
                delete=False,
            )
            with handle:
                pickle.dump(tree, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(handle.name, path)
        except Exception:
            # Read-only tree, full disk, races -- the cache is best
            # effort; the analysis result is unaffected.
            try:
                os.unlink(handle.name)
            except Exception:
                pass
