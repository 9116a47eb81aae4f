"""The document contract every tier sweep shares.

Each tier's ``schema.py`` pins its own key tuples in a
:class:`DocumentSchema`; the scale block, the wall-clock keys and
:func:`strip_wall_clock` are the same for all of them.  This module stays
import-light because every tier package imports its schema eagerly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Keys of the scale block (the same in every result schema).
SCALE_KEYS = ("name", "num_instances", "trace_duration_s", "drain_timeout_s")

#: Entry keys carrying host wall-clock (excluded from determinism checks).
WALL_CLOCK_ENTRY_KEYS = ("wall_s",)

#: Document keys carrying host-side execution accounting (wall-clock and
#: cache hit/miss counts) — excluded from determinism checks: a warm rerun
#: must compare equal to the cold run that populated its cache.
WALL_CLOCK_DOCUMENT_KEYS = ("wall_s_total", "cache_hits", "cache_misses")


def strip_wall_clock(document: Dict) -> Dict:
    """A deep copy of ``document`` with every wall-clock key removed.

    Two sweeps of the same grid and seed must compare equal after this.
    """
    stripped = copy.deepcopy(document)
    for key in WALL_CLOCK_DOCUMENT_KEYS:
        stripped.pop(key, None)
    for entry in stripped.get("entries", []):
        for key in WALL_CLOCK_ENTRY_KEYS:
            entry.pop(key, None)
    return stripped


@dataclass(frozen=True)
class DocumentSchema:
    """The stable key contract of one sweep's result document."""

    version: int
    document_keys: Tuple[str, ...]
    entry_keys: Tuple[str, ...]
    #: document keys whose values must be lists (the swept axes).
    list_keys: Tuple[str, ...]

    def validate(self, document: Dict) -> List[str]:
        """Return a list of schema violations (empty when the document is valid)."""
        problems: List[str] = []
        for key in self.document_keys:
            if key not in document:
                problems.append(f"missing top-level key {key!r}")
        if document.get("schema_version") != self.version:
            problems.append(
                f"schema_version is {document.get('schema_version')!r}, expected {self.version}"
            )
        for key in SCALE_KEYS:
            if key not in document.get("scale", {}):
                problems.append(f"missing scale key {key!r}")
        for key in self.list_keys:
            if key in document and not isinstance(document[key], list):
                problems.append(f"{key} must be a list")
        entries = document.get("entries", [])
        if not isinstance(entries, list):
            problems.append("entries must be a list")
            entries = []
        for index, entry in enumerate(entries):
            for key in self.entry_keys:
                if key not in entry:
                    problems.append(
                        f"entry {index} ({entry.get('scenario')!r} x {entry.get('policy')!r}) "
                        f"missing {key!r}"
                    )
        return problems
