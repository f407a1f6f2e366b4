"""Committed baseline of grandfathered findings.

A baseline entry matches findings on ``(rule, path, message)`` — never
the line number, so unrelated edits that shift code do not invalidate
it.  Matching is multiset-style: two identical entries grandfather two
identical findings, a third one is live.  Entries that no longer match
anything are reported as *stale* so the file shrinks over time instead
of accreting.

Every entry carries a ``justification``; the gate test refuses entries
without one, which is what makes the baseline a reviewed decision record
rather than a mute button.  A top-level ``rule_justifications`` map can
supply a shared justification for every entry of one rule (e.g. a
blanket rationale for grandfathering THR001 in a legacy package) so the
per-entry field only has to be written when an entry needs its own
story.
"""

from __future__ import annotations

import json
from collections import Counter as _Counter
from dataclasses import dataclass
from pathlib import Path

from repro.devtools.findings import Finding

__all__ = ["Baseline", "BaselineEntry"]

_SCHEMA = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding with its review justification."""

    rule: str
    path: str
    message: str
    #: Line at the time the entry was written; informational only.
    line: int = 0
    justification: str = ""

    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "justification": self.justification,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BaselineEntry":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            message=str(payload["message"]),
            line=int(payload.get("line", 0)),
            justification=str(payload.get("justification", "")),
        )

    @classmethod
    def from_finding(cls, finding: Finding, justification: str = "") -> "BaselineEntry":
        return cls(
            rule=finding.rule_id,
            path=finding.path,
            message=finding.message,
            line=finding.line,
            justification=justification,
        )


class Baseline:
    """Ordered collection of :class:`BaselineEntry` with multiset matching."""

    def __init__(
        self,
        entries: list[BaselineEntry] | tuple[BaselineEntry, ...] = (),
        rule_justifications: dict[str, str] | None = None,
    ) -> None:
        self.entries = list(entries)
        #: Rule-id -> shared justification, used when an entry's own
        #: ``justification`` field is blank.
        self.rule_justifications = dict(rule_justifications or {})

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Baseline)
            and self.entries == other.entries
            and self.rule_justifications == other.rule_justifications
        )

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path | str) -> "Baseline":
        """Baseline from disk; a missing file is an empty baseline."""
        path = Path(path)
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("schema") != _SCHEMA:
            raise ValueError(f"unsupported baseline schema: {payload.get('schema')!r}")
        rule_justifications = {
            str(rule): str(text)
            for rule, text in payload.get("rule_justifications", {}).items()
        }
        return cls(
            [BaselineEntry.from_dict(entry) for entry in payload.get("entries", [])],
            rule_justifications=rule_justifications,
        )

    def save(self, path: Path | str) -> None:
        """Write the baseline (stable ordering, trailing newline)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.entries, key=lambda e: (e.path, e.rule, e.line, e.message))
        payload: dict = {"schema": _SCHEMA, "entries": [entry.to_dict() for entry in ordered]}
        if self.rule_justifications:
            payload["rule_justifications"] = dict(sorted(self.rule_justifications.items()))
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    # ------------------------------------------------------------------
    def partition(
        self, findings: list[Finding]
    ) -> tuple[list[Finding], list[Finding], list[BaselineEntry]]:
        """Split findings into (live, baselined); also return stale entries.

        Each entry grandfathers at most one finding with the same
        ``(rule, path, message)``; leftovers on either side stay live /
        go stale respectively.
        """
        budget = _Counter(entry.key() for entry in self.entries)
        live: list[Finding] = []
        baselined: list[Finding] = []
        for finding in findings:
            key = finding.key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                baselined.append(finding)
            else:
                live.append(finding)
        stale: list[BaselineEntry] = []
        remaining = dict(budget)
        for entry in self.entries:
            key = entry.key()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                stale.append(entry)
        return live, baselined, stale

    @classmethod
    def from_findings(
        cls, findings: list[Finding], *, justification: str = "grandfathered"
    ) -> "Baseline":
        """Baseline covering exactly ``findings`` (for ``--update-baseline``)."""
        return cls([BaselineEntry.from_finding(f, justification) for f in findings])

    def justification_for(self, finding: Finding) -> str | None:
        """Justification text of the first entry matching ``finding``.

        Falls back to the rule-level justification when the matching
        entry does not carry its own.
        """
        for entry in self.entries:
            if entry.key() == finding.key():
                return self.effective_justification(entry)
        return None

    def effective_justification(self, entry: BaselineEntry) -> str:
        """Entry's own justification, or its rule's shared one."""
        if entry.justification.strip():
            return entry.justification
        return self.rule_justifications.get(entry.rule, "")
