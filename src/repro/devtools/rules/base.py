"""Rule base class and the process-wide rule registry.

A rule is a stateless object with an id (``^[A-Z]{3,5}\\d{3}$``), a
severity, a one-line summary, a rationale paragraph, and a ``check``
method producing findings for one :class:`ModuleContext`.  Registration
happens at import time via the :func:`register` decorator; the engine
asks :func:`all_rules` for the full ordered set.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.devtools.context import ModuleContext
from repro.devtools.findings import SEVERITIES, Finding

__all__ = ["Rule", "register", "all_rules", "get_rule", "rule_ids"]

_RULE_ID_RE = re.compile(r"^[A-Z]{3,5}\d{3}$")

_REGISTRY: dict[str, "Rule"] = {}


class Rule:
    """One invariant check; subclasses set the class attributes below."""

    rule_id: str = ""
    severity: str = "error"
    summary: str = ""
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Findings for one module (empty iterable when clean)."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node, message: str) -> Finding:
        return ctx.finding(self, node, message)


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: validate and add one rule instance to the registry."""
    rule = cls()
    if not _RULE_ID_RE.match(rule.rule_id):
        raise ValueError(f"bad rule id {rule.rule_id!r} on {cls.__name__} (want e.g. DET001)")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"bad severity {rule.severity!r} on {rule.rule_id} (want {SEVERITIES})")
    if not rule.summary:
        raise ValueError(f"rule {rule.rule_id} needs a one-line summary")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    """Sorted registered rule ids."""
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    """Registered rule by id (raises KeyError with the known set)."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}") from None
