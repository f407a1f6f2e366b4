"""Rule registry: importing this package registers every built-in rule."""

from repro.devtools.rules.base import Rule, all_rules, get_rule, register, rule_ids

# Importing the rule modules registers them (order fixes registry ids).
from repro.devtools.rules import determinism as _determinism  # noqa: E402,F401
from repro.devtools.rules import locking as _locking  # noqa: E402,F401
from repro.devtools.rules import numerics as _numerics  # noqa: E402,F401
from repro.devtools.rules import observability as _observability  # noqa: E402,F401
from repro.devtools.rules import parse as _parse  # noqa: E402,F401

__all__ = ["Rule", "all_rules", "get_rule", "register", "rule_ids"]
