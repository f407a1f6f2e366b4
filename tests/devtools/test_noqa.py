"""Inline ``# repro: noqa`` suppression semantics."""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools import check_source
from repro.devtools.context import _scan_noqa


def _check(source: str, rules: list[str]) -> list:
    return check_source(textwrap.dedent(source), module="repro.core.fixture", rules=rules)


def test_rule_specific_noqa_suppresses():
    findings = _check(
        """
        def f(x):
            return x == 1.5  # repro: noqa[NUM001]
        """,
        ["NUM001"],
    )
    assert findings == []


def test_blanket_noqa_suppresses_everything_on_the_line():
    findings = _check(
        """
        def f(x):
            print(x == 1.5)  # repro: noqa
        """,
        ["NUM001", "OBS001"],
    )
    assert findings == []


def test_noqa_for_other_rule_does_not_suppress():
    findings = _check(
        """
        def f(x):
            return x == 1.5  # repro: noqa[OBS001]
        """,
        ["NUM001"],
    )
    assert [f.rule_id for f in findings] == ["NUM001"]


def test_noqa_accepts_multiple_rule_ids():
    findings = _check(
        """
        def f(x):
            print(x == 1.5)  # repro: noqa[NUM001, OBS001]
        """,
        ["NUM001", "OBS001"],
    )
    assert findings == []


def test_noqa_only_applies_to_its_own_line():
    findings = _check(
        """
        def f(x):
            a = x == 1.5  # repro: noqa[NUM001]
            b = x == 2.5
            return a or b
        """,
        ["NUM001"],
    )
    assert len(findings) == 1
    assert findings[0].line == 4


def test_noqa_with_justification_text_after_it():
    findings = _check(
        """
        def f(x):
            return x == 1.5  # repro: noqa[NUM001] — exact sentinel, see DESIGN.md
        """,
        ["NUM001"],
    )
    assert findings == []


def test_noqa_inside_a_string_literal_does_not_suppress():
    marker = check_source('def f():\n    print("# repro: noqa")\n', module="repro.core.fix", rules=["OBS001"])
    plain = check_source('def f():\n    print("x")\n', module="repro.core.fix", rules=["OBS001"])
    assert [f.rule_id for f in marker] == ["OBS001"]
    assert [f.rule_id for f in plain] == ["OBS001"]


def test_untokenizable_source_raises_syntax_error_for_parse001():
    """The engine reports SyntaxError as PARSE001 rather than crashing."""
    with pytest.raises(SyntaxError):
        _scan_noqa('x = """# repro: noqa\n')
