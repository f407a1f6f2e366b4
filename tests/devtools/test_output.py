"""Report rendering: JSON schema, text format, and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.devtools import Baseline, render_text, run_check

_REPORT_KEYS = {
    "schema",
    "ok",
    "root",
    "files_checked",
    "rules",
    "findings",
    "baselined",
    "stale_baseline",
    "parse_errors",
    "suppressed",
    "duration_s",
    "timings",
}


@pytest.fixture(scope="module")
def report():
    return run_check()


def test_json_schema_keys(report):
    payload = json.loads(report.to_json())
    assert set(payload) == _REPORT_KEYS
    assert payload["schema"] == 1
    assert isinstance(payload["files_checked"], int)
    for rule in payload["rules"]:
        assert set(rule) == {"id", "severity", "summary"}
    for finding in payload["findings"] + payload["baselined"]:
        assert set(finding) == {"path", "line", "col", "rule", "severity", "message"}


def test_render_text_has_summary_line(report):
    text = render_text(report)
    last = text.splitlines()[-1]
    assert last.startswith(f"checked {report.files_checked} files")
    assert "rules" in last


def test_render_text_lists_findings():
    findings_report = run_check(baseline=Baseline())
    text = render_text(findings_report)
    for finding in findings_report.findings:
        assert finding.render() in text
        # path:line:col prefix keeps locations editor-clickable.
        assert finding.render().startswith(f"{finding.path}:{finding.line}:")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_check_exits_zero_on_shipped_tree(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "no violations" in out


def test_cli_check_json_parses(capsys):
    assert main(["check", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_cli_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "THR001", "NUM001", "OBS001"):
        assert rule_id in out


def test_cli_check_rule_subset(capsys):
    assert main(["check", "--rules", "obs001"]) == 0
    payload_ok = capsys.readouterr().out
    assert "1 rules" in payload_ok


def test_cli_check_unknown_rule_is_usage_error(capsys):
    assert main(["check", "--rules", "NOPE01"]) == 2
    assert "unknown rule ids" in capsys.readouterr().err


def test_cli_check_no_baseline_is_clean(capsys):
    # The committed baseline is empty (all grandfathered findings have
    # been fixed), so the tree must be clean even without it.
    code = main(["check", "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no violations" in out


def test_cli_check_missing_baseline_path_is_usage_error(capsys):
    assert main(["check", "--baseline", "/nonexistent/b.json"]) == 2
    assert "no such baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# GitHub annotations format
# ----------------------------------------------------------------------
def test_render_github_clean_tree_emits_notice(report):
    from repro.devtools import render_github

    out = render_github(report)
    assert out.startswith("::notice title=repro check::")
    assert "no violations" in out


def test_render_github_findings_become_error_annotations(tmp_path):
    from repro.devtools import render_github

    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("def f(x):\n    return x == 0.25\n")
    findings_report = run_check(tmp_path, baseline=Baseline())
    out = render_github(findings_report)
    lines = out.splitlines()
    assert lines  # the fixture violates NUM001
    for line in lines:
        assert line.startswith("::error file=")
        assert "title=NUM001" in line
    # col is 1-based in annotations (findings store 0-based).
    assert ",col=" in lines[0]


def test_render_github_escapes_percent_and_newlines():
    from repro.devtools.engine import render_github, CheckReport
    from repro.devtools.findings import Finding

    finding = Finding(
        path="repro/mod.py", line=3, col=0, rule_id="NUM001",
        severity="error", message="100% broken\nsecond line",
    )
    report = CheckReport(
        root="/nonexistent", files_checked=1, rules_run=["NUM001"],
        findings=[finding], baselined=[], stale_baseline=[],
        parse_errors=[], suppressed=0, duration_s=0.0,
    )
    out = render_github(report)
    assert "100%25 broken%0Asecond line" in out


def test_cli_check_github_format(capsys):
    assert main(["check", "--format", "github"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("::notice")


def test_render_github_one_annotation_per_finding_with_rule_in_title(tmp_path):
    from repro.devtools import render_github

    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "def f(x):\n    return x == 0.25\n\n\ndef g(y):\n    return y != 1.5\n"
    )
    findings_report = run_check(tmp_path, baseline=Baseline())
    out = render_github(findings_report)
    annotations = [l for l in out.splitlines() if l.startswith("::")]
    # Exactly one annotation per finding — no summary collapsing, no dupes.
    assert len(annotations) == len(findings_report.findings) == 2
    for line in annotations:
        assert "title=NUM001" in line


def test_render_github_baselined_findings_become_notices(tmp_path):
    from repro.devtools import BaselineEntry, render_github

    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("def f(x):\n    return x == 0.25\n")
    live = run_check(tmp_path, baseline=Baseline())
    assert live.findings
    baseline = Baseline(
        [BaselineEntry.from_finding(f, "legacy float compare") for f in live.findings]
    )
    muted = run_check(tmp_path, baseline=baseline)
    assert muted.ok and muted.baselined
    out = render_github(muted, baseline=baseline)
    notices = [l for l in out.splitlines() if l.startswith("::notice file=")]
    assert len(notices) == len(muted.baselined)
    assert "legacy float compare" in notices[0]
    assert "title=NUM001" in notices[0]
    # Without the baseline argument the muted findings stay invisible.
    assert "::notice file=" not in render_github(muted)


def test_rule_level_justification_covers_entries(tmp_path):
    from repro.devtools import BaselineEntry

    entry = BaselineEntry(rule="NUM001", path="repro/mod.py", message="m")
    baseline = Baseline([entry], rule_justifications={"NUM001": "audited 2026-08"})
    assert baseline.effective_justification(entry) == "audited 2026-08"
    own = BaselineEntry(rule="NUM001", path="repro/mod.py", message="m", justification="mine")
    assert baseline.effective_justification(own) == "mine"
    # Round-trips through save/load.
    path = tmp_path / "b.json"
    baseline.save(path)
    assert Baseline.load(path) == baseline
