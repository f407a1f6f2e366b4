"""Tier-1 gate: the shipped tree must pass its own invariant checker.

This is the enforcement point — every non-slow pytest run re-checks the
whole source tree.  A new violation fails CI here; the fix is to repair
the code, add a justified ``# repro: noqa[RULE]``, or (rarely) a
justified baseline entry.
"""

from __future__ import annotations

import tokenize

from repro.devtools import default_baseline_path, default_root, rule_ids, run_check
from repro.devtools.context import _NOQA_RE
from repro.devtools.engine import iter_source_files

_REPORT = run_check()


def test_tree_has_zero_live_violations():
    details = "\n".join(f.render() for f in _REPORT.findings + _REPORT.parse_errors)
    assert _REPORT.ok, f"repro check found live violations:\n{details}"


def test_no_stale_baseline_entries():
    stale = "\n".join(f"{e.path}: {e.rule} {e.message!r}" for e in _REPORT.stale_baseline)
    assert not _REPORT.stale_baseline, f"stale baseline entries to remove:\n{stale}"


def test_every_baseline_entry_is_justified():
    from repro.devtools import Baseline

    baseline = Baseline.load(default_baseline_path())
    # An entry may carry its own justification or inherit its rule's
    # shared one from `rule_justifications` — but never neither.
    unjustified = [e for e in baseline.entries if not baseline.effective_justification(e).strip()]
    assert not unjustified, f"baseline entries without justification: {unjustified}"


def test_at_least_five_rules_ran():
    assert len(_REPORT.rules_run) >= 5
    assert set(_REPORT.rules_run) == set(rule_ids())


def test_full_tree_check_is_fast():
    # The gate runs on every pytest invocation; keep it well under 5 s.
    assert _REPORT.duration_s < 5.0, f"check took {_REPORT.duration_s:.2f}s"


def test_checked_the_real_tree():
    assert _REPORT.files_checked > 50
    assert (default_root() / "repro" / "__init__.py").exists()


def test_report_carries_per_rule_timings():
    # --stats feeds off these; every rule that ran gets a wall-time row.
    assert "parse" in _REPORT.timings
    for rule_id in _REPORT.rules_run:
        assert rule_id in _REPORT.timings


def test_every_noqa_marker_names_a_registered_rule():
    # Deleting a rule must take its suppressions with it; a marker naming
    # an unknown id silences nothing and only misleads the reader.  Only
    # comments count: docstrings show example markers like `noqa[RULE]`.
    known = set(rule_ids())
    dead = []
    root = default_root()
    for path in iter_source_files(root):
        with path.open("rb") as handle:
            comments = [
                tok for tok in tokenize.tokenize(handle.readline) if tok.type == tokenize.COMMENT
            ]
        for tok in comments:
            match = _NOQA_RE.search(tok.string)
            if match is None or match.group("rules") is None:
                continue
            for rule_id in match.group("rules").split(","):
                if rule_id.strip() and rule_id.strip().upper() not in known:
                    dead.append(f"{path.relative_to(root)}:{tok.start[0]}: {rule_id.strip()}")
    assert not dead, "noqa markers naming unregistered rules:\n" + "\n".join(dead)


# ----------------------------------------------------------------------
# CLI error paths: every usage error exits 2 (distinct from 1 = findings)
# ----------------------------------------------------------------------
def test_cli_unknown_rule_id_in_select_exits_2(capsys):
    from repro.cli import main

    assert main(["check", "--select", "THR999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule ids: THR999" in err
    # The error names the known ids so the fix is a copy-paste away.
    assert "THR001" in err


def test_cli_missing_baseline_file_exits_2(tmp_path, capsys):
    from repro.cli import main

    missing = tmp_path / "does_not_exist.json"
    assert main(["check", "--baseline", str(missing)]) == 2
    assert "no such baseline" in capsys.readouterr().err


def test_cli_non_package_target_dir_exits_2(tmp_path, capsys):
    from repro.cli import main

    # tmp_path has no 'repro' package under it.
    assert main(["check", "--root", str(tmp_path)]) == 2
    assert "repro" in capsys.readouterr().err


def test_cli_select_is_an_alias_for_rules(capsys):
    from repro.cli import main

    assert main(["check", "--select", "DET001,THR001,NUM001"]) == 0
    assert "3 rules" in capsys.readouterr().out
