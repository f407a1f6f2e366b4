"""`repro report` gate + rendering, and the one bench-file writer.

The gate must reproduce the plain ``current < (1 - tolerance) * best``
verdict on the *checked-in* BENCH files, must catch an injected >10 %
synthetic regression, and must render the committed files byte for
byte as pinned in ``report_pins/``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.report import (
    BENCH_FILES,
    collect_rows,
    default_root,
    evaluate_gate,
    load_bench_payloads,
    record_rows,
    render_report,
    write_bench,
)
from repro.obs.store import RunStore, TrackedMetric, tracked_metrics

REPO_ROOT = Path(__file__).resolve().parents[2]


def _row(current, best, *, higher=True, bench="b", metric="m"):
    return TrackedMetric(
        bench=bench, metric=metric, current=current, best=best, higher_is_better=higher
    )


class TestEvaluateGate:
    def test_within_tolerance_passes(self):
        assert evaluate_gate([_row(91.0, 100.0)]) == []

    def test_higher_is_better_regression_fails(self):
        (failure,) = evaluate_gate([_row(85.0, 100.0)])
        assert failure.regression == pytest.approx(0.15)
        assert "below the best record" in failure.message

    def test_lower_is_better_regression_fails(self):
        (failure,) = evaluate_gate([_row(1.3, 1.0, higher=False)])
        assert failure.regression == pytest.approx(0.3)
        assert "above the best record" in failure.message

    def test_lower_is_better_improvement_passes(self):
        assert evaluate_gate([_row(0.5, 1.0, higher=False)]) == []

    def test_store_history_tightens_the_bar(self, tmp_path):
        store = RunStore(tmp_path / "h.jsonl")
        from tests.obs.test_store import _record

        store.append(_record(bench="b", m=200.0))
        # Fine vs the committed best (100), regressed vs history (200).
        assert evaluate_gate([_row(95.0, 100.0)]) == []
        (failure,) = evaluate_gate([_row(95.0, 100.0)], store=store)
        assert failure.row.best == 200.0

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            evaluate_gate([], tolerance=1.5)


class TestCheckedInTrajectories:
    """The gate on the real committed files reproduces the old verdict."""

    def test_all_bench_files_load(self):
        payloads = load_bench_payloads(REPO_ROOT)
        assert set(payloads) == set(BENCH_FILES)

    def test_gate_passes_on_checked_in_files(self):
        rows = collect_rows(load_bench_payloads(REPO_ROOT))
        assert len(rows) >= 8  # 5 serving scenarios + 2 collection + 1 obs
        assert evaluate_gate(rows, tolerance=0.10) == []

    def test_default_root_finds_the_checkout(self):
        assert (default_root() / "BENCH_serving.json").exists()

    def test_matches_legacy_serving_verdict(self):
        """Row-for-row parity with the plain per-scenario serving check."""
        payload = json.loads((REPO_ROOT / "BENCH_serving.json").read_text())
        rows = [r for r in collect_rows({"BENCH_serving.json": payload}) if r.higher_is_better]
        for tolerance in (0.0, 0.10, 0.5):
            ours = {f.row.metric for f in evaluate_gate(rows, tolerance=tolerance)}
            legacy = set()
            for name, entry in payload["metrics"].items():
                if entry["current"] < (1.0 - tolerance) * entry["best"]:
                    legacy.add(name)
            assert ours == legacy


def _inject_regression(tmp_path, *, factor=0.8):
    """Copy the bench files, scaling one serving current to 80% of best."""
    for name in BENCH_FILES:
        shutil.copy(REPO_ROOT / name, tmp_path / name)
    path = tmp_path / "BENCH_serving.json"
    payload = json.loads(path.read_text())
    entry = payload["metrics"]["hot.selections_per_s"]
    entry["current"] = factor * entry["best"]
    path.write_text(json.dumps(payload, indent=2))
    return tmp_path


class TestInjectedRegression:
    def test_synthetic_20pct_drop_detected(self, tmp_path):
        root = _inject_regression(tmp_path)
        rows = collect_rows(load_bench_payloads(root))
        failures = evaluate_gate(rows, tolerance=0.10)
        assert [f.row.metric for f in failures] == ["hot.selections_per_s"]
        assert failures[0].regression == pytest.approx(0.2)

    def test_drop_inside_tolerance_passes(self, tmp_path):
        root = _inject_regression(tmp_path, factor=0.95)
        rows = collect_rows(load_bench_payloads(root))
        assert evaluate_gate(rows, tolerance=0.10) == []


class TestRendering:
    def test_markdown_report_has_table_and_summary(self):
        rows = [_row(95.0, 100.0), _row(50.0, 100.0, metric="bad")]
        failures = evaluate_gate(rows)
        text = render_report(rows, failures, fmt="markdown")
        assert "| bench | metric | current | best | status |" in text
        assert "**1 regression(s)**" in text
        assert "REGRESSED 50.0%" in text

    def test_github_format_emits_error_annotations(self):
        rows = [_row(50.0, 100.0)]
        text = render_report(rows, evaluate_gate(rows), fmt="github")
        assert text.splitlines()[0].startswith("::error ::bench gate:")

    def test_text_format_lists_failures(self):
        rows = [_row(50.0, 100.0)]
        text = render_report(rows, evaluate_gate(rows), fmt="text")
        assert "bench gate:" in text

    def test_clean_report_mentions_tolerance(self):
        text = render_report([_row(100.0, 100.0)], [], fmt="markdown", tolerance=0.2)
        assert "20%" in text
        assert "all within tolerance" in text


class TestReportCli:
    def test_report_on_checkout_exits_zero(self, capsys):
        assert main(["report", "--root", str(REPO_ROOT), "--gate"]) == 0
        out = capsys.readouterr().out
        assert "Performance trajectory report" in out

    def test_gate_exit_2_on_injected_regression(self, tmp_path, capsys):
        root = _inject_regression(tmp_path)
        assert main(["report", "--root", str(root), "--gate"]) == 2
        captured = capsys.readouterr()
        assert "bench gate:" in captured.err
        assert "REGRESSED" in captured.out

    def test_regression_without_gate_reports_but_exits_zero(self, tmp_path, capsys):
        root = _inject_regression(tmp_path)
        assert main(["report", "--root", str(root)]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_record_appends_to_store(self, tmp_path, capsys):
        store_path = tmp_path / "history.jsonl"
        code = main(
            [
                "report",
                "--root",
                str(REPO_ROOT),
                "--store",
                str(store_path),
                "--record",
            ]
        )
        assert code == 0
        store = RunStore(store_path)
        assert len(store) == len(BENCH_FILES)
        assert "run-history store" in capsys.readouterr().out

    def test_record_requires_store(self, capsys):
        assert main(["report", "--root", str(REPO_ROOT), "--record"]) == 2
        assert "--record needs --store" in capsys.readouterr().err

    def test_empty_root_exits_2(self, tmp_path, capsys):
        assert main(["report", "--root", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_unusable_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "BENCH_serving.json").write_text("{not json")
        assert main(["report", "--root", str(tmp_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_bad_tolerance_exits_2(self, capsys):
        assert main(["report", "--tolerance", "2.0"]) == 2

    def test_github_format_cli(self, tmp_path, capsys):
        root = _inject_regression(tmp_path)
        assert main(["report", "--root", str(root), "--format", "github"]) == 0
        assert "::error ::" in capsys.readouterr().out


class TestPinnedCheckoutReport:
    """`repro report` on the committed bench files, byte for byte.

    Re-running a ``benchmarks/test_perf_*.py`` writer rewrites those
    files; regenerate the pins afterwards with
    ``repro report --format FMT > tests/obs/report_pins/FMT.txt``.
    """

    @pytest.mark.parametrize("fmt", ["text", "markdown", "github"])
    def test_output_matches_pin(self, fmt, capsys):
        assert main(["report", "--root", str(REPO_ROOT), "--format", fmt]) == 0
        pinned = (Path(__file__).parent / "report_pins" / f"{fmt}.txt").read_text()
        assert capsys.readouterr().out == pinned


class TestWriteBench:
    CONFIG = {"n": 1}

    def _write(self, path, current, *, config=None, better="higher", detail=None):
        return write_bench(
            path,
            bench="toy-bench",
            config=self.CONFIG if config is None else config,
            metrics={"rate": (current, better)},
            detail=detail,
        )

    def test_best_carries_forward_while_config_unchanged(self, tmp_path):
        path = tmp_path / "BENCH_toy.json"
        self._write(path, 100.0)
        payload = self._write(path, 80.0)
        assert payload["metrics"]["rate"] == {"current": 80.0, "best": 100.0, "better": "higher"}
        payload = self._write(path, 120.0)
        assert payload["metrics"]["rate"]["best"] == 120.0
        assert json.loads(path.read_text()) == payload

    def test_best_resets_when_config_changes(self, tmp_path):
        path = tmp_path / "BENCH_toy.json"
        self._write(path, 100.0)
        payload = self._write(path, 80.0, config={"n": 2})
        assert payload["metrics"]["rate"]["best"] == 80.0

    def test_lower_is_better_keeps_minimum(self, tmp_path):
        path = tmp_path / "BENCH_toy.json"
        for current in (1.05, 1.02, 1.08):
            payload = self._write(path, current, better="lower")
        assert payload["metrics"]["rate"] == {"current": 1.08, "best": 1.02, "better": "lower"}

    def test_written_file_is_what_the_gate_reads(self, tmp_path):
        path = tmp_path / "BENCH_toy.json"
        self._write(path, 100.0, detail={"note": "free-form"})
        payload = self._write(path, 85.0)
        (row,) = tracked_metrics(payload)
        assert (row.bench, row.metric, row.current, row.best) == ("toy-bench", "rate", 85.0, 100.0)
        assert payload["detail"] == {}
        (failure,) = evaluate_gate([row])
        assert failure.regression == pytest.approx(0.15)
