"""Benchmark harness fixtures.

One paper-faithful experiment context is shared across every bench
(training the DNNs and measuring ground-truth sweeps once).  Every bench
registers its rendered figure/table through the ``report`` fixture; the
terminal-summary hook prints them all after the pytest-benchmark timing
tables, so ``pytest benchmarks/ --benchmark-only`` reproduces the paper's
rows/series verbatim in the captured output.  Rendered text is also
written to ``benchmarks/results/`` for later inspection.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import EvaluationSuite, ExperimentContext, ExperimentSettings

_RESULTS_DIR = Path(__file__).parent / "results"
_RENDERED: list[tuple[str, str]] = []


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """Shared bench-profile context.

    Paper protocol (3 runs per config) with a bounded per-run sample
    count so the full campaign stays in benchmark-friendly time.
    """
    return ExperimentContext(
        ExperimentSettings(seed=0, runs_per_config=2, max_samples_per_run=16, truth_runs_per_config=2)
    )


@pytest.fixture(scope="session")
def suite(ctx: ExperimentContext) -> EvaluationSuite:
    """Shared evaluation suite (Figures 7-10, Tables 3-6)."""
    return EvaluationSuite(ctx)


@pytest.fixture()
def report():
    """Register a rendered table/series block for end-of-run printing."""

    def _record(title: str, text: str) -> None:
        _RENDERED.append((title, text))
        _RESULTS_DIR.mkdir(exist_ok=True)
        slug = title.lower().replace(" ", "_").replace("/", "-")
        (_RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")

    return _record


def pytest_collection_modifyitems(config, items):
    """Mark every bench ``slow``.

    Each one is a paper figure/table reproduction that trains the DNNs
    and measures brute-force ground-truth sweeps, so tier-1 can deselect
    them with ``-m 'not slow'``.  Performance is measured by
    ``perfbench/``, not here.
    """
    for item in items:
        item.add_marker(pytest.mark.slow)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every registered figure/table after the timing results."""
    if not _RENDERED:
        return
    terminalreporter.write_sep("=", "reproduced paper figures and tables")
    for title, text in _RENDERED:
        terminalreporter.write_sep("-", title)
        terminalreporter.write_line(text)
