"""Repo-specific static analysis (``repro check``).

The reproduction's headline numbers — 89-98 % model accuracy, bitwise
identical batched serving, worker-count-invariant parallel collection —
rest on invariants that runtime golden tests can only catch *after* a
regression lands.  This package enforces the per-module ones before the
code runs, with a stdlib-``ast`` rule engine:

* **DET001** — no ambient entropy (module-level ``np.random``, stdlib
  ``random``, wall clocks, ``os.urandom``) inside seeded packages.
* **DET002** — functions holding an ``rng``/``seed`` parameter must
  thread it; never construct fresh unseeded generators.
* **THR001** — lock-owning classes mutate their shared attributes only
  under the lock.
* **NUM001** — no ``==``/``!=`` between float-typed expressions.
* **OBS001** — no ``print()``/ad-hoc wall timing in library code; route
  through :mod:`repro.obs`.
* **PARSE001** — unparseable files are reported as findings, not
  crashes.

Every rule reads one module at a time; there is no project-wide call
graph.  ``repro check --stats`` renders per-rule wall time.  Invariants
that cross modules are pinned at run time instead (DESIGN.md §17):
seed lineage by ``tests/test_determinism.py`` and the bitwise goldens,
physical units by the goldens, cross-thread locking by the threaded
stress test in ``tests/serving/test_microbatch.py``; float64 drift,
shape errors and cache purity by the golden and serving suites.

Findings can be silenced inline (``# repro: noqa[RULE]``) or
grandfathered in a committed baseline file with a justification —
per-entry, or shared per rule id via ``rule_justifications``; the
tier-1 gate (``tests/devtools/test_gate.py``) fails on anything else.
See DESIGN.md §11-§12 for the workflow and §17 for the per-rule
table.
"""

from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.engine import (
    CheckReport,
    check_source,
    default_baseline_path,
    default_root,
    render_github,
    render_stats,
    render_text,
    run_check,
)
from repro.devtools.findings import Finding
from repro.devtools.rules import all_rules, get_rule, rule_ids

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CheckReport",
    "Finding",
    "all_rules",
    "check_source",
    "default_baseline_path",
    "default_root",
    "get_rule",
    "render_github",
    "render_stats",
    "render_text",
    "rule_ids",
    "run_check",
]
