"""Repo-specific static analysis (``repro check``).

The reproduction's headline numbers — 89-98 % model accuracy, bitwise
identical batched serving, worker-count-invariant parallel collection —
rest on invariants that runtime golden tests can only catch *after* a
regression lands.  This package enforces them before the code runs, with
a stdlib-``ast`` rule engine:

* **DET001** — no ambient entropy (module-level ``np.random``, stdlib
  ``random``, wall clocks, ``os.urandom``) inside seeded packages.
* **DET002** — functions holding an ``rng``/``seed`` parameter must
  thread it; never construct fresh unseeded generators.
* **THR001** — lock-owning classes mutate their shared attributes only
  under the lock.
* **NUM001** — no ``==``/``!=`` between float-typed expressions.
* **OBS001** — no ``print()``/ad-hoc wall timing in library code; route
  through :mod:`repro.obs`.

On top of the per-file rules sits an **interprocedural layer**
(:mod:`repro.devtools.graph`): a project-wide call graph with
module-qualified resolution, and rules that reason along its edges:

* **UNIT001/UNIT002** — physical-units inference (W x s -> J, EDP,
  ED²P; see :mod:`repro.devtools.units` and :mod:`repro.units`).
* **DET003** — seed-lineage taint analysis: every Generator inside a
  seeded package must derive from a caller-supplied root.
* **THR002/THR003** — concurrency analysis over inferred execution
  contexts (:mod:`repro.devtools.concurrency`): shared-state mutation
  without a common held lock, and lock-order inversion.
* **RES001** — resource-lifetime escape analysis: acquired handles
  (``SharedMemory``, files, locks) must be released on every path or
  have their ownership transferred.
* **PARSE001** — unparseable files are reported as findings, not
  crashes.

``repro graph`` dumps the call graph (JSON/DOT) and the declared unit
table (``--units``); ``repro check --stats`` renders per-rule wall time.
Float64 drift, shape errors and cache purity are not checked here: the
bitwise golden and serving suites pin them at run time (DESIGN.md §17).

Findings can be silenced inline (``# repro: noqa[RULE]``) or
grandfathered in a committed baseline file with a justification —
per-entry, or shared per rule id via ``rule_justifications``; the
tier-1 gate (``tests/devtools/test_gate.py``) fails on anything else.
See DESIGN.md §11-§12 and §16-§17 for the workflow and the per-rule
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
from repro.devtools.graph import CallGraph, ProjectIndex, index_from_root
from repro.devtools.rules import all_rules, get_rule, rule_ids

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "CheckReport",
    "Finding",
    "ProjectIndex",
    "all_rules",
    "check_source",
    "default_baseline_path",
    "default_root",
    "get_rule",
    "index_from_root",
    "render_github",
    "render_stats",
    "render_text",
    "rule_ids",
    "run_check",
]
