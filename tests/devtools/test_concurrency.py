"""Interprocedural concurrency analysis + THR002/THR003/RES001.

Every fixture is a synthetic module checked through ``check_source`` (so
noqa applies and package scoping is honoured) or indexed directly for
the analysis-layer unit tests.  The seeded positives required by the
acceptance criteria live here: a cross-thread race, a lock-order
inversion (lexical and interprocedural), and a leaked ``shared_memory``
block.
"""

from __future__ import annotations

import pytest

from repro.devtools import check_source
from repro.devtools.concurrency import get_analysis
from repro.devtools.context import context_from_source
from repro.devtools.graph import ProjectIndex


def _ids(findings):
    return [f.rule_id for f in findings]


def _analysis(modules: dict[str, str]):
    contexts = [context_from_source(src, module=mod) for mod, src in modules.items()]
    index = ProjectIndex.from_contexts(contexts)
    return get_analysis(index)


# ----------------------------------------------------------------------
# Context inference (analysis layer)
# ----------------------------------------------------------------------
class TestContextInference:
    def test_thread_entry_discovered_and_propagated(self):
        analysis = _analysis(
            {
                "repro.fixmod": (
                    "import threading\n"
                    "\n"
                    "def work():\n"
                    "    step()\n"
                    "\n"
                    "def step():\n"
                    "    pass\n"
                    "\n"
                    "def start():\n"
                    "    t = threading.Thread(target=work)\n"
                    "    t.start()\n"
                )
            }
        )
        assert [(e.kind, e.target) for e in analysis.entries] == [
            ("thread", "repro.fixmod.work")
        ]
        # The context propagates over the call edge to the callee.
        assert "thread" in analysis.contexts["repro.fixmod.work"]
        assert "thread" in analysis.contexts["repro.fixmod.step"]
        # Neither runs under any lock -> both are racy.
        assert "repro.fixmod.work" in analysis.thread_racy
        assert "repro.fixmod.step" in analysis.thread_racy
        # The spawner itself stays a main-context function.
        assert analysis.contexts["repro.fixmod.start"] == frozenset({"main"})

    def test_executor_submit_registers_thread_entry(self):
        analysis = _analysis(
            {
                "repro.fixmod": (
                    "from concurrent.futures import ThreadPoolExecutor\n"
                    "\n"
                    "def job():\n"
                    "    pass\n"
                    "\n"
                    "def run(pool: ThreadPoolExecutor):\n"
                    "    pool.submit(job)\n"
                )
            }
        )
        assert [(e.kind, e.target) for e in analysis.entries] == [
            ("thread", "repro.fixmod.job")
        ]

    def test_lock_held_call_path_serializes_callee(self):
        analysis = _analysis(
            {
                "repro.fixmod": (
                    "import threading\n"
                    "\n"
                    "class Service:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.count = 0\n"
                    "        self._t = threading.Thread(target=self._run)\n"
                    "        self._t.start()\n"
                    "\n"
                    "    def _run(self):\n"
                    "        with self._lock:\n"
                    "            self._flush()\n"
                    "\n"
                    "    def _flush(self):\n"
                    "        self.count += 1\n"
                )
            }
        )
        flush = "repro.fixmod.Service._flush"
        # Every thread path into _flush holds the service lock, so it is
        # serialized, not racy — the repo's engines-behind-a-flush-lock
        # contract.
        assert analysis.thread_serialized[flush] == frozenset(
            {"repro.fixmod.Service._lock"}
        )
        assert flush not in analysis.thread_racy
        assert "repro.fixmod.Service._run" in analysis.thread_racy

    def test_construction_only_helpers_are_recognized(self):
        analysis = _analysis(
            {
                "repro.fixmod": (
                    "class Model:\n"
                    "    def __init__(self):\n"
                    "        self.w = []\n"
                    "        self._pack()\n"
                    "\n"
                    "    def _pack(self):\n"
                    "        self._pack_layer()\n"
                    "\n"
                    "    def _pack_layer(self):\n"
                    "        self.w.append(1)\n"
                    "\n"
                    "    def predict(self):\n"
                    "        return self.w\n"
                )
            }
        )
        assert "repro.fixmod.Model._pack" in analysis.construction_only
        assert "repro.fixmod.Model._pack_layer" in analysis.construction_only
        assert "repro.fixmod.Model.predict" not in analysis.construction_only


# ----------------------------------------------------------------------
# THR002 — cross-context mutation without a lock
# ----------------------------------------------------------------------
_RACY_COUNTER = """
import threading

class Counter:
    def __init__(self):
        self.total = 0
        self._thread = threading.Thread(target=self._work)
        self._thread.start()

    def _work(self):
        self.total += 1

    def read(self):
        return self.total
"""


class TestTHR002:
    def test_seeded_race_is_detected(self):
        findings = check_source(_RACY_COUNTER, module="repro.fixmod", rules=["THR002"])
        assert _ids(findings) == ["THR002"]
        assert "self.total" in findings[0].message
        assert "no lock held" in findings[0].message
        # Anchored at the mutation inside the thread-entered method.
        assert findings[0].line == _RACY_COUNTER.splitlines().index("        self.total += 1") + 1

    def test_lock_held_mutation_is_clean(self):
        clean = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self._thread = threading.Thread(target=self._work)
        self._thread.start()

    def _work(self):
        with self._lock:
            self.total += 1

    def read(self):
        with self._lock:
            return self.total
"""
        assert check_source(clean, module="repro.fixmod", rules=["THR002"]) == []

    def test_interprocedural_lock_serialization_is_clean(self):
        # The mutation itself holds no lock lexically, but every thread
        # path into it does — serialized by contract, not racy.
        clean = """
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self._t = threading.Thread(target=self._run)
        self._t.start()

    def _run(self):
        with self._lock:
            self._flush()

    def _flush(self):
        self.count += 1

    def read(self):
        with self._lock:
            return self.count
"""
        assert check_source(clean, module="repro.fixmod", rules=["THR002"]) == []

    def test_module_global_mutated_from_thread(self):
        racy = """
import threading

counter = 0

def bump():
    global counter
    counter += 1

def start():
    t = threading.Thread(target=bump)
    t.start()
"""
        findings = check_source(racy, module="repro.fixmod", rules=["THR002"])
        assert _ids(findings) == ["THR002"]
        assert "module global 'counter'" in findings[0].message

    def test_module_global_under_module_lock_is_clean(self):
        clean = """
import threading

_lock = threading.Lock()
items = []

def push():
    with _lock:
        items.append(1)

def start():
    t = threading.Thread(target=push)
    t.start()
"""
        assert check_source(clean, module="repro.fixmod", rules=["THR002"]) == []

    def test_no_thread_entry_no_findings(self):
        plain = """
class Counter:
    def __init__(self):
        self.total = 0

    def bump(self):
        self.total += 1
"""
        assert check_source(plain, module="repro.fixmod", rules=["THR002"]) == []


# ----------------------------------------------------------------------
# THR003 — lock-order inversion
# ----------------------------------------------------------------------
class TestTHR003:
    def test_lexical_inversion_detected(self):
        inverted = """
import threading

class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def fwd(self):
        with self._a:
            with self._b:
                pass

    def back(self):
        with self._b:
            with self._a:
                pass
"""
        findings = check_source(inverted, module="repro.fixmod", rules=["THR003"])
        # One finding per direction of the cycle.
        assert _ids(findings) == ["THR003", "THR003"]
        for f in findings:
            assert "opposite order" in f.message
            assert "deadlock" in f.message

    def test_interprocedural_inversion_detected(self):
        inverted = """
import threading

class Store:
    def __init__(self):
        self._meta = threading.Lock()
        self._data = threading.Lock()

    def _flush(self):
        with self._data:
            pass

    def save(self):
        with self._meta:
            self._flush()

    def load(self):
        with self._data:
            with self._meta:
                pass
"""
        findings = check_source(inverted, module="repro.fixmod", rules=["THR003"])
        assert _ids(findings) == ["THR003", "THR003"]
        # One witness comes from the held-across-call edge.
        assert any("via call to repro.fixmod.Store._flush" in f.message for f in findings)

    def test_consistent_order_is_clean(self):
        consistent = """
import threading

class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def one(self):
        with self._a:
            with self._b:
                pass

    def two(self):
        with self._a:
            with self._b:
                pass
"""
        assert check_source(consistent, module="repro.fixmod", rules=["THR003"]) == []

    def test_inversion_reported_once_per_pair(self):
        # Three forward witnesses + one backward must still report one
        # inversion (two findings: one per direction), not three.
        repeated = """
import threading

class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def f1(self):
        with self._a:
            with self._b:
                pass

    def f2(self):
        with self._a:
            with self._b:
                pass

    def back(self):
        with self._b:
            with self._a:
                pass
"""
        findings = check_source(repeated, module="repro.fixmod", rules=["THR003"])
        assert len(findings) == 2


# ----------------------------------------------------------------------
# RES001 — resource lifetime / escape analysis
# ----------------------------------------------------------------------
class TestRES001:
    def test_leaked_shared_memory_detected(self):
        leaky = """
from multiprocessing import shared_memory

def attach(name):
    shm = shared_memory.SharedMemory(name=name)
    return bytes(shm.buf[:4])
"""
        findings = check_source(leaky, module="repro.fixmod", rules=["RES001"])
        assert _ids(findings) == ["RES001"]
        assert "shared-memory block 'shm'" in findings[0].message
        assert "never released" in findings[0].message

    def test_straight_line_close_with_risk_between_detected(self):
        risky = """
from multiprocessing import shared_memory

def process(buf):
    pass

def attach(name):
    shm = shared_memory.SharedMemory(name=name)
    process(shm.buf)
    shm.close()
"""
        findings = check_source(risky, module="repro.fixmod", rules=["RES001"])
        assert _ids(findings) == ["RES001"]
        assert "straight-line path" in findings[0].message

    def test_try_finally_release_is_clean(self):
        safe = """
from multiprocessing import shared_memory

def use(buf):
    pass

def attach(name):
    shm = shared_memory.SharedMemory(name=name)
    try:
        use(shm.buf)
    finally:
        shm.close()
"""
        assert check_source(safe, module="repro.fixmod", rules=["RES001"]) == []

    def test_risky_gap_before_protecting_try_detected(self):
        gappy = """
from multiprocessing import shared_memory

def validate(name):
    pass

def use(buf):
    pass

def attach(name):
    shm = shared_memory.SharedMemory(name=name)
    validate(name)
    try:
        use(shm.buf)
    finally:
        shm.close()
"""
        findings = check_source(gappy, module="repro.fixmod", rules=["RES001"])
        assert _ids(findings) == ["RES001"]
        assert "protecting 'try'" in findings[0].message

    def test_with_statement_is_clean(self):
        safe = """
def read(path):
    with open(path) as fh:
        return fh.read()
"""
        assert check_source(safe, module="repro.fixmod", rules=["RES001"]) == []

    def test_escaping_resource_is_owned_elsewhere(self):
        factory = """
from multiprocessing import shared_memory

def make(name):
    shm = shared_memory.SharedMemory(name=name, create=True)
    return shm
"""
        assert check_source(factory, module="repro.fixmod", rules=["RES001"]) == []

    def test_lock_acquire_without_finally_detected(self):
        risky = """
def do_work():
    pass

def locked(lk):
    lk.acquire()
    do_work()
    lk.release()
"""
        findings = check_source(risky, module="repro.fixmod", rules=["RES001"])
        assert _ids(findings) == ["RES001"]
        assert "acquired lock 'lk'" in findings[0].message

    def test_noqa_suppresses_with_justification(self):
        leaky = """
from multiprocessing import shared_memory

def attach(name):
    shm = shared_memory.SharedMemory(name=name)  # repro: noqa[RES001] — child-owned, parent unlinks
    return bytes(shm.buf[:4])
"""
        assert check_source(leaky, module="repro.fixmod", rules=["RES001"]) == []


# ----------------------------------------------------------------------
# The shipped tree under the concurrency rules
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean_under_concurrency_rules():
    from repro.devtools import Baseline, run_check

    report = run_check(
        rules=["THR002", "THR003", "RES001"], baseline=Baseline()
    )
    details = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"concurrency rules found live violations:\n{details}"
