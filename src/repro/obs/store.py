"""Append-only, manifest-backed run-history store.

The three ``BENCH_*.json`` files pin each benchmark's *latest* and
*best* numbers, but carry no history: once a new measurement overwrites
``current`` the old point is gone.  :class:`RunStore` keeps the
trajectory — one JSON line per ingested bench payload
(:func:`record_from_bench_payload`), keyed the way run manifests are
keyed (bench name + config hash + ``git describe``), so a point can
always be traced back to the commit and configuration that produced it.

The file format is deliberately JSONL, not a database: appends are one
``write`` + ``flush`` under a lock, history diffs cleanly in git, and a
truncated final line (crash tail) is tolerated on read.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.obs.manifest import config_hash, git_describe

__all__ = [
    "FileLock",
    "LockTimeout",
    "RunRecord",
    "RunStore",
    "TrackedMetric",
    "tracked_metrics",
    "record_from_bench_payload",
]

STORE_FILENAME = "run_history.jsonl"


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired in time."""


class FileLock:
    """Advisory inter-process lock backed by an ``O_EXCL`` pid file.

    Creation of the lock file is the atomic acquisition; the file body
    records the holder's pid so a waiter can distinguish "held" from
    "left behind by a process that died mid-append" and take the lock
    over instead of blocking forever.  Always acquire through the
    context manager — it is what guarantees the file is removed on every
    exit path, including exceptions raised while the lock is held.
    """

    def __init__(self, path: str | Path, *, timeout_s: float = 10.0, poll_s: float = 0.05) -> None:
        self.path = Path(path)
        self.timeout_s = float(timeout_s)
        self.poll_s = float(poll_s)
        self._held = False

    # ------------------------------------------------------------------
    def _try_create(self) -> bool:
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, str(os.getpid()).encode("ascii"))
        finally:
            os.close(fd)
        return True

    def _holder_pid(self) -> int | None:
        """Pid recorded in the lock file, or None if unreadable/gone."""
        try:
            text = self.path.read_text(encoding="ascii").strip()
            return int(text) if text else None
        except (FileNotFoundError, ValueError, OSError):
            return None

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - pid exists, other user
            return True
        except OSError:  # pragma: no cover - defensive
            return False
        return True

    def _steal_if_stale(self) -> None:
        """Remove the lock file when its recorded holder is dead.

        An empty/unreadable pid means the holder died between ``open``
        and ``write`` — also stale.  Removal races with other waiters
        are fine: whoever wins the subsequent ``O_EXCL`` create holds
        the lock.
        """
        pid = self._holder_pid()
        if pid is not None and (pid == os.getpid() or self._pid_alive(pid)):
            return
        if pid is None and not self.path.exists():
            return
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        deadline = time.monotonic() + self.timeout_s
        while True:
            if self._try_create():
                self._held = True
                return
            self._steal_if_stale()
            if time.monotonic() >= deadline:
                raise LockTimeout(
                    f"could not acquire {self.path} within {self.timeout_s:.1f}s "
                    f"(held by pid {self._holder_pid()})"
                )
            time.sleep(self.poll_s)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except FileNotFoundError:  # pragma: no cover - stolen as stale
            pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@dataclass(frozen=True)
class RunRecord:
    """One measured point in a benchmark's trajectory."""

    schema: int
    bench: str
    config_hash: str
    git: str | None
    recorded_unix: float
    source: str
    metrics: dict[str, float]
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        return cls(
            schema=int(payload.get("schema", 1)),
            bench=str(payload["bench"]),
            config_hash=str(payload.get("config_hash", "")),
            git=payload.get("git"),
            recorded_unix=float(payload.get("recorded_unix", 0.0)),
            source=str(payload.get("source", "?")),
            metrics={str(k): float(v) for k, v in (payload.get("metrics") or {}).items()},
            meta=dict(payload.get("meta") or {}),
        )


class RunStore:
    """Append-only JSONL store of :class:`RunRecord` lines.

    A directory target gets the default ``run_history.jsonl`` name.
    Reads tolerate a truncated final line; appends are atomic at the
    line level (single ``write`` of one line + flush), serialized by a
    process-local ``threading.Lock`` *and* an inter-process
    :class:`FileLock` (``<store>.lock`` pid file).  A lock file left
    behind by a process that died mid-append is taken over once its
    recorded pid is dead — appenders never deadlock on a crash tail.
    """

    def __init__(self, target: str | Path, *, lock_timeout_s: float = 10.0) -> None:
        target = Path(target)
        self.path = target / STORE_FILENAME if target.is_dir() else target
        self._lock = threading.Lock()
        self._lock_timeout_s = float(lock_timeout_s)

    @property
    def lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    def append(self, record: RunRecord) -> RunRecord:
        """Persist one record (returns it for chaining)."""
        line = record.to_json() + "\n"
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with FileLock(self.lock_path, timeout_s=self._lock_timeout_s):
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line)
                    fh.flush()
        return record

    def records(self, bench: str | None = None) -> list[RunRecord]:
        """Every stored record (optionally one bench), oldest first."""
        if not self.path.exists():
            return []
        out: list[RunRecord] = []
        lines = self.path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # crash tail — everything before is intact
                raise
            record = RunRecord.from_dict(payload)
            if bench is None or record.bench == bench:
                out.append(record)
        return out

    def benches(self) -> list[str]:
        """Distinct bench names present, sorted."""
        return sorted({r.bench for r in self.records()})

    def trajectory(self, bench: str, metric: str) -> list[tuple[float, float]]:
        """``(recorded_unix, value)`` points for one metric, oldest first."""
        return [
            (r.recorded_unix, r.metrics[metric])
            for r in self.records(bench)
            if metric in r.metrics
        ]

    def best(
        self, bench: str, metric: str, *, higher_is_better: bool = True
    ) -> float | None:
        """Best value ever recorded for ``metric``, or None if unseen."""
        values = [v for _, v in self.trajectory(bench, metric)]
        if not values:
            return None
        return max(values) if higher_is_better else min(values)

    def latest(self, bench: str) -> RunRecord | None:
        """Most recently appended record for ``bench``."""
        records = self.records(bench)
        return records[-1] if records else None

    def __len__(self) -> int:
        return len(self.records())


# ----------------------------------------------------------------------
# Tracked hot-path metrics of the committed BENCH_* payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrackedMetric:
    """One gated metric: its committed current and best-ever values."""

    bench: str
    metric: str
    current: float
    best: float
    higher_is_better: bool


def tracked_metrics(payload: dict) -> list[TrackedMetric]:
    """The gated metrics of one ``BENCH_*.json`` payload, by name.

    Every bench file has one shape: ``bench``, ``config``, a ``metrics``
    table mapping each tracked name to ``{current, best, better}``
    (``better`` is ``"higher"`` or ``"lower"``), and free-form
    ``detail``.  Raises ``ValueError`` for a malformed payload so the
    gate can distinguish "regressed" from "unusable".
    """
    bench = payload.get("bench")
    if not isinstance(bench, str):
        raise ValueError("payload has no 'bench' name")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError(f"{bench}: no metrics recorded — regenerate the bench file")
    rows = []
    for name in sorted(metrics):
        entry = metrics[name]
        try:
            if entry["better"] not in ("higher", "lower"):
                raise ValueError
            rows.append(
                TrackedMetric(
                    bench=bench,
                    metric=name,
                    current=float(entry["current"]),
                    best=float(entry["best"]),
                    higher_is_better=entry["better"] == "higher",
                )
            )
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                f"{bench}: malformed metric {name!r} (needs current, best and better)"
            ) from None
    return rows


def record_from_bench_payload(payload: dict, *, source: str = "bench") -> RunRecord:
    """Normalize one ``BENCH_*.json`` payload into a store record."""
    tracked = tracked_metrics(payload)
    config = payload.get("config") or {}
    return RunRecord(
        schema=1,
        bench=tracked[0].bench,
        config_hash=config_hash(config),
        git=git_describe(Path(__file__).parent),
        recorded_unix=time.time(),
        source=source,
        metrics={t.metric: t.current for t in tracked},
        meta={
            "config": config,
            "best": {t.metric: t.best for t in tracked},
            "higher_is_better": {t.metric: t.higher_is_better for t in tracked},
        },
    )
