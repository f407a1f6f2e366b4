"""Declarative fleet scenarios.

A :class:`Scenario` is a pure-data description of one campaign: the
node inventory, the arrival process, the facility power budget (with an
optional time-varying price/carbon signal), the failure plan, and the
serving configuration.  Everything downstream —
:class:`~repro.fleet.simulator.FleetSimulator`, the CLI, the golden
suite — consumes scenarios, so a campaign is reproducible from
``(scenario name, seed)`` alone.

The named scenarios:

* ``baseline``    — mixed GA100/GV100 fleet, steady arrivals, no cap,
* ``capped``      — baseline under a facility power cap modulated by a
  price signal,
* ``flash-crowd`` — a burst multiplies the arrival rate mid-campaign,
* ``node-churn``  — random node outages with requeue,
* ``day``         — one simulated day at scale (>= 1e5 selections);
  slow, used by the slow-marked campaign test.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = [
    "NodeGroupSpec",
    "Surge",
    "ArrivalSpec",
    "SignalSpec",
    "FailureSpec",
    "Scenario",
    "get_scenario",
    "list_scenarios",
]

#: Mixed, fast-censusing applications used by the named scenarios.
_MIX = ("dgemm", "stream", "spmv", "lud", "fft", "bfs", "lstm", "resnet50")


@dataclass(frozen=True)
class NodeGroupSpec:
    """A homogeneous slice of the fleet."""

    arch: str  # "GA100" or "GV100"
    count: int
    gpus_per_node: int = 2

    def __post_init__(self) -> None:
        if self.arch not in ("GA100", "GV100"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.count < 1 or self.gpus_per_node < 1:
            raise ValueError("count and gpus_per_node must be >= 1")


@dataclass(frozen=True)
class Surge:
    """Arrival-rate multiplier over a time window (a flash crowd)."""

    start_s: float
    end_s: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError("end_s must be after start_s")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")


@dataclass(frozen=True)
class ArrivalSpec:
    """Poisson arrival process over a fixed submission window."""

    #: Mean arrivals per second (before surges).
    rate_per_s: float
    #: Submission window; jobs arrive in [0, duration_s).
    duration_s: float
    workloads: tuple[str, ...] = _MIX
    #: Deadline = arrival + factor x noise-free boost-clock runtime
    #: (worst across fleet archs).  None disables SLAs.
    deadline_factor: float | None = 3.0
    surges: tuple[Surge, ...] = ()

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.workloads:
            raise ValueError("need at least one workload")
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ValueError("deadline_factor must be positive")


@dataclass(frozen=True)
class SignalSpec:
    """Time-varying price/carbon signal modulating the power cap.

    The signal yields a multiplicative factor on the facility cap:
    ``1 - amplitude`` at the signal's peak (expensive/dirty power →
    tighter cap), ``1 + amplitude`` in the trough.
    """

    kind: str = "price"  # "price" | "carbon" | "flat"
    period_s: float = 86400.0
    amplitude: float = 0.2
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("price", "carbon", "flat"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")


@dataclass(frozen=True)
class FailureSpec:
    """Failure-injection plan: explicit outages plus random churn."""

    #: Explicit (node_id, down_s, up_s|None) outage windows.
    outages: tuple[tuple[int, float, float | None], ...] = ()
    #: Number of additional outages drawn from the failure RNG.
    random_outages: int = 0
    mean_downtime_s: float = 120.0
    #: Random outages start inside this fraction of the submission
    #: window (so a node can still come back while work remains).
    window: tuple[float, float] = (0.05, 0.7)

    def __post_init__(self) -> None:
        if self.random_outages < 0:
            raise ValueError("random_outages must be non-negative")
        if self.mean_downtime_s <= 0:
            raise ValueError("mean_downtime_s must be positive")
        lo, hi = self.window
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("window must satisfy 0 <= lo < hi <= 1")


@dataclass(frozen=True)
class Scenario:
    """One complete fleet campaign description."""

    name: str
    description: str
    node_groups: tuple[NodeGroupSpec, ...]
    arrival: ArrivalSpec
    #: Facility GPU power budget (busy power, W); None = uncapped.
    cap_w: float | None = None
    signal: SignalSpec | None = None
    failures: FailureSpec = field(default_factory=FailureSpec)
    tick_s: float = 30.0
    objective: str = "ED2P"
    threshold: float | None = None
    #: Serving configuration for the per-node services.
    quantize_decimals: int = 3
    cache_size: int = 512
    max_samples_per_run: int = 4

    def __post_init__(self) -> None:
        if not self.node_groups:
            raise ValueError("need at least one node group")
        if self.cap_w is not None and self.cap_w <= 0:
            raise ValueError("cap_w must be positive")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")

    @property
    def n_nodes(self) -> int:
        return sum(g.count for g in self.node_groups)

    @property
    def n_gpus(self) -> int:
        return sum(g.count * g.gpus_per_node for g in self.node_groups)

    def scaled(self, *, rate_factor: float = 1.0, duration_factor: float = 1.0) -> "Scenario":
        """A copy with the arrival process scaled (for quick tests)."""
        arrival = dataclasses.replace(
            self.arrival,
            rate_per_s=self.arrival.rate_per_s * rate_factor,
            duration_s=self.arrival.duration_s * duration_factor,
        )
        return dataclasses.replace(self, arrival=arrival)


_BASE_GROUPS = (
    NodeGroupSpec(arch="GA100", count=6, gpus_per_node=2),
    NodeGroupSpec(arch="GV100", count=2, gpus_per_node=2),
)

_SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    _SCENARIOS[scenario.name] = scenario
    return scenario


BASELINE = _register(
    Scenario(
        name="baseline",
        description="mixed GA100/GV100 fleet, steady arrivals, no power cap",
        node_groups=_BASE_GROUPS,
        arrival=ArrivalSpec(rate_per_s=2.0, duration_s=900.0),
    )
)

CAPPED = _register(
    Scenario(
        name="capped",
        description="baseline fleet under a price-modulated facility power cap",
        node_groups=_BASE_GROUPS,
        arrival=ArrivalSpec(rate_per_s=2.0, duration_s=900.0),
        cap_w=1200.0,
        signal=SignalSpec(kind="price", period_s=900.0, amplitude=0.25),
    )
)

FLASH_CROWD = _register(
    Scenario(
        name="flash-crowd",
        description="a mid-campaign burst multiplies the arrival rate 8x",
        node_groups=_BASE_GROUPS,
        arrival=ArrivalSpec(
            rate_per_s=0.4,
            duration_s=900.0,
            surges=(Surge(start_s=300.0, end_s=450.0, multiplier=8.0),),
        ),
    )
)

NODE_CHURN = _register(
    Scenario(
        name="node-churn",
        description="random node outages mid-campaign with requeue",
        node_groups=_BASE_GROUPS,
        arrival=ArrivalSpec(rate_per_s=0.8, duration_s=900.0),
        failures=FailureSpec(random_outages=3, mean_downtime_s=150.0),
    )
)

DAY = _register(
    Scenario(
        name="day",
        description="one simulated day at scale (>= 1e5 selections); slow",
        node_groups=(
            NodeGroupSpec(arch="GA100", count=12, gpus_per_node=2),
            NodeGroupSpec(arch="GV100", count=4, gpus_per_node=2),
        ),
        arrival=ArrivalSpec(rate_per_s=1.3, duration_s=86400.0),
        signal=SignalSpec(kind="carbon", period_s=86400.0, amplitude=0.2),
        tick_s=300.0,
    )
)


def get_scenario(name: str) -> Scenario:
    """Named scenario lookup."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def list_scenarios() -> list[Scenario]:
    """All named scenarios, name-sorted."""
    return [_SCENARIOS[name] for name in sorted(_SCENARIOS)]
