"""Per-node selection services and the fleet clock policy.

Every node runs its own :class:`~repro.serving.service.SelectionService`
— its own measurement device (seeded from the node's SeedSequence
child), its own warm LRU — mirroring a deployment where the selection
sidecar runs on the node it serves.  Coarse cache quantization
(``quantize_decimals=3`` by default) means repeated jobs of one
application usually hit the node-local cache even though every job is
re-profiled with measurement noise.

:class:`FleetServicePolicy` is the per-*job* flavour of
:class:`~repro.cluster.policy.ServiceDrivenPolicy`: it asks the owning
node's service for every placement instead of memoising one decision
per application, which is what pushes >= 1e5 selections through the
serving layer in a day-scale campaign.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.job import Job
from repro.cluster.node import GPUNode
from repro.cluster.policy import ClockDecision, ClockPolicy
from repro.core.energy import ED2P, EDP, ObjectiveFunction
from repro.core.pipeline import FrequencySelectionPipeline
from repro.fleet.models import MAX_SAMPLES_PER_RUN, fleet_models
from repro.fleet.scenario import Scenario
from repro.gpusim import GA100, GV100, SimulatedGPU
from repro.serving.service import SelectionRequest, SelectionService

__all__ = ["build_fleet", "FleetServicePolicy"]

_ARCHS = {"GA100": GA100, "GV100": GV100}


def build_fleet(
    scenario: Scenario, node_root: np.random.SeedSequence
) -> tuple[list[GPUNode], dict[int, SelectionService]]:
    """Nodes plus one selection service per node.

    ``node_root`` spawns one child per node (in node-id order); each
    node child spawns (board-parent, service-device) grandchildren, so
    every RNG stream in the fleet hangs off the campaign seed with a
    stable, worker-count-independent lineage.
    """
    nodes: list[GPUNode] = []
    services: dict[int, SelectionService] = {}
    node_children = node_root.spawn(scenario.n_nodes)
    node_id = 0
    for group in scenario.node_groups:
        arch = _ARCHS[group.arch]
        power_model, time_model = fleet_models(group.arch)
        for _ in range(group.count):
            board_parent, service_seed = node_children[node_id].spawn(2)
            nodes.append(
                GPUNode(
                    node_id,
                    arch,
                    gpus_per_node=group.gpus_per_node,
                    seed=board_parent,
                    max_samples_per_run=scenario.max_samples_per_run,
                )
            )
            service_device = SimulatedGPU(
                arch, seed=service_seed, max_samples_per_run=MAX_SAMPLES_PER_RUN
            )
            pipeline = FrequencySelectionPipeline(
                service_device, power_model=power_model, time_model=time_model
            )
            services[node_id] = SelectionService(
                pipeline,
                objectives=(EDP, ED2P),
                threshold=scenario.threshold,
                cache_size=scenario.cache_size,
                quantize_decimals=scenario.quantize_decimals,
            )
            node_id += 1
    return nodes, services


class FleetServicePolicy(ClockPolicy):
    """Per-job clock decisions from the owning node's service."""

    name = "fleet-service"

    def __init__(
        self,
        nodes: list[GPUNode],
        services: dict[int, SelectionService],
        *,
        objective: ObjectiveFunction = ED2P,
        threshold: float | None = None,
    ) -> None:
        self.objective = objective
        self.threshold = threshold
        self._service_of: dict[SimulatedGPU, SelectionService] = {}
        for node in nodes:
            service = services[node.node_id]
            for gpu in node.gpus:
                self._service_of[gpu] = service

    def clock_for(self, job: Job, device: SimulatedGPU) -> float:
        return self.decide(job, device).clock_mhz

    def decide(self, job: Job, device: SimulatedGPU) -> ClockDecision:
        service = self._service_of[device]
        response = service.select_one(
            SelectionRequest.from_workload(job.workload, size=job.size),
            objectives=(self.objective,),
            threshold=self.threshold,
        )
        clock = device.dvfs.snap(response.selection(self.objective.name).freq_mhz)
        return ClockDecision(
            clock_mhz=clock,
            freqs_mhz=response.freqs_mhz,
            power_curve_w=response.power_w,
            time_curve_s=response.time_s,
        ).at_clock(clock)
