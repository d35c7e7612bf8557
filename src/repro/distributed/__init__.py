"""Multi-device patch-sharded execution.

Patch-based inference decomposes a model's head into independent dataflow
branches; this subsystem distributes those branches across a simulated MCU
cluster and scales serving beyond one device:

* :class:`ShardPlanner` — partitions the patch grid into per-device shards by
  actual per-branch MACs (halo included) under per-device SRAM budgets
  (:mod:`repro.distributed.planner`);
* :class:`DeviceShard` — one simulated device: a serial worker executing its
  shard's branches (:mod:`repro.distributed.workers`);
* :class:`DistributedExecutor` — runs a shard plan on a pool of device
  workers, bit-identical to sequential execution; it also serves the
  ``threads(n)`` placement, with n host workers as the devices
  (:mod:`repro.distributed.executor`);
* :class:`PipelineParallelScheduler` — overlaps the distributed patch stage
  of micro-batch ``k+1`` with the head device's suffix of micro-batch ``k``,
  PipeFusion-style (:mod:`repro.distributed.scheduler`).

The matching hardware model (:class:`~repro.hardware.cluster.ClusterSpec`,
makespan estimates) lives in :mod:`repro.hardware.cluster`; the serving
integration is
``InferenceEngine(..., policy=ExecutionPolicy(placement=cluster(spec)))``.

Quickstart::

    from repro.hardware import get_cluster
    from repro.distributed import DistributedExecutor

    cluster = get_cluster("stm32h743_x4")
    with DistributedExecutor(compiled.plan, cluster) as executor:
        logits = executor.forward(images)          # == PatchExecutor output
    print(executor.modelled_latency().makespan_ms)
"""

from .executor import DisplacedSubmission, DistributedExecutor
from .planner import Shard, ShardPlan, ShardPlanner
from .scheduler import (
    DriftSample,
    PipelineParallelScheduler,
    RoundRecord,
    StageSlot,
    pipeline_timeline,
)
from .workers import DeviceShard

__all__ = [
    "Shard",
    "ShardPlan",
    "ShardPlanner",
    "DeviceShard",
    "DisplacedSubmission",
    "DistributedExecutor",
    "DriftSample",
    "PipelineParallelScheduler",
    "RoundRecord",
    "StageSlot",
    "pipeline_timeline",
]
