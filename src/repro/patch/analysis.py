"""Cost analysis of patch-based execution plans.

Given a :class:`~repro.patch.plan.PatchPlan` and a quantization configuration,
these functions compute the quantities the paper's tables report:

* MACs / BitOPs of the patch stage, including the redundant overlap work
  (Figure 1a/1b, Table I "BitOPs");
* the peak SRAM of patch-based execution (Table I "Peak Memory"), accounting
  for the per-branch working set, the persistent buffer holding the stitched
  split feature map, and the layer-by-layer suffix;
* the per-feature-map memory of a branch, which is the ``Mem(i, b_i)`` that
  VDQS's Algorithm 1 constrains.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn import AvgPool2d, Conv2d, DepthwiseConv2d, MaxPool2d
from ..nn.graph import INPUT_NODE
from ..quant.config import QuantizationConfig
from ..quant.memory import feature_map_bytes, input_bytes, tensor_bytes
from .plan import BranchPlan, PatchPlan
from .regions import Region

__all__ = [
    "macs_for_region",
    "branch_macs",
    "patch_stage_macs",
    "layer_based_prefix_macs",
    "redundant_macs",
    "redundancy_ratio",
    "branch_bitops",
    "patch_bitops",
    "branch_peak_bytes",
    "patch_peak_bytes",
    "shard_macs",
    "shard_halo_macs",
    "shard_peak_bytes",
    "incremental_stage_macs",
    "StreamingCostReport",
    "analyze_streaming",
    "PatchCostReport",
    "analyze_plan",
]


def macs_for_region(layer, region: Region) -> int:
    """MACs needed to produce ``region`` of a layer's output feature map."""
    area = region.area
    if area <= 0:
        return 0
    if isinstance(layer, Conv2d):
        return layer.out_channels * area * layer.in_channels * layer.kernel_size**2
    if isinstance(layer, DepthwiseConv2d):
        return layer.channels * area * layer.kernel_size**2
    if isinstance(layer, (MaxPool2d, AvgPool2d)):
        return 0
    return 0


def _prefix_compute_nodes(plan: PatchPlan) -> list[str]:
    prefix = set(plan.prefix_nodes)
    return [fm.compute_node for fm in plan.fm_index if fm.compute_node in prefix]


def branch_macs(plan: PatchPlan, branch: BranchPlan) -> int:
    """MACs one dataflow branch performs (clamped to real feature-map bounds)."""
    total = 0
    for name in _prefix_compute_nodes(plan):
        layer = plan.graph.nodes[name].layer
        fm = plan.fm_index.by_compute_node(name)
        region = branch.clamped_regions.get(fm.output_node, branch.clamped_regions.get(name))
        if region is None:
            continue
        total += macs_for_region(layer, region)
    return total


def patch_stage_macs(plan: PatchPlan) -> int:
    """Total MACs of the patch stage summed over all branches."""
    return sum(branch_macs(plan, branch) for branch in plan.branches)


def layer_based_prefix_macs(plan: PatchPlan) -> int:
    """MACs of the same prefix executed once, layer by layer (no overlap)."""
    prefix = set(plan.prefix_nodes)
    return sum(fm.macs for fm in plan.fm_index if fm.compute_node in prefix)


def redundant_macs(plan: PatchPlan) -> int:
    """Extra MACs caused by halo overlap between branches."""
    return patch_stage_macs(plan) - layer_based_prefix_macs(plan)


def redundancy_ratio(plan: PatchPlan) -> float:
    """Redundant MACs as a fraction of the layer-based prefix MACs."""
    base = layer_based_prefix_macs(plan)
    if base == 0:
        return 0.0
    return redundant_macs(plan) / base


def _source_bits(plan: PatchPlan, fm_idx: int, config: QuantizationConfig) -> int:
    sources = plan.fm_index.sources[fm_idx]
    bits = [config.input_bits if s is None else config.act_bits(s) for s in sources]
    return max(bits) if bits else config.input_bits


def branch_bitops(plan: PatchPlan, branch: BranchPlan, config: QuantizationConfig) -> int:
    """BitOPs one branch performs under ``config``."""
    total = 0
    prefix = set(plan.prefix_nodes)
    for fm in plan.fm_index:
        if fm.compute_node not in prefix:
            continue
        layer = plan.graph.nodes[fm.compute_node].layer
        region = branch.clamped_regions.get(fm.output_node)
        if region is None:
            continue
        macs = macs_for_region(layer, region)
        total += macs * config.w_bits(fm.compute_node) * _source_bits(plan, fm.index, config)
    return total


def patch_bitops(plan: PatchPlan, config: QuantizationConfig) -> int:
    """Total model BitOPs under patch-based execution: branches plus suffix."""
    total = sum(branch_bitops(plan, branch, config) for branch in plan.branches)
    for idx in plan.suffix_feature_maps():
        fm = plan.fm_index[idx]
        total += fm.macs * config.w_bits(fm.compute_node) * _source_bits(plan, idx, config)
    return total


def _region_bytes(channels: int, region: Region, bits: int) -> int:
    return tensor_bytes(channels * region.area, bits)


def branch_peak_bytes(plan: PatchPlan, branch: BranchPlan, config: QuantizationConfig) -> int:
    """Peak working-set bytes of one branch (excluding the stitched output buffer).

    For every patch-stage operator the working set is the bytes of its input
    region(s) plus its output region; operators writing the split feature map
    write directly into the persistent stitched buffer, so their output is not
    double counted here (the buffer is added by :func:`patch_peak_bytes`).
    """
    prefix = set(plan.prefix_nodes)
    peak = 0
    for fm in plan.fm_index:
        if fm.compute_node not in prefix:
            continue
        out_region = branch.clamped_regions.get(fm.output_node)
        if out_region is None:
            continue
        if fm.output_node == plan.split_output_node:
            working = 0
        else:
            working = _region_bytes(fm.shape[0], out_region, config.act_bits(fm.index))
        for src in plan.fm_index.sources[fm.index]:
            if src is None:
                region = branch.clamped_regions.get(INPUT_NODE)
                channels = plan.graph.input_shape[0]
                bits = config.input_bits
            else:
                src_fm = plan.fm_index[src]
                region = branch.clamped_regions.get(src_fm.output_node)
                channels = src_fm.shape[0]
                bits = config.act_bits(src)
            if region is not None:
                working += _region_bytes(channels, region, bits)
        peak = max(peak, working)
    return peak


def patch_peak_bytes(plan: PatchPlan, config: QuantizationConfig) -> int:
    """Peak SRAM of the whole patch-based execution under ``config``.

    The patch-stage peak is the stitched split-feature-map buffer plus the
    largest branch working set; the suffix peak is the usual layer-by-layer
    maximum over the remaining operators.  The overall peak is the larger of
    the two.
    """
    split_idx = plan.split_feature_map()
    split_buffer = feature_map_bytes(plan.fm_index, split_idx, config)

    stage_peak = split_buffer
    for branch in plan.branches:
        stage_peak = max(stage_peak, split_buffer + branch_peak_bytes(plan, branch, config))

    suffix_peak = 0
    for idx in plan.suffix_feature_maps():
        working = feature_map_bytes(plan.fm_index, idx, config)
        for src in plan.fm_index.sources[idx]:
            if src is None:
                working += input_bytes(plan.fm_index, config)
            else:
                working += feature_map_bytes(plan.fm_index, src, config)
        suffix_peak = max(suffix_peak, working)

    return max(stage_peak, suffix_peak)


def shard_macs(plan: PatchPlan, branch_ids: list[int]) -> int:
    """MACs of a shard: the branches in ``branch_ids`` summed (halo included)."""
    return sum(branch_macs(plan, plan.branches[i]) for i in branch_ids)


def shard_halo_macs(plan: PatchPlan, branch_ids: list[int]) -> int:
    """Redundant (halo) MACs a shard performs beyond its ideal share.

    The ideal share of a shard is the layer-based prefix cost scaled by the
    fraction of the split feature map its output tiles cover — what the shard
    would cost if patches could be computed without halo overlap.  The excess
    is the redundant work this shard re-computes, which is the quantity a
    device-level load balancer must account for: edge patches carry less halo
    than interior ones, so equal tile area does not mean equal work.
    """
    if not branch_ids:
        return 0
    split_shape = plan.graph.shapes()[plan.split_output_node]
    split_area = split_shape[1] * split_shape[2]
    tile_area = sum(plan.branches[i].output_region.area for i in branch_ids)
    ideal = layer_based_prefix_macs(plan) * tile_area / split_area if split_area else 0
    return max(0, shard_macs(plan, branch_ids) - int(round(ideal)))


def shard_peak_bytes(
    plan: PatchPlan,
    branch_ids: list[int],
    config: QuantizationConfig,
    holds_split_buffer: bool = False,
) -> int:
    """Peak SRAM of one device executing ``branch_ids`` serially.

    A device runs its branches one at a time, so its working set is the
    largest single-branch working set, plus the bytes of the output tiles it
    must keep resident until they are transferred (or, for the device that
    stitches, the whole split feature-map buffer plus the suffix working
    sets — pass ``holds_split_buffer=True`` for that device).
    """
    branch_working = max(
        (branch_peak_bytes(plan, plan.branches[i], config) for i in branch_ids),
        default=0,
    )
    split_idx = plan.split_feature_map()
    split_bits = config.act_bits(split_idx)
    split_channels = plan.fm_index[split_idx].shape[0]
    if holds_split_buffer:
        resident = feature_map_bytes(plan.fm_index, split_idx, config)
        suffix_peak = 0
        for idx in plan.suffix_feature_maps():
            working = feature_map_bytes(plan.fm_index, idx, config)
            for src in plan.fm_index.sources[idx]:
                if src is None:
                    working += input_bytes(plan.fm_index, config)
                else:
                    working += feature_map_bytes(plan.fm_index, src, config)
            suffix_peak = max(suffix_peak, working)
        return max(resident + branch_working, suffix_peak)
    tile_bytes = sum(
        _region_bytes(split_channels, plan.branches[i].output_region, split_bits)
        for i in branch_ids
    )
    return tile_bytes + branch_working


def incremental_stage_macs(plan: PatchPlan, dirty_branch_ids: list[int]) -> int:
    """Patch-stage MACs of re-executing only ``dirty_branch_ids``.

    The per-frame cost of streaming inference's partial recompute: clean
    branches are served from cache at zero MACs, dirty branches pay their full
    per-branch cost (halo included — an invalidated patch recomputes its whole
    input region, not just the changed pixels).
    """
    return shard_macs(plan, sorted(set(dirty_branch_ids)))


@dataclass(frozen=True)
class StreamingCostReport:
    """Dirty-MAC accounting of one incremental frame against full recompute."""

    num_branches: int
    num_dirty: int
    executed_macs: int
    total_macs: int

    @property
    def reused_branches(self) -> int:
        return self.num_branches - self.num_dirty

    @property
    def reuse_rate(self) -> float:
        return self.reused_branches / self.num_branches if self.num_branches else 0.0

    @property
    def executed_fraction(self) -> float:
        """Executed patch-stage MACs as a fraction of full recomputation."""
        return self.executed_macs / self.total_macs if self.total_macs else 0.0

    @property
    def mac_speedup(self) -> float:
        return self.total_macs / self.executed_macs if self.executed_macs else float("inf")


def analyze_streaming(plan: PatchPlan, dirty_branch_ids: list[int]) -> StreamingCostReport:
    """Summarize the patch-stage savings of recomputing only ``dirty_branch_ids``."""
    dirty = sorted(set(dirty_branch_ids))
    return StreamingCostReport(
        num_branches=plan.num_branches,
        num_dirty=len(dirty),
        executed_macs=shard_macs(plan, dirty),
        total_macs=patch_stage_macs(plan),
    )


@dataclass
class PatchCostReport:
    """Summary of a patch plan's cost under a quantization configuration."""

    num_patches: int
    split_output_node: str
    patch_stage_macs: int
    layer_based_prefix_macs: int
    redundant_macs: int
    redundancy_ratio: float
    total_bitops: int
    peak_memory_bytes: int

    @property
    def peak_memory_kb(self) -> float:
        return self.peak_memory_bytes / 1024.0

    @property
    def bitops_m(self) -> float:
        return self.total_bitops / 1e6


def analyze_plan(plan: PatchPlan, config: QuantizationConfig | None = None) -> PatchCostReport:
    """Produce a :class:`PatchCostReport` for ``plan`` under ``config`` (default 8/8)."""
    config = config if config is not None else QuantizationConfig.uniform(8)
    return PatchCostReport(
        num_patches=plan.num_patches,
        split_output_node=plan.split_output_node,
        patch_stage_macs=patch_stage_macs(plan),
        layer_based_prefix_macs=layer_based_prefix_macs(plan),
        redundant_macs=redundant_macs(plan),
        redundancy_ratio=redundancy_ratio(plan),
        total_bitops=patch_bitops(plan, config),
        peak_memory_bytes=patch_peak_bytes(plan, config),
    )
