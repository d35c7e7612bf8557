"""The QuantMCU pipeline: patch-based inference + VDPC + VDQS.

This module glues the substrates together into the method the paper proposes
(Section III):

1. a patch-based execution plan is chosen (or supplied) for the model;
2. the model runs once on a small calibration batch to collect activation
   statistics, quantization ranges and the Gaussian activation model of VDPC;
3. **VDQS** searches a mixed-precision bitwidth assignment for every dataflow
   branch under the device SRAM constraint (Algorithm 1);
4. **VDPC** decides, per patch, whether the branch runs with the searched
   mixed-precision assignment (non-outlier patch) or falls back to 8-bit
   (outlier patch).  Two classification modes are supported:

   * ``"static"`` (default) — the decision is made once from calibration
     statistics: a branch is protected when the fraction of calibration images
     whose patch contains outlier values exceeds ``static_outlier_threshold``.
     This yields a fixed deployment configuration, which is what the analytic
     BitOPs / peak-memory / latency numbers of the paper's tables describe.
   * ``"dynamic"`` — the decision is re-made for every input at inference time
     (the literal reading of "patches containing outlier values"), which the
     executor implements per sample; analytic numbers then report the
     expectation under the calibration-measured outlier rates.

5. the result bundles the per-branch bitwidths with analytic BitOPs and peak
   memory, and :meth:`QuantMCUPipeline.make_executor` turns it into an
   executable fake-quantized patch inference.

``run_vdqs_whole_model`` additionally exposes VDQS as a standalone layer-based
mixed-precision quantizer, which is how Table II compares it against PACT,
HAQ, HAWQ-V3 and Rusci et al.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..nn import Graph
from ..nn.graph import INPUT_NODE
from ..patch.analysis import branch_bitops, branch_peak_bytes, patch_peak_bytes
from ..patch.executor import PatchExecutor
from ..patch.plan import PatchPlan, build_patch_plan
from ..patch.scheduler import find_patch_schedule
from ..quant.bitops import model_bitops
from ..quant.config import QuantizationConfig
from ..quant.executor import collect_activations
from ..quant.memory import feature_map_bytes, tensor_bytes
from ..quant.points import FeatureMapIndex
from ..quant.quantizers import SUPPORTED_BITWIDTHS, fake_quantize, quantize_weight_per_channel
from .score import DEFAULT_LAMBDA, QuantizationScoreCalculator
from .vdpc import DEFAULT_PHI, GaussianOutlierModel, PatchClass, VDPCResult
from .vdqs import VDQSResult, bitwidth_search, build_branch_items

__all__ = [
    "BranchQuantization",
    "QuantMCUResult",
    "QuantMCUPipeline",
    "make_static_hooks",
    "run_vdqs_whole_model",
    "WholeModelVDQSResult",
]


def _make_range_quantizer(activation_ranges: dict[int, tuple[float, float]]):
    """``quantize(array, fm_index, bits)`` applying calibrated ranges.

    The single source of the fake-quantization semantics shared by every
    execution path — static hooks (experiment and serving side) and the
    dynamic per-input hooks of :meth:`QuantMCUPipeline.make_hooks` — so the
    fallback-range handling cannot drift between them.
    """

    def _quantize(array: np.ndarray, fm_index: int, bits: int) -> np.ndarray:
        if bits >= 32:
            return array
        calibrated = activation_ranges.get(fm_index)
        low, high = (
            calibrated if calibrated is not None else (float(array.min()), float(array.max()))
        )
        return fake_quantize(array, bits, low, high)

    return _quantize


def make_static_hooks(
    activation_ranges: dict[int, tuple[float, float]],
    branch_bits: list[dict[int, int]],
    suffix_bits: dict[int, int],
):
    """``(branch_hook, suffix_hook)`` applying a static deployment configuration.

    Both :meth:`QuantMCUPipeline.make_hooks` (experiment side) and
    :class:`repro.serving.pipeline.CompiledPipeline` (serving side, after a
    save/load round trip) build their hooks here, which is what keeps the two
    execution paths bit-identical.
    """
    _quantize = _make_range_quantizer(activation_ranges)

    def branch_hook(patch_id: int, fm, array: np.ndarray) -> np.ndarray:
        return _quantize(array, fm.index, branch_bits[patch_id].get(fm.index, 8))

    def suffix_hook(fm, array: np.ndarray) -> np.ndarray:
        return _quantize(array, fm.index, suffix_bits.get(fm.index, 8))

    def static_params(patch_id: int, fm_index: int):
        """``(bits, low, high)`` the hook will apply, or ``None`` if the
        quantization is content-dependent (uncalibrated range fallback).

        The protocol the vectorized backend uses to collapse per-branch hook
        calls into one elementwise ``fake_quantize`` over a stacked buffer:
        ``bits >= 32`` means identity (low/high are ``None``), any ``None``
        return forces the backend back to calling the hook per branch.
        """
        bits = branch_bits[patch_id].get(fm_index, 8)
        if bits >= 32:
            return bits, None, None
        calibrated = activation_ranges.get(fm_index)
        if calibrated is None:
            return None
        # Return the stored range objects verbatim: converting (e.g. float())
        # could change the dtype the quantizer's scale arithmetic runs in.
        return bits, calibrated[0], calibrated[1]

    branch_hook.static_params = static_params
    return branch_hook, suffix_hook


@dataclass
class BranchQuantization:
    """Quantization decision for one dataflow branch (one patch).

    ``mp_bitwidths`` is the mixed-precision assignment found by VDQS;
    ``bitwidths`` is the effective (deployed) assignment after VDPC — equal to
    ``mp_bitwidths`` for non-outlier branches and all-8-bit for outlier
    branches in static mode.
    """

    patch_id: int
    patch_class: PatchClass
    outlier_rate: float
    bitwidths: dict[int, int]
    mp_bitwidths: dict[int, int]
    vdqs: VDQSResult | None = None

    @property
    def mean_bits(self) -> float:
        if not self.bitwidths:
            return 8.0
        return sum(self.bitwidths.values()) / len(self.bitwidths)


@dataclass
class QuantMCUResult:
    """Everything produced by one QuantMCU quantization run."""

    plan: PatchPlan
    outlier_model: GaussianOutlierModel | None
    reference_node: str | None
    classification_mode: str
    branches: list[BranchQuantization]
    suffix_bits: dict[int, int]
    weight_bits: int
    search_seconds: float
    total_seconds: float
    bitops: int
    peak_memory_bytes: int
    activation_ranges: dict[int, tuple[float, float]] = field(default_factory=dict)

    # -------------------------------------------------------------- configs
    def branch_config(self, patch_id: int, force_bits: int | None = None) -> QuantizationConfig:
        """Quantization config seen by one branch (suffix bits included)."""
        branch = self.branches[patch_id]
        bits = dict(self.suffix_bits)
        if force_bits is not None:
            bits.update({fm: force_bits for fm in branch.bitwidths})
        else:
            bits.update(branch.bitwidths)
        return QuantizationConfig(
            activation_bits=bits,
            default_activation_bits=8,
            default_weight_bits=self.weight_bits,
        )

    def bitwidth_matrix(self) -> list[list[int]]:
        """Per-branch deployed bitwidths over the prefix feature maps (Figure 6)."""
        prefix = self.plan.prefix_feature_maps()
        return [[branch.bitwidths.get(fm, 8) for fm in prefix] for branch in self.branches]

    def mp_bitwidth_matrix(self) -> list[list[int]]:
        """Per-branch VDQS (pre-VDPC) bitwidths over the prefix feature maps."""
        prefix = self.plan.prefix_feature_maps()
        return [[branch.mp_bitwidths.get(fm, 8) for fm in prefix] for branch in self.branches]

    @property
    def vdpc(self) -> VDPCResult | None:
        """VDPC summary (classes and outlier rates) for reporting."""
        if self.outlier_model is None:
            return None
        return VDPCResult(
            model=self.outlier_model,
            classes=[b.patch_class for b in self.branches],
            outlier_fractions=[b.outlier_rate for b in self.branches],
        )

    @property
    def num_outlier_branches(self) -> int:
        return sum(1 for b in self.branches if b.patch_class is PatchClass.OUTLIER)

    @property
    def peak_memory_kb(self) -> float:
        return self.peak_memory_bytes / 1024.0

    @property
    def bitops_m(self) -> float:
        return self.bitops / 1e6

    def deployment_state(self) -> dict:
        """Serializable description of the deployed (static) configuration.

        Everything :mod:`repro.serving` needs to reconstruct the quantized
        patch execution without re-running calibration or search: the patch
        schedule, the per-branch and suffix bitwidths, the calibrated
        activation ranges, and the weight precision.  Only plain Python
        containers are used so the dict round-trips through JSON.
        """
        return {
            "split_output_node": self.plan.split_output_node,
            "num_patches": int(self.plan.num_patches),
            "classification_mode": self.classification_mode,
            "weight_bits": int(self.weight_bits),
            "suffix_bits": {int(k): int(v) for k, v in self.suffix_bits.items()},
            "branch_bits": [
                {int(k): int(v) for k, v in b.bitwidths.items()} for b in self.branches
            ],
            "activation_ranges": {
                int(k): [float(lo), float(hi)]
                for k, (lo, hi) in self.activation_ranges.items()
            },
        }


class QuantMCUPipeline:
    """End-to-end QuantMCU (see module docstring).

    Parameters
    ----------
    graph:
        Model to quantize.
    sram_limit_bytes:
        The MCU SRAM budget ``M`` of Equation 7.
    phi:
        VDPC outlier threshold (0.96 in the paper).
    lam:
        VDQS score weight ``lambda`` (0.6 in the paper).
    num_patches / split_node:
        Optional explicit patch schedule; when omitted the schedule search of
        :mod:`repro.patch.scheduler` picks one that fits the SRAM budget.
    candidate_bits:
        VDQS candidate bitwidths (8/4/2 in the paper, ``m = 3``).
    weight_bits:
        Weight bitwidth (QuantMCU keeps weights at 8 bits).
    use_vdpc:
        Disable to reproduce the "QuantMCU w/o VDPC" ablation of Figure 4
        (every branch uses the VDQS mixed-precision assignment).
    quantize_suffix:
        Whether VDQS also assigns mixed precision to the feature maps after
        the patch stage (True in the deployed method; the patch-stage branches
        alone account for too small a share of the model's computation to
        reach the paper's 2.2x BitOPs reduction).
    reference_node:
        Node whose activations VDPC classifies patches on; ``None`` selects
        the first feature map of the patch stage, ``"input"`` uses the raw
        image (static mode only).
    classification_mode:
        ``"static"`` or ``"dynamic"`` (see module docstring).
    static_outlier_threshold:
        In static mode, the minimum fraction of calibration images whose patch
        contains outliers for the branch to be protected at 8 bits.
    min_outlier_fraction:
        Minimum share of outlier values inside a patch before that patch
        counts as containing outliers (0 reproduces the paper's "contains an
        outlier value" rule).
    phi_normalization:
        Normalisation of the BitOPs term of the quantization score; see
        :class:`repro.core.score.QuantizationScoreCalculator`.
    """

    def __init__(
        self,
        graph: Graph,
        sram_limit_bytes: int,
        phi: float = DEFAULT_PHI,
        lam: float = DEFAULT_LAMBDA,
        num_patches: int | None = None,
        split_node: str | None = None,
        candidate_bits: tuple[int, ...] = SUPPORTED_BITWIDTHS,
        weight_bits: int = 8,
        num_bins: int = 256,
        use_vdpc: bool = True,
        quantize_suffix: bool = True,
        phi_mode: str = "coverage",
        reference_node: str | None = None,
        classification_mode: str = "static",
        static_outlier_threshold: float = 0.5,
        min_outlier_fraction: float = 0.01,
        phi_normalization: str = "mean_feature_map",
    ) -> None:
        if classification_mode not in ("static", "dynamic"):
            raise ValueError(f"unknown classification_mode {classification_mode!r}")
        self.graph = graph
        self.sram_limit_bytes = int(sram_limit_bytes)
        self.phi = phi
        self.lam = lam
        self.num_patches = num_patches
        self.split_node = split_node
        self.candidate_bits = tuple(candidate_bits)
        self.weight_bits = weight_bits
        self.num_bins = num_bins
        self.use_vdpc = use_vdpc
        self.quantize_suffix = quantize_suffix
        self.phi_mode = phi_mode
        self.reference_node = reference_node
        self.classification_mode = classification_mode
        self.static_outlier_threshold = static_outlier_threshold
        self.min_outlier_fraction = min_outlier_fraction
        self.phi_normalization = phi_normalization
        self.fm_index = FeatureMapIndex(graph)

    # ------------------------------------------------------------------ plan
    def build_plan(self) -> PatchPlan:
        """Choose (or build) the patch-based execution plan."""
        if self.split_node is not None:
            return build_patch_plan(
                self.graph, self.split_node, self.num_patches or 2, self.fm_index
            )
        schedule = find_patch_schedule(
            self.graph,
            self.sram_limit_bytes,
            grids=(self.num_patches,) if self.num_patches else (2, 3, 4),
            fm_index=self.fm_index,
        )
        return schedule.plan

    # ------------------------------------------------------------------- run
    def run(self, calibration_x: np.ndarray) -> QuantMCUResult:
        """Quantize the model using ``calibration_x`` for statistics."""
        total_start = time.perf_counter()
        plan = self.build_plan()

        activations = collect_activations(self.graph, calibration_x, self.fm_index)
        ranges = {
            idx: (float(act.min()), float(act.max())) for idx, act in activations.items()
        }

        search_start = time.perf_counter()
        outlier_model, reference_node, outlier_rates = self._fit_vdpc(
            plan, calibration_x, activations
        )
        calculator = QuantizationScoreCalculator(
            self.fm_index,
            activations,
            lam=self.lam,
            num_bins=self.num_bins,
            phi_normalization=self.phi_normalization,
        )

        prefix_fms = plan.prefix_feature_maps()
        branches: list[BranchQuantization] = []
        for branch_plan in plan.branches:
            rate = outlier_rates[branch_plan.patch_id] if outlier_rates is not None else 0.0

            def branch_memory(fm: int, bits: int, _branch=branch_plan) -> int:
                info = self.fm_index[fm]
                region = _branch.clamped_regions.get(info.output_node)
                elements = (
                    info.shape[0] * region.area if region is not None else info.num_elements
                )
                return tensor_bytes(elements, bits)

            items = build_branch_items(prefix_fms, calculator, branch_memory, self.candidate_bits)
            vdqs = bitwidth_search(items, self.sram_limit_bytes)
            mp_bitwidths = dict(zip(prefix_fms, vdqs.bitwidths))

            if self.use_vdpc and rate >= self.static_outlier_threshold:
                patch_class = PatchClass.OUTLIER
                deployed = {fm: 8 for fm in prefix_fms}
            else:
                patch_class = PatchClass.NON_OUTLIER
                deployed = dict(mp_bitwidths)

            branches.append(
                BranchQuantization(
                    patch_id=branch_plan.patch_id,
                    patch_class=patch_class,
                    outlier_rate=rate,
                    bitwidths=deployed,
                    mp_bitwidths=mp_bitwidths,
                    vdqs=vdqs,
                )
            )
        suffix_fms = plan.suffix_feature_maps()
        if self.quantize_suffix and suffix_fms:
            def suffix_memory(fm: int, bits: int) -> int:
                return tensor_bytes(self.fm_index[fm].num_elements, bits)

            suffix_items = build_branch_items(
                suffix_fms, calculator, suffix_memory, self.candidate_bits
            )
            suffix_search = bitwidth_search(suffix_items, self.sram_limit_bytes)
            suffix_bits = dict(zip(suffix_fms, suffix_search.bitwidths))
        else:
            suffix_bits = {fm: 8 for fm in suffix_fms}
        search_seconds = time.perf_counter() - search_start

        result = QuantMCUResult(
            plan=plan,
            outlier_model=outlier_model,
            reference_node=reference_node,
            classification_mode=self.classification_mode,
            branches=branches,
            suffix_bits=suffix_bits,
            weight_bits=self.weight_bits,
            search_seconds=search_seconds,
            total_seconds=time.perf_counter() - total_start,
            bitops=0,
            peak_memory_bytes=0,
            activation_ranges=ranges,
        )
        result.bitops = self._total_bitops(result)
        result.peak_memory_bytes = self._peak_memory(result)
        result.total_seconds = time.perf_counter() - total_start
        return result

    # ----------------------------------------------------------------- pieces
    def _resolve_reference(self, plan: PatchPlan) -> str:
        reference_node = self.reference_node
        if reference_node is None:
            first_prefix_fm = plan.prefix_feature_maps()[0]
            reference_node = self.fm_index[first_prefix_fm].output_node
        return reference_node

    def _fit_vdpc(
        self, plan: PatchPlan, calibration_x: np.ndarray, activations: dict[int, np.ndarray]
    ) -> tuple[GaussianOutlierModel | None, str | None, list[float] | None]:
        """Fit the Gaussian model and measure per-branch outlier rates."""
        if not self.use_vdpc and self.classification_mode == "static":
            return None, None, None
        reference_node = self._resolve_reference(plan)
        if reference_node in (INPUT_NODE, "input"):
            reference_tensor = calibration_x
            region_key = INPUT_NODE
        else:
            fm = self.fm_index.by_output_node(reference_node)
            if fm is None:
                raise ValueError(f"reference node {reference_node!r} is not a feature map output")
            reference_tensor = activations[fm.index]
            region_key = reference_node

        model = GaussianOutlierModel.fit(reference_tensor, phi=self.phi, mode=self.phi_mode)
        rates: list[float] = []
        for branch in plan.branches:
            region = branch.clamped_regions.get(region_key)
            patch = (
                reference_tensor
                if region is None
                else reference_tensor[
                    :, :, region.row_start : region.row_stop, region.col_start : region.col_stop
                ]
            )
            # Per-calibration-sample decision: does this sample's patch contain outliers?
            per_sample = model.is_outlier(patch).reshape(patch.shape[0], -1).mean(axis=1)
            rates.append(float((per_sample > self.min_outlier_fraction).mean()))
        return model, reference_node, rates

    def _total_bitops(self, result: QuantMCUResult) -> int:
        total = 0.0
        for branch_plan, branch_quant in zip(result.plan.branches, result.branches):
            if self.classification_mode == "dynamic" and self.use_vdpc:
                mp_config = result.branch_config(branch_quant.patch_id)
                full_config = result.branch_config(branch_quant.patch_id, force_bits=8)
                rate = branch_quant.outlier_rate
                total += rate * branch_bitops(result.plan, branch_plan, full_config)
                total += (1.0 - rate) * branch_bitops(result.plan, branch_plan, mp_config)
            else:
                config = result.branch_config(branch_quant.patch_id)
                total += branch_bitops(result.plan, branch_plan, config)
        suffix_config = QuantizationConfig(
            activation_bits=dict(result.suffix_bits),
            default_activation_bits=8,
            default_weight_bits=self.weight_bits,
        )
        for idx in result.plan.suffix_feature_maps():
            fm = self.fm_index[idx]
            sources = self.fm_index.sources[idx]
            bits = [
                suffix_config.input_bits if s is None else suffix_config.act_bits(s)
                for s in sources
            ]
            a_bits = max(bits) if bits else 8
            total += fm.macs * self.weight_bits * a_bits
        return int(total)

    def _peak_memory(self, result: QuantMCUResult) -> int:
        plan = result.plan
        split_idx = plan.split_feature_map()
        peak = 0
        for branch_plan, branch_quant in zip(plan.branches, result.branches):
            config = result.branch_config(branch_quant.patch_id)
            split_buffer = feature_map_bytes(self.fm_index, split_idx, config)
            peak = max(peak, split_buffer + branch_peak_bytes(plan, branch_plan, config))
        suffix_config = QuantizationConfig(
            activation_bits=dict(result.suffix_bits),
            default_activation_bits=8,
            default_weight_bits=self.weight_bits,
        )
        peak = max(peak, patch_peak_bytes(plan, suffix_config))
        return peak

    # --------------------------------------------------------------- executor
    def make_hooks(self, result: QuantMCUResult):
        """Build the ``(branch_hook, suffix_hook)`` pair applying ``result``.

        The hooks are what turn a plain :class:`PatchExecutor` into the
        quantized QuantMCU execution; exposing them separately lets other
        executors over the same plan (e.g. the sharded executors of
        :mod:`repro.distributed`) apply an identical quantization.
        """
        ranges = result.activation_ranges

        if result.classification_mode == "static" or result.outlier_model is None or not self.use_vdpc:
            return make_static_hooks(
                ranges, [b.bitwidths for b in result.branches], result.suffix_bits
            )

        _quantize = _make_range_quantizer(ranges)

        def suffix_hook(fm, array: np.ndarray) -> np.ndarray:
            return _quantize(array, fm.index, result.suffix_bits.get(fm.index, 8))

        # Dynamic per-input classification.
        reference_fm = None
        if result.reference_node not in (INPUT_NODE, "input", None):
            ref = self.fm_index.by_output_node(result.reference_node)
            reference_fm = ref.index if ref is not None else None
        if reference_fm is None:
            reference_fm = result.plan.prefix_feature_maps()[0]
        model = result.outlier_model
        min_fraction = self.min_outlier_fraction
        outlier_masks: dict[int, np.ndarray] = {}

        def branch_hook(patch_id: int, fm, array: np.ndarray) -> np.ndarray:
            if fm.index == reference_fm:
                per_sample = model.is_outlier(array).reshape(array.shape[0], -1).mean(axis=1)
                outlier_masks[patch_id] = per_sample > min_fraction
            mask = outlier_masks.get(patch_id)
            mp_bits = result.branches[patch_id].mp_bitwidths.get(fm.index, 8)
            if mask is None or not mask.any():
                return _quantize(array, fm.index, mp_bits)
            if mask.all() or mp_bits == 8:
                return _quantize(array, fm.index, 8)
            out = np.empty_like(array)
            out[mask] = _quantize(array[mask], fm.index, 8)
            out[~mask] = _quantize(array[~mask], fm.index, mp_bits)
            return out

        return branch_hook, suffix_hook

    def make_executor(self, result: QuantMCUResult) -> PatchExecutor:
        """Build a patch executor applying the QuantMCU quantization.

        In static mode every branch uses its deployed bitwidths.  In dynamic
        mode the branch classifies each input sample when it reaches the
        reference feature map and applies 8-bit (outlier samples) or the VDQS
        assignment (non-outlier samples) from there on.
        """
        branch_hook, suffix_hook = self.make_hooks(result)
        return PatchExecutor(result.plan, branch_hook=branch_hook, suffix_hook=suffix_hook)

    @contextmanager
    def quantized_weights(self, bits: int | None = None):
        """Context manager temporarily replacing weights with fake-quantized copies."""
        bits = bits if bits is not None else self.weight_bits
        originals: dict[tuple[str, str], np.ndarray] = {}
        try:
            if bits < 32:
                for fm in self.fm_index:
                    layer = self.graph.nodes[fm.compute_node].layer
                    if "weight" in layer.params:
                        originals[(fm.compute_node, "weight")] = layer.params["weight"]
                        layer.params["weight"] = quantize_weight_per_channel(
                            layer.params["weight"], bits
                        )
            yield
        finally:
            for (node, pname), original in originals.items():
                self.graph.nodes[node].layer.params[pname] = original


@dataclass
class WholeModelVDQSResult:
    """VDQS applied to the whole model as a standalone quantizer (Table II)."""

    config: QuantizationConfig
    vdqs: VDQSResult
    bitops: int
    peak_memory_bytes: int
    storage_bytes: int
    search_seconds: float


def run_vdqs_whole_model(
    graph: Graph,
    calibration_x: np.ndarray,
    sram_limit_bytes: int,
    lam: float = DEFAULT_LAMBDA,
    candidate_bits: tuple[int, ...] = SUPPORTED_BITWIDTHS,
    weight_bits: int = 8,
    num_bins: int = 256,
    fm_index: FeatureMapIndex | None = None,
    phi_normalization: str = "mean_feature_map",
) -> WholeModelVDQSResult:
    """Run VDQS over every feature map of a layer-based model.

    This is the configuration the paper's Table II reports for QuantMCU
    ("8/MP"): weights stay at 8 bits and activations receive mixed precision
    chosen by the entropy/BitOPs score under the SRAM constraint.
    """
    from ..quant.memory import model_storage_bytes, peak_activation_bytes

    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    start = time.perf_counter()
    activations = collect_activations(graph, calibration_x, fm_index)
    calculator = QuantizationScoreCalculator(
        fm_index, activations, lam=lam, num_bins=num_bins, phi_normalization=phi_normalization
    )

    def memory_fn(fm: int, bits: int) -> int:
        return tensor_bytes(fm_index[fm].num_elements, bits)

    all_fms = list(range(len(fm_index)))
    items = build_branch_items(all_fms, calculator, memory_fn, candidate_bits)
    vdqs = bitwidth_search(items, sram_limit_bytes)
    config = QuantizationConfig(
        activation_bits=dict(zip(all_fms, vdqs.bitwidths)),
        default_activation_bits=8,
        default_weight_bits=weight_bits,
    )
    elapsed = time.perf_counter() - start
    return WholeModelVDQSResult(
        config=config,
        vdqs=vdqs,
        bitops=model_bitops(fm_index, config),
        peak_memory_bytes=peak_activation_bytes(fm_index, config),
        storage_bytes=model_storage_bytes(fm_index, config),
        search_seconds=elapsed,
    )
