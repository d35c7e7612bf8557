"""Execution policies: one validated description of *how* to execute.

:class:`ExecutionPolicy` is the only way to choose how the serving stack
executes.  Every entry point (``InferenceEngine``, ``CompiledPipeline``'s
``executor``/``infer``/``open_stream``, ``PipelineParallelScheduler``) takes
one ``policy=`` value with three orthogonal axes:

placement
    *Where* branches run: :func:`local` (the calling thread),
    :func:`threads` (sharded across n host worker threads), or
    :func:`cluster` (sharded across simulated devices); both sharded
    placements run through one :class:`~repro.distributed.DistributedExecutor`.
backend
    *How* a branch chunk is computed: ``loop`` | ``vectorized`` |
    ``multiprocess`` (see :mod:`repro.backend`); ``None`` defers to the
    pipeline default and ultimately ``REPRO_BACKEND``.
tier
    *How fresh* the served result must be: ``exact`` (bit-identical, the
    default), ``displaced`` (pipeline-parallel rounds start from the previous
    micro-batch's frame, verify-and-patched back to bit-identity), or
    ``stale_halo`` (the explicit approximate tier with bounded per-branch
    staleness and drift sampling).

Invalid values are rejected when a :class:`Placement` or policy is built;
an entry point that cannot honour a tier (``displaced`` outside the
scheduler) rejects it when called.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..hardware.cluster import ClusterSpec

__all__ = [
    "FRESHNESS_TIERS",
    "PLACEMENT_KINDS",
    "ExecutionPolicy",
    "Placement",
    "cluster",
    "local",
    "threads",
]

PLACEMENT_KINDS = ("local", "threads", "cluster")
FRESHNESS_TIERS = ("exact", "displaced", "stale_halo")

@dataclass(frozen=True)
class Placement:
    """Where branch work runs; build one with :func:`local` /
    :func:`threads` / :func:`cluster` rather than directly."""

    kind: str = "local"
    max_workers: int | None = None
    cluster: ClusterSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ValueError(
                f"placement kind must be one of {PLACEMENT_KINDS}, got {self.kind!r}"
            )
        if self.kind == "cluster":
            if self.cluster is None:
                raise ValueError("cluster placement requires a ClusterSpec")
            if not isinstance(self.cluster, ClusterSpec):
                raise TypeError(
                    f"cluster placement takes a ClusterSpec, got {type(self.cluster).__name__}"
                )
        elif self.cluster is not None:
            raise ValueError(f"{self.kind!r} placement does not take a cluster")
        if self.max_workers is not None:
            if self.kind != "threads":
                raise ValueError(f"{self.kind!r} placement does not take max_workers")
            if self.max_workers < 1:
                raise ValueError("max_workers must be >= 1")

    @property
    def cache_key(self) -> tuple:
        """Hashable identity for executor caches."""
        if self.kind == "cluster":
            return ("cluster", self.cluster.cache_key)
        return (self.kind, self.max_workers)


def local() -> Placement:
    """Run branches sequentially on the calling thread."""
    return Placement("local")


def threads(max_workers: int | None = None) -> Placement:
    """Shard branches over ``max_workers`` host worker threads (default: one
    per branch, capped at the CPU count)."""
    return Placement("threads", max_workers=max_workers)


def cluster(spec: ClusterSpec) -> Placement:
    """Shard branches across the devices of ``spec``."""
    return Placement("cluster", cluster=spec)


@dataclass(frozen=True)
class ExecutionPolicy:
    """One immutable description of how to execute (see module docstring).

    ``max_stale_frames`` and ``drift_sample_every`` parameterize the
    ``stale_halo`` tier exactly as they do on
    :class:`~repro.streaming.StreamSession` (``max_stale_frames=0``
    degenerates to exact behaviour; ``None`` leaves staleness unbounded).
    """

    placement: Placement = Placement()
    backend: str | None = None
    tier: str = "exact"
    max_stale_frames: int | None = None
    drift_sample_every: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.placement, Placement):
            raise TypeError(
                f"placement must be a Placement, got {type(self.placement).__name__}"
            )
        if self.backend is not None:
            from ..backend import available_backends

            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; "
                    f"available: {', '.join(available_backends())}"
                )
        if self.tier not in FRESHNESS_TIERS:
            raise ValueError(
                f"tier must be one of {FRESHNESS_TIERS}, got {self.tier!r}"
            )
        if self.drift_sample_every < 0:
            raise ValueError("drift_sample_every must be >= 0")
        if self.max_stale_frames is not None and self.max_stale_frames < 0:
            raise ValueError("max_stale_frames must be >= 0 (or None for unbounded)")

    # ------------------------------------------------------------- resolution
    def resolved_backend(self) -> str:
        """The backend name after ``REPRO_BACKEND``/default resolution."""
        from ..backend import DEFAULT_BACKEND

        return self.backend or os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND

    def with_tier(
        self,
        tier: str,
        max_stale_frames: int | None = None,
        drift_sample_every: int | None = None,
    ) -> "ExecutionPolicy":
        """This policy with a different freshness tier."""
        return replace(
            self,
            tier=tier,
            max_stale_frames=(
                max_stale_frames if max_stale_frames is not None else self.max_stale_frames
            ),
            drift_sample_every=(
                drift_sample_every
                if drift_sample_every is not None
                else self.drift_sample_every
            ),
        )
