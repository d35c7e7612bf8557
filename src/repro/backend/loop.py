"""Reference loop backend: one branch at a time, one NumPy call per layer.

This is the pre-backend execution strategy preserved verbatim — it simply
drives :meth:`~repro.patch.executor.PatchExecutor.run_branch` — and it is the
bit-exactness oracle the vectorized and multiprocess backends are tested
against.  Because it calls ``executor.run_branch`` for every branch, it is
also the backend to choose for instrumentation: build the executor with
``backend="loop"`` and wrap ``run_branch`` to observe every branch (the
other backends never call it).
"""

from __future__ import annotations

import numpy as np

from .base import Backend

__all__ = ["LoopBackend"]


class LoopBackend(Backend):
    """Serial per-branch execution via ``executor.run_branch`` (the oracle)."""

    name = "loop"

    def run_branches(self, x, branch_ids):
        branches = self.plan.branches
        return [  # repro: noqa[REP007] - the loop reference itself
            (branches[i], self.executor.run_branch(branches[i], x))
            for i in branch_ids
        ]

    def run_patch_stage(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        for branch in self.plan.branches:  # repro: noqa[REP007] - the loop reference itself
            tile = branch.output_region
            out[:, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = (
                self.executor.run_branch(branch, x)
            )
        return out
