"""Lint-engine wall-time benchmark over ``src/``.

The lint gate runs on every CI push, so its own cost sits on the perf
trajectory like any hot path.  This benchmark times one full run over
``src/`` via :func:`repro.devtools.bench.run_lint_bench` (writing its snapshot
to a temporary file, so a test run leaves the checked-in
``BENCH_devtools.json`` alone — refresh that with
``python -m repro.devtools bench``) and asserts the engine stays fast enough
to gate on — a regression back to per-rule tree re-walks roughly
octuples the wall time and should fail loudly here.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.devtools.bench import run_lint_bench

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

# Generous ceiling (measured ~0.25 s best-of-3 on the dev container); the
# point is catching order-of-magnitude regressions, not machine variance.
MAX_SECONDS_PER_RUN = 5.0


def test_bench_devtools_lint(bench_once, tmp_path):
    out = tmp_path / "BENCH_devtools.json"
    snapshot = bench_once(run_lint_bench, (str(SRC),), out=str(out), repeats=1)
    assert snapshot["files_checked"] > 0
    assert snapshot["wall_seconds_best"] < MAX_SECONDS_PER_RUN
    # The snapshot on disk is the one just produced.
    on_disk = json.loads(out.read_text())
    assert on_disk["files_checked"] == snapshot["files_checked"]
