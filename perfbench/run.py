"""End-to-end serving benchmark for the QuantMCU reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload closed_mnv2_64 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` traces every second operation from outside (wrappers on the
public methods of the instances this run built) and reports the per-layer
metrics, including the tracing overhead: the median latency of the traced
operations against that of the untraced ones interleaved with them.  Workloads and metrics are listed in ``BENCHMARK.json`` and
:mod:`perfbench.spec`.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count.  A full record (metrics,
provenance and, when traced, every span) is written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.  The exit code
is nonzero when any operation failed or returned a wrong output.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy is first imported: the host has two
# cores, shared by the load generator and the engine's batcher.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Measure the default kernel backend, whatever the calling shell selects.
os.environ.pop("REPRO_BACKEND", None)

import argparse  # noqa: E402
from dataclasses import asdict  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    """sha256 over every Python file of the program under test."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _provenance(seed: int, workload: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(ROOT),
        "src_sha256": _source_digest(SRC),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import spec, workloads
    from perfbench.stats import check_span_tree, tail_count, tail_percentile
    from perfbench.trace import Tracer

    workload = spec.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(spec.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(workload, args.seed, args.seconds)
    served, setups = workloads.set_up_repeatedly(workload, inputs)
    record: dict = {"provenance": _provenance(args.seed, workload.name)}
    try:
        refs = workloads.references(served.compiled, inputs.pool)
        tracer = Tracer(every=2) if args.trace else None
        phase = workloads.run_phase(workload, served, inputs, refs, args.seconds, tracer)
        if tracer is not None:
            spans = tracer.snapshot()
            check_span_tree(spans, spec.SPAN_TOLERANCE_S)
            metrics = workloads.per_layer(workload, phase, tracer, served, setups)
            units = spec.PER_LAYER
            record["spans"] = [asdict(span) for span in spans]
        else:
            metrics = workloads.end_to_end(workload, phase, setups, _peak_rss_mb())
            units = spec.END_TO_END
        # Failed operations are null.
        record["latencies_ms"] = [None if t is None else t * 1e3 for t in phase.latencies]
    finally:
        served.close()

    print(f"# {json.dumps(record['provenance'], sort_keys=True)}")
    print(
        f"{workload.name}: {phase.attempted} operations, "
        f"error_frac {phase.failed / phase.attempted:.6g} ({phase.failed} failed), "
        f"{len(setups)} set-ups"
    )
    samples = {
        "setup_s": len(setups),
        "latency_p50_ms": len(phase.ok),
        "latency_p75_ms": len(phase.ok),
        "throughput_rps": len(phase.ok),
        "slo_met_frac": phase.attempted,
    }
    for name, value in metrics.items():
        count = f"n={samples[name]}" if name in samples and not args.trace else ""
        print(f"  {name:36s} {value:14.6g} {units[name]:16s} {count}")
    if not args.trace:
        for q in (90, 99):
            name = f"latency_p{q}_ms"
            record[name] = tail_percentile(phase.ok, q) * 1e3
            print(f"  {name + ' (not gated)':36s} {record[name]:14.6g} {'ms':16s} "
                  f"n={len(phase.ok)}, {tail_count(len(phase.ok), q)} beyond")
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(result)
    out = ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if phase.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
