"""Fixture tests for the eight project lint rules.

Every rule gets at least one failing fixture (the distilled shape of the
historical bug it encodes) and one passing fixture (the shape the fix took),
driven through :func:`repro.devtools.lint.lint_source` exactly as the CLI
drives real files.
"""

from __future__ import annotations

import textwrap

from repro.devtools.lint import lint_source


def lint(source: str, path: str = "src/repro/example.py", rules=None):
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


# ------------------------------------------------------------------- REP001
class TestSharedDefaultRng:
    def test_module_level_generator_flagged(self):
        findings = lint(
            """
            import numpy as np

            _DEFAULT_RNG = np.random.default_rng(0)
            """
        )
        assert codes(findings) == ["REP001"]
        assert "shared mutable state" in findings[0].message

    def test_class_level_generator_flagged(self):
        findings = lint(
            """
            import numpy as np

            class Initializer:
                rng = np.random.default_rng(7)
            """
        )
        assert codes(findings) == ["REP001"]
        assert "class-level" in findings[0].message

    def test_legacy_global_api_flagged(self):
        findings = lint(
            """
            import numpy as np

            def noise(shape):
                return np.random.standard_normal(shape)
            """
        )
        assert codes(findings) == ["REP001"]
        assert "np.random" in findings[0].context

    def test_import_alias_resolution(self):
        """The rule sees through `from numpy import random as nprand`."""
        findings = lint(
            """
            from numpy import random as nprand

            def noise(shape):
                return nprand.rand(*shape)
            """
        )
        assert codes(findings) == ["REP001"]

    def test_injected_generator_passes(self):
        findings = lint(
            """
            import numpy as np

            def init(shape, rng=None):
                rng = rng if rng is not None else np.random.default_rng(0)
                return rng.uniform(size=shape)
            """
        )
        assert findings == []

    def test_rule_skips_test_files(self):
        findings = lint(
            "import numpy as np\n_RNG = np.random.default_rng(0)\n",
            path="tests/test_example.py",
            rules=["REP001"],
        )
        assert findings == []


# ------------------------------------------------------------------- REP002
class TestBareLockAcquire:
    def test_acquire_release_pair_flagged(self):
        findings = lint(
            """
            import threading

            _lock = threading.Lock()

            def update(value):
                _lock.acquire()
                state = value
                _lock.release()
                return state
            """
        )
        assert codes(findings) == ["REP002", "REP002"]
        assert ".acquire()" in findings[0].message
        assert ".release()" in findings[1].message

    def test_with_block_passes(self):
        findings = lint(
            """
            import threading

            _lock = threading.Lock()

            def update(value):
                with _lock:
                    return value
            """
        )
        assert findings == []

    def test_lock_wrapper_class_exempt(self):
        """A class implementing acquire/release IS a lock; its internal
        delegation to the wrapped lock is where raw calls belong."""
        findings = lint(
            """
            class TracedLock:
                def __init__(self, inner):
                    self._inner = inner

                def acquire(self, blocking=True):
                    return self._inner.acquire(blocking)

                def release(self):
                    self._inner.release()

                def __enter__(self):
                    return self.acquire()

                def __exit__(self, *exc):
                    self.release()
            """
        )
        assert findings == []


# ------------------------------------------------------------------- REP003
class TestUnownedCloseable:
    def test_local_pool_never_closed_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(tasks):
                pool = ThreadPoolExecutor(max_workers=2)
                futures = [pool.submit(t) for t in tasks]
                results = [f.result() for f in futures]
                return results
            """,
            rules=["REP003"],
        )
        assert codes(findings) == ["REP003"]
        assert "ThreadPoolExecutor" in findings[0].message

    def test_returned_futures_count_as_handoff(self):
        """Heuristic boundary: a pool whose name escapes through the return
        expression is treated as handed off, not leaked."""
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(tasks):
                pool = ThreadPoolExecutor(max_workers=2)
                return pool, [pool.submit(t) for t in tasks]
            """,
            rules=["REP003"],
        )
        assert findings == []

    def test_with_block_passes(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(tasks):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    return [f.result() for f in [pool.submit(t) for t in tasks]]
            """,
            rules=["REP003"],
        )
        assert findings == []

    def test_explicit_shutdown_passes(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(tasks):
                pool = ThreadPoolExecutor(max_workers=2)
                try:
                    return [f.result() for f in [pool.submit(t) for t in tasks]]
                finally:
                    pool.shutdown()
            """,
            rules=["REP003"],
        )
        assert findings == []

    def test_returned_pool_passes(self):
        """Returning transfers ownership to the caller."""
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            def make_pool():
                return ThreadPoolExecutor(max_workers=2)
            """,
            rules=["REP003"],
        )
        assert findings == []

    def test_self_attr_in_class_with_close_passes(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            class Engine:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(max_workers=2)

                def close(self):
                    self._pool.shutdown()
            """,
            rules=["REP003"],
        )
        assert findings == []

    def test_self_attr_in_class_without_close_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            class Engine:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(max_workers=2)
            """,
            rules=["REP003"],
        )
        assert codes(findings) == ["REP003"]

    def test_project_executor_types_covered(self):
        findings = lint(
            """
            from repro.distributed import DistributedExecutor

            def leak(plan, cluster, x):
                ex = DistributedExecutor(plan, cluster)
                ex.forward(x)
            """,
            rules=["REP003"],
        )
        assert codes(findings) == ["REP003"]


# ------------------------------------------------------------------- REP004
class TestUnboundedMemo:
    def test_module_memo_without_eviction_flagged(self):
        findings = lint(
            """
            _latency_cache = {}

            def modelled_latency(batch_size):
                if batch_size not in _latency_cache:
                    _latency_cache[batch_size] = batch_size * 0.1
                return _latency_cache[batch_size]
            """
        )
        assert codes(findings) == ["REP004"]
        assert "_latency_cache" in findings[0].message

    def test_instance_memo_without_eviction_flagged(self):
        findings = lint(
            """
            class Engine:
                def __init__(self):
                    self._breakdown_memo = {}
            """
        )
        assert codes(findings) == ["REP004"]

    def test_memo_with_pop_eviction_passes(self):
        findings = lint(
            """
            _latency_cache = {}

            def modelled_latency(batch_size):
                if len(_latency_cache) > 64:
                    _latency_cache.pop(next(iter(_latency_cache)))
                if batch_size not in _latency_cache:
                    _latency_cache[batch_size] = batch_size * 0.1
                return _latency_cache[batch_size]
            """
        )
        assert findings == []

    def test_memo_with_del_eviction_passes(self):
        findings = lint(
            """
            _memo = {}

            def forget(key):
                del _memo[key]
            """
        )
        assert findings == []

    def test_non_memo_names_ignored(self):
        findings = lint(
            """
            _registry = {}
            options = {}
            """
        )
        assert findings == []


# ------------------------------------------------------------------- REP005
class TestGlobalRngInTests:
    def test_global_draw_in_test_flagged(self):
        findings = lint(
            """
            import numpy as np

            def test_noise():
                assert np.random.rand(3).shape == (3,)
            """,
            path="tests/nn/test_example.py",
        )
        assert codes(findings) == ["REP005"]
        assert "global NumPy RNG" in findings[0].message

    def test_np_random_seed_in_test_flagged(self):
        findings = lint(
            "import numpy as np\nnp.random.seed(0)\n",
            path="tests/conftest.py",
        )
        assert codes(findings) == ["REP005"]

    def test_seeded_local_generator_passes(self):
        findings = lint(
            """
            import numpy as np

            def test_noise():
                rng = np.random.default_rng(0)
                assert rng.standard_normal(3).shape == (3,)
            """,
            path="tests/nn/test_example.py",
        )
        assert findings == []

    def test_rule_skips_library_files(self):
        findings = lint(
            "import numpy as np\nx = np.random.rand(3)\n",
            path="src/repro/example.py",
            rules=["REP005"],
        )
        assert findings == []


# ------------------------------------------------------------------- REP006
class TestDunderAllDrift:
    def test_phantom_export_flagged(self):
        findings = lint(
            """
            __all__ = ["gone"]
            """
        )
        assert codes(findings) == ["REP006"]
        assert "'gone'" in findings[0].message

    def test_missing_public_def_flagged(self):
        findings = lint(
            """
            __all__ = ["present"]

            def present():
                pass

            def forgotten():
                pass
            """
        )
        assert codes(findings) == ["REP006"]
        assert "'forgotten'" in findings[0].message

    def test_matching_all_passes(self):
        findings = lint(
            """
            __all__ = ["Thing", "make_thing"]

            class Thing:
                pass

            def make_thing():
                return Thing()

            def _private_helper():
                pass
            """
        )
        assert findings == []

    def test_reexports_count_as_defined(self):
        findings = lint(
            """
            from collections import OrderedDict

            __all__ = ["OrderedDict"]
            """
        )
        assert findings == []

    def test_no_dunder_all_is_fine(self):
        findings = lint(
            """
            def anything():
                pass
            """
        )
        assert findings == []

    def test_star_import_disables_rule(self):
        findings = lint(
            """
            from os.path import *

            __all__ = ["join"]
            """
        )
        assert findings == []


# ------------------------------------------------------------------- REP007
HOT_PATH = "src/repro/nn/functional.py"


class TestHotLoopOverPatchDomain:
    def test_kernel_offset_loop_flagged(self):
        findings = lint(
            """
            def im2col(img, kh, kw):
                cols = []
                for i in range(kh):
                    for j in range(kw):
                        cols.append(img[i, j].copy())
                return cols
            """,
            path=HOT_PATH,
            rules=["REP007"],
        )
        assert codes(findings) == ["REP007"]
        assert "'kh'" in findings[0].message

    def test_nested_loop_reports_once_on_the_outer(self):
        # The kh/kw nest is one finding, so one noqa on the outer line
        # suppresses the whole oracle.
        findings = lint(
            """
            def oracle(img, kh, kw):
                for i in range(kh):  # repro: noqa[REP007] - the loop oracle
                    for j in range(kw):
                        img[i, j] = compute(i, j)
            """,
            path=HOT_PATH,
            rules=["REP007"],
        )
        assert findings == []

    def test_branch_comprehension_flagged(self):
        findings = lint(
            """
            def run(executor, x, branch_ids):
                return [executor.run_branch(i, x) for i in branch_ids]
            """,
            path="src/repro/backend/loop.py",
            rules=["REP007"],
        )
        assert codes(findings) == ["REP007"]

    def test_plan_branches_attribute_loop_flagged(self):
        findings = lint(
            """
            def stage(self, x):
                for branch in self.plan.branches:
                    self.run_branch(branch, x)
            """,
            path="src/repro/patch/executor.py",
            rules=["REP007"],
        )
        assert codes(findings) == ["REP007"]

    def test_pure_plumbing_loop_passes(self):
        # Index arithmetic over ids is bookkeeping, not kernel work.
        findings = lint(
            """
            def pair(branches, tiles, branch_ids):
                return [(branches[i], tiles[i]) for i in branch_ids]
            """,
            path=HOT_PATH,
            rules=["REP007"],
        )
        assert findings == []

    def test_cold_module_exempt(self):
        findings = lint(
            """
            def stage(self, x):
                for branch in self.plan.branches:
                    self.run_branch(branch, x)
            """,
            path="src/repro/serving/pipeline.py",
            rules=["REP007"],
        )
        assert findings == []

    def test_benchmarks_and_tests_exempt(self):
        source = """
            def test_loop(executor, x, branch_ids):
                for i in range(len(branch_ids)):
                    executor.run_branch(branch_ids[i], x)
            """
        for path in (
            "tests/backend/test_bit_exact.py",
            "benchmarks/repro/backend/vectorized.py",
        ):
            assert lint(source, path=path, rules=["REP007"]) == []

    def test_noqa_with_reason_suppresses(self):
        findings = lint(
            """
            def run(executor, x, branch_ids):
                for i in branch_ids:  # repro: noqa[REP007] - reference oracle
                    executor.run_branch(i, x)
            """,
            path=HOT_PATH,
            rules=["REP007"],
        )
        assert findings == []


# ------------------------------------------------------------------- REP008
class TestResourceOutsideRuntime:
    def test_thread_pool_outside_runtime_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            class Engine:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(max_workers=2)

                def close(self):
                    self._pool.shutdown()
            """,
            path="src/repro/serving/engine.py",
            rules=["REP008"],
        )
        assert codes(findings) == ["REP008"]
        assert "lease it from a Runtime" in findings[0].message

    def test_context_bound_fork_pool_flagged(self):
        """ctx.Pool(...) has a Call base, which resolve_dotted cannot see
        through; the rule must match on the leaf attribute name."""
        findings = lint(
            """
            import multiprocessing

            def make_pool(n):
                return multiprocessing.get_context("fork").Pool(processes=n)
            """,
            path="src/repro/backend/multiprocess.py",
            rules=["REP008"],
        )
        assert codes(findings) == ["REP008"]
        assert "Pool" in findings[0].message

    def test_shared_memory_flagged(self):
        findings = lint(
            """
            from multiprocessing import shared_memory

            def segment(size):
                return shared_memory.SharedMemory(create=True, size=size)
            """,
            path="src/repro/backend/multiprocess.py",
            rules=["REP008"],
        )
        assert codes(findings) == ["REP008"]

    def test_runtime_package_exempt(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            class Runtime:
                def thread_pool(self, n):
                    return ThreadPoolExecutor(max_workers=n)
            """,
            path="src/repro/runtime/resources.py",
            rules=["REP008"],
        )
        assert findings == []

    def test_tests_exempt(self):
        source = """
            from concurrent.futures import ThreadPoolExecutor

            def test_concurrent(tmp_path):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    pool.submit(print)
            """
        assert lint(source, path="tests/runtime/test_runtime.py", rules=["REP008"]) == []

    def test_noqa_with_reason_suppresses(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            def probe():
                pool = ThreadPoolExecutor(max_workers=1)  # repro: noqa[REP008] - probe harness
                pool.shutdown()
            """,
            path="src/repro/devtools/probe.py",
            rules=["REP008"],
        )
        assert findings == []
