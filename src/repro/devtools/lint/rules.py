"""The eight project rules, each distilled from a bug (or a measured
performance cliff) this repo shipped.

========  ==================================================================
REP001    No module-level / shared default RNG in library code.  The
          ``_DEFAULT_RNG`` stream in ``nn/initializers.py`` made weight
          initialization depend on how many layers *other* code had built
          first, which produced an order-dependent flaky training test
          (deflaked in PR 3).  Inject ``np.random.Generator`` instead.
REP002    No bare ``Lock.acquire()``/``release()`` — a raised exception
          between the pair leaves the lock held forever.  Use ``with``.
REP003    Closeable resources (thread pools, parallel/distributed
          executors, device shards) must have an ownership path to
          ``close()``: the compile-race of PR 1's ``PipelineCache`` leaked
          whole worker pools because the losing pipeline of a concurrent
          compile was never released.
REP004    Dict memos on hot paths must declare an eviction path.  The
          engine's modelled-latency memo grew one entry per distinct batch
          size *forever* until PR 3 LRU-capped it.
REP005    Tests must not draw from the global NumPy RNG — test order then
          changes the stream every other test sees (the exact mechanism
          behind the ``test_fit_learns_separable_task`` flake).
REP006    ``__all__`` must match the module's public defs; drift means the
          documented API and the real API disagree.
REP007    No per-element Python loop over a patch grid or kernel offsets in
          the hot kernel modules (``nn/functional``, ``patch/executor``,
          ``repro.backend``).  PR 8 measured the interpreted patch loop at
          3-5x the wall time of the batched backend; kernels belong behind
          ``repro.backend`` as vectorized NumPy.  Reference oracles are the
          sanctioned exception — suppress with a ``noqa`` naming them.
REP008    No direct thread-pool / process-pool / shared-memory construction
          outside ``repro/runtime/``.  Before the shared
          :class:`~repro.runtime.Runtime` existed, five classes privately
          owned pools with five slightly different lifecycles (and the
          engine's latency model leaked whole device-pool sets); resources
          are leased from a runtime so one ``close()`` releases everything.
========  ==================================================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .framework import Finding, LintRule, ModuleSource, register_rule

__all__ = [
    "SharedDefaultRng",
    "BareLockAcquire",
    "UnownedCloseable",
    "UnboundedMemo",
    "GlobalRngInTests",
    "DunderAllDrift",
    "HotLoopOverPatchDomain",
    "ResourceOutsideRuntime",
]

#: numpy.random attributes that are *not* the legacy global-state API.
_NEW_STYLE_RNG = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Constructors whose instances hold threads / pools and must reach close().
_CLOSEABLE_CTORS = {
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "DistributedExecutor",
    "DeviceShard",
    "InferenceEngine",
}

_MEMO_NAME_RE = re.compile(r"cache|memo|breakdown", re.IGNORECASE)

_EMPTY_MAPPING_CTORS = {"dict", "OrderedDict", "defaultdict", "WeakValueDictionary"}


def _parent(node: ast.AST) -> ast.AST | None:
    # Parent pointers are attached once by ModuleSource; rules only read them.
    return getattr(node, "_lint_parent", None)


def _enclosing(node: ast.AST, kinds: tuple[type, ...]) -> ast.AST | None:
    current = _parent(node)
    while current is not None and not isinstance(current, kinds):
        current = _parent(current)
    return current


# --------------------------------------------------------------------- REP001
@register_rule
class SharedDefaultRng(LintRule):
    code = "REP001"
    name = "shared-default-rng"
    severity = "error"
    scope = "library"
    description = (
        "Module- or class-level RNG instances are shared mutable state: the "
        "values any caller draws depend on every draw made before it, "
        "anywhere in the process.  Inject np.random.Generator instead."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        # (a) module/class-level assignment of a generator (shared stream).
        scopes: list[tuple[str, list[ast.stmt]]] = [("module", module.tree.body)]
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                scopes.append(("class", node.body))
        for scope_kind, body in scopes:
            for stmt in body:
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                value = stmt.value
                if value is None:
                    continue
                for call in ast.walk(value):
                    if isinstance(call, ast.Call):
                        dotted = module.resolve_dotted(call.func)
                        # Legacy global-API calls are reported by clause (b);
                        # this clause flags stored new-style generator streams.
                        if (
                            dotted is not None
                            and dotted.startswith("numpy.random.")
                            and dotted.rsplit(".", 1)[1] in _NEW_STYLE_RNG
                        ):
                            yield module.finding(
                                self,
                                stmt,
                                f"{scope_kind}-level RNG is shared mutable state; "
                                "inject an np.random.Generator per call or per "
                                "instance instead",
                            )
                            break
        # (b) any use of the legacy global-state numpy.random API.
        for node in module.nodes:
            if isinstance(node, ast.Call):
                dotted = module.resolve_dotted(node.func)
                if (
                    dotted is not None
                    and dotted.startswith("numpy.random.")
                    and dotted.rsplit(".", 1)[1] not in _NEW_STYLE_RNG
                ):
                    yield module.finding(
                        self,
                        node,
                        f"legacy global-RNG call {dotted}() mutates process-wide "
                        "state; use an injected np.random.Generator",
                    )


# --------------------------------------------------------------------- REP002
@register_rule
class BareLockAcquire(LintRule):
    code = "REP002"
    name = "bare-lock-acquire"
    severity = "error"
    scope = "library"
    description = (
        "Explicit acquire()/release() pairs leak the lock if any statement "
        "between them raises; use `with lock:` so release is unconditional."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
                and not self._in_lock_implementation(node)
            ):
                yield module.finding(
                    self,
                    node,
                    f"bare .{node.func.attr}() call; manage the lock with a "
                    "`with` block instead",
                )

    @staticmethod
    def _in_lock_implementation(node: ast.AST) -> bool:
        """A class that itself defines acquire/release IS a lock (wrapper);
        its internal delegation is the one place raw calls belong."""
        enclosing = _enclosing(node, (ast.ClassDef,))
        return enclosing is not None and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in ("acquire", "release")
            for item in enclosing.body
        )


# --------------------------------------------------------------------- REP003
@register_rule
class UnownedCloseable(LintRule):
    code = "REP003"
    name = "unowned-closeable"
    severity = "error"
    scope = "library"
    description = (
        "A worker pool / executor created without an ownership path to "
        "close() leaks its threads; store it on an object with close(), use "
        "a with block, return it, or hand it to an owner."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        classes_with_close = {
            node
            for node in module.nodes
            if isinstance(node, ast.ClassDef)
            and any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in ("close", "shutdown", "__exit__", "stop")
                for item in node.body
            )
        }
        for call in module.nodes:
            if not isinstance(call, ast.Call):
                continue
            ctor = self._closeable_name(module, call)
            if ctor is None:
                continue
            if not self._is_owned(module, call, classes_with_close):
                yield module.finding(
                    self,
                    call,
                    f"{ctor} created without an ownership path to close(); "
                    "use `with`, store it on an object that closes it, or "
                    "return it to the caller",
                )

    @staticmethod
    def _closeable_name(module: ModuleSource, call: ast.Call) -> str | None:
        dotted = module.resolve_dotted(call.func)
        if dotted is None:
            return None
        if dotted in _CLOSEABLE_CTORS:
            return dotted
        tail = dotted.rsplit(".", 1)[-1]
        return tail if tail in _CLOSEABLE_CTORS else None

    def _is_owned(
        self, module: ModuleSource, call: ast.Call, classes_with_close: set
    ) -> bool:
        parent = _parent(call)
        # `with Ctor() as x:` — the with block guarantees release.
        if isinstance(parent, ast.withitem):
            return True
        # `return Ctor()` / `yield Ctor()` — the caller takes ownership.
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        # `something(Ctor())` / `[Ctor(...) for ...]` handed to a collection
        # or another call — ownership transfers to the receiver.
        if isinstance(parent, ast.Call) and call in parent.args:
            return True
        if isinstance(parent, ast.keyword) and isinstance(_parent(parent), ast.Call):
            return True
        if isinstance(parent, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._comprehension_owned(module, parent, classes_with_close)
        if isinstance(parent, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            # Inside a literal: ownership follows the literal's own fate.
            grand = _parent(parent)
            if isinstance(grand, (ast.Assign, ast.AnnAssign, ast.Return)):
                parent = grand
            else:
                return False
        # `x = Ctor()` / `self.attr = Ctor()` — trace the assignment target.
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            return self._assignment_owned(module, parent, classes_with_close)
        return False

    def _comprehension_owned(self, module, comp, classes_with_close) -> bool:
        outer = _parent(comp)
        while isinstance(outer, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            outer = _parent(outer)
        if isinstance(outer, (ast.Return, ast.Yield)):
            return True
        if isinstance(outer, ast.Call) and comp in outer.args:
            return True
        if isinstance(outer, (ast.Assign, ast.AnnAssign)):
            return self._assignment_owned(module, outer, classes_with_close)
        return False

    def _assignment_owned(self, module, assign, classes_with_close) -> bool:
        targets = assign.targets if isinstance(assign, ast.Assign) else [assign.target]
        for target in targets:
            # `self.attr = Ctor()` inside a class that defines close().
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                enclosing_class = _enclosing(assign, (ast.ClassDef,))
                if enclosing_class in classes_with_close:
                    return True
                return False
            # `container[key] = Ctor()` — the container owns it.
            if isinstance(target, ast.Subscript):
                return True
            if isinstance(target, ast.Name):
                scope = _enclosing(assign, (ast.FunctionDef, ast.AsyncFunctionDef))
                body = scope.body if scope is not None else module.tree.body
                if self._name_reaches_owner(target.id, body):
                    return True
        return False

    @staticmethod
    def _name_reaches_owner(name: str, body: list[ast.stmt]) -> bool:
        """Does ``name`` later get closed, with-ed, returned or handed off?"""
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == name
                    and node.attr in ("close", "shutdown")
                ):
                    return True
                if isinstance(node, ast.withitem):
                    expr = node.context_expr
                    if isinstance(expr, ast.Name) and expr.id == name:
                        return True
                if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
                    for leaf in ast.walk(node.value):
                        if isinstance(leaf, ast.Name) and leaf.id == name:
                            return True
                if isinstance(node, ast.Call):
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        for leaf in ast.walk(arg):
                            if isinstance(leaf, ast.Name) and leaf.id == name:
                                return True
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    value = node.value
                    if isinstance(value, ast.Name) and value.id == name:
                        targets = (
                            node.targets if isinstance(node, ast.Assign) else [node.target]
                        )
                        if any(
                            isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
                        ):
                            return True
        return False


# --------------------------------------------------------------------- REP004
@register_rule
class UnboundedMemo(LintRule):
    code = "REP004"
    name = "unbounded-memo"
    severity = "warning"
    scope = "library"
    description = (
        "A module- or instance-level dict memo with no eviction path grows "
        "for the life of the process; declare an LRU cap or an eviction hook."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for target_name, stmt in self._memo_assignments(module):
            if not self._has_eviction(module, target_name):
                yield module.finding(
                    self,
                    stmt,
                    f"dict memo {target_name!r} has no eviction path in this "
                    "module; cap it (LRU popitem loop) or evict via a hook",
                )

    def _memo_assignments(self, module: ModuleSource):
        """(name, stmt) for empty-mapping assignments to memo-named targets."""
        candidates: list[tuple[ast.stmt, list[ast.expr]]] = []
        module_body = set(map(id, module.tree.body))
        for stmt in module.nodes:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if id(stmt) in module_body:
                candidates.append((stmt, targets))
                continue
            self_targets = [
                t
                for t in targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ]
            if self_targets:
                candidates.append((stmt, self_targets))
        for stmt, targets in candidates:
            if not self._is_empty_mapping(stmt.value):
                continue
            for target in targets:
                name = None
                if isinstance(target, ast.Name):
                    name = target.id
                elif isinstance(target, ast.Attribute):
                    name = target.attr
                if name is not None and _MEMO_NAME_RE.search(name):
                    yield name, stmt

    @staticmethod
    def _is_empty_mapping(value: ast.expr) -> bool:
        if isinstance(value, ast.Dict) and not value.keys:
            return True
        if isinstance(value, ast.Call) and not value.args and not value.keywords:
            func = value.func
            tail = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            return tail in _EMPTY_MAPPING_CTORS
        return False

    @staticmethod
    def _has_eviction(module: ModuleSource, name: str) -> bool:
        """Any ``<name>.pop/popitem/clear`` or ``del <name>[...]`` in module."""
        for node in module.nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("pop", "popitem", "clear")
            ):
                base = node.value
                base_name = None
                if isinstance(base, ast.Name):
                    base_name = base.id
                elif isinstance(base, ast.Attribute):
                    base_name = base.attr
                if base_name == name:
                    return True
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        base = target.value
                        base_name = (
                            base.id
                            if isinstance(base, ast.Name)
                            else getattr(base, "attr", None)
                        )
                        if base_name == name:
                            return True
        return False


# --------------------------------------------------------------------- REP005
@register_rule
class GlobalRngInTests(LintRule):
    code = "REP005"
    name = "global-rng-in-tests"
    severity = "error"
    scope = "test"
    description = (
        "A test drawing from the global NumPy RNG couples every test's "
        "randomness to execution order; seed a local default_rng instead."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.Call):
                dotted = module.resolve_dotted(node.func)
                if (
                    dotted is not None
                    and dotted.startswith("numpy.random.")
                    and dotted.rsplit(".", 1)[1] not in _NEW_STYLE_RNG
                ):
                    yield module.finding(
                        self,
                        node,
                        f"test draws from the global NumPy RNG ({dotted}()); "
                        "use a seeded np.random.default_rng(...) local to the test",
                    )


# --------------------------------------------------------------------- REP006
@register_rule
class DunderAllDrift(LintRule):
    code = "REP006"
    name = "dunder-all-drift"
    severity = "warning"
    scope = "library"
    description = (
        "__all__ disagreeing with the module's public defs means the "
        "documented API and the real one diverged."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        all_node, exported = self._dunder_all(module)
        if all_node is None:
            return
        defined: set[str] = set(module.import_aliases)
        public_defs: dict[str, ast.stmt] = {}
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                if not stmt.name.startswith("_"):
                    public_defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        return  # star re-export: membership is not decidable
                    defined.add(alias.asname or alias.name.split(".")[0])
        for name in exported:
            if name not in defined:
                yield module.finding(
                    self, all_node, f"__all__ exports {name!r} which is not defined here"
                )
        for name, stmt in sorted(public_defs.items()):
            if name not in exported:
                yield module.finding(
                    self,
                    stmt,
                    f"public {type(stmt).__name__.replace('Def', '').lower()} "
                    f"{name!r} is missing from __all__",
                )

    @staticmethod
    def _dunder_all(module: ModuleSource) -> tuple[ast.stmt | None, set[str]]:
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
                )
                and isinstance(stmt.value, (ast.List, ast.Tuple))
            ):
                names = {
                    elt.value
                    for elt in stmt.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
                return stmt, names
        return None, set()


# --------------------------------------------------------------------- REP007
#: Modules where per-element patch/kernel loops cost real wall time (PR 8
#: measured 3-5x): the NumPy kernels, the patch executor, and the compute
#: backends themselves.
_HOT_MODULE_RE = re.compile(
    r"(?:^|/)repro/(?:nn/functional|patch/executor|backend/[a-z_]+)\.py$"
)

#: Names that denote a patch-grid or kernel-offset domain when looped over.
_HOT_DOMAIN_RE = re.compile(
    r"^(?:kh|kw|kernel_h|kernel_w|kernel_size|num_patches|num_branches"
    r"|branches|branch_ids|patches|patch_ids)$"
)

#: Iterator wrappers that are transparent for domain detection: looping over
#: ``enumerate(branches)`` or ``range(num_patches)`` is still a domain loop.
_ITER_WRAPPERS = {"range", "enumerate", "zip", "reversed", "sorted"}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


@register_rule
class HotLoopOverPatchDomain(LintRule):
    code = "REP007"
    name = "python-loop-in-hot-kernel"
    severity = "warning"
    scope = "library"
    description = (
        "An interpreted per-element loop over a patch grid or kernel offsets "
        "in a hot kernel module pays the Python dispatch cost once per "
        "element; batch it through the vectorized compute backend (stacked "
        "scratch + strided windows).  Reference oracles keep their loops — "
        "suppress with `# repro: noqa[REP007] - <why>`."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not _HOT_MODULE_RE.search(module.path):
            return
        for node in module.nodes:
            if isinstance(node, ast.For):
                iters, anchor = [node.iter], node
            elif isinstance(node, _COMPREHENSIONS):
                iters, anchor = [gen.iter for gen in node.generators], node
            else:
                continue
            domain = next(
                (name for it in iters if (name := self._domain_name(it))), None
            )
            if domain is None:
                continue
            # A nested loop inside an already-flagged domain loop is the same
            # finding (e.g. the kh/kw nest of an im2col oracle): one report —
            # and one suppression — on the outermost loop covers the nest.
            if self._inside_hot_loop(module, node):
                continue
            if not self._does_work(node, iters):
                continue
            kind = "for loop" if isinstance(node, ast.For) else "comprehension"
            yield module.finding(
                self,
                anchor,
                f"per-element {kind} over {domain!r} in a hot kernel module; "
                "batch it through the vectorized backend, or noqa a reference "
                "oracle",
            )

    @classmethod
    def _domain_name(cls, iter_expr: ast.expr) -> str | None:
        """The hot domain this expression iterates, or None.

        Direct iteration (``for b in branches`` / ``self.plan.branches``)
        matches on the trailing name; wrapped iteration matches hot names
        anywhere in the wrapper's arguments (``range(num_patches * 2)``,
        ``enumerate(branch_ids)``, ``range(len(patches))``).
        """
        if isinstance(iter_expr, ast.Call):
            func = iter_expr.func
            fname = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if fname not in _ITER_WRAPPERS:
                return None
            for arg in iter_expr.args:
                for leaf in ast.walk(arg):
                    name = cls._leaf_name(leaf)
                    if name is not None and _HOT_DOMAIN_RE.match(name):
                        return name
            return None
        name = cls._leaf_name(iter_expr)
        if name is not None and _HOT_DOMAIN_RE.match(name):
            return name
        return None

    @staticmethod
    def _leaf_name(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    @classmethod
    def _inside_hot_loop(cls, module: ModuleSource, node: ast.AST) -> bool:
        current = module.parent(node)
        while current is not None:
            if isinstance(current, ast.For) and cls._domain_name(current.iter):
                return True
            if isinstance(current, _COMPREHENSIONS) and any(
                cls._domain_name(gen.iter) for gen in current.generators
            ):
                return True
            current = module.parent(current)
        return False

    @staticmethod
    def _does_work(node: ast.AST, iters: list[ast.expr]) -> bool:
        """Per-element *work* means a call in the loop body.

        Pure data plumbing — ``[(branches[i], tiles[i]) for i in ids]`` —
        is index arithmetic, not kernel work, and stays legal.  The iterator
        expressions themselves are excluded so ``enumerate(...)`` in the
        header does not count as body work.
        """
        iter_nodes = {id(n) for it in iters for n in ast.walk(it)}
        return any(
            isinstance(inner, ast.Call) and id(inner) not in iter_nodes
            for inner in ast.walk(node)
        )


# --------------------------------------------------------------------- REP008
#: The one directory allowed to construct concurrency resources directly.
_RUNTIME_MODULE_RE = re.compile(r"(?:^|/)repro/runtime/")

#: Leaf names of the resource constructors the runtime owns.  "Pool" covers
#: both ``multiprocessing.Pool`` and context-bound ``ctx.Pool`` calls (the
#: dotted resolver cannot see through ``get_context(...).Pool``).
_RUNTIME_CTORS = {
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "SharedMemory",
    "Pool",
}


@register_rule
class ResourceOutsideRuntime(LintRule):
    code = "REP008"
    name = "resource-outside-runtime"
    severity = "error"
    scope = "library"
    description = (
        "Thread pools, process pools and shared-memory segments are "
        "constructed only inside repro/runtime/ — everything else leases "
        "them from a Runtime, so lifecycles are refcounted in one place and "
        "one Runtime.close() releases every resource.  Code with a genuine "
        "reason to bypass the runtime must say so with "
        "`# repro: noqa[REP008] - <why>`."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if _RUNTIME_MODULE_RE.search(module.path):
            return
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            leaf = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if leaf in _RUNTIME_CTORS:
                yield module.finding(
                    self,
                    node,
                    f"direct {leaf}(...) construction outside repro/runtime/; "
                    "lease it from a Runtime (thread_pool/fork_pool/"
                    "shared_segment) instead",
                )
