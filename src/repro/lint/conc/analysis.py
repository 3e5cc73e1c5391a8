"""Worker-reachability and the RP301–RP305 concurrency rules.

The pass runs after the flow fixpoint on the same
:class:`~repro.lint.flow.callgraph.ProgramIndex`:

1. scan every module's process-global state (:mod:`effects`),
2. collect per-function effect summaries,
3. compute *worker-reachability* — a function is worker-reachable when
   it is a registered parallel task, a pool/executor dispatch target, a
   ``multiprocessing.Process`` target, or (transitively) called by one
   over the name-based call graph — and *parent-reachability* (module
   top level plus every function containing a dispatch site, and their
   callees),
4. emit findings:

========  ==========================  =================================
Rule id   Name                        Violation
========  ==========================  =================================
RP301     fork-duplicated-rng         worker-reachable draw from stdlib
                                      ``random`` module state or a
                                      cached deterministic generator
RP302     shared-mutable-in-worker    worker-reachable read or write of
                                      module/class-level mutable state
                                      outside the read-only whitelist
RP303     secret-over-pickle          SECRET value crosses a task-shard
                                      / pickle boundary unsanitized
RP304     fork-unsafe-lazy-init       first-touch init of a process
                                      global on both sides of the fork
RP305     nondeterministic-chunk-order worker results merged through
                                      set/dict/completion order
========  ==========================  =================================

Registering an ``os.register_at_fork`` hook that resets a global is the
sanctioned discipline for per-process caches: it exempts that global
from RP301/RP302/RP304.
"""

from __future__ import annotations

import ast
from collections import deque

from repro.lint.conc import registry as creg
from repro.lint.conc.effects import (
    FunctionEffects,
    ModuleState,
    function_effects,
    is_dispatch_call,
    is_pool_dispatch,
    scan_module_state,
)
from repro.lint.dataflow import RuleMeta, WholeProgramPass, clip, terminal_name
from repro.lint.findings import Finding
from repro.lint.flow.analysis import TaintAnalysis
from repro.lint.flow.callgraph import FunctionInfo, ProgramIndex
from repro.lint.flow.lattice import SECRET
from repro.lint.flow import registry as freg

RP301 = "RP301"
RP302 = "RP302"
RP303 = "RP303"
RP304 = "RP304"
RP305 = "RP305"

CONC_RULES: tuple[RuleMeta, ...] = (
    RuleMeta(
        RP301,
        "fork-duplicated-rng",
        "worker-reachable code draws from the stdlib `random` module "
        "state or a cached deterministic generator — forked children "
        "inherit identical state and replay the same 'random' stream "
        "(duplicate nonces across workers)",
        "draw from os.urandom/secrets (e.g. repro.crypto.rng.process_rng) "
        "inside workers, or guard the cache with an os.register_at_fork "
        "reseed hook",
    ),
    RuleMeta(
        RP302,
        "shared-mutable-in-worker",
        "worker-reachable code reads or writes module/class-level "
        "mutable state — under fork each child gets a divergent copy-"
        "on-write copy, under spawn a freshly imported one, so parent "
        "and workers silently disagree",
        "pass the state through the task payload, make the registry "
        "write-once at import time (read-only whitelist), or register "
        "an os.register_at_fork reset hook",
    ),
    RuleMeta(
        RP303,
        "secret-over-pickle",
        "a secret value crosses a pickle/task-shard boundary to worker "
        "processes without passing the bytes-only shard sanitizer — "
        "pickled object graphs copy secrets into pool pipes and worker "
        "heaps outside the library's zeroization reach",
        "wrap the encoded secret in repro.parallel.shard_secret (bytes "
        "only), or derive a per-shard key first",
    ),
    RuleMeta(
        RP304,
        "fork-unsafe-lazy-init",
        "process-global state is first-touch initialized by code that "
        "runs on both sides of the fork point — a child forked after "
        "the parent's first touch inherits the parent's instance while "
        "a child forked before builds its own",
        "initialize eagerly at import, or register an "
        "os.register_at_fork hook that resets the global in the child",
    ),
    RuleMeta(
        RP305,
        "nondeterministic-chunk-order",
        "worker results are merged through set/dict iteration order or "
        "a completion-order stream (`imap_unordered`/`as_completed`) — "
        "output order then depends on OS scheduling, not input order",
        "collect results in submission order (pool.map / sorted keys) "
        "or reorder by an explicit index before merging",
    ),
)

CONC_RULE_IDS = tuple(meta.id for meta in CONC_RULES)

# Attribute-call terminals excluded from call-graph edges: generic
# container/codec method names that would otherwise resolve (name-based)
# to unrelated in-tree functions and inflate worker-reachability.
_GENERIC_ATTR_CALLS = creg.MUTATING_METHODS | frozenset(
    {"get", "items", "keys", "values", "copy", "encode", "decode",
     "join", "split", "close", "hexdigest", "digest"}
)


class ConcurrencyAnalysis(WholeProgramPass):
    """One whole-program fork-safety pass over a solved taint analysis
    (RP303 reads its return summaries)."""

    RULES = CONC_RULES

    def __init__(self, index: ProgramIndex, taint: TaintAnalysis):
        super().__init__(index)
        self.taint = taint
        self.states: dict[str, ModuleState] = {
            module.path: scan_module_state(module.path, module.node)
            for module in index.module_functions
        }
        self.effects: dict[int, FunctionEffects] = {}
        self.edges: dict[int, list[FunctionInfo]] = {}
        for func in self.index.all_functions:
            state = self.states[func.path]
            imports = self.index.imports_of(func.path)
            self.effects[id(func)] = function_effects(func, state, imports)
            self.edges[id(func)] = self._call_edges(func)

    # -- call graph ----------------------------------------------------------

    def _call_edges(self, func: FunctionInfo) -> list[FunctionInfo]:
        edges: list[FunctionInfo] = []
        seen: set[int] = set()
        for node in func.own_nodes:
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name is None:
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and name in _GENERIC_ATTR_CALLS
            ):
                continue
            for callee in self._resolve(name):
                if id(callee) not in seen and callee is not func:
                    seen.add(id(callee))
                    edges.append(callee)
        return edges

    def _resolve(self, name: str | None) -> list[FunctionInfo]:
        if name is None:
            return []
        if name in self.index.classes:
            return [
                init
                for init in self.index.resolve_function("__init__")
                if init.class_name == name
            ]
        return self.index.resolve_function(name)

    # -- reachability --------------------------------------------------------

    def _roots(self) -> tuple[list[tuple[FunctionInfo, str]], ...]:
        """(worker roots, parent roots), each with why it is a root.

        Worker roots are registered tasks, pool dispatch targets and
        ``Process`` targets.  Parent roots are module bodies, functions
        that dispatch, and coroutines handed to ``create_task``/
        ``ensure_future``: those run concurrently *in the parent* (no
        fork), so a shard-boundary crossing or lazy global init inside
        one is as parent-side as one on the main call path.  The
        spawner's argument is usually a coroutine *call*
        (``loop.create_task(self._scheduler())``); the entry point is
        that call's callee.
        """
        tasks, dispatched, parents, spawned = [], [], [], []
        for func in self.index.all_functions:
            if func.name == "<module>":
                parents.append((func, "module import"))
            elif any(
                terminal_name(dec.func if isinstance(dec, ast.Call) else dec)
                in creg.WORKER_DECORATORS
                for dec in func.node.decorator_list
            ):
                tasks.append(
                    (func, f"task `{func.name}` registered for the worker pool")
                )
            dispatches = False
            for node in func.own_nodes:
                if not isinstance(node, ast.Call):
                    continue
                dispatches = dispatches or is_dispatch_call(node)
                name = terminal_name(node.func)
                if is_pool_dispatch(node) and node.args:
                    why = f"dispatched by `{func.name}` via .{name}"
                    targets, into = [node.args[0]], dispatched
                elif name in creg.PROCESS_CLASSES:
                    why = f"Process target in `{func.name}`"
                    targets = [kw.value for kw in node.keywords if kw.arg == "target"]
                    into = dispatched
                elif name in creg.ASYNC_TASK_SPAWNERS and node.args:
                    why = f"async task spawned in `{func.name}`"
                    target = node.args[0]
                    targets = [target.func if isinstance(target, ast.Call) else target]
                    into = spawned
                else:
                    continue
                for target in targets:
                    into.extend(
                        (callee, why) for callee in self._resolve(terminal_name(target))
                    )
            if dispatches and func.name != "<module>":
                parents.append((func, f"parent-side dispatch in `{func.name}`"))
        return tasks + dispatched, parents + spawned

    def _reach(
        self, roots: list[tuple[FunctionInfo, str]]
    ) -> dict[int, tuple[FunctionInfo, str]]:
        reached: dict[int, tuple[FunctionInfo, str]] = {}
        queue: deque[tuple[FunctionInfo, str]] = deque(roots)
        while queue:
            func, why = queue.popleft()
            if id(func) in reached:
                continue
            reached[id(func)] = (func, why)
            for callee in self.edges.get(id(func), []):
                if id(callee) not in reached:
                    queue.append((callee, why))
        return reached

    def run(self) -> list[Finding]:
        worker_roots, parent_roots = self._roots()
        worker = self._reach(worker_roots)
        parent = self._reach(parent_roots)
        for func in self.index.all_functions:
            effects = self.effects[id(func)]
            state = self.states[func.path]
            in_worker = worker.get(id(func))
            if in_worker is not None:
                why = in_worker[1]
                self._rule_301(func, effects, why)
                self._rule_302(func, effects, state, why)
                lazy = {e.subject for e in effects.lazy_inits}
                if lazy and id(func) in parent:
                    self._rule_304(func, effects, why)
            self._rule_303(func)
            self._rule_305(func, effects)
        return self.findings

    def _rule_301(
        self, func: FunctionInfo, effects: FunctionEffects, why: str
    ) -> None:
        seen: set[str] = set()
        for effect in effects.rng:
            if effect.subject in seen:
                continue
            seen.add(effect.subject)
            self.emit(
                func,
                effect.node,
                RP301,
                f"`{func.name}` runs in worker processes ({why}): "
                f"{effect.detail}",
            )

    def _rule_302(
        self,
        func: FunctionInfo,
        effects: FunctionEffects,
        state: ModuleState,
        why: str,
    ) -> None:
        lazy = {e.subject for e in effects.lazy_inits}

        def exempt(subject: str) -> bool:
            base = subject.split(".", 1)[0]
            return (
                subject in lazy
                or base in state.fork_guarded
                or subject in state.fork_guarded
            )

        written: set[str] = set()
        for effect in effects.global_writes:
            if exempt(effect.subject) or effect.subject in written:
                continue
            written.add(effect.subject)
            self.emit(
                func,
                effect.node,
                RP302,
                f"`{func.name}` runs in worker processes ({why}): "
                f"{effect.detail} diverges between parent and workers",
            )
        read: set[str] = set()
        for effect in effects.global_reads:
            subject = effect.subject
            if (
                exempt(subject)
                or subject in written
                or subject in read
                or subject.split(".", 1)[-1] in creg.READ_ONLY_GLOBALS
                or subject in creg.READ_ONLY_GLOBALS
            ):
                continue
            read.add(subject)
            self.emit(
                func,
                effect.node,
                RP302,
                f"`{func.name}` runs in worker processes ({why}): "
                f"{effect.detail} may observe a stale pre-fork copy",
            )

    def _rule_304(
        self, func: FunctionInfo, effects: FunctionEffects, why: str
    ) -> None:
        seen: set[str] = set()
        for effect in effects.lazy_inits:
            if effect.subject in seen:
                continue
            seen.add(effect.subject)
            self.emit(
                func,
                effect.node,
                RP304,
                f"{effect.detail} in `{func.name}` straddles the fork "
                f"point — reachable from workers ({why}) and from the "
                "parent process",
            )

    # -- RP303: the shard boundary ------------------------------------------

    def _rule_303(self, func: FunctionInfo) -> None:
        secret_locals: set[str] = set()
        for node in func.own_nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._expr_secret(node.value, secret_locals)
            ):
                secret_locals.add(node.targets[0].id)
            if not isinstance(node, ast.Call):
                continue
            payloads: list[tuple[str, ast.expr]] = []
            boundary = ""
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in creg.SHARD_BOUNDARY_CALLS
            ):
                boundary = node.func.id
                payloads = [("argument", arg) for arg in node.args] + [
                    (f"argument `{kw.arg}`", kw.value)
                    for kw in node.keywords
                    if kw.arg and kw.arg not in creg.BOUNDARY_CONTROL_KWARGS
                ]
            elif is_pool_dispatch(node):
                boundary = f".{node.func.attr}"
                payloads = [("argument", arg) for arg in node.args[1:]] + [
                    (f"argument `{kw.arg}`", kw.value)
                    for kw in node.keywords
                    if kw.arg and kw.arg not in creg.BOUNDARY_CONTROL_KWARGS
                ]
            elif (
                terminal_name(node.func) in creg.PROCESS_CLASSES
                and node.keywords
            ):
                boundary = "Process"
                payloads = [
                    (f"argument `{kw.arg}`", kw.value)
                    for kw in node.keywords
                    if kw.arg in ("args", "kwargs")
                ]
            if not boundary:
                continue
            for label, expr in payloads:
                if self._expr_secret(expr, secret_locals):
                    rendered = clip(ast.unparse(expr), 60)
                    self.emit(
                        func,
                        expr,
                        RP303,
                        f"secret value `{rendered}` crosses the "
                        f"`{boundary}` task-shard boundary in "
                        f"`{func.name}` without the bytes-only shard "
                        "sanitizer",
                    )

    def _expr_secret(self, expr: ast.expr, secret_locals: set[str]) -> bool:
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, ast.Name):
            return expr.id in secret_locals or freg.is_secret_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return freg.is_secret_name(expr.attr) or self._expr_secret(
                expr.value, secret_locals
            )
        if isinstance(expr, ast.Call):
            name = terminal_name(expr.func)
            if name in (
                creg.SHARD_SANITIZERS
                | freg.SANITIZER_CALLS
                | freg.DECLASSIFIER_CALLS
            ):
                return False
            if isinstance(expr.func, ast.Attribute) and self._expr_secret(
                expr.func.value, secret_locals
            ):
                return True
            if any(self._expr_secret(a, secret_locals) for a in expr.args):
                return True
            if any(
                self._expr_secret(kw.value, secret_locals)
                for kw in expr.keywords
            ):
                return True
            if name is not None:
                for callee in self._resolve(name):
                    summary = self.taint.summary_of(callee)
                    if summary.returns.level >= SECRET:
                        return True
            return False
        return any(
            self._expr_secret(child, secret_locals)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )

    def _rule_305(self, func: FunctionInfo, effects: FunctionEffects) -> None:
        for effect in effects.merges:
            self.emit(
                func,
                effect.node,
                RP305,
                f"{effect.detail} in `{func.name}` — output order depends "
                "on OS scheduling, not input order",
            )
