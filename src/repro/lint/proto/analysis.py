"""Typestate protocols and the RP401–RP405 rules.

The pass runs after the flow fixpoint on the same
:class:`~repro.lint.flow.callgraph.ProgramIndex`, adding a third
whole-program family: object *protocols* in the Strom–Yemini typestate
tradition.  Each tracked value carries an abstract state; operations
either transition the state or demand one the value has not reached.

The central protocol is the paper's verify-before-use invariant: a
``TimeBoundKeyUpdate`` decoded from wire bytes is FETCHED, and only the
pairing check ``ê(sG, H1(T)) == ê(G, I_T)`` (``update.verify`` /
``ensure_valid`` / ``verify_archive`` / ``pair_ratio_is_one``) moves it
to VERIFIED — the state every cache insert, decrypt, and
re-serialization requires.  Like the taint pass, the analysis is
interprocedural: per-function summaries record which parameters a
helper verifies, which it sinks, and the state of what it returns, and
a summary fixpoint lets findings fire at the call site that actually
supplies the unverified value.

========  ==========================  =================================
Rule id   Name                        Violation
========  ==========================  =================================
RP401     unverified-update-use       a wire-decoded update reaches a
                                      cache insert, decrypt, or
                                      serialization sink while still
                                      FETCHED on some path
RP402     unguarded-transport-await   ``await`` on a transport/channel
                                      round-trip outside any
                                      ``asyncio.wait_for``/deadline
                                      scope
RP403     untracked-task              ``create_task``/``ensure_future``
                                      result dropped — never stored,
                                      awaited, or cancelled
RP404     unclassified-service-error  a ``repro.service`` raise outside
                                      the transient/permanent taxonomy,
                                      or a broad except that swallows
                                      without re-raising
RP405     verify-result-discarded     the boolean verdict of a
                                      verification call is computed and
                                      thrown away
========  ==========================  =================================

States join pessimistically (a value verified on only one branch stays
FETCHED after the merge), guard verdicts transition their subject only
on the control-flow path where the verdict is known true, and a
``for``-loop that verifies its loop variable on every iteration
promotes the iterated collection.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.dataflow import (
    DataflowPass,
    RuleMeta,
    Transfer,
    clip,
    env_key,
    terminal_name,
)
from repro.lint.flow import registry as freg
from repro.lint.flow.callgraph import FunctionInfo
from repro.lint.proto import registry as preg

RP401 = "RP401"
RP402 = "RP402"
RP403 = "RP403"
RP404 = "RP404"
RP405 = "RP405"

PROTO_RULES: tuple[RuleMeta, ...] = (
    RuleMeta(
        RP401,
        "unverified-update-use",
        "an update decoded from wire bytes reaches a cache insert, "
        "decrypt, or serialization sink without passing the pairing "
        "check ê(sG, H1(T)) == ê(G, I_T) on every path — a forged "
        "update accepted here poisons everything downstream that "
        "trusts the cache",
        "guard the value first: `if not update.verify(group, pub): "
        "raise`, `update.ensure_valid(...)`, or batch-verify the "
        "collection with verify_archive(...) and drop the failures",
    ),
    RuleMeta(
        RP402,
        "unguarded-transport-await",
        "an `await` on a transport/channel round-trip is not enclosed "
        "in an asyncio.wait_for/deadline scope — a stalled peer then "
        "parks this coroutine forever, outside every retry policy",
        "wrap the call: `await asyncio.wait_for(transport.request(...), "
        "timeout)` (see service.client for the Deadline idiom)",
    ),
    RuleMeta(
        RP403,
        "untracked-task",
        "the Task returned by create_task/ensure_future is dropped — "
        "an untracked task is garbage-collected mid-flight, its "
        "exceptions are logged to the void, and shutdown cannot cancel "
        "or await it",
        "store the task (e.g. on self), await or cancel it on the "
        "shutdown path, or hand it to a tracked task group",
    ),
    RuleMeta(
        RP404,
        "unclassified-service-error",
        "service-layer error handling outside the transient/permanent "
        "taxonomy: a raise the retry policies cannot classify, or a "
        "broad except that swallows errors they needed to see",
        "raise TransientServiceError/PermanentServiceError (or a "
        "subclass) from repro.errors; catch the specific exception and "
        "record or re-wrap it instead of `except Exception: pass`",
    ),
    RuleMeta(
        RP405,
        "verify-result-discarded",
        "the boolean verdict of a verification call is never consumed "
        "— the pairing check ran, burned the CPU, and protected "
        "nothing",
        "branch on the verdict (`if not ok: raise ...`) or use the "
        "raising form `update.ensure_valid(...)`",
    ),
)

PROTO_RULE_IDS = tuple(meta.id for meta in PROTO_RULES)

# -- the typestate lattice ---------------------------------------------------

# FETCHED < PARAM < VERIFIED; merge joins take the minimum, so a value
# is only as trusted as its least-trusted path.  PARAM is the unknown
# middle: a parameter's real state is the call site's business, so a
# sink reached by a PARAM value records a summary entry instead of a
# finding.
FETCHED = 0
PARAM = 1
VERIFIED = 2

_STATE_NAMES = {FETCHED: "FETCHED", PARAM: "PARAM", VERIFIED: "VERIFIED"}

# Value kinds: one update, a collection of updates, or the boolean
# verdict of a verification call (which remembers whose verdict it is).
UPDATE = "update"
COLL = "coll"
VERDICT = "verdict"


@dataclass(frozen=True)
class Val:
    """One tracked abstract value."""

    kind: str
    state: int = FETCHED
    # Parameter indices this value (directly) derives from; drives the
    # verifies/param_sinks/verdict_of summary entries.
    params: frozenset[int] = frozenset()
    # VERDICT only: env keys (locals, `self.attr`) the verdict vouches
    # for — consumed when control flow branches on the verdict.
    subjects: tuple[str, ...] = ()


def _tracked(val: Val | None) -> bool:
    return val is not None and val.kind in (UPDATE, COLL)


def _join(a: Val | None, b: Val | None) -> Val | None:
    """Join two values; None (untracked) is the identity."""
    if a is None:
        return b
    if b is None:
        return a
    if a.kind == VERDICT or b.kind == VERDICT:
        # A verdict merged with anything else is no longer a usable
        # verdict (which branch computed it?).
        return None
    kind = COLL if COLL in (a.kind, b.kind) else UPDATE
    return Val(kind, min(a.state, b.state), a.params | b.params)


@dataclass
class ProtoSummary:
    """One function's protocol contract."""

    # State of the returned update value, None when no update returned.
    returns_update: int | None = None
    # Parameter indices VERIFIED on every normal (non-raising) exit.
    verifies: frozenset[int] = frozenset()
    # Nonempty: the return value is a verify verdict for these params.
    verdict_of: frozenset[int] = frozenset()
    # Parameter index -> description of the update sink it reaches.
    # Descriptions are the original sink's, never re-composed, so
    # entries are stable and the fixpoint terminates.
    param_sinks: dict[int, str] = field(default_factory=dict)


def _is_update_name(identifier: str) -> bool:
    return preg.UPDATE_NAME_MARKER in identifier.lower()


def _receiver_name(expr: ast.expr) -> str | None:
    """Terminal name of a call/store receiver, looking through
    subscripts: ``self.transports[source]`` -> ``transports``."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    return terminal_name(node)


class ProtoTransfer(Transfer):
    """Abstract interpretation of one function body over Val states."""

    SUMMARY = ProtoSummary

    def __init__(self, func, analysis, report: bool):
        super().__init__(func, analysis, report)
        self.param_index = {name: i for i, name in enumerate(func.params)}
        for i, name in enumerate(func.params):
            if _is_update_name(name):
                kind = COLL if name.lower().rstrip("_").endswith("s") else UPDATE
                self.env[name] = Val(kind, PARAM, frozenset((i,)))
        self.returns_update: int | None = None
        self.verdict_params: frozenset[int] = frozenset()
        self.param_sinks: dict[int, str] = {}
        # Intersection of VERIFIED params over all normal exits; None
        # until the first exit is seen.
        self._exit_verified: frozenset[int] | None = None

    def run(self) -> ProtoSummary:
        # Functions named like guards are the verifier TCB: their
        # bodies implement verification (serializing updates to shard
        # them, pairing on raw fields) and are exempt from their own
        # protocol.
        if self.func.name in preg.GUARD_DEF_NAMES:
            return ProtoSummary()
        return super().run()

    def summary(self) -> ProtoSummary:
        return ProtoSummary(
            returns_update=self.returns_update,
            verifies=self._exit_verified or frozenset(),
            verdict_of=self.verdict_params,
            param_sinks=dict(self.param_sinks),
        )

    def join(self, a: Val | None, b: Val | None) -> Val | None:
        return _join(a, b)

    def on_exit(self, env: dict[str, Val]) -> None:
        verified = frozenset(
            i
            for name, i in self.param_index.items()
            if _tracked(val := env.get(name)) and val.state == VERIFIED
        )
        if self._exit_verified is None:
            self._exit_verified = verified
        else:
            self._exit_verified &= verified

    # -- findings and summary entries ---------------------------------------

    def _sink(self, node: ast.AST, val: Val | None, happened: str) -> None:
        """A tracked update value reached an RP401 sink."""
        if not _tracked(val):
            return
        if val.state == FETCHED:
            self.emit(
                node,
                RP401,
                f"unverified update (state FETCHED) {happened} in "
                f"`{self.func.name}` — ê(sG, H1(T)) == ê(G, I_T) was "
                "never checked on this path",
            )
        elif val.state == PARAM:
            desc = clip(f"{happened} in `{self.func.name}`")
            for i in val.params:
                self.param_sinks.setdefault(i, desc)

    # -- statement hooks ----------------------------------------------------

    def on_return(self, stmt: ast.Return, env: dict[str, Val]) -> None:
        val = self.eval(stmt.value, env)
        if _tracked(val):
            self.returns_update = (
                val.state
                if self.returns_update is None
                else min(self.returns_update, val.state)
            )
        elif val is not None and val.kind == VERDICT:
            self.verdict_params |= val.params
        self.on_exit(env)

    def exec_expr(self, value: ast.expr, env: dict[str, Val]) -> None:
        call = value.value if isinstance(value, ast.Await) else value
        if (
            isinstance(call, ast.Call)
            and terminal_name(call.func) in preg.VERIFY_PREDICATES
        ):
            self.emit(
                call,
                RP405,
                f"verdict of `{clip(ast.unparse(call))}` is discarded in "
                f"`{self.func.name}` — the check constrains nothing",
            )
        self.eval(value, env)

    def branch(self, test: ast.expr, env: dict[str, Val]):
        # A verdict vouches for its subjects on the path where it is
        # true (`if not update.verify(...): raise` verifies the else).
        then_env, else_env = dict(env), dict(env)
        for key in self._true_subjects(test, then_env):
            self._verify_key(key, then_env)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            for key in self._true_subjects(test.operand, else_env):
                self._verify_key(key, else_env)
        return then_env, else_env

    def element(self, value: Val | None) -> Val | None:
        return Val(UPDATE, value.state, value.params) if _tracked(value) else None

    def after_for(self, stmt, iter_value, loop_env, env) -> None:
        # Loop promotion: verifying the loop variable on every
        # iteration verifies the iterated collection (`for u in coll:
        # u.ensure_valid(...)` leaves coll VERIFIED).  Vacuous for an
        # empty collection, which is also vacuously safe.
        iter_key = env_key(stmt.iter)
        if (
            iter_key is not None
            and isinstance(stmt.target, ast.Name)
            and _tracked(iter_value)
            and (loop_val := loop_env.get(stmt.target.id)) is not None
            and loop_val.kind == UPDATE
            and loop_val.state == VERIFIED
        ):
            env[iter_key] = Val(iter_value.kind, VERIFIED, iter_value.params)

    # -- verdict consumption -------------------------------------------------

    def _verify_key(self, key: str, env: dict[str, Val]) -> None:
        val = env.get(key)
        if _tracked(val):
            env[key] = Val(val.kind, VERIFIED, val.params)

    def _true_subjects(self, test: ast.expr, env: dict[str, Val]) -> tuple[str, ...]:
        """Subjects verified on the branch where ``test`` is true."""
        val = self.eval(test, env)
        if val is not None and val.kind == VERDICT:
            return val.subjects
        return ()

    def _verdict(self, exprs: list[ast.expr | None], env: dict[str, Val]) -> Val:
        """The verdict of a check whose subjects are ``exprs``."""
        subjects: list[str] = []
        params: frozenset[int] = frozenset()
        for expr in exprs:
            key = env_key(expr)
            if key is not None and _tracked(val := env.get(key)):
                subjects.append(key)
                params |= val.params
        return Val(VERDICT, params=params, subjects=tuple(subjects))

    # -- expressions --------------------------------------------------------

    def eval(self, node: ast.expr | None, env: dict[str, Val]) -> Val | None:
        if node is None or isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            key = env_key(node)
            if key is not None and key in env:
                return env[key]
            self.eval(node.value, env)
            return None
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, (ast.Await, ast.Starred)):
            return self.eval(node.value, env)
        if isinstance(node, ast.NamedExpr):
            val = self.eval(node.value, env)
            self.bind(node.target, val, env)
            return val
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, env)
            self.eval(node.slice, env)
            return Val(UPDATE, base.state, base.params) if _tracked(base) else None
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out: Val | None = None
            for elt in node.elts:
                val = self.eval(elt, env)
                if _tracked(val):
                    out = _join(out, Val(COLL, val.state, val.params))
            return out
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return _join(self.eval(node.body, env), self.eval(node.orelse, env))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = dict(env)
            for gen in node.generators:
                gen_val = self.eval(gen.iter, comp_env)
                if _tracked(gen_val) and isinstance(gen.target, ast.Name):
                    comp_env[gen.target.id] = Val(UPDATE, gen_val.state, gen_val.params)
                for cond in gen.ifs:
                    self.eval(cond, comp_env)
            elt_val = self.eval(node.elt, comp_env)
            return Val(COLL, elt_val.state, elt_val.params) if _tracked(elt_val) else None
        if isinstance(node, ast.DictComp):
            comp_env = dict(env)
            for gen in node.generators:
                self.eval(gen.iter, comp_env)
            self.eval(node.key, comp_env)
            self.eval(node.value, comp_env)
            return None
        if isinstance(node, (ast.BoolOp, ast.BinOp, ast.Compare, ast.UnaryOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
            return None
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.eval(node.value, env)
        return None

    # -- binding ------------------------------------------------------------

    def bind(self, target: ast.expr, val: Val | None, env: dict[str, Val]) -> None:
        if isinstance(target, ast.Name):
            if val is None:
                env.pop(target.id, None)
            else:
                env[target.id] = val
        elif isinstance(target, ast.Starred):
            self.bind(target.value, val, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, val, env)
        elif isinstance(target, ast.Attribute):
            key = env_key(target)
            if key is not None and val is not None:
                env[key] = val
        elif isinstance(target, ast.Subscript):
            # `container[k] = v`: a cache-named container is an RP401
            # sink; any other container becomes a tracked collection
            # holding v's state.
            receiver = _receiver_name(target.value)
            if receiver is None:
                return
            if freg.name_tokens(receiver) & preg.CACHE_NAME_TOKENS:
                self._sink(target, val, f"stored into cache `{clip(ast.unparse(target))}`")
            else:
                self._collect(env_key(target.value), val, env)

    def _collect(self, key: str | None, val: Val | None, env: dict[str, Val]) -> None:
        """``val`` joins the collection held at ``key``."""
        if key is None or not _tracked(val):
            return
        joined = _join(env.get(key), Val(COLL, val.state, val.params))
        if joined is not None:
            env[key] = joined

    # -- calls --------------------------------------------------------------

    def eval_call(self, node: ast.Call, env: dict[str, Val]) -> Val | None:
        func = node.func
        fname = terminal_name(func)
        is_attr = isinstance(func, ast.Attribute)
        receiver_key = env_key(func.value) if is_attr else None
        receiver_val = self.eval(func.value, env) if is_attr else None
        arg_vals = [self.eval(arg, env) for arg in node.args]
        kw_vals = [self.eval(kw.value, env) for kw in node.keywords]

        # Origin: `UpdateType.from_bytes(...)` decodes untrusted bytes.
        if (
            is_attr
            and fname in preg.UPDATE_DECODE_CALLS
            and (rname := terminal_name(func.value)) is not None
            and _is_update_name(rname)
        ):
            return Val(UPDATE, FETCHED)

        # Guards --------------------------------------------------------
        if fname in preg.VERIFY_RAISING_GUARDS and is_attr:
            if receiver_key is not None:
                self._verify_key(receiver_key, env)
            return None
        if fname in preg.BATCH_VERIFY_CALLS:
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                key = env_key(arg)
                if key is not None:
                    self._verify_key(key, env)
            return None
        if fname in preg.VERIFY_PREDICATES:
            return self._verdict([func.value] if is_attr else node.args, env)

        # Sinks ---------------------------------------------------------
        if fname in preg.UPDATE_USE_CALLS:
            for arg, val in zip(
                [*node.args, *[kw.value for kw in node.keywords]], arg_vals + kw_vals
            ):
                self._sink(arg, val, f"passed to `{fname}()`")
            return None
        if (
            fname in preg.UPDATE_SERIALIZE_CALLS
            and is_attr
            and receiver_val is not None
        ):
            self._sink(func.value, receiver_val, "re-serialized via `.to_bytes()`")
            return None
        if fname in ("append", "add") and is_attr and node.args:
            rname = _receiver_name(func.value)
            if rname is not None and (
                freg.name_tokens(rname) & preg.CACHE_NAME_TOKENS
            ):
                self._sink(
                    node.args[0],
                    arg_vals[0],
                    f"appended to cache `{clip(ast.unparse(func.value))}`",
                )
            else:
                self._collect(receiver_key, arg_vals[0], env)
            return None

        # Pass-through builtins keep the element state.
        if not is_attr and fname in ("list", "sorted", "tuple", "set", "reversed"):
            for val in arg_vals:
                if _tracked(val):
                    return Val(COLL, val.state, val.params)
            return None

        # Calls resolved inside the analyzed program ---------------------
        return self.apply_call(node, fname, receiver_val, arg_vals, kw_vals, env)

    def apply_summary(
        self, node, cand, summary: ProtoSummary, values, exprs, env
    ) -> Val | None:
        for pidx, desc in sorted(summary.param_sinks.items()):
            val = values.get(pidx)
            if not _tracked(val):
                continue
            if val.state == FETCHED:
                pname = cand.params[pidx] if pidx < len(cand.params) else f"#{pidx}"
                self.emit(
                    node,
                    RP401,
                    f"unverified update passed as `{pname}` to "
                    f"`{cand.name}()`, which {desc}",
                )
            elif val.state == PARAM:
                for i in val.params:
                    self.param_sinks.setdefault(i, desc)
        for pidx in summary.verifies:
            key = env_key(exprs.get(pidx))
            if key is not None:
                self._verify_key(key, env)
        if summary.verdict_of:
            return self._verdict([exprs.get(p) for p in sorted(summary.verdict_of)], env)
        if summary.returns_update is not None:
            return Val(UPDATE, summary.returns_update)
        return None


class ProtocolAnalysis(DataflowPass):
    """Typestate summaries, their fixpoint, and the RP4xx report."""

    RULES = PROTO_RULES
    TRANSFER = ProtoTransfer

    def check(self, func: FunctionInfo) -> None:
        self._rule_402(func)
        self._rule_403(func)
        self._rule_404(func)

    # -- RP402: unguarded transport awaits -----------------------------------

    def _rule_402(self, func: FunctionInfo) -> None:
        guarded: set[int] = set()
        for node in func.own_nodes:
            if (
                isinstance(node, ast.Call)
                and terminal_name(node.func) in preg.DEADLINE_GUARD_CALLS
            ):
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    for inner in ast.walk(arg):
                        guarded.add(id(inner))
        for node in func.own_nodes:
            if not isinstance(node, ast.Await):
                continue
            call = node.value
            if not isinstance(call, ast.Call) or id(call) in guarded:
                continue
            if not isinstance(call.func, ast.Attribute):
                continue
            if call.func.attr not in preg.TRANSPORT_AWAIT_METHODS:
                continue
            rname = _receiver_name(call.func.value)
            if rname is None or not (
                freg.name_tokens(rname) & preg.TRANSPORT_RECEIVER_TOKENS
            ):
                continue
            self.emit(
                func,
                node,
                RP402,
                f"`await {clip(ast.unparse(call))}` in `{func.name}` is "
                "not bounded by asyncio.wait_for or a deadline scope — a "
                "stalled peer parks this coroutine forever",
            )

    # -- RP403: dropped asyncio tasks ----------------------------------------

    def _rule_403(self, func: FunctionInfo) -> None:
        spawners: list[tuple[ast.stmt, ast.Call, str | None]] = []
        for node in func.own_nodes:
            if isinstance(node, ast.Expr) and self._spawner_call(node.value):
                spawners.append((node, node.value, None))
            elif (
                isinstance(node, ast.Assign)
                and self._spawner_call(node.value)
                and all(isinstance(t, ast.Name) for t in node.targets)
            ):
                for target in node.targets:
                    spawners.append((node, node.value, target.id))
        if not spawners:
            return
        loads: set[str] = {
            node.id
            for node in func.own_nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt, call, name in spawners:
            fname = terminal_name(call.func)
            if name is None:
                self.emit(
                    func,
                    stmt,
                    RP403,
                    f"task spawned by `{fname}(...)` in `{func.name}` is "
                    "dropped — never stored, awaited, or cancelled",
                )
            elif name not in loads:
                self.emit(
                    func,
                    stmt,
                    RP403,
                    f"task `{name}` spawned in `{func.name}` is never "
                    "read again — not awaited, cancelled, or stored",
                )

    @staticmethod
    def _spawner_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and terminal_name(node.func) in preg.TASK_SPAWNERS
        )

    # -- RP404: the service error taxonomy -----------------------------------

    def _rule_404(self, func: FunctionInfo) -> None:
        if func.top_dir in preg.RAISE_TAXONOMY_SCOPES:
            allowed = preg.SERVICE_TAXONOMY_CLASSES | preg.SERVICE_WRAPPED_ERRORS
            for node in func.own_nodes:
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                name = terminal_name(target)
                # Only class-looking names are judged: re-raising a
                # caught variable (`raise exc`) is classification done
                # elsewhere.
                if name is None or not name[:1].isupper():
                    continue
                if name in allowed:
                    continue
                self.emit(
                    func,
                    node,
                    RP404,
                    f"`raise {name}(...)` in `{func.name}` is outside the "
                    "transient/permanent service-error taxonomy — retry "
                    "policies cannot classify it",
                )
        if func.top_dir in preg.BROAD_EXCEPT_SCOPES:
            for node in func.own_nodes:
                if not isinstance(node, ast.Try):
                    continue
                for handler in node.handlers:
                    if not self._broad_handler(handler):
                        continue
                    if any(
                        isinstance(inner, ast.Raise)
                        for stmt in handler.body
                        for inner in ast.walk(stmt)
                    ):
                        continue
                    caught = (
                        terminal_name(handler.type)
                        if handler.type is not None
                        else "everything"
                    )
                    self.emit(
                        func,
                        handler,
                        RP404,
                        f"broad `except {caught}` in `{func.name}` swallows "
                        "the error without re-raising or classifying it — "
                        "transient faults and real bugs become silence",
                    )

    @staticmethod
    def _broad_handler(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        return any(terminal_name(t) in preg.BROAD_EXCEPT_NAMES for t in types)
