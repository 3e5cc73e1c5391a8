"""The taint lattice's transfer functions on the shared interpreter.

:class:`~repro.lint.dataflow.Transfer` walks a function's statements,
mapping local names to :class:`~repro.lint.flow.lattice.Taint` values;
this subclass says what expressions evaluate to and where the sinks
are.  The output is a :class:`Summary` — the function's
interprocedural contract:

* ``returns`` — taint of the return value, with the parameter indices
  that flow into it;
* ``param_sinks`` — parameters that reach a sink *inside* the function
  (directly or through further calls), so a call site passing a secret
  argument is reported even when the leak is several hops away.  Each
  entry keeps the *shortest* call chain to its sink, which is what
  makes the summary fixpoint converge around recursive call cycles.

Findings are emitted only on the reporting pass (after the summary
fixpoint), and only when a value is *concretely* tainted — a parameter
that merely might be secret records a summary entry instead, and the
call site that actually supplies a secret gets the finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.dataflow import Transfer, clip, env_key, terminal_name
from repro.lint.flow.lattice import (
    CLEAN,
    DERIVED,
    SECRET,
    TAINT_CLEAN,
    Taint,
    join_all,
)
from repro.lint.flow import registry as reg

RP201 = "RP201"
RP202 = "RP202"
RP203 = "RP203"
RP204 = "RP204"

# Minimum concrete taint level at which each rule fires.  RP201/RP203
# include DERIVED: pre-KDF pairing values must not be rendered or
# serialized.  RP202/RP204 demand SECRET to keep verification-pairing
# branches and generic helper calls quiet.
RULE_THRESHOLD = {RP201: DERIVED, RP202: SECRET, RP203: DERIVED, RP204: SECRET}


@dataclass
class Summary:
    """A function's interprocedural contract."""

    returns: Taint = TAINT_CLEAN
    # (param index, rule id) -> (shortest call depth to the sink,
    # description).  The description is the *original* sink's, never
    # re-composed, so summary entries are stable and the fixpoint
    # terminates.
    param_sinks: dict[tuple[int, str], tuple[int, str]] = field(default_factory=dict)


def _qualify(level: int) -> str:
    return "secret" if level >= SECRET else "secret-derived"


class FunctionTransfer(Transfer):
    """Analyze one function body against the current summary table."""

    BOTTOM = TAINT_CLEAN
    SUMMARY = Summary

    def __init__(self, func, analysis, report: bool):
        super().__init__(func, analysis, report)
        self.returns = TAINT_CLEAN
        self.param_sinks: dict[tuple[int, str], tuple[int, str]] = {}
        for i, name in enumerate(func.params):
            level = SECRET if reg.is_secret_name(name) else CLEAN
            self.env[name] = Taint(level, frozenset(((i, True),)))

    def summary(self) -> Summary:
        return Summary(self.returns, dict(self.param_sinks))

    def join(self, a: Taint, b: Taint) -> Taint:
        return a.join(b)

    # -- findings and summary entries ---------------------------------------

    def _record(self, dep: int, rule: str, depth: int, desc: str) -> None:
        """Parameter ``dep`` reaches a ``rule`` sink ``depth`` calls down.
        The shortest chain wins, ties going to the smaller description,
        so the entry does not depend on the order calls are met in."""
        known = self.param_sinks.get((dep, rule))
        if known is None or (depth, desc) < known:
            self.param_sinks[(dep, rule)] = (depth, desc)

    def _sink(
        self, node: ast.AST, rule: str, taint: Taint, happened: str
    ) -> None:
        """A tainted value reached a sink described by ``happened``."""
        threshold = RULE_THRESHOLD[rule]
        if taint.level >= threshold:
            self.emit(node, rule, f"{_qualify(taint.level)} value {happened}")
        elif taint.direct_deps():
            # Only *direct* flows become summary entries: rendering a
            # neutral field of an object that also holds a key is not a
            # leak of the key.
            desc = clip(f"{happened} in `{self.func.name}`")
            for dep in taint.direct_deps():
                self._record(dep, rule, 0, desc)

    # -- statement hooks ----------------------------------------------------

    def on_return(self, stmt: ast.Return, env: dict[str, Taint]) -> None:
        taint = self.eval(stmt.value, env)
        self.returns = self.returns.join(taint)
        if reg.is_serializer_name(self.func.name):
            self._sink(
                stmt,
                RP203,
                taint,
                f"returned from serializer `{self.func.name}` without a KDF",
            )

    def branch(self, test: ast.expr, env: dict[str, Taint]):
        self._branch_check(test, env)
        return dict(env), dict(env)

    def _branch_check(self, test: ast.expr, env: dict[str, Taint]) -> None:
        self._sink(
            test,
            RP202,
            self.eval(test, env),
            "decides a branch (variable-time control flow on a secret)",
        )

    def on_raise(self, stmt: ast.Raise, env: dict[str, Taint]) -> None:
        exc = stmt.exc
        if exc is None:
            return
        args = (
            [*exc.args, *[kw.value for kw in exc.keywords]]
            if isinstance(exc, ast.Call)
            else [exc]
        )
        for arg in args:
            self._sink(
                arg,
                RP201,
                self.eval(arg, env),
                "rendered into a raised exception message",
            )

    def on_assert_message(self, msg: ast.expr, env: dict[str, Taint]) -> None:
        self._sink(msg, RP201, self.eval(msg, env), "rendered in an assert message")

    # -- binding ------------------------------------------------------------

    def bind(self, target: ast.expr, taint: Taint, env: dict[str, Taint]) -> None:
        if isinstance(target, ast.Starred):
            self.bind(target.value, taint, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, taint, env)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                base = target.value.id
                env[base] = env.get(base, TAINT_CLEAN).join(taint)
        elif (key := env_key(target)) is not None:
            env[key] = taint

    # -- expressions --------------------------------------------------------

    def eval(
        self,
        node: ast.expr | None,
        env: dict[str, Taint],
        *,
        no_serialize_sinks: bool = False,
    ) -> Taint:
        if node is None:
            return TAINT_CLEAN
        if isinstance(node, ast.Constant):
            return TAINT_CLEAN
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return Taint(SECRET) if reg.is_secret_name(node.id) else TAINT_CLEAN
        if isinstance(node, ast.Attribute):
            key = env_key(node)
            if key is not None and key in env:
                return env[key]
            base = self.eval(node.value, env)
            if reg.is_secret_name(node.attr):
                return Taint(SECRET, base.deps)
            if reg.is_public_name(node.attr):
                return TAINT_CLEAN
            return base.demoted()
        if isinstance(node, ast.Call):
            return self.eval_call(node, env, no_serialize_sinks=no_serialize_sinks)
        if isinstance(node, ast.JoinedStr):
            out = TAINT_CLEAN
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    taint = self.eval(part.value, env)
                    self._sink(part.value, RP201, taint, "formatted into an f-string")
                    out = out.join(taint)
            return out
        if isinstance(node, ast.BinOp):
            return self.eval(node.left, env).join(self.eval(node.right, env))
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, ast.BoolOp):
            return join_all([self.eval(v, env) for v in node.values])
        if isinstance(node, ast.Compare):
            return join_all(
                [self.eval(node.left, env)]
                + [self.eval(c, env) for c in node.comparators]
            )
        if isinstance(node, ast.IfExp):
            self._branch_check(node.test, env)
            return self.eval(node.body, env).join(self.eval(node.orelse, env))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return join_all([self.eval(e, env) for e in node.elts])
        if isinstance(node, ast.Dict):
            return join_all(
                [self.eval(k, env) for k in node.keys if k is not None]
                + [self.eval(v, env) for v in node.values]
            )
        if isinstance(node, ast.Subscript):
            return self.eval(node.value, env)
        if isinstance(node, ast.Slice):
            return join_all(
                [self.eval(p, env) for p in (node.lower, node.upper, node.step) if p]
            )
        if isinstance(node, (ast.Starred, ast.Await, ast.FormattedValue)):
            return self.eval(node.value, env)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value, env)
            self.bind(node.target, taint, env)
            return taint
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            taint = self.eval(node.value, env)
            self.returns = self.returns.join(taint)
            return TAINT_CLEAN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            comp_env = dict(env)
            for gen in node.generators:
                self.bind(gen.target, self.eval(gen.iter, comp_env), comp_env)
                for cond in gen.ifs:
                    self.eval(cond, comp_env)
            if isinstance(node, ast.DictComp):
                return self.eval(node.key, comp_env).join(
                    self.eval(node.value, comp_env)
                )
            return self.eval(node.elt, comp_env)
        return TAINT_CLEAN

    # -- calls --------------------------------------------------------------

    def eval_call(
        self,
        node: ast.Call,
        env: dict[str, Taint],
        *,
        no_serialize_sinks: bool = False,
    ) -> Taint:
        func = node.func
        fname = terminal_name(func)
        is_attr = isinstance(func, ast.Attribute)
        base_name = (
            func.value.id if is_attr and isinstance(func.value, ast.Name) else None
        )

        sanitizing = fname in reg.SANITIZER_CALLS or (
            is_attr and base_name in reg.SANITIZER_MODULES
        )

        # Serializing a value directly *into* a sanitizer
        # (`derive_key(k.to_bytes(), ...)`) is the sanctioned idiom, so
        # serialization sinks are suppressed inside sanitizer arguments.
        suppress = no_serialize_sinks or sanitizing
        pos_taints = [
            self.eval(arg, env, no_serialize_sinks=suppress) for arg in node.args
        ]
        kw_taints = [
            self.eval(kw.value, env, no_serialize_sinks=suppress)
            for kw in node.keywords
        ]
        args_join = join_all(pos_taints + kw_taints)

        if sanitizing:
            return TAINT_CLEAN
        if fname in reg.DECLASSIFIER_CALLS:
            return TAINT_CLEAN
        if fname in reg.SOURCE_CALLS:
            return Taint(reg.SOURCE_CALLS[fname])
        if fname in reg.PAIRING_CALLS:
            base = self.eval(func.value, env) if is_attr else TAINT_CLEAN
            return Taint(reg.PAIRING_LEVEL, args_join.deps | base.deps)

        arg_exprs = [*node.args, *[kw.value for kw in node.keywords]]
        arg_taints = pos_taints + kw_taints

        # -- rendering sinks (RP201) ----------------------------------------
        sink_label = self._render_sink_label(func, fname, base_name)
        if sink_label is not None:
            for arg, taint in zip(arg_exprs, arg_taints):
                self._sink(arg, RP201, taint, f"passed to {sink_label}")
            return TAINT_CLEAN

        # -- persistence sinks (RP203) --------------------------------------
        if not no_serialize_sinks and is_attr:
            persist_label = None
            if fname in reg.SERIALIZE_MODULE_CALLS and base_name in reg.SERIALIZER_MODULES:
                persist_label = f"{base_name}.{fname}()"
            elif fname in reg.PERSIST_METHODS and base_name not in reg.STDIO_RECEIVERS:
                persist_label = f".{fname}()"
            if persist_label is not None:
                for arg, taint in zip(node.args, pos_taints):
                    self._sink(
                        arg,
                        RP203,
                        taint,
                        f"serialized via {persist_label} without a KDF",
                    )
                return TAINT_CLEAN

        # -- calls resolved inside the analyzed program ---------------------
        base_taint = self.eval(func.value, env) if is_attr else None
        resolved = self.apply_call(
            node,
            fname,
            base_taint,
            pos_taints,
            kw_taints,
            env,
            no_serialize_sinks=no_serialize_sinks,
        )
        if resolved is not None:
            return resolved

        # -- untracked third-party boundary (RP204) -------------------------
        imports = self.analysis.index.imports_of(self.func.path)
        external = (
            (not is_attr and fname is not None and imports.is_untracked(fname))
            or (is_attr and base_name is not None and imports.is_untracked(base_name))
        )
        if external:
            for arg, taint in zip(arg_exprs, arg_taints):
                self._sink(
                    arg,
                    RP204,
                    taint,
                    f"passed to untracked third-party call `{fname}()`",
                )
            return args_join

        # Unresolved in-tree/builtin call: propagate argument taint (and
        # the receiver's for method calls — `secret.hex()` stays secret;
        # demoted because the result of an unknown method is a neutral
        # projection of the receiver, not the receiver itself).
        if base_taint is not None:
            return args_join.join(base_taint.demoted())
        return args_join

    def _render_sink_label(
        self, func: ast.expr, fname: str | None, base_name: str | None
    ) -> str | None:
        if isinstance(func, ast.Name) and fname in reg.RENDER_CALLS:
            return f"{fname}()"
        if isinstance(func, ast.Attribute):
            if fname in reg.LOG_METHODS and base_name is not None:
                if reg.name_tokens(base_name) & reg.LOG_RECEIVER_TOKENS:
                    return f"{base_name}.{fname}()"
            if fname in reg.WARN_CALLS:
                return f"{fname}()"
            if fname == "format":
                return "str.format()"
            if fname == "write" and base_name in reg.STDIO_RECEIVERS:
                return f"{base_name}.write()"
        return None

    def construct(self, values: list[Taint]) -> Taint:
        # The instance is a *container*, tracked symbolically (non-direct
        # deps) but not concretely — the object is not the secret it
        # holds.  Secrets are recovered at field extraction
        # (`kp.private`) by the name heuristics, and unredacted reprs by
        # the structural dataclass check.
        return join_all(values).with_level(CLEAN).demoted()

    def apply_summary(
        self, node, cand, summary: Summary, values, exprs, env, *, no_serialize_sinks
    ) -> Taint:
        for (pidx, rule), (depth, desc) in summary.param_sinks.items():
            if no_serialize_sinks and rule == RP203:
                continue
            arg_taint = values.get(pidx)
            if arg_taint is None:
                continue
            if arg_taint.level >= RULE_THRESHOLD[rule]:
                pname = cand.params[pidx] if pidx < len(cand.params) else f"#{pidx}"
                self.emit(
                    node,
                    rule,
                    f"{_qualify(arg_taint.level)} argument `{pname}` to "
                    f"`{cand.name}()` reaches a sink {depth + 1} call(s) "
                    f"deep in: {desc}",
                )
            else:
                for dep in arg_taint.direct_deps():
                    self._record(dep, rule, depth + 1, desc)
        ret = Taint(summary.returns.level)
        for pidx, direct in summary.returns.deps:
            arg_taint = values.get(pidx, TAINT_CLEAN)
            if not direct:
                # Returning a neutral projection of the argument
                # forwards only symbolic (non-direct) flow, not the
                # argument's concrete taint.
                arg_taint = arg_taint.with_level(CLEAN).demoted()
            ret = ret.join(arg_taint)
        return ret
