"""The one abstract interpreter behind the whole-program lint families.

RP2xx (secret taint) and RP4xx (update typestate) are the same
analysis over different lattices: walk each function body once per
pass, map local names to abstract values, apply callee summaries at
call sites, iterate every summary to a fixpoint, then walk once more
to report.  This module holds everything the two families share:

* :class:`Transfer` — the statement walker.  Branches run on copies of
  the environment and merge through the lattice's ``join``; a branch
  that returns, raises, breaks or continues does not flow into the
  code after it (its state reaches the enclosing loop instead); loop
  bodies run twice, enough for the finite lattices here.  Subclasses
  supply the lattice: ``join``, ``eval``, ``bind`` and a few statement
  hooks.
* :meth:`Transfer.apply_call` — the call-site step: resolve a call by
  name over the program index (at most :data:`MAX_CANDIDATES`
  candidates, plain functions preferred for unqualified calls), map
  positional and keyword arguments to parameter indices (offset past
  ``self`` for methods), and fold each candidate's summary in.
* :class:`WholeProgramPass` — one deduplicating, scope-aware ``emit``
  shared by every whole-program family, RP3xx included.
* :class:`DataflowPass` — the summary fixpoint (``solve``) and the
  reporting walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.flow.callgraph import FunctionInfo, ProgramIndex

# Both lattices are finite and their summaries grow monotonically, so
# the fixpoint converges well below this cap (a test pins that on the
# tree); the cap only bounds a future non-monotone summary.
MAX_FIXPOINT_PASSES = 12
# Name-based resolution joins every same-named function; past this many
# candidates a call is generic plumbing, not a flow worth following.
MAX_CANDIDATES = 8

Env = dict  # env key ("name" / "base.attr") -> abstract value


@dataclass(frozen=True)
class RuleMeta:
    """CLI/SARIF-facing metadata for one whole-program rule."""

    id: str
    name: str
    rationale: str
    hint: str


def terminal_name(node: ast.AST | None) -> str | None:
    """``foo`` for ``foo`` and ``x.y.foo``; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def env_key(expr: ast.AST | None) -> str | None:
    """The environment key an expression reads or writes, if trackable:
    a local name or a one-level attribute of one (``self.cache``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return f"{expr.value.id}.{expr.attr}"
    return None


def clip(text: str, limit: int = 90) -> str:
    """Bound a source excerpt or sink description quoted in a message."""
    return text if len(text) <= limit else text[: limit - 1] + "…"


_INERT = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Pass,
)


class Transfer:
    """Abstract interpretation of one function body over one lattice.

    ``exec_block``/``exec_stmt`` return True when control definitely
    leaves the block (return/raise/break/continue on every path).
    """

    # The lattice's "nothing known" value: bound to ``except ... as e``
    # names and the start of a candidate fold.
    BOTTOM: Any = None
    SUMMARY: type = object

    def __init__(self, func: FunctionInfo, analysis: DataflowPass, report: bool):
        self.func = func
        self.analysis = analysis
        self.report = report
        self.env: Env = {}
        # One list per enclosing loop: environments that left the body
        # early through break/continue.
        self._jumps: list[list[Env]] = []

    # -- lattice hooks ------------------------------------------------------

    def join(self, a: Any, b: Any) -> Any:
        """Least upper bound; None drops the key from a merged env."""
        raise NotImplementedError

    def eval(self, node: ast.expr | None, env: Env) -> Any:
        raise NotImplementedError

    def bind(self, target: ast.expr, value: Any, env: Env) -> None:
        raise NotImplementedError

    def summary(self) -> Any:
        """The function's contract after its body has been walked."""
        raise NotImplementedError

    def apply_summary(
        self,
        node: ast.Call,
        cand: FunctionInfo,
        summary: Any,
        values: dict[int, Any],
        exprs: dict[int, ast.expr],
        env: Env,
        **options: Any,
    ) -> Any:
        """One candidate's contribution at a call site; ``values`` and
        ``exprs`` map the candidate's parameter indices to the abstract
        values and the expressions the caller passed."""
        raise NotImplementedError

    def construct(self, values: list[Any]) -> Any:
        """The value of ``Class(...)`` given its argument values."""
        return self.BOTTOM

    def branch(self, test: ast.expr, env: Env) -> tuple[Env, Env]:
        """Evaluate a condition; the environments where it holds and
        where it does not."""
        self.eval(test, env)
        return dict(env), dict(env)

    def element(self, value: Any) -> Any:
        """What a ``for`` target is bound to when iterating ``value``."""
        return value

    # Statement hooks: the walker calls them and handles control flow.

    def on_return(self, stmt: ast.Return, env: Env) -> None:
        pass

    def on_raise(self, stmt: ast.Raise, env: Env) -> None:
        pass

    def on_exit(self, env: Env) -> None:
        """Control falls off the end of the function body."""

    def on_assert_message(self, msg: ast.expr, env: Env) -> None:
        pass

    def after_for(
        self, stmt: ast.For | ast.AsyncFor, iter_value: Any, loop_env: Env, env: Env
    ) -> None:
        """The loop's state has been merged into ``env``."""

    def exec_expr(self, value: ast.expr, env: Env) -> None:
        """An expression statement."""
        self.eval(value, env)

    # -- walking a function -----------------------------------------------------

    def emit(self, node: ast.AST, rule: str, message: str) -> None:
        if self.report:
            self.analysis.emit(self.func, node, rule, message)

    def run(self) -> Any:
        if not self.exec_block(getattr(self.func.node, "body", []), self.env):
            self.on_exit(self.env)
        return self.summary()

    # -- environments ---------------------------------------------------------

    def merge(self, into: Env, branch: Env) -> None:
        for key, value in branch.items():
            if key not in into:
                into[key] = value
                continue
            joined = self.join(into[key], value)
            if joined is None:
                del into[key]
            else:
                into[key] = joined

    def _rejoin(self, env: Env, survivors: list[Env]) -> bool:
        """Replace ``env`` by the merge of the paths that fall through;
        True (control left) when none does."""
        if not survivors:
            return True
        env.clear()
        env.update(survivors[0])
        for branch in survivors[1:]:
            self.merge(env, branch)
        return False

    # -- statements -----------------------------------------------------------

    def exec_block(self, stmts: list[ast.stmt], env: Env) -> bool:
        for stmt in stmts:
            if self.exec_stmt(stmt, env):
                return True
        return False

    def exec_stmt(self, stmt: ast.stmt, env: Env) -> bool:
        if isinstance(stmt, _INERT):
            return False
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.bind(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            value = self.join(self.eval(stmt.value, env), self.eval(stmt.target, env))
            self.bind(stmt.target, value, env)
        elif isinstance(stmt, ast.Expr):
            self.exec_expr(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            self.on_return(stmt, env)
            return True
        elif isinstance(stmt, ast.Raise):
            self.on_raise(stmt, env)
            return True
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self._jumps:
                self._jumps[-1].append(dict(env))
            return True
        elif isinstance(stmt, ast.If):
            then_env, else_env = self.branch(stmt.test, env)
            survivors = [
                branch
                for branch, block in ((then_env, stmt.body), (else_env, stmt.orelse))
                if not self.exec_block(block, branch)
            ]
            return self._rejoin(env, survivors)
        elif isinstance(stmt, ast.While):
            loop_env, _ = self.branch(stmt.test, env)
            self._exec_loop(stmt, loop_env)
            self.merge(env, loop_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_value = self.eval(stmt.iter, env)
            loop_env = dict(env)
            self.bind(stmt.target, self.element(iter_value), loop_env)
            self._exec_loop(stmt, loop_env)
            self.merge(env, loop_env)
            self.after_for(stmt, iter_value, loop_env, env)
        elif isinstance(stmt, ast.Try):
            survivors = [] if self.exec_block(stmt.body, env) else [dict(env)]
            for handler in stmt.handlers:
                handler_env = dict(env)
                if handler.name:
                    self.bind(ast.Name(handler.name, ast.Store()), self.BOTTOM, handler_env)
                if not self.exec_block(handler.body, handler_env):
                    survivors.append(handler_env)
            ended = self._rejoin(env, survivors)
            if not ended:
                self.exec_block(stmt.orelse, env)
            # `finally` runs on every path, including the ones that left.
            return self.exec_block(stmt.finalbody, env) or ended
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, value, env)
            return self.exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Assert):
            passed, _ = self.branch(stmt.test, env)
            self._rejoin(env, [passed])
            if stmt.msg is not None:
                self.on_assert_message(stmt.msg, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, ast.Match):
            self.eval(stmt.subject, env)
            for case in stmt.cases:
                case_env = dict(env)
                self.exec_block(case.body, case_env)
                self.merge(env, case_env)
        return False

    def _exec_loop(self, stmt: ast.For | ast.AsyncFor | ast.While, loop_env: Env) -> None:
        self._jumps.append([])
        for _ in range(2):
            self.exec_block(stmt.body, loop_env)
            for jumped in self._jumps[-1]:
                self.merge(loop_env, jumped)
        self._jumps.pop()
        self.exec_block(stmt.orelse, loop_env)

    # -- calls ----------------------------------------------------------------

    def apply_call(
        self,
        node: ast.Call,
        fname: str | None,
        receiver: Any,
        args: list[Any],
        kwargs: list[Any],
        env: Env,
        **options: Any,
    ) -> Any:
        """Fold the summaries of the in-program functions a call may
        reach; None when nothing in the program answers to ``fname``.

        ``receiver`` is the value of ``obj`` in ``obj.f(...)``; ``args``
        and ``kwargs`` are aligned with ``node.args``/``node.keywords``.
        """
        if fname is None:
            return None
        is_attr = isinstance(node.func, ast.Attribute)
        index = self.analysis.index
        if not is_attr and (fname in index.classes or fname == "cls"):
            return self.construct(args + kwargs)
        candidates = index.functions.get(fname, [])
        if not is_attr:
            candidates = [c for c in candidates if not c.is_method] or candidates
        if not candidates:
            return None
        out = self.BOTTOM
        for cand in candidates[:MAX_CANDIDATES]:
            values: dict[int, Any] = {}
            exprs: dict[int, ast.expr] = {}
            offset = 0
            if cand.is_method:
                offset = 1
                if is_attr:
                    values[0], exprs[0] = receiver, node.func.value
            for i, (arg, value) in enumerate(zip(node.args, args)):
                values[offset + i], exprs[offset + i] = value, arg
            for kw, value in zip(node.keywords, kwargs):
                if kw.arg in cand.params:
                    j = cand.params.index(kw.arg)
                    values[j], exprs[j] = value, kw.value
            contribution = self.apply_summary(
                node, cand, self.analysis.summary_of(cand), values, exprs, env, **options
            )
            out = self.join(out, contribution)
        return out


class WholeProgramPass:
    """A whole-program family over the shared :class:`ProgramIndex`."""

    RULES: tuple[RuleMeta, ...] = ()
    # rule id -> package top-dirs it patrols; absent = everywhere.
    SCOPES: dict[str, tuple[str, ...]] = {}

    def __init__(self, index: ProgramIndex):
        self.index = index
        self.findings: list[Finding] = []
        self._seen: set[tuple[str, int, int, str, str]] = set()
        self._meta = {meta.id: meta for meta in self.RULES}

    def emit(self, func: FunctionInfo, node: ast.AST, rule: str, message: str) -> None:
        scopes = self.SCOPES.get(rule)
        if scopes is not None and func.top_dir not in scopes:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (func.path, line, col, rule, message)
        if key in self._seen:
            return
        self._seen.add(key)
        meta = self._meta[rule]
        self.findings.append(
            Finding(
                rule=rule,
                name=meta.name,
                path=func.path,
                line=line,
                col=col,
                message=message,
                hint=meta.hint,
            )
        )


class DataflowPass(WholeProgramPass):
    """Per-function summaries iterated to a fixpoint, then a report walk."""

    TRANSFER: type[Transfer] = Transfer

    def __init__(self, index: ProgramIndex):
        super().__init__(index)
        self.summaries: dict[int, Any] = {}
        self._empty = self.TRANSFER.SUMMARY()

    def summary_of(self, func: FunctionInfo) -> Any:
        return self.summaries.get(id(func), self._empty)

    def solve(self) -> int:
        """Iterate every summary to a fixpoint; the number of passes run,
        the last of which changed nothing (unless the cap cut it)."""
        for passes in range(1, MAX_FIXPOINT_PASSES + 1):
            changed = False
            for func in self.index.all_functions:
                summary = self.TRANSFER(func, self, report=False).run()
                if summary != self.summaries.get(id(func)):
                    self.summaries[id(func)] = summary
                    changed = True
            if not changed:
                break
        return passes

    def check(self, func: FunctionInfo) -> None:
        """Per-function rules that need no dataflow (reporting walk)."""

    def run(self) -> list[Finding]:
        self.solve()
        for func in self.index.all_functions:
            self.TRANSFER(func, self, report=True).run()
            self.check(func)
        return self.findings
