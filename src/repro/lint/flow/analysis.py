"""The taint pass: RP201–RP204 on the shared dataflow interpreter.

:class:`TaintAnalysis` iterates ``FunctionTransfer`` summaries to a
fixpoint over the whole program (the shared ``DataflowPass``), then
runs a reporting walk that emits findings wherever *concretely* secret
values reach sinks — including call sites whose taint disappears into
a helper that leaks several hops later.

A separate structural scan flags secret-named fields of ``@dataclass``
definitions whose generated ``__repr__`` would render them (the
``repr(key_pair)``-in-a-traceback leak that no expression-level
analysis can see), unless the field or class opts out of repr or the
class installs a redacted one.
"""

from __future__ import annotations

import ast

from repro.lint.dataflow import DataflowPass, RuleMeta
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import FunctionInfo
from repro.lint.flow.transfer import (
    RP201,
    RP202,
    RP203,
    RP204,
    FunctionTransfer,
)
from repro.lint.flow import registry as reg

# Which package top-dirs each flow rule patrols; RP201 patrols
# everywhere.  "" is the top_dir of files outside the repro package
# (examples, benchmarks, scripts) — rendering and third-party escapes
# matter there, branch timing and serialization discipline do not.
_CRYPTO_DIRS = ("core", "crypto", "ec", "pairing", "math", "baselines")

FLOW_RULES: tuple[RuleMeta, ...] = (
    RuleMeta(
        RP201,
        "secret-flow-sink",
        "a secret (or pre-KDF derived) value flows — possibly through "
        "helper calls — into logging, printing, f-strings, repr, or "
        "exception text",
        "log a length/placeholder instead, or KDF the value first; for "
        "dataclasses holding keys, redact with repro.crypto.redacted_repr",
    ),
    RuleMeta(
        RP202,
        "secret-branch",
        "control flow (if/while/assert/ternary) depends on a secret "
        "value — variable-time execution observable over the network",
        "restructure to constant-time selection, or waive with a "
        "justification when the branch reveals only negligible information",
    ),
    RuleMeta(
        RP203,
        "secret-serialize",
        "a secret or pre-KDF pairing value is serialized or persisted "
        "without passing a KDF",
        "pass the value through repro.crypto.kdf.derive_key or "
        "PairingGroup.mask_bytes before it leaves the process",
    ),
    RuleMeta(
        RP204,
        "taint-escape",
        "a secret value is passed to an untracked third-party callable "
        "the analysis cannot follow",
        "wrap the boundary in an audited in-tree helper, or sanitize "
        "the value before it crosses",
    ),
)

FLOW_RULE_IDS = tuple(meta.id for meta in FLOW_RULES)


class TaintAnalysis(DataflowPass):
    """Secret-taint summaries, their fixpoint, and the RP2xx report."""

    RULES = FLOW_RULES
    SCOPES = {RP202: _CRYPTO_DIRS, RP203: _CRYPTO_DIRS, RP204: (*_CRYPTO_DIRS, "")}
    TRANSFER = FunctionTransfer

    def run(self) -> list[Finding]:
        super().run()
        for pseudo in self.index.module_functions:
            _check_dataclass_reprs(self, pseudo)
        return self.findings


def _dataclass_call_suppresses_repr(decorator: ast.expr) -> tuple[bool, bool]:
    """(is_dataclass_decorator, repr_suppressed) for one decorator node."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else (
        target.id if isinstance(target, ast.Name) else None
    )
    if name != "dataclass":
        return False, False
    if isinstance(decorator, ast.Call):
        for kw in decorator.keywords:
            if kw.arg == "repr" and isinstance(kw.value, ast.Constant):
                return True, kw.value.value is False
    return True, False


def _is_redacted_repr_decorator(decorator: ast.expr) -> bool:
    """True for ``@redacted_repr(...)`` (the repro.crypto helper)."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else (
        target.id if isinstance(target, ast.Name) else None
    )
    return name == "redacted_repr"


def _field_repr_suppressed(value: ast.expr | None) -> bool:
    if not isinstance(value, ast.Call):
        return False
    target = value.func
    name = target.attr if isinstance(target, ast.Attribute) else (
        target.id if isinstance(target, ast.Name) else None
    )
    if name != "field":
        return False
    for kw in value.keywords:
        if kw.arg == "repr" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


def _check_dataclass_reprs(analysis: TaintAnalysis, pseudo: FunctionInfo) -> None:
    for node in ast.walk(pseudo.node):
        if not isinstance(node, ast.ClassDef):
            continue
        is_dataclass = repr_suppressed = False
        for decorator in node.decorator_list:
            found, suppressed = _dataclass_call_suppresses_repr(decorator)
            is_dataclass = is_dataclass or found
            repr_suppressed = (
                repr_suppressed
                or suppressed
                or _is_redacted_repr_decorator(decorator)
            )
        if not is_dataclass:
            continue
        defines_repr = any(
            (isinstance(item, ast.FunctionDef) and item.name == "__repr__")
            or (
                isinstance(item, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__repr__"
                    for t in item.targets
                )
            )
            for item in node.body
        )
        if defines_repr:
            continue
        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or not isinstance(
                item.target, ast.Name
            ):
                continue
            field_name = item.target.id
            if not reg.is_secret_name(field_name):
                continue
            if repr_suppressed or _field_repr_suppressed(item.value):
                continue
            analysis.emit(
                pseudo,
                item,
                RP201,
                f"secret field `{field_name}` of dataclass `{node.name}` is "
                "rendered by the generated __repr__",
            )
