"""Rule registry.

To add a rule: subclass :class:`repro.lint.rules.base.Rule` in a new
module here, give it a fresh ``RPxxx`` id and a kebab-case ``name``,
append an instance to ``ALL_RULES``, document it in
``docs/STATIC_ANALYSIS.md``, and add positive/negative fixtures under
``tests/lint/fixtures/``.
"""

from __future__ import annotations

from repro.lint.rules.base import CRYPTO_DIRS, ModuleContext, Rule
from repro.lint.rules.constant_time import ConstantTimeRule
from repro.lint.rules.hash_domain import HashDomainRule
from repro.lint.rules.point_validation import PointValidationRule
from repro.lint.rules.rng_discipline import RngDisciplineRule
from repro.lint.rules.secret_leak import SecretLeakRule

ALL_RULES: tuple[Rule, ...] = (
    RngDisciplineRule(),
    ConstantTimeRule(),
    SecretLeakRule(),
    PointValidationRule(),
    HashDomainRule(),
)


def all_rule_ids() -> tuple[str, ...]:
    """Every rule id the engine can report: AST rules + whole-program
    families (flow RP2xx, concurrency RP3xx, protocol RP4xx)."""
    from repro.lint.conc import CONC_RULE_IDS
    from repro.lint.flow import FLOW_RULE_IDS
    from repro.lint.proto import PROTO_RULE_IDS

    return (
        tuple(rule.id for rule in ALL_RULES)
        + tuple(FLOW_RULE_IDS)
        + tuple(CONC_RULE_IDS)
        + tuple(PROTO_RULE_IDS)
    )


def get_rule(identifier: str):
    """Look a rule up by id ("RP101"/"RP302") or name ("rng-discipline").

    Returns a :class:`Rule` for the AST rules or a
    :class:`repro.lint.dataflow.RuleMeta` for the whole-program
    families — both carry ``id``, ``name``, ``rationale`` and ``hint``.
    """
    from repro.lint.conc import CONC_RULES
    from repro.lint.flow import FLOW_RULES
    from repro.lint.proto import PROTO_RULES

    for rule in (*ALL_RULES, *FLOW_RULES, *CONC_RULES, *PROTO_RULES):
        if identifier in (rule.id, rule.name):
            return rule
    raise KeyError(f"unknown lint rule {identifier!r}")


__all__ = [
    "ALL_RULES",
    "CRYPTO_DIRS",
    "ModuleContext",
    "Rule",
    "all_rule_ids",
    "get_rule",
]
