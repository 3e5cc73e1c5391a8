"""Typestate protocol analysis (RP401–RP405).

The fourth analyzer family: object-protocol checking over the shared
program index.  ``ProtocolAnalysis`` is the engine-facing entry point;
the rule metadata rides the same :class:`~repro.lint.dataflow.RuleMeta`
shape as the flow and concurrency families so the CLI, SARIF renderer,
and waiver machinery treat all four uniformly.
"""

from repro.lint.proto.analysis import (
    PROTO_RULE_IDS,
    PROTO_RULES,
    ProtocolAnalysis,
)

__all__ = [
    "PROTO_RULE_IDS",
    "PROTO_RULES",
    "ProtocolAnalysis",
]
