"""The gate: the shipped tree must lint clean against its baseline.

This is the test that makes the linter *binding* — a new unsuppressed
finding anywhere under ``src/``, ``examples/`` or ``benchmarks/``
fails the suite, and so does a stale baseline entry (a grandfathered
finding that was fixed but whose entry was left behind) or an unused
waiver comment (a suppression that outlived its finding).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import load_baseline
from repro.lint.dataflow import MAX_FIXPOINT_PASSES
from repro.lint.engine import parse_paths, run
from repro.lint.flow import TaintAnalysis
from repro.lint.flow.callgraph import ProgramIndex
from repro.lint.proto import ProtocolAnalysis

ROOT = Path(__file__).resolve().parents[2]
GATED_TREES = tuple(ROOT / tree for tree in ("src", "examples", "benchmarks"))

# The analyzer runs whole-program over the full tree inside the test
# suite, so its own runtime is part of the tier-1 budget.  Generous
# multiple of the observed ~4s (2-CPU container) to stay robust on
# slow CI machines.
SELF_TIME_BUDGET_SECONDS = 60.0


@pytest.fixture(scope="module")
def report():
    """One whole-tree run shared by every assertion below."""
    return run(GATED_TREES, load_baseline(ROOT / "lint-baseline.txt"))


def test_tree_is_clean(report) -> None:
    assert report.files_checked > 0
    rendered = "\n".join(finding.render() for finding in report.new)
    assert report.new == [], f"new lint findings:\n{rendered}"
    assert report.stale_baseline == [], (
        "stale baseline entries (finding fixed — regenerate the baseline "
        f"with --write-baseline): {report.stale_baseline}"
    )
    assert report.unused_waivers == [], (
        f"waivers that suppress nothing: {report.unused_waivers}"
    )


def test_analyzer_stays_within_time_budget(report) -> None:
    assert report.elapsed < SELF_TIME_BUDGET_SECONDS, (
        f"whole-tree analysis took {report.elapsed:.1f}s — the analyzer "
        "has regressed; profile before raising the budget"
    )


def test_summary_fixpoints_converge_below_the_cap() -> None:
    """Both dataflow families reach their fixpoint on the tree with room
    to spare; hitting the cap would mean summaries stopped converging
    and the report depends on where the iteration was cut."""
    modules = parse_paths(list(GATED_TREES))
    index = ProgramIndex([(m.path, m.package_path, m.tree, m.lines) for m in modules])
    for analysis in (TaintAnalysis(index), ProtocolAnalysis(index)):
        passes = analysis.solve()
        assert passes < MAX_FIXPOINT_PASSES, (type(analysis).__name__, passes)
