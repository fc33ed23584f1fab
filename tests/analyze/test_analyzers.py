"""Per-analyzer fixture tests.

Each analyzer has a seeded known-bad fixture tree and a clean
counterpart under ``fixtures/``.  Fixture trees mirror the production
layout below a ``src`` anchor (``<case>/src/repro/...``), so analyzers
configured with production qualified names run against them unchanged.
Bad lines carry trailing ``# BAD`` markers (one per expected finding on
that line); the tests assert exact line agreement plus message content.
"""

from collections import Counter
from pathlib import Path

import pytest

from tools.analyze.project import ProjectIndex
from tools.analyze.registry import get_analyzer

FIXTURES = Path(__file__).parent / "fixtures"


def _index(case: str) -> ProjectIndex:
    return ProjectIndex.build([FIXTURES / case])


def _run(case: str, analyzer_id: str):
    return list(get_analyzer(analyzer_id).check(_index(case)))


def _marker_lines(case: str) -> Counter:
    """(path, line) -> number of ``# BAD`` markers on that line."""
    expected: Counter = Counter()
    for path in sorted((FIXTURES / case).rglob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), start=1):
            expected[(str(path), i)] += line.count("# BAD")
    return +expected


@pytest.mark.parametrize(
    "analyzer_id,case",
    [
        ("DET001", "det001_bad"),
        ("DET002", "det002_bad"),
        ("DET003", "det003_bad"),
        ("DET004", "det004_bad"),
        ("DET005", "det005_bad"),
    ],
)
def test_bad_fixture_findings_match_markers(analyzer_id, case):
    found = Counter(
        (v.path, v.line) for v in _run(case, analyzer_id)
    )
    assert found == _marker_lines(case)


@pytest.mark.parametrize(
    "analyzer_id,case",
    [
        ("DET001", "det001_good"),
        ("DET002", "det002_good"),
        ("DET003", "det003_good"),
        ("DET004", "det004_good"),
        ("DET005", "det005_good"),
    ],
)
def test_good_fixture_is_clean(analyzer_id, case):
    assert _run(case, analyzer_id) == []


def test_every_finding_carries_its_analyzer_id():
    for analyzer_id, case in [
        ("DET001", "det001_bad"),
        ("DET002", "det002_bad"),
        ("DET003", "det003_bad"),
        ("DET004", "det004_bad"),
        ("DET005", "det005_bad"),
    ]:
        violations = _run(case, analyzer_id)
        assert violations, case
        assert {v.rule_id for v in violations} == {analyzer_id}


class TestDet001Messages:
    def test_distinguishes_the_five_patterns(self):
        messages = "\n".join(v.message for v in _run("det001_bad", "DET001"))
        assert "without a seed" in messages
        assert "hard-codes the seed" in messages
        assert "seed arithmetic" in messages
        assert "child seed drawn from a parent generator" in messages
        assert "module-level generator" in messages

    def test_shared_stream_names_both_consumers(self):
        shared = [
            v
            for v in _run("det001_bad", "DET001")
            if "module-level generator" in v.message
        ]
        assert len(shared) == 1
        assert "shared_user_one" in shared[0].message
        assert "shared_user_two" in shared[0].message


class TestDet002Diffs:
    def test_reports_fat_view(self):
        # The serial chip view may only touch its kernel handle; state it
        # keeps of its own (even via a helper) is a thinness violation.
        fat = [
            v.message
            for v in _run("det002_bad", "DET002")
            if "beyond its kernel handle" in v.message and "ManyCoreChip" in v.message
        ]
        assert len(fat) == 1
        assert "total_energy" in fat[0]
        assert "_kernel" in fat[0]

    def test_reports_fat_controller_view(self):
        # The OD-RL controller is a one-row view of the stacked learner:
        # learner state it keeps beside its ``stack`` handle is flagged.
        fat = [
            v.message
            for v in _run("det002_bad", "DET002")
            if "ODRLController" in v.message
        ]
        assert len(fat) == 1
        assert "_epoch" in fat[0]
        assert "`stack`" in fat[0]

    def test_reports_view_rng_draw(self):
        # A view drawing from an RNG consumes a stream its stacked backend
        # cannot see.
        draws = [
            v.message
            for v in _run("det002_bad", "DET002")
            if "draws from an RNG" in v.message
        ]
        assert len(draws) == 1
        assert "ManyCoreChip.reset" in draws[0]
        assert "normal: 1" in draws[0]

    def test_missing_pair_side_is_skipped(self):
        # det001 fixtures define none of the view or backend classes.
        assert _run("det001_bad", "DET002") == []


class TestDet004Reachability:
    def test_unreachable_impurity_not_flagged(self):
        for case in ("det004_bad", "det004_good"):
            assert not any(
                "unreachable_clock" in v.message for v in _run(case, "DET004")
            )

    def test_no_cache_module_no_findings(self):
        assert _run("det001_bad", "DET004") == []


class TestDet005Resolution:
    def test_unknown_type_lists_schema(self):
        unknown = [
            v
            for v in _run("det005_bad", "DET005")
            if "unknown event type" in v.message
        ]
        assert len(unknown) == 1
        assert "'epcoh'" in unknown[0].message
        assert "epoch" in unknown[0].message  # suggestion via catalogue

    def test_star_kwargs_resolved_through_dict_and_helper(self):
        messages = [v.message for v in _run("det005_bad", "DET005")]
        assert (
            sum("total_energy_j" in m for m in messages) == 2
        )  # local-dict and make_event helper sites

    def test_no_events_module_no_findings(self):
        assert _run("det001_bad", "DET005") == []
