"""EXPERIMENTS.md's E2 claims against the E2 artifact.

The E2 over-budget energy table and the C1 headline row are copied from
``benchmarks/results/E2.txt``.  These tests parse both documents and fail
when they disagree at the printed precision, so the prose cannot drift
from the artifact again.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "EXPERIMENTS.md"
ARTIFACT = ROOT / "benchmarks" / "results" / "E2.txt"

#: C1 row wording -> baseline row name in the artifact
C1_BASELINES = {
    "PID": "pid",
    "greedy ascent": "greedy-ascent",
    "steepest drop": "steepest-drop",
    "MaxBIPS": "maxbips",
}

Table = Dict[str, List[str]]


def _artifact_tables() -> Tuple[List[str], Table, Table]:
    """(benchmarks, over-budget energy rows, reduction % rows) as printed."""
    blocks = ARTIFACT.read_text().split("\n\n")

    def parse(title: str) -> Tuple[List[str], Table]:
        block = next(b for b in blocks if title in b)
        lines = block.strip().splitlines()
        header = lines.index(next(line for line in lines if line.startswith("-")))
        columns = lines[header - 1].split()
        rows = {
            cells[0]: cells[1:]
            for cells in (line.split() for line in lines[header + 1 :])
        }
        return columns, rows

    benchmarks, energy = parse("over-budget energy (J)")
    _, reduction = parse("overshoot reduction %")
    return benchmarks, energy, reduction


def _doc_e2_table() -> Tuple[List[str], Table]:
    text = DOC.read_text()
    section = text[text.index("### E2") : text.index("### E3")]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    rows = {}
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    return header[1:], rows


def _number(text: str) -> float:
    return float(text.replace("−", "-"))


def _c1_ranges() -> Dict[str, Tuple[float, float]]:
    row = next(line for line in DOC.read_text().splitlines() if line.startswith("| C1"))
    number = r"([−-]?[\d.]+)"
    found = {
        name: (_number(lo), _number(hi))
        for name, lo, hi in re.findall(
            rf"vs ([A-Za-z ]+?): {number} to {number} %", row
        )
    }
    return found


class TestE2Table:
    def test_doc_table_matches_artifact(self):
        benchmarks, energy, _ = _artifact_tables()
        doc_benchmarks, doc_rows = _doc_e2_table()
        assert doc_benchmarks == benchmarks
        assert set(doc_rows) == set(energy)
        for controller, values in doc_rows.items():
            assert [float(v) for v in values] == [
                float(v) for v in energy[controller]
            ], controller


class TestC1Row:
    def test_every_baseline_is_reported(self):
        assert set(_c1_ranges()) == set(C1_BASELINES)

    @pytest.mark.parametrize("wording", sorted(C1_BASELINES))
    def test_range_matches_artifact(self, wording):
        """The reduction range over the benchmarks where the baseline
        overshoots at all (elsewhere both are zero and the ratio says
        nothing)."""
        benchmarks, energy, reduction = _artifact_tables()
        baseline = C1_BASELINES[wording]
        measured = [
            float(pct)
            for pct, joules in zip(reduction[baseline], energy[baseline])
            if pct != "n/a" and float(joules) > 0
        ]
        assert len(measured) > 0
        assert _c1_ranges()[wording] == (min(measured), max(measured))
