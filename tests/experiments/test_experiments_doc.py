"""EXPERIMENTS.md's E2, E3, E4 and E5 claims against their artifacts.

The E2 over-budget energy table and the C1 headline rows (EXPERIMENTS.md
and README.md) are copied from ``benchmarks/results/E2.txt``; the E3
advantage figures, the C2a headline rows and their verdict from
``benchmarks/results/E3.txt``; the E4 gain ranges, the C2b headline rows
(EXPERIMENTS.md and README.md) and the C2b magnitude note from
``benchmarks/results/E4.txt``; the E5 latency table and the C3 headline
rows (EXPERIMENTS.md and README.md), verdict included, from
``benchmarks/results/E5.txt``.  These tests parse the documents and the
artifacts and fail when they disagree at the printed precision, so the
prose cannot drift from the artifacts again.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "EXPERIMENTS.md"
README = ROOT / "README.md"
ARTIFACT = ROOT / "benchmarks" / "results" / "E2.txt"
E3_ARTIFACT = ROOT / "benchmarks" / "results" / "E3.txt"
E4_ARTIFACT = ROOT / "benchmarks" / "results" / "E4.txt"
E5_ARTIFACT = ROOT / "benchmarks" / "results" / "E5.txt"

#: doc wording of a baseline -> its row name in the artifacts
C1_BASELINES = {
    "PID": "pid",
    "greedy ascent": "greedy-ascent",
    "steepest drop": "steepest-drop",
    "MaxBIPS": "maxbips",
}

Table = Dict[str, List[str]]


def _parse_table(artifact: Path, title: str) -> Tuple[List[str], Table]:
    """(column names, rows as printed) of the block titled ``title``."""
    blocks = artifact.read_text().split("\n\n")
    block = next(b for b in blocks if title in b)
    lines = block.strip().splitlines()
    header = lines.index(next(line for line in lines if line.startswith("-")))
    columns = lines[header - 1].split()
    rows = {
        cells[0]: cells[1:] for cells in (line.split() for line in lines[header + 1 :])
    }
    return columns, rows


def _artifact_tables() -> Tuple[List[str], Table, Table]:
    """(benchmarks, over-budget energy rows, reduction % rows) as printed."""
    benchmarks, energy = _parse_table(ARTIFACT, "over-budget energy (J)")
    _, reduction = _parse_table(ARTIFACT, "overshoot reduction %")
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


def _c1_ranges(path: Path = DOC) -> Dict[str, Tuple[float, float]]:
    row = next(line for line in path.read_text().splitlines() if line.startswith("| C1"))
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


def _c1_artifact_range(wording: str) -> Tuple[float, float]:
    """The reduction range over the benchmarks where the baseline
    overshoots at all (elsewhere both are zero and the ratio says
    nothing)."""
    _, energy, reduction = _artifact_tables()
    baseline = C1_BASELINES[wording]
    measured = [
        float(pct)
        for pct, joules in zip(reduction[baseline], energy[baseline])
        if pct != "n/a" and float(joules) > 0
    ]
    assert len(measured) > 0
    return min(measured), max(measured)


class TestC1Row:
    def test_every_baseline_is_reported(self):
        assert set(_c1_ranges()) == set(C1_BASELINES)

    def test_readme_reports_every_baseline(self):
        assert set(_c1_ranges(README)) == set(C1_BASELINES)

    @pytest.mark.parametrize("wording", sorted(C1_BASELINES))
    def test_range_matches_artifact(self, wording):
        assert _c1_ranges()[wording] == _c1_artifact_range(wording)

    @pytest.mark.parametrize("wording", sorted(C1_BASELINES))
    def test_readme_range_matches_artifact(self, wording):
        assert _c1_ranges(README)[wording] == _c1_artifact_range(wording)


def _e3_advantages() -> Tuple[List[str], Dict[str, List[float]]]:
    """(benchmarks, OD-RL's advantage per baseline) as E3.txt prints them."""
    benchmarks, rows = _parse_table(E3_ARTIFACT, "OD-RL advantage (x)")
    return benchmarks, {name: [float(v) for v in values] for name, values in rows.items()}


def _overshoots(controller: str) -> List[bool]:
    """Per benchmark: does ``controller`` overshoot at all (E2, as printed)?"""
    _, energy, _ = _artifact_tables()
    return [float(joules) > 0 for joules in energy[controller]]


def _c2a_artifact_range(wording: str) -> Tuple[float, float]:
    """E2's benchmark set: the advantage range over the benchmarks where
    the baseline overshoots at all."""
    baseline = C1_BASELINES[wording]
    _, advantages = _e3_advantages()
    measured = [a for a, hot in zip(advantages[baseline], _overshoots(baseline)) if hot]
    assert measured
    return min(measured), max(measured)


#: the C2a verdict the documents state, and what it says per baseline
C2A_VERDICT = "reproduced vs PID; mixed vs the heuristics and MaxBIPS"
C2A_VERDICT_MEANS = {
    "PID": "reproduced",
    "greedy ascent": "mixed",
    "steepest drop": "mixed",
    "MaxBIPS": "mixed",
}


def _c2a_verdicts() -> Dict[str, str]:
    """E2's verdict rule per baseline, over the benchmarks where it
    overshoots at all: reproduced when OD-RL's ratio exceeds 1 on every
    one, mixed when on some, not reproduced when on none."""
    verdicts = {}
    for wording in C1_BASELINES:
        lo, hi = _c2a_artifact_range(wording)
        verdicts[wording] = (
            "reproduced" if lo > 1.0 else "mixed" if hi > 1.0 else "not reproduced"
        )
    return verdicts


def _c2a_ranges(row: str) -> Dict[str, Tuple[float, float]]:
    return {
        name: (float(lo), float(hi))
        for name, lo, hi in re.findall(r"vs ([A-Za-z ]+?): ([\d.]+) to ([\d.]+)×", row)
    }


def _odrl_hot_max() -> Tuple[float, str]:
    """(largest advantage vs PID, its benchmark) over the benchmarks where
    OD-RL itself overshoots at all."""
    benchmarks, advantages = _e3_advantages()
    return max(
        (a, b)
        for a, b, hot in zip(advantages["pid"], benchmarks, _overshoots("od-rl"))
        if hot
    )


class TestC2aRows:
    @pytest.mark.parametrize("path", [DOC, README], ids=["experiments", "readme"])
    def test_ranges_and_verdict_match_artifact(self, path):
        row = _headline_row(path, "| C2a")
        ranges = _c2a_ranges(row)
        assert set(ranges) == set(C1_BASELINES)
        for wording, claimed in ranges.items():
            assert claimed == _c2a_artifact_range(wording), wording
        top, benchmark = _odrl_hot_max()
        assert f"up to {top:.2f}× vs PID ({benchmark})" in row
        assert _c2a_verdicts() == C2A_VERDICT_MEANS
        assert C2A_VERDICT in row

    def test_e3_section_matches_artifact(self):
        text = DOC.read_text()
        prose = " ".join(text[text.index("### E3") : text.index("### E4")].split())
        benchmarks, advantages = _e3_advantages()
        hot = [b for b, over in zip(benchmarks, _overshoots("od-rl")) if over]
        assert hot == ["barnes", "fft", "blackscholes"]
        pid = ", ".join(
            f"{advantages['pid'][benchmarks.index(b)]:.2f}× ({b})" for b in hot
        )
        assert f"vs PID {pid};" in prose
        for wording in ("greedy ascent", "steepest drop", "MaxBIPS"):
            row = advantages[C1_BASELINES[wording]]
            listed = ", ".join(f"{row[benchmarks.index(b)]:.2f}×" for b in hot)
            assert f"vs {wording} {listed}" in prose, wording
        fluid = advantages["pid"][benchmarks.index("fluidanimate")]
        assert f"finite {fluid:.2f}× vs PID" in prose
        assert "exactly zero" not in prose
        assert C2A_VERDICT.replace("; ", " and ") in prose


def _e4_gains() -> Dict[str, List[float]]:
    """OD-RL's efficiency gain % per baseline, one value per benchmark."""
    _, rows = _parse_table(E4_ARTIFACT, "efficiency gain %")
    return {name: [float(v) for v in values] for name, values in rows.items()}


def _best_baseline_range() -> Tuple[float, float]:
    """Range over the benchmarks of the gain vs that benchmark's most
    efficient baseline (the smallest gain in its column)."""
    columns = list(zip(*_e4_gains().values()))
    per_benchmark = [min(column) for column in columns]
    return min(per_benchmark), max(per_benchmark)


def _max_gain() -> Tuple[float, str, str]:
    """(largest gain, its baseline row, its benchmark) in the E4 table."""
    benchmarks, _ = _parse_table(E4_ARTIFACT, "efficiency gain %")
    return max(
        (gain, baseline, benchmark)
        for baseline, gains in _e4_gains().items()
        for gain, benchmark in zip(gains, benchmarks)
    )


def _c2b_claim(row: str) -> Tuple[float, str, str, float, float]:
    """(max gain, baseline, benchmark, best-baseline low, high) of a C2b row."""
    match = re.search(
        r"up to ([\d.]+) % \(vs (\w+) on (\w+)\); ([\d.]+) to ([\d.]+) % vs the "
        r"most efficient baseline",
        row,
    )
    assert match, row
    top, baseline, benchmark, lo, hi = match.groups()
    return float(top), baseline, benchmark, float(lo), float(hi)


def _headline_row(path: Path, prefix: str) -> str:
    return next(line for line in path.read_text().splitlines() if line.startswith(prefix))


class TestE4Gains:
    def _prose_ranges(self) -> Dict[str, Tuple[float, float]]:
        text = DOC.read_text()
        section = text[text.index("### E4") : text.index("#### E2/E3/E4 addendum")]
        prose = " ".join(section.split())
        return {
            name: (float(lo), float(hi))
            for lo, hi, name in re.findall(
                r"\+([\d.]+)–([\d.]+) % vs ([A-Za-z ]+?)(?=\s*[,(.])", prose
            )
        }

    def test_every_baseline_is_reported(self):
        assert set(self._prose_ranges()) == set(C1_BASELINES)
        assert set(_e4_gains()) == set(C1_BASELINES.values())

    @pytest.mark.parametrize("wording", sorted(C1_BASELINES))
    def test_prose_range_matches_artifact(self, wording):
        gains = _e4_gains()[C1_BASELINES[wording]]
        assert self._prose_ranges()[wording] == (min(gains), max(gains))

    @pytest.mark.parametrize(
        "path, prefix", [(DOC, "| C2b"), (README, "| C2b")], ids=["experiments", "readme"]
    )
    def test_c2b_headline_matches_artifact(self, path, prefix):
        top, baseline, benchmark, lo, hi = _c2b_claim(_headline_row(path, prefix))
        best, best_baseline, best_benchmark = _max_gain()
        assert top == best
        assert C1_BASELINES[baseline] == best_baseline
        assert benchmark == best_benchmark
        assert (lo, hi) == _best_baseline_range()

    def test_magnitude_note_matches_artifact(self):
        text = DOC.read_text()
        note = " ".join(text[text.index("Notes on C2b") :].split("\n\n")[0].split())
        (largest,) = re.findall(r"largest gain in E4 is ([\d.]+) %", note)
        assert float(largest) == _max_gain()[0]
        assert "~11" not in note


def _e5_speedups() -> List[float]:
    """OD-RL's speedup over MaxBIPS-DP per core count, as printed."""
    _, rows = _parse_table(E5_ARTIFACT, "speedup over the centralized optimizer")
    return [float(values[0]) for values in rows.values()]


def _c3_verdict(speedups: List[float]) -> str:
    """The C3 verdict rule: >= 100x at the largest core count reproduces
    the claim; > 30x with monotone growth reproduces it partially."""
    monotone = all(b > a for a, b in zip(speedups, speedups[1:]))
    if speedups[-1] >= 100.0:
        return "reproduced"
    if speedups[-1] > 30.0 and monotone:
        return "partially reproduced"
    return "not reproduced"


def _doc_number(cell: str) -> float:
    return float(cell.replace(" ", "").rstrip("×"))


class TestE5Table:
    def test_doc_table_matches_artifact(self):
        _, latency = _parse_table(E5_ARTIFACT, "mean decision latency")
        _, speedup = _parse_table(E5_ARTIFACT, "speedup over the centralized optimizer")
        text = DOC.read_text()
        section = text[text.index("### E5") : text.index("#### E5 addendum")]
        lines = [line for line in section.splitlines() if line.startswith("|")]
        rows = {
            cells[0]: cells[1:]
            for cells in (
                [c.strip() for c in line.strip("|").split("|")] for line in lines[2:]
            )
        }
        assert set(rows) == set(latency)
        for cores, cells in rows.items():
            expected = [float(v) for v in latency[cores] + speedup[cores]]
            assert [_doc_number(c) for c in cells] == expected, cores


class TestC3Rows:
    def _claim(self, row: str) -> float:
        (top,) = re.findall(
            r"([\d.]+)× (?:mean-decision-time advantage over|vs) MaxBIPS-DP "
            r"at 256 cores",
            row,
        )
        return float(top)

    def test_experiments_row_matches_artifact(self):
        row = _headline_row(DOC, "| C3")
        speedups = _e5_speedups()
        assert self._claim(row) == speedups[-1]
        (low,) = re.findall(r"from ([\d.]+)× at 16 cores", row)
        assert float(low) == speedups[0]
        verdict = row.strip().strip("|").split("|")[-1].strip()
        assert verdict == _c3_verdict(speedups)

    def test_readme_row_matches_artifact(self):
        row = _headline_row(README, "| C3")
        speedups = _e5_speedups()
        assert self._claim(row) == speedups[-1]
        assert f"({_c3_verdict(speedups)})" in row
