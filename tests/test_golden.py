"""Byte-for-byte report pins: the reports in tests/golden/ must come out of
the CLI unchanged.

Each file is named ``<flow>.<command>.json`` (the command run at
``--depth 4`` on ``flows/<flow>.json``) or ``<flow>.check.<mutation>.json``
(``check --depth 4 --mutation <mutation>``). To re-pin after an intended
report change, rerun the command with ``--out tests/golden/<file>``.
"""

from pathlib import Path

import pytest

from flowguard.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.json"))


def _argv(golden: Path, out: Path) -> list[str]:
    flow, command, *mutation = golden.stem.split(".")
    argv = [command, "--flow", str(ROOT / "flows" / f"{flow}.json"), "--depth", "4", "--out", str(out)]
    return argv + [f"--mutation={m}" for m in mutation]


def test_golden_reports_cover_every_flow_and_mutant():
    names = {p.name for p in GOLDEN}
    for flow in ("read_agent", "rag_barrier", "rag_no_barrier"):
        assert {f"{flow}.{cmd}.json" for cmd in ("check", "gates", "sweep")} <= names
    mutants = ("drop-allowlist-guard", "step-bound-off-by-one", "event-to-noeffect", "drop-history-clause")
    assert {f"read_agent.check.{m}.json" for m in mutants} <= names


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda p: p.stem)
def test_report_bytes_match_golden(golden, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(_argv(golden, out)) in (0, 1)
    assert out.read_bytes() == golden.read_bytes()
