"""Byte-for-byte report pins: the reports in tests/golden/ must come out of
the CLI unchanged.

Each file is named ``<flow>.<command>.json`` (the command run at
``--depth 4`` on ``flows/<flow>.json``) or ``<flow>.check.<mutation>.json``
(``check --depth 4 --mutation <mutation>``). To re-pin after an intended
report change, rerun the command with ``--out tests/golden/<file>``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowguard.cli import main
from flowguard.gates import SEEDED_ERRORS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.json"))
TRACELOG = ROOT / "tests" / "golden" / "tracelog"


def _argv(golden: Path, out: Path) -> list[str]:
    flow, command, *mutation = golden.stem.split(".")
    argv = [command, "--flow", str(ROOT / "flows" / f"{flow}.json"), "--depth", "4", "--out", str(out)]
    return argv + [f"--mutation={m}" for m in mutation]


def test_golden_reports_cover_every_flow_and_mutant():
    names = {p.name for p in GOLDEN}
    for flow in ("read_agent", "rag_barrier", "rag_no_barrier"):
        assert {f"{flow}.{cmd}.json" for cmd in ("check", "gates", "sweep")} <= names
    assert {f"read_agent.check.{m}.json" for m in SEEDED_ERRORS} <= names


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda p: p.stem)
def test_report_bytes_match_golden(golden, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(_argv(golden, out)) in (0, 1)
    assert out.read_bytes() == golden.read_bytes()


def _in_subprocess(hash_seed: str, runs: dict[Path, list[str]]) -> None:
    """Run each argv of ``runs`` through ``main`` in one fresh interpreter
    whose ``PYTHONHASHSEED`` is ``hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    program = "import json, sys\nfrom flowguard.cli import main\nfor argv in json.loads(sys.argv[1]):\n    main(argv)\n"
    subprocess.run([sys.executable, "-c", program, json.dumps(list(runs.values()))], env=env, check=True)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Actions, events and states hash by object identity, which differs
    from one process to the next, as do string hashes under different
    ``PYTHONHASHSEED`` values. The read_agent reports and the golden trace
    logs must come out byte-identical in two processes that hash
    differently."""
    flow = str(TRACELOG / "cyclic_reads.json")
    for hash_seed in ("0", "4242"):
        out = tmp_path / hash_seed
        out.mkdir()
        runs = {}
        for command in ("check", "gates", "sweep"):
            golden = ROOT / "tests" / "golden" / f"read_agent.{command}.json"
            runs[golden] = _argv(golden, out / golden.name)
        for strategy in ("random", "adversarial"):
            golden = TRACELOG / f"cyclic_reads.{strategy}.log"
            argv = ["run", "--flow", flow, "--strategy", strategy, "--seed", "7", "--steps", "300"]
            runs[golden] = argv + ["--out", str(out / golden.name)]
        _in_subprocess(hash_seed, runs)
        for golden in runs:
            assert (out / golden.name).read_bytes() == golden.read_bytes(), (hash_seed, golden.name)
