"""Keep the narrative demo scripts and the README's library tour runnable."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_readme_library_tour_runs(monkeypatch):
    """The one Python block of the README's "Library tour" section runs
    from the repository root, assertions included."""
    monkeypatch.chdir(ROOT)
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md (Library tour)", "exec"), {})
