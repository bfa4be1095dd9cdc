"""The demos run against the current API and print their tables."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, header",
    [
        ("sample_savings", ["root", "pair frac", "restricted", "baseline", "ratio"]),
        ("walk_scores", ["vertex", "exact", "estimate", "samples", "abs err"]),
    ],
)
def test_demo_prints_its_table(capsys, name, header):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("graph: ")
    assert lines[2].split() == " ".join(header).split()
    assert len(lines) > 4


def test_quickstart_imports():
    # its full run takes too long for the fast suite; importing it checks
    # that every name it uses still exists
    module = runpy.run_path(str(DEMOS / "quickstart.py"))
    assert callable(module["main"])
