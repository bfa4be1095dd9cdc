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
        ("quickstart", ["tolerance", "estimate", "error", "samples", "budget", "stop"]),
    ],
)
def test_demo_prints_its_table(capsys, name, header):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("graph: ")
    # the table header follows the first blank line
    top = lines.index("") + 1
    assert lines[top].split() == " ".join(header).split()
    assert len(lines) > top + 2
