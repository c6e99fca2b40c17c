"""Every demo script runs to the end on the current API.

A demo that calls a deleted public name, or whose small-model check
fails, would otherwise go unnoticed until someone runs it by hand."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if demo.name.startswith("03_"):
        assert "FAILED" not in out
