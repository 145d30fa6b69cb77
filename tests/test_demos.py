import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_clean(path, capsys):
    # each demo runs to the end in-process; any warning fails it
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
