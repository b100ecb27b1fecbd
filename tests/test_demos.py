import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_run(capsys):
    assert DEMOS, "no demo scripts found"
    for path in DEMOS:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out, f"{path.name} printed nothing"
