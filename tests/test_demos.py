import re
import runpy
import shlex
from pathlib import Path

from prumerge.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_blocks(language):
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_demos_run(capsys):
    assert DEMOS, "no demo scripts found"
    for path in DEMOS:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out, f"{path.name} printed nothing"


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for block in readme_blocks("sh")
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv and argv[0] == "prumerge"]
    assert [argv[0] for argv in commands] == ["synth", "reduce", "cost", "stats"]
    for argv in commands:
        assert cli_main(argv) == 0, argv


def test_readme_library_example_runs():
    (block,) = readme_blocks("python")
    namespace = {}
    exec(block, namespace)
    assert namespace["result"].m == 32
