"""Golden corpus: the README's command lines and their exact output.

``golden/commands.txt`` holds the command lines of the README's "Command
line" section, one per line; ``golden/NN.out`` holds the exact stdout of
line NN (for ``delta plot --out FILE``, the file it writes).  Refactors and
kernel rewrites must leave every byte unchanged.

Regenerate the corpus, after a deliberate output change only, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from staircase import cli

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
COMMANDS = GOLDEN.joinpath("commands.txt").read_text().splitlines()


def _argv(line: str):
    argv = shlex.split(line)
    assert argv[0] == "staircase"
    return argv[1:]


def capture(line: str, workdir: Path) -> str:
    """Output of one command line, run in process in ``workdir``."""
    argv = _argv(line)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code == cli.EXIT_OK, line
    if "--out" in argv:
        return (workdir / argv[argv.index("--out") + 1]).read_text()
    return out.getvalue()


def test_commands_are_the_readme_lines():
    readme = README.read_text()
    assert len(COMMANDS) == 15
    for line in COMMANDS:
        assert line in readme


@pytest.mark.parametrize("n", range(1, len(COMMANDS) + 1))
def test_golden_output(n, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_DIGITS, raising=False)
    expected = GOLDEN.joinpath(f"{n:02d}.out").read_text()
    assert capture(COMMANDS[n - 1], tmp_path) == expected


if __name__ == "__main__":
    os.environ.pop(cli.ENV_DIGITS, None)
    for n, line in enumerate(COMMANDS, start=1):
        with tempfile.TemporaryDirectory() as tmp:
            GOLDEN.joinpath(f"{n:02d}.out").write_text(capture(line, Path(tmp)))
        print(f"{n:02d}  {line}", file=sys.stderr)
