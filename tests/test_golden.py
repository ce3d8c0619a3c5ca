"""Golden corpus: the README's command lines and their exact output.

``golden/commands.txt`` holds the command lines of the README's "Command
line" section, one per line; ``golden/NN.out`` holds the exact stdout of
line NN (for ``delta plot --out FILE``, the file it writes).
``golden/extra_commands.txt`` and ``golden/xNN.out`` do the same for
command lines the README does not show: CSV probes, probes and estimators
on a ``--cf`` list, the estimators on the Liouville presets, upper
mechanical and central words, bracketed word letters, plots whose range
starts between slopes and crosses integer slopes, and a sparse root (the
word 1 0^38 1) refined to 1e-40 and printed to 45 digits, and two series
roots at irrational slopes (golden to 1e-100, the ``--cf 0,2,periodic``
slope to 1e-120).
Refactors and kernel rewrites must leave every byte unchanged.

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
EXTRA = GOLDEN.joinpath("extra_commands.txt").read_text().splitlines()


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


@pytest.mark.parametrize("n", range(1, len(EXTRA) + 1))
def test_extra_golden_output(n, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_DIGITS, raising=False)
    expected = GOLDEN.joinpath(f"x{n:02d}.out").read_text()
    assert capture(EXTRA[n - 1], tmp_path) == expected


if __name__ == "__main__":
    os.environ.pop(cli.ENV_DIGITS, None)
    for prefix, lines in (("", COMMANDS), ("x", EXTRA)):
        for n, line in enumerate(lines, start=1):
            name = f"{prefix}{n:02d}.out"
            with tempfile.TemporaryDirectory() as tmp:
                GOLDEN.joinpath(name).write_text(capture(line, Path(tmp)))
            print(f"{name}  {line}", file=sys.stderr)
