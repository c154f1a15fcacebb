"""Every ``oi`` line of the README's usage block runs as written.

Each line runs in process from the repository root, with backslash
continuations joined; it must exit 0, and a ``# -> X`` comment must be
its whole output.

    PYTHONPATH=src python -m pytest -q tests/test_readme.py
"""

import pathlib
import shlex

from _cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUBCOMMANDS = {"translen", "bbt", "intersect", "current-freq", "scaling-exp", "pf", "iwip", "graph"}


def usage_lines() -> list[str]:
    """The ``oi`` lines of the ``sh`` block under "## Command line"."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("oi ")]


def failures(lines: list[str]) -> list[tuple[str, int, str]]:
    """(line, exit code, output) of each line that exits nonzero or whose
    output is not the one its ``# -> X`` comment gives."""
    out = []
    for line in lines:
        command, _, comment = line.partition("#")
        comment = comment.strip()
        result = run(*shlex.split(command)[1:])
        if result.exit_code != 0 or comment.startswith("->") and result.output.strip() != comment[2:].strip():
            out.append((line, result.exit_code, result.output))
    return out


def test_every_usage_line_runs_as_documented(monkeypatch):
    monkeypatch.chdir(ROOT)
    lines = usage_lines()
    assert {shlex.split(line)[1] for line in lines} >= SUBCOMMANDS
    assert sum("# ->" in line for line in lines) >= 3
    assert failures(lines) == []


def test_a_misspelled_option_fails(monkeypatch):
    monkeypatch.chdir(ROOT)
    line = next(line for line in usage_lines() if " --depth " in line)
    assert failures([line]) == []
    ((_, code, output),) = failures([line.replace(" --depth ", " --dpeth ")])
    assert code == 2 and "--dpeth" in output


def test_a_wrong_arrow_fails(monkeypatch):
    monkeypatch.chdir(ROOT)
    line = next(line for line in usage_lines() if "# -> 2" in line)
    assert len(failures([line.replace("# -> 2", "# -> 3")])) == 1
