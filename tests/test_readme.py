"""README.md runs as written: every `seqdec` line of its sh blocks exits 0
(the simulations at two trials a point), its library example runs, and
its list of each curve subcommand's flags is the parser's."""

import re
import shlex
from pathlib import Path

import pytest

from seqdec import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


COMMANDS = [line for block in blocks("sh") for line in block.splitlines()
            if line.startswith("seqdec ")]


def test_readme_has_commands():
    assert len(COMMANDS) >= 20  # the examples and each figure's runs


@pytest.mark.parametrize("line", COMMANDS)
def test_command_exits_0(line, monkeypatch, tmp_path):
    # paths in the README are relative to the repository root
    argv = [str(ROOT / a) if a.startswith("src/") else a
            for a in shlex.split(line, comments=True)[1:]]
    if argv[0].startswith("simulate-"):
        argv += ["--trials", "2"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


def readme_curve_flags() -> dict:
    """The README's flag list per curve subcommand: the items of the list
    after "Flags of the curve subcommands", `--length/-L` read as two."""
    section = README.split("**Flags of the curve subcommands.**", 1)[1]
    items = re.findall(r"^- `(\S+)`: (.*(?:\n  .*)*)", section.split("\n\n")[1], re.MULTILINE)
    return {name: [flag for spelling in re.findall(r"`(-[^`]+)`", flags)
                   for flag in spelling.split("/")]
            for name, flags in items}


def test_curve_flag_list_matches_parsers(curve_flags):
    listed = readme_curve_flags()
    assert sorted(listed) == ["bound-gda", "bound-mlsda", "simulate-gda", "simulate-mlsda"]
    for name, flags in listed.items():
        assert flags == curve_flags(name), name


def test_library_example_runs():
    (example,) = blocks("python")
    namespace = {}
    exec(example, namespace)
    assert namespace["outcome"].branch_computations > 0
    assert namespace["bound"] >= 2 * namespace["code"].k
