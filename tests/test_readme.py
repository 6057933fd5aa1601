"""The README's command-line examples run and write the files its table of
outputs lists, and its command-line section names every option there is."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import redkit
from redkit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TABLE_HEADER = "files under `--out`, in write order"


def section(text, heading):
    """The text under a ``##`` heading, up to the next one."""
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def example_commands(text):
    """The command lines of the first ``sh`` block, continuation lines
    joined and comments dropped, as argument lists."""
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def output_table(text):
    """Command name -> a pattern for each file the table of outputs lists;
    a ``<placeholder>`` stands for one path component."""
    lines = text[text.index(TABLE_HEADER):].splitlines()[2:]
    table = {}
    for line in lines:
        if not line.startswith("|"):
            break
        command, files = (cell.strip() for cell in line.strip("|").split("|"))
        table[command.strip("`")] = [
            re.sub(r"<\w+>", "[^/]+", re.escape(name))
            for name in re.findall(r"`([^`]+)`", files)]
    return table


def test_command_line_examples_write_the_files_the_table_lists(tmp_path):
    text = section(README.read_text(encoding="utf-8"), "Command line")
    table = output_table(text)
    commands = example_commands(text)
    assert sorted(argv[1] for argv in commands) == sorted(table)
    src = str(Path(redkit.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "REDKIT_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in commands:
        assert argv[0] == "redkit"
        proc = subprocess.run([sys.executable, "-m", "redkit.cli", *argv[1:]],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / argv[argv.index("--out") + 1]
        written = [p.relative_to(out).as_posix()
                   for p in sorted(out.rglob("*")) if p.is_file()]
        patterns = table[argv[1]]
        for name in written:
            assert sum(bool(re.fullmatch(p, name)) for p in patterns) == 1, name
        for pattern in patterns:
            assert any(re.fullmatch(pattern, name) for name in written), pattern


def test_command_line_section_names_every_option_and_no_other():
    text = section(README.read_text(encoding="utf-8"), "Command line")
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in parser._actions for o in a.option_strings
                      if o.startswith("--") and a.default != argparse.SUPPRESS}
               for name, parser in sub.choices.items()}
    named = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    for command, declared in options.items():
        assert declared <= named, (command, sorted(declared - named))
    every = set().union(*options.values())
    assert named <= every, sorted(named - every)
