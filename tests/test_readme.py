"""The README's Library example runs as written, and its command table matches the parser."""

import argparse
import dataclasses
import os
import re

from dstsim import cli
from dstsim.config import ExperimentConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block is not None, "no python block in the README's Library section"
    exec(compile(block.group(1), "README.md (Library)", "exec"), {})


def _commands(parser, names=()):
    """Each leaf subparser of ``parser`` by its command words, e.g. ``holo forward``."""
    sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if sub is None:
        return {" ".join(names): parser}
    found = {}
    for name, child in sub.choices.items():
        found.update(_commands(child, (*names, name)))
    return found


def test_command_key_table_matches_the_parser():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("| command | config-key flags |\n"):].split("\n\n")[0]
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"out"}
    rows = {}
    for line in table.splitlines()[2:]:
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        if flags.startswith("every key"):
            named = keys
        else:
            named = set(re.findall(r"`(\w+)`", flags))
            assert named or flags == "none", line
        rows[command.strip("`")] = named
    parsers = _commands(cli.build_parser())
    assert rows.keys() == parsers.keys()
    for command, parser in parsers.items():
        assert rows[command] == {a.dest for a in parser._actions} & keys, command
