"""The README's Library example and score line run as written, and its command table and
command lines match the parser."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

from dstsim import QualityReport, cli
from dstsim.config import ExperimentConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_library_example_runs():
    text = _readme()
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
    text = _readme()
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


def test_every_command_line_names_a_command_of_the_parser():
    # a removed command is not left running in the docs
    blocks = re.findall(r"```sh\n(.*?)```", _readme(), re.DOTALL)
    named = [m.group(1).strip() for block in blocks for line in block.splitlines()
             if (m := re.match(r"\s*dstsim((?: [a-z]+)*)", line))]
    assert len(named) >= 8, named
    parsers = _commands(cli.build_parser())
    assert [words for words in named if words not in parsers] == []


def test_score_line_prints_the_scores_of_the_report(tmp_path):
    # the library's score of the two files is what reconstruct --ideal writes
    code = re.search(r'^python -c "(.*dstsim\.score.*)" ', _readme(), re.MULTILINE).group(1)
    out = str(tmp_path)
    field, rec = os.path.join(out, "field.wfgrid"), os.path.join(out, "reconstruction.wfgrid")
    for argv in (["prepare", "--nx", "12", "--ny", "8"],
                 ["measure", "--field", field, "--photons", "1000", "--seed", "7"],
                 ["reconstruct", "--records", os.path.join(out, "records.csv"),
                  "--ideal", field]):
        assert cli.main([*argv, "--out", out]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code, rec, field], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    scores = {f.name: report[f.name] for f in dataclasses.fields(QualityReport)}
    assert proc.stdout == f"{QualityReport(**scores)}\n"
