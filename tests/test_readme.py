"""The README's Library example, score line, text-map line and records line run as
written, and its command table and command lines match the parser."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dstsim import QualityReport, cli, read_records_csv, read_wfgrid
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


@pytest.fixture
def dst_run(tmp_path):
    """The README's DST sequence on a 12x8 grid, sampled at seed 7, in ``tmp_path``."""
    out = str(tmp_path)
    field = os.path.join(out, "field.wfgrid")
    for argv in (["prepare", "--nx", "12", "--ny", "8"],
                 ["measure", "--field", field, "--photons", "1000", "--seed", "7"],
                 ["reconstruct", "--records", os.path.join(out, "records.csv"),
                  "--ideal", field]):
        assert cli.main([*argv, "--out", out]) == 0
    return tmp_path


def _python_c(marker: str, *argv, cwd) -> str:
    """Run the README's ``python -c`` line that contains ``marker``; return its stdout."""
    line = re.search(rf'^python -c "(.*{re.escape(marker)}.*)" ', _readme(), re.MULTILINE)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-c", line.group(1), *map(str, argv)], cwd=cwd,
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}).stdout


def test_score_line_prints_the_scores_of_the_report(dst_run):
    # the library's score of the two files is what reconstruct --ideal writes
    stdout = _python_c("dstsim.score", dst_run / "reconstruction.wfgrid",
                       dst_run / "field.wfgrid", cwd=dst_run)
    with open(dst_run / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    scores = {f.name: report[f.name] for f in dataclasses.fields(QualityReport)}
    assert stdout == f"{QualityReport(**scores)}\n"


def test_text_map_line_writes_ny_rows_of_nx_values(dst_run):
    _python_c("np.savetxt", "reconstruction.wfgrid", cwd=dst_run)
    amps = read_wfgrid(dst_run / "reconstruction.wfgrid").amps
    assert amps.shape == (8, 12)
    for name, expected in (("density.dat", abs(amps) ** 2), ("phase.dat", np.angle(amps))):
        rows = (dst_run / name).read_text().splitlines()
        assert [len(row.split()) for row in rows] == [12] * 8, name
        assert np.array_equal(np.loadtxt(dst_run / name), expected), name


@pytest.mark.parametrize("photons, dtype", [(0, np.float64), (1000, np.int64)],
                         ids=["noiseless", "sampled"])
def test_records_line_reads_the_readout_bit_for_bit(dst_run, photons, dtype):
    # the File formats line, viewed as the dtype the README names for the records' kind
    out = dst_run / str(photons)
    assert cli.main(["measure", "--field", str(dst_run / "field.wfgrid"), "--photons",
                     str(photons), "--seed", "7", "--out", str(out)]) == 0
    path = out / "records.csv"
    line = re.search(r"`(np\.loadtxt\(path, [^`]*\))`", _readme()).group(1)
    words = eval(line, {"np": np, "path": path}).view(dtype)
    readout = read_records_csv(path).readout
    assert readout.dtype == dtype and words.shape == (8 * 12, 6)
    assert words.T.reshape(readout.shape).tobytes() == readout.tobytes()
