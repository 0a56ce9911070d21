import argparse
import dataclasses
import json
import math
import os
import stat
import struct
import subprocess
import sys

import numpy as np
import pytest

from dstsim import read_records_csv, read_wfgrid, write_wfgrid, GridSpec, TransverseWavefunction
from dstsim import ScanRecords, write_records_csv
from dstsim import normalize
from dstsim import cli, reconstruct, wavefield
from dstsim import config as cfgmod
from dstsim.cli import main
from dstsim.config import ExperimentConfig, from_file, from_text, to_text
from dstsim.wavefield import MODES
from dstsim.holography import KERNELS, PARAXIAL_MIN_EXTENTS
from dstsim.reconstruct import ESTIMATORS
from conftest import edit_csv
from oracles import gauge_align, phase_winding


def run(*argv):
    return main(list(argv))


def subparser(*names: str) -> argparse.ArgumentParser:
    parser = cli.build_parser()
    for name in names:
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = commands.choices[name]
    return parser


def flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def run_in_child(*argv, cwd=None, **env) -> subprocess.CompletedProcess:
    """Run the CLI in a child process whose environment also holds ``env``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "dstsim.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def run_in_c_locale(*argv, cwd=None) -> subprocess.CompletedProcess:
    """Run the CLI in a child process under the C locale without UTF-8 mode.

    That locale's encoding is ASCII, so a non-ASCII argument decodes to lone
    surrogates and a file read in the locale's encoding fails on any
    non-ASCII byte.
    """
    return run_in_child(*argv, cwd=cwd, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0")


#: Every field away from its default, so a field that to_text or from_text
#: drops or mistypes breaks the round trip.
EVERY_FIELD_SET = dict(
    nx=32, ny=24, pitch_um=100.5, mode="lg", l=2, waist_um=500.0, cx_um=-12.5,
    cy_um=7.25, vortex_l=-1, theta=0.4, estimator="dwt", photons=100, seed=2**64 - 1,
    lambda_nm=632.8, distance_mm=2.5, kernel="feynman", pad_factor=3, threshold=0.02,
    out="runs/a b=c",
)


_OPTICS = {"lambda_nm", "distance_mm", "kernel", "pad_factor"}
#: The configuration keys each command takes as flags besides ``--config``: the
#: keys it reads and ``out``.  prepare writes every key to config.resolved, and
#: reconstruct also takes theta, which it does not read.
COMMAND_KEYS = {
    ("prepare",): set(EVERY_FIELD_SET),
    ("measure",): {"theta", "photons", "seed", "out"},
    ("reconstruct",): {"estimator", "theta", "out"},
    ("holo", "forward"): _OPTICS | {"out"},
    ("holo", "inverse"): _OPTICS | {"out"},
    ("holo", "object"): _OPTICS | {"threshold", "out"},
}


#: One bad value per parameter that a library check in ``validate`` names first, and
#: the error ``validate`` raises for it: for an entry of ``config._KEYS_OF``, the
#: entry's keys, the library's reason, then the values as written; else the
#: library's error as written.
KEY_NAMING = {
    "grid": ({"nx": 1}, "nx, ny: grid must be at least 2x2, got 1, 64"),
    "pitch": ({"pitch_um": -5.0}, "pitch_um: pitch must be positive and finite, got -5.0"),
    "waist": ({"waist_um": -3.0}, "waist_um: waist must be positive and finite, got -3.0"),
    "oam": ({"l": 2**53 + 1}, "l: oam must be at most 2**53 in magnitude, got 9007199254740993"),
    "center": ({"cx_um": math.inf}, "cx_um, cy_um: center must be finite, got inf, 0.0"),
    "photons_per_setting": ({"photons": -1}, "photons: photons_per_setting must be >= 0, got -1"),
    "seed": ({"seed": -1}, "seed must be an integer in [0, 2**64), got -1"),
    "theta": ({"theta": 0.0}, "theta must be in (0, pi/2], got 0.0"),
    "threshold": ({"threshold": 2.0}, "threshold must be positive and at most 1, got 2.0"),
    "wavelength": ({"lambda_nm": -5.0}, "lambda_nm: wavelength must be positive, got -5.0"),
    "distance": ({"distance_mm": 0.0}, "distance_mm: distance must be positive, got 0.0"),
    "pad_factor": ({"pad_factor": 1}, "pad_factor must be an integer >= 2, got 1"),
}


class TestConfig:
    def test_round_trip_fixed_point(self):
        for values in (dict(nx=32, waist_um=500.0, theta=0.4, photons=100), EVERY_FIELD_SET):
            cfg = ExperimentConfig(**values)
            text = to_text(cfg)
            assert from_text(text) == cfg, values
            assert to_text(from_text(text)) == text, values

    def test_every_field_set_covers_every_field(self):
        for f in dataclasses.fields(ExperimentConfig):
            assert EVERY_FIELD_SET[f.name] != f.default, f.name

    def test_integral_float_values_written_as_floats(self):
        cfg = ExperimentConfig(pitch_um=100, theta=1)
        text = to_text(cfg)
        assert "pitch_um = 100.0\n" in text and "theta = 1.0\n" in text
        assert from_text(text) == cfg
        assert to_text(from_text(text)) == text

    def test_numpy_scalars_written_as_plain_numbers(self):
        cfg = ExperimentConfig(pitch_um=np.float64(100.5), nx=np.int64(32))
        text = to_text(cfg)
        assert "pitch_um = 100.5\n" in text and "nx = 32\n" in text
        assert from_text(text) == cfg

    @pytest.mark.parametrize("key, value", [("nx", True), ("photons", False),
                                            ("pad_factor", 4.0)])
    def test_bool_or_float_in_int_field_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("out", ["run#1", " run ", "run ", "a\nseed = 5", "a\rb", "a\x0bb"])
    def test_unrepresentable_string_rejected(self, out):
        with pytest.raises(ValueError, match="out"):
            ExperimentConfig(out=out)

    @pytest.mark.parametrize("key, value", [("mode", "custom"), ("estimator", "DST"),
                                            ("kernel", "spherical")])
    def test_choice_error_names_key_and_values(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be one of"):
            ExperimentConfig(**{key: value})

    def test_key_naming_covers_every_entry(self):
        # and each parameter whose check names its own key, which _KEYS_OF leaves out
        assert set(KEY_NAMING) == {*cfgmod._KEYS_OF, "seed", "theta", "threshold", "pad_factor"}
        assert all(keys != (entry,) for entry, keys in cfgmod._KEYS_OF.items())

    @pytest.mark.parametrize("entry", list(KEY_NAMING))
    def test_error_names_the_entrys_keys(self, entry):
        values, message = KEY_NAMING[entry]
        keys = cfgmod._KEYS_OF.get(entry, ())
        assert message.startswith(f"{', '.join(keys)}: {entry} " if keys else f"{entry} ")
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**values)
        assert str(exc.value) == message

    def test_reason_no_entry_names_passes_through(self, monkeypatch):
        # a library reason that starts with no entry of _KEYS_OF is raised as written
        def refuse(threshold):
            raise ValueError("unforeseen refusal, got 7")

        monkeypatch.setattr(cfgmod, "check_threshold", refuse)
        with pytest.raises(ValueError, match=r"^unforeseen refusal, got 7$"):
            ExperimentConfig()

    def test_line_without_equals_sign(self):
        with pytest.raises(ValueError, match=r"^config line 2: expected 'key = value', got 'ny 8'$"):
            from_text("nx = 8\nny 8\n")

    def test_config_file_is_utf8_in_any_locale(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_bytes("# Gau\u00df beam\nnx = 16\nny = 16\n".encode("utf-8"))
        proc = run_in_c_locale("prepare", "--config", str(cfg_path), "--out",
                               str(tmp_path / "run"))
        assert proc.returncode == 0, proc.stderr
        assert read_wfgrid(tmp_path / "run" / "field.wfgrid").grid.nx == 16

    @pytest.mark.parametrize("content, message", [
        (b"nx = 8\nny 8\n", "config line 2: expected 'key = value', got 'ny 8'"),
        (b"mode = custom\n", "mode must be one of gaussian, lg; got 'custom'"),
        (b"nx = 8\n# Gau\xdf beam\n", "config line 2: 'utf-8' codec can't decode byte 0xdf "
                                      "in position 12: invalid continuation byte"),
        # a line break is counted as from_text counts it: CR LF once, a lone CR too
        (b"nx = 8\r\n\r# \xff\n", "config line 3: 'utf-8' codec can't decode byte 0xff "
                                   "in position 11: invalid start byte"),
        # one leading byte order mark is skipped, and lines count from the text after it
        (b"\xef\xbb\xbfnx = 8\n# Gau\xdf beam\n", "config line 2: 'utf-8' codec can't decode "
                                              "byte 0xdf in position 12: invalid continuation byte"),
        # a U+FEFF anywhere else is text, a second mark included
        (b"\xef\xbb\xbf\xef\xbb\xbfnx = 8\n",
         "config line 1: unknown configuration key '\\ufeffnx'"),
        (b"nx = 8\n\xef\xbb\xbfny = 8\n", "config line 2: unknown configuration key '\\ufeffny'"),
        # a key or a value that does not parse is refused at its line
        (b"nx = 8\n\nradial = 0\n", "config line 3: unknown configuration key 'radial'"),
        (b"# grid\nnx = 8.5\n",
         "config line 2: nx: invalid literal for int() with base 10: '8.5'"),
    ])
    def test_config_file_error_names_the_file(self, tmp_path, capsys, content, message):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_bytes(content)
        assert run("prepare", "--config", str(cfg_path), "--out", str(tmp_path / "run")) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_config_file_after_a_byte_order_mark_reads_as_without_it(self, tmp_path):
        text = b"nx = 16\nny = 8  # \xef\xbb\xbf in a comment is text\n"
        (tmp_path / "plain.cfg").write_bytes(text)
        (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
        assert from_file(tmp_path / "bom.cfg") == from_file(tmp_path / "plain.cfg")

    def test_comments_and_blanks(self):
        text = "# hello\n\nnx = 16\nny = 16  # inline\n"
        cfg = from_text(text)
        assert cfg.nx == 16 and cfg.ny == 16

    def test_auto_fields(self):
        assert from_text("waist_um = auto\n").waist_um is None

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            from_text("bogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError):
            from_text("nx = 8\nnx = 9\n")

    @pytest.mark.parametrize("theta", [0.0, -0.1, 5.0, math.nan])
    def test_theta_out_of_range_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be in"):
            ExperimentConfig(theta=theta)

    def test_dst_theta_default(self):
        assert ExperimentConfig().theta == math.pi / 2
        assert ExperimentConfig(estimator="dwt").theta == math.pi / 2


class TestPrepare:
    def test_gaussian_real_nonnegative(self, tmp_path):
        out = tmp_path / "run"
        assert run("prepare", "--mode", "gaussian", "--nx", "16", "--ny", "16",
                   "--out", str(out)) == 0
        f = read_wfgrid(out / "field.wfgrid")
        assert np.all(f.amps.real >= 0)
        assert np.allclose(f.amps.imag, 0)

    def test_lg_central_zero(self, tmp_path):
        out = tmp_path / "run"
        assert run("prepare", "--mode", "lg", "--l", "1", "--nx", "17", "--ny", "17",
                   "--out", str(out)) == 0
        f = read_wfgrid(out / "field.wfgrid")
        assert f.amps[8, 8] == 0.0

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("prepare", "--mode", "gaussian", "--nx", "12", "--ny", "12",
                       "--out", str(out)) == 0
        assert (a / "field.wfgrid").read_bytes() == (b / "field.wfgrid").read_bytes()

    def test_vortex_state_is_measurable(self, tmp_path):
        # centered pure LG modes sum to zero and are refused by 'measure';
        # the vortex plate on an off-axis beam is the measurable l=1 state
        out = tmp_path / "run"
        assert run("prepare", "--mode", "gaussian", "--nx", "24", "--ny", "24",
                   "--cx-um", "250", "--cy-um", "125", "--vortex-l", "1",
                   "--out", str(out)) == 0
        f = read_wfgrid(out / "field.wfgrid")
        assert phase_winding(np.angle(f.amps), 4) == pytest.approx(1.0, abs=1e-9)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0

    def test_centered_lg_measure_refused(self, tmp_path):
        out = tmp_path / "run"
        assert run("prepare", "--mode", "lg", "--l", "1", "--nx", "24", "--ny", "24",
                   "--out", str(out)) == 0
        assert run("measure", "--field", str(out / "field.wfgrid"),
                   "--out", str(out)) == 3

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(to_text(ExperimentConfig(nx=8, ny=8, pitch_um=100.0)))
        out = tmp_path / "run"
        assert run("prepare", "--config", str(cfg_path), "--nx", "10", "--out", str(out)) == 0
        f = read_wfgrid(out / "field.wfgrid")
        assert f.grid.nx == 10 and f.grid.ny == 8
        resolved = (out / "config.resolved").read_text()
        assert "nx = 10" in resolved


def nothing_to_invert(theta: str) -> str:
    """The refusal of records that leave nothing to invert, at ``theta`` as written."""
    return (f"error: the raw quadrature map of records at theta {theta} is zero or overflows a "
            "double: no photon was counted, or theta is too small for the signal to survive "
            "rounding\n")


class TestMeasureReconstruct:
    def _prepare(self, tmp_path, n=12):
        out = tmp_path / "run"
        assert run("prepare", "--mode", "gaussian", "--nx", str(n), "--ny", str(n),
                   "--out", str(out)) == 0
        return out

    def test_noiseless_counts_empty(self, tmp_path):
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--photons", "0",
                   "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 2 + 144
        assert lines[1] == "w_plus,w_minus,w_0,w_1,w_L,w_R"
        assert all(len(line.split(",")) == 6 for line in lines[2:])

    def test_full_grid_row_count(self, tmp_path):
        out = tmp_path / "run"
        assert run("prepare", "--mode", "gaussian", "--nx", "64", "--ny", "64",
                   "--out", str(out)) == 0
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 2 + 64 * 64

    def test_measure_deterministic(self, tmp_path):
        out = self._prepare(tmp_path)
        field = str(out / "field.wfgrid")
        a, b = tmp_path / "a", tmp_path / "b"
        for dest in (a, b):
            assert run("measure", "--field", field, "--photons", "1000", "--seed", "7",
                       "--out", str(dest)) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_reconstruct_report_and_maps(self, tmp_path):
        out = self._prepare(tmp_path)
        field = str(out / "field.wfgrid")
        assert run("measure", "--field", field, "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"),
                   "--ideal", field, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimator"] == "dst" and report["theta"] == math.pi / 2
        assert report["fidelity"] >= 1 - 1e-10
        assert report["r_square"] == pytest.approx(1.0, abs=1e-9)
        assert report["rmse_re"] < 1e-9 and report["rmse_im"] < 1e-9
        rec = read_wfgrid(out / "reconstruction.wfgrid")
        ideal = read_wfgrid(field)
        assert np.max(np.abs(rec.amps - ideal.amps)) < 1e-9

    def test_reconstruct_writes_no_maps_by_default(self, tmp_path):
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
        rec = tmp_path / "rec"
        assert run("reconstruct", "--records", str(out / "records.csv"), "--out", str(rec)) == 0
        assert sorted(os.listdir(rec)) == ["reconstruction.wfgrid", "report.json"]
        # and leaves a file an earlier run wrote beside them as it is
        (rec / "density.dat").write_text("earlier\n")
        assert run("reconstruct", "--records", str(out / "records.csv"), "--out", str(rec)) == 0
        assert (rec / "density.dat").read_text() == "earlier\n"
        assert not (rec / "phase.dat").exists()

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_reconstruct_calls_the_module_inversion(self, tmp_path, monkeypatch, estimator):
        # the inversion is looked up when the command runs, so a wrapper set on
        # the module afterwards (a tracer's, or this test's) sees the call
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
        name = "reconstruct_" + estimator
        inversion, calls = getattr(reconstruct, name), []

        def traced(records):
            calls.append(records)
            return inversion(records)

        monkeypatch.setattr(reconstruct, name, traced)
        assert run("reconstruct", "--records", str(out / "records.csv"), "--estimator",
                   estimator, "--out", str(out)) == 0
        assert len(calls) == 1 and calls[0].theta == math.pi / 2
        assert json.loads((out / "report.json").read_text())["estimator"] == estimator

    def test_unknown_maps_value_is_validation_error(self, tmp_path, capsys):
        # reconstruct writes its field as WFGRID only: no command takes --maps, and a
        # config file that holds the key, as every older config.resolved does, is refused
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
        capsys.readouterr()
        for command, argv in (("reconstruct", ["--records", str(out / "records.csv")]),
                              ("prepare", [])):
            with pytest.raises(SystemExit) as exc:
                run(command, *argv, "--maps", "gnuplot", "--out", str(tmp_path / "rec"))
            assert exc.value.code == 2
            assert "unrecognized arguments: --maps gnuplot" in capsys.readouterr().err
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("maps = none\n")
        assert run("reconstruct", "--records", str(out / "records.csv"), "--config",
                   str(cfg_path), "--out", str(tmp_path / "rec")) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: config line 1: unknown configuration key 'maps'\n")
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("photons, ideal", [("100", True), ("0", False)],
                             ids=["sampled-ideal", "noiseless"])
    def test_report_keys(self, tmp_path, photons, ideal):
        # exactly these keys; the four metrics are set with --ideal and null without it,
        # zero_count_cells is set for sampled records and null for noiseless ones
        out = self._prepare(tmp_path)
        field = str(out / "field.wfgrid")
        assert run("measure", "--field", field, "--photons", photons, "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"),
                   *(["--ideal", field] if ideal else []), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        metrics = {"r_square", "fidelity", "rmse_re", "rmse_im"}
        assert report.keys() == {"psi_tilde", "estimator", "theta", "zero_count_cells", *metrics}
        assert report["psi_tilde"] > 0 and report["estimator"] == "dst"
        assert report["theta"] == math.pi / 2
        nulls = {k for k, v in report.items() if v is None}
        assert nulls == (set() if ideal else metrics | {"zero_count_cells"})

    def test_reconstruct_without_ideal_has_null_metrics(self, tmp_path):
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["r_square"] is None and report["fidelity"] is None
        assert report["rmse_re"] is None and report["rmse_im"] is None
        assert report["zero_count_cells"] is None  # noiseless records

    def test_sampled_report_counts_zero_count_cells(self, tmp_path):
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--photons", "20",
                   "--seed", "3", "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"), "--out", str(out)) == 0
        counts = read_records_csv(out / "records.csv").readout
        expected = int((counts[0::2] + counts[1::2] == 0).any(axis=0).sum())
        assert 0 < expected < 144  # the budget leaves some cells, not all, without a photon
        assert json.loads((out / "report.json").read_text())["zero_count_cells"] == expected

    def test_dwt_without_theta_takes_the_default(self, tmp_path):
        # measure scans at the default pi/2, and dwt inverts at the pi/2 the records carry
        out = self._prepare(tmp_path)
        field = str(out / "field.wfgrid")
        assert run("measure", "--field", field, "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"), "--estimator", "dwt",
                   "--ideal", field, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimator"] == "dwt" and report["fidelity"] < 1.0

    def test_dwt_with_theta(self, tmp_path):
        out = self._prepare(tmp_path)
        field = str(out / "field.wfgrid")
        assert run("measure", "--field", field, "--theta", "0.1", "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"), "--estimator", "dwt",
                   "--ideal", field, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimator"] == "dwt" and report["theta"] == 0.1
        assert 0.9 < report["fidelity"] < 1.0

    def test_dst_inverts_records_of_another_theta(self, tmp_path):
        # reconstruct is given no theta: it inverts at the 0.3 the records carry
        out = self._prepare(tmp_path)
        field = str(out / "field.wfgrid")
        assert run("measure", "--field", field, "--theta", "0.3", "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"),
                   "--ideal", field, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimator"] == "dst" and report["theta"] == 0.3
        assert report["rmse_re"] < 1e-9 and report["rmse_im"] < 1e-9

    def test_dwt_inverts_at_the_records_theta(self, tmp_path):
        # noiseless dwt at theta gives psi - (1 - cos theta) |psi|^2 / ptilde, normalized
        out = self._prepare(tmp_path)
        field = str(out / "field.wfgrid")
        assert run("measure", "--field", field, "--theta", "0.3", "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"), "--estimator", "dwt",
                   "--ideal", field, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimator"] == "dwt" and report["theta"] == 0.3
        ideal = read_wfgrid(field).amps
        gauged, ptilde = gauge_align(ideal), abs(np.sum(ideal))
        expected = gauged - (1 - math.cos(0.3)) * np.abs(gauged) ** 2 / ptilde
        expected /= np.linalg.norm(expected)
        rec = read_wfgrid(out / "reconstruction.wfgrid").amps
        assert np.max(np.abs(rec - expected)) < 1e-9
        assert report["rmse_re"] > 1e-4   # the weak-value bias, which dst does not have

    def test_offset_lg_scores_exact(self, tmp_path):
        # the default 64x64 grid: an l=1 state a sub-cell off the centre has an
        # amplitude sum of 7e-7, whose phase is no gauge for a noiseless score
        out = tmp_path
        assert run("prepare", "--mode", "lg", "--cx-um", "40", "--cy-um", "30",
                   "--out", str(out)) == 0
        field = str(out / "field.wfgrid")
        assert run("measure", "--field", field, "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"),
                   "--ideal", field, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rmse_re"] < 1e-9 and report["rmse_im"] < 1e-9

    def test_dst_takes_half_pi_written_as_text(self, tmp_path):
        out = self._prepare(tmp_path)
        field = str(out / "field.wfgrid")
        theta = "%.14g" % (math.pi / 2)      # 3e-15 away from pi/2
        assert run("measure", "--field", field, "--theta", theta, "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"),
                   "--ideal", field, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimator"] == "dst" and report["rmse_re"] < 1e-9
        assert report["theta"] == float(theta)

    def test_invalid_records_are_format_error(self, tmp_path):
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--photons", "100",
                   "--out", str(out)) == 0
        path = out / "records.csv"
        edit_csv(path, [4], 0, "fffffffffffffffd")   # a negative n_plus, -3
        assert run("reconstruct", "--records", str(path), "--out", str(out)) == 4

    def test_sampled_records_hold_counts_alone(self, tmp_path, capsys):
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--photons", "100",
                   "--seed", "2", "--out", str(out)) == 0
        path = out / "records.csv"
        lines = path.read_text().splitlines()
        assert lines[1] == "n_plus,n_minus,n_0,n_1,n_L,n_R"
        assert len(lines) == 2 + 144
        # each count as the 16 hexadecimal digits of a non-negative int64
        assert all(len(row) == 6 and all(len(v) == 16 and 0 <= int(v, 16) < 2**63 for v in row)
                   for row in (line.split(",") for line in lines[2:]))
        # the same counts with the probabilities beside them, as an earlier layout wrote
        probs = ["3fd0000000000000"] * 6   # 0.25
        lines[1] = ",".join(["w_plus", "w_minus", "w_0", "w_1", "w_L", "w_R", lines[1]])
        lines[2:] = [",".join(probs + [line]) for line in lines[2:]]
        path.write_text("\r\n".join(lines) + "\r\n")
        capsys.readouterr()
        assert run("reconstruct", "--records", str(path), "--out", str(out / "rec")) == 4
        assert "columns" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, column, value", [
        ([-2], 0, "ix=12"),            # a malformed header
        ([-2], 1, "ny=11"),            # 144 rows for a grid of 132 cells
        ([-2], 3, "theta=0.0"),
        ([-2], 2, "pitch=-0.000125"),
    ], ids=["malformed-header", "row-count", "theta", "pitch"])
    def test_invalid_records_header_is_format_error(self, tmp_path, capsys, rows, column, value):
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
        path = out / "records.csv"
        edit_csv(path, rows, column, value)
        capsys.readouterr()
        assert run("reconstruct", "--records", str(path), "--out", str(out / "rec")) == 4
        assert str(path) in capsys.readouterr().err
        assert not (out / "rec").exists()

    # noiseless records to 17 significant digits or as float.hex wrote them, and sampled
    # ones with decimal counts
    @pytest.mark.parametrize("photons, to_text", [
        (0, "%.17g".__mod__), (0, float.hex), (100, "%d".__mod__),
    ], ids=["decimal", "float-hex", "decimal-counts"])
    def test_earlier_encodings_are_format_error(self, tmp_path, capsys, photons, to_text):
        # records in an earlier encoding are refused, naming the file and saying how to
        # rewrite them, and nothing is written
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--photons", str(photons),
                   "--out", str(out)) == 0
        path = out / "records.csv"
        cells = read_records_csv(path).readout.reshape(6, -1).T.tolist()
        lines = path.read_text().splitlines()[:2]
        lines += [",".join(map(to_text, cell)) for cell in cells]
        path.write_text("\r\n".join(lines) + "\r\n")
        capsys.readouterr()
        assert run("reconstruct", "--records", str(path), "--out", str(out / "rec")) == 4
        err = capsys.readouterr().err
        assert f"{path}: expected 144 rows of 6 fields of 16 hexadecimal digits" in err
        assert "re-run measure" in err
        assert not (out / "rec").exists()

    def test_records_without_header_are_format_error(self, tmp_path):
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
        path = out / "records.csv"
        path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        assert run("reconstruct", "--records", str(path), "--out", str(out)) == 4

    def test_all_zero_sampled_records_are_numerical_error(self, tmp_path, capsys):
        # a sampled scan that detected no photon: the raw quadrature map vanishes,
        # and no scale makes it a field
        records = tmp_path / "records.csv"
        write_records_csv(ScanRecords(np.zeros((6, 4, 4), dtype=np.int64),
                                      GridSpec(4, 4, 125e-6), math.pi / 2, 1000), records)
        assert run("reconstruct", "--records", str(records), "--out", str(tmp_path / "run")) == 3
        assert capsys.readouterr().err == nothing_to_invert(repr(math.pi / 2))
        assert not (tmp_path / "run").exists()

    def test_theta_too_small_to_invert_is_numerical_error(self, tmp_path, capsys):
        # at theta 1e-300, P+ = P-, PL = PR and P1 underflows: measure writes the
        # records, and reconstruct refuses them, naming the theta they carry
        out = tmp_path / "in"
        assert run("prepare", "--nx", "24", "--ny", "16", "--out", str(out)) == 0
        assert run("measure", "--field", str(out / "field.wfgrid"), "--theta", "1e-300",
                   "--out", str(out)) == 0
        capsys.readouterr()
        assert run("reconstruct", "--records", str(out / "records.csv"),
                   "--out", str(tmp_path / "run")) == 3
        assert capsys.readouterr().err == nothing_to_invert("1e-300")
        assert not (tmp_path / "run").exists()

    def test_sampled_records_at_a_tiny_theta_are_numerical_error(self, tmp_path, capsys):
        # at theta 1e-300 sampled counts of P+ and P- differ by noise alone, and noise
        # over 2 sin theta overflows the raw map's power: refused as the noiseless
        # records are, 3, naming theta, and nothing is written
        out = tmp_path / "in"
        assert run("prepare", "--nx", "24", "--ny", "16", "--out", str(out)) == 0
        assert run("measure", "--field", str(out / "field.wfgrid"), "--theta", "1e-300",
                   "--photons", "1000", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("reconstruct", "--records", str(out / "records.csv"),
                   "--out", str(tmp_path / "run")) == 3
        assert capsys.readouterr().err == nothing_to_invert("1e-300")
        assert not (tmp_path / "run").exists()

    def test_reconstruct_takes_the_grid_from_the_records(self, tmp_path, capsys):
        # reconstruct takes no grid flag, and the grid of a config file is not read:
        # records of 12x12 cells at 125 um stay so
        out = self._prepare(tmp_path)
        assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
        records = str(out / "records.csv")
        for flags in (["--pitch-um", "999"], ["--nx", "9"]):
            with pytest.raises(SystemExit) as exc:
                run("reconstruct", "--records", records, *flags, "--out", str(tmp_path / "rec"))
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("pitch_um = 999\nnx = 9\n")
        assert run("reconstruct", "--records", records, "--config", str(cfg_path),
                   "--out", str(out)) == 0
        rec = read_wfgrid(out / "reconstruction.wfgrid")
        assert rec.grid == GridSpec(12, 12, 125e-6)


class TestOutputFiles:
    def test_failed_writer_leaves_nothing(self, tmp_path):
        target = tmp_path / "out" / "result.dat"

        def writer(path):
            with open(path, "w") as fh:
                fh.write("partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError):
            cli._atomic_write(str(target), writer)
        assert list((tmp_path / "out").iterdir()) == []

    def test_outputs_follow_the_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            assert run("prepare", "--nx", "8", "--ny", "8", "--out", str(tmp_path)) == 0
        finally:
            os.umask(umask)
        assert sorted(os.listdir(tmp_path)) == ["config.resolved", "field.wfgrid"]
        for name in ("config.resolved", "field.wfgrid"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640, name

    def test_non_finite_json_value_refused(self, tmp_path):
        cfg = ExperimentConfig(out=str(tmp_path / "run"))
        with pytest.raises(ValueError):
            cli._write_json(cfg, "x.json", {"r_square": -math.inf})
        assert not (tmp_path / "run" / "x.json").exists()


class TestIdealScore:
    """``reconstruct --ideal`` scores the reconstruction in report.json."""

    def _reconstruct(self, tmp_path, ideal, *prepare):
        """report.json of noiseless records of a field that ``prepare`` makes, scored
        against ``ideal``, or against that field itself when ``ideal`` is None."""
        out = tmp_path / "run"
        assert run("prepare", *prepare, "--out", str(out)) == 0
        field = out / "field.wfgrid"
        assert run("measure", "--field", str(field), "--out", str(out)) == 0
        assert run("reconstruct", "--records", str(out / "records.csv"),
                   "--ideal", str(ideal or field), "--out", str(out)) == 0
        return out / "report.json"

    def test_identity(self, tmp_path, capsys):
        path = self._reconstruct(tmp_path, None, "--nx", "10", "--ny", "10")
        report = json.loads(path.read_text())
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert report["r_square"] == pytest.approx(1.0, abs=1e-12)
        # reconstruct prints the report's path, and the file is indented, key-sorted JSON
        assert capsys.readouterr().out.splitlines()[-1] == str(path)
        assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_undefined_r_square_is_null(self, tmp_path):
        # a flat density has no variance to explain: R^2 is undefined, and JSON
        # has no -Infinity to write for it
        gauss = tmp_path / "g"
        assert run("prepare", "--nx", "8", "--ny", "8", "--out", str(gauss)) == 0
        path = self._reconstruct(tmp_path, gauss / "field.wfgrid",
                                 "--nx", "8", "--ny", "8", "--waist-um", "1e30")

        def refuse(name):
            raise ValueError(f"{name} is not JSON")
        report = json.loads(path.read_text(), parse_constant=refuse)
        assert report["r_square"] is None
        assert 0.0 < report["fidelity"] < 1.0

    @pytest.mark.parametrize("factor", [2.0**-600, 2.0**500, np.exp(2j), -1j],
                             ids=["underflow", "large", "phase-2", "phase-minus-half-pi"])
    def test_scale_and_global_phase_of_the_ideal_do_not_count(self, tmp_path, factor):
        # the ideal is scaled to unit power, even one whose power underflows a double,
        # and turned so its amplitude sum is real and positive
        expected = self._reconstruct(tmp_path / "a", None, "--nx", "12", "--ny", "8")
        f = read_wfgrid(expected.parent / "field.wfgrid")
        ideal = tmp_path / "ideal.wfgrid"
        write_wfgrid(ideal, f.with_amps(f.amps * factor))
        path = self._reconstruct(tmp_path / "b", ideal, "--nx", "12", "--ny", "8")
        assert json.loads(path.read_text()) == pytest.approx(
            json.loads(expected.read_text()), abs=1e-12)


class TestHoloCommands:
    def _field(self, tmp_path, n=64, pitch_um=3.0):
        out = tmp_path / "run"
        assert run("prepare", "--mode", "gaussian", "--nx", str(n), "--ny", str(n),
                   "--pitch-um", str(pitch_um), "--out", str(out)) == 0
        return out

    def test_forward_inverse_round_trip(self, tmp_path):
        out = self._field(tmp_path)
        common = ["--lambda-nm", "808", "--distance-mm", "2.5", "--kernel", "fresnel",
                  "--pad-factor", "4", "--out", str(out)]
        assert run("holo", "forward", "--in", str(out / "field.wfgrid"), *common) == 0
        assert run("holo", "inverse", "--in", str(out / "propagated.wfgrid"), *common) == 0
        f = read_wfgrid(out / "field.wfgrid")
        back = read_wfgrid(out / "backpropagated.wfgrid")
        rel = np.linalg.norm(back.amps - f.amps) / np.linalg.norm(f.amps)
        assert rel < 1e-2

    def test_null_object_transmission(self, tmp_path):
        out = self._field(tmp_path)
        common = ["--lambda-nm", "808", "--distance-mm", "2.5", "--kernel", "fresnel",
                  "--pad-factor", "4", "--out", str(out)]
        assert run("holo", "forward", "--in", str(out / "field.wfgrid"), *common) == 0
        assert run("holo", "object", "--measured", str(out / "propagated.wfgrid"),
                   "--input", str(out / "field.wfgrid"), "--threshold", "3e-3", *common) == 0
        t = read_wfgrid(out / "transmission.wfgrid")
        report = json.loads((out / "object_report.json").read_text())
        valid = np.abs(t.amps) > 0
        assert report["valid_cells"] == int(valid.sum())
        assert np.max(np.abs(t.amps[valid] - 1.0)) < 0.05

    def test_object_writes_what_inverse_writes(self, tmp_path):
        # holo object writes the back-propagation it divides, byte for byte the
        # file that holo inverse writes from the same measured field
        out = self._field(tmp_path)
        common = ["--lambda-nm", "808", "--distance-mm", "2.5", "--kernel", "fresnel",
                  "--pad-factor", "4"]
        inverse, obj = tmp_path / "inverse", tmp_path / "object"
        assert run("holo", "forward", "--in", str(out / "field.wfgrid"), *common,
                   "--out", str(out)) == 0
        assert run("holo", "inverse", "--in", str(out / "propagated.wfgrid"), *common,
                   "--out", str(inverse)) == 0
        assert run("holo", "object", "--measured", str(out / "propagated.wfgrid"),
                   "--input", str(out / "field.wfgrid"), *common, "--out", str(obj)) == 0
        assert ((obj / "backpropagated.wfgrid").read_bytes()
                == (inverse / "backpropagated.wfgrid").read_bytes())

    def test_signed_pgm_size_is_a_format_error(self, tmp_path, capsys):
        out = self._field(tmp_path, n=8)
        pgm = tmp_path / "signed.pgm"
        pgm.write_bytes(b"P5 -2 -2 255\n" + bytes(4))
        assert run("holo", "forward", "--in", str(out / "field.wfgrid"), "--object", str(pgm),
                   "--out", str(out)) == 4
        assert "PGM" in capsys.readouterr().err
        assert not (out / "propagated.wfgrid").exists()

    def test_object_of_another_shape_names_the_pgm(self, tmp_path, capsys):
        out = self._field(tmp_path, n=16)
        pgm = tmp_path / "small.pgm"
        pgm.write_bytes(b"P5 8 8 255\n" + bytes(64))
        assert run("holo", "forward", "--in", str(out / "field.wfgrid"), "--object", str(pgm),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (f"error: {pgm}: object shape (8, 8) does not match "
                                           "field (16, 16)\n")
        assert not (out / "propagated.wfgrid").exists()

    def test_pgm_object_end_to_end(self, tmp_path):
        # wide illumination so the bar sits on a bright region, and the
        # shortest distance the guards allow, to limit edge diffraction
        out = tmp_path / "run"
        assert run("prepare", "--mode", "gaussian", "--nx", "64", "--ny", "64",
                   "--pitch-um", "3.0", "--waist-um", "60.0", "--out", str(out)) == 0
        mask = np.zeros((64, 64), dtype=np.uint8)
        mask[24:40, 26:38] = 255
        pgm = tmp_path / "bar.pgm"
        pgm.write_bytes(b"P5\n64 64\n255\n" + mask.tobytes())
        common = ["--lambda-nm", "808", "--distance-mm", "2.0", "--kernel", "fresnel",
                  "--pad-factor", "4", "--out", str(out)]
        assert run("holo", "forward", "--in", str(out / "field.wfgrid"),
                   "--object", str(pgm), *common) == 0
        assert run("holo", "object", "--measured", str(out / "propagated.wfgrid"),
                   "--input", str(out / "field.wfgrid"), "--threshold", "0.02", *common) == 0
        t = read_wfgrid(out / "transmission.wfgrid")
        valid = np.abs(t.amps) > 0
        corr = np.corrcoef(np.abs(t.amps[valid]), (mask[valid] / 255.0))[0, 1]
        assert corr >= 0.9

    def test_object_report_guard_margins(self, tmp_path):
        out = self._field(tmp_path)
        common = ["--lambda-nm", "808", "--distance-mm", "2.5", "--kernel", "fresnel",
                  "--out", str(out)]
        assert run("holo", "forward", "--in", str(out / "field.wfgrid"), *common) == 0
        assert run("holo", "object", "--measured", str(out / "propagated.wfgrid"),
                   "--input", str(out / "field.wfgrid"), *common) == 0
        report = json.loads((out / "object_report.json").read_text())
        assert 0.0 < report["nyquist_fraction"] < 1.0
        assert report["distance_over_extent"] >= PARAXIAL_MIN_EXTENTS

    @pytest.mark.parametrize("threshold", ["-1", "0", "nan", "2"])
    def test_bad_threshold_is_validation_error(self, tmp_path, threshold):
        out = self._field(tmp_path)
        common = ["--lambda-nm", "808", "--distance-mm", "2.5", "--kernel", "fresnel",
                  "--out", str(out)]
        assert run("holo", "forward", "--in", str(out / "field.wfgrid"), *common) == 0
        code = run("holo", "object", "--measured", str(out / "propagated.wfgrid"),
                   "--input", str(out / "field.wfgrid"), "--threshold", threshold, *common)
        assert code == 2
        assert not (out / "object_report.json").exists()

    def test_config_resolved_reproduces_the_holo_run(self, tmp_path):
        # prepare records the holography keys once; the holo commands then run from
        # config.resolved alone and match a run given every key as a flag
        optics = ["--lambda-nm", "808", "--distance-mm", "2.0", "--kernel", "fresnel",
                  "--pad-factor", "4"]
        out = tmp_path / "run"
        assert run("prepare", "--nx", "64", "--ny", "64", "--pitch-um", "3.0",
                   "--waist-um", "60.0", *optics, "--threshold", "0.02", "--out", str(out)) == 0
        field = str(out / "field.wfgrid")
        pgm = tmp_path / "steps.pgm"
        pgm.write_bytes(b"P5\n64 64\n255\n" + np.arange(64 * 64, dtype=np.uint8).tobytes())
        flags = tmp_path / "flags"
        resolved = ["--config", str(out / "config.resolved")]
        for directory, forward, obj in (
                (flags, [*optics, "--out", str(flags)],
                 [*optics, "--threshold", "0.02", "--out", str(flags)]),
                (out, resolved, resolved)):
            assert run("holo", "forward", "--in", field, "--object", str(pgm), *forward) == 0
            assert run("holo", "object", "--measured", str(directory / "propagated.wfgrid"),
                       "--input", field, *obj) == 0
        for name in ("transmission.wfgrid", "object_report.json"):
            assert (out / name).read_bytes() == (flags / name).read_bytes(), name
        assert json.loads((out / "object_report.json").read_text())["threshold"] == 0.02

    def test_feynman_inverse_rejected(self, tmp_path):
        out = self._field(tmp_path)
        code = run("holo", "inverse", "--in", str(out / "field.wfgrid"),
                   "--lambda-nm", "808", "--distance-mm", "2.5", "--kernel", "feynman",
                   "--out", str(out))
        assert code == 2


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert run("measure", "--field", str(tmp_path / "nope.wfgrid"),
                   "--out", str(tmp_path)) == 4

    def test_bad_magic_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.wfgrid"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        assert run("measure", "--field", str(bad), "--out", str(tmp_path)) == 4

    @pytest.mark.parametrize("argv", [
        ("measure", "--field", "{bad}"),
        ("holo", "forward", "--in", "{bad}", "--distance-mm", "2"),
        ("holo", "object", "--measured", "{bad}", "--input", "{good}", "--distance-mm", "2"),
        ("holo", "object", "--measured", "{good}", "--input", "{bad}", "--distance-mm", "2"),
        ("reconstruct", "--records", "{records}", "--ideal", "{bad}"),
    ], ids=["measure", "holo-forward", "holo-object-measured", "holo-object-input",
            "reconstruct-ideal"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_wfgrid_is_format_error(self, tmp_path, capsys, argv, value):
        # a NaN or infinite amplitude is a bad file, named in the message, on every
        # command that reads a WFGRID
        good = tmp_path / "in" / "field.wfgrid"
        assert run("prepare", "--nx", "16", "--ny", "16", "--pitch-um", "3",
                   "--out", str(good.parent)) == 0
        assert run("measure", "--field", str(good), "--out", str(good.parent)) == 0
        raw = bytearray(good.read_bytes())
        raw[-16:-8] = struct.pack("<d", value)
        bad = tmp_path / "bad.wfgrid"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        paths = dict(bad=bad, good=good, records=good.parent / "records.csv")
        code = run(*(arg.format(**paths) for arg in argv), "--out", str(tmp_path / "run"))
        assert code == 4
        assert capsys.readouterr().err == f"error: {bad}: field amplitudes must be finite\n"
        assert not (tmp_path / "run").exists()

    def test_zero_sum_field_is_numerical_error(self, tmp_path):
        grid = GridSpec(2, 2, 1e-4)
        amps = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
        f = normalize(TransverseWavefunction(grid, amps))
        path = tmp_path / "odd.wfgrid"
        write_wfgrid(path, f)
        assert run("measure", "--field", str(path), "--out", str(tmp_path)) == 3

    def test_zero_illumination_is_numerical_error(self, tmp_path, capsys):
        zero = tmp_path / "zero.wfgrid"
        write_wfgrid(zero, TransverseWavefunction(GridSpec(16, 16, 3e-6), np.zeros((16, 16))))
        capsys.readouterr()
        code = run("holo", "object", "--measured", str(zero), "--input", str(zero),
                   "--pad-factor", "2", "--distance-mm", "2", "--threshold", "0.02",
                   "--out", str(tmp_path / "run"))
        assert code == 3
        assert "illumination too weak" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        (("prepare", "--nx", "300000", "--ny", "300000"),
         "Unable to allocate 671. GiB for an array with shape (300000, 300000) "
         "and data type float64"),
        (("holo", "forward", "--in", "in/field.wfgrid", "--distance-mm", "2",
          "--pad-factor", "100000"),
         "Unable to allocate 37.3 TiB for an array with shape (1600000, 1600000) "
         "and data type complex128"),
    ], ids=["prepare", "holo-forward"])
    def test_out_of_memory_is_numerical_error(self, tmp_path, monkeypatch, capsys, argv,
                                              message):
        # the first large allocation raises numpy's MemoryError; none is attempted here
        monkeypatch.chdir(tmp_path)
        assert run("prepare", "--nx", "16", "--ny", "16", "--pitch-um", "3", "--out", "in") == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(wavefield, "make_mode", refuse)
        monkeypatch.setattr(np.fft, "fft2", refuse)
        assert run(*argv, "--out", "run") == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_nyquist_violation_is_numerical_error(self, tmp_path):
        out = tmp_path / "run"
        assert run("prepare", "--mode", "gaussian", "--nx", "16", "--ny", "16",
                   "--pitch-um", "125", "--out", str(out)) == 0
        code = run("holo", "forward", "--in", str(out / "field.wfgrid"),
                   "--lambda-nm", "808", "--distance-mm", "50", "--kernel", "fresnel",
                   "--out", str(out))
        assert code == 3

    def test_bad_flag_is_validation_error(self, tmp_path, capsys):
        assert run("prepare", "--photons", "-5", "--out", str(tmp_path)) == 2
        assert run("prepare", "--nx", "8.0", "--out", str(tmp_path)) == 2
        assert "nx: " in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--pitch-um", "-5"), "pitch_um: pitch must be positive and finite, got -5.0"),
        (("--waist-um", "-3"), "waist_um: waist must be positive and finite, got -3.0"),
        (("--photons", "-2"), "photons: photons_per_setting must be >= 0, got -2"),
        (("--lambda-nm", "-5"), "lambda_nm: wavelength must be positive, got -5.0"),
        (("--distance-mm", "0"), "distance_mm: distance must be positive, got 0.0"),
        (("--lambda-nm", "nan"), "lambda_nm: wavelength must be positive, got nan"),
    ], ids=["pitch_um", "waist_um", "photons", "lambda_nm", "distance_mm", "lambda_nm-nan"])
    def test_config_error_names_key_and_value(self, tmp_path, capsys, flags, message):
        # the key and its value as written, not the library's parameter in SI units;
        # refused where the config enters, not by a later command
        assert run("prepare", *flags, "--nx", "8", "--ny", "8", "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "config.resolved").exists()

    @pytest.mark.parametrize("argv, setting, message", [
        (("measure", "--field", "in/field.wfgrid"), "nx = 1",
         "nx, ny: grid must be at least 2x2, got 1, 64"),
        (("measure", "--field", "in/field.wfgrid"), "pitch_um = nan",
         "pitch_um: pitch must be positive and finite, got nan"),
        (("reconstruct", "--records", "in/records.csv"), "l = 9007199254740993",
         "l: oam must be at most 2**53 in magnitude, got 9007199254740993"),
        (("reconstruct", "--records", "in/records.csv", "--ideal", "in/field.wfgrid"),
         "seed = -1", "seed must be an integer in [0, 2**64), got -1"),
        (("holo", "inverse", "--in", "in/field.wfgrid"), "threshold = 0",
         "threshold must be positive and at most 1, got 0.0"),
        (("holo", "forward", "--in", "in/field.wfgrid"), "photons = -1",
         "photons: photons_per_setting must be >= 0, got -1"),
        (("prepare",), "cx_um = inf", "cx_um, cy_um: center must be finite, got inf, 0.0"),
        (("prepare",), "cy_um = nan", "cx_um, cy_um: center must be finite, got 0.0, nan"),
        (("prepare",), "pad_factor = 1", "pad_factor must be an integer >= 2, got 1"),
        # a threshold above 1 selects no cell: refused before holo object reads a file,
        # and prepare writes no config.resolved that carries it
        (("holo", "object", "--measured", "in/none.wfgrid", "--input", "in/none.wfgrid"),
         "threshold = 2", "threshold must be positive and at most 1, got 2.0"),
        (("prepare",), "threshold = 2", "threshold must be positive and at most 1, got 2.0"),
    ], ids=["measure-nx", "measure-pitch_um", "reconstruct-l", "reconstruct-ideal-seed",
            "holo-inverse-threshold", "holo-forward-photons", "prepare-cx_um", "prepare-cy_um",
            "prepare-pad_factor", "holo-object-threshold", "prepare-threshold"])
    def test_bad_key_is_validation_error_on_every_command(self, tmp_path, monkeypatch, capsys,
                                                          argv, setting, message):
        # each key of a config file is checked where the config enters, whether or not
        # the command reads it
        monkeypatch.chdir(tmp_path)
        assert run("prepare", "--nx", "12", "--ny", "12", "--out", "in") == 0
        assert run("measure", "--field", "in/field.wfgrid", "--out", "in") == 0
        (tmp_path / "bad.cfg").write_text(setting + "\n")
        capsys.readouterr()
        assert run(*argv, "--config", "bad.cfg", "--out", "run") == 2
        assert capsys.readouterr().err == f"error: bad.cfg: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_lg_indices_are_validation_error(self, tmp_path, capsys):
        # (sqrt(2) r / w0)^2000 exceeds a double
        assert run("prepare", "--mode", "lg", "--l", "2000",
                   "--nx", "8", "--ny", "8", "--out", str(tmp_path / "run")) == 2
        # one line naming the key, and no numpy overflow warning before it
        assert capsys.readouterr().err.splitlines() == [
            "error: l = 2000: LG mode power overflows a double"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("nx", 10**400, "nx must be below 2**32, got 1000"),
        ("ny", 2**32, "ny must be below 2**32, got 4294967296"),
        ("photons", 2**61 + 1,
         "photons: photons_per_setting must be at most 2**61, got 2305843009213693953"),
        ("photons", 10**400, "photons: photons_per_setting must be at most 2**61, got 1000"),
        ("l", 2**53 + 1, "l: oam must be at most 2**53 in magnitude, got 9007199254740993"),
        ("l", -10**400, "l: oam must be at most 2**53 in magnitude, got -1000"),
        ("vortex_l", -2**53 - 1,
         "vortex_l must be at most 2**53 in magnitude, got -9007199254740993"),
        ("vortex_l", 10**400, "vortex_l must be at most 2**53 in magnitude, got 1000"),
        ("pad_factor", 2**31 + 1, "pad_factor must be at most 2**31, got 2147483649"),
        ("pad_factor", 10**30,
         "pad_factor must be at most 2**31, got 1000000000000000000000000000000"),
    ], ids=["nx", "ny", "photons", "photons-huge", "l", "l-huge", "vortex_l", "vortex_l-huge",
            "pad_factor", "pad_factor-huge"])
    def test_integer_the_program_cannot_represent_is_validation_error(self, tmp_path, capsys,
                                                                      key, value, message):
        # reconstruct reads none of these keys, and its input files do not exist: the
        # value is refused where the config enters, key first, before any file is read
        absent = str(tmp_path / "absent")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"{key} = {value}\n")
        code = run("reconstruct", "--records", absent + ".csv", "--ideal", absent + ".wfgrid",
                   "--config", str(cfg_path), "--out", str(tmp_path / "run"))
        expected = f"error: {cfg_path}: {message}"
        assert (code, capsys.readouterr().err[:len(expected)]) == (2, expected)
        assert not (tmp_path / "run").exists()

    def test_integer_bounds_accept_their_edges(self, tmp_path):
        # the largest grid, charges and padding are configured without allocating the grid
        cfg = ExperimentConfig(nx=2**32 - 1, ny=2, l=-2**53, vortex_l=2**53, photons=2**61,
                               pad_factor=2**31)
        assert cfg.grid() == GridSpec(2**32 - 1, 2, 125e-6)
        assert cfg.propagation_spec().pad_factor == 2**31
        # the largest budget samples a 4x4 field, whose Poisson means stay in numpy's range
        out = tmp_path / "run"
        assert run("prepare", "--nx", "4", "--ny", "4", "--out", str(out)) == 0
        assert run("measure", "--field", str(out / "field.wfgrid"), "--photons", str(2**61),
                   "--out", str(out)) == 0
        assert read_records_csv(out / "records.csv").photons_per_setting == 2**61

    @pytest.mark.parametrize("argv, message", [
        (("measure", "--field", "{big}"),
         "input field must be normalized (power within 1e-9 of 1)"),
        (("reconstruct", "--records", "{records}", "--ideal", "{big}"),
         "ideal field power overflows a double"),
    ], ids=["measure", "reconstruct-ideal"])
    def test_power_beyond_a_double_is_validation_error(self, tmp_path, argv, message):
        # a valid WFGRID whose power overflows: refused with one line, not a numpy
        # overflow warning turned into a traceback, nor scored as fidelity 0
        good = tmp_path / "in" / "field.wfgrid"
        assert run("prepare", "--nx", "16", "--ny", "16", "--out", str(good.parent)) == 0
        assert run("measure", "--field", str(good), "--out", str(good.parent)) == 0
        f = read_wfgrid(good)
        big = tmp_path / "big.wfgrid"
        write_wfgrid(big, f.with_amps(f.amps * 1e160))
        paths = dict(big=big, good=good, records=good.parent / "records.csv")
        proc = run_in_child(*(arg.format(**paths) for arg in argv),
                            "--out", str(tmp_path / "run"), PYTHONWARNINGS="error::RuntimeWarning")
        assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        (("reconstruct", "--records", "{small_records}", "--ideal", "{large}"),
         "reconstruction grid 8x8 at pitch 0.000125 m differs from "
         "ideal grid 16x16 at pitch 0.000125 m"),
        (("holo", "object", "--measured", "{small}", "--input", "{large}", "--distance-mm", "2"),
         "measured grid 8x8 at pitch 0.000125 m differs from "
         "known-input grid 16x16 at pitch 0.000125 m"),
    ], ids=["reconstruct-ideal", "holo-object"])
    def test_grid_mismatch_names_both_grids(self, tmp_path, capsys, argv, message):
        paths = {}
        for name, n in (("small", 8), ("large", 16)):
            out = tmp_path / name
            assert run("prepare", "--nx", str(n), "--ny", str(n), "--out", str(out)) == 0
            assert run("measure", "--field", str(out / "field.wfgrid"), "--out", str(out)) == 0
            paths[name] = out / "field.wfgrid"
            paths[name + "_records"] = out / "records.csv"
        capsys.readouterr()
        assert run(*(arg.format(**paths) for arg in argv), "--out", str(tmp_path / "run")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_unrepresentable_out_is_validation_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("prepare", "--nx", "8", "--ny", "8", "--out", "run#1") == 2
        assert list(tmp_path.iterdir()) == []

    def test_out_that_utf8_cannot_encode_is_validation_error(self, tmp_path):
        # config.resolved is UTF-8 and cannot hold the surrogates of 'r\u00fcn' in the C
        # locale, so the value is refused before prepare writes field.wfgrid
        proc = run_in_c_locale("prepare", "--nx", "8", "--ny", "8", "--out",
                               "r\u00fcn".encode("utf-8"), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: out must be text that UTF-8 can encode, "
                               "got 'r\\udcc3\\udcbcn'\n")
        assert list(tmp_path.iterdir()) == []

    def test_custom_mode_in_config_is_validation_error(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("mode = custom\n")
        assert run("prepare", "--config", str(cfg_path), "--out", str(tmp_path / "run")) == 2

    def test_theta_auto_in_config_is_validation_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("theta = auto\n")
        assert run("prepare", "--config", str(cfg_path), "--out", str(tmp_path / "run")) == 2
        assert "theta: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_custom_mode_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("prepare", "--mode", "custom", "--out", str(tmp_path))
        assert exc.value.code == 2


class TestParser:
    def test_choices_come_from_the_tuples(self):
        tuples = {"mode": MODES, "kernel": KERNELS, "estimator": ESTIMATORS}
        for command, keys in COMMAND_KEYS.items():
            actions = {a.dest: a for a in subparser(*command)._actions}
            for key in tuples.keys() & keys:
                assert list(actions[key].choices) == list(tuples[key]), (command, key)

    def test_calls_share_the_parser_but_not_its_values(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("prepare", "--mode", "lg", "--l", "2", "--nx", "10", "--ny", "8",
                   "--seed", "9", "--theta", "0.5", "--out", str(a)) == 0
        assert run("prepare", "--out", str(b)) == 0
        assert cli.build_parser() is cli.build_parser()
        assert from_text((b / "config.resolved").read_text()) == ExperimentConfig(out=str(b))

    def test_config_flags_are_config_fields(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for command, keys in COMMAND_KEYS.items():
            actions = subparser(*command)._actions
            flags = sorted((a.dest, a.option_strings) for a in actions if a.dest in names)
            assert flags == sorted((key, [flag(key)]) for key in keys), command
        assert sum(map(len, COMMAND_KEYS.values())) == 42

    def test_per_command_flags_are_input_files(self):
        # every knob is a config key; a command adds only the files it reads
        names = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"help", "config"}
        input_files = {
            ("prepare",): [], ("measure",): ["--field"], ("reconstruct",): ["--records", "--ideal"],
            ("holo", "forward"): ["--in", "--object"],
            ("holo", "inverse"): ["--in"], ("holo", "object"): ["--measured", "--input"],
        }
        for command, files in input_files.items():
            own = [a.option_strings for a in subparser(*command)._actions if a.dest not in names]
            assert own == [[f] for f in files], command

    def test_score_is_no_command(self, tmp_path):
        # reconstruct --ideal scores, and the library's score scores any two fields
        field = str(tmp_path / "in" / "field.wfgrid")
        assert run("prepare", "--nx", "8", "--ny", "8", "--out", str(tmp_path / "in")) == 0
        proc = run_in_child("score", "--rec", field, "--ideal", field,
                            "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: dstsim ")
        assert "invalid choice: 'score'" in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_every_key_as_its_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        flags = [text for key, value in EVERY_FIELD_SET.items() for text in (flag(key), str(value))]
        assert run("prepare", *flags) == 0
        resolved = tmp_path / EVERY_FIELD_SET["out"] / "config.resolved"
        assert resolved.read_text() == to_text(ExperimentConfig(**EVERY_FIELD_SET))
        # 'auto' reads as it does in a file, and a flag overrides the file's value
        assert run("prepare", "--config", str(resolved), "--waist-um", "auto", "--out", "b") == 0
        assert from_text((tmp_path / "b" / "config.resolved").read_text()) == ExperimentConfig(
            **{**EVERY_FIELD_SET, "waist_um": None, "out": "b"})


class RecordingConfig(ExperimentConfig):
    """A configuration that records which keys are read once it is validated."""

    def __post_init__(self):
        super().__post_init__()
        self.reads = set()

    def __getattribute__(self, name):
        if name in EVERY_FIELD_SET:
            object.__getattribute__(self, "__dict__").get("reads", set()).add(name)
        return object.__getattribute__(self, name)


#: A real run of each command on the files ``command_inputs`` makes; the inverse
#: propagations take the paraxial kernel, the only one with an inverse.
COMMAND_ARGV = {
    ("prepare",): [],
    ("measure",): ["--field", "in/field.wfgrid"],
    ("reconstruct",): ["--records", "in/records.csv", "--ideal", "in/field.wfgrid"],
    ("holo", "forward"): ["--in", "in/field.wfgrid", "--object", "in/object.pgm"],
    ("holo", "inverse"): ["--in", "in/propagated.wfgrid", "--kernel", "fresnel"],
    ("holo", "object"): ["--measured", "in/propagated.wfgrid", "--input", "in/field.wfgrid",
                         "--kernel", "fresnel"],
}


@pytest.fixture
def command_inputs(tmp_path, monkeypatch):
    """A 16x16 field at 3 um pitch, its records and propagation, and an object, in ./in;
    and flat 16x16 fields at a pitch whose square overflows a double, in/wide.wfgrid,
    and at a 1e150 m pitch, in/far.wfgrid."""
    monkeypatch.chdir(tmp_path)
    assert run("prepare", "--nx", "16", "--ny", "16", "--pitch-um", "3", "--out", "in") == 0
    assert run("measure", "--field", "in/field.wfgrid", "--theta", "0.3", "--out", "in") == 0
    assert run("holo", "forward", "--in", "in/field.wfgrid", "--distance-mm", "2",
               "--out", "in") == 0
    (tmp_path / "in" / "object.pgm").write_bytes(b"P5 16 16 255\n" + bytes(range(256)))
    for name, pitch in (("wide", 1e194), ("far", 1e150)):
        write_wfgrid(tmp_path / "in" / f"{name}.wfgrid", TransverseWavefunction(
            GridSpec(16, 16, pitch), np.full((16, 16), 1 / 16 + 0j)))
    return tmp_path


class TestCommandKeys:
    @pytest.mark.parametrize("command", list(COMMAND_KEYS), ids=" ".join)
    def test_each_command_reads_exactly_its_flags(self, command_inputs, monkeypatch, command):
        # from a config file that holds every key, a command reads the keys it takes as
        # flags and no other
        (command_inputs / "every.cfg").write_text(to_text(ExperimentConfig(**EVERY_FIELD_SET)))
        load, configs = cli._load_config, []
        monkeypatch.setattr(cli, "_load_config", lambda args: configs.append(
            RecordingConfig(**dataclasses.asdict(load(args)))) or configs[-1])
        assert run(*command, *COMMAND_ARGV[command], "--config", "every.cfg") == 0
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        flags = {a.dest for a in subparser(*command)._actions if a.dest in names}
        assert configs[0].reads == flags - ({"theta"} if command == ("reconstruct",) else set())

    def test_reconstruct_takes_theta_but_reads_the_records(self, command_inputs):
        assert run("reconstruct", "--records", "in/records.csv", "--theta", "1.0",
                   "--out", "run") == 0
        assert json.loads((command_inputs / "run" / "report.json").read_text())["theta"] == 0.3

    @pytest.mark.parametrize("command, flags", [
        (("measure",), ["--nx", "8"]),
        (("reconstruct",), ["--photons", "5"]),
        (("reconstruct",), ["--distance-mm", "3"]),
        (("holo", "forward"), ["--threshold", "0.5"]),
        (("holo", "forward"), ["--object-map", "phase"]),
        (("holo", "object"), ["--seed", "1"]),
        # flag names are exact: a prefix that only --threshold has here sets no key,
        # and neither does a prefix of a flag the command does not take
        (("holo", "object"), ["--t", "0.5"]),
        (("measure",), ["--dist", "3"]),
    ], ids=lambda v: " ".join(v))
    def test_flag_the_command_does_not_take_is_refused(self, command_inputs, capsys, command,
                                                       flags):
        with pytest.raises(SystemExit) as exc:
            run(*command, *COMMAND_ARGV[command], *flags, "--out", "run")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flags)}" in err
        # the command's own usage, which lists the flags it does take
        assert err.splitlines()[0].startswith(f"usage: dstsim {' '.join(command)} ")
        assert not (command_inputs / "run").exists()

    @pytest.mark.parametrize("command", list(COMMAND_KEYS), ids=" ".join)
    def test_radial_flag_is_refused(self, command_inputs, capsys, command):
        # LG modes have radial index 0: no command takes a radial flag, and prepare
        # refuses one that once built a Laguerre factor for minutes
        flags = ["--radial", "100000000"] if command == ("prepare",) else ["--radial", "0"]
        with pytest.raises(SystemExit) as exc:
            run(*command, *COMMAND_ARGV[command], *flags, "--out", "run")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (command_inputs / "run").exists()

    # a config.resolved written while one of these keys existed holds it at the one value
    # that a check uses: the LG radial index, the reconstruction's maps and the object map
    @pytest.mark.parametrize("line", ["radial = 0", "maps = none", "object_map = amplitude"])
    @pytest.mark.parametrize("command", list(COMMAND_KEYS), ids=" ".join)
    def test_removed_key_in_a_config_file_is_refused_at_its_line(self, command_inputs, capsys,
                                                                 command, line):
        (command_inputs / "old.cfg").write_text(f"nx = 16\n# written by an older dstsim\n{line}\n")
        assert run(*command, *COMMAND_ARGV[command], "--config", "old.cfg",
                   "--out", "run") == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"error: old.cfg: config line 3: unknown configuration key '{key}'\n")
        assert not (command_inputs / "run").exists()

    def test_flag_before_the_command_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("--bogus", "prepare", "--out", "run")
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def _kernel_err(wavelength_m: str, distance_m: str, offset_m: str) -> str:
    return (f"error: kernel is not finite and nonzero at wavelength {wavelength_m} m, "
            f"distance {distance_m} m and offsets up to {offset_m} m; "
            f"change the wavelength, distance or pitch\n")


#: At a wavelength and distance of 1e291 m, in/wide.wfgrid's pitch squared overflows,
#: and so does its largest padded offset's (16 pitches).
_WIDE = ["--lambda-nm", "1e300", "--distance-mm", "1e294"]
_WIDE_ERR = _kernel_err("1.000e+291", "1.000e+291", "1.600e+195")
#: At a wavelength and distance of 1e200 m, lambda D overflows, and the paraxial
#: kernel's constant 1 / (i lambda D) with it is zero.
_LAMBDA_D = ["--lambda-nm", "1e209", "--distance-mm", "1e203"]
_LAMBDA_D_ERR = _kernel_err("1.000e+200", "1.000e+200", "4.800e-05")


#: Float keys at the ends of the doubles: each command line, its exit code and its
#: error output.  A waist whose square overflows gives the flat field the Gaussian
#: tends to; a mode the formula leaves NaN, or zero in every cell, is refused by name;
#: a wavelength, distance or pitch at which the kernel is not finite and nonzero is
#: refused before any transform.
FLOAT_EXTREMES = {
    "waist 1e300": (["prepare", "--waist-um", "1e300"], 0, ""),
    "pitch 1e300": (["prepare", "--pitch-um", "1e300"], 2,
                    "error: Gaussian mode power is not a number\n"),
    "pitch 1e200": (["prepare", "--pitch-um", "1e200"], 2,
                    "error: Gaussian mode power is not a number\n"),
    "pitch 1e-300": (["prepare", "--pitch-um", "1e-300"], 2,
                     "error: Gaussian mode power is not a number\n"),
    "waist 1e-200": (["prepare", "--waist-um", "1e-200"], 3,
                     "error: Gaussian mode has zero power\n"),
    "cx 1e200": (["prepare", "--cx-um", "1e200"], 3, "error: Gaussian mode has zero power\n"),
    "forward fresnel": (["holo", "forward", "--in", "in/field.wfgrid", "--distance-mm",
                         "1.7e308"], 3, _kernel_err("8.080e-07", "1.700e+305", "4.800e-05")),
    "forward feynman": (["holo", "forward", "--in", "in/field.wfgrid", "--kernel", "feynman",
                         "--distance-mm", "1.7e308"], 3,
                        _kernel_err("8.080e-07", "1.700e+305", "4.800e-05")),
    "forward feynman 1e200": (["holo", "forward", "--in", "in/field.wfgrid", "--kernel",
                               "feynman", "--distance-mm", "1e200"], 3,
                              _kernel_err("8.080e-07", "1.000e+197", "4.800e-05")),
    "object": (["holo", "object", *COMMAND_ARGV["holo", "object"], "--distance-mm",
                "1.7e308"], 3, _kernel_err("8.080e-07", "1.700e+305", "4.800e-05")),
    "forward pitch 1e194": (["holo", "forward", "--in", "in/wide.wfgrid", *_WIDE], 3,
                            _WIDE_ERR),
    "inverse pitch 1e194": (["holo", "inverse", "--in", "in/wide.wfgrid", *_WIDE], 3,
                            _WIDE_ERR),
    "object pitch 1e194": (["holo", "object", "--measured", "in/wide.wfgrid", "--input",
                            "in/wide.wfgrid", *_WIDE], 3, _WIDE_ERR),
    "forward lambda D": (["holo", "forward", "--in", "in/field.wfgrid", *_LAMBDA_D], 3,
                         _LAMBDA_D_ERR),
    "inverse lambda D": (["holo", "inverse", "--in", "in/field.wfgrid", *_LAMBDA_D], 3,
                         _LAMBDA_D_ERR),
    "object lambda D": (["holo", "object", *COMMAND_ARGV["holo", "object"], *_LAMBDA_D], 3,
                        _LAMBDA_D_ERR),
    "forward feynman lambda r": (["holo", "forward", "--in", "in/far.wfgrid", "--kernel",
                                  "feynman", "--lambda-nm", "1e170", "--distance-mm", "1"], 3,
                                 _kernel_err("1.000e+161", "1.000e-03", "1.600e+151")),
}


@pytest.mark.parametrize("case", list(FLOAT_EXTREMES))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float_extreme_exits_with_its_code(command_inputs, capsys, case):
    argv, code, err = FLOAT_EXTREMES[case]
    capsys.readouterr()
    assert run(*argv, "--out", "run") == code
    assert capsys.readouterr().err == err
    if code:
        assert not (command_inputs / "run").exists()
    else:   # flat: every one of the 64x64 cells holds 1/64
        assert np.all(read_wfgrid(command_inputs / "run" / "field.wfgrid").amps == 1 / 64)
