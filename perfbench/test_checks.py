"""Tests of the benchmark itself: negative controls for its checks, its tracer counts,
its metric names and its refusal to run without the program.

Run from the root of the repository:

    python3 -m pytest perfbench/test_checks.py

Each check must pass the program's real output and fail a corrupted one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dstsim import cli  # noqa: E402


def run_trial(cls, i: int, workdir) -> tuple:
    wl = cls(0, str(workdir))
    trial = wl.trial(i)
    for argv in trial.prep + trial.argvs:
        assert cli.main(argv) == 0
    return wl, trial


def trial_path(wl, *parts) -> str:
    return os.path.join(wl.workdir, "trial", *parts)


@pytest.fixture(scope="module", params=[1, 2], ids=["vortex", "offset-lg"])
def reanalysis(request, tmp_path_factory):
    wl, trial = run_trial(workloads.DstReanalysis, request.param, tmp_path_factory.mktemp("r"))
    assert trial.check().ok
    psi, _ = checks.read_wfgrid(trial_path(wl, "field.wfgrid"))
    return wl, psi


def test_dst_check_rejects_conjugated_im(reanalysis):
    wl, psi = reanalysis
    dst, _ = checks.read_wfgrid(trial_path(wl, "dst", "reconstruction.wfgrid"))
    assert checks.check_dst_exact(dst, psi).ok
    assert not checks.check_dst_exact(dst.conj(), psi).ok


def test_dwt_check_rejects_records_taken_at_a_wrong_theta(reanalysis):
    wl, psi = reanalysis
    dwt, _ = checks.read_wfgrid(trial_path(wl, "dwt", "reconstruction.wfgrid"))
    assert checks.check_dwt(dwt, psi, wl.theta).ok
    wrong = trial_path(wl, "wrong")
    field = trial_path(wl, "field.wfgrid")
    assert cli.main(wl._cmd("measure", "--field", field, "--theta", "1.0", "--out", wrong)) == 0
    assert cli.main(wl._cmd("reconstruct", "--records", os.path.join(wrong, "records.csv"),
                            "--estimator", "dwt", "--theta", repr(wl.theta),
                            "--out", wrong)) == 0
    biased, _ = checks.read_wfgrid(os.path.join(wrong, "reconstruction.wfgrid"))
    assert not checks.check_dwt(biased, psi, wl.theta).ok


def test_sampled_check_rejects_a_doubled_budget(tmp_path):
    wl, trial = run_trial(workloads.DstSampled, 1, tmp_path)
    assert trial.check().ok
    tdir = trial_path(wl)
    field = os.path.join(tdir, "field.wfgrid")
    assert cli.main(wl._cmd("measure", "--field", field, "--photons", str(2 * wl.photons),
                            "--seed", "7", "--out", tdir)) == 0
    assert cli.main(wl._cmd("reconstruct", "--records", os.path.join(tdir, "records.csv"),
                            "--out", tdir)) == 0
    assert not trial.check().ok


def test_holography_check_rejects_a_dropped_pitch_squared(tmp_path):
    wl, trial = run_trial(workloads.HoloObject, 1, tmp_path)
    assert trial.check().ok
    t, pitch = checks.read_wfgrid(trial_path(wl, "transmission.wfgrid"))
    illumination, _ = checks.read_wfgrid(trial_path(wl, "field.wfgrid"))
    with open(trial_path(wl, "object.pgm"), "rb") as fh:
        pixels = fh.read()[-t.size:]    # the object the trial wrote, after its header
    truth = np.frombuffer(pixels, dtype=np.uint8).reshape(t.shape)
    assert checks.check_transmission(t, truth / 255.0, illumination).ok
    assert not checks.check_transmission(t / pitch**2, truth / 255.0, illumination).ok


@pytest.mark.parametrize("cls, cell_rng, fft", [
    (workloads.DstSampled, 4096, 0),
    (workloads.DstReanalysis, 0, 0),
    (workloads.HoloObject, 0, 9),
])
def test_tracer_counts_one_trial(cls, cell_rng, fft, tmp_path):
    wl = cls(0, str(tmp_path))
    trial = wl.trial(1)
    for argv in trial.prep:
        assert cli.main(argv) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.trial = 1
        for argv in trial.argvs:
            with tracer.span("cli." + run.command_name(argv)):
                assert cli.main(argv) == 0
        tracer.trial = None
    finally:
        tracer.uninstall()
    traced_ms = tracer.self_sum_ms(1)
    m = tracer.layer_metrics(1, traced_ms, 0.0)
    assert not tracer.missing
    assert set(m) == {name for name, _, _ in tracing.per_layer_names()}
    assert m["engine.cell_rng.calls"]["value"] == cell_rng
    assert m["holography.fft.calls"]["value"] == fft
    if fft:
        assert m["holography.fft.useful_frac"]["value"] == pytest.approx(1 / 16)
    self_ms = sum(v["value"] for k, v in m.items() if k.endswith(".self_ms"))
    assert self_ms == pytest.approx(traced_ms)


def test_a_missing_function_leaves_its_metrics_out(monkeypatch):
    from dstsim import engine
    monkeypatch.delattr(engine, "cell_rng")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["engine.cell_rng"]
    m = tracer.layer_metrics(1, 0.0, 0.0)
    assert "engine.cell_rng.self_ms" not in m and "engine.cell_rng.calls" not in m
    assert "engine.scan.self_ms" in m


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's files, it fails fast."""
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dst-sampled",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
