"""The benchmark's workloads: seeded inputs, the CLI sequence of a trial, and its check.

A workload writes its fixed parameters once to a ``--config`` file, as a
user would, and passes the per-trial values as flags. Trial ``i`` draws
every per-trial value (mode, offsets, measure seed, object mask) from
``numpy.random.default_rng([seed, i])``, so the workload seed alone fixes
every input and the program receives only the generated files and flags.
"""

from __future__ import annotations

import math
import os
import shutil
from typing import Callable, NamedTuple

import numpy as np

import checks


class Trial(NamedTuple):
    prep: list         # CLI calls that make the trial's inputs; untimed
    argvs: list        # the CLI calls of the trial, in order; timed
    check: Callable[[], checks.Outcome]   # reads the outputs after the calls


def _write_pgm(path: str, img: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())


class Workload:
    """One named set of inputs. Subclasses fill in the config and the trials.

    ``speed_exponent`` is how strongly the workload's trial time follows the
    host's speed: the slope of log trial time on log probe time (run.py),
    measured on the seed code on a shared 2-core host. It was 1.0-1.4 for
    the interpreter-bound DST workloads and 0.15-0.45 for holography, whose
    1024^2 FFTs are bound by memory traffic more than by the core. Times are
    scaled by ``(reference probe / probe) ** speed_exponent``.
    """

    name = ""
    config = ""
    speed_exponent = 1.2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "bench.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(self.config)

    def trial(self, i: int) -> Trial:
        """Write trial ``i``'s input files in a fresh directory and return its calls."""
        tdir = os.path.join(self.workdir, "trial")
        shutil.rmtree(tdir, ignore_errors=True)
        os.makedirs(tdir)
        return self._trial(np.random.default_rng([self.seed, i]), i, tdir)

    def _trial(self, rng: np.random.Generator, i: int, tdir: str) -> Trial:
        raise NotImplementedError

    def _cmd(self, *args: str) -> list:
        return [*args, "--config", self.config_path]


def _vortex_flags(rng: np.random.Generator) -> list:
    """Gaussian beam off axis by 200-400 um x 100-300 um, through an l=1 vortex plate."""
    cx, cy = rng.uniform(200.0, 400.0), rng.uniform(100.0, 300.0)
    return ["--mode", "gaussian", "--cx-um", repr(cx), "--cy-um", repr(cy), "--vortex-l", "1"]


class DstSampled(Workload):
    name = "dst-sampled"
    photons = 10**8
    config = f"nx = 64\nny = 64\npitch_um = 125.0\nphotons = {photons}\n"

    def _trial(self, rng, i, tdir):
        mode = ["--mode", "gaussian"] if i % 2 == 0 else _vortex_flags(rng)
        seed = str(int(rng.integers(2**32)))
        field = os.path.join(tdir, "field.wfgrid")
        argvs = [
            self._cmd("prepare", *mode, "--out", tdir),
            self._cmd("measure", "--field", field, "--seed", seed, "--out", tdir),
            self._cmd("reconstruct", "--records", os.path.join(tdir, "records.csv"),
                      "--ideal", field, "--out", tdir),
        ]

        def check():
            out, _ = checks.read_wfgrid(os.path.join(tdir, "reconstruction.wfgrid"))
            psi, _ = checks.read_wfgrid(field)
            return checks.check_sampled(out, psi, self.photons)

        return Trial([], argvs, check)


class DstReanalysis(Workload):
    name = "dst-reanalysis"
    theta = math.pi / 2
    config = "nx = 128\nny = 128\npitch_um = 125.0\nphotons = 0\n"

    def _trial(self, rng, i, tdir):
        kind = i % 3
        if kind == 0:
            mode = ["--mode", "gaussian"]
        elif kind == 1:
            mode = _vortex_flags(rng)
        else:
            # A centred LG l=1 mode has a zero amplitude sum; a sub-cell
            # offset (12.5-112.5 um at a 125 um pitch) makes it measurable.
            cx, cy = rng.uniform(12.5, 112.5), rng.uniform(12.5, 112.5)
            mode = ["--mode", "lg", "--l", "1", "--cx-um", repr(cx), "--cy-um", repr(cy)]
        seed = str(int(rng.integers(2**32)))
        prep = [self._cmd("prepare", *mode, "--out", tdir)]
        field = os.path.join(tdir, "field.wfgrid")
        records = os.path.join(tdir, "records.csv")
        dst_dir = os.path.join(tdir, "dst")
        dwt_dir = os.path.join(tdir, "dwt")
        argvs = [
            self._cmd("measure", "--field", field, "--seed", seed, "--out", tdir),
            self._cmd("reconstruct", "--records", records, "--out", dst_dir),
            self._cmd("reconstruct", "--records", records, "--estimator", "dwt",
                      "--theta", repr(self.theta), "--out", dwt_dir),
        ]

        def check():
            psi, _ = checks.read_wfgrid(field)
            dst, _ = checks.read_wfgrid(os.path.join(dst_dir, "reconstruction.wfgrid"))
            dwt, _ = checks.read_wfgrid(os.path.join(dwt_dir, "reconstruction.wfgrid"))
            a = checks.check_dst_exact(dst, psi)
            b = checks.check_dwt(dwt, psi, self.theta)
            return checks.Outcome(a.ok and b.ok, a.fidelity, f"{a.detail}; {b.detail}")

        return Trial(prep, argvs, check)


class HoloObject(Workload):
    name = "holo-object"
    speed_exponent = 0.4
    block = 8   # object pixels per side of one random binary block (24 um)
    config = "nx = 256\nny = 256\npitch_um = 3.0\npad_factor = 4\nlambda_nm = 808.0\n"

    def _trial(self, rng, i, tdir):
        kernel = "feynman" if i % 2 == 0 else "fresnel"
        distance = ("8.0", "9.0", "10.0")[i % 3]
        n = 256 // self.block
        blocks = (rng.random((n, n)) < 0.5).astype(np.uint8) * 255
        img = np.kron(blocks, np.ones((self.block, self.block), dtype=np.uint8))
        pgm = os.path.join(tdir, "object.pgm")
        _write_pgm(pgm, img)
        field = os.path.join(tdir, "field.wfgrid")
        propagated = os.path.join(tdir, "propagated.wfgrid")
        dist = ["--distance-mm", distance]
        argvs = [
            self._cmd("prepare", "--mode", "gaussian", "--out", tdir),
            self._cmd("holo", "forward", "--in", field, "--object", pgm,
                      "--kernel", kernel, *dist, "--out", tdir),
            self._cmd("holo", "inverse", "--in", propagated, "--kernel", "fresnel",
                      *dist, "--out", tdir),
            self._cmd("holo", "object", "--measured", propagated, "--input", field,
                      "--kernel", "fresnel", *dist,
                      "--threshold", repr(checks.HOLO_THRESHOLD), "--out", tdir),
        ]

        def check():
            t, _ = checks.read_wfgrid(os.path.join(tdir, "transmission.wfgrid"))
            illumination, _ = checks.read_wfgrid(field)
            return checks.check_transmission(t, img / 255.0, illumination)

        return Trial([], argvs, check)


WORKLOADS = {w.name: w for w in (DstSampled, DstReanalysis, HoloObject)}
