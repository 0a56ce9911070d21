"""Correctness checks for one trial's outputs.

The checks use only numpy and their own WFGRID reader, never dstsim's code,
so a defect in the program under test cannot also hide itself from its check.
Each check returns an ``Outcome``. A failed check is reported, never raised.
The margins were measured on the seed code; the measured values sit next to
each constant.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

import numpy as np

#: Noiseless DST output against the gauge-fixed input (measured max 7e-11).
DST_EXACT_TOL = 1e-9
#: Global-phase-invariant fidelity of DWT output against its closed form
#: (measured 1 - 2e-15).
DWT_FIDELITY_MIN = 1.0 - 1e-9
#: Measured RMSE over the predicted noise floor sqrt(N / 4B), per quadrature
#: (measured 0.96-0.99 at 64x64 and B = 1e8).
NOISE_RATIO_BAND = (0.85, 1.15)
#: Transmission fidelity on the valid mask (measured 0.90-0.93 for 24 um
#: binary blocks at 8-10 mm, the same for both kernels).
HOLO_FIDELITY_MIN = 0.8
#: |<t_true, t>| / |t_true|^2 on the valid mask (measured 0.92-0.94). It
#: catches a wrong overall scale, which fidelity cannot see.
HOLO_GAIN_BAND = (0.8, 1.25)
#: Valid-mask threshold relative to the peak illumination amplitude.
HOLO_THRESHOLD = 0.02

_WFGRID_HEADER = struct.Struct("<4sIId")


class Outcome(NamedTuple):
    ok: bool
    fidelity: float
    detail: str


def read_wfgrid(path) -> tuple[np.ndarray, float]:
    """Amplitudes ``(ny, nx)`` and pitch (m) of a WFGRID file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, nx, ny, pitch = _WFGRID_HEADER.unpack_from(raw)
    if magic != b"WFG1" or len(raw) != _WFGRID_HEADER.size + 16 * nx * ny:
        raise ValueError(f"{path}: not a {nx}x{ny} WFGRID file")
    flat = np.frombuffer(raw, dtype="<f8", offset=_WFGRID_HEADER.size)
    return (flat[0::2] + 1j * flat[1::2]).reshape(ny, nx), pitch


def gauge_fix(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalize to unit power and rotate so the amplitude sum is real positive."""
    g = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    s = complex(g.sum())
    return g * (abs(s) / s), abs(s)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 / (|a|^2 |b|^2); invariant to scale and global phase."""
    a = a.ravel()
    b = b.ravel()
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def check_dst_exact(out: np.ndarray, field: np.ndarray) -> Outcome:
    """Noiseless DST must return the gauge-fixed, normalized input pointwise."""
    g, _ = gauge_fix(field)
    err = float(np.max(np.abs(out - g)))
    return Outcome(err <= DST_EXACT_TOL, fidelity(g, out), f"DST max error {err:.3g}")


def check_dwt(out: np.ndarray, field: np.ndarray, theta: float) -> Outcome:
    """Noiseless DWT must equal ``psi - (1 - cos theta)|psi|^2 / ptilde`` up to scale and phase.

    The estimator normalizes itself, which leaves a global phase on states
    such as the offset LG mode, so the comparison is a fidelity, not pointwise.
    """
    g, ptilde = gauge_fix(field)
    expected = g - (1.0 - math.cos(theta)) * np.abs(g) ** 2 / ptilde
    fid = fidelity(expected, out)
    return Outcome(fid >= DWT_FIDELITY_MIN, fid, f"DWT 1 - fidelity {1.0 - fid:.3g}")


def check_sampled(out: np.ndarray, field: np.ndarray, budget: int) -> Outcome:
    """Sampled DST error per quadrature must match the predicted floor sqrt(N / 4B)."""
    g, _ = gauge_fix(field)
    sigma = math.sqrt(g.size / (4.0 * budget))
    ratios = (float(np.sqrt(np.mean((out.real - g.real) ** 2))) / sigma,
              float(np.sqrt(np.mean((out.imag - g.imag) ** 2))) / sigma)
    lo, hi = NOISE_RATIO_BAND
    ok = all(lo <= r <= hi for r in ratios)
    return Outcome(ok, fidelity(g, out),
                   f"RMSE / sqrt(N/4B): re {ratios[0]:.3f}, im {ratios[1]:.3f}")


def check_transmission(t: np.ndarray, truth: np.ndarray, illumination: np.ndarray) -> Outcome:
    """Recovered object transmission against the true mask, on the valid cells."""
    mag = np.abs(illumination)
    mask = mag >= HOLO_THRESHOLD * mag.max()
    a = truth[mask].astype(np.complex128)
    b = t[mask]
    fid = fidelity(a, b)
    gain = abs(np.vdot(a, b)) / np.vdot(a, a).real
    lo, hi = HOLO_GAIN_BAND
    ok = fid >= HOLO_FIDELITY_MIN and lo <= gain <= hi
    return Outcome(ok, fid, f"transmission fidelity {fid:.4f}, gain {gain:.4g}")
