"""Turn readout records into a reconstructed field and score it.

Strong (exact) inversion of records taken at any coupling theta in (0, pi/2]:

    Re psi = (N / 2 sin(theta) ptilde) * (P_plus - P_minus + 2 tan(theta/2) P_1)
    Im psi = (N / 2 sin(theta) ptilde) * (P_L - P_R)

At theta = pi/2 the weights are 1/2 and 2, which gives (P_plus + 2 P_1 - P_minus)
and (P_L - P_R) over 2 ptilde / N.  The weak-value inversion is its first-order
truncation in theta: drop the P_1 term and take sin(theta) ~ theta.

Both assume the ptilde-real-positive gauge the engine enforces.  The strong
form is an identity, so noiseless records invert exactly; the weak form
carries an O(theta) relative bias that vanishes only in the weak limit.

ptilde is estimated self-consistently from the raw quadrature maps by
requiring the reconstructed density to sum to one, which is the physical
normalization of the field:  with r = u + i v the raw maps,
ptilde_est = N * sqrt(sum |r|^2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DegenerateFieldError
from .wavefield import GridSpec, TransverseWavefunction
from .engine import STRONG_THETA, ScanRecords, check_theta

#: The ``estimator`` values of the configuration: strong and weak-value inversion.
ESTIMATORS = ("dst", "dwt")


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed field plus the gauge constant that scaled it.

    ``density_map`` is exactly ``Re**2 + Im**2`` of ``field.amps`` and
    ``phase_map`` is their ``atan2`` folded into (-pi, pi].
    ``zero_count_mask`` marks cells where some measurement basis registered
    no photons at all (their frequencies enter as zero rather than being
    dropped); it is None for noiseless reconstructions.
    """

    field: TransverseWavefunction
    psi_tilde: float
    mode: str
    zero_count_mask: np.ndarray | None = None

    @property
    def density_map(self) -> np.ndarray:
        a = self.field.amps
        return a.real**2 + a.imag**2

    @property
    def phase_map(self) -> np.ndarray:
        a = self.field.amps
        phase = np.arctan2(a.imag, a.real)
        return np.where(phase <= -np.pi, np.pi, phase)


@dataclass(frozen=True)
class QualityReport:
    r_square: float
    fidelity: float
    rmse_re: float
    rmse_im: float


def _effective_prob_maps(
    records: ScanRecords, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray | None]:
    """Projector maps ``[projector, iy, ix]`` of probabilities or empirical frequencies.

    Sampled records contribute count/budget, which estimates the
    unnormalized projector probability directly (the per-basis frequency
    times the sampled post-selection weight).  Noiseless records contribute
    their exact probabilities, so both paths share the inversion code.  The
    mask marks cells where some basis registered no photons at all.
    """
    ny, nx = records.probs.shape[1:]
    if (ny, nx) != (grid.ny, grid.nx):
        raise ValueError(f"configured grid {grid.nx}x{grid.ny} does not match "
                         f"records of {nx}x{ny} cells")
    counts = records.counts
    if counts is None:
        return records.probs, None
    zero_mask = (counts[0::2] + counts[1::2] == 0).any(axis=0)
    return counts / records.photons_per_setting, zero_mask


def _invert(
    records: ScanRecords,
    grid: GridSpec,
    p1_weight: float,
    scale: float,
    mode: str,
) -> ReconstructionResult:
    """Invert the raw quadrature maps ``(P+ - P- + p1_weight P1 + i (PL - PR)) / scale``.

    The raw maps equal ``ptilde * psi / N`` on exact records, so requiring
    the field to be normalized fixes the gauge constant.
    """
    maps, zero_mask = _effective_prob_maps(records, grid)
    plus, minus, _, p1, left, right = maps
    raw = (plus - minus + p1_weight * p1 + 1j * (left - right)) / scale
    s = float(np.sqrt(np.sum(np.abs(raw) ** 2)))
    if s <= 0.0:
        raise DegenerateFieldError("raw quadrature maps vanish; cannot fix the scale")
    raw /= s
    return ReconstructionResult(TransverseWavefunction(grid, raw), grid.ncells * s, mode,
                                zero_mask)


def reconstruct_dst(
    records: ScanRecords,
    grid: GridSpec,
    theta: float = STRONG_THETA,
) -> ReconstructionResult:
    """Exact strong inversion of a full scan taken at coupling ``theta``.

    Noiseless records invert to the gauge-fixed input field up to
    floating-point rounding at every theta in (0, pi/2].
    """
    check_theta(theta)
    return _invert(records, grid, 2.0 * math.tan(theta / 2), 2.0 * math.sin(theta), "DST")


def reconstruct_dwt(
    records: ScanRecords,
    grid: GridSpec,
    theta: float,
) -> ReconstructionResult:
    """First-order weak-value inversion of records taken at coupling ``theta``.

    The estimate carries the weak-measurement bias: exact records at finite
    theta reconstruct to ``psi - (1 - cos theta) |psi|^2 / ptilde`` up to an
    overall scale, so the bias grows with theta and the density map is
    visibly distorted at theta = pi/2.
    """
    check_theta(theta)
    return _invert(records, grid, 0.0, 2.0 * theta, "DWT")


def fidelity(a: TransverseWavefunction, b: TransverseWavefunction) -> float:
    """|<a|b>|^2 after normalizing both fields; invariant to global phases."""
    va = a.amps.ravel()
    vb = b.amps.ravel()
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise DegenerateFieldError("fidelity of a zero field is undefined")
    return float(abs(np.vdot(va, vb)) ** 2 / (na**2 * nb**2))


def score(field: TransverseWavefunction, ideal: TransverseWavefunction) -> QualityReport:
    """Quality of a reconstructed field against a known ideal field.

    r_square is the coefficient of determination between the reconstructed
    density (the data) and the ideal probability density (the model):
    ``1 - SS_res / SS_tot`` with SS_tot about the data mean.  RMS errors of
    the Re/Im maps are taken against the gauge-fixed, normalized ideal.
    """
    if field.grid != ideal.grid:
        raise ValueError("reconstruction and ideal grids differ")
    power = ideal.power()
    if power <= 0.0:
        raise DegenerateFieldError("ideal field has zero power")
    amps = ideal.amps / np.sqrt(power)
    s = amps.sum()
    if abs(s) > 0.0:
        amps = amps * (abs(s) / s)

    ideal_density = np.abs(amps) ** 2
    rec = field.amps
    data = rec.real**2 + rec.imag**2
    ss_res = float(np.sum((data - ideal_density) ** 2))
    ss_tot = float(np.sum((data - data.mean()) ** 2))
    r_square = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else -np.inf)

    fid = fidelity(TransverseWavefunction(ideal.grid, amps), field)
    rmse_re = float(np.sqrt(np.mean((rec.real - amps.real) ** 2)))
    rmse_im = float(np.sqrt(np.mean((rec.imag - amps.imag) ** 2)))
    return QualityReport(r_square, fid, rmse_re, rmse_im)


def sidecar_dict(res: ReconstructionResult, report: QualityReport | None = None) -> dict:
    """The ``report.json`` fields: every ``QualityReport`` metric, or null without one.

    ``zero_count_cells`` counts the cells of ``zero_count_mask``; it is null
    for noiseless records.
    """
    metrics = (asdict(report) if report is not None
               else dict.fromkeys(f.name for f in fields(QualityReport)))
    mask = res.zero_count_mask
    return {"psi_tilde": res.psi_tilde, "mode": res.mode,
            "zero_count_cells": None if mask is None else int(mask.sum()), **metrics}

