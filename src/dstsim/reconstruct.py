"""Turn readout records into Re/Im/density/phase maps and score them.

Strong-coupling (exact) inversion, valid for records taken at theta = pi/2:

    Re psi = (N / 2 ptilde) * (P_plus + 2 P_1 - P_minus)
    Im psi = (N / 2 ptilde) * (P_L - P_R)

Weak-value (first order in theta) inversion, applied to records taken at
any coupling theta:

    Re psi ~ (N / 2 ptilde) * (P_plus - P_minus) / theta
    Im psi ~ (N / 2 ptilde) * (P_L - P_R) / theta

Both assume the ptilde-real-positive gauge the engine enforces.  The strong
form is an identity, so noiseless records invert exactly; the weak form
carries an O(theta) relative bias that vanishes only in the weak limit.

When ptilde is not supplied it is estimated self-consistently from the raw
quadrature maps by requiring the reconstructed density to sum to one,
which is the physical normalization of the field:  with r = u + i v the
raw maps, ptilde_est = N * sqrt(sum |r|^2).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DegenerateFieldError
from .wavefield import GridSpec, TransverseWavefunction
from .engine import CouplingConfig, ScanRecords

#: The ``estimator`` values of the configuration: strong and weak-value inversion.
ESTIMATORS = ("dst", "dwt")
_DST = "DST"
_DWT = "DWT"


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed field maps plus the gauge constant that scaled them.

    ``density_map`` is exactly ``re_map**2 + im_map**2`` and ``phase_map``
    is ``atan2(im_map, re_map)`` folded into (-pi, pi].  ``zero_count_mask``
    marks cells where some measurement basis registered no photons at all
    (their frequencies enter as zero rather than being dropped); it is None
    for noiseless reconstructions.
    """

    grid: GridSpec
    re_map: np.ndarray
    im_map: np.ndarray
    psi_tilde: float
    mode: str
    zero_count_mask: np.ndarray | None = None

    @property
    def density_map(self) -> np.ndarray:
        return self.re_map**2 + self.im_map**2

    @property
    def phase_map(self) -> np.ndarray:
        phase = np.arctan2(self.im_map, self.re_map)
        return np.where(phase <= -np.pi, np.pi, phase)

    def field(self) -> TransverseWavefunction:
        return TransverseWavefunction(self.grid, self.re_map + 1j * self.im_map)

    @classmethod
    def from_field(cls, f: TransverseWavefunction) -> "ReconstructionResult":
        """Wrap an existing field (e.g. loaded from disk) as a result."""
        return cls(f.grid, np.ascontiguousarray(f.amps.real), np.ascontiguousarray(f.amps.imag),
                   float(abs(f.amp_sum())), _DST)


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


def _assemble(
    grid: GridSpec,
    raw: np.ndarray,
    psi_tilde: float | None,
    mode: str,
    zero_mask: np.ndarray | None,
) -> ReconstructionResult:
    """Scale raw quadrature maps (r = ptilde * psi / N, noiseless) to a field."""
    n = grid.ncells
    if psi_tilde is None:
        s = float(np.sqrt(np.sum(np.abs(raw) ** 2)))
        if s <= 0.0:
            raise DegenerateFieldError("raw quadrature maps vanish; cannot fix the scale")
        psi_tilde = n * s
        scaled = raw / s
    else:
        if not np.isfinite(psi_tilde) or psi_tilde <= 0.0:
            raise ValueError(f"psi_tilde must be positive, got {psi_tilde}")
        scaled = raw * (n / psi_tilde)
    return ReconstructionResult(grid, np.ascontiguousarray(scaled.real),
                                np.ascontiguousarray(scaled.imag), float(psi_tilde), mode,
                                zero_mask)


def reconstruct_dst(
    records: ScanRecords,
    grid: GridSpec,
    psi_tilde: float | None = None,
) -> ReconstructionResult:
    """Exact strong-coupling inversion of a full scan.

    ``psi_tilde`` supplies the gauge constant when known (oracle mode);
    otherwise it is estimated self-consistently from normalization.
    Noiseless records at theta = pi/2 invert to the gauge-fixed input field
    up to floating-point rounding.
    """
    maps, zero_mask = _effective_prob_maps(records, grid)
    plus, minus, _, p1, left, right = maps
    u = (plus + 2.0 * p1 - minus) / 2.0
    v = (left - right) / 2.0
    return _assemble(grid, u + 1j * v, psi_tilde, _DST, zero_mask)


def reconstruct_dwt(
    records: ScanRecords,
    grid: GridSpec,
    theta: float,
    psi_tilde: float | None = None,
) -> ReconstructionResult:
    """First-order weak-value inversion of records taken at coupling ``theta``.

    The estimate carries the weak-measurement bias: exact records at finite
    theta reconstruct to ``psi - (1 - cos theta) |psi|^2 / ptilde`` up to an
    overall scale, so the bias grows with theta and the density map is
    visibly distorted at theta = pi/2.
    """
    CouplingConfig(theta)  # raises ValueError unless theta is in (0, pi/2]
    maps, zero_mask = _effective_prob_maps(records, grid)
    plus, minus, _, _, left, right = maps
    u = (plus - minus) / (2.0 * theta)
    v = (left - right) / (2.0 * theta)
    return _assemble(grid, u + 1j * v, psi_tilde, _DWT, zero_mask)


def fidelity(a: TransverseWavefunction, b: TransverseWavefunction) -> float:
    """|<a|b>|^2 after normalizing both fields; invariant to global phases."""
    va = a.amps.ravel()
    vb = b.amps.ravel()
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise DegenerateFieldError("fidelity of a zero field is undefined")
    return float(abs(np.vdot(va, vb)) ** 2 / (na**2 * nb**2))


def score(rec: ReconstructionResult, ideal: TransverseWavefunction) -> QualityReport:
    """Quality of a reconstruction against a known ideal field.

    r_square is the coefficient of determination between the reconstructed
    density map (the data) and the ideal probability density (the model):
    ``1 - SS_res / SS_tot`` with SS_tot about the data mean.  RMS errors of
    the Re/Im maps are taken against the gauge-fixed, normalized ideal.
    """
    if rec.grid != ideal.grid:
        raise ValueError("reconstruction and ideal grids differ")
    power = ideal.power()
    if power <= 0.0:
        raise DegenerateFieldError("ideal field has zero power")
    amps = ideal.amps / np.sqrt(power)
    s = amps.sum()
    if abs(s) > 0.0:
        amps = amps * (abs(s) / s)

    ideal_density = np.abs(amps) ** 2
    data = rec.density_map
    ss_res = float(np.sum((data - ideal_density) ** 2))
    ss_tot = float(np.sum((data - data.mean()) ** 2))
    r_square = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else -np.inf)

    fid = fidelity(TransverseWavefunction(ideal.grid, amps), rec.field())
    rmse_re = float(np.sqrt(np.mean((rec.re_map - amps.real) ** 2)))
    rmse_im = float(np.sqrt(np.mean((rec.im_map - amps.imag) ** 2)))
    return QualityReport(r_square, fid, rmse_re, rmse_im)


def sidecar_dict(res: ReconstructionResult, report: QualityReport | None = None) -> dict:
    """The ``report.json`` fields: every ``QualityReport`` metric, or null without one."""
    metrics = (asdict(report) if report is not None
               else dict.fromkeys(f.name for f in fields(QualityReport)))
    return {"psi_tilde": res.psi_tilde, "mode": res.mode, **metrics}

