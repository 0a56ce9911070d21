"""Turn readout records into a reconstructed field and score it.

Strong (exact) inversion of records taken at any coupling theta in (0, pi/2]:

    Re psi = (N / 2 sin(theta) ptilde) * (P_plus - P_minus + 2 tan(theta/2) P_1)
    Im psi = (N / 2 sin(theta) ptilde) * (P_L - P_R)

At theta = pi/2 the weights are 1/2 and 2, which gives (P_plus + 2 P_1 - P_minus)
and (P_L - P_R) over 2 ptilde / N.  The weak-value inversion is its first-order
truncation in theta: drop the P_1 term and take sin(theta) ~ theta.

Both assume the ptilde-real-positive gauge the engine enforces.  The strong
form is an identity, so noiseless records invert exactly up to rounding
(see :func:`reconstruct_dst` for its floor); the weak form
carries an O(theta) relative bias that vanishes only in the weak limit.

ptilde is estimated self-consistently from the raw quadrature maps by
requiring the reconstructed density to sum to one, which is the physical
normalization of the field:  with r = u + i v the raw maps,
ptilde_est = N * sqrt(sum |r|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavefield import TransverseWavefunction, _gauge, _unit_power
from .engine import ScanRecords
from .errors import DegenerateFieldError

@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Reconstructed field plus the gauge constant that scaled it.

    ``estimator`` is the inversion's value of :data:`ESTIMATORS`.
    ``zero_count_mask`` marks cells where some measurement basis registered
    no photons at all (their frequencies enter as zero rather than being
    dropped); it is None for noiseless reconstructions.
    """

    field: TransverseWavefunction
    psi_tilde: float
    estimator: str
    zero_count_mask: np.ndarray | None = None


@dataclass(frozen=True)
class QualityReport:
    """Scores of a reconstruction against its ideal field; see :func:`score`.

    ``r_square`` is None when it is undefined: the reconstructed density is
    flat (zero total sum of squares) but differs from the ideal one.
    """

    r_square: float | None
    fidelity: float
    rmse_re: float
    rmse_im: float


def _invert(records: ScanRecords, p1_weight: float, scale: float,
            estimator: str) -> ReconstructionResult:
    """Invert the raw quadrature maps ``(P+ - P- + p1_weight P1 + i (PL - PR)) / scale``.

    The raw maps equal ``ptilde * psi / N`` on exact records, so requiring
    the field to be normalized fixes the gauge constant: ``ptilde = N * norm``
    with ``norm`` the one that scales the maps to unit power; maps that vanish
    or whose power overflows a double (no photon counted, or a theta whose
    signal rounding erased, leaving zero or sampling noise over a tiny ``scale``)
    raise DegenerateFieldError naming theta.  Sampled records
    enter as count/budget, which estimates the unnormalized projector
    probability directly (the per-basis frequency times the sampled
    post-selection weight); their mask marks cells where some basis
    registered no photons at all.
    """
    maps, zero_mask = records.readout, None
    if records.photons_per_setting > 0:
        zero_mask = (maps[0::2] + maps[1::2] == 0).any(axis=0)
        maps = maps / records.photons_per_setting
    plus, minus, _, p1, left, right = maps
    with np.errstate(over="ignore", invalid="ignore"):   # inf or nan at a subnormal theta
        raw = (plus - minus + p1_weight * p1 + 1j * (left - right)) / scale
    try:
        amps, norm = _unit_power(raw, "raw quadrature map")
    except ValueError:   # zero, or noise over a tiny scale
        raise DegenerateFieldError(
            f"the raw quadrature map of records at theta {records.theta!r} is zero or overflows "
            "a double: no photon was counted, or theta is too small for the signal to survive "
            "rounding") from None
    grid = records.grid
    return ReconstructionResult(TransverseWavefunction(grid, amps), grid.ncells * norm, estimator,
                                zero_mask)


def reconstruct_dst(records: ScanRecords) -> ReconstructionResult:
    """Exact strong inversion of a full scan, on its grid and at its coupling ``theta``.

    Noiseless records invert to the gauge-fixed input field at every theta in
    (0, pi/2], to within a rounding floor of ``eps * psi_tilde / (2 sin theta)``:
    an ``O(theta)`` signal on probabilities near ``psi_tilde^2 / N``, scaled by
    ``N / (2 sin(theta) psi_tilde)`` (2e-9 at theta 1e-6 on the 64x64 Gaussian).
    """
    theta = records.theta
    return _invert(records, 2.0 * math.tan(theta / 2), 2.0 * math.sin(theta), "dst")


def reconstruct_dwt(records: ScanRecords) -> ReconstructionResult:
    """First-order weak-value inversion of a full scan, at its coupling ``theta``.

    The estimate carries the weak-measurement bias: exact records at finite
    theta reconstruct to ``psi - (1 - cos theta) |psi|^2 / ptilde`` up to an
    overall scale, so the bias grows with theta and the density map is
    visibly distorted at theta = pi/2.
    """
    return _invert(records, 0.0, 2.0 * records.theta, "dwt")


#: The ``estimator`` values of the configuration, strong and weak-value; the
#: command line calls the inversion ``reconstruct_<value>`` by name.
ESTIMATORS = ("dst", "dwt")


def score(field: TransverseWavefunction, ideal: TransverseWavefunction) -> QualityReport:
    """Quality of a reconstructed field against a known ideal field.

    Both fields are first scaled to unit power, so the scale of either does
    not count while its power fits in a double; a larger power raises
    ValueError, as do grids that differ, and a zero field
    DegenerateFieldError.  The ideal is turned so its amplitude sum is real
    and positive, the engine's gauge, and the reconstruction by the phase of
    its overlap ``o`` with the ideal, which brings it closest (a zero sum or
    overlap keeps its phase); fidelity is ``|o|^2``, the library's one
    overlap of two fields.  r_square is the coefficient of determination
    between the reconstructed density (the data) and the ideal probability
    density (the model): ``1 - SS_res / SS_tot`` with SS_tot about the data
    mean.  A flat density has SS_tot = 0: r_square is 1 if it matches the
    ideal one, else None.  RMS errors are those of the Re and Im maps.
    """
    if field.grid != ideal.grid:
        raise ValueError(f"reconstruction grid {field.grid} differs from ideal grid {ideal.grid}")
    amps, _ = _gauge(_unit_power(ideal.amps, "ideal field")[0])
    rec, _ = _unit_power(field.amps, "reconstructed field")
    o = complex(np.vdot(rec, amps))
    if o != 0:
        rec = rec * (o / abs(o))

    ideal_density = np.abs(amps) ** 2
    data = rec.real**2 + rec.imag**2
    ss_res = float(np.sum((data - ideal_density) ** 2))
    ss_tot = float(np.sum((data - data.mean()) ** 2))
    r_square = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else None)

    rmse_re = float(np.sqrt(np.mean((rec.real - amps.real) ** 2)))
    rmse_im = float(np.sqrt(np.mean((rec.imag - amps.imag) ** 2)))
    return QualityReport(r_square, abs(o) ** 2, rmse_re, rmse_im)
