"""Independent oracles the tests check the library against.

These deliberately avoid the library's closed-form code paths: the pointer
oracle builds the full joint system-pointer state and exponentiates the
coupling Hamiltonian as a dense matrix, the beam oracle evaluates the
textbook Gaussian-beam propagation formula, and the kernel oracle evaluates
the propagation kernel at every offset of the padded grid and convolves
through an explicitly zero-filled buffer, the stream oracle draws one
cell's counts from the written definition of sampling stream v1, the
fidelity is the overlap of two fields summed cell by cell, and the phase
winding walks a square loop of a phase map.
"""

from __future__ import annotations

import struct

import numpy as np
from scipy.linalg import expm

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def gauge_align(amps: np.ndarray) -> np.ndarray:
    """Rotate a field's global phase so the amplitude sum is real positive."""
    s = amps.sum()
    if abs(s) == 0:
        raise ValueError("field sums to zero")
    return amps * (abs(s) / s)


def pointer_via_matrix_exponential(
    amps: np.ndarray, cell: tuple[int, int], theta: float
) -> tuple[complex, complex]:
    """Post-selected pointer amplitudes from the full joint-state evolution.

    Applies exp(-i theta P_cell x sigma_y) to psi x |0> as a dense
    (2N x 2N) matrix exponential, then projects the system on the flat
    zero-momentum state sum |x,y> / sqrt(N).
    """
    gauged = gauge_align(np.asarray(amps, dtype=complex))
    ny, nx = gauged.shape
    n = nx * ny
    psi = gauged.ravel()  # row-major, y outer

    ix, iy = cell
    idx = iy * nx + ix
    proj = np.zeros((n, n))
    proj[idx, idx] = 1.0

    joint = np.kron(psi, np.array([1.0, 0.0]))  # (N*2,) with pointer fastest
    u = expm(-1j * theta * np.kron(proj, SIGMA_Y))
    evolved = (u @ joint).reshape(n, 2)

    pointer = evolved.sum(axis=0) / np.sqrt(n)
    return complex(pointer[0]), complex(pointer[1])


def gaussian_beam_at_distance(
    grid_x: np.ndarray, grid_y: np.ndarray, w0: float, dist: float, wavelength: float
) -> np.ndarray:
    """Collimated Gaussian beam (waist at z=0) after propagating ``dist``.

    Standard beam-parameter evolution: w(z) = w0 sqrt(1 + (z/zR)^2),
    R(z) = z (1 + (zR/z)^2), Gouy phase atan(z/zR), plus the plane-wave
    carrier exp(i k z).  Returned amplitudes are normalized to unit
    discrete power for comparison with the convolution output.
    """
    k = 2.0 * np.pi / wavelength
    zr = np.pi * w0**2 / wavelength
    wz = w0 * np.sqrt(1.0 + (dist / zr) ** 2)
    rz = dist * (1.0 + (zr / dist) ** 2)
    gouy = np.arctan(dist / zr)
    r2 = grid_x**2 + grid_y**2
    amps = (w0 / wz) * np.exp(-r2 / wz**2) * np.exp(1j * (k * dist + k * r2 / (2.0 * rz) - gouy))
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2))


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(np.ravel(a), np.ravel(b))[0, 1])


def fidelity(a, b) -> float:
    """``|<a|b>|^2 / (<a|a> <b|b>)`` of two fields, summed cell by cell.

    Invariant to the scale and global phase of either field; the library's
    own overlap is ``score(...).fidelity``.
    """
    va, vb = np.ravel(a.amps), np.ravel(b.amps)
    overlap = np.sum(np.conj(va) * vb)
    return float(abs(overlap) ** 2 / (np.sum(np.abs(va) ** 2) * np.sum(np.abs(vb) ** 2)))


def phase_winding(phase: np.ndarray, radius: int,
                  center: tuple[float, float] | None = None) -> float:
    """Winding number of a phase map around ``center`` on a square loop.

    Walks the boundary of the axis-aligned square block of cells at loop
    index ``radius`` counterclockwise (x right, y up) and accumulates
    wrapped phase differences.  Returns total accumulated phase / 2 pi,
    which is an integer up to rounding whenever the phase map is smooth
    along the loop.  ``center`` is in (row, column) index units and
    defaults to the geometric grid center (half-integer on even grids).
    """
    ny, nx = phase.shape
    if center is None:
        center = ((ny - 1) / 2.0, (nx - 1) / 2.0)
    cy, cx = center
    if radius < 1:
        raise ValueError("loop radius must be >= 1")
    r0 = int(np.ceil(cy - radius))
    r1 = int(np.floor(cy + radius))
    c0 = int(np.ceil(cx - radius))
    c1 = int(np.floor(cx + radius))
    if r0 < 0 or c0 < 0 or r1 >= ny or c1 >= nx:
        raise ValueError(f"loop of radius {radius} does not fit inside the grid")

    # bottom edge left->right, right edge bottom->top, top edge right->left,
    # left edge top->bottom (counterclockwise with y increasing upward)
    vals = np.concatenate([phase[r0, c0:c1], phase[r0:r1, c1],
                           phase[r1, c1:c0:-1], phase[r1:r0:-1, c0]])
    diffs = np.diff(np.concatenate([vals, vals[:1]]))
    wrapped = (diffs + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(wrapped) / (2.0 * np.pi))


def kernel_on_padded_grid(
    nx: int, ny: int, pitch: float, pad_factor: int,
    wavelength: float, distance: float, kind: str,
) -> np.ndarray:
    """Propagation kernel at every offset of the padded grid, in FFT order.

    ``kind`` is ``feynman`` (spherical), ``fresnel`` (paraxial) or
    ``fresnel-inverse`` (the paraxial kernel's closed-form inverse).  Each
    entry is evaluated directly from its own signed offset.
    """
    px, py = nx * pad_factor, ny * pad_factor
    dx = (np.fft.fftfreq(px, 1.0 / px) * pitch)[None, :]
    dy = (np.fft.fftfreq(py, 1.0 / py) * pitch)[:, None]
    k = 2.0 * np.pi / wavelength
    d = distance
    rho2 = dx**2 + dy**2
    if kind == "feynman":
        r = np.sqrt(rho2 + d * d)
        return np.exp(1j * k * r) / (1j * wavelength * r)
    if kind == "fresnel":
        return np.exp(1j * k * d) / (1j * wavelength * d) * np.exp(1j * k * rho2 / (2.0 * d))
    if kind == "fresnel-inverse":
        return np.exp(-1j * k * d) / (-1j * wavelength * d) * np.exp(-1j * k * rho2 / (2.0 * d))
    raise ValueError(f"unknown kernel kind {kind!r}")


def convolve_zero_padded(amps: np.ndarray, kern: np.ndarray, pitch: float) -> np.ndarray:
    """Linear convolution of ``amps`` with ``kern`` through a zero-filled buffer.

    The field is copied into the corner of a zero array of the kernel's
    shape, both are transformed in full, and the product's inverse is scaled
    by ``pitch**2`` and cropped back to the field's shape.
    """
    ny, nx = amps.shape
    buf = np.zeros(kern.shape, dtype=np.complex128)
    buf[:ny, :nx] = amps
    out = np.fft.ifft2(np.fft.fft2(buf) * np.fft.fft2(kern)) * pitch**2
    return out[:ny, :nx]


def stream_v1_counts(probs, budget: int, seed: int, ix: int, iy: int) -> list[int]:
    """One cell's six counts under sampling stream v1, from its definition.

    The cell draws from ``Generator(Philox(key=(seed << 64) | (iy << 32) | ix))``.
    For each basis pair ``(pa, pb)`` in projector order it draws the detected
    total, Poisson with mean ``budget * (pa + pb)``, then splits it binomially,
    ``pa``'s share with probability ``pa / (pa + pb)``.  A pair that detects no
    photon draws no split.
    """
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | (iy << 32) | ix))
    probs = [float(p) for p in probs]
    counts = []
    for pa, pb in zip(probs[0::2], probs[1::2]):
        total = int(rng.poisson(budget * (pa + pb)))
        na = int(rng.binomial(total, pa / (pa + pb))) if total else 0
        counts += [na, total - na]
    return counts


def records_csv_reference(records) -> bytes:
    """The bytes of a records CSV, built value by value from its written definition.

    The header ``nx=..,ny=..,pitch=..,theta=..,budget=..`` with the floats as
    ``repr``, then the column names, ``w_`` for a noiseless scan's probabilities
    and ``n_`` for a sampled scan's counts, then one row per cell, y outer and x
    inner, of the six values in projector order, each as the 16 hexadecimal
    digits of its big-endian 64 bits: a probability packed as a double, a count
    as a signed integer.  Every line ends in CRLF.
    """
    grid, budget = records.grid, records.photons_per_setting
    kind, word = ("n_", ">q") if budget else ("w_", ">d")
    lines = [f"nx={grid.nx},ny={grid.ny},pitch={float(grid.pitch)!r},"
             f"theta={float(records.theta)!r},budget={budget}",
             ",".join(kind + p for p in ("plus", "minus", "0", "1", "L", "R"))]
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            cell = [records.readout[k, iy, ix].item() for k in range(6)]
            lines.append(",".join(struct.pack(word, v).hex() for v in cell))
    return "".join(line + "\r\n" for line in lines).encode()
