"""Complex scalar fields on uniform 2D grids, and generators for the input states.

Conventions
-----------
A field is a rectangular grid of ``ny`` rows by ``nx`` columns of complex
cell amplitudes, stored row-major (y outer, x inner).  Amplitudes are
dimensionless cell-integrated coefficients: a normalized field satisfies
``sum(|psi|^2) == 1`` over cells, not an integral density.  Cell centers sit
at ``x = (ix - (nx-1)/2) * pitch`` and ``y = (iy - (ny-1)/2) * pitch``, so
the geometric grid center is the origin.  The azimuthal angle used by the
vortex plate and the LG modes is ``atan2(y, x)`` (y up, x right).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFieldError, FileFormatError


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool, a float or anything else is not.

    The one integer test of every integer parameter, so that 1.5 is refused
    rather than truncated and True is not taken for 1.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GridSpec:
    """Uniform scan grid: ``nx`` by ``ny`` cells of physical width ``pitch`` (m)."""

    nx: int
    ny: int
    pitch: float

    def __post_init__(self):
        for name in ("nx", "ny"):   # a WFGRID header stores each as a u32
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value >= 2**32:
                raise ValueError(f"{name} must be below 2**32, got {value}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        if not np.isfinite(self.pitch) or self.pitch <= 0:
            raise ValueError(f"pitch must be positive and finite, got {self.pitch}")

    def __str__(self) -> str:
        return f"{self.nx}x{self.ny} at pitch {self.pitch} m"

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def extent(self) -> float:
        """Largest physical side length of the grid (m)."""
        return max(self.nx, self.ny) * self.pitch

    def x_coords(self) -> np.ndarray:
        return (np.arange(self.nx) - (self.nx - 1) / 2.0) * self.pitch

    def y_coords(self) -> np.ndarray:
        return (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.pitch

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinates ``(X, Y)`` as ``(ny, nx)`` arrays (m)."""
        return np.meshgrid(self.x_coords(), self.y_coords())


@dataclass(frozen=True, eq=False)
class TransverseWavefunction:
    """Complex amplitudes ``amps[iy, ix]`` on a :class:`GridSpec`.

    Instances are immutable: the field holds its own copy of the amplitudes,
    marked read-only, and every operation returns a new instance.  Fields
    compare and hash by identity.
    """

    grid: GridSpec
    amps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amps, dtype=np.complex128, order="C")
        if arr.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(f"amps shape {arr.shape} does not match grid "
                             f"({self.grid.ny}, {self.grid.nx})")
        if not np.isfinite(arr).all():
            raise ValueError("field amplitudes must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    def power(self) -> float:
        """Total ``sum(|psi|^2)`` over cells, inf when it overflows a double; never warns."""
        return _power(self.amps)

    def with_amps(self, amps: np.ndarray) -> "TransverseWavefunction":
        return TransverseWavefunction(self.grid, amps)


#: The ``kind`` values of a :class:`ModeSpec`, Gaussian and Laguerre-Gaussian;
#: the ``mode`` key of the configuration takes the same values.
MODES = ("gaussian", "lg")


@dataclass(frozen=True)
class ModeSpec:
    """Parameters of a generated input mode.

    ``kind`` is one of :data:`MODES`.  ``waist`` is the 1/e amplitude radius
    w0 in meters.  ``oam`` (azimuthal index l) applies to LG modes only; their
    radial index is 0.  ``center`` is the mode center in meters relative to
    the grid center.  For any other field, LG_p^l with p > 0 included, use
    ``normalize(TransverseWavefunction(grid, amps))`` instead.
    """

    kind: str
    waist: float
    oam: int = 0
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.kind not in MODES:
            raise ValueError(f"kind must be one of {', '.join(MODES)}, got {self.kind!r}")
        if not np.isfinite(self.waist) or self.waist <= 0:
            raise ValueError(f"waist must be positive and finite, got {self.waist}")
        check_charge("oam", self.oam)
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"center must be finite, got {self.center}")


def check_charge(name: str, l: int) -> None:
    """Raise ValueError naming ``name`` unless the charge ``l`` is an integer, ``|l| <= 2**53``.

    A half charge would put a branch cut in the phase, and every integer up
    to 2**53 is a double, so ``l * phi`` takes the charge exactly.
    """
    if not is_integer(l):
        raise ValueError(f"{name} must be an integer, got {l!r}")
    if abs(l) > 2**53:
        raise ValueError(f"{name} must be at most 2**53 in magnitude, got {l}")


def make_mode(spec: ModeSpec, grid: GridSpec) -> TransverseWavefunction:
    """Generate a normalized mode on ``grid``.

    Gaussian: ``exp(-r^2 / w0^2)``.  Laguerre-Gaussian of radial index 0,
    LG_0^l: ``(sqrt(2) r / w0)^|l| exp(-r^2 / w0^2) exp(i l phi)``.  Both are
    normalized to unit cell-sum power afterwards, so analytic prefactors are
    irrelevant.  Nothing warns: a waist whose square overflows gives the flat
    field the Gaussian tends to.  LG indices whose amplitudes overflow a
    double on ``grid``, and a field the formula leaves NaN (``r^2 / w0^2`` of
    ``inf / inf`` or ``0 / 0``), raise ValueError; a field that is zero in
    every cell raises DegenerateFieldError.
    """
    # each overflow or 0 / 0 is refused by name below, or is the limit the formula tends to
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, y = grid.mesh()
        cx, cy = spec.center
        xr = x - cx
        yr = y - cy
        r2 = xr**2 + yr**2
        w2 = np.float64(spec.waist) ** 2   # a Python float's ** raises on overflow
        if spec.kind == "gaussian":
            amps = np.exp(-r2 / w2).astype(np.complex128)
            name = "Gaussian mode"
        else:  # "lg"
            amps = (
                (np.sqrt(2.0) * np.sqrt(r2) / spec.waist) ** abs(spec.oam)
                * np.exp(-r2 / w2)
                * np.exp(1j * spec.oam * np.arctan2(yr, xr))
            )
            name = f"l = {spec.oam}: LG mode"

    # a power that overflows, is NaN or vanishes is refused by the mode's name
    return TransverseWavefunction(grid, _unit_power(amps, name)[0])


def apply_vortex_plate(f: TransverseWavefunction, l: int) -> TransverseWavefunction:
    """Multiply by ``exp(i l phi)`` with phi the azimuthal angle about the grid center.

    The multiplier has unit modulus, so the total power is unchanged.  A
    charge ``l`` that :func:`check_charge` refuses raises ValueError.
    """
    check_charge("l", l)
    if l == 0:
        return f
    x, y = f.grid.mesh()
    return f.with_amps(f.amps * np.exp(1j * l * np.arctan2(y, x)))


def _power(amps: np.ndarray) -> float:
    """``sum(|amps|^2)``, computed without a warning: inf when it overflows a double."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(np.abs(amps) ** 2))


def _unit_power(amps: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """``amps`` scaled to ``sum(|amps|^2) == 1``, and the norm they were divided by.

    The norm is ``sqrt(sum(|amps|^2))``, the one scale of every field.  A
    power below the smallest normal double is summed again after the
    complex128 ``amps`` are scaled by the power of two of their largest
    magnitude, which is exact, so such a field normalizes as any power-of-two
    multiple of it does; a power that is a normal double is used as it is.
    Each refusal calls the amplitudes ``name``: an infinite power raises
    ValueError ``<name> power overflows a double``, a NaN one ValueError
    ``<name> power is not a number``, and a zero field DegenerateFieldError
    ``<name> has zero power``; none warns.
    """
    p = _power(amps)
    if np.isnan(p):
        raise ValueError(f"{name} power is not a number")
    if not np.isfinite(p):
        raise ValueError(f"{name} power overflows a double")
    shift = 0
    if p < np.finfo(np.float64).tiny:   # the squares lost their bits or vanished
        peak = float(np.max(np.abs(amps)))
        if peak == 0.0:
            raise DegenerateFieldError(f"{name} has zero power")
        shift = -math.frexp(peak)[1]
        amps = np.ldexp(amps.view(np.float64), shift).view(np.complex128)
        p = _power(amps)
    norm = np.sqrt(p)
    return amps / norm, float(np.ldexp(norm, -shift))


def normalize(f: TransverseWavefunction) -> TransverseWavefunction:
    """Rescale to ``sum(|psi|^2) == 1``; phases are untouched.

    A field whose power overflows a double raises ValueError, and a zero
    field DegenerateFieldError; a field whose power underflows is kept.
    """
    return f.with_amps(_unit_power(f.amps, "field")[0])


def _gauge(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """``amps`` turned so their sum is real and positive, and that sum's magnitude.

    This is the zero-momentum gauge of the protocol.  A sum that is zero, or
    already real and positive, leaves ``amps`` as they are.
    """
    s = complex(np.sum(amps))
    mag = abs(s)
    if mag == 0.0 or (s.imag == 0.0 and s.real > 0.0):
        return amps, mag
    return amps * (mag / s), mag


# ---------------------------------------------------------------------------
# WFGRID container: "WFG1", u32 nx, u32 ny, f64 pitch, then nx*ny (re, im)
# f64 pairs row-major (y outer, x inner).  All little-endian.
# ---------------------------------------------------------------------------

_WFGRID_MAGIC = b"WFG1"
_WFGRID_HEADER = struct.Struct("<4sIId")
_WFGRID_DTYPE = np.dtype("<c16")  # one (re, im) f64 pair


def write_wfgrid(path, f: TransverseWavefunction) -> None:
    payload = np.asarray(f.amps, dtype=_WFGRID_DTYPE)
    with open(path, "wb") as fh:
        fh.write(_WFGRID_HEADER.pack(_WFGRID_MAGIC, f.grid.nx, f.grid.ny, f.grid.pitch))
        fh.write(payload)


def read_wfgrid(path) -> TransverseWavefunction:
    """Read a WFGRID file; every refusal is a FileFormatError that names ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _WFGRID_HEADER.size:
        raise FileFormatError(f"{path}: truncated WFGRID header")
    magic, nx, ny, pitch = _WFGRID_HEADER.unpack_from(raw)
    if magic != _WFGRID_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {_WFGRID_MAGIC!r}")
    expected = _WFGRID_HEADER.size + nx * ny * 16
    if len(raw) != expected:
        raise FileFormatError(
            f"{path}: payload is {len(raw)} bytes, expected {expected} for {nx}x{ny}"
        )
    try:
        grid = GridSpec(nx, ny, pitch)
        # read as complex, not as re + 1j * im, which turns a -0.0 part into +0.0;
        # the field copies the unaligned view into an aligned array of its own
        amps = np.frombuffer(raw, dtype=_WFGRID_DTYPE, offset=_WFGRID_HEADER.size)
        return TransverseWavefunction(grid, amps.reshape(ny, nx))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
