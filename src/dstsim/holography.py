"""Free-space propagation by FFT convolution, and object reconstruction.

Two point-spread kernels are supported for forward propagation over a
distance D:

    spherical (point source):  K(dx, dy) = (1 / i lambda) * exp(i k r) / r,
                               r = sqrt(dx^2 + dy^2 + D^2)
    paraxial (Fresnel):        K(dx, dy) = exp(i k D) / (i lambda D)
                               * exp(i k (dx^2 + dy^2) / (2 D))

The spherical kernel lacks the Rayleigh-Sommerfeld obliquity factor D / r, and
departs from that kernel's propagation by 3.5e-6 of the peak on a 256x256
Gaussian (3 um, 808 nm, 9 mm) and by 7.7e-5 on a binary mask of it.
The paraxial kernel's inverse is its complex conjugate, ``L = conj(K)``, so
back-propagation from the detection plane to the object plane is the
conjugate of the conjugate field's forward propagation:
``L (*) f = conj(K (*) conj(f))``, with ``(*)`` the convolution.
Convolutions are evaluated on a zero-padded grid (at least 2x per axis) so
they are linear, not circular, over all offsets that connect input cells to
output cells; the result is cropped back to the input grid and scaled by
pitch^2 to discretize the propagation integral.  The padding happens inside
``fft2`` (each axis is zero-extended just before its pass), and the field is
transformed columns first, ``fft2(amps, s=(px, py), axes=(1, 0))``: numpy
runs the last listed axis first, so the strided pass along y covers only the
``nx`` input columns, and the contiguous pass along x then covers all ``py``
padded rows.  A strided pass costs about 2.5 times a contiguous one per
point (measured on 1024^2), so at pad factor ``p`` rows first costs
``p + 2.5 p^2`` units and columns first ``2.5 p + p^2``: columns first is
cheaper at every ``p >= 2`` and every aspect ratio.

The paraxial kernel factorizes into two 1-D chirps (Goodman, *Introduction
to Fourier Optics*, ch. 4),

    K(dx, dy) = [exp(i k D) / (i lambda D) * exp(i k dx^2 / (2 D))]
                * exp(i k dy^2 / (2 D)),

so its padded array is one outer product of two chirps.  The spherical
kernel does not factorize: it is evaluated once per ``(|dx|, |dy|)`` and
mirrored into the other three quadrants of the padded grid, since it depends
on the offsets only through their squares.

A propagation holds at most two padded arrays at once, plus one row block
of the spherical kernel's quadrant, a sixteenth of its rows, while that
kernel is built.  The field spectrum is taken first; the kernel is then
built and transformed in its own buffer (``fft2(..., out=kern)``), the
spectrum is multiplied into that buffer and released, and the product is
inverted in the kernel's buffer too.  numpy's ``ifft2`` ignores ``out=``,
but ``fft2`` honours it, and an inverse transform is a forward one read at
negated indices, ``ifft2(X)[n] == fft2(X)[-n] / N``; so the product is
transformed forward in place with ``norm="forward"``, and the output block
moves from indices ``(-iy, -ix)`` into the buffer's top-left corner, which
it never overlaps at ``pad_factor >= 2``, and is returned as a view.

The kernel's buffer spaces its rows an odd number of 64-byte cache lines
apart, 1028 complex values for a 1024-point row (:func:`_padded_empty`), so
it is a little wider than the spectrum.  A row of ``2^k`` values spans a
power of two bytes, so the column pass of a transform over contiguous rows
reads addresses that map to the same few cache sets and evicts each line
before the next columns use it; an odd number of lines spreads a column over
all sets.  The kernel's transform and the inverse both run in that buffer,
in about two thirds of the time per 1024^2 transform, and give the same
values: the transform copies each line into its own scratch.  The spectrum
stays contiguous, since ``fft2`` cannot zero-extend into ``out=``.
Elementwise passes over the buffer run one row per inner loop
(:func:`_by_rows`), so numpy does not copy them through its ufunc buffer.

Both kernels are quadratic-phase-like at the grid scale, so sampling them
on too coarse a grid aliases silently.  Propagation therefore refuses to
run unless the kernel's local spatial frequency at the largest relevant
offset, the grid's extent (its larger side), stays below Nyquist:
``|d phase / dx| * pitch <= pi``.  Object reconstruction reports both guard
margins: that frequency as a fraction of Nyquist, and distance over grid
extent, which the paraxial kernel needs to be at least
:data:`PARAXIAL_MIN_EXTENTS`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFieldError, FileFormatError, SamplingGuardError
from .wavefield import GridSpec, TransverseWavefunction, is_integer

#: Paraxial validity heuristic: distance at least this many grid extents.
PARAXIAL_MIN_EXTENTS = 10.0

#: Bytes per cache line; a padded buffer's rows are an odd number of lines apart.
_CACHE_LINE = 64

#: Row blocks of the spherical kernel's quadrant, each evaluated straight into
#: the padded buffer; a block scales with the quadrant, a sixteenth of its rows.
_KERNEL_BLOCKS = 16


#: The ``kernel`` values of a :class:`PropagationSpec`, spherical and paraxial;
#: the ``kernel`` key of the configuration takes the same values.
KERNELS = ("feynman", "fresnel")


@dataclass(frozen=True)
class PropagationSpec:
    """Wavelength, distance, kernel (one of :data:`KERNELS`), zero padding (2 to 2**31) per axis."""

    wavelength: float
    distance: float
    kernel: str = "fresnel"
    pad_factor: int = 2

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {', '.join(KERNELS)}, got {self.kernel!r}")
        if not np.isfinite(self.wavelength) or self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if not np.isfinite(self.distance) or self.distance <= 0:
            raise ValueError(f"distance must be positive, got {self.distance}")
        if not is_integer(self.pad_factor) or self.pad_factor < 2:
            raise ValueError(f"pad_factor must be an integer >= 2, got {self.pad_factor}")
        # a grid side is below 2**32, so a padded side stays below 2**63
        if self.pad_factor > 2**31:
            raise ValueError(f"pad_factor must be at most 2**31, got {self.pad_factor}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


def _check_guards(grid: GridSpec, spec: PropagationSpec) -> tuple[float, float]:
    """Refuse an aliased, non-paraxial or non-finite propagation; return its guard margins.

    The margins, returned for both kernels, are the kernel's local frequency
    at the grid's extent (its larger side: both kernels' frequencies grow
    with the offset) as a fraction of Nyquist, accepted up to 1, and distance
    over that extent, accepted for the paraxial kernel from
    :data:`PARAXIAL_MIN_EXTENTS`.  The kernel itself, evaluated by
    :func:`_fill_kernel` at zero and at the largest padded offsets, must be
    finite and nonzero at all four: each of its intermediate values grows with
    the offset, so those four bound every other offset's.  Distance over
    extent must be finite too.
    """
    k = spec.wavenumber
    d = spec.distance
    extent = grid.extent  # largest in-cell to out-cell offset
    paraxial = spec.kernel == "fresnel"
    slope = k * extent / d if paraxial else k * extent / math.hypot(extent, d)
    nyquist_fraction = slope * grid.pitch / math.pi
    if slope * grid.pitch > math.pi:
        raise SamplingGuardError(
            f"kernel local frequency {nyquist_fraction:.2f} x Nyquist "
            f"at offset {extent:.3e} m; increase distance or refine the grid"
        )
    if paraxial and d < PARAXIAL_MIN_EXTENTS * extent:
        raise SamplingGuardError(
            f"paraxial kernel needs distance >= {PARAXIAL_MIN_EXTENTS:g} x grid extent "
            f"({PARAXIAL_MIN_EXTENTS * extent:.3e} m), got {d:.3e} m"
        )
    # zero and the largest padded offsets, each >= 2 pitch, as _kernel_array's fftfreq scales them
    ox, oy = (n // 2 * (1.0 / (n * (1.0 / n))) * grid.pitch
              for n in (grid.nx * spec.pad_factor, grid.ny * spec.pad_factor))
    with np.errstate(all="ignore"):
        corners = _fill_kernel(np.array([0.0, -ox]), np.array([0.0, -oy]), spec,
                               np.empty((2, 2), dtype=np.complex128))
    if not (np.isfinite(corners).all() and corners.all()):
        raise SamplingGuardError(
            f"kernel is not finite and nonzero at wavelength {spec.wavelength:.3e} m, "
            f"distance {d:.3e} m and offsets up to {max(ox, oy):.3e} m; "
            f"change the wavelength, distance or pitch")
    distance_over_extent = d / extent
    if not math.isfinite(distance_over_extent):
        raise SamplingGuardError(
            f"distance {d:.3e} m over grid extent {extent:.3e} m overflows a double; "
            "change the distance or pitch")
    return nyquist_fraction, distance_over_extent


def _padded_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised complex ``shape`` array, rows an odd number of cache lines apart.

    The result is the leading ``shape[1]`` columns of a C-ordered buffer
    whose rows are rounded up to an odd number of :data:`_CACHE_LINE`
    bytes: 1024 columns become 1028, 252 stay 252.
    """
    per_line = _CACHE_LINE // np.dtype(np.complex128).itemsize
    lines = -(-shape[1] // per_line)
    lines += 1 - lines % 2
    return np.empty((shape[0], lines * per_line), dtype=np.complex128)[:, : shape[1]]


def _by_rows(ufunc: np.ufunc, *operands: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc(*operands, out=out)`` for a 2-D ``out``, one row per inner loop.

    When the rows are not contiguous with each other, as in a padded buffer
    or with a broadcast operand, and a row is shorter than the ufunc buffer
    (``np.getbufsize()``, 8192 elements by default), numpy 2.4 copies every
    operand through that buffer: a third of a 1024^2 product's time.  A
    buffer no longer than a row (its size must be a multiple of 16) lets
    every row run in place; the values are the same.
    """
    with np.errstate():   # restores the buffer size on exit
        np.setbufsize(max(16, out.shape[1] // 16 * 16))
        return ufunc(*operands, out=out)


def _fill_kernel(dx: np.ndarray, dy: np.ndarray, spec: PropagationSpec,
                 full: np.ndarray) -> np.ndarray:
    """Write the kernel at the signed offsets ``dy`` by ``dx``, in FFT order, into ``full``.

    The paraxial kernel is the outer product of its y chirp and its x chirp,
    the x chirp carrying the constant ``exp(i k D) / (i lambda D)``: one
    complex exponential per row and per column instead of one per cell.  It
    differs from evaluating the 2-D formula directly only by the rounding of
    the two phases.

    The spherical kernel depends on the offsets only through dx^2 and dy^2,
    and the negative ``fftfreq`` bins are exact negatives of the positive
    ones, so it is evaluated on the leading quadrant of the offsets and
    mirrored bit for bit.  The quadrant is evaluated straight into ``full``
    in :data:`_KERNEL_BLOCKS` blocks of rows, each with the direct formula's
    operations in its order: a block fills its rows' leading columns and its
    column mirror the rest, and the rows are then mirrored within the buffer.
    So no temporary is larger than one block.
    """
    py, px = full.shape
    k = spec.wavenumber
    d = spec.distance
    lam = spec.wavelength
    if spec.kernel == "fresnel":
        ex = np.exp(1j * k * d) / (1j * lam * d) * np.exp(1j * k * dx**2 / (2.0 * d))
        ey = np.exp(1j * k * dy**2 / (2.0 * d))
        return _by_rows(np.multiply, ey[:, None], ex[None, :], out=full)
    my = py // 2 + 1
    mx = px // 2 + 1
    # an even size's last quadrant offset is the negative Nyquist bin: its square is the same
    dx2 = dx[:mx]**2
    step = -(-my // _KERNEL_BLOCKS)
    for y in range(0, my, step):
        rows = slice(y, min(y + step, my))
        r = np.sqrt(dx2 + dy[rows, None]**2 + d * d)
        block = np.exp(1j * k * r)
        block /= 1j * lam * r
        full[rows, :mx] = block
        full[rows, mx:] = block[:, px - mx:0:-1]
    # disjoint source and target rows: numpy copies them without a temporary
    full[my:] = full[py - my:0:-1]
    return full


def _kernel_array(grid: GridSpec, spec: PropagationSpec) -> np.ndarray:
    """The kernel sampled at every offset of the padded grid, in FFT order."""
    py = grid.ny * spec.pad_factor
    px = grid.nx * spec.pad_factor
    # the signed offsets in FFT order; fftfreq's scale 1 / (n * (1 / n)) is not
    # exactly 1 for every n, and the mirrored quadrant must match it bit for bit
    dx = np.fft.fftfreq(px, 1.0 / px) * grid.pitch
    dy = np.fft.fftfreq(py, 1.0 / py) * grid.pitch
    return _fill_kernel(dx, dy, spec, _padded_empty((py, px)))


def _convolve(amps: np.ndarray, grid: GridSpec, spec: PropagationSpec) -> np.ndarray:
    """``amps`` convolved with the kernel over the padded grid, times ``pitch**2``.

    A view of the kernel's buffer: the output block moves from its negated indices,
    past ``n`` on a padded side of at least ``2 n``, into the top-left corner.
    """
    _check_guards(grid, spec)
    shape = (grid.ny * spec.pad_factor, grid.nx * spec.pad_factor)
    # columns first, so the strided pass runs over the input columns only
    spectrum = np.fft.fft2(amps, s=shape[::-1], axes=(1, 0))
    kern = _kernel_array(grid, spec)
    np.fft.fft2(kern, out=kern)
    _by_rows(np.multiply, spectrum, kern, out=kern)
    del spectrum
    np.fft.fft2(kern, out=kern, norm="forward")   # the inverse, read at negated indices
    ny, nx = grid.ny, grid.nx
    # moved between views: a gather by index arrays took about 1 MB more peak RSS (256^2, pad 4)
    kern[0, 1:nx] = kern[0, :-nx:-1]
    kern[1:ny, 0] = kern[:-ny:-1, 0]
    kern[1:ny, 1:nx] = kern[:-ny:-1, :-nx:-1]
    out = kern[:ny, :nx]
    return _by_rows(np.multiply, out, grid.pitch**2, out=out)


def propagate_forward(f: TransverseWavefunction, spec: PropagationSpec) -> TransverseWavefunction:
    """Propagate from the source plane a distance ``spec.distance`` forward."""
    return f.with_amps(_convolve(f.amps, f.grid, spec))


def propagate_inverse(f_d: TransverseWavefunction, spec: PropagationSpec) -> TransverseWavefunction:
    """Back-propagate a detection-plane field to the source plane.

    The paraxial kernel's inverse is its conjugate, so this is the conjugate of
    the conjugate field's forward propagation; the spherical kernel is refused.
    """
    if spec.kernel != "fresnel":
        raise ValueError("inverse propagation is defined for the paraxial kernel only")
    back = _convolve(np.conj(f_d.amps), f_d.grid, spec)
    return f_d.with_amps(np.conj(back, out=back))


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless the validity ``threshold`` is in (0, 1]; above 1 no cell is valid."""
    if not 0 < threshold <= 1:   # NaN fails the comparison too
        raise ValueError(f"threshold must be positive and at most 1, got {threshold}")


@dataclass(frozen=True, eq=False)
class ObjectReconstruction:
    """Complex transmission estimate and where it is trustworthy.

    ``transmission`` holds measured-over-illumination ratios on the measured
    grid, on cells where ``validity_mask`` is True, and zeros elsewhere (the
    division is numerically meaningless below the illumination threshold).
    ``backpropagated`` is :func:`propagate_inverse` of the measured field,
    the numerator of those ratios.
    ``nyquist_fraction`` and ``distance_over_extent`` are the margins of the
    back-propagation's sampling and paraxial guards.
    """

    transmission: TransverseWavefunction
    backpropagated: TransverseWavefunction
    validity_mask: np.ndarray
    nyquist_fraction: float
    distance_over_extent: float


def reconstruct_object(
    measured_d: TransverseWavefunction,
    known_input: TransverseWavefunction,
    spec: PropagationSpec,
    threshold: float = 1e-3,
) -> ObjectReconstruction:
    """Estimate the object's complex transmission from a measured far field.

    Back-propagates the measured detection-plane field to the object plane
    and divides by the known illumination, on cells where the illumination
    amplitude is at least ``threshold`` times its maximum.  The object and
    illumination planes coincide (thin object), so the true transmitted
    field is ``t * known_input``.  ``threshold`` must pass :func:`check_threshold`.
    An empty validity mask, as that of an illumination that is zero
    everywhere, raises :class:`DegenerateFieldError`.
    """
    if measured_d.grid != known_input.grid:
        raise ValueError(f"measured grid {measured_d.grid} differs from "
                         f"known-input grid {known_input.grid}")
    check_threshold(threshold)
    # every refusal that needs no transform comes before the back-propagation
    nyquist_fraction, distance_over_extent = _check_guards(measured_d.grid, spec)
    mag = np.abs(known_input.amps)
    mask = (mag >= threshold * mag.max()) & (mag > 0)   # a zero illumination is never valid
    if not mask.any():
        raise DegenerateFieldError("validity mask is empty; illumination too weak")
    back = propagate_inverse(measured_d, spec)
    t = np.divide(back.amps, known_input.amps, out=np.zeros_like(back.amps), where=mask)
    return ObjectReconstruction(measured_d.with_amps(t), back, mask, nyquist_fraction,
                                distance_over_extent)


# ---------------------------------------------------------------------------
# PGM (P5) object masks
# ---------------------------------------------------------------------------

#: An 8-bit binary PGM header: the magic, then the width, height and maxval as
#: unsigned decimals, each after whitespace or ``#`` comments that run to the end
#: of their line, then the one whitespace byte before the pixels.  ``re`` compiles
#: it on the first read and caches it, so importing the module does not.
_PGM_HEADER = rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s"


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) file into a (rows, cols) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(_PGM_HEADER, data)
    if header is None:
        raise FileFormatError(f"{path}: not a P5 PGM file, or a malformed or truncated header")
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise FileFormatError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos = header.end()
    if len(data) - pos != width * height:
        raise FileFormatError(f"{path}: expected {width * height} pixels, got {len(data) - pos}")
    return np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, width)


def apply_object(f: TransverseWavefunction, transmission: np.ndarray) -> TransverseWavefunction:
    """Transmit a field through a thin object: pointwise multiply."""
    t = np.asarray(transmission)
    if t.shape != f.amps.shape:
        raise ValueError(f"object shape {t.shape} does not match field {f.amps.shape}")
    return f.with_amps(f.amps * t)
