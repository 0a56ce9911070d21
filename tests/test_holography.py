import collections
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dstsim import (
    DegenerateFieldError,
    FileFormatError,
    GridSpec,
    ModeSpec,
    PropagationSpec,
    SamplingGuardError,
    TransverseWavefunction,
    apply_object,
    make_mode,
    normalize,
    propagate_forward,
    propagate_inverse,
    read_pgm,
    reconstruct_object,
)
from dstsim import holography
from dstsim.holography import OBJECT_MAPS, PARAXIAL_MIN_EXTENTS, _kernel_array
from oracles import convolve_zero_padded, gaussian_beam_at_distance, kernel_on_padded_grid

LAM = 808e-9

# 64x64 grid at 3 um pitch: spherical and paraxial kernels are both cleanly
# sampled for distances of a few millimeters
GRID64 = GridSpec(64, 64, 3e-6)
D64 = 2.5e-3
FRESNEL64 = PropagationSpec(LAM, D64, "fresnel")
FEYNMAN64 = PropagationSpec(LAM, D64, "feynman")


def gaussian_on(grid, waist_cells=8.0):
    return make_mode(ModeSpec("gaussian", waist=waist_cells * grid.pitch), grid)


class TestPropagationSpec:
    def test_wavenumber(self):
        spec = PropagationSpec(500e-9, 1e-3)
        assert spec.wavenumber == pytest.approx(2 * np.pi / 500e-9)

    @pytest.mark.parametrize("lam,d", [(0.0, 1e-3), (500e-9, 0.0), (-1e-9, 1e-3)])
    def test_invalid(self, lam, d):
        with pytest.raises(ValueError):
            PropagationSpec(lam, d)

    @pytest.mark.parametrize("kernel", ["frensel", "FRESNEL", None, "spherical", ""])
    def test_unknown_kernel_refused_at_construction(self, kernel):
        with pytest.raises(ValueError, match=r"^kernel must be one of feynman, fresnel, got "):
            PropagationSpec(LAM, D64, kernel)

    @pytest.mark.parametrize("kernel", holography.KERNELS)
    def test_kernel_selects_its_formula(self, kernel):
        # at 2 mm over a 96 um grid the two kernels differ by about 0.01 rad of
        # phase, far beyond the rounding bound of the comparison
        f = gaussian_on(GridSpec(32, 32, 3e-6))
        spec = PropagationSpec(LAM, 2e-3, kernel)
        assert_matches_zero_buffer_convolution(f, spec, False, kernel)
        if kernel == "fresnel":
            default = propagate_forward(f, PropagationSpec(LAM, 2e-3))
            assert np.array_equal(propagate_forward(f, spec).amps, default.amps)
            assert_matches_zero_buffer_convolution(f, spec, True, "fresnel-inverse")


class TestKernelSampling:
    def test_point_source_reproduces_kernel(self):
        # convolution with a delta sifts out sampled kernel values
        amps = np.zeros((64, 64), complex)
        amps[20, 30] = 1.0
        f = TransverseWavefunction(GRID64, amps)
        out = propagate_forward(f, FEYNMAN64)
        k = FEYNMAN64.wavenumber
        for iy, ix in [(20, 30), (10, 50), (63, 0)]:
            dx = (ix - 30) * GRID64.pitch
            dy = (iy - 20) * GRID64.pitch
            r = np.sqrt(dx**2 + dy**2 + D64**2)
            expected = np.exp(1j * k * r) / (1j * LAM * r) * GRID64.pitch**2
            assert out.amps[iy, ix] == pytest.approx(expected, rel=1e-12)

    def test_nyquist_guard_trips(self):
        # coarse pitch at short distance: quadratic kernel phase aliases
        grid = GridSpec(64, 64, 125e-6)
        f = gaussian_on(grid)
        with pytest.raises(SamplingGuardError):
            propagate_forward(f, PropagationSpec(LAM, 0.2, "fresnel"))

    def test_paraxial_guard_trips(self):
        f = gaussian_on(GRID64)
        # Nyquist-clean but closer than 10 grid extents
        spec = PropagationSpec(LAM, 1.6e-3, "fresnel")
        with pytest.raises(SamplingGuardError):
            propagate_forward(f, spec)

    def test_pad_factor_validation(self):
        for pad in (1, 0, 2.0):
            with pytest.raises(ValueError, match="pad_factor must be an integer >= 2"):
                PropagationSpec(LAM, D64, pad_factor=pad)
        assert PropagationSpec(LAM, D64).pad_factor == 2

    def test_inverse_requires_paraxial_kernel(self):
        f = gaussian_on(GRID64)
        with pytest.raises(ValueError):
            propagate_inverse(f, FEYNMAN64)

    def test_spherical_inverse_refused_before_any_transform(self, monkeypatch):
        calls = []
        fft2 = np.fft.fft2

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return fft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft2", counting)
        with pytest.raises(ValueError, match="paraxial kernel only"):
            propagate_inverse(gaussian_on(GRID64), FEYNMAN64)
        assert calls == []


def per_axis_guards(grid, spec):
    """The guards evaluated once per axis, a reference for ``_check_guards``.

    Returns the guard that refuses, ``"nyquist"`` or ``"paraxial"``, or else
    the margins ``(nyquist_fraction, distance_over_extent)``.
    """
    k, d = spec.wavenumber, spec.distance
    paraxial = spec.kernel == "fresnel"
    nyquist_fraction = 0.0
    for n in (grid.nx, grid.ny):
        dmax = n * grid.pitch   # the largest offset along this axis
        slope = k * dmax / d if paraxial else k * dmax / math.hypot(dmax, d)
        if slope * grid.pitch > math.pi:
            return "nyquist"
        nyquist_fraction = max(nyquist_fraction, slope * grid.pitch / math.pi)
    if paraxial and d < PARAXIAL_MIN_EXTENTS * grid.extent:
        return "paraxial"
    return nyquist_fraction, d / grid.extent


class TestGuards:
    def test_equals_the_per_axis_loop(self):
        # non-square grids only, where the two axes' offsets differ
        rng = np.random.default_rng(23)
        kernels = holography.KERNELS
        seen = collections.Counter()
        for _ in range(3000):
            nx, ny = (int(n) for n in rng.choice(np.arange(2, 160), size=2, replace=False))
            grid = GridSpec(nx, ny, float(10 ** rng.uniform(-6.3, -4.5)))
            kernel = kernels[rng.integers(len(kernels))]
            spec = PropagationSpec(float(10 ** rng.uniform(-6.6, -5.8)),
                                   float(grid.extent * 10 ** rng.uniform(-0.5, 2.5)), kernel)
            want = per_axis_guards(grid, spec)
            if isinstance(want, str):
                with pytest.raises(SamplingGuardError) as exc:
                    holography._check_guards(grid, spec)
                named = (f"at offset {grid.extent:.3e} m" if want == "nyquist"
                         else f"({PARAXIAL_MIN_EXTENTS * grid.extent:.3e} m)")
                assert named in str(exc.value)
            else:
                assert holography._check_guards(grid, spec) == want   # bit for bit
            seen[kernel, nx < ny, want if isinstance(want, str) else "accepted"] += 1
        # each kernel in both orientations, accepted and refused by each of its guards
        outcomes = {"fresnel": ("nyquist", "paraxial", "accepted"),
                    "feynman": ("nyquist", "accepted")}
        assert set(seen) == {(kernel, wide, outcome) for kernel in kernels
                             for wide in (True, False) for outcome in outcomes[kernel]}

    @pytest.mark.parametrize("nx, ny", [(32, 64), (64, 32)])
    def test_refusal_names_the_larger_side(self, nx, ny):
        # both sides alias; the larger one decides, and the message names it
        grid = GridSpec(nx, ny, 125e-6)
        spec = PropagationSpec(LAM, 0.2, "fresnel")
        with pytest.raises(SamplingGuardError) as exc:
            holography._check_guards(grid, spec)
        assert str(exc.value) == ("kernel local frequency 12.38 x Nyquist at offset 8.000e-03 m; "
                                  "increase distance or refine the grid")

    # the kernel phase k D overflows at 1.7e305 m, and the spherical kernel's D^2 at 1e197 m;
    # at 1e150 m D^2 is a double, but a wavelength of 6e-160 m puts k D beyond one
    @pytest.mark.parametrize("pitch, wavelength, distance, kernel, clause", [
        (3e-6, LAM, 1.7e305, "fresnel", "k*D"),
        (3e-6, LAM, 1.7e305, "feynman", "k*D or D*D"),
        (3e-6, LAM, 1e197, "feynman", "k*D or D*D"),
        (1e-150, 6e-160, 1e150, "feynman", "k*D or D*D"),
    ], ids=["fresnel", "feynman", "feynman D^2", "feynman kD"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distance_whose_kernel_phase_overflows_is_refused(self, monkeypatch, pitch,
                                                              wavelength, distance, kernel,
                                                              clause):
        def transform(*args, **kwargs):
            raise AssertionError("a refused propagation ran a transform")

        monkeypatch.setattr(np.fft, "fft2", transform)
        f = gaussian_on(GridSpec(16, 16, pitch))
        spec = PropagationSpec(wavelength, distance, kernel)
        message = (f"kernel phase is not finite at distance {distance:.3e} m "
                   f"({clause} overflows a double); reduce the distance")
        for call in (propagate_forward, lambda f, spec: reconstruct_object(f, f, spec)):
            with pytest.raises(SamplingGuardError) as exc:
                call(f, spec)
            assert str(exc.value) == message

    def test_spherical_kernel_reports_distance_over_extent(self):
        grid = GridSpec(48, 40, 3e-6)
        _, distance_over_extent = holography._check_guards(grid, replace(FEYNMAN64, distance=2e-3))
        assert distance_over_extent == 2e-3 / grid.extent


KERNEL_KINDS = [(FEYNMAN64, False, "feynman"), (FRESNEL64, False, "fresnel"),
                (FRESNEL64, True, "fresnel-inverse")]
KINDS = [kind for _, _, kind in KERNEL_KINDS]

# Rounding budget, in units of eps (1 + phase) |C|, between the paraxial kernel
# built from two 1-D chirps and the direct 2-D formula (|C| = 1 / lambda D).
# Both round the phase k (dx^2 + dy^2) / 2D to a few ulps of itself, and exp and
# the products add a few ulps of |C|; the constant exp(i k D) / (i lambda D) is
# evaluated the same way by both and cancels.  Measured: at most 1.7 up to
# 256x256 at pad 4.
FRESNEL_ROUNDING = 4.0


def fresnel_kernel_bound(nx, ny, pitch, pad, distance):
    """Largest rounding difference from the direct formula, per padded offset."""
    px, py = nx * pad, ny * pad
    dx = np.fft.fftfreq(px, 1.0 / px) * pitch
    dy = np.fft.fftfreq(py, 1.0 / py) * pitch
    phase = 2.0 * np.pi / LAM * (dx[None, :]**2 + dy[:, None]**2) / (2.0 * distance)
    return FRESNEL_ROUNDING * np.finfo(np.float64).eps * (1.0 + phase) / (LAM * distance)


# Rounding budget, in units of eps pitch^2 sum|f| max|K|, between a propagation
# and the zero-buffer convolution with the same kernel.  Every output cell sums
# pitch^2 f K over the input cells; the two differ in the order of the
# transform passes (the field is transformed columns first, the oracle rows
# first), which moves each sum by a few ulps of its largest terms.  Measured
# with every kernel: 0.26 for the spherical kernel at 7x5 pad 3, at most 0.82
# over 7x5, 16x9, 64x64 and 256x256, and at most 2.4 over 20000 random grids
# up to 8x8 at pads 2-5 (1.9 for the spherical kernel alone).
FFT_ROUNDING = 4.0


def assert_matches_zero_buffer_convolution(f, spec, inverse, kind):
    """Propagate ``f`` and compare with the zero-buffer convolution within its rounding bound."""
    g = f.grid
    kern = kernel_on_padded_grid(g.nx, g.ny, g.pitch, spec.pad_factor, LAM, spec.distance, kind)
    out = (propagate_inverse if inverse else propagate_forward)(f, spec)
    expected = convolve_zero_padded(f.amps, kern, g.pitch)
    # the spherical kernel is mirrored bit for bit; the paraxial one adds its own
    # rounding from the direct formula, which each output cell carries weighted by sum |f|
    kernel_bound = 0.0
    if kind != "feynman":
        kernel_bound = fresnel_kernel_bound(g.nx, g.ny, g.pitch, spec.pad_factor,
                                            spec.distance).max()
    eps = np.finfo(np.float64).eps
    bound = g.pitch**2 * np.abs(f.amps).sum() * (FFT_ROUNDING * eps * np.abs(kern).max()
                                                 + kernel_bound)
    assert np.max(np.abs(out.amps - expected)) <= bound


class TestKernelMirror:
    # odd, even and mixed padded sizes; 7x14 pad 7 pads to 49 x 98, where
    # fftfreq's scale 1 / (n * (1 / n)) is not exactly 1.  The spherical
    # kernel is mirrored bit for bit; the paraxial kernel is an outer product
    # of two chirps and matches to its rounding bound.  The spherical quadrant
    # is built in row blocks: 48x40 pad 3 and 101x37 pad 2 end on a block
    # shorter than the others, and 2x2 pad 2 has fewer quadrant rows than blocks.
    @pytest.mark.parametrize("nx,ny,pad", [(5, 3, 3), (7, 4, 2), (16, 9, 5), (8, 8, 4),
                                           (7, 14, 7), (48, 40, 3), (101, 37, 2), (2, 2, 2)])
    @pytest.mark.parametrize("kind", holography.KERNELS)
    def test_matches_direct_formula(self, nx, ny, pad, kind):
        grid = GridSpec(nx, ny, 3e-6)
        spec = PropagationSpec(LAM, D64, kind, pad)
        expected = kernel_on_padded_grid(nx, ny, grid.pitch, pad, LAM, spec.distance, kind)
        kern = _kernel_array(grid, spec)
        if kind == "feynman":
            assert np.array_equal(kern, expected)
        else:
            bound = fresnel_kernel_bound(nx, ny, grid.pitch, pad, spec.distance)
            assert np.all(np.abs(kern - expected) <= bound)

    # the kernel's buffer and one row block of the spherical quadrant, never the
    # whole quadrant: measured 1.09 to 1.12 padded arrays here, against 1.28 to
    # 1.30 when the quadrant was evaluated whole
    @pytest.mark.parametrize("nx,ny,pad", [(64, 64, 4), (48, 40, 3), (101, 37, 2),
                                           (64, 64, 2)])
    @pytest.mark.parametrize("kind", holography.KERNELS)
    def test_peak_below_one_and_a_quarter_padded_arrays(self, nx, ny, pad, kind):
        grid = GridSpec(nx, ny, 3e-6)
        spec = PropagationSpec(LAM, 40.0 * grid.extent, kind, pad)
        padded_bytes = nx * pad * ny * pad * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            _kernel_array(grid, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * padded_bytes

    # the paraxial kernel is the outer product of its two chirps bit for bit (the
    # spherical one equals the direct formula, above); even and odd sizes
    @pytest.mark.parametrize("nx,ny,pad", [(5, 3, 3), (7, 4, 2), (8, 8, 4), (7, 14, 7)])
    def test_paraxial_kernel_is_the_outer_product_of_its_chirps(self, nx, ny, pad):
        grid = GridSpec(nx, ny, 3e-6)
        spec = replace(FRESNEL64, pad_factor=pad)
        k, d = spec.wavenumber, spec.distance
        dx = np.fft.fftfreq(nx * pad, 1.0 / (nx * pad)) * grid.pitch
        dy = np.fft.fftfreq(ny * pad, 1.0 / (ny * pad)) * grid.pitch
        ex = np.exp(1j * k * d) / (1j * LAM * d) * np.exp(1j * k * dx**2 / (2.0 * d))
        ey = np.exp(1j * k * dy**2 / (2.0 * d))
        assert np.array_equal(_kernel_array(grid, spec), ey[:, None] * ex[None, :])

    @pytest.mark.parametrize("spec,inverse,kind", KERNEL_KINDS,
                             ids=[kind for _, _, kind in KERNEL_KINDS])
    def test_propagation_matches_zero_buffer_convolution(self, spec, inverse, kind):
        grid = GridSpec(7, 5, 3e-6)
        rng = np.random.default_rng(9)
        f = TransverseWavefunction(grid, rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7)))
        assert_matches_zero_buffer_convolution(f, replace(spec, pad_factor=3), inverse, kind)


@settings(max_examples=60, deadline=None, database=None)
@given(nx=st.integers(2, 24), ny=st.integers(2, 24), pad=st.integers(2, 5),
       extents=st.floats(12.0, 40.0), field_seed=st.integers(0, 2**16),
       kind=st.sampled_from([kind for _, _, kind in KERNEL_KINDS]))
# 101 x 2 at pad 2: an axis of 202 = 2 x 101, which pocketfft transforms by
# Bluestein's algorithm
@example(nx=101, ny=2, pad=2, extents=12.0, field_seed=1, kind="feynman")
@example(nx=101, ny=2, pad=2, extents=12.0, field_seed=1, kind="fresnel-inverse")
def test_propagation_matches_zero_buffer_convolution_on_any_grid(nx, ny, pad, extents,
                                                                 field_seed, kind):
    # non-square grids: a transform shape that is not reversed along with its
    # axes only shows when nx != ny
    assume(nx != ny)
    grid = GridSpec(nx, ny, 3e-6)
    spec, inverse, _ = next(k for k in KERNEL_KINDS if k[2] == kind)
    spec = replace(spec, distance=extents * grid.extent, pad_factor=pad)
    assert_matches_zero_buffer_convolution(random_field(grid, field_seed), spec, inverse, kind)


@pytest.mark.parametrize("spec,inverse,kind", KERNEL_KINDS, ids=KINDS)
def test_pad_beyond_two_changes_only_cost(spec, inverse, kind):
    # pad 2 already makes the convolution linear over every in-to-out offset,
    # so pads 3 and 4 compute the same result up to rounding
    grid = GridSpec(24, 17, 3e-6)
    f = random_field(grid, 11)
    spec = replace(spec, distance=20.0 * grid.extent)
    propagate = propagate_inverse if inverse else propagate_forward
    pad2, *others = (propagate(f, replace(spec, pad_factor=pad)).amps for pad in (2, 3, 4))
    peak = np.abs(pad2).max()
    for out in others:
        assert np.max(np.abs(out - pad2)) <= 1e-13 * peak


class TestZeroBufferConvolutionAtSize:
    # sizes the small-grid oracle cases do not reach: 256x256 at pad 4 is the
    # benchmark's 1024^2 transform, 101 x 37 at pad 2 pads x to 202 = 2 x 101,
    # which pocketfft transforms by Bluestein's algorithm, and the others have
    # odd and even padded sides of more than 64 points
    @pytest.mark.parametrize("nx,ny,pad", [(256, 256, 4), (101, 37, 2), (48, 40, 3),
                                           (63, 33, 2)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_propagation_matches_zero_buffer_convolution(self, nx, ny, pad, kind):
        f, spec, propagate = propagation_case(nx, ny, pad, kind)
        assert_matches_zero_buffer_convolution(f, spec, propagate is propagate_inverse, kind)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.ny, grid.nx)
    return TransverseWavefunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.fixture
def fft2_outs(monkeypatch):
    """The ``out=`` argument of every ``np.fft.fft2`` call, None where there is none."""
    outs = []
    fft2 = np.fft.fft2

    def recording(a, *args, out=None, **kwargs):
        outs.append(out)
        return fft2(a, *args, out=out, **kwargs)

    monkeypatch.setattr(np.fft, "fft2", recording)
    return outs


@pytest.mark.parametrize("spec,inverse,kind", KERNEL_KINDS,
                         ids=[kind for _, _, kind in KERNEL_KINDS])
class TestPropagationBuffers:
    def test_peak_below_two_and_a_quarter_padded_arrays(self, spec, inverse, kind):
        # the spectrum and the kernel's slightly wider buffer, each transformed
        # in place: two padded arrays at a time
        f = random_field(GRID64, 3)
        propagate = propagate_inverse if inverse else propagate_forward
        padded_bytes = (64 * 4) ** 2 * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            propagate(f, replace(spec, pad_factor=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * padded_bytes

    def test_input_unchanged(self, spec, inverse, kind):
        f = random_field(GRID64, 4)
        propagate = propagate_inverse if inverse else propagate_forward
        before = f.amps.copy()
        propagate(f, replace(spec, pad_factor=4))
        assert np.array_equal(f.amps, before)

    def test_repeat_call_identical(self, spec, inverse, kind):
        f = random_field(GRID64, 5)
        propagate = propagate_inverse if inverse else propagate_forward
        first = propagate(f, replace(spec, pad_factor=4))
        assert np.array_equal(propagate(f, replace(spec, pad_factor=4)).amps, first.amps)

    def test_one_copy_of_the_output(self, spec, inverse, kind, fft2_outs):
        # the convolution returns a view of the inverse's buffer, and the field
        # built from it holds the propagation's one copy
        f = random_field(GRID64, 6)
        spec = replace(spec, pad_factor=3)
        assert np.shares_memory(holography._convolve(f.amps, f.grid, spec), fft2_outs[-1])
        propagate = propagate_inverse if inverse else propagate_forward
        assert not np.shares_memory(propagate(f, spec).amps, fft2_outs[-1])


def propagation_case(nx, ny, pad, kind):
    """A random field on an nx x ny grid and a spec at pad ``pad`` for ``kind``."""
    grid = GridSpec(nx, ny, 3e-6)
    spec, inverse, _ = next(k for k in KERNEL_KINDS if k[2] == kind)
    spec = replace(spec, distance=40.0 * grid.extent, pad_factor=pad)
    propagate = propagate_inverse if inverse else propagate_forward
    return random_field(grid, nx * 1000 + ny), spec, propagate



class TestPaddedRowLayout:
    # A padded row of 2^k complex values spans a power of two bytes, so a
    # column pass over contiguous rows keeps hitting the same cache sets; the
    # padded buffers space their rows an odd number of 64-byte lines apart.
    @pytest.mark.parametrize("nx,ny,pad", [(256, 256, 4), (48, 40, 3), (63, 63, 4),
                                           (101, 64, 2)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_inverse_runs_in_rows_an_odd_number_of_cache_lines_apart(self, nx, ny, pad,
                                                                      kind, fft2_outs):
        # the inverse is the propagation's last fft2 call, into the kernel's buffer
        f, spec, propagate = propagation_case(nx, ny, pad, kind)
        propagate(f, spec)
        assert len(fft2_outs) == 3
        row, item = fft2_outs[-1].strides
        itemsize = np.dtype(np.complex128).itemsize
        assert item == itemsize
        assert row % 64 == 0 and (row // 64) % 2 == 1
        # the padding is less than one cache line pair wider than the row
        assert nx * pad * itemsize <= row < nx * pad * itemsize + 128

    @pytest.mark.parametrize("nx,ny,pad", [(256, 256, 4), (64, 48, 2), (7, 5, 3),
                                           (16, 9, 5), (101, 64, 2), (128, 128, 2)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_the_contiguous_computation(self, nx, ny, pad, kind, monkeypatch):
        # 101 x 64 at pad 2 pads x to 202 = 2 x 101, which pocketfft
        # transforms by Bluestein's algorithm
        f, spec, propagate = propagation_case(nx, ny, pad, kind)
        padded = propagate(f, spec).amps
        monkeypatch.setattr(holography, "_padded_empty",
                            lambda shape: np.empty(shape, dtype=np.complex128))
        contiguous = propagate(f, spec).amps
        assert padded.tobytes() == contiguous.tobytes()


class TestAgainstBeamOptics:
    @pytest.mark.parametrize("spec", [FRESNEL64, FEYNMAN64], ids=["fresnel", "feynman"])
    def test_gaussian_matches_analytic_beam(self, spec):
        f = gaussian_on(GRID64)
        out = propagate_forward(f, spec)
        x, y = GRID64.mesh()
        ref = gaussian_beam_at_distance(x, y, 8.0 * GRID64.pitch, spec.distance, LAM)
        out_n = out.amps / np.linalg.norm(out.amps)
        assert np.linalg.norm(out_n - ref) < 1e-4

    def test_power_conserved(self):
        f = gaussian_on(GRID64)
        out = propagate_forward(f, FRESNEL64)
        assert out.power() == pytest.approx(1.0, abs=1e-3)


class TestOperatorProperties:
    @pytest.mark.parametrize("spec", [FRESNEL64, FEYNMAN64], ids=["fresnel", "feynman"])
    def test_linearity(self, spec):
        rng = np.random.default_rng(4)
        fa = TransverseWavefunction(GRID64, rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
        fb = gaussian_on(GRID64)
        alpha, beta = 0.3 - 0.2j, 1.1 + 0.4j
        combo = TransverseWavefunction(GRID64, alpha * fa.amps + beta * fb.amps)
        lhs = propagate_forward(combo, spec).amps
        rhs = alpha * propagate_forward(fa, spec).amps + beta * propagate_forward(fb, spec).amps
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_shift_covariance(self):
        f = gaussian_on(GRID64, waist_cells=5.0)
        shifted = TransverseWavefunction(GRID64, np.roll(f.amps, 1, axis=1))
        out = propagate_forward(f, FRESNEL64).amps
        out_shifted = propagate_forward(shifted, FRESNEL64).amps
        # the used input column that wrapped around is zero-padded anyway,
        # so the outputs agree exactly one cell apart
        assert np.max(np.abs(out_shifted[:, 1:] - out[:, :-1])) < 1e-12

    # square, non-square and Bluestein (101 x 2 = 202) padded sizes
    @pytest.mark.parametrize("nx,ny,pad", [(64, 64, 4), (48, 40, 3), (101, 37, 2), (7, 5, 3)])
    def test_inverse_is_the_conjugate_of_the_conjugate_fields_forward(self, nx, ny, pad):
        # the paraxial kernel's inverse is its conjugate: L (*) f = conj(K (*) conj f)
        grid = GridSpec(nx, ny, 3e-6)
        f = random_field(grid, nx * 1000 + ny)
        spec = PropagationSpec(LAM, 40.0 * grid.extent, "fresnel", pad)
        forward = propagate_forward(f.with_amps(np.conj(f.amps)), spec).amps
        assert propagate_inverse(f, spec).amps.tobytes() == np.conj(forward).tobytes()

    def test_zero_field_propagates_to_zero(self):
        f = TransverseWavefunction(GRID64, np.zeros((64, 64), complex))
        assert propagate_forward(f, FRESNEL64).power() == 0.0

    def test_plane_wave_inverse_phase(self):
        # a uniform field is an eigenfunction of the paraxial convolution:
        # inverse propagation multiplies it by exp(-i k D).  Edge diffraction
        # ripples individual cells, so compare the interior average, which
        # pins both the amplitude and the phase of the kernel prefactor.
        grid = GridSpec(64, 64, 3e-6)
        f = normalize(TransverseWavefunction(grid, np.ones((64, 64), complex)))
        out = propagate_inverse(f, FRESNEL64)
        expected = f.amps[0, 0] * np.exp(-1j * FRESNEL64.wavenumber * D64)
        ratio = np.mean(out.amps[24:40, 24:40]) / expected
        assert abs(ratio - 1.0) < 0.05
        assert abs(np.angle(ratio)) < 0.05

    @pytest.mark.parametrize("pad,tol", [(2, 1e-2), (4, 1e-3)])
    def test_fresnel_round_trip(self, pad, tol):
        f = gaussian_on(GRID64)
        d = propagate_forward(f, replace(FRESNEL64, pad_factor=pad))
        back = propagate_inverse(d, replace(FRESNEL64, pad_factor=pad))
        rel = np.linalg.norm(back.amps - f.amps) / np.linalg.norm(f.amps)
        assert rel < tol

    def test_paraxial_convergence_with_distance(self):
        # beam chosen to stay inside the window across the whole range, so
        # the kernel mismatch (not truncation) dominates the comparison
        grid = GridSpec(128, 128, 3.5e-6)
        f = gaussian_on(grid, waist_cells=36.0)
        extent = grid.extent
        rels = []
        for mult in (10, 30):
            a = propagate_forward(f, PropagationSpec(LAM, mult * extent, "feynman"))
            b = propagate_forward(f, PropagationSpec(LAM, mult * extent, "fresnel"))
            rels.append(np.linalg.norm(a.amps - b.amps) / np.linalg.norm(b.amps))
        assert rels[1] < rels[0]


class TestObjectReconstruction:
    def test_null_object(self):
        # threshold set a notch above the floor default: at 1e-3 of peak the
        # division amplifies round-trip residue on the far Gaussian tail
        f = gaussian_on(GRID64)
        spec = replace(FRESNEL64, pad_factor=4)
        obj = reconstruct_object(propagate_forward(f, spec), f, spec, threshold=3e-3)
        t_valid = obj.transmission.amps[obj.validity_mask]
        assert t_valid.size > 1000
        assert np.max(np.abs(t_valid - 1.0)) < 0.05

    def test_phase_step_object(self):
        f = gaussian_on(GRID64, waist_cells=10.0)
        step = np.ones((64, 64), complex)
        step[:, 32:] = np.exp(1j * np.pi / 2)
        transmitted = apply_object(f, step)
        spec = replace(FRESNEL64, pad_factor=4)
        obj = reconstruct_object(propagate_forward(transmitted, spec), f, spec, threshold=0.05)
        t = obj.transmission.amps
        m = obj.validity_mask
        # interior cells away from the step edge
        left = np.angle(t[28:36, 20:28][m[28:36, 20:28]])
        right = np.angle(t[28:36, 36:44][m[28:36, 36:44]])
        assert abs((np.median(right) - np.median(left)) - np.pi / 2) < 0.1

    def test_transmission_is_the_masked_quotient(self):
        # back-propagation (which the result carries) over illumination on valid
        # cells, bit for bit, and exactly zero elsewhere
        f = gaussian_on(GRID64)
        d = propagate_forward(f, FRESNEL64)
        obj = reconstruct_object(d, f, FRESNEL64, threshold=0.05)
        back = propagate_inverse(d, FRESNEL64).amps
        assert obj.backpropagated.grid == d.grid
        assert obj.backpropagated.amps.tobytes() == back.tobytes()
        m = obj.validity_mask
        assert 0 < m.sum() < m.size
        assert obj.transmission.amps[m].tobytes() == (back[m] / f.amps[m]).tobytes()
        assert not obj.transmission.amps[~m].any()

    def test_empty_mask_rejected(self):
        # a threshold in (0, 1] keeps the brightest cell, so only a zero
        # illumination leaves the mask empty
        f = gaussian_on(GRID64)
        d = propagate_forward(f, FRESNEL64)
        zero = f.with_amps(np.zeros((64, 64)))
        with pytest.raises(DegenerateFieldError):
            reconstruct_object(d, zero, FRESNEL64, threshold=1.0)

    def test_empty_mask_rejected_before_any_transform(self, monkeypatch):
        f = gaussian_on(GRID64)
        d = propagate_forward(f, FRESNEL64)
        zero = f.with_amps(np.zeros((64, 64)))
        calls = []
        fft2 = np.fft.fft2

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return fft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft2", counting)
        with pytest.raises(DegenerateFieldError):
            reconstruct_object(d, zero, FRESNEL64, threshold=0.05)
        assert calls == []
        # the counter sees the back-propagation's three transforms
        reconstruct_object(d, f, FRESNEL64, threshold=0.05)
        assert len(calls) == 3

    def test_zero_illumination_rejected(self):
        # every cell would pass a threshold of 0.02 * 0 and be divided by zero
        f = gaussian_on(GRID64)
        zero = TransverseWavefunction(GRID64, np.zeros((64, 64), complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFieldError, match="illumination too weak"):
                reconstruct_object(propagate_forward(f, FRESNEL64), zero, FRESNEL64,
                                   threshold=0.02)

    def test_grid_mismatch(self):
        f = gaussian_on(GRID64)
        other = gaussian_on(GridSpec(32, 32, 3e-6))
        with pytest.raises(ValueError):
            reconstruct_object(f, other, FRESNEL64)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, np.nan, np.inf, 2.0])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        # -1 would mark every cell valid and divide by illumination near 0;
        # nan and anything above 1, which selects no cell, are validation
        # errors, not an empty mask (DegenerateFieldError)
        f = gaussian_on(GRID64)
        with pytest.raises(ValueError, match="threshold"):
            reconstruct_object(f, f, FRESNEL64, threshold=threshold)

    def test_threshold_one_keeps_the_brightest_cells(self):
        f = gaussian_on(GRID64)
        obj = reconstruct_object(propagate_forward(f, FRESNEL64), f, FRESNEL64, threshold=1.0)
        mag = np.abs(f.amps)
        assert obj.validity_mask.any()
        assert np.array_equal(obj.validity_mask, mag == mag.max())

    def test_guard_margins(self):
        f = gaussian_on(GRID64)
        obj = reconstruct_object(propagate_forward(f, FRESNEL64), f, FRESNEL64)
        extent = GRID64.extent
        slope = FRESNEL64.wavenumber * extent / D64
        assert obj.nyquist_fraction == pytest.approx(slope * GRID64.pitch / np.pi, rel=1e-12)
        assert obj.distance_over_extent == pytest.approx(D64 / extent, rel=1e-12)
        assert obj.nyquist_fraction < 1.0
        assert obj.distance_over_extent >= PARAXIAL_MIN_EXTENTS


class TestPgm:
    def _pgm_bytes(self, arr, comment=False):
        h, w = arr.shape
        header = b"P5\n"
        if comment:
            header += b"# a comment line\n"
        header += f"{w} {h}\n255\n".encode()
        return header + arr.astype(np.uint8).tobytes()

    def test_read_round_trip(self, tmp_path):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "mask.pgm"
        path.write_bytes(self._pgm_bytes(arr, comment=True))
        assert np.array_equal(read_pgm(path), arr)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(FileFormatError):
            read_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        arr = np.zeros((4, 4), dtype=np.uint8)
        path = tmp_path / "mask.pgm"
        path.write_bytes(self._pgm_bytes(arr)[:-3])
        with pytest.raises(FileFormatError):
            read_pgm(path)

    def test_rejects_16bit(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FileFormatError):
            read_pgm(path)

    # a signed width or height, and a size run into the magic, are not a header
    @pytest.mark.parametrize("header", [b"P5 -2 -2 255\n", b"P52 2 255\n", b"P5 +2 2 255\n"])
    def test_rejects_header_without_unsigned_sizes(self, tmp_path, header):
        path = tmp_path / "mask.pgm"
        path.write_bytes(header + bytes(4))
        with pytest.raises(FileFormatError):
            read_pgm(path)

    def test_amplitude_mapping(self):
        arr = np.array([[0, 255], [51, 102]], dtype=np.uint8)
        t = OBJECT_MAPS["amplitude"](arr)
        assert t[0, 0] == 0.0
        assert t[0, 1] == 1.0
        assert t[1, 0] == pytest.approx(0.2)

    def test_phase_mapping(self):
        arr = np.array([[0, 64], [128, 255]], dtype=np.uint8)
        t = OBJECT_MAPS["phase"](arr)
        assert np.allclose(np.abs(t), 1.0)
        assert np.angle(t[0, 0]) == pytest.approx(0.0)
        assert np.angle(t[1, 0]) == pytest.approx(np.pi)
        # 8-bit levels map onto [0, 2 pi): level 255 stays short of a full turn
        assert np.angle(t[1, 1]) == pytest.approx(2 * np.pi * 255 / 256) or \
            np.angle(t[1, 1]) == pytest.approx(2 * np.pi * 255 / 256 - 2 * np.pi)

    @pytest.mark.parametrize("mapping", list(OBJECT_MAPS))
    def test_map_reads_uint8_levels_as_their_values(self, mapping):
        # holo forward maps read_pgm's uint8 levels as they are
        levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert np.array_equal(OBJECT_MAPS[mapping](levels),
                              OBJECT_MAPS[mapping](levels.astype(np.float64)))

    def test_apply_object_shape_mismatch(self, gaussian_8):
        with pytest.raises(ValueError):
            apply_object(gaussian_8, np.ones((3, 3)))
