import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import eval_genlaguerre

from dstsim import wavefield
from dstsim import (
    DegenerateFieldError,
    FileFormatError,
    GridSpec,
    ModeSpec,
    ObjectReconstruction,
    ReconstructionResult,
    ScanRecords,
    TransverseWavefunction,
    apply_vortex_plate,
    make_mode,
    normalize,
    read_wfgrid,
    write_wfgrid,
)
from dstsim.config import ExperimentConfig
from oracles import phase_winding


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(4, 6, 125e-6)
        assert g.ncells == 24
        assert g.extent == pytest.approx(6 * 125e-6)

    @pytest.mark.parametrize("nx,ny,pitch", [
        (1, 4, 1e-4), (4, 1, 1e-4), (4, 4, 0.0), (4, 4, -1e-6), (4, 4, float("nan")),
        (4.0, 4, 1e-4), (4, True, 1e-4),   # sizes that are not integers
        (2**32, 4, 1e-4), (4, 2**32, 1e-4),   # sizes beyond the u32 of a WFGRID header
    ])
    def test_invalid(self, nx, ny, pitch):
        with pytest.raises(ValueError):
            GridSpec(nx, ny, pitch)

    def test_coords_centered(self):
        g = GridSpec(4, 4, 2.0)
        assert np.allclose(g.x_coords(), [-3.0, -1.0, 1.0, 3.0])
        x, y = g.mesh()
        assert x.shape == (4, 4)
        assert y[0, 0] == -3.0


class TestWavefunction:
    def test_shape_mismatch(self, grid_8):
        with pytest.raises(ValueError):
            TransverseWavefunction(grid_8, np.zeros((3, 3), complex))

    def test_nonfinite_rejected(self, grid_8):
        amps = np.zeros((8, 8), complex)
        amps[0, 0] = np.nan
        with pytest.raises(ValueError):
            TransverseWavefunction(grid_8, amps)

    def test_immutable(self, gaussian_8):
        with pytest.raises(ValueError):
            gaussian_8.amps[0, 0] = 1.0

    def test_keeps_its_own_copy(self):
        base = np.ones(4, complex)
        f = TransverseWavefunction(GridSpec(2, 2, 1.0), base.reshape(2, 2))
        base[0] = 5   # the caller's buffer stays writable, and the field does not see it
        assert f.amps[0, 0] == 1

    def test_construction_peaks_at_its_copy_and_one_finiteness_pass(self):
        # one bool per amplitude for the finiteness check, not one per float64 part
        amps = np.ones((256, 256), complex)
        tracemalloc.start()
        try:
            TransverseWavefunction(GridSpec(256, 256, 1e-6), amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < amps.nbytes + 1.5 * amps.size

    @pytest.mark.parametrize("build", [
        lambda f: f,
        lambda f: ScanRecords(np.ones((6, 2, 2)), f.grid, 1.0),
        lambda f: ReconstructionResult(f, 1.0, "dst", np.zeros((2, 2), bool)),
        lambda f: ObjectReconstruction(f, f, np.ones((2, 2), bool), 0.5, 20.0),
    ], ids=["field", "records", "reconstruction", "object"])
    def test_array_holders_compare_by_identity(self, build):
        # generated value equality would compare the arrays and raise on their truth value
        a, b = (build(TransverseWavefunction(GridSpec(2, 2, 1.0), np.ones((2, 2), complex)))
                for _ in range(2))
        assert a == a and b == b
        assert a != b
        assert len({a, b}) == 2


class TestMakeMode:
    def test_gaussian_peak_center_real_positive(self):
        grid = GridSpec(32, 32, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=4 * grid.pitch), grid)
        assert np.all(f.amps.real > 0)
        assert np.allclose(f.amps.imag, 0.0)
        peak = np.abs(f.amps).max()
        # even grid: the four innermost cells tie for the peak
        inner = np.abs(f.amps[15:17, 15:17])
        assert np.allclose(inner, peak)

    def test_gaussian_normalized(self):
        grid = GridSpec(32, 32, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=4 * grid.pitch), grid)
        assert f.power() == pytest.approx(1.0, abs=1e-12)

    def test_lg_zero_on_axis(self):
        grid = GridSpec(33, 33, 1e-4)
        f = make_mode(ModeSpec("lg", waist=4e-4, oam=1), grid)
        assert f.amps[16, 16] == 0.0

    def test_lg_phase_winding(self):
        grid = GridSpec(33, 33, 1e-4)
        f = make_mode(ModeSpec("lg", waist=4e-4, oam=1), grid)
        w = phase_winding(np.angle(f.amps), radius=5)
        assert w == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("oam", [1, 2, -1])
    @pytest.mark.parametrize("n", [16, 24])
    def test_lg_winding_matches_oam(self, n, oam):
        grid = GridSpec(n, n, 1e-4)
        f = make_mode(ModeSpec("lg", waist=n * grid.pitch / 8, oam=oam), grid)
        for radius in range(3, n // 2 - 1):
            assert phase_winding(np.angle(f.amps), radius) == pytest.approx(oam, abs=1e-6)

    # 2000: (sqrt(2) r / w0)^|l| overflows; +-200: every amplitude is finite but
    # their power overflows, which normalized them to zeros
    @pytest.mark.parametrize("oam", [2000, 200, -200])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_lg_indices_are_refused_by_name(self, oam):
        grid = GridSpec(8, 8, 125e-6)
        spec = ModeSpec("lg", waist=grid.nx * grid.pitch / 8, oam=oam)
        with pytest.raises(ValueError,
                           match=f"^l = {oam}: LG mode power overflows a double$"):
            make_mode(spec, grid)

    def test_a_mode_that_underflows_everywhere_is_refused_by_name(self, grid_8):
        # a waist far below the pitch leaves exp(-r^2 / w0^2) zero at every cell centre
        with pytest.raises(DegenerateFieldError, match="^Gaussian mode has zero power$"):
            make_mode(ModeSpec("gaussian", waist=1e-3 * grid_8.pitch), grid_8)

    # float keys at the ends of the doubles, on an 8x8 grid with the auto waist nx * pitch / 8
    # unless given: a waist whose square overflows gives the flat field exp(-r^2 / w0^2)
    # tends to, r^2 / w0^2 = inf / inf or 0 / 0 is NaN, and a field that is zero in every
    # cell (r^2 / 0 or inf / w0^2) has zero power; none warns
    @pytest.mark.parametrize("pitch, waist, center, error, message", [
        (125e-6, 1e294, (0.0, 0.0), None, None),
        (1e294, None, (0.0, 0.0), ValueError, "power is not a number"),
        (1e194, None, (0.0, 0.0), ValueError, "power is not a number"),
        (1e-306, None, (0.0, 0.0), ValueError, "power is not a number"),
        (125e-6, 1e-206, (0.0, 0.0), DegenerateFieldError, "has zero power"),
        (125e-6, None, (1e194, 0.0), DegenerateFieldError, "has zero power"),
    ], ids=["waist 1e294", "pitch 1e294", "pitch 1e194", "pitch 1e-306", "waist 1e-206",
            "cx 1e194"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_extremes_give_the_limit_or_a_refusal(self, pitch, waist, center, error,
                                                        message):
        grid = GridSpec(8, 8, pitch)
        spec = ModeSpec("gaussian", waist=pitch if waist is None else waist, center=center)
        if error is None:
            assert np.all(make_mode(spec, grid).amps == 1 / 8)
        else:
            with pytest.raises(error, match=f"^Gaussian mode {message}$"):
                make_mode(spec, grid)

    @pytest.mark.parametrize("waist", [0.0, -1e-4, float("inf")])
    def test_bad_waist(self, waist):
        with pytest.raises(ValueError):
            ModeSpec("gaussian", waist=waist)

    @pytest.mark.parametrize("center", [(float("inf"), 0.0), (0.0, float("nan"))])
    def test_non_finite_center(self, center):
        # make_mode would fail later with a message about the field, not the center
        with pytest.raises(ValueError, match="center must be finite"):
            ModeSpec("gaussian", waist=1e-4, center=center)

    @pytest.mark.parametrize("oam", [0.5, 1.0, True])
    def test_non_integer_index(self, oam):
        # a half charge would build a phase with a branch cut
        with pytest.raises(ValueError, match="must be an integer"):
            ModeSpec("lg", waist=1e-4, oam=oam)

    @pytest.mark.parametrize("kind", ["Gaussian", "LG", "laguerre", "", None])
    def test_unknown_kind_refused_at_construction(self, kind):
        with pytest.raises(ValueError, match=r"^kind must be one of gaussian, lg, got "):
            ModeSpec(kind, waist=1e-4)

    @pytest.mark.parametrize("spec", [
        ModeSpec("gaussian", waist=3e-4, center=(1.1e-4, -0.4e-4)),
        ModeSpec("lg", waist=4e-4, oam=-2, center=(0.3e-4, 0.2e-4)),
    ], ids=["gaussian", "lg"])
    def test_kind_selects_its_formula_bit_for_bit(self, spec):
        # the formulas of make_mode's docstring, evaluated term by term, then normalized
        grid = GridSpec(24, 20, 1e-4)
        x, y = grid.mesh()
        xr, yr = x - spec.center[0], y - spec.center[1]
        r2 = xr**2 + yr**2
        w = spec.waist
        if spec.kind == "gaussian":
            amps = np.exp(-r2 / w**2).astype(np.complex128)
        else:
            amps = ((np.sqrt(2.0) * np.sqrt(r2) / w) ** abs(spec.oam)
                    * np.exp(-r2 / w**2) * np.exp(1j * spec.oam * np.arctan2(yr, xr)))
        expected = amps / np.sqrt(np.sum(np.abs(amps) ** 2))
        assert np.array_equal(make_mode(spec, grid).amps, expected)

    @pytest.mark.parametrize("oam", [1, -1, 2, 0, -3, 5])
    def test_lg_field_equals_scipy_formula(self, oam):
        # LG_p^l at p = 0 with scipy's Laguerre factor L_0^|l|(2 r^2 / w0^2), built as any
        # other field is, through normalize(TransverseWavefunction(...))
        grid = GridSpec(24, 20, 1e-4)
        spec = ModeSpec("lg", waist=5e-4, oam=oam, center=(1.3e-4, -0.7e-4))
        x, y = grid.mesh()
        xr, yr = x - spec.center[0], y - spec.center[1]
        r2 = xr**2 + yr**2
        w = spec.waist
        amps = ((np.sqrt(2.0) * np.sqrt(r2) / w) ** abs(oam)
                * eval_genlaguerre(0, abs(oam), 2.0 * r2 / w**2)
                * np.exp(-r2 / w**2) * np.exp(1j * oam * np.arctan2(yr, xr)))
        field = normalize(TransverseWavefunction(grid, amps))
        assert np.array_equal(make_mode(spec, grid).amps, field.amps)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            GridSpec(1, 8, 1e-4)

    def test_make_then_normalize_idempotent(self, gaussian_8):
        again = normalize(gaussian_8)
        assert np.max(np.abs(again.amps - gaussian_8.amps)) < 1e-12

    def test_default_waist(self):
        # waist auto is an eighth of the grid width: nx, not ny, on a non-square grid
        spec = ExperimentConfig(nx=64, ny=48, pitch_um=125.0).mode_spec()
        assert spec.waist == pytest.approx(1e-3)

    def test_offcenter_mode(self):
        grid = GridSpec(32, 32, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=3e-4, center=(5e-4, -3e-4)), grid)
        iy, ix = np.unravel_index(np.argmax(np.abs(f.amps)), f.amps.shape)
        assert grid.x_coords()[ix] == pytest.approx(5e-4, abs=grid.pitch)
        assert grid.y_coords()[iy] == pytest.approx(-3e-4, abs=grid.pitch)


def test_package_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(wavefield.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, dstsim, dstsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestVortexPlate:
    def test_l_zero_identity(self, gaussian_8):
        assert np.array_equal(apply_vortex_plate(gaussian_8, 0).amps, gaussian_8.amps)

    def test_winding_forced(self):
        grid = GridSpec(32, 32, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=4 * grid.pitch), grid)
        v = apply_vortex_plate(f, 1)
        assert phase_winding(np.angle(v.amps), radius=4) == pytest.approx(1.0, abs=1e-9)

    def test_inverse_plate_cancels(self, gaussian_8):
        back = apply_vortex_plate(apply_vortex_plate(gaussian_8, 1), -1)
        assert np.max(np.abs(back.amps - gaussian_8.amps)) < 1e-12

    @pytest.mark.parametrize("l", [0.5, 1.0, True])
    def test_non_integer_charge(self, gaussian_8, l):
        with pytest.raises(ValueError, match="l must be an integer"):
            apply_vortex_plate(gaussian_8, l)

    @pytest.mark.parametrize("l", [2**53 + 1, -10**400], ids=["2**53+1", "-10**400"])
    def test_charge_beyond_a_double_refused(self, gaussian_8, l):
        # l * phi would round the charge, or overflow converting it
        with pytest.raises(ValueError, match=r"^l must be at most 2\*\*53 in magnitude, got "):
            apply_vortex_plate(gaussian_8, l)
        with pytest.raises(ValueError, match=r"^oam must be at most 2\*\*53 in magnitude, got "):
            ModeSpec("lg", waist=1e-4, oam=l)

    def test_power_preserved(self, gaussian_8):
        v = apply_vortex_plate(gaussian_8, 3)
        assert abs(v.power() - gaussian_8.power()) < 1e-12


class TestNormalize:
    def test_uniform(self):
        grid = GridSpec(4, 4, 1.0)
        f = normalize(TransverseWavefunction(grid, np.ones((4, 4), complex)))
        assert np.allclose(f.amps, 0.25)

    def test_scale_invariance(self, gaussian_8):
        scaled = normalize(gaussian_8.with_amps(7.0 * gaussian_8.amps))
        assert np.max(np.abs(scaled.amps - gaussian_8.amps)) < 1e-12

    def test_zero_field(self, grid_8):
        with pytest.raises(DegenerateFieldError, match="^field has zero power$"):
            normalize(TransverseWavefunction(grid_8, np.zeros((8, 8), complex)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_overflow_refused(self):
        # every amplitude is finite but their power is not; dividing by its
        # square root would return zeros
        f = TransverseWavefunction(GridSpec(4, 4, 1e-6), np.full((4, 4), 1e160 + 0j))
        assert f.power() == math.inf   # and no overflow warning
        with pytest.raises(ValueError, match="^field power overflows a double$"):
            normalize(f)

    @pytest.mark.parametrize("amp", [1e-160, 1e-170, 5e-324])
    def test_power_that_underflows_is_kept(self, amp):
        # the squares of 1e-160 keep a few bits, those of 1e-170 and 5e-324 none
        f = normalize(TransverseWavefunction(GridSpec(4, 4, 1e-6), np.full((4, 4), amp + 0j)))
        assert abs(f.power() - 1.0) <= 1e-15

    def test_scales_by_the_root_of_the_power(self, gaussian_8):
        f = gaussian_8.with_amps(7.0 * gaussian_8.amps)
        assert normalize(f).amps.tobytes() == (f.amps / np.sqrt(f.power())).tobytes()


class TestPhaseWinding:
    def test_flat_phase(self):
        assert phase_winding(np.zeros((16, 16)), 4) == 0.0

    def test_loop_outside_grid(self):
        with pytest.raises(ValueError):
            phase_winding(np.zeros((8, 8)), 6)

    @pytest.mark.parametrize("radius", [0, -1])
    def test_loop_radius_below_one(self, radius):
        with pytest.raises(ValueError, match="^loop radius must be >= 1$"):
            phase_winding(np.zeros((8, 8)), radius)

    def test_equals_the_cell_by_cell_walk(self):
        # reference: the loop visited cell by cell, bottom edge left to right,
        # right edge up, top edge right to left, left edge down
        rng = np.random.default_rng(5)
        for _ in range(300):
            ny, nx = (int(n) for n in rng.integers(3, 16, size=2))
            radius = int(rng.integers(1, (min(nx, ny) - 1) // 2 + 1))
            cy, cx = rng.uniform(radius, ny - 1 - radius), rng.uniform(radius, nx - 1 - radius)
            phase = rng.uniform(-np.pi, np.pi, (ny, nx))
            r0, r1 = math.ceil(cy - radius), math.floor(cy + radius)
            c0, c1 = math.ceil(cx - radius), math.floor(cx + radius)
            walk = ([(r0, c) for c in range(c0, c1 + 1)] + [(r, c1) for r in range(r0 + 1, r1 + 1)]
                    + [(r1, c) for c in range(c1 - 1, c0 - 1, -1)]
                    + [(r, c0) for r in range(r1 - 1, r0, -1)])
            vals = np.array([phase[cell] for cell in walk])
            steps = (np.diff(np.append(vals, vals[0])) + np.pi) % (2 * np.pi) - np.pi
            assert phase_winding(phase, radius, (cy, cx)) == float(np.sum(steps) / (2 * np.pi))


class TestWfgrid:
    def test_round_trip(self, tmp_path, gaussian_8):
        path = tmp_path / "f.wfgrid"
        write_wfgrid(path, gaussian_8)
        back = read_wfgrid(path)
        assert back.grid == gaussian_8.grid
        assert np.array_equal(back.amps, gaussian_8.amps)

    def test_deterministic_bytes(self, tmp_path, gaussian_8):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_wfgrid(p1, gaussian_8)
        write_wfgrid(p2, gaussian_8)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, gaussian_8):
        path = tmp_path / "f.wfgrid"
        write_wfgrid(path, gaussian_8)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError):
            read_wfgrid(path)

    def test_truncated(self, tmp_path, gaussian_8):
        path = tmp_path / "f.wfgrid"
        write_wfgrid(path, gaussian_8)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError):
            read_wfgrid(path)

    @pytest.mark.parametrize("edit, reason", [
        (lambda raw: raw[:19], "truncated WFGRID header"),
        (lambda raw: struct.pack("<4sIId", b"WFG1", 0, 0, 1e-4),
         "grid must be at least 2x2, got 0x0"),
        (lambda raw: raw[:12] + struct.pack("<d", -1e-4) + raw[20:],
         "pitch must be positive and finite, got -0.0001"),
        (lambda raw: raw[:20 + 16 * 9] + struct.pack("<d", math.nan) + raw[28 + 16 * 9:],
         "field amplitudes must be finite"),
        (lambda raw: raw[:-8] + struct.pack("<d", -math.inf), "field amplitudes must be finite"),
    ], ids=["short-header", "0x0-grid", "negative-pitch", "nan-payload", "inf-payload"])
    def test_refusal_names_the_file(self, tmp_path, gaussian_8, edit, reason):
        # every refusal is a FileFormatError that starts with the path, as the
        # records reader's are
        path = tmp_path / "f.wfgrid"
        write_wfgrid(path, gaussian_8)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FileFormatError) as exc:
            read_wfgrid(path)
        assert str(exc.value) == f"{path}: {reason}"

    def test_header_layout(self, tmp_path):
        # 2x2 grid: magic + nx + ny + pitch followed by 4 complex pairs
        grid = GridSpec(2, 2, 0.5)
        amps = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
        path = tmp_path / "f.wfgrid"
        write_wfgrid(path, TransverseWavefunction(grid, amps))
        raw = path.read_bytes()
        assert raw[:4] == b"WFG1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 2
        assert np.frombuffer(raw, "<f8", offset=12)[0] == 0.5  # pitch
        assert len(raw) == 20 + 4 * 16
        assert np.frombuffer(raw, "<f8", offset=20)[0:4].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_write_copies_no_payload(self, tmp_path):
        # the payload goes to the file from the field's own buffer, not through a
        # bytes copy of it (1 MiB at 256x256)
        f = TransverseWavefunction(GridSpec(256, 256, 1e-6), np.ones((256, 256), complex))
        path = tmp_path / "f.wfgrid"
        tracemalloc.start()
        try:
            write_wfgrid(path, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2**20
        assert path.read_bytes()[20:] == f.amps.tobytes()


# every finite float, with both signed zeros drawn often
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None, database=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 7), pitch=st.floats(1e-9, 1.0), data=st.data())
def test_wfgrid_round_trip_is_exact(tmp_path_factory, nx, ny, pitch, data):
    assume(nx != ny)
    parts = data.draw(arrays(np.float64, (ny, nx, 2), elements=_PARTS))
    f = TransverseWavefunction(GridSpec(nx, ny, pitch), parts.view(np.complex128)[..., 0])
    path = tmp_path_factory.mktemp("wfgrid") / "f.wfgrid"
    write_wfgrid(path, f)
    back = read_wfgrid(path)
    assert back.grid == f.grid
    assert back.amps.tobytes() == f.amps.tobytes()
