import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dstsim import (
    DegenerateFieldError,
    FileFormatError,
    GridSpec,
    ModeSpec,
    ScanRecords,
    TransverseWavefunction,
    make_mode,
    normalize,
    read_records_csv,
    reconstruct_dst,
    reconstruct_dwt,
    scan,
    score,
    write_records_csv,
)
from conftest import random_field, random_smooth_field
from oracles import fidelity, gauge_align

STRONG = math.pi / 2


def nothing_to_invert(theta: float) -> str:
    """The pattern of the refusal of records that leave nothing to invert at ``theta``."""
    return (rf"^the raw quadrature map of records at theta {theta!r} is zero or overflows a "
            r"double: no photon was counted, or theta is too small for the signal to survive "
            r"rounding$")


def uniform_field(n=2, pitch=1e-4):
    grid = GridSpec(n, n, pitch)
    return normalize(TransverseWavefunction(grid, np.ones((n, n), complex)))


def lg_mode(grid, oam=1):
    # a hair off-center: a perfectly centered LG mode has an exactly zero
    # amplitude sum and cannot pass zero-momentum post-selection at all
    return make_mode(
        ModeSpec("lg", waist=grid.nx * grid.pitch / 8, oam=oam,
                 center=(0.37 * grid.pitch, 0.23 * grid.pitch)),
        grid,
    )


class TestDstInversion:
    def test_uniform_2x2_by_hand(self):
        # probs frozen from the pointer (3/4, 1/4); with ptilde = 2,
        # Re = (4 / (2*2)) * (1/2 + 2/16 - 1/8) = 1/2 = 1/sqrt(N)
        grid = GridSpec(2, 2, 1e-4)
        # plus, minus, 0, 1, L, R at every cell
        probs = np.array([0.5, 0.125, 0.5625, 0.0625, 0.3125, 0.3125])
        records = ScanRecords(np.broadcast_to(probs[:, None, None], (6, 2, 2)), grid, STRONG)
        res = reconstruct_dst(records)
        assert res.psi_tilde == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(res.field.amps.real, 0.5, atol=1e-12)
        assert np.allclose(res.field.amps.imag, 0.0, atol=1e-12)

    def test_self_consistent_psi_tilde_matches_oracle(self):
        f = uniform_field(2)
        records = scan(f, STRONG)
        res = reconstruct_dst(records)
        assert res.psi_tilde == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(res.field.amps.real, 0.5, atol=1e-12)

    @pytest.mark.parametrize("maker", [
        lambda g: make_mode(ModeSpec("gaussian", waist=g.nx * g.pitch / 8), g),
        lambda g: lg_mode(g, 1),
        lambda g: lg_mode(g, 2),
        lambda g: random_smooth_field(g, seed=8),
    ])
    def test_noiseless_round_trip(self, maker):
        grid = GridSpec(24, 24, 125e-6)
        f = maker(grid)
        gauged = f.with_amps(gauge_align(f.amps))
        for theta in (0.05, 0.3, 1.0, math.pi / 2):
            res = reconstruct_dst(scan(f, theta))
            rec = res.field.amps
            assert np.max(np.abs(rec - gauged.amps)) < 1e-9, theta
            assert fidelity(gauged, res.field) >= 1 - 1e-10, theta

    def test_zero_cell_reconstructs_to_zero(self):
        grid = GridSpec(8, 8, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=2e-4), grid)
        amps = np.array(f.amps)
        amps[5, 6] = 0.0
        f = normalize(TransverseWavefunction(grid, amps))
        res = reconstruct_dst(scan(f, STRONG))
        assert abs(res.field.amps[5, 6]) == pytest.approx(0.0, abs=1e-15)

    def test_missing_cell_rejected(self, gaussian_8, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, STRONG), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FileFormatError):
            reconstruct_dst(read_records_csv(path))

    def test_duplicate_cell_rejected(self, gaussian_8, tmp_path):
        # rows carry no cell index: a repeated row is one row too many for the grid
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, STRONG), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines[-1:]) + "\n")
        with pytest.raises(FileFormatError):
            reconstruct_dst(read_records_csv(path))

    def test_grid_mismatch_rejected(self, gaussian_8):
        # the records carry their grid, and refuse one their maps do not fit
        records = scan(gaussian_8, STRONG)
        with pytest.raises(ValueError, match="grid"):
            dataclasses.replace(records, grid=GridSpec(8, 4, gaussian_8.grid.pitch))

    def test_bad_theta_rejected(self, gaussian_8):
        # the records carry their theta, and refuse one out of range
        records = scan(gaussian_8, STRONG)
        for theta in (0.0, -0.1, math.pi, math.nan):
            with pytest.raises(ValueError, match="theta"):
                dataclasses.replace(records, theta=theta)

    def test_all_zero_records_degenerate(self, grid_8):
        records = ScanRecords(np.zeros((6, 8, 8)), grid_8, STRONG)
        with pytest.raises(DegenerateFieldError):
            reconstruct_dst(records)

    @pytest.mark.parametrize("inversion", [reconstruct_dst, reconstruct_dwt])
    @pytest.mark.parametrize("theta, photons, counted", [
        (1e-300, 0, True), (STRONG, 1000, False), (1e-300, 1000, True), (5e-324, 1000, True),
    ], ids=["noiseless-1e-300", "no-photon", "sampled-1e-300", "sampled-5e-324"])
    def test_nothing_to_invert_is_refused_naming_theta(self, inversion, theta, photons, counted):
        # at theta 1e-300 the pointer's a1 lies below the rounding of a0: noiseless,
        # P+ = P-, PL = PR and P1 underflows; sampled, the counts of P+ and P- differ
        # by noise alone, which the division by 2 sin theta (dst) or theta (dwt) lifts
        # past a double's power, and at the least subnormal theta the quotient itself
        # is inf or nan, with no warning; a scan that counted no photon is zero. Each
        # way one message names the records' theta and both causes
        grid = GridSpec(24, 16, 125e-6)
        records = scan(make_mode(ModeSpec("gaussian", waist=3 * grid.pitch), grid), theta,
                       photons, seed=7)
        if not counted:
            records = ScanRecords(np.zeros_like(records.readout), grid, theta, photons)
        with pytest.raises(DegenerateFieldError, match=nothing_to_invert(theta)):
            inversion(records)

    def test_counts_path_converges(self):
        grid = GridSpec(16, 16, 125e-6)
        f = make_mode(ModeSpec("gaussian", waist=2 * grid.pitch), grid)
        gauged = f.with_amps(gauge_align(f.amps))
        records = scan(f, STRONG, photons_per_setting=10**7, seed=12)
        res = reconstruct_dst(records)
        assert res.zero_count_mask is not None
        assert fidelity(gauged, res.field) > 0.99

    def test_noiseless_has_no_zero_count_mask(self, gaussian_8):
        res = reconstruct_dst(scan(gaussian_8, STRONG))
        assert res.zero_count_mask is None


#: The O(theta) quadrature signal sits on O(1) projector probabilities, so
#: rounding leaves an error of about eps * sqrt(N) / theta, which reaches the
#: 1e-9 bound of the identity near theta = 3e-6 on these grids.
MIN_EXACT_THETA = 1e-4


@pytest.mark.parametrize("theta", [1e-6, 1e-8])
def test_dst_error_below_min_exact_theta_is_the_rounding_floor(theta):
    # below MIN_EXACT_THETA the identity leaves rounding of eps * psi_tilde / (2 sin theta):
    # the measured ratio on the default 64x64 Gaussian is 0.92 at 1e-6 and 0.96 at 1e-8
    grid = GridSpec(64, 64, 125e-6)
    f = make_mode(ModeSpec("gaussian", waist=grid.nx * grid.pitch / 8), grid)
    ptilde = abs(np.sum(f.amps))
    err = np.max(np.abs(reconstruct_dst(scan(f, theta)).field.amps - gauge_align(f.amps)))
    floor = np.finfo(np.float64).eps * ptilde / (2 * math.sin(theta))
    assert err <= 3 * floor


@settings(max_examples=60, deadline=None, database=None)
@given(nx=st.integers(3, 24), ny=st.integers(3, 24), seed=st.integers(0, 2**16),
       theta=st.floats(MIN_EXACT_THETA, math.pi / 2))
def test_dst_inverts_noiseless_records_at_any_theta(nx, ny, seed, theta):
    assume(nx != ny)
    f = random_smooth_field(GridSpec(nx, ny, 125e-6), seed, corr_cells=min(nx, ny) / 4)
    gauged, ptilde = gauge_align(f.amps), abs(np.sum(f.amps))
    res = reconstruct_dst(scan(f, theta))
    assert np.max(np.abs(res.field.amps - gauged)) < 1e-9
    assert res.psi_tilde == pytest.approx(ptilde, rel=1e-9)


class TestDwtInversion:
    def test_bias_ordering(self):
        grid = GridSpec(24, 24, 125e-6)
        f = make_mode(ModeSpec("gaussian", waist=3 * grid.pitch), grid)
        gauged = f.with_amps(gauge_align(f.amps))

        fids = {}
        for theta in (0.05, 0.5, math.pi / 2):
            records = scan(f, theta)
            res = reconstruct_dwt(records)
            fids[theta] = fidelity(gauged, res.field)
        assert fids[0.05] > fids[0.5] > fids[math.pi / 2]
        assert fids[0.05] >= 0.99

        dst = reconstruct_dst(scan(f, STRONG))
        assert fidelity(gauged, dst.field) > fids[0.05]

    def test_real_field_keeps_im_zero(self):
        grid = GridSpec(12, 12, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=3 * grid.pitch), grid)
        records = scan(f, 0.05)
        res = reconstruct_dwt(records)
        assert np.max(np.abs(res.field.amps.imag)) < 1e-12

    def test_theta_validation(self, gaussian_8):
        records = scan(gaussian_8, STRONG)
        with pytest.raises(ValueError):
            dataclasses.replace(records, theta=0.0)

    def test_estimator_label(self, gaussian_8):
        records = scan(gaussian_8, 0.3)
        assert records.theta == 0.3
        assert reconstruct_dwt(records).estimator == "dwt"
        assert reconstruct_dst(records).estimator == "dst"


def test_estimators_name_their_inversions():
    # the command line calls reconstruct_<value> for each estimator value of the configuration
    from dstsim import reconstruct
    assert [getattr(reconstruct, "reconstruct_" + name) for name in reconstruct.ESTIMATORS] \
        == [reconstruct_dst, reconstruct_dwt]


class TestScore:
    def test_identity(self):
        grid = GridSpec(16, 16, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=3 * grid.pitch), grid)
        res = reconstruct_dst(scan(f, STRONG))
        report = score(res.field, f)
        assert report.r_square == pytest.approx(1.0, abs=1e-12)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.rmse_re < 1e-12
        assert report.rmse_im < 1e-12

    def test_shuffled_density_destroys_fit(self):
        # shuffling decorrelates the maps; the determination coefficient
        # collapses far below 1 (typically negative for a peaked density)
        grid = GridSpec(16, 16, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=2 * grid.pitch), grid)
        res = reconstruct_dst(scan(f, STRONG))
        rng = np.random.default_rng(0)
        r2s = []
        for _ in range(5):
            perm = rng.permutation(grid.ncells)
            amps = res.field.amps.ravel()[perm].reshape(grid.ny, grid.nx)
            shuffled = reconstruct_dst(scan(normalize(TransverseWavefunction(grid, amps)), STRONG))
            r2s.append(score(shuffled.field, f).r_square)
        assert max(r2s) < 0.2

    def test_flat_density_r_square_undefined(self, gaussian_8):
        flat = uniform_field(8, gaussian_8.grid.pitch)
        assert score(flat, flat).r_square == 1.0
        report = score(flat, gaussian_8)
        assert report.r_square is None
        assert 0.0 < report.fidelity < 1.0

    def test_grid_mismatch(self, gaussian_8):
        res = reconstruct_dst(scan(gaussian_8, STRONG))
        other = make_mode(ModeSpec("gaussian", waist=4e-4), GridSpec(9, 9, 1e-4))
        with pytest.raises(ValueError, match=r"^reconstruction grid 8x8 at pitch 0\.000125 m "
                                             r"differs from ideal grid 9x9 at pitch 0\.0001 m$"):
            score(res.field, other)

    def test_fidelity_phase_invariant(self, gaussian_8):
        rotated = gaussian_8.with_amps(gaussian_8.amps * np.exp(0.7j))
        assert score(rotated, gaussian_8).fidelity == pytest.approx(1.0, abs=1e-12)

    def test_zero_power_ideal_is_degenerate(self, gaussian_8):
        zero = gaussian_8.with_amps(np.zeros((8, 8)))
        with pytest.raises(DegenerateFieldError, match="^ideal field has zero power$"):
            score(gaussian_8, zero)

    def test_zero_power_reconstruction_is_degenerate(self, gaussian_8):
        zero = gaussian_8.with_amps(np.zeros((8, 8)))
        with pytest.raises(DegenerateFieldError, match="^reconstructed field has zero power$"):
            score(zero, gaussian_8)

    @pytest.mark.parametrize("which", ["rec", "ideal"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_beyond_a_double_is_refused(self, gaussian_8, which):
        # every amplitude is finite but the power is not: unit power would be zeros,
        # and a fidelity of 0 would pass for a score
        big = gaussian_8.with_amps(gaussian_8.amps * 1e160)
        assert big.power() == math.inf
        fields = (big, gaussian_8) if which == "rec" else (gaussian_8, big)
        name = "reconstructed" if which == "rec" else "ideal"
        with pytest.raises(ValueError, match=f"^{name} field power overflows a double$"):
            score(*fields)

    @pytest.mark.parametrize("which", ["rec", "ideal"])
    def test_power_that_underflows_scores_as_its_scaled_up_copy(self, gaussian_8, which):
        # a power of two scales exactly, and the power of the tiny copy is 0 in a double
        rec = reconstruct_dst(scan(gaussian_8, STRONG, photons_per_setting=1000, seed=3)).field
        fields = [rec, gaussian_8]
        i = 0 if which == "rec" else 1
        tiny = fields[i].with_amps(fields[i].amps * 2.0**-600)
        assert tiny.power() == 0.0
        expected = repr(score(*fields))
        fields[i] = tiny
        assert repr(score(*fields)) == expected

    @pytest.mark.parametrize("c", [1.0, 1e-3, 36.8, 1e4])
    @pytest.mark.parametrize("phi", [0.0, 0.7, -2.0, math.pi])
    def test_scale_and_global_phase_do_not_count(self, c, phi):
        # both fields are normalized and gauged alike, so a field scores
        # perfectly against any multiple of itself
        grid = GridSpec(16, 16, 1e-4)
        rng = np.random.default_rng(4)
        x = TransverseWavefunction(grid, rng.normal(size=(16, 16), scale=2.0)
                                   + 1j * rng.normal(size=(16, 16), scale=2.0))
        report = score(x.with_amps(c * np.exp(1j * phi) * x.amps), x)
        assert report.r_square == pytest.approx(1.0, abs=1e-12)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.rmse_re < 1e-12 and report.rmse_im < 1e-12

    def test_offset_lg_scores_exact(self):
        # the 64x64 l=1 state a sub-cell off the centre sums to 7e-7: the phase of the
        # reconstruction's own sum is no gauge, the overlap with the ideal is
        grid = GridSpec(64, 64, 125e-6)
        f = make_mode(ModeSpec("lg", waist=grid.nx * grid.pitch / 8, oam=1,
                               center=(40e-6, 30e-6)), grid)
        report = score(reconstruct_dst(scan(f, STRONG)).field, f)
        assert report.rmse_re < 1e-9 and report.rmse_im < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_fidelity_is_the_public_fidelity(self, seed):
        grid = GridSpec(7, 5, 1e-4)
        rec, ideal = random_field(grid, seed), random_field(grid, seed + 100)
        assert score(rec, ideal).fidelity == pytest.approx(fidelity(rec, ideal), abs=1e-15)

    def test_orthogonal_fields_score_zero_and_keep_the_phase(self):
        # no overlap gives no phase to turn by: the reconstruction stays imaginary,
        # though a real, positive amplitude sum of its own would turn it real
        grid = GridSpec(2, 2, 1e-4)
        ideal = TransverseWavefunction(grid, np.array([[1, 0], [0, 0]], complex))
        report = score(ideal.with_amps(np.array([[0, 1j], [0, 0]])), ideal)
        assert report.fidelity == 0.0
        assert report.rmse_re == 0.5 and report.rmse_im == 0.5


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**16), noise=st.floats(0.01, 10.0), phi=st.floats(-math.pi, math.pi))
def test_no_global_phase_brings_the_reconstruction_closer(seed, noise, phi):
    # score turns the reconstruction by the phase of its overlap with the ideal,
    # which minimizes rmse_re^2 + rmse_im^2 over every global phase
    grid = GridSpec(6, 5, 1e-4)
    ideal = random_field(grid, seed)    # unit power, as is the noise
    rec = ideal.with_amps(ideal.amps + noise * random_field(grid, seed + 1).amps)
    report = score(rec, ideal)
    turned = np.exp(1j * phi) * rec.amps / np.linalg.norm(rec.amps)
    error = np.mean(np.abs(turned - ideal.amps) ** 2)
    assert error >= report.rmse_re**2 + report.rmse_im**2 - 1e-15
