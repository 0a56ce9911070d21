import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstsim import (
    DegenerateFieldError,
    FileFormatError,
    GridSpec,
    PROJECTORS,
    ScanRecords,
    TransverseWavefunction,
    gauge_fix,
    make_mode,
    ModeKind,
    ModeSpec,
    normalize,
    pointer_amplitudes,
    read_records_csv,
    sample_counts,
    scan,
    scan_probability_maps,
    write_records_csv,
)
from dstsim.engine import cell_rng
from conftest import edit_csv, random_field

STRONG = math.pi / 2


def uniform_field(n=2, pitch=1e-4):
    grid = GridSpec(n, n, pitch)
    return normalize(TransverseWavefunction(grid, np.ones((n, n), complex)))


# records.csv of the uniform 2x2 field, as written since the format was fixed
UNIFORM_2X2_HEADER = (b"ix,iy,w_plus,w_minus,w_0,w_1,w_L,w_R,"
                      b"n_plus,n_minus,n_0,n_1,n_L,n_R,budget\r\n")
UNIFORM_2X2_PROBS = b"0.5,0.125,0.5625,0.0625,0.31250000000000006,0.31250000000000006"
UNIFORM_2X2_NOISELESS = UNIFORM_2X2_HEADER + b"".join(
    b"%s,%s,,,,,,,0\r\n" % (cell, UNIFORM_2X2_PROBS)
    for cell in (b"0,0", b"1,0", b"0,1", b"1,1"))
UNIFORM_2X2_SAMPLED_SEED0 = UNIFORM_2X2_HEADER + b"".join(
    b"%s,%s,%s,10\r\n" % (cell, UNIFORM_2X2_PROBS, counts)
    for cell, counts in ((b"0,0", b"2,0,6,1,1,6"), (b"1,0", b"1,2,4,0,4,7"),
                         (b"0,1", b"3,4,5,0,1,1"), (b"1,1", b"7,2,8,2,3,0"))
)


class TestCouplingAngle:
    @pytest.mark.parametrize("theta", [0.0, -0.1, math.pi, math.nan])
    def test_theta_range(self, gaussian_8, theta):
        for measure in (pointer_amplitudes, scan_probability_maps, scan):
            with pytest.raises(ValueError, match="theta"):
                measure(gaussian_8, theta)

    def test_default_is_strong(self, gaussian_8):
        assert np.array_equal(scan_probability_maps(gaussian_8),
                              scan_probability_maps(gaussian_8, math.pi / 2))


def zero_cell_field(grid):
    """Random field with zero amplitude at cell (ix, iy) = (2, 4)."""
    amps = np.array(random_field(grid, seed=1).amps)
    amps[4, 2] = 0.0
    return normalize(TransverseWavefunction(grid, amps))


class TestCoupleAndPostselect:
    """Coupling at every cell and zero-momentum post-selection: :func:`pointer_amplitudes`."""

    def test_uniform_2x2_closed_form(self):
        # uniform psi = 1/2 per cell: sum = 2, a0 = (2 - 1/2)/2, a1 = (1/2)/2
        a0, a1 = pointer_amplitudes(uniform_field(2), STRONG)
        assert a0.shape == a1.shape == (2, 2)
        assert a0 == pytest.approx(np.full((2, 2), 0.75), abs=1e-12)
        assert a1 == pytest.approx(np.full((2, 2), 0.25), abs=1e-12)

    def test_strong_theta_ratio_identity(self, grid_8):
        # a1/a0 == psi / (ptilde - psi) at theta = pi/2, for every cell
        f = random_field(grid_8, seed=3)
        g, ptilde = gauge_fix(f)
        a0, a1 = pointer_amplitudes(f, STRONG)
        assert a1 / a0 == pytest.approx(g.amps / (ptilde - g.amps), abs=1e-12)

    def test_zero_amplitude_cell(self, grid_8):
        f = zero_cell_field(grid_8)
        _, a1 = pointer_amplitudes(f, STRONG)
        assert a1[4, 2] == 0.0
        probs = dict(zip(PROJECTORS, scan_probability_maps(f, STRONG)[:, 4, 2]))
        assert probs["1"] == 0.0
        assert probs["L"] == probs["R"]

    def test_global_phase_invariance(self, grid_8):
        f = random_field(grid_8, seed=5)
        g = f.with_amps(f.amps * np.exp(1j * 1.234))
        assert scan_probability_maps(f, STRONG) == pytest.approx(
            scan_probability_maps(g, STRONG), abs=1e-12)

    def test_unnormalized_rejected(self, grid_8):
        f = TransverseWavefunction(grid_8, np.full((8, 8), 0.5 + 0j))
        with pytest.raises(ValueError):
            pointer_amplitudes(f, STRONG)

    def test_zero_sum_field_degenerate(self):
        grid = GridSpec(2, 2, 1e-4)
        amps = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
        f = normalize(TransverseWavefunction(grid, amps))
        with pytest.raises(DegenerateFieldError):
            pointer_amplitudes(f, STRONG)

    def test_general_theta_reduces_to_strong(self, gaussian_8):
        # at theta = pi/2: a0 = (ptilde - psi)/sqrt(N), a1 = psi/sqrt(N)
        g, ptilde = gauge_fix(gaussian_8)
        a0, a1 = pointer_amplitudes(gaussian_8, math.pi / 2)
        assert a0 == pytest.approx((ptilde - g.amps) / 8, abs=1e-15)
        assert a1 == pytest.approx(g.amps / 8, abs=1e-15)

    def test_weak_limit_no_information(self, gaussian_8):
        g, ptilde = gauge_fix(gaussian_8)
        a0, a1 = pointer_amplitudes(gaussian_8, 1e-9)
        assert np.abs(a1).max() < 1e-9
        assert a0 == pytest.approx(np.full((8, 8), ptilde / math.sqrt(64)), rel=1e-9)


def circular_field():
    """2x2 field whose pointer at cell (0, 0) is the circular eigenstate: a1 = i a0."""
    amps = np.full((2, 2), (1 - 1j) / 6)
    amps[0, 0] = (1 + 1j) / 2
    return normalize(TransverseWavefunction(GridSpec(2, 2, 1e-4), amps))


class TestReadoutProbs:
    """The six projector probabilities of the pointers: :func:`scan_probability_maps`."""

    def test_pole_state(self, grid_8):
        # a zero-amplitude cell leaves the pointer at a0 |0>
        f = zero_cell_field(grid_8)
        a0, _ = pointer_amplitudes(f, STRONG)
        probs = dict(zip(PROJECTORS, scan_probability_maps(f, STRONG)[:, 4, 2] / abs(a0[4, 2]) ** 2))
        assert probs["plus"] == pytest.approx(0.5)
        assert probs["minus"] == pytest.approx(0.5)
        assert probs["1"] == 0.0
        assert probs["L"] == pytest.approx(0.5)
        assert probs["R"] == pytest.approx(0.5)

    def test_uniform_field_probs(self):
        # frozen from the (a0, a1) = (3/4, 1/4) pointer of every cell
        maps = scan_probability_maps(uniform_field(2), STRONG)
        for ix, iy in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            probs = dict(zip(PROJECTORS, maps[:, iy, ix]))
            assert probs["plus"] == pytest.approx(0.5, abs=1e-15)
            assert probs["minus"] == pytest.approx(0.125, abs=1e-15)
            assert probs["1"] == pytest.approx(0.0625, abs=1e-15)
            assert probs["L"] == pytest.approx(0.3125, abs=1e-15)
            assert probs["R"] == pytest.approx(0.3125, abs=1e-15)

    def test_circular_eigenstate(self):
        f = circular_field()
        a0, a1 = pointer_amplitudes(f, STRONG)
        assert a1[0, 0] == pytest.approx(1j * a0[0, 0], abs=1e-15)
        norm = abs(a0[0, 0]) ** 2 + abs(a1[0, 0]) ** 2
        probs = dict(zip(PROJECTORS, scan_probability_maps(f, STRONG)[:, 0, 0] / norm))
        assert probs["L"] == pytest.approx(1.0)
        assert probs["R"] == pytest.approx(0.0, abs=1e-15)

    def test_pair_sums_equal_norm(self, grid_8):
        f = random_field(grid_8, seed=11)
        a0, a1 = pointer_amplitudes(f, STRONG)
        probs = scan_probability_maps(f, STRONG)
        norm = np.abs(a0) ** 2 + np.abs(a1) ** 2
        for pair_sum in probs[0::2] + probs[1::2]:
            assert pair_sum == pytest.approx(norm, abs=1e-12)


UNIFORM_2X2_CELL = scan_probability_maps(uniform_field(2), STRONG)[:, 0, 0]
CIRCULAR_CELL = scan_probability_maps(circular_field(), STRONG)[:, 0, 0]
RIGHT = PROJECTORS.index("R")


class TestSampleCounts:
    def test_zero_budget(self):
        counts = sample_counts(UNIFORM_2X2_CELL, 0, seed=1)
        assert np.array_equal(counts, np.zeros(6, dtype=np.int64))

    def test_impossible_outcome_never_sampled(self):
        for seed in range(20):
            counts = sample_counts(CIRCULAR_CELL, 10_000, seed=seed)
            assert counts[RIGHT] == 0

    def test_deterministic_per_seed_and_cell(self):
        a = sample_counts(UNIFORM_2X2_CELL, 1000, seed=42, cell=(3, 4))
        b = sample_counts(UNIFORM_2X2_CELL, 1000, seed=42, cell=(3, 4))
        c = sample_counts(UNIFORM_2X2_CELL, 1000, seed=42, cell=(4, 3))
        d = sample_counts(UNIFORM_2X2_CELL, 1000, seed=43, cell=(3, 4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_basis_ratio_uniform_field(self):
        # P(plus | +/- basis) = (1/2) / (5/8) = 0.8 for the uniform 2x2 field
        n_plus, n_minus = sample_counts(UNIFORM_2X2_CELL, 10**6, seed=7)[:2]
        total = n_plus + n_minus
        ratio = n_plus / total
        sigma = math.sqrt(0.8 * 0.2 / total)
        assert abs(ratio - 0.8) < 3 * sigma

    def test_poisson_means(self):
        # pooled over seeds, each projector frequency matches its probability
        probs = UNIFORM_2X2_CELL
        budget = 10**5
        seeds = 100
        totals = sum(sample_counts(probs, budget, seed=seed) for seed in range(seeds))
        freq = totals / (seeds * budget)
        sigma = np.sqrt(probs * (1 - probs) / (seeds * budget))
        assert (np.abs(freq - probs) <= 5 * sigma).all()

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            sample_counts(UNIFORM_2X2_CELL, -1, seed=0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            sample_counts(UNIFORM_2X2_CELL[:5], 10, seed=0)

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (2**32, 0), (0, 2**32)])
    def test_rejects_aliasing_cell(self, cell):
        # cell_rng keeps 32 bits per index: (-1, 0) would draw cell (2**32 - 1, 0)'s stream
        with pytest.raises(ValueError):
            sample_counts(UNIFORM_2X2_CELL, 1000, seed=3, cell=cell)
        top = sample_counts(UNIFORM_2X2_CELL, 1000, seed=3, cell=(2**32 - 1, 2**32 - 1))
        assert top.sum() > 0

    @pytest.mark.parametrize("cell", [(1,), (1, 2, 3), ()])
    def test_rejects_cell_that_is_not_a_pair(self, cell):
        with pytest.raises(ValueError, match=r"\(ix, iy\) pair"):
            sample_counts(UNIFORM_2X2_CELL, 1000, seed=3, cell=cell)

    def test_rejects_non_integer_seed(self):
        # int() would truncate seed 1.5 onto seed 1's streams
        with pytest.raises(ValueError):
            sample_counts(UNIFORM_2X2_CELL, 1000, seed=1.5)
        with pytest.raises(ValueError):
            scan(uniform_field(2), STRONG, photons_per_setting=1000, seed=1.5)

    def test_rejects_non_integer_cell(self):
        # int() would truncate cell (3.7, 2) onto cell (3, 2)'s stream
        with pytest.raises(ValueError):
            sample_counts(UNIFORM_2X2_CELL, 1000, seed=1, cell=(3.7, 2))
        assert sample_counts(UNIFORM_2X2_CELL, 1000, seed=1,
                             cell=(np.int64(3), np.uint32(2))).sum() > 0

    def test_rejects_non_integer_budget(self):
        # ScanRecords refuses such a budget, so a resample must not draw for it
        with pytest.raises(ValueError):
            sample_counts(UNIFORM_2X2_CELL, 1000.5, seed=1)
        with pytest.raises(ValueError):
            sample_counts(UNIFORM_2X2_CELL, 1e3, seed=1)

    def test_golden_counts_large_budget(self):
        # pins the large-mean Poisson and binomial paths of stream v1, which the
        # 10-photon golden CSV never reaches
        counts = sample_counts(UNIFORM_2X2_CELL, 10**8, seed=7, cell=(3, 4))
        assert counts.tolist() == [50005344, 12502285, 56247354, 6252281, 31248610, 31243416]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_aliasing_seed(self, seed):
        # cell_rng keeps 64 seed bits: -1 would draw seed 2**64 - 1's streams
        with pytest.raises(ValueError):
            sample_counts(UNIFORM_2X2_CELL, 1000, seed=seed)
        with pytest.raises(ValueError):
            scan(uniform_field(2), STRONG, photons_per_setting=10, seed=seed)
        assert sample_counts(UNIFORM_2X2_CELL, 1000, seed=2**64 - 1).sum() > 0


EDGE_CELLS = [(0, 0), (2**32 - 1, 0), (0, 2**32 - 1), (2**32 - 1, 2**32 - 1)]


class TestCellStream:
    """Stream v1: each cell draws from Philox keyed by ``(seed << 64) | (iy << 32) | ix``."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("cell", EDGE_CELLS)
    def test_equals_philox_keyed_by_the_cell(self, cell, seed):
        ix, iy = cell
        rng = cell_rng(seed, ix, iy)
        ref = np.random.Generator(np.random.Philox(key=(seed << 64) | (iy << 32) | ix))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
        assert np.array_equal(rng.integers(0, 2**64, size=8, dtype=np.uint64),
                              ref.integers(0, 2**64, size=8, dtype=np.uint64))
        assert rng.poisson(1e7) == ref.poisson(1e7)
        assert rng.binomial(10**8, 0.3) == ref.binomial(10**8, 0.3)

    def test_cell_key_is_not_a_seed_sequence(self):
        rng = cell_rng(5, 3, 4)
        with pytest.raises(TypeError):
            rng.spawn(1)
        with pytest.raises(ValueError):
            np.random.MT19937(rng.bit_generator.seed_seq)


@settings(max_examples=100, deadline=None, database=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 7), field_seed=st.integers(0, 2**16),
       seed=st.integers(0, 2**64 - 1), budget=st.sampled_from([0, 1, 10**3, 10**8]))
def test_single_cell_resample_equals_scan(nx, ny, field_seed, seed, budget):
    records = scan(random_field(GridSpec(nx, ny, 1e-4), field_seed), STRONG, budget, seed)
    counts = (records.counts if budget else np.zeros(records.probs.shape, dtype=np.int64))
    for iy in range(ny):
        for ix in range(nx):
            assert np.array_equal(
                sample_counts(records.probs[:, iy, ix], budget, seed, (ix, iy)),
                counts[:, iy, ix])


class TestScan:
    def test_enumerates_cells_row_major(self):
        f = uniform_field(2)
        records = scan(f, STRONG)
        assert records.probs.shape == (6, 2, 2)
        assert records.counts is None

    def test_uniform_field_identical_probs(self):
        records = scan(uniform_field(4), STRONG)
        first = records.probs[:, :1, :1]
        assert records.probs == pytest.approx(np.broadcast_to(first, records.probs.shape),
                                              abs=1e-14)

    def test_gaussian_p1_peaks_at_center(self):
        grid = GridSpec(33, 33, 1e-4)
        f = make_mode(ModeSpec(ModeKind.GAUSSIAN, waist=4 * grid.pitch), grid)
        records = scan(f, STRONG)
        p1 = records.probs[PROJECTORS.index("1")]
        assert np.unravel_index(np.argmax(p1), p1.shape) == (16, 16)

    def test_matches_single_cell_api(self, grid_8):
        # resampling any one cell from the maps reproduces the full scan there exactly
        f = random_field(grid_8, seed=2)
        for theta in (math.pi / 2, 0.3):
            records = scan(f, theta, photons_per_setting=500, seed=99)
            maps = scan_probability_maps(f, theta)
            for iy in range(8):
                for ix in range(8):
                    probs = maps[:, iy, ix]
                    assert np.array_equal(records.probs[:, iy, ix], probs)
                    assert np.array_equal(records.counts[:, iy, ix],
                                          sample_counts(probs, 500, seed=99, cell=(ix, iy)))

    def test_probability_maps_match_records(self, gaussian_8):
        maps = scan_probability_maps(gaussian_8, STRONG)
        assert maps.shape == (6, 8, 8)
        assert np.array_equal(scan(gaussian_8, STRONG).probs, maps)

    def test_sampled_records_carry_budget(self, gaussian_8):
        records = scan(gaussian_8, STRONG, photons_per_setting=100, seed=1)
        assert records.photons_per_setting == 100
        assert records.counts is not None


class TestRecordsCsv:
    def test_round_trip_noiseless(self, tmp_path, gaussian_8):
        records = scan(gaussian_8, STRONG)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert back.probs.shape == records.probs.shape
        assert back.counts is None
        assert back.photons_per_setting == 0
        assert np.array_equal(back.probs, records.probs)  # 17 significant digits round-trip

    def test_round_trip_sampled(self, tmp_path, gaussian_8):
        records = scan(gaussian_8, STRONG, photons_per_setting=1000, seed=5)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert np.array_equal(back.counts, records.counts)
        assert back.photons_per_setting == 1000

    def test_header_schema(self, tmp_path, gaussian_8):
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, STRONG), path)
        header = path.read_text().splitlines()[0]
        assert header == ("ix,iy,w_plus,w_minus,w_0,w_1,w_L,w_R,"
                          "n_plus,n_minus,n_0,n_1,n_L,n_R,budget")

    def test_deterministic_bytes(self, tmp_path, gaussian_8):
        records = scan(gaussian_8, STRONG, photons_per_setting=100, seed=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(records, p1)
        write_records_csv(scan(gaussian_8, STRONG, photons_per_setting=100, seed=3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ix,iy\n0,0\n")
        with pytest.raises(FileFormatError):
            read_records_csv(path)

    def test_rejects_partial_counts(self, tmp_path, gaussian_8):
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, STRONG, photons_per_setting=10, seed=0), path)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[9] = ""
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_records_csv(path)

    def test_golden_bytes_noiseless(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(scan(uniform_field(2), STRONG), path)
        assert path.read_bytes() == UNIFORM_2X2_NOISELESS

    def test_golden_bytes_sampled(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(scan(uniform_field(2), STRONG, photons_per_setting=10, seed=0), path)
        assert path.read_bytes() == UNIFORM_2X2_SAMPLED_SEED0

    def test_reads_rows_in_any_order(self, tmp_path, gaussian_8):
        records = scan(gaussian_8, STRONG, photons_per_setting=10, seed=0)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        back = read_records_csv(path)
        assert np.array_equal(back.probs, records.probs)
        assert np.array_equal(back.counts, records.counts)

    @pytest.mark.parametrize("budget, rows, column, value", [
        (10, [3], 9, "-1"),              # a negative count
        (0, [3], 2, "-0.5"),             # a negative probability
        (10, [3], 14, "11"),             # budgets that differ between rows
        (10, range(64), 14, "0"),        # counts with a zero budget
        (0, range(64), 14, "10"),        # a budget with empty count columns
        (0, [3], 4, "nan"),              # a non-finite probability
        (10, [3], 0, "-1"),              # a cell index out of range
        (10, [3], 13, "2.0"),            # a non-integer count
        (0, [3], 14, "0,0"),             # an extra field
    ], ids=["negative-count", "negative-prob", "budgets-differ", "counts-zero-budget",
            "budget-no-counts", "nan-prob", "negative-index", "float-count", "extra-field"])
    def test_rejects_invalid_rows(self, tmp_path, gaussian_8, budget, rows, column, value):
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, STRONG, photons_per_setting=budget, seed=0), path)
        read_records_csv(path)
        edit_csv(path, rows, column, value)
        with pytest.raises(FileFormatError):
            read_records_csv(path)


class TestScanRecords:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ScanRecords(np.zeros((4, 2, 2)))
        with pytest.raises(ValueError):
            ScanRecords(np.zeros((6, 2, 2)), np.zeros((6, 2, 3), dtype=np.int64), 10)

    def test_counts_and_budget_go_together(self):
        with pytest.raises(ValueError):
            ScanRecords(np.zeros((6, 2, 2)), None, 10)
        with pytest.raises(ValueError):
            ScanRecords(np.zeros((6, 2, 2)), np.zeros((6, 2, 2), dtype=np.int64), 0)

    def test_rejects_non_finite_probability(self):
        probs = np.zeros((6, 2, 2))
        probs[1, 1, 0] = np.inf
        with pytest.raises(ValueError):
            ScanRecords(probs)

    def test_rejects_non_integer_budget(self, tmp_path, gaussian_8):
        with pytest.raises(ValueError):
            scan(gaussian_8, STRONG, photons_per_setting=1e3)
        records = scan(gaussian_8, STRONG, photons_per_setting=np.int64(1000), seed=5)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert back.photons_per_setting == 1000
        assert np.array_equal(back.counts, records.counts)
