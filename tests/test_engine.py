import math

import numpy as np
import pytest

from dstsim import (
    BASIS_PAIRS,
    CouplingConfig,
    DegenerateFieldError,
    FileFormatError,
    GridSpec,
    PROJECTORS,
    PointerState,
    Projector,
    ScanRecords,
    TransverseWavefunction,
    couple_and_postselect,
    dwt_pointer,
    gauge_fix,
    make_mode,
    ModeKind,
    ModeSpec,
    normalize,
    read_records_csv,
    readout_probs,
    sample_counts,
    scan,
    scan_probability_maps,
    write_records_csv,
)
from conftest import edit_csv, random_field

STRONG = CouplingConfig()


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


class TestCouplingConfig:
    @pytest.mark.parametrize("theta", [0.0, -0.1, math.pi])
    def test_theta_range(self, theta):
        with pytest.raises(ValueError):
            CouplingConfig(theta)

    def test_default_is_strong(self):
        assert STRONG.theta == pytest.approx(math.pi / 2)


class TestCoupleAndPostselect:
    def test_uniform_2x2_closed_form(self):
        # uniform psi = 1/2 per cell: sum = 2, a0 = (2 - 1/2)/2, a1 = (1/2)/2
        f = uniform_field(2)
        for cell in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            p = couple_and_postselect(f, cell, STRONG)
            assert p.a0 == pytest.approx(0.75, abs=1e-12)
            assert p.a1 == pytest.approx(0.25, abs=1e-12)

    def test_strong_theta_ratio_identity(self, grid_8):
        # a1/a0 == psi / (ptilde - psi) at theta = pi/2, for every cell
        f = random_field(grid_8, seed=3)
        g, ptilde = gauge_fix(f)
        for cell in [(0, 0), (3, 5), (7, 7)]:
            p = couple_and_postselect(f, cell, STRONG)
            psi_c = g.amps[cell[1], cell[0]]
            assert p.a1 / p.a0 == pytest.approx(psi_c / (ptilde - psi_c), abs=1e-12)

    def test_zero_amplitude_cell(self, grid_8):
        f = random_field(grid_8, seed=1)
        amps = np.array(f.amps)
        amps[4, 2] = 0.0
        f = normalize(TransverseWavefunction(grid_8, amps))
        p = couple_and_postselect(f, (2, 4), STRONG)
        assert p.a1 == 0.0
        probs = readout_probs(p)
        assert probs[Projector.P1] == 0.0
        assert probs[Projector.LEFT] == probs[Projector.RIGHT]

    def test_global_phase_invariance(self, grid_8):
        f = random_field(grid_8, seed=5)
        g = f.with_amps(f.amps * np.exp(1j * 1.234))
        for cell in [(0, 0), (5, 2)]:
            pa = readout_probs(couple_and_postselect(f, cell, STRONG))
            pb = readout_probs(couple_and_postselect(g, cell, STRONG))
            for proj in Projector:
                assert pa[proj] == pytest.approx(pb[proj], abs=1e-12)

    def test_cell_out_of_range(self, gaussian_8):
        with pytest.raises(ValueError):
            couple_and_postselect(gaussian_8, (8, 0), STRONG)

    def test_unnormalized_rejected(self, grid_8):
        f = TransverseWavefunction(grid_8, np.full((8, 8), 0.5 + 0j))
        with pytest.raises(ValueError):
            couple_and_postselect(f, (0, 0), STRONG)

    def test_zero_sum_field_degenerate(self):
        grid = GridSpec(2, 2, 1e-4)
        amps = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
        f = normalize(TransverseWavefunction(grid, amps))
        with pytest.raises(DegenerateFieldError):
            couple_and_postselect(f, (0, 0), STRONG)

    def test_general_theta_reduces_to_strong(self, gaussian_8):
        a = couple_and_postselect(gaussian_8, (3, 3), CouplingConfig(math.pi / 2))
        b = dwt_pointer(gaussian_8, (3, 3), math.pi / 2)
        assert a == b

    def test_weak_limit_no_information(self, gaussian_8):
        g, ptilde = gauge_fix(gaussian_8)
        p = dwt_pointer(gaussian_8, (3, 3), 1e-9)
        assert abs(p.a1) < 1e-9
        assert p.a0 == pytest.approx(ptilde / math.sqrt(64), rel=1e-9)


class TestReadoutProbs:
    def test_pole_state(self):
        probs = readout_probs(PointerState(1.0, 0.0))
        assert probs[Projector.PLUS] == pytest.approx(0.5)
        assert probs[Projector.MINUS] == pytest.approx(0.5)
        assert probs[Projector.P1] == 0.0
        assert probs[Projector.LEFT] == pytest.approx(0.5)
        assert probs[Projector.RIGHT] == pytest.approx(0.5)

    def test_uniform_field_probs(self):
        # frozen from the (a0, a1) = (3/4, 1/4) pointer
        probs = readout_probs(PointerState(0.75, 0.25))
        assert probs[Projector.PLUS] == pytest.approx(0.5, abs=1e-15)
        assert probs[Projector.MINUS] == pytest.approx(0.125, abs=1e-15)
        assert probs[Projector.P1] == pytest.approx(0.0625, abs=1e-15)
        assert probs[Projector.LEFT] == pytest.approx(0.3125, abs=1e-15)
        assert probs[Projector.RIGHT] == pytest.approx(0.3125, abs=1e-15)

    def test_circular_eigenstate(self):
        probs = readout_probs(PointerState(1 / math.sqrt(2), 1j / math.sqrt(2)))
        assert probs[Projector.LEFT] == pytest.approx(1.0)
        assert probs[Projector.RIGHT] == pytest.approx(0.0, abs=1e-15)

    def test_pair_sums_equal_norm(self, grid_8):
        f = random_field(grid_8, seed=11)
        for cell in [(0, 0), (2, 6), (7, 1)]:
            p = couple_and_postselect(f, cell, STRONG)
            probs = readout_probs(p)
            w = p.norm_sq
            for a, b in BASIS_PAIRS:
                assert probs[a] + probs[b] == pytest.approx(w, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            readout_probs(PointerState(float("nan"), 0.0))


class TestSampleCounts:
    def test_zero_budget(self):
        probs = readout_probs(PointerState(0.75, 0.25))
        counts = sample_counts(probs, 0, seed=1)
        assert all(v == 0 for v in counts.values())

    def test_impossible_outcome_never_sampled(self):
        probs = readout_probs(PointerState(1 / math.sqrt(2), 1j / math.sqrt(2)))
        for seed in range(20):
            counts = sample_counts(probs, 10_000, seed=seed)
            assert counts[Projector.RIGHT] == 0

    def test_deterministic_per_seed_and_cell(self):
        probs = readout_probs(PointerState(0.75, 0.25))
        a = sample_counts(probs, 1000, seed=42, cell=(3, 4))
        b = sample_counts(probs, 1000, seed=42, cell=(3, 4))
        c = sample_counts(probs, 1000, seed=42, cell=(4, 3))
        d = sample_counts(probs, 1000, seed=43, cell=(3, 4))
        assert a == b
        assert a != c
        assert a != d

    def test_basis_ratio_uniform_field(self):
        # P(plus | +/- basis) = (1/2) / (5/8) = 0.8 for the uniform 2x2 field
        probs = readout_probs(PointerState(0.75, 0.25))
        counts = sample_counts(probs, 10**6, seed=7)
        total = counts[Projector.PLUS] + counts[Projector.MINUS]
        ratio = counts[Projector.PLUS] / total
        sigma = math.sqrt(0.8 * 0.2 / total)
        assert abs(ratio - 0.8) < 3 * sigma

    def test_poisson_means(self):
        # pooled over seeds, each projector frequency matches its probability
        probs = readout_probs(PointerState(0.75, 0.25))
        budget = 10**5
        seeds = 100
        totals = {p: 0 for p in probs}
        for seed in range(seeds):
            counts = sample_counts(probs, budget, seed=seed)
            for p, v in counts.items():
                totals[p] += v
        for p in totals:
            freq = totals[p] / (seeds * budget)
            sigma = math.sqrt(probs[p] * (1 - probs[p]) / (seeds * budget))
            assert abs(freq - probs[p]) <= 5 * sigma

    def test_negative_budget(self):
        probs = readout_probs(PointerState(1.0, 0.0))
        with pytest.raises(ValueError):
            sample_counts(probs, -1, seed=0)


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
        p1 = records.probs[PROJECTORS.index(Projector.P1)]
        assert np.unravel_index(np.argmax(p1), p1.shape) == (16, 16)

    def test_matches_single_cell_api(self, grid_8):
        f = random_field(grid_8, seed=2)
        records = scan(f, STRONG, photons_per_setting=500, seed=99)
        for cell in [(0, 0), (5, 1), (7, 7)]:
            ix, iy = cell
            probs = readout_probs(couple_and_postselect(f, cell, STRONG))
            for k, p in enumerate(PROJECTORS):
                assert records.probs[k, iy, ix] == pytest.approx(probs[p], abs=1e-15)
            counts = dict(zip(PROJECTORS, records.counts[:, iy, ix].tolist()))
            assert counts == sample_counts(probs, 500, seed=99, cell=cell)

    def test_probability_maps_match_records(self, gaussian_8):
        maps, _ = scan_probability_maps(gaussian_8, STRONG)
        records = scan(gaussian_8, STRONG)
        for k, p in enumerate(PROJECTORS):
            assert np.array_equal(records.probs[k], maps[p])

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
